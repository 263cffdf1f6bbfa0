"""Command-line interface.

Four subcommands:

* ``norm``    -- norms of a function given inline (atom list or named shape);
* ``sample``  -- one Poisson sample of a window;
* ``run``     -- run an experiment described by a JSON config file;
* ``suite``   -- run the identity checks plus a reduced version of every
                 scenario, as a single seeded pass/fail gate.

Exit codes are the only success signal: 0 means everything passed, 2 means
the experiment ran but some verdict failed, 1 means the invocation or the
config was unusable.  All output is deterministic given the seed; no
environment variables are consulted and nothing is timestamped.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .measure import (
    SimpleFunction,
    function_moments,
    piecewise_to_simple,
    window,
)
from .orlicz import gauge_norm, orlicz_norm_amemiya, orlicz_norm_paper
from .poisson import (
    QuadratureError,
    estimate_star_norm,
    estimate_starstar_norm,
    hsu_error_floor,
    sample_process,
    star_norm_exact,
    star_norm_hsu,
    starstar_norm_exact,
)
from .dynamics import PULLBACK_CAP, birkhoff, sampling_window, transfer_apply
from .experiments import (
    _SCENARIOS,
    _SHAPES,
    _SYSTEMS,
    ExperimentConfig,
    _declared,
    build_function,
    build_system,
    default_config,
    result_to_csv,
    result_to_json,
    run_experiment,
)

__all__ = ["main", "parse_atoms", "parse_function_spec", "parse_system_spec"]

class UsageError(Exception):
    """Bad invocation or unusable input; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        # argparse stores [] for an inline value '--', as in ``--atoms=--``
        parsed = super().parse_args(args, namespace)
        for key, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{key.replace('_', '-')}: expected one argument")
        return parsed


# ---------------------------------------------------------------------------
# spec parsers

def parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    """Parse ``(v,m);(v,m)`` (``,`` also separates pairs); empty gives ().

    Errors carry the 1-based line and column of the offending character.
    """
    atoms = []
    i, n = 0, len(text)

    def fail(pos: int, expected: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        raise UsageError(f"atom spec parse error at line {line}, column {col}: "
                         f"expected {expected}")

    def skip_ws(j):
        while j < n and text[j] in " \t\n":
            j += 1
        return j

    def number(j):
        start = j
        if j < n and text[j] in "+-":
            j += 1
        seen = False
        while j < n and (text[j].isdigit() or text[j] in ".eE"):
            if text[j] in "eE" and j + 1 < n and text[j + 1] in "+-":
                j += 2
                continue
            seen = True
            j += 1
        if not seen:
            fail(start, "a number")
        try:
            return float(text[start:j]), j
        except ValueError:
            fail(start, "a number")

    i = skip_ws(i)
    while i < n:
        if text[i] != "(":
            fail(i, "'('")
        i = skip_ws(i + 1)
        v, i = number(i)
        i = skip_ws(i)
        if i >= n or text[i] != ",":
            fail(i, "','")
        i = skip_ws(i + 1)
        m, i = number(i)
        i = skip_ws(i)
        if i >= n or text[i] != ")":
            fail(i, "')'")
        atoms.append((v, m))
        i = skip_ws(i + 1)
        if i < n:
            if text[i] not in ";,":
                fail(i, "';' or ',' between pairs")
            i = skip_ws(i + 1)
            if i >= n:
                fail(i, "another '(v,m)' pair")
    return tuple(atoms)


def _floats(body: str, where: str) -> list[float]:
    out = []
    for part in body.split(","):
        part = part.strip()
        try:
            out.append(float(part))
        except ValueError:
            raise UsageError(f"{where}: {part!r} is not a number") from None
    return out


def _parse_spec(token: str, where: str, tag: str, table: dict) -> dict:
    """``name[:fields]`` for a declaration of ``table``: its fields in
    order, the required ones alone or all of them, comma separated -- or one
    comma list per field, '|' separated, when the fields are lists."""
    name, _, body = token.partition(":")
    name = name.strip()
    if name not in table:
        raise UsageError(f"unknown {where} {tag} {name!r}; use {', '.join(table)}")
    if name == "atoms":
        return {tag: name, "atoms": [list(a) for a in parse_atoms(body)]}
    fields = _declared(table[name])
    sep = "|" if list in fields.values() else ","
    parts = body.split(sep) if body else []
    required = [k for k, v in fields.items() if isinstance(v, type)]
    if len(parts) not in (len(required), len(fields)):
        forms = dict.fromkeys(f"{name}:{sep.join(keys)}" if keys else name
                              for keys in (required, list(fields)))
        raise UsageError(f"bad {where} {token!r}: use {' or '.join(forms)}")
    spec = {tag: name}
    for key, part in zip(fields, parts):
        values = _floats(part, f"{name} {key}")
        spec[key] = values if sep == "|" else values[0]
    return spec


def parse_function_spec(token: str) -> dict:
    """A function spec, e.g. ``indicator:lo,hi[,scale]``,
    ``steps:b0,...,bk|v1,...,vk`` or ``atoms:(v,m);(v,m)``: the fields of
    each shape are the parameters of its builder."""
    return _parse_spec(token, "function", "shape", _SHAPES)


def parse_system_spec(token: str) -> dict:
    """A system spec, e.g. ``translation[:step]``, ``boole`` or
    ``composite[:circumference,angle,step]``."""
    return _parse_spec(token, "system", "kind", _SYSTEMS)


def _parse_window(token: str):
    pieces = []
    for part in token.split(";"):
        vals = _floats(part, "window")
        if len(vals) != 2 or vals[0] >= vals[1]:
            raise UsageError("window intervals are 'lo,hi' with lo < hi")
        pieces.append((vals[0], vals[1]))
    return window(*pieces)


# ---------------------------------------------------------------------------
# norm command

def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_norm(args) -> int:
    if (args.atoms is None) == (args.function is None):
        raise UsageError("norm needs exactly one of --atoms or --function")
    which = [w.strip() for w in args.which.split(",")] if args.which else list(NORM_NAMES)
    bad = sorted(set(which) - set(NORM_NAMES))
    if bad:
        raise UsageError(f"unknown norms: {', '.join(bad)}; "
                         f"choose from {', '.join(NORM_NAMES)}")

    # where the Monte Carlo norms sample g, when not its whole support
    args.sample_window = None
    if args.atoms is not None:
        g = SimpleFunction(parse_atoms(args.atoms))
    else:
        spec = parse_function_spec(args.function)
        if args.apply != "none" and args.system is None:
            raise UsageError(f"--apply {args.apply} needs --system")
        # the system comes first: a shape laid on it (circle) needs it
        sys_d = None if args.system is None else build_system(parse_system_spec(args.system))
        f = build_function(spec, sys_d)
        if args.apply == "birkhoff":
            f = birkhoff(f, sys_d, args.depth)
            if not f.breakpoints_complete:
                raise UsageError(
                    f"--apply birkhoff at depth {args.depth}: the average has more than "
                    f"{PULLBACK_CAP} breakpoints on a branching system; its cells and "
                    "norms are out of reach")
        elif args.apply == "transfer":
            f = transfer_apply(f, sys_d, args.depth)
            args.sample_window = sampling_window(f, sys_d, args.depth)
        try:
            g = piecewise_to_simple(f)
        except ValueError:
            g = f
    lines = [f"{name} {_NORMS[name](g, args)}" for name in which]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


_HSU_FALLBACK_TOL = 1e-8


def _finite(name: str, x: float) -> float:
    """x, or a refusal when it is not finite: the norm is beyond the float
    range, or an overflow on the way made it nan."""
    x = float(x)
    if not math.isfinite(x):
        raise UsageError(f"{name}: the value is {x!r}; it or a step on the way is beyond "
                         f"the float range (largest float {sys.float_info.max!r})")
    return x


def _poisson_norm(name: str, g, args) -> str:
    """star or starstar: the exact oracle on a SimpleFunction (star falls
    back to Hsu beyond its reach, or refuses at once when Hsu cannot prove
    _HSU_FALLBACK_TOL), a seeded Monte Carlo estimate otherwise."""
    if isinstance(g, SimpleFunction):
        if name == "starstar":
            return repr(_finite(name, starstar_norm_exact(g)))
        try:
            return repr(_finite(name, star_norm_exact(g)))
        except ValueError as exc:
            floor = hsu_error_floor(g)
            if floor > _HSU_FALLBACK_TOL:
                raise UsageError(
                    f"star: {exc}, and the Hsu fallback can prove no error bound "
                    f"below {floor:g} (needs {_HSU_FALLBACK_TOL:g})") from None
            return repr(_finite(name, star_norm_hsu(g, tol=_HSU_FALLBACK_TOL)))
    if args.seed is None:
        raise UsageError(f"{name} of a non-simple function is a Monte Carlo "
                         "estimate and needs --seed")
    est_fn = estimate_star_norm if name == "star" else estimate_starstar_norm
    w = g.support if args.sample_window is None else args.sample_window
    est = est_fn(g, w, args.replicates, args.seed)
    _finite(name, est.mean)
    _finite(f"{name} standard error", est.std_error)
    fit = "" if g.fit_error is None else f" fit_est={g.fit_error!r}"
    return f"{est.mean!r} se={est.std_error!r} trunc={est.truncation_bound!r}{fit}"


def _moment_norm(name: str, g) -> str:
    """l1 or l2 of g; refused when the moment behind it overflows."""
    mom, _ = function_moments(g, tol=1e-9)
    return repr(_finite(name, math.sqrt(mom.l2sq) if name == "l2" else float(mom.l1)))


# name -> evaluator(g, args) giving the printed value; g is the input's
# SimpleFunction when it has an exact atom form, else its TestFunction
_NORMS = {
    "gauge": lambda g, args: repr(float(gauge_norm(g))),
    "orlicz": lambda g, args: repr(float(orlicz_norm_paper(g))),
    "amemiya": lambda g, args: repr(float(orlicz_norm_amemiya(g))),
    "star": lambda g, args: _poisson_norm("star", g, args),
    "starstar": lambda g, args: _poisson_norm("starstar", g, args),
    "l1": lambda g, args: _moment_norm("l1", g),
    "l2": lambda g, args: _moment_norm("l2", g),
}
NORM_NAMES = tuple(_NORMS)


# ---------------------------------------------------------------------------
# sample command

# the largest window measure ``sample`` draws over: it prints one line per
# point, about measure(w) of them, and numpy's Poisson draw refuses a large
# mean with a bare "lam value too large"
_MAX_SAMPLE_MEASURE = 1e6


def cmd_sample(args) -> int:
    if args.seed is None:
        raise UsageError("sample needs --seed; there is no entropy default")
    w = _parse_window(args.window)
    if not w.measure <= _MAX_SAMPLE_MEASURE:
        raise UsageError(f"sample: the window's measure {w.measure:g} is over the cap of "
                         f"{_MAX_SAMPLE_MEASURE:g}, since every point is printed")
    s = sample_process(w, args.seed, args.replicate)
    if args.format == "json":
        doc = {
            "window": [list(iv) for iv in w.intervals],
            "seed": args.seed,
            "replicate": args.replicate,
            "count": int(s.points.size),
            "points": [float(x) for x in s.points],
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    else:
        lines = [f"count {s.points.size}"]
        lines += [repr(float(x)) for x in s.points]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# run command

def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    cfg = ExperimentConfig.from_dict(raw)
    rows, summary = run_experiment(cfg)
    if args.format == "json":
        _emit(result_to_json(cfg, rows, summary), args.output)
    else:
        _emit(result_to_csv(rows, summary), args.output)
    return 0 if summary["all_pass"] else 2


# ---------------------------------------------------------------------------
# suite command

def cmd_suite(args) -> int:
    if args.seed is None:
        raise UsageError("suite needs --seed; there is no entropy default")
    sections = []
    docs = {}
    ok = True
    for scenario, declared in _SCENARIOS.items():
        cfg = default_config(scenario, seed=args.seed, **declared.suite)
        rows, summary = run_experiment(cfg)
        ok = ok and summary["all_pass"]
        if args.format == "json":
            docs[scenario] = json.loads(result_to_json(cfg, rows, summary))
        else:
            head = (f"# scenario {scenario} hash {cfg.config_hash()} "
                    f"all_pass {int(summary['all_pass'])}")
            sections.append(head + "\n" + result_to_csv(rows, summary))
    if args.format == "json":
        doc = {"seed": args.seed, "all_pass": ok, "scenarios": docs}
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    else:
        _emit("\n".join(sections), args.output)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser() -> _Parser:
    p = _Parser(prog="porlicz",
                description="Poisson-integral Orlicz norm laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    n = sub.add_parser("norm", help="norms of an inline function")
    n.add_argument("--atoms", help="simple function as '(v,m);(v,m)'")
    n.add_argument("--function", help="named shape, e.g. 'indicator:0,1'")
    n.add_argument("--apply", choices=("none", "birkhoff", "transfer"),
                   default="none", help="derive the function through a system")
    n.add_argument("--system", help="system spec, e.g. 'translation:1'")
    n.add_argument("--depth", type=int, default=1)
    n.add_argument("--which", help=f"comma list from {','.join(NORM_NAMES)}")
    n.add_argument("--seed", type=int)
    n.add_argument("--replicates", type=int, default=100_000)
    n.add_argument("--output")
    n.set_defaults(func=cmd_norm)

    s = sub.add_parser("sample", help="draw one Poisson sample of a window")
    s.add_argument("--window", required=True, help="'lo,hi[;lo,hi]'")
    s.add_argument("--seed", type=int)
    s.add_argument("--replicate", type=int, default=0)
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--output")
    s.set_defaults(func=cmd_sample)

    r = sub.add_parser("run", help="run an experiment from a JSON config")
    r.add_argument("--config", required=True)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--output")
    r.set_defaults(func=cmd_run)

    u = sub.add_parser("suite", help="identity checks plus every scenario")
    u.add_argument("--seed", type=int)
    u.add_argument("--format", choices=("csv", "json"), default="csv")
    u.add_argument("--output")
    u.set_defaults(func=cmd_suite)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, QuadratureError) as exc:
        # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
