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
    sample_process,
    star_norm_exact,
    star_norm_hsu,
    starstar_norm_exact,
)
from .dynamics import birkhoff, transfer_apply
from .experiments import (
    ExperimentConfig,
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


def parse_function_spec(token: str) -> dict:
    """``indicator:lo,hi[,scale]``, ``bump:center,halfwidth[,height]``,
    ``steps:b0,...,bk|v1,...,vk``, or ``atoms:(v,m);(v,m)``."""
    kind, _, body = token.partition(":")
    kind = kind.strip()
    if kind == "indicator":
        vals = _floats(body, "indicator")
        if len(vals) not in (2, 3):
            raise UsageError("indicator takes lo,hi[,scale]")
        spec = {"shape": "indicator", "lo": vals[0], "hi": vals[1]}
        if len(vals) == 3:
            spec["scale"] = vals[2]
        return spec
    if kind == "bump":
        vals = _floats(body, "bump")
        if len(vals) not in (2, 3):
            raise UsageError("bump takes center,halfwidth[,height]")
        spec = {"shape": "bump", "center": vals[0], "halfwidth": vals[1]}
        if len(vals) == 3:
            spec["height"] = vals[2]
        return spec
    if kind == "steps":
        breaks_body, bar, values_body = body.partition("|")
        if not bar:
            raise UsageError("steps takes breaks|values")
        breaks = _floats(breaks_body, "steps breaks")
        values = _floats(values_body, "steps values")
        if len(values) != len(breaks) - 1:
            raise UsageError("steps needs one more break than values")
        return {"shape": "steps", "breaks": breaks, "values": values}
    if kind == "atoms":
        return {"shape": "atoms", "atoms": [list(a) for a in parse_atoms(body)]}
    raise UsageError(f"unknown function shape {kind!r}; use indicator, bump, "
                     "steps, or atoms")


def parse_system_spec(token: str) -> dict:
    """``translation[:step]``, ``boole``, or
    ``composite[:circumference,angle,step]``."""
    kind, _, body = token.partition(":")
    kind = kind.strip()
    if kind == "translation":
        return {"kind": "translation", "step": float(body) if body else 1.0}
    if kind == "boole":
        return {"kind": "boole"}
    if kind == "composite":
        spec = {"kind": "composite"}
        if body:
            vals = _floats(body, "composite")
            if len(vals) != 3:
                raise UsageError("composite takes circumference,angle,step")
            spec.update(circumference=vals[0], angle=vals[1], step=vals[2])
        return spec
    raise UsageError(f"unknown system {kind!r}; use translation, boole, "
                     "or composite")


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

    if args.atoms is not None:
        g = SimpleFunction(parse_atoms(args.atoms))
    else:
        spec = parse_function_spec(args.function)
        f = build_function(spec)
        if args.apply != "none":
            if args.system is None:
                raise UsageError(f"--apply {args.apply} needs --system")
            sys_d = build_system(parse_system_spec(args.system))
            if args.apply == "birkhoff":
                f = birkhoff(f, sys_d, args.depth)
            else:
                f = transfer_apply(f, sys_d, args.depth)
        try:
            g = piecewise_to_simple(f)
        except ValueError:
            g = f
    lines = [f"{name} {_NORMS[name](g, args)}" for name in which]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _poisson_norm(name: str, g, args) -> str:
    """star or starstar: the exact oracle on a SimpleFunction (star falls
    back to Hsu beyond its reach), a seeded Monte Carlo estimate otherwise."""
    if isinstance(g, SimpleFunction):
        if name == "starstar":
            return repr(float(starstar_norm_exact(g)))
        try:
            return repr(float(star_norm_exact(g)))
        except ValueError:
            return repr(float(star_norm_hsu(g, tol=1e-8)))
    if args.seed is None:
        raise UsageError(f"{name} of a non-simple function is a Monte Carlo "
                         "estimate and needs --seed")
    est_fn = estimate_star_norm if name == "star" else estimate_starstar_norm
    est = est_fn(g, g.support, args.replicates, args.seed)
    return f"{est.mean!r} se={est.std_error!r} trunc={est.truncation_bound!r}"


# name -> evaluator(g, args) giving the printed value; g is the input's
# SimpleFunction when it has an exact atom form, else its TestFunction
_NORMS = {
    "gauge": lambda g, args: repr(float(gauge_norm(g))),
    "orlicz": lambda g, args: repr(float(orlicz_norm_paper(g))),
    "amemiya": lambda g, args: repr(float(orlicz_norm_amemiya(g))),
    "star": lambda g, args: _poisson_norm("star", g, args),
    "starstar": lambda g, args: _poisson_norm("starstar", g, args),
    "l1": lambda g, args: repr(float(function_moments(g, tol=1e-9)[0].l1)),
    "l2": lambda g, args: repr(math.sqrt(function_moments(g, tol=1e-9)[0].l2sq)),
}
NORM_NAMES = tuple(_NORMS)


# ---------------------------------------------------------------------------
# sample command

def cmd_sample(args) -> int:
    if args.seed is None:
        raise UsageError("sample needs --seed; there is no entropy default")
    w = _parse_window(args.window)
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

_SUITE_OVERRIDES: tuple[tuple[str, dict], ...] = (
    ("identity_suite", {"replicates": 4000}),
    ("birkhoff_decay", {"depths": (1, 2, 4, 8), "replicates": 20_000,
                        "expected": {}}),
    ("blum_hanson", {"depths": (1, 2, 3), "replicates": 5000}),
    ("transfer_decay", {"depths": (0, 1, 2), "replicates": 1500}),
    ("urbanik_scan", {"function": {"shape": "random_atoms", "samples": 50,
                                   "max_atoms": 5, "value_range": (0.05, 5.0),
                                   "mass_range": (0.01, 10.0)}}),
    ("starstar_ergodic", {"depths": (1, 2, 4), "replicates": 20_000}),
    ("invariant_vector", {"depths": (1, 2, 4), "replicates": 10_000}),
)


def cmd_suite(args) -> int:
    if args.seed is None:
        raise UsageError("suite needs --seed; there is no entropy default")
    sections = []
    docs = {}
    ok = True
    for scenario, over in _SUITE_OVERRIDES:
        cfg = default_config(scenario, seed=args.seed, **over)
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
