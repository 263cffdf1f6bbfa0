"""Reproducible experiment drivers.

Each scenario turns a validated :class:`ExperimentConfig` into a list of
:class:`ExperimentRow` records (one per depth or per sample) carrying the
Monte Carlo star-norm estimate, the deterministic norm columns, and a tuple
of pass/fail verdicts with numeric margins.  A margin is the slack left in
the inequality being checked: nonnegative means pass.

Each scenario is declared once, in ``_SCENARIOS``, and each system kind
and function shape by its builder, whose signature gives its fields.  A
config field its scenario does not read must keep its stock value.
A config is refused in one place, ``ExperimentConfig.validate``, when it is
built; the runner uses the system and function built there.

The per-depth scenarios share one row builder, ``_depth_rows``.  A scenario
hands it the derived function g_n, the sampling window, the centre (which
selects E|N(g) - centre| over the star norm) and its own verdicts; the
builder runs the Monte Carlo estimate and the norm columns and adds the
expected_star and slope verdicts itself.

Everything downstream of the seed is deterministic: rerunning a config with
the same seed reproduces every row bit for bit, and the JSON/CSV writers
emit canonical text so outputs can be compared byte-wise.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    TRANSFER_TAIL_TOL,
    DynamicalSystem,
    birkhoff,
    circle_indicator,
    make_boole,
    make_composite,
    make_translation,
    sampling_window,
    transfer_apply,
)
from .measure import (
    SimpleFunction,
    TestFunction,
    _cells,
    _finite,
    function_moments,
    indicator,
    integrate,
    piecewise_constant,
    piecewise_to_simple,
    simple_moments,
    simple_to_test,
    triangular_bump,
    window,
    window_intersect,
)
from .orlicz import gauge_norm, orlicz_norm_paper
from .poisson import (
    _MAX_MASS,
    _QUAD_TOL,
    MCEstimate,
    _estimate_abs,
    _exact_abs_moments,
    _philox,
    abs_moment_exact,
    coboundary_check,
    difference_check,
    equivariance_check,
    estimate_star_norm,
    estimate_starstar_norm,
    mecke_check,
    reduced_moment_check,
    sample_process,
    second_moment_check,
    star_norm_exact,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRow",
    "Verdict",
    "build_system",
    "build_function",
    "default_config",
    "run_experiment",
    "run_birkhoff_decay",
    "run_blum_hanson",
    "run_transfer_decay",
    "run_urbanik_scan",
    "run_starstar_ergodic",
    "run_invariant_vector",
    "run_identity_suite",
    "result_to_csv",
    "result_to_json",
]

_SUBSEQUENCES: dict[str, Callable[[int], int]] = {
    "k": lambda k: k,
    "k^2": lambda k: k * k,
    "2^k": lambda k: 2 ** k,
}

# the urbanik scan draws its functions on the Philox key (seed, _SCAN_STREAM);
# every other stream of a run is keyed by ``_stream_key``
_SCAN_STREAM = 77001

# Fixed bands: Birkhoff averages keep their L1 column within _L1_BAND of the
# first row's; Boole transfer iterates (window deficit below
# TRANSFER_TAIL_TOL times max(1, mass)) keep their mass within _MASS_BAND
# times max(1, the first row's L1), and are sampled on
# dynamics.sampling_window with quadrature tolerance _MC_QUAD.
_L1_BAND = 1e-6
_MASS_BAND = 2.0 * TRANSFER_TAIL_TOL + 1e-5
_MC_QUAD = 1e-6

CSV_COLUMNS = ("n", "star_mean", "star_se", "star_trunc", "gauge",
               "orlicz_paper", "l1", "l2")


class ConfigError(ValueError):
    """A malformed or unsupported experiment configuration."""


class Verdict(NamedTuple):
    id: str
    passed: bool
    margin: float


def _verdict(vid: str, margin: float) -> Verdict:
    margin = float(margin)
    return Verdict(vid, margin >= 0.0, margin)


_JSON_TYPES = {int: ("an integer", int), float: ("a number", (int, float)),
               str: ("a string", str), dict: ("a JSON object", dict),
               list: ("a JSON array", (list, tuple)),
               tuple: ("a JSON array", (list, tuple))}


def _typed(key: str, value, kind: type):
    """``value`` of config field ``key``, refused unless it already has
    JSON type ``kind``: nothing is coerced, and a bool is not an integer."""
    name, held_by = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, held_by):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return kind(value)


def _refuse_unknown(where: str, given: dict, known) -> None:
    unknown = sorted(str(k) for k in set(given) - set(known))
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{where}{k}" for k in unknown))


def _fields(spec, where: str, table: dict) -> dict:
    """The fields of config object ``where`` as ``table`` declares them (name
    -> default, or the JSON type of a field with no default, which must be
    given): unknown keys refused, values type-checked, absent ones defaulted."""
    spec = _typed(where, spec, dict)
    _refuse_unknown(f"{where}.", spec, table)
    out = {}
    for key, default in table.items():
        required = isinstance(default, type)
        if required and key not in spec:
            raise ConfigError(f"{where}.{key} is required")
        out[key] = _typed(f"{where}.{key}", spec.get(key, default),
                          default if required else type(default))
    return out


# the tolerances a config may set, with their defaults; sigma is the width,
# in standard errors, of every Monte Carlo band
_TOLERANCES = {"sigma": 3.0}

_SLOPE = {"value": float, "tol": 0.1, "min_depth": 8}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario name, system and function specs, mandatory
    seed, depths, replicate count, and tolerance / expectation overrides.

    Every instance is checked when it is built; a malformed one raises
    ConfigError."""

    scenario: str
    system: dict
    function: dict
    seed: int
    depths: tuple = (1,)
    replicates: int = 1000
    subsequence: str | None = None
    subsequence_cap: int = 4096
    tolerances: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    def __post_init__(self):
        # not a field: to_dict, == and the config hash ignore it
        object.__setattr__(self, "_built", self.validate())
        object.__setattr__(self, "depths", tuple(self.depths))

    def validate(self) -> "_Built":
        """Refuse this config, naming the field at fault, unless its scenario
        can run it; return what the runner reads."""
        scenario = _SCENARIOS.get(_typed("scenario", self.scenario, str))
        if scenario is None:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.seed is None:
            raise ConfigError("seed is required; there is no entropy default")
        if _typed("seed", self.seed, int) < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.seed >= 1 << 64:  # a Philox key word
            raise ConfigError(f"seed must be at most {(1 << 64) - 1}, got {self.seed}")
        depths = _depths(self.depths)
        if not depths:
            raise ConfigError("depths must be non-empty")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ConfigError("depths must be strictly increasing")
        if _typed("replicates", self.replicates, int) < 1000:
            raise ConfigError("replicates must be at least 10^3")
        names = ", ".join(sorted(_SUBSEQUENCES))
        if (self.subsequence is not None
                and _typed("subsequence", self.subsequence, str) not in _SUBSEQUENCES):
            raise ConfigError(f"subsequence must be one of {names}")
        if _typed("subsequence_cap", self.subsequence_cap, int) < 1:
            raise ConfigError("subsequence_cap must be positive")
        given = _filled(self.to_dict(), scenario.shapes)
        for key, value in given["expected"]["star"].items():
            _typed(f"expected.star.{_typed('expected.star key', key, str)}", value, float)
        slope = _slope(self.expected) if "slope" in self.expected else None
        stock = _filled({**_FIELD_DEFAULTS, **_STOCK, **scenario.stock}, scenario.shapes)
        unread = [d for key in stock if key not in scenario.reads
                  for d in _differences(given[key], stock[key], key)]
        if unread:
            raise ConfigError(f"{self.scenario} does not read {', '.join(unread)}: leave "
                              f"them at default_config({self.scenario!r}, seed)'s values")
        if depths[0] < scenario.min_depth:
            raise ConfigError(f"depths must start at >= {scenario.min_depth} for {self.scenario}")
        run = tuple(depths)  # the depths that get a row
        if "subsequence" in scenario.reads:
            if self.subsequence is None:
                raise ConfigError(f"{self.scenario} needs a subsequence: one of {names}")
            run = tuple(n for n in depths
                        if _SUBSEQUENCES[self.subsequence](n) <= self.subsequence_cap)
            if not run:
                raise ConfigError(f"subsequence {self.subsequence} exceeds subsequence_cap "
                                  f"{self.subsequence_cap} at every depth of {depths}")
        stray = sorted(set(given["expected"]["star"]) - {str(n) for n in depths})
        if stray:
            raise ConfigError(f"expected.star keys {', '.join(stray)} name no depth of {depths}")
        if slope is not None and not _slope_reachable(slope, run):
            raise ConfigError(f"expected.slope.min_depth {slope['min_depth']} leaves fewer "
                              f"than two of the depths {list(run)} to fit the slope on")
        system = build_system(given["system"])
        if scenario.kinds and system.kind not in scenario.kinds:
            raise ConfigError(f"{self.scenario} runs on the {' or '.join(scenario.kinds)} "
                              "system only")
        function = _build(given["function"], "function", "shape", scenario.shapes, system)
        return _Built(system, function, given["function"], given["tolerances"]["sigma"],
                      slope, run)

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), depths=list(self.depths))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        fields = dataclasses.fields(cls)
        _refuse_unknown("", _typed("config", d, dict), [f.name for f in fields])
        missing = [f.name for f in fields
                   if f.name not in d and f.name not in _FIELD_DEFAULTS]
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# each config field a config may leave out, at its default
_FIELD_DEFAULTS = {f.name: f.default_factory() if f.default is dataclasses.MISSING
                   else f.default for f in dataclasses.fields(ExperimentConfig)
                   if f.default is not dataclasses.MISSING
                   or f.default_factory is not dataclasses.MISSING}


class _Built(NamedTuple):
    """What ``ExperimentConfig.validate`` built for the runner: the system,
    the function (urbanik_scan: the generator's settings) and its filled-in
    spec, the Monte Carlo band width sigma, expected.slope filled in or None,
    and the depths that get a row (not those past a subsequence cap)."""
    system: DynamicalSystem
    function: TestFunction | tuple
    spec: dict
    sigma: float
    slope: dict | None
    depths: tuple


def _depths(value) -> list[int]:
    return [_typed("depths entry", d, int) for d in _typed("depths", value, list)]


def _filled(c: dict, shapes: dict) -> dict:
    """Config fields ``c`` with every table's defaults filled in; ``shapes``
    is the table its function shape is read from."""
    return dict(c, depths=list(c["depths"]),
                system=_spec_fields(c["system"], "system", "kind", _SYSTEMS),
                function=_spec_fields(c["function"], "function", "shape", shapes),
                tolerances=_fields(c["tolerances"], "tolerances", _TOLERANCES),
                expected=_fields(c["expected"], "expected", {"star": {}, "slope": {}}))


def _differences(given, stock, where: str) -> list[str]:
    """The dotted fields at which ``given`` differs from ``stock``; a
    filled-in field is never None, so None stands for an absent key."""
    if isinstance(given, dict) and isinstance(stock, dict):
        return [d for key in sorted(set(given) | set(stock), key=str)
                for d in _differences(given.get(key), stock.get(key), f"{where}.{key}")]
    return [] if given == stock else [where]


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    star: MCEstimate
    gauge: float
    orlicz_paper: float
    l1: float
    l2: float
    verdicts: tuple[Verdict, ...]
    seed: int
    config_hash: str
    norm_source: str = "simple"


def _stream_key(seed: int, scenario: str, index: int) -> int:
    """The Philox key word of stream ``index`` (a row's depth, a check's
    number) of a ``scenario`` run at ``seed``: the first 8 bytes, big-endian,
    of the SHA-256 of "seed/scenario/index", so no two streams share a key."""
    digest = hashlib.sha256(f"{int(seed)}/{scenario}/{int(index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# system and function builders

def _numbers(key: str, xs) -> tuple[float, ...]:
    return tuple(_typed(key, x, float) for x in xs)


def _steps(breaks: list, values: list) -> TestFunction:
    return piecewise_constant(_numbers("function.breaks", breaks),
                              _numbers("function.values", values))


def _atoms(atoms: list) -> TestFunction:
    return simple_to_test(SimpleFunction(tuple(_numbers("function.atoms", (v, m))
                                               for v, m in atoms)))


def _circle_plus_indicator(sys: DynamicalSystem, lo: float, hi: float,
                           scale: float = 1.0, line_scale: float = 1.0) -> TestFunction:
    """The invariant circle's indicator plus one on the line."""
    _finite("circle_plus_indicator", lo=lo, hi=hi, scale=scale, line_scale=line_scale)
    circ = circle_indicator(sys, scale)
    line = indicator(lo, hi, line_scale)

    def _eval(x, a=circ, b=line):
        return a.eval(x) + b.eval(x)

    return TestFunction(
        eval=_eval,
        support=window(*(circ.support.intervals + line.support.intervals)),
        sup_bound=max(circ.sup_bound, line.sup_bound),
        breakpoints=tuple(sorted(circ.breakpoints + line.breakpoints)),
    )


def _random_atoms(samples: int = 200, max_atoms: int = 5,
                  value_range: tuple = (0.05, 5.0), mass_range: tuple = (0.01, 10.0),
                  homogeneity_scale: float = 4.0):
    """The scan's generator of random simple functions, checked: (samples,
    max_atoms, value (lo, hi), mass (lo, hi), homogeneity_scale)."""
    if samples < 1:
        raise ConfigError(f"function.samples must be at least 1, got {samples}")
    if not 1 <= max_atoms <= 5:
        raise ConfigError(f"function.max_atoms must be between 1 and 5, got {max_atoms}")
    if not 0 < homogeneity_scale < math.inf:
        raise ConfigError("function.homogeneity_scale must be positive and finite, "
                          f"got {homogeneity_scale!r}")
    ranges = []
    for key, lo_hi in (("value_range", value_range), ("mass_range", mass_range)):
        lo_hi = _numbers(f"function.{key} entry", lo_hi)
        if len(lo_hi) != 2 or not 0 < lo_hi[0] < lo_hi[1] < math.inf:
            raise ConfigError(f"function.{key} must be a positive, finite, ordered "
                              f"[lo, hi] pair, got {list(lo_hi)!r}")
        ranges.append(lo_hi)
    if ranges[1][1] > _MAX_MASS:
        raise ConfigError(f"function.mass_range must end at most {_MAX_MASS}, the exact "
                          f"oracle's largest mass, got {list(ranges[1])!r}")
    return samples, max_atoms, *ranges, homogeneity_scale


@functools.cache
def _declared(build: Callable) -> dict:
    """The fields of a system or function builder in ``_fields`` form: each
    parameter with its default or, when it has none, its annotated JSON
    type.  A ``sys`` parameter is the system a shape is laid on, not a field."""
    params = inspect.signature(build, eval_str=True).parameters.values()
    return {p.name: p.annotation if p.default is p.empty else p.default
            for p in params if p.name != "sys"}


# each system kind and function shape by its builder
_SYSTEMS = {"translation": make_translation, "boole": make_boole,
            "composite": make_composite}
_SHAPES = {"indicator": indicator, "bump": triangular_bump, "steps": _steps,
           "atoms": _atoms, "circle": circle_indicator,
           "circle_plus_indicator": _circle_plus_indicator}
# the urbanik scan's function spec names a generator of random simple
# functions, not a function
_GENERATORS = {"random_atoms": _random_atoms}


def _spec_fields(spec, where: str, tag: str, table: dict) -> dict:
    """A system or function spec with its kind or shape (``tag``) checked,
    and the fields ``table`` declares for it checked and defaulted."""
    name = _typed(f"{where}.{tag}", _typed(where, spec, dict).get(tag), str)
    if name not in table:
        raise ConfigError(f"unknown {where} {tag} {name!r}; use {', '.join(table)}")
    return {tag: name, **_fields({k: v for k, v in spec.items() if k != tag},
                                 where, _declared(table[name]))}


def _build(spec, where: str, tag: str, table: dict, sys: DynamicalSystem | None = None):
    """What a system or function spec builds, checked as ``_spec_fields``
    checks it; a shape laid on a system gets ``sys``."""
    fields = _spec_fields(spec, where, tag, table)
    name = fields.pop(tag)
    build = table[name]
    if "sys" in inspect.signature(build).parameters:
        fields["sys"] = sys
    try:
        return build(**fields)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} spec for {tag} {name!r}: {exc}") from exc


def build_system(spec: dict) -> DynamicalSystem:
    return _build(spec, "system", "kind", _SYSTEMS)


def build_function(spec: dict, sys: DynamicalSystem | None = None) -> TestFunction:
    """The function a spec describes; a shape laid on a system needs ``sys``."""
    return _build(spec, "function", "shape", _SHAPES, sys)


# ---------------------------------------------------------------------------
# norm columns

def _discretize(g: TestFunction) -> SimpleFunction:
    """Midpoint piecewise-constant surrogate on a breakpoint-aligned grid of
    about 1200 cells.

    The grid covers the part of the support within a core radius around the
    breakpoint hull; far tails are left out, so norms of the surrogate are
    approximations and rows built from them are flagged as discretized.
    """
    hull = 10.0
    if g.breakpoints:
        hull = max(hull, max(abs(b) for b in g.breakpoints) + 10.0)
    core = window_intersect(g.support, window((-max(60.0, hull), max(60.0, hull))))
    if not core:
        core = g.support
    total = core.measure
    a, b = _cells(core.intervals, sorted(set(g.breakpoints)))
    atoms = []
    for lo, hi in zip(a.tolist(), b.tolist()):
        k = max(1, int(round(1200 * (hi - lo) / total)))
        grid = np.linspace(lo, hi, k + 1)
        vals = np.asarray(g.eval(0.5 * (grid[:-1] + grid[1:])), dtype=float)
        for v, m in zip(vals, np.diff(grid)):
            if abs(v) > 1e-15 and m > 0:
                atoms.append((float(v), float(m)))
    return SimpleFunction(tuple(atoms))


def _norm_columns(g: TestFunction):
    """(gauge, orlicz, l1, l2, source, simple-or-None) for a row function."""
    try:
        s = piecewise_to_simple(g)
    except ValueError:
        s = None
    d = _discretize(g) if s is None else s
    mom, _ = function_moments(g if s is None else s, tol=1e-7)
    return (float(gauge_norm(d)), float(orlicz_norm_paper(d)), float(mom.l1),
            math.sqrt(mom.l2sq), "discretized" if s is None else "simple", s)


# ---------------------------------------------------------------------------
# verdict helpers

def _band_verdict(vid: str, est: MCEstimate, target: float | MCEstimate, sigma: float,
                  slack: float = 0.0) -> Verdict:
    """The estimate within sigma standard errors plus its truncation bound
    (and ``slack``) of ``target``; a target that is itself an estimate adds
    its standard error and truncation bound to the band."""
    se, bound = est.std_error, est.truncation_bound
    if isinstance(target, MCEstimate):
        se, bound = se + target.std_error, bound + target.truncation_bound
        target = target.mean
    band = sigma * se + bound + slack + 1e-9
    return _verdict(vid, band - abs(est.mean - target))


def _oracle_verdict(vid: str, est: MCEstimate, oracle, s: SimpleFunction | None,
                    sigma: float) -> Verdict | None:
    """The estimate against oracle(s); none when the row has no simple form
    or the oracle refuses it."""
    if s is None:
        return None
    try:
        target = oracle(s)
    except ValueError:
        return None
    return _band_verdict(vid, est, target, sigma)


def _nonincreasing_verdict(rows: list[ExperimentRow], est: MCEstimate) -> Verdict:
    if not rows:
        return _verdict("star_nonincreasing", 0.0)
    prev = rows[-1].star
    band = 2.0 * (prev.std_error + est.std_error) \
        + prev.truncation_bound + est.truncation_bound
    return _verdict("star_nonincreasing", prev.mean + band - est.mean)


def _constant_l1_verdict(vid: str, band: float, rows: list[ExperimentRow],
                         row: ExperimentRow, relative: bool = False) -> Verdict:
    """The row's L1 column within ``band`` of the first row's; a
    ``relative`` band is scaled by max(1, the first row's L1)."""
    first = rows[0].l1 if rows else row.l1
    if relative:
        band *= max(1.0, first)
    return _verdict(vid, band - abs(row.l1 - first))


def _slope(expected: dict) -> dict:
    """expected.slope's value, tol and min_depth, checked and defaulted; the
    fit takes the log of each depth, so min_depth is at least 1."""
    spec = _fields(expected["slope"], "expected.slope", _SLOPE)
    return dict(spec, min_depth=max(spec["min_depth"], 1))


def _slope_reachable(spec: dict, depths) -> bool:
    """Whether two or more of ``depths`` reach the filled-in slope spec's
    min_depth."""
    return sum(n >= spec["min_depth"] for n in depths) >= 2


def _slope_verdict(rows: list[ExperimentRow], spec: dict) -> Verdict | None:
    """Least-squares log-log slope of the star column over the rows at
    depth >= min_depth of the filled-in slope spec."""
    pts = [(math.log(r.n), math.log(r.star.mean)) for r in rows
           if r.n >= spec["min_depth"] and r.star.mean > 0]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean()))
                  / np.sum((xs - xs.mean()) ** 2))
    return _verdict("slope", spec["tol"] - abs(slope - spec["value"]))


# ---------------------------------------------------------------------------
# the per-depth row builder

def _depth_rows(cfg: ExperimentConfig, derive: Callable[[int], TestFunction],
                checks, window_of=None, center: float | None = None,
                quad_tol: float = _QUAD_TOL):
    """Rows and summary of a per-depth scenario.

    For each depth n: g = derive(n); the Monte Carlo estimate over
    window_of(g, n) (default: g's support) of the star norm, or of
    E|N(g) - center| when ``center`` is given; the norm columns; then the
    verdicts checks(row, s, rows) -- s the row's simple form or None, rows
    the rows so far -- followed by expected_star.  The slope verdict, when
    expected, goes on the last row.
    """
    chash = cfg.config_hash()
    rows: list[ExperimentRow] = []
    for n in cfg.depths:
        g = derive(n)
        w = g.support if window_of is None else window_of(g, n)
        seed = _stream_key(cfg.seed, cfg.scenario, n)
        if center is None:
            est = estimate_star_norm(g, w, cfg.replicates, seed, quad_tol=quad_tol)
        else:
            est = _estimate_abs(g, w, cfg.replicates, seed, center=center,
                                quad_tol=quad_tol)
        gauge, orl, l1, l2, source, s = _norm_columns(g)
        row = ExperimentRow(n, est, gauge, orl, l1, l2, (), cfg.seed, chash, source)
        target = cfg.expected.get("star", {}).get(str(n))
        verdicts = (*checks(row, s, rows), None if target is None else
                    _band_verdict("expected_star", est, float(target), cfg._built.sigma))
        rows.append(dataclasses.replace(
            row, verdicts=tuple(v for v in verdicts if v is not None)))
    if cfg._built.slope is not None:
        sv = _slope_verdict(rows, cfg._built.slope)
        if sv is not None:
            rows[-1] = dataclasses.replace(rows[-1], verdicts=rows[-1].verdicts + (sv,))
    return rows, _summarize(cfg, rows)


# ---------------------------------------------------------------------------
# scenario runners

def _average_decay_rows(cfg: ExperimentConfig, subsequence: Callable[[int], tuple | None]):
    """Rows of Birkhoff averages g_n, along subsequence(n) when not None."""
    sys, f, _, sigma, *_ = cfg._built
    return _depth_rows(
        cfg, lambda n: birkhoff(f, sys, n, subsequence=subsequence(n)),
        lambda row, s, rows: (
            _constant_l1_verdict("l1_constant", _L1_BAND, rows, row),
            _nonincreasing_verdict(rows, row.star),
            _oracle_verdict("exact_oracle", row.star, star_norm_exact, s, sigma)))


def run_birkhoff_decay(cfg: ExperimentConfig):
    """Star norm of depth-n Birkhoff averages against the L1 column."""
    return _average_decay_rows(cfg, lambda n: None)


def run_blum_hanson(cfg: ExperimentConfig):
    """Birkhoff averages along a named subsequence of iterate exponents; the
    depths beyond the subsequence cap are dropped with a warning."""
    formula = _SUBSEQUENCES[cfg.subsequence]
    kept = cfg._built.depths
    if kept != cfg.depths:
        warnings.warn(f"subsequence {cfg.subsequence} exceeds cap {cfg.subsequence_cap} at "
                      f"depths {list(cfg.depths[len(kept):])}; truncating to {list(kept)}")
        star = {k: v for k, v in cfg.expected.get("star", {}).items() if int(k) in kept}
        expected = dict(cfg.expected, star=star) if "star" in cfg.expected else cfg.expected
        cfg = dataclasses.replace(cfg, depths=kept, expected=expected)
    return _average_decay_rows(
        cfg, lambda n: tuple(formula(k) for k in range(1, n + 1)))


def run_transfer_decay(cfg: ExperimentConfig):
    """Star norm of transfer-operator iterates under the Boole map; the
    summary's ``fit_error_estimate`` gives, by depth, the heuristic sup-norm
    error estimate of each iterate's interpolant (0.0 for f itself)."""
    sys, f, _, sigma, *_ = cfg._built
    fit_error = {}

    def derive(n):
        g = transfer_apply(f, sys, n)
        fit_error[str(n)] = g.fit_error or 0.0
        return g

    rows, summary = _depth_rows(
        cfg, derive,
        lambda row, s, rows: (
            _constant_l1_verdict("mass_conserved", _MASS_BAND, rows, row, relative=True),
            _nonincreasing_verdict(rows, row.star),
            _oracle_verdict("exact_oracle", row.star, star_norm_exact, s, sigma)),
        window_of=lambda g, n: sampling_window(g, sys, n), quad_tol=_MC_QUAD)
    return rows, dict(summary, fit_error_estimate=fit_error)


def run_urbanik_scan(cfg: ExperimentConfig):
    """Exact star norms of random simple functions against the gauge and
    Orlicz columns; every sample checks the two-sided gauge comparison.

    Every sample s is drawn first, then the exact star norms of s, |s| and
    scale * s for all samples come from one batched exact call
    (``poisson._exact_abs_moments``), bit for bit those of
    ``star_norm_exact``."""
    samples, max_atoms, (v_lo, v_hi), (m_lo, m_hi), scale = cfg._built.function
    rng = _philox(cfg.seed, _SCAN_STREAM)
    drawn = []
    for _ in range(samples):
        k = int(rng.integers(1, max_atoms + 1))
        signs = rng.integers(0, 2, k) * 2 - 1
        vals = signs * rng.uniform(v_lo, v_hi, k)
        # exp of a draw at log(m_hi) can round past m_hi (to 30.000000000000004
        # at 30), so masses are capped at m_hi, inside the exact oracle's domain
        masses = np.minimum(np.exp(rng.uniform(math.log(m_lo), math.log(m_hi), k)), m_hi)
        drawn.append(SimpleFunction(tuple(zip(map(float, vals), map(float, masses)))))
    stars = _exact_abs_moments(
        (t, None) for s in drawn
        for t in (s, SimpleFunction(tuple((abs(v), m) for v, m in s.atoms)),
                  SimpleFunction(tuple((scale * v, m) for v, m in s.atoms))))
    chash = cfg.config_hash()
    rows: list[ExperimentRow] = []
    ratios_gauge: list[float] = []
    ratios_orlicz: list[float] = []
    for i in range(1, samples + 1):
        s = drawn[i - 1]
        star, star_abs, star_scaled = stars[3 * i - 3:3 * i]
        gauge = float(gauge_norm(s))
        orl = float(orlicz_norm_paper(s))
        l1, l2sq = simple_moments(s)
        est = MCEstimate(star, 0.0, 1, _stream_key(cfg.seed, cfg.scenario, i), 1e-12)
        ratios_gauge.append(star / gauge)
        ratios_orlicz.append(star / orl)
        verdicts = (
            _verdict("marcus_lower", star - 0.125 * gauge),
            _verdict("marcus_upper", 2.125 * gauge - star),
            _verdict("star_le_orlicz", orl - star + 1e-9),
            _verdict("gauge_orlicz_bracket",
                     min(orl - gauge + 1e-8, 2.0 * gauge - orl + 1e-8)),
            _verdict("abs_upper", 2.0 * star_abs - star + 1e-9),
            _verdict("abs_lower", 2.0 * star - star_abs + 1e-9),
            _verdict("scale_homogeneity",
                     1e-8 * max(1.0, scale * star) - abs(star_scaled - scale * star)),
        )
        rows.append(ExperimentRow(i, est, gauge, orl, float(l1),
                                  math.sqrt(l2sq), verdicts, cfg.seed, chash))
    summary = _summarize(cfg, rows)
    summary["ratio_star_over_gauge"] = {"min": min(ratios_gauge),
                                        "max": max(ratios_gauge)}
    summary["ratio_star_over_orlicz"] = {"min": min(ratios_orlicz),
                                         "max": max(ratios_orlicz)}
    return rows, summary


def run_starstar_ergodic(cfg: ExperimentConfig):
    """E|N(g_n) - int f| for Birkhoff averages g_n: the uncentered distance
    to the constant the averages converge to on the suspension."""
    sys, f, _, sigma, *_ = cfg._built
    center = float(integrate(f, f.support, tol=1e-10)[0])
    return _depth_rows(
        cfg, lambda n: birkhoff(f, sys, n),
        lambda row, s, rows: (
            _nonincreasing_verdict(rows, row.star),
            _oracle_verdict("center_oracle", row.star,
                            lambda t: abs_moment_exact(t, center=center), s, sigma)),
        center=center)


def run_invariant_vector(cfg: ExperimentConfig):
    """Birkhoff averages over the composite system: the star column stays at
    the exact norm of the invariant circle component."""
    sys, f, spec, sigma, *_ = cfg._built
    length = sys.params[0]
    scale = spec["scale"]
    target = star_norm_exact(SimpleFunction(((scale, length),)))
    target_l2sq = scale * scale * length

    def checks(row, s, rows):
        # the transient part of the average is controlled by its L2 norm
        drift = math.sqrt(max(row.l2 * row.l2 - target_l2sq, 0.0))
        return (_band_verdict("at_invariant_level", row.star, target, sigma, drift),)

    return _depth_rows(cfg, lambda n: birkhoff(f, sys, n), checks)


def run_identity_suite(cfg: ExperimentConfig):
    """One pass/fail check per distributional identity, with margins."""
    R = int(cfg.replicates)
    R_mecke = min(R, 2000)
    # check i draws on stream i, the difference check's points on stream 0
    key = functools.partial(_stream_key, cfg.seed, cfg.scenario)
    checks: list[Verdict] = []
    w = window((0.0, 2.0))

    # Mecke: constant, position-dependent, and count-coupled weights
    for i, (name, h) in enumerate((
        ("mecke_constant", lambda xs, others: np.ones_like(xs)),
        ("mecke_position", lambda xs, others: xs),
        ("mecke_count_coupled", lambda xs, others: xs * (others.shape[-1] + 1)),
    ), start=1):
        lhs, rhs = mecke_check(h, w, R_mecke, key(i))
        checks.append(_band_verdict(name, lhs, rhs, 4.0))

    # difference operator: adding a point moves the integral by exactly f(x)
    fns = (
        indicator(0.0, 1.0, 1.0 / 3.0),
        triangular_bump(1.0, 0.5, -2.0 / 7.0),
        piecewise_constant((0.0, 0.3, 1.1, 2.0), (0.7, -1.9, 0.25)),
    )
    comps = [integrate(fd, w, tol=1e-10)[0] for fd in fns]
    rng = _philox(key(0))
    worst = 0.0
    for t in range(30):
        fd, comp = fns[t % len(fns)], comps[t % len(fns)]
        s = sample_process(w, key(4), t)
        x = float(rng.uniform(0.0, 2.0))
        obs, expect = difference_check(fd, s, x, comp)
        worst = max(worst, abs(obs - expect))
    checks.append(_verdict("difference_exact", 0.0 - worst if worst else 0.0))

    # second moment: Var I_1(f) = int f^2
    fb = triangular_bump(1.0, 1.0, 1.5)
    est, l2sq = second_moment_check(fb, w, R, key(5))
    checks.append(_band_verdict("l2_isometry", est, l2sq, 4.0))

    # reduced second moment: E[N(g)N(h) - N(gh)] = int g int h
    est, target = reduced_moment_check(indicator(0.0, 1.0), indicator(0.5, 1.5),
                                       w, R, key(6))
    checks.append(_band_verdict("reduced_moment", est, target, 4.0))

    # equivariance and coboundary under both invertible-window setups
    trans = make_translation(1.0)
    f_eq = triangular_bump(0.5, 0.5, 1.0)
    win_t = (window((-1.0, 1.0)), window((0.0, 2.0)))
    boole = make_boole()
    f_bo = triangular_bump(0.0, 0.5, 1.0)
    # input window T^{-1}[-1, 1]: one interval per Boole branch
    (y_plus, _), (y_minus, _) = boole.preimages(np.array([-1.0, 1.0]))
    win_b = (window(tuple(y_plus), tuple(y_minus)), window((-1.0, 1.0)))
    for name, check, offset in (("equivariance", equivariance_check, 7),
                                ("coboundary", coboundary_check, 8)):
        for kind, sys_d, fd, wins, band in (("translation", trans, f_eq, win_t, 1e-8),
                                            ("boole", boole, f_bo, win_b, 1e-7)):
            worst = 0.0
            for t in range(10):
                s = sample_process(wins[0], key(offset), t)
                l, r = check(fd, sys_d, s, wins)
                worst = max(worst, abs(l - r))
            checks.append(_verdict(f"{name}_{kind}", band - worst))

    # uncentered norm identities
    f_pos = piecewise_constant((0.0, 0.6, 1.4), (0.8, 1.3))
    est = estimate_starstar_norm(f_pos, w, R, key(9))
    checks.append(_band_verdict("starstar_eq_l1_nonneg", est, 0.6 * 0.8 + 0.8 * 1.3, 3.0))
    f_mix = piecewise_constant((0.0, 1.0, 2.0), (1.0, -1.0))
    est = estimate_starstar_norm(f_mix, w, R, key(10))
    checks.append(_verdict("starstar_gap_mixed",
                           2.0 - est.mean - 3.0 * est.std_error
                           - est.truncation_bound))
    ss = estimate_starstar_norm(f_mix, w, R, key(11))
    st = estimate_star_norm(f_mix, w, R, key(12))
    checks.append(_band_verdict("starstar_eq_star_zero_integral", ss, st, 3.0))

    summary = _summarize(cfg, [])
    summary["checks"] = [c._asdict() for c in checks]
    summary["all_pass"] = all(c.passed for c in checks)
    return [], summary


def run_experiment(cfg: ExperimentConfig):
    """Dispatch a config to its scenario runner."""
    return _SCENARIOS[cfg.scenario].run(cfg)


def _summarize(cfg: ExperimentConfig, rows: list[ExperimentRow]) -> dict:
    verdicts = [v for r in rows for v in r.verdicts]
    return {
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash(),
        "rows": len(rows),
        "verdicts_total": len(verdicts),
        "verdicts_failed": sum(1 for v in verdicts if not v.passed),
        "all_pass": all(v.passed for v in verdicts),
    }


# ---------------------------------------------------------------------------
# default configs

# Settings the stock configs share; each scenario lists only those in which
# it differs
_STOCK = {
    "system": {"kind": "translation", **_declared(make_translation)},
    "function": {"shape": "indicator", **_declared(indicator), "lo": 0.0, "hi": 1.0},
    "depths": (1, 2, 4, 8, 16, 32),
    "replicates": 100_000,
}
# the stock scan spec lists every generator field but homogeneity_scale, as
# the stock config hashes record it
_SCAN_STOCK = {"shape": "random_atoms", **{k: v for k, v in _declared(_random_atoms).items()
                                            if k != "homogeneity_scale"}}


class _Scenario(NamedTuple):
    """A scenario: its runner, the config fields it reads besides scenario
    and seed, its stock settings where they differ from _STOCK, the reduced
    settings `porlicz suite` runs it at, the system kinds it runs on (any,
    when it reads no system), its smallest depth and the table its function
    shape is read from."""
    run: Callable
    reads: tuple
    stock: dict
    suite: dict
    kinds: tuple = ()
    min_depth: int = 1
    shapes: dict = _SHAPES


_PER_DEPTH = ("system", "function", "depths", "replicates", "tolerances", "expected")
_LINE = ("translation", "boole")

# in the order `porlicz suite` runs them
_SCENARIOS = {
    "identity_suite": _Scenario(
        run_identity_suite, ("replicates",), {"depths": (1,), "replicates": 4000}, {}),
    "birkhoff_decay": _Scenario(
        run_birkhoff_decay, _PER_DEPTH, {"expected": {"slope": dict(_SLOPE, value=-0.5)}},
        {"depths": (1, 2, 4, 8), "replicates": 20_000}, _LINE),
    "blum_hanson": _Scenario(
        run_blum_hanson, _PER_DEPTH + ("subsequence", "subsequence_cap"),
        {"depths": (1, 2, 4, 8), "replicates": 20_000, "subsequence": "k^2"},
        {"depths": (1, 2, 3), "replicates": 5000}, _LINE),
    "transfer_decay": _Scenario(
        run_transfer_decay, _PER_DEPTH,
        {"system": {"kind": "boole"},
         "function": {"shape": "indicator", **_declared(indicator), "lo": 1.0, "hi": 2.0},
         "depths": tuple(range(11)), "replicates": 2000},
        {"depths": (0, 1, 2), "replicates": 1500}, ("boole",), min_depth=0),
    "urbanik_scan": _Scenario(
        run_urbanik_scan, ("function",),
        {"function": _SCAN_STOCK, "depths": (1,), "replicates": 1000},
        {"function": dict(_SCAN_STOCK, samples=50)}, shapes=_GENERATORS),
    "starstar_ergodic": _Scenario(
        run_starstar_ergodic, _PER_DEPTH, {},
        {"depths": (1, 2, 4), "replicates": 20_000}, _LINE),
    "invariant_vector": _Scenario(
        run_invariant_vector, _PER_DEPTH,
        {"system": {"kind": "composite", **_declared(make_composite)},
         "function": {"shape": "circle", **_declared(circle_indicator)}},
        {"depths": (1, 2, 4), "replicates": 10_000}, ("composite",)),
}


def default_config(scenario: str, seed: int, **overrides) -> ExperimentConfig:
    """The stock configuration for a scenario, with field overrides."""
    stock = _SCENARIOS[scenario].stock if scenario in _SCENARIOS else {}
    base = {**_STOCK, **stock, **overrides}
    expected = base.get("expected", {})
    if ("expected" not in overrides and "slope" in expected
            and not _slope_reachable(_slope(expected), _depths(base["depths"]))):
        # the stock slope expectation is left out when the requested depths
        # cannot reach it, so the config records only the checks that run
        base["expected"] = {k: v for k, v in expected.items() if k != "slope"}
    return ExperimentConfig(scenario=scenario, seed=seed, **base)


# ---------------------------------------------------------------------------
# canonical writers

def _fmt(x: float) -> str:
    return repr(float(x))


def result_to_csv(rows: list[ExperimentRow], summary: dict) -> str:
    """Canonical CSV: the fixed eight columns, then per-verdict pass/margin
    pairs; the identity suite emits check rows instead."""
    if "checks" in summary:
        lines = ["check,passed,margin"]
        lines += [f"{c['id']},{int(c['passed'])},{_fmt(c['margin'])}"
                  for c in summary["checks"]]
        return "\n".join(lines) + "\n"
    vids: list[str] = []
    for r in rows:
        for v in r.verdicts:
            if v.id not in vids:
                vids.append(v.id)
    header = list(CSV_COLUMNS)
    for vid in vids:
        header += [f"{vid}_pass", f"{vid}_margin"]
    lines = [",".join(header)]
    for r in rows:
        cells = [str(r.n), _fmt(r.star.mean), _fmt(r.star.std_error),
                 _fmt(r.star.truncation_bound), _fmt(r.gauge),
                 _fmt(r.orlicz_paper), _fmt(r.l1), _fmt(r.l2)]
        by_id = {v.id: v for v in r.verdicts}
        for vid in vids:
            v = by_id.get(vid)
            cells += ["", ""] if v is None else [str(int(v.passed)), _fmt(v.margin)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def result_to_json(cfg: ExperimentConfig, rows: list[ExperimentRow],
                   summary: dict) -> str:
    doc = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": int(cfg.seed),
        "rows": [dict(dataclasses.asdict(r), verdicts=[v._asdict() for v in r.verdicts])
                 for r in rows],
        "summary": summary,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
