"""Reproducible experiment drivers.

Each scenario turns a validated :class:`ExperimentConfig` into a list of
:class:`ExperimentRow` records (one per depth or per sample) carrying the
Monte Carlo star-norm estimate, the deterministic norm columns, and a tuple
of pass/fail verdicts with numeric margins.  A margin is the slack left in
the inequality being checked: nonnegative means pass.

The per-depth scenarios (birkhoff_decay, blum_hanson, transfer_decay,
starstar_ergodic, invariant_vector) share one row builder, ``_depth_rows``.
A scenario hands it the derived function g_n, the sampling window, the
centre (which selects E|N(g) - centre| over the star norm) and its own
verdicts; the builder runs the Monte Carlo estimate and the norm columns
and adds the expected_star and slope verdicts itself.

Everything downstream of the seed is deterministic: rerunning a config with
the same seed reproduces every row bit for bit, and the JSON/CSV writers
emit canonical text so outputs can be compared byte-wise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    GOLDEN,
    DynamicalSystem,
    birkhoff,
    circle_indicator,
    make_boole,
    make_composite,
    make_translation,
    transfer_apply,
)
from .measure import (
    SimpleFunction,
    TestFunction,
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
    _QUAD_TOL,
    MCEstimate,
    _estimate_abs,
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
    "SCENARIOS",
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

SCENARIOS = (
    "birkhoff_decay",
    "blum_hanson",
    "transfer_decay",
    "urbanik_scan",
    "starstar_ergodic",
    "invariant_vector",
    "identity_suite",
)

_SUBSEQUENCES: dict[str, Callable[[int], int]] = {
    "k": lambda k: k,
    "k^2": lambda k: k * k,
    "2^k": lambda k: 2 ** k,
}

_SCAN_STREAM = 77001  # reserved replicate id for the urbanik sampler

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


_CONFIG_KEYS = ("scenario", "system", "function", "depths", "replicates",
                "seed", "subsequence", "subsequence_cap", "tolerances",
                "expected")


def _typed(key: str, value, kind: type):
    """``value`` of config field ``key``, refused unless it already has
    JSON type ``kind``: nothing is coerced, and a bool is not an integer."""
    if kind in (int, float):
        numeric = numbers.Integral if kind is int else numbers.Real
        ok = isinstance(value, numeric) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        names = {int: "an integer", float: "a number", str: "a string",
                 dict: "a JSON object"}
        raise ConfigError(f"{key} must be {names[kind]}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario name, system and function specs, depths,
    replicate count, mandatory seed, and tolerance / expectation overrides."""

    scenario: str
    system: dict
    function: dict
    depths: tuple
    replicates: int
    seed: int
    subsequence: str | None = None
    subsequence_cap: int = 4096
    tolerances: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.seed is None:
            raise ConfigError("seed is required; there is no entropy default")
        if int(self.replicates) < 1000:
            raise ConfigError("replicates must be at least 10^3")
        if not isinstance(self.system, dict) or not isinstance(self.function, dict):
            raise ConfigError("system and function must be mappings")
        depths = tuple(self.depths)
        if not depths:
            raise ConfigError("depths must be non-empty")
        if any(int(d) != d for d in depths):
            raise ConfigError("depths must be integers")
        lo = 0 if self.scenario == "transfer_decay" else 1
        if depths[0] < lo:
            raise ConfigError(f"depths must start at >= {lo} for {self.scenario}")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ConfigError("depths must be strictly increasing")
        if self.subsequence is not None and self.subsequence not in _SUBSEQUENCES:
            names = ", ".join(sorted(_SUBSEQUENCES))
            raise ConfigError(f"subsequence must be one of {names}")
        if int(self.subsequence_cap) < 1:
            raise ConfigError("subsequence_cap must be positive")
        for key, value in self.tolerances.items():
            _typed(f"tolerances.{key}", value, float)
        for key, value in _typed("expected.star", self.expected.get("star", {}),
                                 dict).items():
            _typed(f"expected.star.{key}", value, float)
        if "slope" in self.expected:
            slope = _typed("expected.slope", self.expected["slope"], dict)
            _typed("expected.slope.value", slope.get("value"), float)
            _typed("expected.slope.tol", slope.get("tol", 0.1), float)
            _typed("expected.slope.min_depth", slope.get("min_depth", 8), int)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "system": dict(self.system),
            "function": dict(self.function),
            "depths": [int(d) for d in self.depths],
            "replicates": int(self.replicates),
            "seed": int(self.seed),
            "subsequence": self.subsequence,
            "subsequence_cap": int(self.subsequence_cap),
            "tolerances": dict(self.tolerances),
            "expected": dict(self.expected),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(d) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("scenario", "system", "function", "seed") if k not in d]
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        if d["seed"] is None:
            raise ConfigError("seed is required; there is no entropy default")
        depths = d.get("depths", (1,))
        if not isinstance(depths, (list, tuple)):
            raise ConfigError(f"depths must be a list of integers, got {depths!r}")
        subsequence = d.get("subsequence")
        cfg = cls(
            scenario=_typed("scenario", d["scenario"], str),
            system=_typed("system", d["system"], dict),
            function=_typed("function", d["function"], dict),
            depths=tuple(_typed("depths entry", x, int) for x in depths),
            replicates=_typed("replicates", d.get("replicates", 1000), int),
            seed=_typed("seed", d["seed"], int),
            subsequence=(None if subsequence is None
                         else _typed("subsequence", subsequence, str)),
            subsequence_cap=_typed("subsequence_cap", d.get("subsequence_cap", 4096), int),
            tolerances=_typed("tolerances", d.get("tolerances", {}), dict),
            expected=_typed("expected", d.get("expected", {}), dict),
        )
        cfg.validate()
        slope = cfg.expected.get("slope")
        if slope is not None and sum(n >= _slope_min_depth(slope) for n in cfg.depths) < 2:
            raise ConfigError(
                f"expected.slope.min_depth {slope.get('min_depth', 8)} leaves fewer "
                f"than two of the depths {list(cfg.depths)} to fit the slope on")
        return cfg

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


def _row_seed(seed: int, n: int) -> int:
    return int(seed) + 1_000_003 * (int(n) + 1)


# ---------------------------------------------------------------------------
# system and function builders

def build_system(spec: dict) -> DynamicalSystem:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("system spec needs a 'kind' field")
    kind = spec["kind"]
    num = lambda key, default: _typed(f"system.{key}", spec.get(key, default), float)
    try:
        if kind == "translation":
            return make_translation(num("step", 1.0))
        if kind == "boole":
            return make_boole()
        if kind == "composite":
            return make_composite(circumference=num("circumference", 1.0),
                                  angle=num("angle", GOLDEN), step=num("step", 1.0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown system kind {kind!r}")


def build_function(spec: dict, sys: DynamicalSystem | None = None) -> TestFunction:
    if not isinstance(spec, dict) or "shape" not in spec:
        raise ConfigError("function spec needs a 'shape' field")
    shape = spec["shape"]

    def num(key: str, default: float | None = None) -> float:
        value = spec[key] if default is None else spec.get(key, default)
        return _typed(f"function.{key}", value, float)

    def nums(key: str) -> tuple[float, ...]:
        return tuple(_typed(f"function.{key}", x, float) for x in spec[key])
    try:
        if shape == "indicator":
            return indicator(num("lo"), num("hi"), num("scale", 1.0))
        if shape == "bump":
            return triangular_bump(num("center"), num("halfwidth"), num("height", 1.0))
        if shape == "steps":
            return piecewise_constant(nums("breaks"), nums("values"))
        if shape == "atoms":
            s = SimpleFunction(tuple((_typed("function.atoms", v, float),
                                      _typed("function.atoms", m, float))
                                     for v, m in spec["atoms"]))
            return simple_to_test(s)
        if shape == "circle":
            if sys is None or sys.kind != "composite":
                raise ConfigError("shape 'circle' needs a composite system")
            return circle_indicator(sys, num("scale", 1.0))
        if shape == "circle_plus_indicator":
            if sys is None or sys.kind != "composite":
                raise ConfigError("shape 'circle_plus_indicator' needs a composite system")
            circ = circle_indicator(sys, num("scale", 1.0))
            line = indicator(num("lo"), num("hi"), num("line_scale", 1.0))

            def _eval(x, a=circ, b=line):
                return a.eval(x) + b.eval(x)

            return TestFunction(
                eval=_eval,
                support=window(*(circ.support.intervals + line.support.intervals)),
                sup_bound=max(circ.sup_bound, line.sup_bound),
                breakpoints=tuple(sorted(circ.breakpoints + line.breakpoints)),
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad function spec for shape {shape!r}: {exc}") from exc
    raise ConfigError(f"unknown function shape {shape!r}")


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
    bps = sorted(set(g.breakpoints))
    atoms = []
    for lo, hi in core.intervals:
        edges = [lo] + [b for b in bps if lo < b < hi] + [hi]
        for a, b in zip(edges, edges[1:]):
            k = max(1, int(round(1200 * (b - a) / total)))
            grid = np.linspace(a, b, k + 1)
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

def _band_verdict(vid: str, est: MCEstimate, target: float, sigma: float,
                  slack: float = 0.0) -> Verdict:
    """The estimate within sigma standard errors plus its truncation bound
    (and ``slack``) of ``target``."""
    band = sigma * est.std_error + est.truncation_bound + slack + 1e-9
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


def _expected_star_verdict(cfg: ExperimentConfig, n: int,
                           est: MCEstimate) -> Verdict | None:
    targets = cfg.expected.get("star", {})
    if str(n) not in targets:
        return None
    return _band_verdict("expected_star", est, float(targets[str(n)]),
                         cfg.tol("sigma", 3.0))


def _nonincreasing_verdict(rows: list[ExperimentRow], est: MCEstimate) -> Verdict:
    if not rows:
        return _verdict("star_nonincreasing", 0.0)
    prev = rows[-1].star
    band = 2.0 * (prev.std_error + est.std_error) \
        + prev.truncation_bound + est.truncation_bound
    return _verdict("star_nonincreasing", prev.mean + band - est.mean)


def _constant_l1_verdict(vid: str, band: float, rows: list[ExperimentRow],
                         row: ExperimentRow) -> Verdict:
    """The row's L1 column within ``band`` of the first row's."""
    first = rows[0].l1 if rows else row.l1
    return _verdict(vid, band - abs(row.l1 - first))


def _slope_min_depth(spec: dict) -> int:
    """The first depth the slope fit uses (the log of depth 0 is undefined)."""
    return max(int(spec.get("min_depth", 8)), 1)


def _slope_verdict(rows: list[ExperimentRow], spec: dict) -> Verdict | None:
    """Least-squares log-log slope of the star column over the rows at
    depth >= max(min_depth, 1)."""
    pts = [(math.log(r.n), math.log(r.star.mean)) for r in rows
           if r.n >= _slope_min_depth(spec) and r.star.mean > 0]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean()))
                  / np.sum((xs - xs.mean()) ** 2))
    tol = float(spec.get("tol", 0.1))
    return _verdict("slope", tol - abs(slope - float(spec["value"])))


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
        n = int(n)
        g = derive(n)
        w = g.support if window_of is None else window_of(g, n)
        seed = _row_seed(cfg.seed, n)
        if center is None:
            est = estimate_star_norm(g, w, cfg.replicates, seed, quad_tol=quad_tol)
        else:
            est = _estimate_abs(g, w, cfg.replicates, seed, center=center,
                                quad_tol=quad_tol)
        gauge, orl, l1, l2, source, s = _norm_columns(g)
        row = ExperimentRow(n, est, gauge, orl, l1, l2, (), cfg.seed, chash, source)
        verdicts = (*checks(row, s, rows), _expected_star_verdict(cfg, n, est))
        rows.append(dataclasses.replace(
            row, verdicts=tuple(v for v in verdicts if v is not None)))
    if "slope" in cfg.expected:
        sv = _slope_verdict(rows, cfg.expected["slope"])
        if sv is not None:
            rows[-1] = dataclasses.replace(rows[-1], verdicts=rows[-1].verdicts + (sv,))
    return rows, _summarize(cfg, rows)


# ---------------------------------------------------------------------------
# scenario runners

def _system_and_function(cfg: ExperimentConfig, kinds: tuple[str, ...]):
    """The config's system, refused unless its kind is one of ``kinds``, and
    its function built on it."""
    sys = build_system(cfg.system)
    if sys.kind not in kinds:
        raise ConfigError(f"{cfg.scenario} runs on the {' or '.join(kinds)} "
                          "system only")
    return sys, build_function(cfg.function, sys)


def _average_decay_rows(cfg: ExperimentConfig, subsequence: Callable[[int], tuple | None]):
    """Rows of Birkhoff averages g_n, along subsequence(n) when not None."""
    sys, f = _system_and_function(cfg, ("translation", "boole"))
    sigma = cfg.tol("sigma", 3.0)
    return _depth_rows(
        cfg, lambda n: birkhoff(f, sys, n, subsequence=subsequence(n)),
        lambda row, s, rows: (
            _constant_l1_verdict("l1_constant", cfg.tol("l1_band", 1e-6), rows, row),
            _nonincreasing_verdict(rows, row.star),
            _oracle_verdict("exact_oracle", row.star, star_norm_exact, s, sigma)))


def run_birkhoff_decay(cfg: ExperimentConfig):
    """Star norm of depth-n Birkhoff averages against the L1 column."""
    cfg.validate()
    return _average_decay_rows(cfg, lambda n: None)


def run_blum_hanson(cfg: ExperimentConfig):
    """Birkhoff averages along a named subsequence of iterate exponents."""
    cfg.validate()
    if cfg.subsequence is None:
        raise ConfigError("blum_hanson needs a subsequence")
    formula = _SUBSEQUENCES[cfg.subsequence]
    cap = int(cfg.subsequence_cap)
    kept = tuple(n for n in cfg.depths if formula(int(n)) <= cap)
    if kept != tuple(cfg.depths):
        dropped = [int(n) for n in cfg.depths if n not in kept]
        warnings.warn(f"subsequence {cfg.subsequence} exceeds cap {cap} at "
                      f"depths {dropped}; truncating to {list(kept)}")
        if not kept:
            raise ConfigError("every requested depth overflows the subsequence cap")
        cfg = dataclasses.replace(cfg, depths=kept)
    return _average_decay_rows(
        cfg, lambda n: tuple(formula(k) for k in range(1, n + 1)))


def run_transfer_decay(cfg: ExperimentConfig):
    """Star norm of transfer-operator iterates under the Boole map."""
    cfg.validate()
    sys, f = _system_and_function(cfg, ("boole",))
    sigma = cfg.tol("sigma", 3.0)
    tail_tol = cfg.tol("tail", 1e-4)
    mass_band = cfg.tol("mass_band", 2.0 * tail_tol + 1e-5)

    def mc_window(g, n):
        r_mc = cfg.tol("mc_radius", 50.0) + n
        return window_intersect(g.support, window((-r_mc, r_mc)))

    return _depth_rows(
        cfg, lambda n: transfer_apply(f, sys, n, tail_tol=tail_tol),
        lambda row, s, rows: (
            _constant_l1_verdict("mass_conserved", mass_band, rows, row),
            _nonincreasing_verdict(rows, row.star),
            _oracle_verdict("exact_oracle", row.star, star_norm_exact, s, sigma)),
        window_of=mc_window, quad_tol=cfg.tol("mc_quad", 1e-6))


def run_urbanik_scan(cfg: ExperimentConfig):
    """Exact star norms of random simple functions against the gauge and
    Orlicz columns; every sample checks the two-sided gauge comparison."""
    cfg.validate()
    spec = cfg.function
    if spec.get("shape") != "random_atoms":
        raise ConfigError("urbanik_scan needs the random_atoms generator spec")
    samples = _typed("function.samples", spec.get("samples", 200), int)
    max_atoms = _typed("function.max_atoms", spec.get("max_atoms", 5), int)

    def pair(key, default):
        lo_hi = spec.get(key, default)
        if not isinstance(lo_hi, (list, tuple)) or len(lo_hi) != 2:
            raise ConfigError(f"function.{key} must be a [lo, hi] pair, got {lo_hi!r}")
        return (_typed(f"function.{key} entry", x, float) for x in lo_hi)

    v_lo, v_hi = pair("value_range", (0.05, 5.0))
    m_lo, m_hi = pair("mass_range", (0.01, 10.0))
    if not (0 < v_lo < v_hi) or not (0 < m_lo < m_hi):
        raise ConfigError("value_range and mass_range must be positive and ordered")
    if max_atoms < 1 or max_atoms > 5:
        raise ConfigError("max_atoms must be between 1 and 5")
    if samples < 1:
        raise ConfigError("function.samples must be at least 1")
    rng = _philox(cfg.seed, _SCAN_STREAM)
    chash = cfg.config_hash()
    scale = _typed("function.homogeneity_scale", spec.get("homogeneity_scale", 4.0), float)
    rows: list[ExperimentRow] = []
    ratios_gauge: list[float] = []
    ratios_orlicz: list[float] = []
    for i in range(1, samples + 1):
        k = int(rng.integers(1, max_atoms + 1))
        signs = rng.integers(0, 2, k) * 2 - 1
        vals = signs * rng.uniform(v_lo, v_hi, k)
        masses = np.exp(rng.uniform(math.log(m_lo), math.log(m_hi), k))
        s = SimpleFunction(tuple(zip(map(float, vals), map(float, masses))))
        star = star_norm_exact(s)
        s_abs = SimpleFunction(tuple((abs(v), m) for v, m in s.atoms))
        star_abs = star_norm_exact(s_abs)
        s_scaled = SimpleFunction(tuple((scale * v, m) for v, m in s.atoms))
        star_scaled = star_norm_exact(s_scaled)
        gauge = float(gauge_norm(s))
        orl = float(orlicz_norm_paper(s))
        l1, l2sq, _ = simple_moments(s)
        est = MCEstimate(star, 0.0, 1, _row_seed(cfg.seed, i), 1e-12)
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
    cfg.validate()
    sys, f = _system_and_function(cfg, ("translation", "boole"))
    center = float(integrate(f, f.support, tol=1e-10)[0])
    sigma = cfg.tol("sigma", 3.0)
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
    cfg.validate()
    sys, f = _system_and_function(cfg, ("composite",))
    length = sys.params[0]
    scale = float(cfg.function.get("scale", 1.0))
    target = star_norm_exact(SimpleFunction(((scale, length),)))
    target_l2sq = scale * scale * length
    sigma = cfg.tol("sigma", 3.0)

    def checks(row, s, rows):
        # the transient part of the average is controlled by its L2 norm
        drift = math.sqrt(max(row.l2 * row.l2 - target_l2sq, 0.0))
        return (_band_verdict("at_invariant_level", row.star, target, sigma, drift),)

    return _depth_rows(cfg, lambda n: birkhoff(f, sys, n), checks)


def run_identity_suite(cfg: ExperimentConfig):
    """One pass/fail check per distributional identity, with margins."""
    cfg.validate()
    R = int(cfg.replicates)
    R_mecke = min(R, 2000)
    seed = int(cfg.seed)
    checks: list[Verdict] = []
    w = window((0.0, 2.0))

    # Mecke: constant, position-dependent, and count-coupled weights
    for i, (name, phi) in enumerate((
        ("mecke_constant", lambda x, s: 1.0),
        ("mecke_position", lambda x, s: x),
        ("mecke_count_coupled", lambda x, s: x * len(s.points)),
    ), start=1):
        lhs, rhs = mecke_check(phi, w, R_mecke, seed + i)
        checks.append(_verdict(name, 4.0 * (lhs.std_error + rhs.std_error) + 1e-9
                               - abs(lhs.mean - rhs.mean)))

    # difference operator: adding a point moves the integral by exactly f(x)
    fns = (
        indicator(0.0, 1.0, 1.0 / 3.0),
        triangular_bump(1.0, 0.5, -2.0 / 7.0),
        piecewise_constant((0.0, 0.3, 1.1, 2.0), (0.7, -1.9, 0.25)),
    )
    rng = _philox(seed, 905)
    worst = 0.0
    for t in range(30):
        fd = fns[t % len(fns)]
        s = sample_process(w, seed + 4, t)
        comp, _ = integrate(fd, w, tol=1e-10)
        x = float(rng.uniform(0.0, 2.0))
        obs, expect = difference_check(fd, s, x, comp)
        worst = max(worst, abs(obs - expect))
    checks.append(_verdict("difference_exact", 0.0 - worst if worst else 0.0))

    # second moment: Var I_1(f) = int f^2
    fb = triangular_bump(1.0, 1.0, 1.5)
    est, l2sq = second_moment_check(fb, w, R, seed + 5)
    checks.append(_verdict("l2_isometry",
                           4.0 * est.std_error + 1e-9 - abs(est.mean - l2sq)))

    # reduced second moment: E[N(g)N(h) - N(gh)] = int g int h
    est, target = reduced_moment_check(indicator(0.0, 1.0), indicator(0.5, 1.5),
                                       w, R, seed + 6)
    checks.append(_verdict("reduced_moment",
                           4.0 * est.std_error + 1e-9 - abs(est.mean - target)))

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
                s = sample_process(wins[0], seed + offset, t)
                l, r = check(fd, sys_d, s, wins)
                worst = max(worst, abs(l - r))
            checks.append(_verdict(f"{name}_{kind}", band - worst))

    # uncentered norm identities
    f_pos = piecewise_constant((0.0, 0.6, 1.4), (0.8, 1.3))
    est = estimate_starstar_norm(f_pos, w, R, seed + 9)
    l1_pos = 0.6 * 0.8 + 0.8 * 1.3
    checks.append(_verdict("starstar_eq_l1_nonneg",
                           3.0 * est.std_error + est.truncation_bound + 1e-9
                           - abs(est.mean - l1_pos)))
    f_mix = piecewise_constant((0.0, 1.0, 2.0), (1.0, -1.0))
    est = estimate_starstar_norm(f_mix, w, R, seed + 10)
    checks.append(_verdict("starstar_gap_mixed",
                           2.0 - est.mean - 3.0 * est.std_error
                           - est.truncation_bound))
    ss = estimate_starstar_norm(f_mix, w, R, seed + 11)
    st = estimate_star_norm(f_mix, w, R, seed + 12)
    checks.append(_verdict("starstar_eq_star_zero_integral",
                           3.0 * (ss.std_error + st.std_error) + 1e-9
                           - abs(ss.mean - st.mean)))

    summary = _summarize(cfg, [])
    summary["checks"] = [{"id": c.id, "passed": c.passed, "margin": c.margin}
                         for c in checks]
    summary["all_pass"] = all(c.passed for c in checks)
    return [], summary


_RUNNERS = {
    "birkhoff_decay": run_birkhoff_decay,
    "blum_hanson": run_blum_hanson,
    "transfer_decay": run_transfer_decay,
    "urbanik_scan": run_urbanik_scan,
    "starstar_ergodic": run_starstar_ergodic,
    "invariant_vector": run_invariant_vector,
    "identity_suite": run_identity_suite,
}


def run_experiment(cfg: ExperimentConfig):
    """Dispatch a validated config to its scenario runner."""
    cfg.validate()
    return _RUNNERS[cfg.scenario](cfg)


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

_DEFAULTS: dict[str, dict] = {
    "birkhoff_decay": {
        "system": {"kind": "translation", "step": 1.0},
        "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0, "scale": 1.0},
        "depths": (1, 2, 4, 8, 16, 32),
        "replicates": 100_000,
        "expected": {"slope": {"value": -0.5, "tol": 0.1, "min_depth": 8}},
    },
    "blum_hanson": {
        "system": {"kind": "translation", "step": 1.0},
        "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0, "scale": 1.0},
        "depths": (1, 2, 4, 8),
        "replicates": 20_000,
        "subsequence": "k^2",
    },
    "transfer_decay": {
        "system": {"kind": "boole"},
        "function": {"shape": "indicator", "lo": 1.0, "hi": 2.0, "scale": 1.0},
        "depths": tuple(range(11)),
        "replicates": 2000,
    },
    "urbanik_scan": {
        "system": {"kind": "translation", "step": 1.0},
        "function": {"shape": "random_atoms", "samples": 200, "max_atoms": 5,
                     "value_range": (0.05, 5.0), "mass_range": (0.01, 10.0)},
        "depths": (1,),
        "replicates": 1000,
    },
    "starstar_ergodic": {
        "system": {"kind": "translation", "step": 1.0},
        "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0, "scale": 1.0},
        "depths": (1, 2, 4, 8, 16, 32),
        "replicates": 100_000,
    },
    "invariant_vector": {
        "system": {"kind": "composite", "circumference": 1.0, "angle": GOLDEN,
                   "step": 1.0},
        "function": {"shape": "circle", "scale": 1.0},
        "depths": (1, 2, 4, 8, 16, 32),
        "replicates": 100_000,
    },
    "identity_suite": {
        "system": {"kind": "translation", "step": 1.0},
        "function": {"shape": "indicator", "lo": 0.0, "hi": 1.0, "scale": 1.0},
        "depths": (1,),
        "replicates": 4000,
    },
}


def default_config(scenario: str, seed: int, **overrides) -> ExperimentConfig:
    """The stock configuration for a scenario, with field overrides."""
    if scenario not in _DEFAULTS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    base = dict(_DEFAULTS[scenario])
    base.update(overrides)
    slope = base.get("expected", {}).get("slope")
    if ("expected" not in overrides and slope
            and sum(n >= _slope_min_depth(slope) for n in base["depths"]) < 2):
        # the stock slope expectation is left out when the requested depths
        # cannot reach it, so the config records only the checks that run
        base["expected"] = {k: v for k, v in base["expected"].items() if k != "slope"}
    cfg = ExperimentConfig(scenario=scenario, seed=int(seed), **base)
    cfg.validate()
    return cfg


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


def _row_to_dict(r: ExperimentRow) -> dict:
    return {
        "n": r.n,
        "star": {
            "mean": r.star.mean,
            "std_error": r.star.std_error,
            "replicates": r.star.replicates,
            "seed": r.star.seed,
            "truncation_bound": r.star.truncation_bound,
        },
        "gauge": r.gauge,
        "orlicz_paper": r.orlicz_paper,
        "l1": r.l1,
        "l2": r.l2,
        "norm_source": r.norm_source,
        "verdicts": [{"id": v.id, "passed": v.passed, "margin": v.margin}
                     for v in r.verdicts],
        "seed": r.seed,
        "config_hash": r.config_hash,
    }


def result_to_json(cfg: ExperimentConfig, rows: list[ExperimentRow],
                   summary: dict) -> str:
    doc = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": int(cfg.seed),
        "rows": [_row_to_dict(r) for r in rows],
        "summary": summary,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
