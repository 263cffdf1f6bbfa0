"""Poisson point processes on finite-measure windows.

Sampling, the centered stochastic integral N(f) - mu(f), and three
independent routes to E|I_1(f)|:

* ``estimate_star_norm`` -- Monte Carlo over seeded replicates;
* ``star_norm_exact`` -- truncated-series enumeration over the joint count
  lattice of a SimpleFunction, with a certified tail bound;
* ``star_norm_hsu`` -- the absolute-moment integral
  E|Z| = (2/pi) * int_0^inf (1 - Re E e^{itZ}) / t^2 dt evaluated from the
  closed-form characteristic function.

Also: the uncentered norm E|N(f)|, and numerical checks of the Mecke
formula, the add-one-point difference identity, the L2 isometry, the
order-2 reduced moment identity, and equivariance/coboundary relations
under measure-preserving maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import stats

from .measure import (
    SimpleFunction,
    TestFunction,
    Window,
    _gk_batch,
    function_moments,
    integrate,
    piecewise_to_simple,
    window_intersect,
    window_position,
)

__all__ = [
    "PoissonSample",
    "MCEstimate",
    "QuadratureError",
    "sample_process",
    "integral_centered",
    "estimate_star_norm",
    "estimate_starstar_norm",
    "star_norm_exact",
    "starstar_norm_exact",
    "star_norm_hsu",
    "mecke_check",
    "difference_check",
    "second_moment_check",
    "reduced_moment_check",
    "equivariance_check",
    "coboundary_check",
]

_SEED_MASK = (1 << 64) - 1
_QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when a quadrature's error estimate stays above the requested
    tolerance.

    Carries the best available value and its error estimate (a heuristic
    |K15 - G7| sum plus the tail term, not a proven bound).
    """

    def __init__(self, partial: float, err_bound: float, message: str):
        super().__init__(message)
        self.partial = partial
        self.err_bound = err_bound


@dataclass(frozen=True, eq=False)
class PoissonSample:
    """A realization of the Poisson process restricted to a window."""

    window: Window
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.size and not np.all(self.window.contains(pts)):
            raise ValueError("sample points must lie inside the window")


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error and seeding metadata.

    ``truncation_bound`` is the deterministic bound on what the windowed
    representation omits: min(2 * L1-tail, L2-tail) of the integrand.
    """

    mean: float
    std_error: float
    replicates: int
    seed: int
    truncation_bound: float


# second key word reserved for the batched single-stream estimators, so they
# never collide with a per-replicate stream
_BATCH_STREAM = 0x9E3779B97F4A7C15


def _philox(seed: int, replicate: int | None = None) -> np.random.Generator:
    second = _BATCH_STREAM if replicate is None else int(replicate)
    key = [int(seed) & _SEED_MASK, second & _SEED_MASK]
    return np.random.Generator(np.random.Philox(key=key))


def sample_process(w: Window, rng_seed: int, replicate: int = 0) -> PoissonSample:
    """One Poisson(measure(w)) sample; points uniform via the inverse CDF.

    Each (seed, replicate) pair addresses an independent counter-based
    stream, so replicates may be drawn in any order.
    """
    rng = _philox(rng_seed, replicate)
    k = int(rng.poisson(w.measure)) if w else 0
    pts = window_position(w, rng.random(k)) if k else np.empty(0)
    return PoissonSample(w, pts)


def integral_centered(f: TestFunction, s: PoissonSample, compensator: float) -> float:
    """The windowed centered integral: sum of f over the points minus
    the precomputed compensator int_w f dmu."""
    vals = np.asarray(f.eval(s.points), dtype=float)
    return math.fsum(vals) - float(compensator)


# ---------------------------------------------------------------------------
# Vectorized replicate machinery

def _counts_and_points(w: Window, R: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and concatenated uniform points for R replicates, one stream."""
    rng = _philox(seed)
    if not w:
        return np.zeros(R, dtype=np.int64), np.empty(0)
    counts = rng.poisson(w.measure, size=R).astype(np.int64)
    total = int(counts.sum())
    pts = window_position(w, rng.random(total)) if total else np.empty(0)
    return counts, pts


def _per_replicate_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    ends = np.cumsum(counts)
    return csum[ends] - csum[ends - counts]


def _covers(outer: Window, inner: Window, tol: float = 1e-9) -> bool:
    return window_intersect(outer, inner).measure >= inner.measure - tol


def _truncation_bound(f: TestFunction, w: Window, quad_tol: float = _QUAD_TOL) -> float:
    """min(2 * L1-tail, L2-tail) of f relative to the sampling window."""
    declared = min(2.0 * f.l1_tail_bound, f.l2_tail_bound)
    if _covers(w, f.support, tol=1e-12):
        return float(declared)
    inter = window_intersect(f.support, w)
    mom, merr = function_moments(f, tol=quad_tol)
    l1_in, e1 = integrate(f, inter, transform=np.abs, tol=quad_tol)
    l2sq_in, e2 = integrate(f, inter, transform=np.square, tol=quad_tol)
    l1_out = max(0.0, mom.l1 - l1_in + merr + e1)
    l2sq_out = max(0.0, mom.l2sq - l2sq_in + merr + e2)
    return float(min(2.0 * l1_out, math.sqrt(l2sq_out)))


def _estimate_abs(f: TestFunction, w: Window, R: int, seed: int, center: float,
                  quad_tol: float = _QUAD_TOL) -> MCEstimate:
    R = int(R)
    if R < 1000:
        raise ValueError("need at least 10^3 replicates")
    counts, pts = _counts_and_points(w, R, seed)
    vals = np.asarray(f.eval(pts), dtype=float)
    devs = np.abs(_per_replicate_sums(vals, counts) - center)
    mean = float(devs.mean())
    se = float(devs.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    return MCEstimate(mean, se, R, int(seed), _truncation_bound(f, w, quad_tol))


def estimate_star_norm(f: TestFunction, w: Window, R: int, seed: int,
                       quad_tol: float = _QUAD_TOL) -> MCEstimate:
    """Monte Carlo E|N(f 1_w) - int_w f|, the windowed centered L1 norm."""
    comp, _ = integrate(f, w, tol=quad_tol)
    return _estimate_abs(f, w, R, seed, comp, quad_tol)


def estimate_starstar_norm(f: TestFunction, w: Window, R: int, seed: int,
                           quad_tol: float = _QUAD_TOL) -> MCEstimate:
    """Monte Carlo E|N(f 1_w)|, the uncentered L1 norm."""
    return _estimate_abs(f, w, R, seed, 0.0, quad_tol)


# ---------------------------------------------------------------------------
# Exact oracle: truncated joint-lattice enumeration

_MAX_ATOMS = 6
_MAX_MASS = 30.0
_LATTICE_RES = 1e-12
_TAIL_EPS = 1e-12  # bound on the error of the exact oracles


def _cutoff(v: float, m: float, other_weight: float, budget: float, centered: bool) -> tuple[int, float]:
    """Smallest K with the certified dropped-tail bound <= budget.

    The bound on E[|S| 1_{N > K}] uses P(N > K) against the other atoms and
    the exact partial-moment identities E[(N-m)1_{N>K}] = m pmf(K) and
    E[N 1_{N>K}] = m (pmf(K) + sf(K)).
    """
    start = int(math.ceil(m))
    ks = np.arange(start, start + 600)
    sf = stats.poisson.sf(ks, m)
    pmf = stats.poisson.pmf(ks, m)
    if centered:
        bounds = sf * other_weight + abs(v) * m * pmf
    else:
        bounds = sf * other_weight + abs(v) * m * (pmf + sf)
    ok = np.nonzero(bounds <= budget)[0]
    if not ok.size:
        raise ValueError("cannot certify the tail bound")
    i = int(ok[0])
    return int(ks[i]), float(bounds[i])


def _merge_lattice(vals: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = np.round(vals / _LATTICE_RES)
    uniq, inverse = np.unique(grid, return_inverse=True)
    merged = np.bincount(inverse, weights=probs)
    return uniq * _LATTICE_RES, merged


def _enumerate_block(block: list[tuple[float, float, int]]) -> tuple[np.ndarray, np.ndarray]:
    vals = np.zeros(1)
    probs = np.ones(1)
    for v, m, cap in block:
        ks = np.arange(cap + 1)
        pk = stats.poisson.pmf(ks, m)
        vals = (vals[:, None] + (v * ks)[None, :]).ravel()
        probs = (probs[:, None] * pk[None, :]).ravel()
        vals, probs = _merge_lattice(vals, probs)
    return vals, probs


def _abs_moment_exact(f: SimpleFunction, center: float | None) -> float:
    """E|sum v_i N_i - c|, error <= _TAIL_EPS: c = sum v_i m_i with the
    centered tail bounds when ``center`` is None, else c = center with the
    uncentered tail bounds plus |center|."""
    atoms = f.atoms
    if len(atoms) > _MAX_ATOMS:
        raise ValueError(f"exact oracle handles at most {_MAX_ATOMS} atoms, got {len(atoms)}")
    if any(m > _MAX_MASS for _, m in atoms):
        raise ValueError(f"exact oracle handles masses up to {_MAX_MASS}")
    if not atoms:
        return 0.0 if center is None else abs(center)
    v = np.array([a[0] for a in atoms])
    m = np.array([a[1] for a in atoms])
    centered = center is None
    extra = 0.0 if centered else abs(center)
    shift = -float(np.sum(v * m)) if centered else -center
    weights = np.abs(v) * (np.sqrt(m) if centered else m)
    caps = []
    tail_bound = 0.0
    per_atom = _TAIL_EPS / len(atoms)
    for i in range(len(atoms)):
        other = float(weights.sum() - weights[i]) + extra
        cap, b = _cutoff(float(v[i]), float(m[i]), other, per_atom, centered)
        caps.append(cap)
        tail_bound += b

    # meet in the middle: split atoms into two blocks of balanced lattice size
    blocks: tuple[list, list] = ([], [])
    log_size = [0.0, 0.0]
    for i in sorted(range(len(atoms)), key=lambda j: -caps[j]):
        side = 0 if log_size[0] <= log_size[1] else 1
        blocks[side].append((float(v[i]), float(m[i]), caps[i]))
        log_size[side] += math.log(caps[i] + 1)
    va, pa = _enumerate_block(blocks[0])
    vb, pb = _enumerate_block(blocks[1])

    order = np.argsort(va, kind="stable")
    va, pa = va[order], pa[order]
    cum_p = np.concatenate(([0.0], np.cumsum(pa)))
    cum_pv = np.concatenate(([0.0], np.cumsum(pa * va)))
    tot_p, tot_pv = cum_p[-1], cum_pv[-1]
    vb = vb + shift
    idx = np.searchsorted(va, -vb, side="left")
    # E_a |a + b| with the split at a = -b, via prefix sums over block A
    per_b = tot_pv + vb * tot_p - 2.0 * (cum_pv[idx] + vb * cum_p[idx])
    value = float(np.sum(pb * per_b))
    return value + 0.5 * tail_bound


def star_norm_exact(f: SimpleFunction) -> float:
    """E|sum v_i (N_i - m_i)| by direct enumeration; error <= 1e-12."""
    return _abs_moment_exact(f, None)


def starstar_norm_exact(f: SimpleFunction) -> float:
    """E|sum v_i N_i| by direct enumeration; error <= 1e-12."""
    return _abs_moment_exact(f, 0.0)


def abs_moment_exact(f: SimpleFunction, center: float = 0.0) -> float:
    """E|sum v_i N_i - center| by direct enumeration; error <= 1e-12."""
    return _abs_moment_exact(f, float(center))


# ---------------------------------------------------------------------------
# Characteristic-function oracle

def _hsu_integrand(t: np.ndarray, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1 - Re E e^{itZ}) / t^2 for Z = sum v_j (N_j - m_j), cancellation-free.

    Re phi = e^C cos S with C = -2 sum m_j sin^2(t v_j / 2) and
    S = sum m_j (sin(t v_j) - t v_j); the integrand is written as
    -expm1(C) + e^C * 2 sin^2(S/2) so small t loses no precision.
    """
    c = np.zeros_like(t)
    s = np.zeros_like(t)
    for vj, mj in zip(v, m):
        c -= 2.0 * mj * np.sin(0.5 * t * vj) ** 2
        s += mj * (np.sin(t * vj) - t * vj)
    return (-np.expm1(c) + np.exp(c) * 2.0 * np.sin(0.5 * s) ** 2) / (t * t)


def _hsu_sweep(v: np.ndarray, m: np.ndarray, h: float, n_panels: int) -> tuple[float, float]:
    """K15 sum and summed |K15 - G7| over panels [k h, (k+1) h), k < n_panels."""
    total = 0.0
    err = 0.0
    chunk = 20000
    for lo_idx in range(0, n_panels, chunk):
        idx = np.arange(lo_idx, min(lo_idx + chunk, n_panels), dtype=float)
        k15, e = _gk_batch(lambda t: _hsu_integrand(t, v, m), (idx + 0.5) * h, 0.5 * h)
        total += float(k15.sum())
        err += float(e.sum())
    return total, err


def star_norm_hsu(f, tol: float = 1e-6, max_panels: int = 6_000_000) -> float:
    """E|I_1(f)| via the absolute-moment integral of the characteristic
    function, with an estimated error <= tol.

    [0, T] is covered by fixed-width oscillation-scaled panels (G7/K15 on
    each, whose |K15 - G7| is an error estimate, not a bound); the tail
    beyond T contributes between 0 and (2/pi)(2/T), so its midpoint is
    added and T is sized to make that residual <= tol/2.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(f, TestFunction):
        f = piecewise_to_simple(f)
    if not f.atoms:
        return 0.0
    v, m = f.values_masses()
    t_max = 4.0 / (math.pi * tol)
    omega = float(2.0 * np.sum(m * np.abs(v)) + np.abs(v).max())
    h = 5.0 / omega  # under one oscillation per panel
    value = err_bound = math.inf
    for _ in range(3):
        n_panels = int(math.ceil(t_max / h))
        capped = n_panels > max_panels
        if capped:
            n_panels = max_panels
        t_eff = n_panels * h
        total, err = _hsu_sweep(v, m, h, n_panels)
        value = (2.0 / math.pi) * (total + 1.0 / t_eff)
        err_bound = (2.0 / math.pi) * (err + 1.0 / t_eff)
        if err_bound <= tol:
            return value
        if capped:
            break
        h *= 0.5
    raise QuadratureError(
        value, err_bound,
        f"error estimate stayed above tol={tol:g} within {max_panels} panels "
        f"(best error estimate {err_bound:g})",
    )


# ---------------------------------------------------------------------------
# Identity checks

def _with_point(s: PoissonSample, x: float) -> PoissonSample:
    return PoissonSample(s.window, np.append(s.points, x))


def mecke_check(
    phi: Callable[[float, PoissonSample], float],
    w: Window,
    R: int,
    seed: int,
) -> tuple[MCEstimate, MCEstimate]:
    """Both sides of E sum_{x in omega} phi(x, omega) =
    int_w E phi(x, omega + delta_x) dx, each as a Monte Carlo estimate.

    The right side integrates per sample by quadrature, adding the extra
    point explicitly."""
    R = int(R)
    lhs_vals = np.empty(R)
    rhs_vals = np.empty(R)
    for r in range(R):
        s = sample_process(w, seed, r)
        lhs_vals[r] = math.fsum(phi(float(x), s) for x in s.points)

        def inner(xs, s=s):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            return np.array([phi(float(x), _with_point(s, float(x))) for x in xs])

        probe = TestFunction(eval=inner, support=w)
        val, _ = integrate(probe, w, tol=1e-9, max_segments=2000)
        rhs_vals[r] = val
    scale = math.sqrt(R)
    lhs = MCEstimate(float(lhs_vals.mean()), float(lhs_vals.std(ddof=1) / scale), R, int(seed), 0.0)
    rhs = MCEstimate(float(rhs_vals.mean()), float(rhs_vals.std(ddof=1) / scale), R, int(seed), 0.0)
    return lhs, rhs


def difference_check(
    f: TestFunction, s: PoissonSample, x: float, compensator: float
) -> tuple[float, float]:
    """Adding one point at x moves the centered integral by exactly f(x).

    The two integrals are differenced in exact rational arithmetic, so the
    returned observed value carries no roundoff: the check is zero-tolerance.
    """
    if not bool(s.window.contains(np.array([float(x)]))[0]):
        raise ValueError("x must lie inside the sample window")
    base = [Fraction(float(t)) for t in np.asarray(f.eval(s.points), dtype=float)]
    fx = float(np.asarray(f.eval(np.array([float(x)])), dtype=float)[0])
    comp = Fraction(float(compensator))
    with_x = sum(base, Fraction(0)) + Fraction(fx) - comp
    without = sum(base, Fraction(0)) - comp
    return float(with_x - without), fx


def second_moment_check(
    f: TestFunction, w: Window, R: int, seed: int
) -> tuple[MCEstimate, float]:
    """Sample variance of the centered integral against int_w f^2 dmu."""
    R = int(R)
    comp, _ = integrate(f, w, tol=_QUAD_TOL)
    counts, pts = _counts_and_points(w, R, seed)
    vals = np.asarray(f.eval(pts), dtype=float)
    devs = _per_replicate_sums(vals, counts) - comp
    centered = devs - devs.mean()
    s2 = float(np.sum(centered * centered) / (R - 1))
    m4 = float(np.mean(centered ** 4))
    var_of_s2 = max(m4 - s2 * s2 * (R - 3) / (R - 1), 0.0) / R
    est = MCEstimate(s2, math.sqrt(var_of_s2), R, int(seed), _truncation_bound(f, w))
    l2sq, _ = integrate(f, w, transform=np.square, tol=_QUAD_TOL)
    return est, float(l2sq)


def reduced_moment_check(
    g: TestFunction, h: TestFunction, w: Window, R: int, seed: int
) -> tuple[MCEstimate, float]:
    """MC mean of N(g)N(h) - N(gh) against (int_w g)(int_w h)."""
    R = int(R)
    counts, pts = _counts_and_points(w, R, seed)
    gv = np.asarray(g.eval(pts), dtype=float)
    hv = np.asarray(h.eval(pts), dtype=float)
    ng = _per_replicate_sums(gv, counts)
    nh = _per_replicate_sums(hv, counts)
    ngh = _per_replicate_sums(gv * hv, counts)
    x = ng * nh - ngh
    se = float(x.std(ddof=1) / math.sqrt(R)) if R > 1 else 0.0
    lhs = MCEstimate(float(x.mean()), se, R, int(seed), 0.0)
    int_g, _ = integrate(g, w, tol=_QUAD_TOL)
    int_h, _ = integrate(h, w, tol=_QUAD_TOL)
    return lhs, float(int_g * int_h)


def _compose_forward(f: TestFunction, sys, w_in: Window) -> TestFunction:
    """f after the forward map, as a TestFunction on the input window."""
    bps = {float(b) for b in getattr(sys, "singularities", ())}
    for ys, _ in sys.preimages(np.asarray(f.breakpoints, dtype=float)):
        bps.update(ys.tolist())

    def _eval(x, f=f, fwd=sys.forward):
        x = np.asarray(x, dtype=float)
        return np.asarray(f.eval(np.asarray(fwd(x), dtype=float)), dtype=float)

    return TestFunction(eval=_eval, support=w_in, breakpoints=tuple(sorted(bps)))


def _check_pair_preconditions(f: TestFunction, sys, windows, quad_tol: float):
    w_in, w_out = windows
    if not _covers(w_out, f.support):
        raise ValueError("support of f must lie inside the output window")
    f_t = _compose_forward(f, sys, w_in)
    comp_in, e_in = integrate(f_t, w_in, tol=quad_tol)
    total, e_tot = integrate(f, f.support, tol=quad_tol)
    slack = 100.0 * (e_in + e_tot) + 1e-8
    if abs(comp_in - total) > slack:
        raise ValueError(
            "input window does not capture the preimage mass: "
            f"int f.T = {comp_in:.6g} vs int f = {total:.6g}"
        )
    return w_in, w_out, f_t, comp_in


def equivariance_check(
    f: TestFunction, sys, s: PoissonSample, windows
) -> tuple[float, float]:
    """I_1(f) on the pushed-forward sample vs I_1(f composed with T) on the
    original sample; equal up to the two compensator quadratures."""
    w_in, w_out, f_t, comp_in = _check_pair_preconditions(f, sys, windows, _QUAD_TOL)
    comp_out, _ = integrate(f, w_out, tol=_QUAD_TOL)
    pushed = np.asarray(sys.forward(s.points), dtype=float)
    point_sum = math.fsum(np.asarray(f.eval(pushed), dtype=float))
    return point_sum - comp_out, point_sum - comp_in


def coboundary_check(
    f: TestFunction, sys, s: PoissonSample, windows
) -> tuple[float, float]:
    """I_1(f.T - f) against I_1(f) pushed forward minus I_1(f)."""
    w_in, w_out, f_t, comp_in_ft = _check_pair_preconditions(f, sys, windows, _QUAD_TOL)
    comp_out, _ = integrate(f, w_out, tol=_QUAD_TOL)
    comp_in_f, _ = integrate(f, w_in, tol=_QUAD_TOL)
    pushed = np.asarray(sys.forward(s.points), dtype=float)
    fv = np.asarray(f.eval(s.points), dtype=float)
    ftv = np.asarray(f.eval(pushed), dtype=float)
    lhs = math.fsum(ftv - fv) - (comp_in_ft - comp_in_f)
    rhs = (math.fsum(ftv) - comp_out) - (math.fsum(fv) - comp_in_f)
    return lhs, rhs
