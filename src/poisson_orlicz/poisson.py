"""Poisson point processes on finite-measure windows.

Sampling, the centered stochastic integral N(f) - mu(f), and three
independent routes to E|I_1(f)|:

* ``estimate_star_norm`` -- Monte Carlo over seeded replicates;
* ``star_norm_exact`` -- truncated-series enumeration over the joint count
  lattice of a SimpleFunction, with a certified tail bound;
* ``star_norm_hsu`` -- the absolute-moment integral
  E|Z| = (2/pi) * int_0^inf (1 - Re E e^{itZ}) / t^2 dt evaluated from the
  closed-form characteristic function by Gauss-Legendre panels, with a
  certified bound (Bernstein-ellipse remainder, rounding and tail) <= tol.

Also: the uncentered norm E|N(f)|, and numerical checks of the reduced
(Slivnyak-)Mecke equation (Last & Penrose, Lectures on the Poisson Process,
CUP 2017, Thm 4.1), the add-one-point difference identity, the L2 isometry,
the order-2 reduced moment identity, and equivariance/coboundary relations
under measure-preserving maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .measure import (
    _CHUNK,
    SimpleFunction,
    TestFunction,
    Window,
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
    "hsu_error_floor",
    "mecke_check",
    "difference_check",
    "second_moment_check",
    "reduced_moment_check",
    "equivariance_check",
    "coboundary_check",
    "abs_moment_exact",
]

_QUAD_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Raised when ``star_norm_hsu`` cannot certify the requested tolerance
    within its panel cap.

    Carries the capped sweep's value and its certified error bound: the
    proven quadrature, rounding and tail terms, |partial - E|Z|| <= err_bound.
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
# never collide with a per-replicate stream: the word in use, which is
# 0x9E3779B97F4A7C15 rounded to float64 as numpy once converted the key
_BATCH_STREAM = 0x9E3779B97F4A8000


def _philox(seed: int, replicate: int | None = None) -> np.random.Generator:
    """The Philox stream keyed (seed, replicate), or (seed, _BATCH_STREAM);
    each key word must lie in [0, 2^64)."""
    key = (int(seed), _BATCH_STREAM if replicate is None else int(replicate))
    if not all(0 <= word < 1 << 64 for word in key):
        raise ValueError(f"Philox key (seed, replicate) = {key} has a word outside [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


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

def _eval_points(f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """f.eval over the sample points in blocks of ``_CHUNK``, written into one
    float array.  ``eval`` is pointwise (see TestFunction), so the result is
    bit-identical to a single call on the whole array."""
    out = np.empty(pts.shape)
    for i in range(0, pts.size, _CHUNK):
        out[i:i + _CHUNK] = f.eval(pts[i:i + _CHUNK])
    return out


def _replicate_sums(w: Window, R: int, seed: int,
                    values: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> np.ndarray:
    """Per-replicate sums for R replicates drawn as one stream: row i of the
    result sums, over each replicate's points, the i-th array that
    ``values(points)`` returns.

    All R counts are drawn first.  Then the points of one block of whole
    replicates, at most ``_CHUNK`` points or a single replicate, are drawn,
    valued and summed at a time, so memory does not grow with the total
    number of points.  The cumulative sum carries its last value into the
    next block.  Split draws of one stream and a carried cumsum give the
    same bits as one whole-array pass, so the sums do not depend on the
    block size."""
    if R < 1:
        raise ValueError("need at least one replicate")
    rng = _philox(seed)
    counts = (rng.poisson(w.measure, size=R).astype(np.int64) if w
              else np.zeros(R, dtype=np.int64))
    ends = np.cumsum(counts)
    sums = carry = None
    r0 = 0
    while r0 < R:
        first = int(ends[r0] - counts[r0])
        r1 = max(r0 + 1, int(np.searchsorted(ends, first + _CHUNK, side="right")))
        n = int(ends[r1 - 1]) - first
        rows = values(window_position(w, rng.random(n)) if n else np.empty(0))
        if sums is None:
            sums = np.empty((len(rows), R))
            # -0.0 + v is v for every v, so the first cumsum starts at v[0]
            carry = np.full(len(rows), -0.0)
        stop = ends[r0:r1] - first
        start = stop - counts[r0:r1]
        for i, v in enumerate(rows):
            csum = np.cumsum(np.concatenate(([carry[i]], v)))
            carry[i] = csum[-1]
            if r0 == 0:
                csum[0] = 0.0  # a replicate's sum starts from +0.0
            sums[i, r0:r1] = csum[stop] - csum[start]
        r0 = r1
    return sums


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


def _mc_estimate(vals: np.ndarray, seed: int, truncation_bound: float = 0.0) -> MCEstimate:
    """Mean and standard error of the per-replicate values ``vals``."""
    R = vals.size
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(R)), R,
                      int(seed), truncation_bound)


def _estimate_abs(f: TestFunction, w: Window, R: int, seed: int, center: float,
                  quad_tol: float = _QUAD_TOL) -> MCEstimate:
    """E|N(f 1_w) - center| from R replicates drawn as one stream, with f
    evaluated at their points block by block (``_replicate_sums``)."""
    R = int(R)
    if R < 1000:
        raise ValueError("need at least 10^3 replicates")
    sums, = _replicate_sums(w, R, seed, lambda pts: (_eval_points(f, pts),))
    devs = np.abs(sums - center)
    return _mc_estimate(devs, seed, _truncation_bound(f, w, quad_tol))


def estimate_star_norm(f: TestFunction, w: Window, R: int, seed: int,
                       quad_tol: float = _QUAD_TOL) -> MCEstimate:
    """Monte Carlo E|N(f 1_w) - int_w f|, the windowed centered L1 norm.

    The sample points are evaluated in cache-sized blocks, bit-identical to
    one call of f.eval on all of them."""
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
_TINY_VALUE = 2.0 ** -20  # values below it are rescaled before the lattice merge
_TAIL_EPS = 1e-12  # bound on the error of the exact oracles
_CUTOFF_SCAN = 600  # values of K the cutoff search tries, from ceil(m)
_CUTOFF_BLOCK = 64  # of them evaluated at a time


def _poisson_pmf(ks: np.ndarray, m: float) -> np.ndarray:
    """Poisson(m) pmf at the integers ks, by the formula and ufuncs of
    scipy.stats.poisson.pmf (and bit-equal to it); its sf is pdtrc(ks, m)."""
    return np.exp(xlogy(ks, m) - gammaln(ks + 1) - m)


def _cutoff(v: float, m: float, other_weight: float, budget: float, centered: bool) -> tuple[int, float]:
    """Smallest K among the _CUTOFF_SCAN integers from ceil(m) with the
    certified dropped-tail bound <= budget, and that bound.

    The bound on E[|S| 1_{N > K}] uses P(N > K) against the other atoms and
    the exact partial-moment identities E[(N-m)1_{N>K}] = m pmf(K) and
    E[N 1_{N>K}] = m (pmf(K) + sf(K)).  The K are tried in blocks of
    _CUTOFF_BLOCK, stopping at the first block that holds one.
    """
    start = int(math.ceil(m))
    stop = start + _CUTOFF_SCAN
    for lo in range(start, stop, _CUTOFF_BLOCK):
        ks = np.arange(lo, min(lo + _CUTOFF_BLOCK, stop))
        sf = pdtrc(ks, m)
        pmf = _poisson_pmf(ks, m)
        bounds = sf * other_weight + abs(v) * m * (pmf if centered else pmf + sf)
        ok = np.flatnonzero(bounds <= budget)
        if ok.size:
            i = int(ok[0])
            return int(ks[i]), float(bounds[i])
    raise ValueError("cannot certify the tail bound")


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
        pk = _poisson_pmf(ks, m)
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
    # the lattice merges on an absolute grid, so tiny values are first put at
    # unit scale by a power of two: exact, and E|sum v_i N_i - c| is
    # 1-homogeneous in (v, c)
    top = max(float(np.abs(v).max()), 0.0 if center is None else abs(center))
    scale = math.ldexp(1.0, math.frexp(top)[1]) if top < _TINY_VALUE else 1.0
    v = v / scale
    if center is not None:
        center = center / scale
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
    return scale * (value + 0.5 * tail_bound)


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
#
# E|Z| = (2/pi) int_0^inf g(t) dt with g(t) = (1 - Re phi(t)) / t^2 and
# phi = e^psi, psi(t) = sum m_j (e^{itv_j} - 1 - itv_j).  g is the restriction
# of the entire function (1 - (phi(t) + phi(-t)) / 2) / t^2, whose size on the
# strip |Im t| <= sigma the bounds below control in closed form.

# 7-point Gauss-Legendre nodes and weights on [-1, 1], given to 25 digits so
# that each double is correctly rounded
_GL7_NODES = np.array([
    -0.9491079123427585245261897, -0.7415311855993944398638648,
    -0.4058451513773971669066064, 0.0, 0.4058451513773971669066064,
    0.7415311855993944398638648, 0.9491079123427585245261897,
])
_GL7_WEIGHTS = np.array([
    0.1294849661688696932706114, 0.2797053914892766679014678,
    0.3818300505051189449503698, 0.4179591836734693877551020,
    0.3818300505051189449503698, 0.2797053914892766679014678,
    0.1294849661688696932706114,
])
_HSU_MAX_PANELS = 6_000_000
_HSU_CHUNK = 4096                      # panels per chunk of the preallocated arrays
_FINE_SPLIT, _FINE_SPAN = 8, 32        # [0, 32 h) is swept in panels of width h / 8
_FINE_PANELS = _FINE_SPLIT * _FINE_SPAN
_RHO = np.geomspace(1.05, 60.0, 48)    # Bernstein-ellipse parameters tried
_H_STEPS = 2.0 ** (np.arange(64) / 4)  # candidate coarse widths, in units of 1/omega
_UNIT = 2.0 ** -53                     # unit roundoff
# sum of (w_i / 2) / tau and (w_i / 2) / tau^2 over the nodes tau of the fine
# panels laid out at unit width from 0
_FINE_TAU = (np.arange(_FINE_PANELS)[:, None] + 0.5 * (1.0 + _GL7_NODES)).ravel()
_FINE_S1 = float(np.tile(0.5 * _GL7_WEIGHTS, _FINE_PANELS) @ (1.0 / _FINE_TAU))
_FINE_S2 = float(np.tile(0.5 * _GL7_WEIGHTS, _FINE_PANELS) @ _FINE_TAU ** -2)


def _ellipse_bounds(v: np.ndarray, m: np.ndarray, a: float):
    """Per rho in _RHO, for a panel of half width a: the ellipse's semi-major
    axis over a, the Gauss factor a (64/15) rho^-14 / (rho^2 - 1), and two
    bounds on |g| over the ellipse: ``near`` anywhere, ``far`` times |t|^2.

    On |Im t| <= sigma = a (rho - 1/rho) / 2, Re psi(+-t) <= L, the larger
    over s = +-1 of sum m_j (e^{s sigma v_j} - 1 - s sigma v_j), so
    |phi(+-t)| <= e^L and |g| <= (1 + e^L) / |t|^2.  From
    |e^{iz} - 1 - iz| <= |z|^2 e^{|Im z|} / 2, |psi(+-t)| <= A |t|^2 with
    A = sum m_j v_j^2 e^{sigma |v_j|} / 2, so |1 - phi(+-t)| <= A |t|^2 e^L
    and |g| <= A e^L.
    """
    sigma = 0.5 * a * (_RHO - 1.0 / _RHO)
    x = np.multiply.outer(sigma, v)
    with np.errstate(over="ignore"):
        growth = np.exp(np.maximum((np.expm1(x) - x) @ m, (np.expm1(-x) + x) @ m))
        near = 0.5 * ((np.exp(np.abs(x)) * v * v) @ m) * growth
    gauss = a * (64.0 / 15.0) * _RHO ** -14 / (_RHO * _RHO - 1.0)
    return 0.5 * (_RHO + 1.0 / _RHO), gauss, near, 1.0 + growth


def _panel_bounds(v: np.ndarray, m: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Proven G7 error bounds at coarse width h: one per fine panel of
    [0, 32 h), and one for all the coarse panels beyond.

    Each panel takes the best rho in the Bernstein-ellipse remainder bound
    a (64/15) M rho^-14 / (rho^2 - 1) (Trefethen, "Is Gauss quadrature better
    than Clenshaw-Curtis?", SIAM Review 50, 2008; ATAP Thm 19.3), with M the
    smaller of ``near`` and ``far`` / d^2, d = c - a r the distance from 0 to
    the ellipse of the panel centred at c.  The coarse panels share one rho,
    and sum_k 1 / d_k^2 <= 1 / d_0^2 + 1 / (h d_0).
    """
    a = 0.5 * h / _FINE_SPLIT
    r, gauss, near, far = _ellipse_bounds(v, m, a)
    dist = (np.arange(_FINE_PANELS) + 0.5)[:, None] * (2.0 * a) - a * r
    a_coarse = 0.5 * h
    r_c, gauss_c, _, far_c = _ellipse_bounds(v, m, a_coarse)
    d0 = _FINE_SPAN * h + a_coarse * (1.0 - r_c)  # positive: r_c < 31 on the rho grid
    with np.errstate(divide="ignore", over="ignore"):
        far_m = np.where(dist > 0.0, far / np.square(dist), np.inf)
        fine = (gauss * np.minimum(near, far_m)).min(axis=1)
        coarse = (gauss_c * far_c * (1.0 / d0**2 + 1.0 / (h * d0))).min()
    return fine, float(coarse)


def _rounding_bound(v: np.ndarray, m: np.ndarray, h: float, n_panels: int,
                    quad: float) -> float:
    """Bound on the floating-point error of a panel sum of at most
    ``n_panels`` panels, in the standard model with unit roundoff u and
    sin, exp and expm1 (real and complex) accurate to 2 ulp.

    At a node t the computed integrand is off by at most u (P + Q t) / t^2:
    the half-angle phase t v_j / 2 is off by at most 4 u |t v_j| (node, seed
    and rotation), the sums over the J atoms and the closing arithmetic add
    O(J u) per unit of mass, and the node itself, off by 3 u t, moves g by at
    most u (6 t sum m|v| + 12) / t^2.  The weights sum u (P + Q t) / t^2 to
    u (P S_2 + Q S_1).  The weighting, the chunk sums and the running total
    add at most (7 _HSU_CHUNK + chunks) u times the sum of the positive
    terms, which is at most (pi/2) sqrt(sum m v^2) + quad.
    """
    n_coarse = max(n_panels - _FINE_PANELS, 0)
    s1 = _FINE_S1 + 1.0 / _FINE_SPAN + math.log1p(n_coarse / _FINE_SPAN)
    s2 = (_FINE_SPLIT * _FINE_S2 + 1.0 / _FINE_SPAN**2 + 1.0 / _FINE_SPAN) / h
    p = (4 * len(v) + 64) * (float(m.sum()) + 1.0)
    q = 40.0 * float(m @ np.abs(v))
    with np.errstate(over="ignore"):
        terms_sum = 0.5 * math.pi * math.sqrt(float(m @ (v * v))) + quad
    terms = 7 * _HSU_CHUNK + n_panels // _HSU_CHUNK + 10
    return _UNIT * (p * s2 + q * s1 + terms * terms_sum)


class _HsuPlan(NamedTuple):
    h: float         # coarse panel width; fine panels are h / _FINE_SPLIT wide
    n_fine: int
    n_coarse: int
    t_end: float     # end of the last panel, T
    bound: float     # proven bound on |value - E|Z||


def _hsu_plan(v: np.ndarray, m: np.ndarray, tol: float, max_panels: int) -> _HsuPlan:
    """The sweep that meets ``tol`` with the fewest panels or, when none fits
    in ``max_panels``, the capped sweep with the smallest bound.

    Every candidate width carries a proven bound, (2/pi) (quadrature +
    rounding + 1/T); the scan over the widths only picks a cheap one, and
    stops at the first that does no better than the best so far.
    """
    if max_panels < 1:
        raise ValueError("max_panels must be positive")
    omega = 2.0 * float(m @ np.abs(v)) + float(np.abs(v).max())
    n_fine = min(max_panels, _FINE_PANELS)
    best_key, best = None, None
    for step in _H_STEPS:
        h = float(step) / omega
        fine, coarse = _panel_bounds(v, m, h)
        quad = float(fine.sum()) + coarse
        rounding = _rounding_bound(v, m, h, max_panels, quad)
        slack = 0.5 * math.pi * tol - quad - rounding
        t_need = 1.0 / slack if slack > 0.0 else math.inf
        fine_end = _FINE_SPAN * h
        feasible = (n_fine == _FINE_PANELS
                    and t_need <= fine_end + (max_panels - n_fine) * h)
        if feasible:
            n_coarse = max(math.ceil((t_need - fine_end) / h), 0)
        else:
            n_coarse = max_panels - n_fine
            quad = float(fine[:n_fine].sum()) + (coarse if n_coarse else 0.0)
        t_end = (n_fine / _FINE_SPLIT + n_coarse) * h
        bound = (2.0 / math.pi) * (quad + rounding + 1.0 / t_end)
        key = (0, n_coarse) if feasible else (1, bound)
        if best_key is not None and not key < best_key:
            break
        best_key, best = key, _HsuPlan(h, n_fine, n_coarse, t_end, bound)
    return best


def _unit_scale(f: SimpleFunction) -> tuple[np.ndarray, np.ndarray, float]:
    """Values over s, masses, and the power of two s that puts the
    oscillation scale omega = 2 sum m|v| + max|v| of the values in [1/2, 1).

    E|I_1(f)| is s times the norm of the scaled atoms and the scaling is
    exact, so no scale of f drives the squared nodes out of the float range,
    where the rounding bound would not hold.
    """
    v, m = f.values_masses()
    with np.errstate(over="ignore"):
        omega = 2.0 * float(m @ np.abs(v)) + float(np.abs(v).max())
    if not math.isfinite(omega):
        raise ValueError("the Hsu oracle needs 2 sum m|v| + max|v| within the float range")
    scale = math.ldexp(1.0, math.frexp(omega)[1])
    return v / scale, m, scale


def _hsu_sweep(v: np.ndarray, m: np.ndarray, lo: float, h: float, n: int) -> float:
    """G7 sum of the integrand over the panels [lo + k h, lo + (k+1) h), k < n.

    Node i of panel k0 + j sits at t = lo + (k0 + j) h + o_i, so e^{itv/2} is
    the chunk's seed e^{i(lo + k0 h + o_i)v/2} times the rotation e^{ijhv/2};
    sin^2(tv/2) and sin(tv) / 2 are its imaginary part squared and the product
    of its parts, cancellation-free near t = 0.  The rotations and every work
    array are made once per sweep, node-major so each ufunc runs along the
    panels; each chunk writes into them.
    """
    if n <= 0:
        return 0.0
    rows = min(n, _HSU_CHUNK)
    a = 0.5 * h
    offsets = (a * (1.0 + _GL7_NODES))[:, None]
    weights = (a * _GL7_WEIGHTS)[:, None]
    steps = np.arange(rows, dtype=float)
    turns = np.exp(1j * np.multiply.outer(0.5 * h * v, steps))
    half_mean = 0.5 * float(m @ v)
    base = np.empty(rows)
    t, z = np.empty((7, rows)), np.empty((7, rows), dtype=complex)
    c, s, work = np.empty((7, rows)), np.empty((7, rows)), np.empty((7, rows))
    total = 0.0
    for k0 in range(0, n, rows):
        cnt = min(rows, n - k0)
        tt, zz, cc, ss, xx = t[:, :cnt], z[:, :cnt], c[:, :cnt], s[:, :cnt], work[:, :cnt]
        np.add(steps[:cnt], k0, out=base[:cnt])
        base[:cnt] *= h
        base[:cnt] += lo
        np.add(base[:cnt], offsets, out=tt)
        seed_t = lo + k0 * h + offsets
        cc.fill(0.0)
        ss.fill(0.0)
        for vj, mj, turn in zip(v, m, turns):
            np.multiply(turn[:cnt], np.exp((0.5j * vj) * seed_t), out=zz)
            np.multiply(zz.imag, zz.imag, out=xx)
            xx *= mj
            cc += xx                        # sum m sin^2(tv/2)
            np.multiply(zz.real, zz.imag, out=xx)
            xx *= mj
            ss += xx                        # sum m sin(tv) / 2
        np.multiply(tt, half_mean, out=xx)
        ss -= xx                            # S / 2, S = sum m (sin tv - tv)
        np.sin(ss, out=ss)
        np.square(ss, out=ss)
        cc *= -2.0                          # C = -2 sum m sin^2(tv/2)
        np.expm1(cc, out=cc)
        np.multiply(ss, cc, out=xx)
        ss += xx
        ss *= 2.0
        ss -= cc                            # 1 - Re phi = -expm1(C) + e^C 2 sin^2(S/2)
        np.square(tt, out=xx)
        ss /= xx
        ss *= weights
        total += float(ss.sum())            # pairwise, not a threaded BLAS dot
    return total


def star_norm_hsu(f, tol: float = 1e-6, max_panels: int = _HSU_MAX_PANELS) -> float:
    """E|I_1(f)| via the absolute-moment integral of the characteristic
    function, with a certified error <= tol.

    E|Z| = (2/pi) int_0^inf (1 - Re phi(t)) / t^2 dt.  [0, T] is covered by
    7-point Gauss-Legendre panels, width h / 8 on [0, 32 h) and h beyond;
    h and T are fixed before the sweep from a proven bound: the
    Bernstein-ellipse remainder of every panel (``_panel_bounds``), the
    rounding of the sum (``_rounding_bound``), and the tail beyond T, which
    lies in [0, 2/T] and whose midpoint 1/T is added, leaving (2/pi)/T.
    When no sweep of at most ``max_panels`` panels meets tol, the capped
    sweep with the smallest bound runs and QuadratureError carries its value
    and bound; ``hsu_error_floor`` gives that bound without sweeping.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(f, TestFunction):
        f = piecewise_to_simple(f)
    if not f.atoms:
        return 0.0
    v, m, scale = _unit_scale(f)
    plan = _hsu_plan(v, m, tol / scale, max_panels)
    fine_h = plan.h / _FINE_SPLIT
    total = (_hsu_sweep(v, m, 0.0, fine_h, plan.n_fine)
             + _hsu_sweep(v, m, plan.n_fine * fine_h, plan.h, plan.n_coarse))
    value = scale * (2.0 / math.pi) * (total + 1.0 / plan.t_end)
    bound = scale * plan.bound
    if bound > tol:
        raise QuadratureError(
            value, bound,
            f"the proven error bound within {max_panels} panels is "
            f"{bound:g}, above tol={tol:g}",
        )
    return value


def hsu_error_floor(f: SimpleFunction, max_panels: int = _HSU_MAX_PANELS) -> float:
    """The smallest error bound ``star_norm_hsu`` can prove for f within
    ``max_panels`` panels, from the same plan and without sweeping: a tol
    below it raises QuadratureError."""
    if not f.atoms:
        return 0.0
    v, m, scale = _unit_scale(f)
    return scale * _hsu_plan(v, m, 0.0, max_panels).bound


# ---------------------------------------------------------------------------
# Identity checks

def mecke_check(
    h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    w: Window,
    R: int,
    seed: int,
) -> tuple[MCEstimate, MCEstimate]:
    """Both sides of the reduced Mecke equation E sum_{x in omega}
    h(x, omega - delta_x) = int_w E h(x, omega) dx (Last & Penrose, Lectures
    on the Poisson Process, CUP 2017, Thm 4.1), each as a Monte Carlo estimate
    over the samples of replicates 0..R-1.  h(xs, others) is vectorized over
    the positions xs; the left side calls it at each point with that point
    removed, the right side integrates h(., points) over w by quadrature."""
    R = int(R)
    lhs, rhs = np.empty(R), np.empty(R)
    for r in range(R):
        pts = sample_process(w, seed, r).points
        lhs[r] = math.fsum(float(h(pts[i:i + 1], np.concatenate((pts[:i], pts[i + 1:])))[0])
                           for i in range(pts.size))
        probe = TestFunction(eval=lambda xs, pts=pts: h(xs, pts), support=w)
        rhs[r], _ = integrate(probe, w, tol=1e-9, max_segments=2000)
    return _mc_estimate(lhs, seed), _mc_estimate(rhs, seed)


def difference_check(
    f: TestFunction, s: PoissonSample, x: float, compensator: float
) -> tuple[float, float]:
    """Adding one point at x moves the centered integral by exactly f(x).

    f is evaluated on the sample with and without x appended, and the two
    integrals are differenced in exact rational arithmetic: the check is
    zero-tolerance, and an f whose eval is not pointwise fails it.
    """
    if not bool(s.window.contains(np.array([float(x)]))[0]):
        raise ValueError("x must lie inside the sample window")
    fx = float(np.asarray(f.eval(np.array([float(x)])), dtype=float)[0])
    comp = Fraction(float(compensator))
    with_x, without = (sum(map(Fraction, np.asarray(f.eval(pts), dtype=float).tolist()), -comp)
                       for pts in (np.append(s.points, float(x)), s.points))
    return float(with_x - without), fx


def second_moment_check(
    f: TestFunction, w: Window, R: int, seed: int
) -> tuple[MCEstimate, float]:
    """Sample variance of the centered integral against int_w f^2 dmu."""
    R = int(R)
    comp, _ = integrate(f, w, tol=_QUAD_TOL)
    sums, = _replicate_sums(w, R, seed, lambda pts: (_eval_points(f, pts),))
    devs = sums - comp
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

    def values(pts):
        gv, hv = _eval_points(g, pts), _eval_points(h, pts)
        return gv, hv, gv * hv

    ng, nh, ngh = _replicate_sums(w, R, seed, values)
    lhs = _mc_estimate(ng * nh - ngh, seed)
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
