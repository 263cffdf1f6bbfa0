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

``sample_process`` draws one replicate on the Philox key (seed, replicate);
every batched estimate and check draws all its replicates on the one key
(seed, _BATCH_STREAM), as points (``_replicate_blocks``) or cell counts.

Also: the uncentered norm E|N(f)|, and numerical checks of the reduced
(Slivnyak-)Mecke equation (Last & Penrose, Lectures on the Poisson Process,
CUP 2017, Thm 4.1), the add-one-point difference identity, the L2 isometry,
the order-2 reduced moment identity, and equivariance/coboundary relations
under measure-preserving maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .measure import (
    _CHUNK,
    SimpleFunction,
    TestFunction,
    Window,
    _first_segments,
    _gk_nodes,
    _gk_reduce,
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
    "abs_moment_exact",
]

_QUAD_TOL = 1e-10  # the identity checks' compensators and exact targets
_MC_QUAD_TOL = 1e-6  # the compensator and truncation bound of a Monte Carlo estimate


class QuadratureError(RuntimeError):
    """Raised, before any sweep, when ``star_norm_hsu`` cannot certify the
    requested tolerance within its panel cap.

    Carries ``err_bound``, the smallest error bound (quadrature, rounding
    and tail) that the oracle can prove for the function within the cap.
    """

    def __init__(self, err_bound: float, message: str):
        super().__init__(message)
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


# second key word of the batch stream, never a ``sample_process`` key: the
# word in use, which is 0x9E3779B97F4A7C15 rounded to float64 as numpy once
# converted the key
_BATCH_STREAM = 0x9E3779B97F4A8000


def _philox(seed: int, replicate: int | None = None) -> np.random.Generator:
    """The Philox stream keyed (seed, replicate), or (seed, _BATCH_STREAM);
    each key word must lie in [0, 2^64)."""
    key = (int(seed), _BATCH_STREAM if replicate is None else int(replicate))
    if not all(0 <= word < 1 << 64 for word in key):
        raise ValueError(f"Philox key (seed, replicate) = {key} has a word outside [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def sample_process(w: Window, rng_seed: int, replicate: int = 0) -> PoissonSample:
    """One Poisson(measure(w)) sample: a fresh ``Philox(key=(seed,
    replicate))`` draws the count, then that many uniforms in [0, 1), which
    ``window_position`` places in w.

    Each (seed, replicate) pair addresses an independent counter-based
    stream, so replicates may be drawn in any order.
    """
    rng = _philox(rng_seed, replicate)
    n = int(rng.poisson(w.measure)) if w else 0
    return PoissonSample(w, window_position(w, rng.random(n)) if n else np.empty(0))


def integral_centered(f: TestFunction, s: PoissonSample, compensator: float) -> float:
    """The windowed centered integral: sum of f over the points minus
    the precomputed compensator int_w f dmu."""
    vals = np.asarray(f.eval(s.points), dtype=float)
    return math.fsum(vals) - float(compensator)


# ---------------------------------------------------------------------------
# Vectorized replicate machinery

def _replicate_blocks(w: Window, R: int, seed: int):
    """R replicates on the one stream of ``seed``, as (counts, points) per
    block of whole replicates, in order.  All R counts are drawn first, then
    the uniforms of one block, at most ``_CHUNK`` points or one replicate, at
    a time: split draws of one stream give the bits of one whole-array draw,
    so the points do not depend on the block size."""
    if R < 1:
        raise ValueError(f"need at least one replicate, got {R}")
    rng = _philox(seed)
    counts = (rng.poisson(w.measure, size=R).astype(np.int64) if w
              else np.zeros(R, dtype=np.int64))
    ends = np.cumsum(counts)
    r0 = 0
    while r0 < R:
        first = int(ends[r0] - counts[r0])
        r1 = max(r0 + 1, int(np.searchsorted(ends, first + _CHUNK, side="right")))
        n = int(ends[r1 - 1]) - first
        yield counts[r0:r1], (window_position(w, rng.random(n)) if n else np.empty(0))
        r0 = r1


def _replicate_sums(w: Window, R: int, seed: int,
                    values: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> np.ndarray:
    """Per-replicate sums for R replicates of ``_replicate_blocks``: row i of
    the result sums, over each replicate's points, the i-th array that
    ``values(points)`` returns.  Each sum adds its replicate's values in
    point order from 0.0, so its bits do not depend on the block size."""
    sums = None
    r0 = 0
    for counts, pts in _replicate_blocks(w, R, seed):
        rows = values(pts)
        if sums is None:
            sums = np.empty((len(rows), R))
        ids = np.repeat(np.arange(counts.size), counts)
        r1 = r0 + counts.size
        for i, v in enumerate(rows):
            sums[i, r0:r1] = np.bincount(ids, weights=v, minlength=counts.size)
        r0 = r1
    return sums


def _covers(outer: Window, inner: Window, tol: float = 1e-9) -> bool:
    return window_intersect(outer, inner).measure >= inner.measure - tol


def _truncation_bound(f: TestFunction, w: Window) -> float:
    """min(2 * L1-tail, L2-tail) of f outside w: the declared tails if w covers
    the support exactly, else by quadrature to _MC_QUAD_TOL, errors added."""
    declared = min(2.0 * f.l1_tail_bound, f.l2_tail_bound)
    if _covers(w, f.support, tol=0.0):
        return float(declared)
    inter = window_intersect(f.support, w)
    mom, merr = function_moments(f, tol=_MC_QUAD_TOL)
    l1_in, e1 = integrate(f, inter, transform=np.abs, tol=_MC_QUAD_TOL)
    l2sq_in, e2 = integrate(f, inter, transform=np.square, tol=_MC_QUAD_TOL)
    l1_out = max(0.0, mom.l1 - l1_in + merr + e1)
    l2sq_out = max(0.0, mom.l2sq - l2sq_in + merr + e2)
    return float(min(2.0 * l1_out, math.sqrt(l2sq_out)))


def _mc_estimate(vals: np.ndarray, seed: int, truncation_bound: float = 0.0) -> MCEstimate:
    """Mean and standard error of the per-replicate values ``vals``; fewer
    than two values leave the standard error undefined and raise ValueError."""
    R = vals.size
    if R < 2:
        raise ValueError(f"need at least two replicates for a standard error, got {R}")
    return MCEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(R)), R,
                      int(seed), truncation_bound)


def _count_sums(atoms, R: int, seed: int) -> np.ndarray:
    """N(f) for R replicates of f = sum_j v_j 1_{A_j}, given by its atoms
    (v_j, mu(A_j)) on disjoint sets: for each atom in turn, R Poisson(mu(A_j))
    counts from the one stream of ``seed``, times v_j, added to the sums."""
    rng = _philox(seed)
    sums = np.zeros(R)
    for v, m in atoms:
        sums += v * rng.poisson(m, R)
    return sums


def _estimate_abs(f: TestFunction, w: Window, R: int, seed: int, center: float) -> MCEstimate:
    """E|N(f 1_w) - center| from R replicates drawn on the one stream of
    ``seed``.

    A function with an exact atom form (``piecewise_to_simple``) whose
    window covers its support is drawn as cell counts.  The counts of a
    Poisson process on disjoint sets are independent Poisson(mu(A_j))
    variables (Last & Penrose, Lectures on the Poisson Process, CUP 2017,
    Thm 5.2), so N(f) = sum_j v_j N(A_j) in law (``_count_sums``): memory
    O(R) whatever the number of atoms, and no BLAS call, so the bits do not
    depend on the thread count.  Any other function is sampled as points,
    evaluated block by block (``_replicate_sums``).  The same exact cover
    test gives the truncation bound (``_truncation_bound``)."""
    R = int(R)
    if R < 1000:
        raise ValueError("need at least 10^3 replicates")
    try:
        atoms = piecewise_to_simple(f).atoms if _covers(w, f.support, tol=0.0) else None
    except ValueError:
        atoms = None
    if atoms is None:
        sums, = _replicate_sums(w, R, seed, lambda pts: (np.asarray(f.eval(pts), dtype=float),))
    else:
        sums = _count_sums(atoms, R, seed)
    devs = np.abs(sums - center)
    return _mc_estimate(devs, seed, _truncation_bound(f, w))


def estimate_star_norm(f: TestFunction, w: Window, R: int, seed: int) -> MCEstimate:
    """Monte Carlo E|N(f 1_w) - int_w f|, the windowed centered L1 norm,
    drawn as cell counts or points (``_estimate_abs``); the compensator
    int_w f is integrated to _MC_QUAD_TOL."""
    comp, _ = integrate(f, w, tol=_MC_QUAD_TOL)
    return _estimate_abs(f, w, R, seed, comp)


def estimate_starstar_norm(f: TestFunction, w: Window, R: int, seed: int) -> MCEstimate:
    """Monte Carlo E|N(f 1_w)|, the uncentered L1 norm; only its truncation
    bound is a quadrature, to _MC_QUAD_TOL."""
    return _estimate_abs(f, w, R, seed, 0.0)


# ---------------------------------------------------------------------------
# Exact oracle: truncated joint-lattice enumeration

_MAX_ATOMS = 6
_MAX_MASS = 30.0
_LATTICE_RES = 1e-12
_TINY_VALUE = 2.0 ** -20  # values below it are rescaled before the lattice merge
_HUGE_VALUE = 2.0 ** 20  # and values above it, so the cutoffs do not grow with them
_TAIL_EPS = 1e-12  # budget for the dropped tails of the exact oracles
_CUTOFF_SCAN = 600  # values of K the cutoff search tries, from ceil(m)
_CUTOFF_BLOCK = 64  # of them evaluated at a time
_TAIL_TERMS = 32  # pmf terms summed past a block before the geometric remainder
# log k! for every k the cutoff search and the lattice enumeration reach
_LOG_FACT = np.array([math.lgamma(k + 1.0) for k in
                      range(math.ceil(_MAX_MASS) + _CUTOFF_SCAN + _TAIL_TERMS + 1)])
_KS = np.arange(_LOG_FACT.size, dtype=float)


def _poisson_table(m: np.ndarray, width: int) -> np.ndarray:
    """Poisson(m_i) pmf exp(k log m_i - log k! - m_i) at k = 0 .. width-1,
    a row per mass, with each log m_i from ``math.log``.  Each entry is the
    same elementwise computation at any width, so a wider table extends a
    narrower one bit for bit."""
    log_m = np.array([math.log(x) for x in m.tolist()])
    return np.exp(_KS[:width] * log_m[:, None] - _LOG_FACT[:width] - m[:, None])


def _tail_bounds(table: np.ndarray, m: np.ndarray, first: np.ndarray,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """pmf(K) and an upper bound on P(N > K) for K = first_i .. first_i +
    size - 1, first_i >= m_i, each row read from the same row of ``table``.

    The tail is the sum of pmf(j) for K < j < E = first + size + _TAIL_TERMS,
    added smallest first, plus the geometric remainder pmf(E) / (1 - m/(E+1)):
    for j >= E the ratio pmf(j+1) / pmf(j) = m/(j+1) is at most m/(E+1) < 1,
    so the remainder bounds the rest of the series.  A computed pmf term
    carries the rounding of k log m - log k! - m: a relative error of a few
    (|k log m| + log k! + m) * 2^-53, under 1e-11 wherever the term is a
    normal float (an absolute one below 2^-1022 elsewhere).  The computed
    bound can fall below P(N > K) by that rounding alone.
    """
    span = size + _TAIL_TERMS + 1  # the columns K = first .. E
    rows = np.arange(first.size) * table.shape[1] + first
    p = table.take(rows[:, None] + np.arange(span))
    terms = p[:, 1:]
    terms[:, -1] /= 1.0 - m / (first + span)
    return p[:, :size], terms[:, ::-1].cumsum(axis=1)[:, :-size - 1:-1]


def _cutoffs(v: np.ndarray, m: np.ndarray, other: np.ndarray, budget: np.ndarray,
             centered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per atom, the smallest K among the _CUTOFF_SCAN integers from
    ceil(m_i) with the certified dropped-tail bound <= budget_i, that bound,
    and a ``_poisson_table`` of the masses reaching every such K.

    The bound on E[|S| 1_{N_i > K}] uses P(N_i > K) against ``other``, the
    weight of the other atoms of its function, and the exact partial-moment
    identities E[(N-m)1_{N>K}] = m pmf(K) (where ``centered``) and E[N
    1_{N>K}] = m (pmf(K) + P(N > K)) (elsewhere), with P(N > K) replaced by
    the upper bound of ``_tail_bounds``.  Every step is elementwise per
    atom, so the atoms of many functions can be searched together, each
    with the bits of its own search.  The K are tried in blocks of
    _CUTOFF_BLOCK for all atoms at once, each atom keeping the first block
    that holds its K; the search stops at the first block after which every
    atom has one.  The table holds k <= ceil(max m) + _CUTOFF_BLOCK +
    _TAIL_TERMS, what the first block reads, and is rebuilt wider when a
    later block reads past it.
    """
    start = np.ceil(m).astype(np.int64)
    scale = (np.abs(v) * m)[:, None]
    other = other[:, None]
    uncentered = None if centered.all() else ~centered[:, None]
    limit = budget[:, None]
    caps = np.empty(m.size, dtype=np.int64)
    caps.fill(-1)
    bounds = np.empty(m.size)
    rows = np.arange(m.size)
    table = np.empty((m.size, 0))
    for offset in range(0, _CUTOFF_SCAN, _CUTOFF_BLOCK):
        size = min(_CUTOFF_BLOCK, _CUTOFF_SCAN - offset)
        first = start + offset
        width = int(first.max()) + size + _TAIL_TERMS + 1
        if table.shape[1] < width:
            table = _poisson_table(m, width)
        pmf, sf = _tail_bounds(table, m, first, size)
        if uncentered is not None:  # pmf(K) + P(N > K) where uncentered
            np.add(pmf, sf, out=pmf, where=uncentered)
        b = sf * other + scale * pmf
        j = (b <= limit).argmax(axis=1)  # the first K within budget, else 0
        bj = b[rows, j]
        new = (bj <= budget) & (caps < 0)
        caps = np.where(new, first + j, caps)
        bounds = np.where(new, bj, bounds)
        if caps.min() >= 0:
            return caps, bounds, table
    raise ValueError("cannot certify the tail bound")


def _merge_lattice(vals: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lattice values rounded to the _LATTICE_RES grid, sorted, with the
    probabilities of equal grid points summed in input order."""
    grid = vals / _LATTICE_RES
    np.rint(grid, out=grid)  # np.round's half-to-even at 0 decimals
    order = grid.argsort()
    grid = grid.take(order)
    new = grid[1:] != grid[:-1]
    if new.all():
        return grid * _LATTICE_RES, probs.take(order)
    run = np.empty(order.size, dtype=np.int64)
    run[order] = np.concatenate(([0], np.cumsum(new)))
    return grid[np.concatenate(([True], new))] * _LATTICE_RES, np.bincount(run, weights=probs)


def _first_lattices(v: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i: the grid ``_merge_lattice`` rounds 0 + v_i k to, at k = 0 ..
    max caps, for every atom in one array pass; and whether two of its
    first caps_i + 1 entries tie.

    One atom's grid rint(v_i k / _LATTICE_RES) is monotone in k, increasing
    for v_i > 0 and decreasing for v_i < 0, so it is sorted by reading k
    upward or downward, without a sort.  Without ties that order is the one
    ``_merge_lattice``'s sort finds, so the bits are its own; with ties its
    ``bincount`` adds in input order, and the caller merges as it does.
    """
    grid = v[:, None] * _KS[:int(caps.max()) + 1]
    grid += 0.0  # the merge adds v k to the lattice {0}: -0.0 becomes 0.0
    grid /= _LATTICE_RES
    np.rint(grid, out=grid)
    tied = grid[:, 1:] == grid[:, :-1]
    if tied.any():  # a tie past caps_i does not count
        tied &= _KS[:grid.shape[1] - 1] < caps[:, None]
    grid *= _LATTICE_RES
    return grid, tied.any(axis=1)


def _enumerate_block(block: list[tuple[float, np.ndarray]], vals: np.ndarray,
                     probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted lattice ``vals`` with probabilities ``probs`` after the
    block's atoms, each given by its value v and its pmf row at k = 0 ..
    cap, are added to it one by one as v N, and its probabilities."""
    for v, pk in block:
        vals = (vals[:, None] + v * _KS[:pk.size]).ravel()
        probs = (probs[:, None] * pk).ravel()
        vals, probs = _merge_lattice(vals, probs)
    return vals, probs


# pairs whose cutoff search and first-atom lattices are built together
_EXACT_GROUP = 16
# the lattice {0} of an empty block; and for a function of n atoms, each
# atom's share _TAIL_EPS / n of the tail budget, and centering flags
_ORIGIN = (np.zeros(1), np.ones(1))
_BUDGETS = tuple(np.full(n, _TAIL_EPS / max(n, 1)) for n in range(_MAX_ATOMS + 1))
_FLAGS = (np.zeros(_MAX_ATOMS, dtype=bool), np.ones(_MAX_ATOMS, dtype=bool))
for _a in (*_ORIGIN, *_BUDGETS, *_FLAGS):
    _a.flags.writeable = False


def _exact_setup(f: SimpleFunction, center: float | None):
    """One pair's refusals, rescaling and tail weights: its moment when f
    has no atom, else ((values rescaled by 2^-e, masses, the weight of the
    other atoms, tail budget, centered) per atom, e, the shift -c rescaled)."""
    atoms = f.atoms
    if center is not None and not math.isfinite(center):
        raise ValueError(f"exact oracle needs a finite center, got {center}")
    if len(atoms) > _MAX_ATOMS:
        raise ValueError(f"exact oracle handles at most {_MAX_ATOMS} atoms, got {len(atoms)}")
    if any(m > _MAX_MASS for _, m in atoms):
        raise ValueError(f"exact oracle handles masses up to {_MAX_MASS}")
    if not atoms:
        return 0.0 if center is None else abs(center)
    v, m = f.values_masses()
    # the lattice merges on an absolute grid against an absolute tail budget,
    # so tiny and huge values are first put at unit scale by a power of two
    # 2^e: exact, and E|sum v_i N_i - c| is 1-homogeneous in (v, c)
    abs_v = np.abs(v)
    top = max(float(abs_v.max()), 0.0 if center is None else abs(center))
    e = math.frexp(top)[1] if not _TINY_VALUE <= top <= _HUGE_VALUE else 0
    if e:
        v = np.ldexp(v, -e)
        abs_v = np.abs(v)
        if center is not None:
            center = math.ldexp(center, -e)
    centered = center is None
    extra = 0.0 if centered else abs(center)
    shift = -float((v * m).sum()) if centered else -center
    weights = abs_v * (np.sqrt(m) if centered else m)
    other = weights.sum() - weights + extra
    return (v, m, other, _BUDGETS[len(atoms)], _FLAGS[centered][:len(atoms)]), e, shift


def _exact_abs_moments(pairs: Iterable[tuple[SimpleFunction, float | None]]) -> list[float]:
    """E|sum v_i N_i - c| of every (f, center) pair, or the error the first
    failing pair raises once the pairs before it are evaluated: c = sum v_i
    m_i with the centered tail bounds when ``center`` is None, else c =
    center with the uncentered tail bounds plus |center|.  inf when a
    moment is beyond the float range.  The single-function oracles are
    batches of one.

    The error is at most 2^e (_TAIL_EPS / 2 + J _LATTICE_RES / 2) for J
    atoms, the rescaling 2^e (e = 0 unless a value or c lies outside
    [_TINY_VALUE, _HUGE_VALUE]): the dropped tails, whose bound is halved by
    adding its midpoint, and the grid the J lattice merges round to.  On
    top comes the floating-point rounding of the pmf terms and the sums,
    an estimate, not a proven bound: 1e-13 (sum |v_i| m_i + |c|).

    The pairs run in groups of _EXACT_GROUP, and a pair's bits do not
    depend on its group.  One ``_cutoffs`` pass per group finds every
    atom's cutoff K_i, each within the budget _TAIL_EPS / J of its pair,
    and builds one Poisson table, a row per atom, from which the
    enumeration slices the pmf at k = 0 .. K_i; one ``_first_lattices``
    pass gives every block its first atom's lattice without a sort.  A
    pair's atoms are split into two blocks of balanced lattice size (meet
    in the middle); each block's lattice of sums is merged atom by atom
    onto the grid, which leaves it sorted, and the moment is a prefix-sum
    reduction of one block against the other, each pair reduced as soon
    as its lattices are built."""
    out: list[float] = []
    pairs = iter(pairs)
    while group := list(itertools.islice(pairs, _EXACT_GROUP)):
        setups, refusal = [], None
        for f, center in group:
            try:
                setups.append(_exact_setup(f, center))
            except ValueError as exc:
                refusal = exc
                break
        # the pairs before a refusal run first, as a loop of single calls would
        out += _exact_group(setups)
        if refusal is not None:
            raise refusal
    return out


def _exact_group(setups: list) -> list[float]:
    """The moments of one group of ``_exact_setup`` results."""
    live = [s for s in setups if type(s) is tuple]
    if not live:
        return setups
    v, m, other, budget, centered = (c[0] if len(c) == 1 else np.concatenate(c)
                                     for c in zip(*(s[0] for s in live)))
    caps, bounds, table = _cutoffs(v, m, other, budget, centered)
    grid, tied = _first_lattices(v, caps)
    caps, bounds, v, tied = caps.tolist(), bounds.tolist(), v.tolist(), tied.tolist()

    def lattice(block):
        """The sorted lattice of sums v N over the block's atoms (indices)."""
        if not block:
            return _ORIGIN
        rest = [(v[i], table[i, :caps[i] + 1]) for i in block[1:]]
        i, c = block[0], caps[block[0]]
        if tied[i]:
            return _enumerate_block([(v[i], table[i, :c + 1])] + rest, *_ORIGIN)
        if v[i] > 0:
            return _enumerate_block(rest, grid[i, :c + 1], table[i, :c + 1])
        return _enumerate_block(rest, grid[i, c::-1], table[i, c::-1])  # k read downward

    out = []
    lo = 0
    for s in setups:
        if type(s) is not tuple:
            out.append(s)
            continue
        cols, e, shift = s
        n = cols[0].size
        tail_bound = 0.0
        for b in bounds[lo:lo + n]:
            tail_bound += b
        # meet in the middle: split the atoms into two blocks of balanced
        # lattice size, largest cutoff first
        blocks: tuple[list, list] = ([], [])
        log_size = [0.0, 0.0]
        for i in sorted(range(lo, lo + n), key=lambda j: -caps[j]):
            side = 0 if log_size[0] <= log_size[1] else 1
            blocks[side].append(i)
            log_size[side] += math.log(caps[i] + 1)
        lo += n
        out.append(_lattice_moment(lattice(blocks[0]), lattice(blocks[1]), shift, tail_bound, e))
    return out


def _lattice_moment(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray],
                    shift: float, tail_bound: float, e: int) -> float:
    """2^e (E|A + B + shift| + tail_bound / 2) for independent A and B on
    their sorted lattices, by a prefix-sum reduction over A; inf beyond the
    float range."""
    (va, pa), (vb, pb) = a, b
    cum_p, cum_pv = np.zeros((2, pa.size + 1))
    pa.cumsum(out=cum_p[1:])
    (pa * va).cumsum(out=cum_pv[1:])
    tot_p, tot_pv = cum_p[-1], cum_pv[-1]
    vb = vb + shift
    idx = va.searchsorted(-vb)
    # E_a |a + b| with the split at a = -b, via prefix sums over block A
    per_b = tot_pv + vb * tot_p - 2.0 * (cum_pv.take(idx) + vb * cum_p.take(idx))
    value = float((pb * per_b).sum())
    try:
        return math.ldexp(value + 0.5 * tail_bound, e)
    except OverflowError:  # the moment is beyond the float range
        return math.inf


def star_norm_exact(f: SimpleFunction) -> float:
    """E|sum v_i (N_i - m_i)| by direct enumeration; inf beyond the float
    range.  Error at most (1 + J) 5e-13 for J atoms from the tails and the
    grid, times 2 max |v_i| when that exceeds 2^20, plus rounding
    estimated, not proven, at 2e-13 sum |v_i| m_i (``_exact_abs_moments``)."""
    return _exact_abs_moments([(f, None)])[0]


def starstar_norm_exact(f: SimpleFunction) -> float:
    """E|sum v_i N_i| by direct enumeration; inf beyond the float range.
    Error at most (1 + J) 5e-13 for J atoms from the tails and the grid,
    times 2 max |v_i| when that exceeds 2^20, plus rounding estimated, not
    proven, at 1e-13 sum |v_i| m_i (``_exact_abs_moments``)."""
    return _exact_abs_moments([(f, 0.0)])[0]


def abs_moment_exact(f: SimpleFunction, center: float = 0.0) -> float:
    """E|sum v_i N_i - center| by direct enumeration; inf beyond the float
    range, and a non-finite center is refused.  Error at most (1 + J) 5e-13
    for J atoms from the tails and the grid, times 2 max(|center|, |v_i|)
    when that exceeds 2^20, plus rounding estimated, not proven, at
    1e-13 (sum |v_i| m_i + |center|) (``_exact_abs_moments``)."""
    return _exact_abs_moments([(f, float(center))])[0]


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


def _hsu_plan(v: np.ndarray, m: np.ndarray, tol: float) -> _HsuPlan:
    """The sweep that meets ``tol`` with the fewest panels or, when none fits
    in _HSU_MAX_PANELS panels (read at call time), the capped sweep with the
    smallest bound, which is then the floor of every tol it misses.

    Every candidate width carries a proven bound, (2/pi) (quadrature +
    rounding + 1/T); the scan over the widths only picks a cheap one, and
    stops at the first that does no better than the best so far.
    """
    max_panels = _HSU_MAX_PANELS
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


def star_norm_hsu(f: SimpleFunction, tol: float = 1e-6) -> float:
    """E|I_1(f)| of a SimpleFunction via the absolute-moment integral of its
    characteristic function, with a certified error <= tol.

    E|Z| = (2/pi) int_0^inf (1 - Re phi(t)) / t^2 dt.  [0, T] is covered by
    7-point Gauss-Legendre panels, width h / 8 on [0, 32 h) and h beyond;
    h and T are fixed before the sweep from a proven bound: the
    Bernstein-ellipse remainder of every panel (``_panel_bounds``), the
    rounding of the sum (``_rounding_bound``), and the tail beyond T, which
    lies in [0, 2/T] and whose midpoint 1/T is added, leaving (2/pi)/T.
    When no sweep of at most _HSU_MAX_PANELS panels (read at call time)
    meets tol, it sweeps nothing and raises QuadratureError carrying the
    smallest bound it can prove; a tol at or above that bound is met.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not f.atoms:
        return 0.0
    v, m, scale = _unit_scale(f)
    plan = _hsu_plan(v, m, tol / scale)
    bound = scale * plan.bound
    if bound > tol:
        raise QuadratureError(bound, f"the proven error bound within {_HSU_MAX_PANELS} "
                                     f"panels is {bound:g}, above tol={tol:g}")
    fine_h = plan.h / _FINE_SPLIT
    total = (_hsu_sweep(v, m, 0.0, fine_h, plan.n_fine)
             + _hsu_sweep(v, m, plan.n_fine * fine_h, plan.h, plan.n_coarse))
    return scale * (2.0 / math.pi) * (total + 1.0 / plan.t_end)


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
    over R replicates (``_mecke_sides``).  h(xs, others) reads others[..., j]
    as the j-th other point; the batch shape others.shape[:-1] broadcasts
    against xs, and h's values are broadcast to that shape.  The left side
    calls it at each point with that point removed, the right side
    integrates h(., points) over w by quadrature.  R < 2 is refused before
    anything is drawn or evaluated."""
    R = int(R)
    if R < 2:
        raise ValueError(f"need at least two replicates for a standard error, got {R}")
    lhs, rhs = _mecke_sides(h, w, R, seed)
    return _mc_estimate(lhs, seed), _mc_estimate(rhs, seed)


def _mecke_sides(h, w: Window, R: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-replicate sides of ``mecke_check`` through the blocks of
    ``_replicate_blocks``, the stream every batched estimator draws on.  The
    r replicates of a block that hold n points make one call of h per side.

    h(xs, others) reads others[..., j] as the j-th other point; the batch
    shape others.shape[:-1] broadcasts against xs, and h's values are
    ``np.broadcast_to`` that shape.  The left side calls h at the points,
    xs (r, n), against each point's replicate without it, others
    (r, n, n - 1), sliced so that others holds at most ``_CHUNK`` values or
    one point's n - 1; each replicate's values are summed by fsum.  The
    right side is ``integrate``'s first pass (tol 1e-9): h at the Kronrod
    nodes of w's intervals, xs (1, q), against the points, others
    (r, 1, n), then one row-by-row reduction per block.  A replicate whose
    summed error estimate is above tol, or not finite, goes through
    ``integrate`` itself, with others (n,).  fsum is correctly rounded and
    rows reduce alone, so for an h that is pointwise in xs each value is
    bit for bit that of one point, or one replicate, at a time, whatever
    the block size."""
    tol = 1e-9

    def call(xs, others):
        return np.broadcast_to(np.asarray(h(xs, others), dtype=float),
                               np.broadcast_shapes(xs.shape, others.shape[:-1]))

    def probe(pts):
        return TestFunction(eval=lambda xs: call(xs, pts), support=w)

    los, his = _first_segments(probe(np.empty(0)), w)  # the same for every probe
    half = 0.5 * (his - los)
    nodes = _gk_nodes(0.5 * (his + los), half)
    lhs, rhs = np.empty(R), np.empty(R)
    r0 = 0
    for counts, pts in _replicate_blocks(w, R, seed):
        starts = np.cumsum(counts) - counts
        y = np.empty((counts.size,) + nodes.shape)
        for n in np.flatnonzero(np.bincount(counts)).tolist():
            sel = np.flatnonzero(counts == n)
            own = pts[starts[sel, None] + np.arange(n)]
            # tiles of rows replicates by cols points: others holds at most
            # _CHUNK values, or one point's n - 1
            m = max(n - 1, 1)
            cols = max(1, min(n, _CHUNK // m))
            rows = max(1, _CHUNK // (cols * m))
            k = np.arange(n - 1)
            vals = np.empty(own.shape)
            for a in range(0, sel.size, rows):
                for c in range(0, n, cols):
                    i = np.arange(c, min(c + cols, n))[:, None]
                    vals[a:a + rows, c:c + cols] = call(own[a:a + rows, c:c + cols],
                                                        own[a:a + rows, k + (k >= i)])
            lhs[r0 + sel] = [math.fsum(v) for v in vals.tolist()]
            if nodes.size:
                y[sel] = call(nodes.reshape(1, -1), own[:, None, :]).reshape(
                    (sel.size,) + nodes.shape)
        k15, err = _gk_reduce(y, half)
        rhs[r0:r0 + counts.size] = k15.sum(axis=1)
        for j in np.flatnonzero(~(err.sum(axis=1) <= tol)):
            rhs[r0 + j], _ = integrate(probe(pts[starts[j]:starts[j] + counts[j]]), w,
                                       tol=tol, max_segments=2000)
        r0 += counts.size
    return lhs, rhs


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
    """Sample variance of the centered integral against int_w f^2 dmu; it
    divides by R - 1, so R < 2 is refused before anything is drawn or
    evaluated."""
    R = int(R)
    if R < 2:
        raise ValueError(f"need at least two replicates for a sample variance, got {R}")
    comp, _ = integrate(f, w, tol=_QUAD_TOL)
    sums, = _replicate_sums(w, R, seed, lambda pts: (np.asarray(f.eval(pts), dtype=float),))
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
    """MC mean of N(g)N(h) - N(gh) against (int_w g)(int_w h); R < 2 is
    refused before anything is drawn or evaluated."""
    R = int(R)
    if R < 2:
        raise ValueError(f"need at least two replicates for a standard error, got {R}")

    def values(pts):
        gv, hv = np.asarray(g.eval(pts), dtype=float), np.asarray(h.eval(pts), dtype=float)
        return gv, hv, gv * hv

    ng, nh, ngh = _replicate_sums(w, R, seed, values)
    lhs = _mc_estimate(ng * nh - ngh, seed)
    int_g, _ = integrate(g, w, tol=_QUAD_TOL)
    int_h, _ = integrate(h, w, tol=_QUAD_TOL)
    return lhs, float(int_g * int_h)


def _compose_forward(f: TestFunction, sys, w_in: Window) -> TestFunction:
    """f after the forward map, as a TestFunction on the input window."""
    bps = {float(b) for b in sys.singularities}
    for ys, _ in sys.preimages(np.asarray(f.breakpoints, dtype=float)):
        bps.update(ys.tolist())

    def _eval(x, f=f, fwd=sys.forward):
        x = np.asarray(x, dtype=float)
        return np.asarray(f.eval(np.asarray(fwd(x), dtype=float)), dtype=float)

    return TestFunction(eval=_eval, support=w_in, breakpoints=tuple(sorted(bps)))


def _check_pair_preconditions(f: TestFunction, sys, windows):
    """w_out must cover f's support and int_{w_in} f.T match int f; returns
    (int_{w_out} f, int_{w_in} f.T), each integral to _QUAD_TOL."""
    w_in, w_out = windows
    if not _covers(w_out, f.support):
        raise ValueError("support of f must lie inside the output window")
    comp_in, e_in = integrate(_compose_forward(f, sys, w_in), w_in, tol=_QUAD_TOL)
    total, e_tot = integrate(f, f.support, tol=_QUAD_TOL)
    slack = 100.0 * (e_in + e_tot) + 1e-8
    if abs(comp_in - total) > slack:
        raise ValueError(
            "input window does not capture the preimage mass: "
            f"int f.T = {comp_in:.6g} vs int f = {total:.6g}"
        )
    comp_out, _ = integrate(f, w_out, tol=_QUAD_TOL)
    return comp_out, comp_in


def equivariance_check(
    f: TestFunction, sys, samples: Iterable[PoissonSample], windows
) -> list[tuple[float, float]]:
    """I_1(f) on the pushed-forward sample vs I_1(f composed with T) on the
    original sample, one (lhs, rhs) per sample; equal up to the two
    compensator quadratures, which are integrated once for all the samples."""
    comp_out, comp_in = _check_pair_preconditions(f, sys, windows)
    pushed = (np.asarray(sys.forward(s.points), dtype=float) for s in samples)
    sums = [math.fsum(np.asarray(f.eval(p), dtype=float)) for p in pushed]
    return [(x - comp_out, x - comp_in) for x in sums]


def coboundary_check(
    f: TestFunction, sys, samples: Iterable[PoissonSample], windows
) -> list[tuple[float, float]]:
    """I_1(f.T - f) against I_1(f) pushed forward minus I_1(f), one
    (lhs, rhs) per sample; the three compensators are integrated once for
    all the samples."""
    comp_out, comp_in_ft = _check_pair_preconditions(f, sys, windows)
    comp_in_f, _ = integrate(f, windows[0], tol=_QUAD_TOL)
    out = []
    for s in samples:
        pushed = np.asarray(sys.forward(s.points), dtype=float)
        fv = np.asarray(f.eval(s.points), dtype=float)
        ftv = np.asarray(f.eval(pushed), dtype=float)
        out.append((math.fsum(ftv - fv) - (comp_in_ft - comp_in_f),
                    (math.fsum(ftv) - comp_out) - (math.fsum(fv) - comp_in_f)))
    return out
