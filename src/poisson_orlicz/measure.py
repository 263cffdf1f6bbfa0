"""Finite-measure windows on the real line, evaluable test functions, simple
functions, and adaptive Gauss-Kronrod quadrature with explicit error estimates.

Everything downstream (norms, sampling, dynamics) runs on top of these three
representations:

* ``Window`` -- a finite union of disjoint intervals carrying restricted
  Lebesgue measure; the finite-measure stage on which all sampling happens.
* ``TestFunction`` -- a pointwise-evaluable real function with a declared
  support window and explicit tail bounds.
* ``SimpleFunction`` -- a list of (value, mass) atoms standing for
  sum(v_i * 1_{A_i}) with disjoint A_i; admits exact norm computations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Window",
    "TestFunction",
    "SimpleFunction",
    "Moments",
    "window",
    "window_union",
    "window_intersect",
    "window_translate",
    "window_position",
    "integrate",
    "integral",
    "simple_moments",
    "function_moments",
    "indicator",
    "piecewise_constant",
    "triangular_bump",
    "simple_to_test",
    "piecewise_to_simple",
]

# points per Monte Carlo sample block: a block's temporaries (a Birkhoff
# average holds a few arrays of this length per forward step) stay in the
# CPU caches
_CHUNK = 1 << 15

# ---------------------------------------------------------------------------
# Windows


@dataclass(frozen=True)
class Window:
    """Finite union of disjoint, sorted, nonempty intervals (lo, hi)."""

    intervals: tuple[tuple[float, float], ...] = ()

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def contains(self, x) -> np.ndarray:
        """Vectorized membership test (closed intervals)."""
        x = np.asarray(x, dtype=float)
        inside = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (x >= lo) & (x <= hi)
        return inside


def _normalize(pairs) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for lo, hi in pairs:
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval ({lo}, {hi}) is not finite")
        if hi > lo:
            cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[list[float]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def window(*pairs) -> Window:
    """Build a canonical Window from (lo, hi) pairs; overlaps are merged."""
    return Window(_normalize(pairs))


def window_union(a: Window, b: Window) -> Window:
    """Canonical union of two windows."""
    return Window(_normalize(list(a.intervals) + list(b.intervals)))


def window_intersect(a: Window, b: Window) -> Window:
    out = []
    for lo1, hi1 in a.intervals:
        for lo2, hi2 in b.intervals:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    return Window(_normalize(out))


def window_translate(w: Window, dx: float) -> Window:
    return Window(tuple((lo + dx, hi + dx) for lo, hi in w.intervals))


def window_position(w: Window, u) -> np.ndarray:
    """Inverse CDF of the uniform law on ``w``: maps u in [0,1) to points.

    Walks the interval list by cumulative length; vectorized over ``u``.
    A target at or past the total length, or NaN, falls in the last
    interval, and a negative one in the first.
    """
    if not w:
        raise ValueError("empty window has no uniform law")
    u = np.asarray(u, dtype=float)
    if len(w.intervals) == 1:
        # the bits of the general path (cum = [0, hi - lo], idx = 0) without
        # its per-point binary search, which costs about 30 times as much
        lo, hi = w.intervals[0]
        return lo + u * (hi - lo)
    lengths = np.array([hi - lo for lo, hi in w.intervals])
    starts = np.array([lo for lo, _ in w.intervals])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    target = u * cum[-1]
    idx = np.searchsorted(cum[1:-1], target, side="right")
    return starts[idx] + (target - cum[idx])


# ---------------------------------------------------------------------------
# Function representations


def _finite(kind: str, **params) -> None:
    """Refuse a non-finite parameter (a number or a sequence), naming it."""
    for name, value in params.items():
        for v in np.asarray(value, dtype=float).ravel():
            if not math.isfinite(v):
                raise ValueError(f"{kind} {name} must be finite, got {float(v)!r}")


@dataclass(frozen=True)
class TestFunction:
    """Pointwise-evaluable real function with declared support window.

    ``eval`` must accept a float ndarray and return one of equal shape, and be
    pointwise: its value at x depends on x alone, so evaluating any split of
    an array and joining the parts gives the same bits as one call (the Monte
    Carlo estimators evaluate their sample points in blocks).  It is
    assumed to vanish outside ``support`` except for mass covered by the
    declared tail bounds on the L1 and L2 norms of f restricted to the
    complement of the support.  ``breakpoints`` lists known discontinuities or
    kinks, used as forced quadrature subdivision points;
    ``breakpoints_complete`` is False when some are known to be missing, so
    the cells between them are not the function's pieces.  ``fit_error`` is
    None when ``eval`` computes the function itself; an interpolant standing
    for it sets the estimated sup-norm error of the fit over the support, a
    heuristic estimate and not a bound.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support: Window
    sup_bound: float | None = None
    l1_tail_bound: float = 0.0
    l2_tail_bound: float = 0.0
    breakpoints: tuple[float, ...] = ()
    breakpoints_complete: bool = True
    fit_error: float | None = None

    __test__ = False  # keep pytest from collecting the class

    @property
    def total_mass(self) -> float:
        """mu(support), the counterpart of SimpleFunction.total_mass."""
        return self.support.measure


@dataclass(frozen=True)
class SimpleFunction:
    """Atoms (value, mass): the function sum(v_i 1_{A_i}), mu(A_i) = m_i."""

    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for v, m in self.atoms:
            if not (math.isfinite(v) and math.isfinite(m)):
                raise ValueError(f"atom ({v}, {m}) is not finite")
            if v == 0:
                raise ValueError("atom values must be nonzero")
            if not m > 0:
                raise ValueError("atom masses must be strictly positive")

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use and kept in the instance __dict__, which the
        # frozen dataclass leaves writable; ``atoms`` stays the only field
        if self.atoms:
            v, m = (np.array(c, dtype=float) for c in zip(*self.atoms))
        else:
            v, m = np.empty(0), np.empty(0)
        v.flags.writeable = m.flags.writeable = False
        return v, m

    def values_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """The values and masses of the atoms as read-only arrays, built once."""
        return self._arrays


class Moments(NamedTuple):
    l1: float
    l2sq: float


def simple_moments(f: SimpleFunction) -> Moments:
    """Exact (l1, l2sq) = (sum|v|m, sum v^2 m); a sum beyond the float
    range is inf, without a warning."""
    v, m = f.values_masses()
    with np.errstate(over="ignore"):
        return Moments(
            float(np.abs(v) @ m) if len(v) else 0.0,
            float((v * v) @ m) if len(v) else 0.0,
        )


def indicator(lo: float, hi: float, scale: float = 1.0) -> TestFunction:
    """scale * 1_{[lo, hi]} as a TestFunction."""
    _finite("indicator", lo=lo, hi=hi, scale=scale)
    if not hi > lo:
        raise ValueError("need hi > lo")

    def _eval(x, lo=float(lo), hi=float(hi), s=float(scale)):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        np.copyto(out, s, where=(x >= lo) & (x <= hi))
        return out

    return TestFunction(
        eval=_eval,
        support=window((lo, hi)),
        sup_bound=abs(scale),
        breakpoints=(float(lo), float(hi)),
    )


def piecewise_constant(breaks: Sequence[float], values: Sequence[float]) -> TestFunction:
    """Step function: values[i] on [breaks[i], breaks[i+1]), 0 outside."""
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    _finite("piecewise_constant", breaks=breaks, values=values)
    if len(values) != len(breaks) - 1:
        raise ValueError("need len(values) == len(breaks) - 1")
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("breaks must be strictly increasing")

    def _eval(x, breaks=breaks, values=values):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(breaks, x, side="right") - 1
        inside = (idx >= 0) & (idx < len(values))
        return np.where(inside, values[np.clip(idx, 0, len(values) - 1)], 0.0)

    support = window(
        *(
            (breaks[i], breaks[i + 1])
            for i in range(len(values))
            if values[i] != 0.0
        )
    )
    return TestFunction(
        eval=_eval,
        support=support,
        sup_bound=float(np.max(np.abs(values))) if len(values) else 0.0,
        breakpoints=tuple(float(b) for b in breaks),
    )


def triangular_bump(center: float, halfwidth: float, height: float = 1.0) -> TestFunction:
    """Tent function peaking at ``center`` and vanishing at distance halfwidth."""
    _finite("triangular_bump", center=center, halfwidth=halfwidth, height=height)
    if not halfwidth > 0:
        raise ValueError("need halfwidth > 0")

    def _eval(x, c=float(center), h=float(halfwidth), a=float(height)):
        x = np.asarray(x, dtype=float)
        return a * np.maximum(0.0, 1.0 - np.abs(x - c) / h)

    return TestFunction(
        eval=_eval,
        support=window((center - halfwidth, center + halfwidth)),
        sup_bound=abs(height),
        breakpoints=(center - halfwidth, float(center), center + halfwidth),
    )


def simple_to_test(f: SimpleFunction) -> TestFunction:
    """Lay the atoms of ``f`` out as consecutive intervals on the line.

    Atom i occupies an interval of length m_i at value v_i, starting at 0
    with gaps of 0.5 between atoms; any such layout realizes the same law
    of the stochastic integral.
    """
    if not f.atoms:
        return TestFunction(eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                            support=Window(), sup_bound=0.0)
    breaks, values = [], []
    x = 0.0
    for v, m in f.atoms:
        breaks += [x, x + m]
        values += [v, 0.0]
        x += m + 0.5
    return piecewise_constant(breaks, values[:-1])


def piecewise_to_simple(f: TestFunction) -> SimpleFunction:
    """Exact atom representation of a piecewise-constant TestFunction,
    with atoms merged by value and sorted.

    The cells are the support intervals refined by the declared breakpoints.
    Constancy on each cell is spot-checked at three interior points, the
    points np.linspace(a, b, 5)[1:-1], all cells' in one ``eval`` call; a
    non-constant cell, or breakpoints declared incomplete, raise ValueError.
    """
    if f.l1_tail_bound or f.l2_tail_bound:
        raise ValueError("tail-bounded functions have no exact atom form")
    if not f.breakpoints_complete:
        raise ValueError("the breakpoints are incomplete, so the cells are unknown")
    cells = []
    for lo, hi in f.support.intervals:
        cuts = sorted({lo, hi, *(b for b in f.breakpoints if lo < b < hi)})
        cells += zip(cuts, cuts[1:])
    if not cells:
        return SimpleFunction()
    a, b = np.array(cells).T
    # np.linspace's arithmetic: start + j * ((stop - start) / 4)
    probes = np.arange(1.0, 4.0) * ((b - a) / 4.0)[:, None] + a[:, None]
    vals = np.asarray(f.eval(probes.ravel()), dtype=float).reshape(probes.shape)
    bad = np.flatnonzero((vals != vals[:, :1]).any(axis=1))
    if bad.size:
        lo, hi = cells[bad[0]]
        raise ValueError(f"cell ({lo}, {hi}) is not constant")
    atoms: dict[float, float] = {}
    for v, (lo, hi) in zip(vals[:, 0].tolist(), cells):
        if v != 0.0:
            atoms[v] = atoms.get(v, 0.0) + (hi - lo)
    return SimpleFunction(tuple(sorted(atoms.items())))


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (G7/K15 pair)

# 15 Kronrod nodes on [-1, 1] with Kronrod weights; the embedded Gauss-7
# weights are zero at the Kronrod-only nodes.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.000000000000000, 0.207784955007898,
    0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk_nodes(mid: np.ndarray, half) -> np.ndarray:
    """The (segments, 15) Kronrod nodes of the segments mid +- half."""
    return mid[:, None] + np.multiply.outer(half, _GK_NODES)


def _gk_reduce(y: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """K15 values and |K15 - G7| error estimates from the (segments, 15)
    integrand values ``y`` at the nodes of segments of half-width ``half``.

    Each row is reduced alone, by one length-15 dot per weight set, so a
    segment's bits do not depend on the other rows of ``y``, on how many
    there are, or on the BLAS threads."""
    k15 = np.vecdot(y, _K15_WEIGHTS) * half
    g7 = np.vecdot(y, _G7_WEIGHTS) * half
    return k15, np.abs(k15 - g7)


def _gk_batch(func, mid: np.ndarray, half) -> tuple[np.ndarray, np.ndarray]:
    """K15 values and |K15 - G7| error estimates for the segments mid +- half,
    one half-width per segment.

    |K15 - G7| is a heuristic estimate of the K15 error, not a proven
    bound; it is kept pessimistic rather than applying the usual
    (200 d)^1.5 sharpening.

    A segment's value and error are bit for bit those of a one-segment
    call: ``func`` is pointwise (see TestFunction) and ``_gk_reduce``
    reduces each row alone, so segments may be batched in any grouping.
    """
    x = _gk_nodes(mid, half)
    y = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    return _gk_reduce(y, half)


def _first_segments(f: TestFunction, w: Window) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) ends of ``integrate``'s first-pass segments of f over w:
    the intervals of w cut at the declared breakpoints of f and the ends of
    its support intervals."""
    forced = list(f.breakpoints)
    for lo, hi in f.support.intervals:
        forced += [lo, hi]
    pts = sorted(set(float(p) for p in forced))
    los, his = [], []
    for lo, hi in w.intervals:
        cuts = [lo] + [p for p in pts if lo < p < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            los.append(a)
            his.append(b)
    return np.array(los), np.array(his)


def integrate(
    f: TestFunction,
    w: Window | None = None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-9,
    max_segments: int = 20000,
) -> tuple[float, float]:
    """Adaptive quadrature of transform(f(x)) over ``w``; returns (value, err).

    Declared breakpoints of ``f`` and the endpoints of its support intervals
    are forced subdivision points.  ``err`` sums the per-segment |K15 - G7|
    error estimates; the worst segments are bisected until it is <= tol.
    If the segment budget runs out first, the returned err exceeds tol
    (never silent).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if w is None:
        w = f.support
    if not w:
        return 0.0, 0.0

    if transform is None:
        func = lambda x: np.asarray(f.eval(x), dtype=float)
    else:
        func = lambda x: np.asarray(transform(np.asarray(f.eval(x), dtype=float)), dtype=float)

    los, his = _first_segments(f, w)
    if len(los) == 0:
        return 0.0, 0.0

    vals, errs = _gk_batch(func, 0.5 * (his + los), 0.5 * (his - los))
    err = float(errs.sum())
    if err <= tol:
        # a finite err needs every segment's value finite: one pass was enough
        return float(vals.sum()), err
    while err > tol and len(errs) < max_segments:
        # bisect, in one batched evaluation, the largest estimates: at most an
        # eighth of the segments, those above tol / (2N), else the largest one
        top = np.argsort(errs)[-max(1, len(errs) // 8):]
        split = np.zeros(len(errs), dtype=bool)
        split[top[errs[top] > tol / (2 * len(errs))]] = True
        split[top[-1]] = True
        mids = 0.5 * (los[split] + his[split])
        new_lo = np.concatenate((los[split], mids))
        new_hi = np.concatenate((mids, his[split]))
        nv, ne = _gk_batch(func, 0.5 * (new_hi + new_lo), 0.5 * (new_hi - new_lo))
        keep = ~split
        los, his = np.concatenate((los[keep], new_lo)), np.concatenate((his[keep], new_hi))
        vals, errs = np.concatenate((vals[keep], nv)), np.concatenate((errs[keep], ne))
        err = float(errs.sum())
    return float(vals.sum()), err


def integral(f: TestFunction | SimpleFunction,
             transform: Callable[[np.ndarray], np.ndarray], tol: float) -> tuple[float, float]:
    """(value, err) for integral transform(f) dmu: the exact atom sum
    transform(v) @ m with err 0.0 on a SimpleFunction (``tol`` is ignored),
    ``integrate`` on a TestFunction."""
    if isinstance(f, SimpleFunction):
        v, m = f.values_masses()
        return float(transform(v) @ m), 0.0
    return integrate(f, transform=transform, tol=tol)


def function_moments(f: TestFunction | SimpleFunction,
                     tol: float = 1e-9) -> tuple[Moments, float]:
    """(l1, l2sq) of f: exact on a SimpleFunction, by quadrature
    over the support of a TestFunction.

    Declared tail bounds are added to l1 (and l2sq via the square of the L2
    tail); the second return value is the summed quadrature error estimate
    (0.0 on atoms).  A moment beyond the float range is inf, without a warning.
    """
    if isinstance(f, SimpleFunction):
        return simple_moments(f), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        l1, e1 = integrate(f, transform=np.abs, tol=tol)
        l2sq, e2 = integrate(f, transform=np.square, tol=tol)
    return Moments(l1 + f.l1_tail_bound, l2sq + f.l2_tail_bound**2), e1 + e2
