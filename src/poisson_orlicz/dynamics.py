"""Lebesgue-measure-preserving maps of the line with exact preimage
structure, Birkhoff averaging, and pointwise transfer-operator application.

Three example systems:

* translation by a fixed step (totally dissipative, invertible);
* the Boole map T(x) = x - 1/x (conservative, two preimage branches);
* a composite: an invariant circle of finite measure glued to a translated
  line, realizing a system with a finite invariant piece.

The circle is encoded as a tagged unit-length segment placed at a large
power-of-two offset, so one real-valued evaluation signature serves both
parts and coordinates subtract exactly.  The translated part skips over the
segment, so the two parts never exchange points.

Each system gives its inverse branches through one array-only interface,
``preimages``: one (y, 1/|T'(y)|) pair of arrays per branch.

Each system maps windows as well as points: ``image(w, k)`` is a window
containing T^k(w) for an integer k, the union over all preimage branches
when k < 0.  The Boole map refuses k > 0, since the forward image of a
window around 0 is unbounded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .measure import (
    TestFunction,
    Window,
    _cells,
    _finite,
    integrate,
    window,
    window_intersect,
    window_translate,
)

__all__ = [
    "DynamicalSystem",
    "CIRCLE_OFFSET",
    "GOLDEN",
    "TRANSFER_TAIL_TOL",
    "PULLBACK_CAP",
    "make_translation",
    "make_boole",
    "make_composite",
    "circle_indicator",
    "birkhoff",
    "transfer_apply",
    "sampling_window",
]

CIRCLE_OFFSET = float(2 ** 20)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# mass a transfer window may miss before its deficit becomes the L1 tail bound
TRANSFER_TAIL_TOL = 1e-4
# the Monte Carlo norms of a branching transfer iterate T-hat^n f sample its
# grown window only within _MC_RADIUS + n of 0 (``sampling_window``)
_MC_RADIUS = 50.0


@dataclass(frozen=True)
class DynamicalSystem:
    """A measure-preserving map with explicit inverse branches.

    ``forward`` maps a float array to T of each point, and is pointwise:
    its value at x depends on x alone, so mapping any slice of an array
    gives the same bits as slicing the mapped array (a Birkhoff average
    evaluated in blocks has the bits of one call).
    ``preimages`` maps a float array x to one (y, jac) pair of arrays per
    branch of T^{-1}: T(y) = x and jac = 1/|T'(y)|, the jacs summing to 1
    wherever defined.  It computes every branch in one pass, and it takes
    arrays only: the number of branches is the length of what it returns
    for a one-element array.
    ``image(w, k)`` returns a window containing T^k(w) for an integer k;
    for k < 0 that is the preimage T^{-|k|}(w) over every branch.  The
    Boole map raises ValueError for k > 0: the forward image of a window
    around 0 is unbounded.  ``singularities`` are points where the forward
    map is undefined or discontinuous, used as forced quadrature splits.
    """

    kind: str
    params: tuple[float, ...]
    forward: Callable[[np.ndarray], np.ndarray]
    preimages: Callable[[np.ndarray], tuple[tuple[np.ndarray, np.ndarray], ...]]
    image: Callable[[Window, int], Window]
    singularities: tuple[float, ...] = ()


def make_translation(step: float = 1.0) -> DynamicalSystem:
    """T(x) = x + step on the line; invertible, no finite invariant piece."""
    step = float(step)
    _finite("translation", step=step)
    if step == 0.0:
        raise ValueError("step must be nonzero; for the identity use make_composite")

    def fwd(x):
        return np.asarray(x, dtype=float) + step

    def preimages(x):
        return ((x - step, np.ones(x.shape)),)

    def image(w: Window, k: int) -> Window:
        return window_translate(w, k * step)

    return DynamicalSystem(
        kind="translation",
        params=(step,),
        forward=fwd,
        preimages=preimages,
        image=image,
    )


def make_boole() -> DynamicalSystem:
    """T(x) = x - 1/x, Lebesgue preserving with two preimage branches.

    The branches are y+- = (x +- sqrt(x^2 + 4)) / 2 with inverse Jacobian
    1 / (1 + 1/y^2).  One pass computes s = |x|/2 + hypot(x, 2)/2 >= 1, the
    preimage on x's side up to sign, free of cancellation and overflow; the
    other is -1/(+-s), as y+ y- = -1.  Each Jacobian is taken from the y it
    belongs to.  T(0) is undefined and reported as NaN.
    """

    def fwd(x):
        x = np.asarray(x, dtype=float)
        # T(x) of a subnormal x is beyond the float range: -+inf, no warning
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(x == 0.0, np.nan, x - 1.0 / np.where(x == 0.0, 1.0, x))
        return out

    def _jac(y):
        # y^2 / (1 + y^2) is 1.0 in floats from |y| of about 1.3e8 on, so
        # capping |y| at 1e154, where y^2 would overflow, changes no value
        yy = np.square(np.minimum(np.abs(y), 1e154))
        return yy / (1.0 + yy)

    def preimages(x):
        s = 0.5 * np.hypot(x, 2.0) + 0.5 * np.abs(x)
        pos = x >= 0.0
        y_plus = np.where(pos, s, 1.0 / s)
        y_minus = np.where(pos, -1.0 / s, -s)
        return ((y_plus, _jac(y_plus)), (y_minus, _jac(y_minus)))

    def image(w: Window, k: int) -> Window:
        # each preimage step moves a point at most 1 farther from 0
        if k > 0:
            raise ValueError("the Boole map's forward image of a window is unbounded")
        if not w:
            return w
        m = max(max(abs(lo), abs(hi)) for lo, hi in w.intervals)
        r = m + abs(int(k)) + 1
        return window((-r, r))

    return DynamicalSystem(
        kind="boole",
        params=(),
        forward=fwd,
        preimages=preimages,
        image=image,
        singularities=(0.0,),
    )


def make_composite(circumference: float = 1.0, angle: float = GOLDEN,
                   step: float = 1.0) -> DynamicalSystem:
    """Rotation on a finite circle glued to a translation on the line.

    The circle occupies [CIRCLE_OFFSET, CIRCLE_OFFSET + circumference); the
    line is everything else, translated by ``step`` with the segment skipped
    (positions are shifted through it), so both parts are invariant.  With
    step = 0 and angle = 0 this is the identity map.
    """
    length, angle, step = float(circumference), float(angle), float(step)
    _finite("composite", circumference=length, angle=angle, step=step)
    if length <= 0:
        raise ValueError("circumference must be positive")
    c0 = CIRCLE_OFFSET
    c1 = c0 + length

    def _in_circle(x):
        return (x >= c0) & (x < c1)

    def _line_shift(x, delta):
        # collapse the circle segment out of the line, shift, re-insert
        u = np.where(x >= c1, x - length, x)
        u = u + delta
        return np.where(u >= c0, u + length, u)

    last = np.nextafter(c1, c0)  # the circle's last float

    def _rotate(x, by):
        # np.mod can round up to length, and c0 + r up to c1, a line point:
        # the clamp keeps the circle invariant in floats
        return np.minimum(c0 + np.mod(x - c0 + by, length), last)

    def fwd(x):
        # the line shift, then the rotation of only the points on the circle:
        # np.mod of a non-finite point would warn
        x = np.asarray(x, dtype=float)
        on = _in_circle(x)
        out = _line_shift(x, step)
        out[on] = _rotate(x[on], angle)
        return out

    def preimages(x):
        rotated = _rotate(x, -angle)
        return ((np.where(_in_circle(x), rotated, _line_shift(x, -step)),
                 np.ones(x.shape)),)

    def image(w: Window, k: int) -> Window:
        d = k * step
        pieces = []
        for lo, hi in w.intervals:
            if lo < c1 and hi > c0:
                pieces.append((c0, c1))
            # the line pieces below (off 0) and above (off length) the
            # circle shift by d in collapsed coordinates x - off, then split
            # where they meet the segment
            for a, b, off in ((lo, min(hi, c0), 0.0), (max(lo, c1), hi, length)):
                if b > a:
                    a, b = a + d, b + d
                    pieces += [(a - off, min(b - off, c0)),
                               (max(a, c0 + off) + (length - off), b + (length - off))]
        return window(*pieces)

    wrap = c0 + math.fmod(length - math.fmod(angle, length) + length, length)
    return DynamicalSystem(
        kind="composite",
        params=(length, angle, step),
        forward=fwd,
        preimages=preimages,
        image=image,
        singularities=(c0, wrap, c1),
    )


def circle_indicator(sys: DynamicalSystem, scale: float = 1.0) -> TestFunction:
    """Indicator of the invariant circle of a composite system."""
    if sys is None or sys.kind != "composite":
        raise ValueError("circle_indicator needs a composite system")
    _finite("circle_indicator", scale=scale)
    length = sys.params[0]
    c0, c1 = CIRCLE_OFFSET, CIRCLE_OFFSET + length

    def _eval(x, c0=c0, c1=c1, s=float(scale)):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        np.copyto(out, s, where=(x >= c0) & (x < c1))
        return out

    return TestFunction(
        eval=_eval,
        support=window((c0, c1)),
        sup_bound=abs(float(scale)),
        breakpoints=(c0, c1),
    )


# ---------------------------------------------------------------------------
# Birkhoff averages

# the branch preimages a Birkhoff average lists as its breakpoints on a
# branching system, where their number doubles with each level
PULLBACK_CAP = 20000
# the points an average may pull back, (depth + 1) per breakpoint on one
# branch, and the orbit points a transfer iterate follows, (depth + 1) per
# breakpoint or support end; a deeper one is refused before any list is built
_MAX_PULLBACKS = 10 ** 6


def _pullback_breakpoints(sys: DynamicalSystem, pts,
                          depth: int) -> tuple[tuple[float, ...], bool]:
    """All branch preimages of ``pts`` down to ``depth``, sorted, and whether
    that is all of them.  A one-branch system keeps every one, their number
    growing linearly with depth; on a branching system, where it doubles,
    none are listed once the tree passes PULLBACK_CAP points."""
    branching = len(sys.preimages(np.zeros(1))) > 1
    level = np.asarray(pts, dtype=float)
    out = set(level.tolist())
    for _ in range(int(depth)):
        level = np.concatenate([y[np.isfinite(y)] for y, _ in sys.preimages(level)])
        if branching and len(out) + level.size > PULLBACK_CAP:
            return (), False
        out.update(level.tolist())
    return tuple(sorted(out)), True


def birkhoff(f: TestFunction, sys: DynamicalSystem, n: int,
             subsequence=None) -> TestFunction:
    """The depth-n Birkhoff average (1/n) sum_k f(T^{p_k} x) as a
    TestFunction.  The exponents p_k are (1, ..., n) by default; a strictly
    increasing ``subsequence`` of n exponents gives subsequence averages.
    The support is the union of ``sys.image(f.support, -k)`` over
    k = 0..max p_k.

    The average is defined by a dense loop: every point is stepped by
    ``forward`` through every exponent up to K = max p_k, f's value is
    added on each p_k, a NaN counted as 0, and the sum is divided by n.
    Its breakpoints are the pullbacks of f's to depth K
    (``_pullback_breakpoints``), complete when f's are and, on a branching
    system, the tree stays within PULLBACK_CAP.

    An average whose (K + 1) max(1, #breakpoints) pulled-back points exceed
    _MAX_PULLBACKS is refused with ValueError before any per-exponent list is
    built.
    """
    n = int(n)
    if n < 1:
        raise ValueError("depth must be >= 1")
    if subsequence is not None:
        powers = tuple(int(p) for p in subsequence)
        if len(powers) != n or any(b <= a for a, b in zip(powers, powers[1:])) or powers[0] < 1:
            raise ValueError("subsequence must be strictly increasing, length n, min >= 1")
    kmax = n if subsequence is None else powers[-1]
    pullbacks = (kmax + 1) * max(1, len(f.breakpoints))
    if pullbacks > _MAX_PULLBACKS:
        raise ValueError(f"a Birkhoff average to depth {kmax} pulls back {pullbacks} "
                         f"breakpoints, over the limit of {_MAX_PULLBACKS}")
    if subsequence is None:
        powers = tuple(range(1, n + 1))
    wanted = frozenset(powers)
    support = window(*(iv for k in range(kmax + 1)
                       for iv in sys.image(f.support, -k).intervals))

    def _eval(x, f=f, fwd=sys.forward):
        x = np.asarray(x, dtype=float)
        cur = x.ravel()
        acc = np.zeros(cur.size)
        for k in range(1, kmax + 1):
            cur = np.asarray(fwd(cur), dtype=float)
            if k in wanted:
                vals = np.asarray(f.eval(cur), dtype=float)
                acc += np.where(np.isnan(vals), 0.0, vals)
        acc /= n
        return acc.reshape(x.shape)

    bps, complete = _pullback_breakpoints(sys, f.breakpoints, kmax)
    return TestFunction(
        eval=_eval,
        support=support,
        sup_bound=f.sup_bound,
        l1_tail_bound=f.l1_tail_bound,
        l2_tail_bound=f.l2_tail_bound,
        breakpoints=bps,
        breakpoints_complete=complete and f.breakpoints_complete,
    )


# ---------------------------------------------------------------------------
# Transfer operator

def _branch_sum(f_eval, sys: DynamicalSystem, n: int):
    """Closure evaluating f(y) times the product of the inverse Jacobians
    along the way, y the depth-n preimage of x under a one-branch system,
    a NaN value counted as 0."""

    def _eval(x):
        x = np.asarray(x, dtype=float)
        y, wgt = x.ravel(), np.ones(x.size)
        for _ in range(n):
            (y, jac), = sys.preimages(y)
            wgt = wgt * jac
        vals = np.asarray(f_eval(y), dtype=float)
        return (np.zeros(x.size) + wgt * np.where(np.isnan(vals), 0.0, vals)).reshape(x.shape)

    return _eval


def _step(g_eval, sys: DynamicalSystem):
    """Closure evaluating T-hat g: the sum over the preimages y of x of
    g(y) times the inverse Jacobian at y, one call of g taking every
    branch's points, a NaN value counted as 0."""

    def _eval(x):
        x = np.asarray(x, dtype=float)
        pairs = sys.preimages(x.ravel())
        vals = np.asarray(g_eval(np.concatenate([y for y, _ in pairs])), dtype=float)
        vals = np.where(np.isnan(vals), 0.0, vals).reshape(len(pairs), x.size)
        return sum(jac * v for (_, jac), v in zip(pairs, vals)).reshape(x.shape)

    return _eval


def _forward_orbit(sys: DynamicalSystem, pts, n: int) -> tuple[float, ...]:
    """The finite points T^k(p), k = 1..n, over ``pts``, sorted; a point
    that leaves the finite reals stays out of them, so it is dropped."""
    out = set()
    y = np.asarray(pts, dtype=float)
    for _ in range(int(n)):
        y = np.asarray(sys.forward(y), dtype=float)
        y = y[np.isfinite(y)]
        out.update(y.tolist())
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Piecewise Chebyshev interpolants of branching transfer iterates
#
# On a two-branch system T-hat^k f is analytic between the forward orbit of
# f's breakpoints (Boole's branches are analytic on the real line), so a
# degree-16 Chebyshev interpolant per piece stands for it, and each level
# of a ``_Chain`` fits one transfer step of the level before (Trefethen,
# Approximation Theory and Approximation Practice, SIAM 2013, ch. 7-8).

_NODES = 17
_THETA = (np.arange(_NODES) + 0.5) * (math.pi / _NODES)
# first-kind nodes, all inside the piece: a fit never takes a value from the
# far side of a jump at its edge
_FIT_NODES = np.cos(_THETA)
# the interior extrema of T_17, between the nodes, where the interpolation
# error of a smooth function peaks: the fit is checked there
_CHECK_NODES = np.cos(np.arange(1, _NODES) * (math.pi / _NODES))
# row j: the weight of the value at node j in each Chebyshev coefficient
_DCT = (2.0 / _NODES) * np.cos(np.outer(_THETA, np.arange(_NODES)))
_DCT[:, 0] *= 0.5
# row j: T_j at each check node, cos(j i pi / 17)
_AT_CHECK = np.cos(np.outer(np.arange(_NODES), np.arange(1, _NODES)) * (math.pi / _NODES))
# the integral of T_k over [-1, 1]: 2 / (1 - k^2) for even k, 0 for odd k
_T_INTEGRALS = np.array([2.0 / (1 - k * k) if k % 2 == 0 else 0.0 for k in range(_NODES)])
# a piece is fitted when its coefficient tail plus its error at the check
# nodes is at most _FIT_TOL sup|f|, else split; past _MAX_PIECES pieces, or
# below a relative width of _MIN_WIDTH, a piece is left unfitted
_FIT_TOL = 1e-14
_MAX_PIECES = 2048
_MIN_WIDTH = 1e-9


class _Fit(NamedTuple):
    """Pieces [a, b] with Chebyshev coefficients (one row per piece), the
    error estimate of each, and whether it is left unfitted."""
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray
    est: np.ndarray
    fallback: np.ndarray


def _join(fits) -> _Fit:
    return _Fit(*(np.concatenate(parts) for parts in zip(*fits)))


def _clenshaw(coef: np.ndarray, k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coef[j, k] T_j(t) at each point, k its piece and t in [-1, 1]
    its place on the piece, by Clenshaw's recurrence
    b1, b2 = coef[j, k] + 2 t b1 - b2, b1 run in place.  k must lie in
    [0, pieces): the gathers clip, so numpy neither checks bounds nor
    buffers ``out``."""
    t2 = 2.0 * t
    b1, b2 = coef[-1].take(k, mode="clip"), np.zeros(t.shape)
    c, s = np.empty(t.shape), np.empty(t.shape)
    for row in coef[-2:0:-1]:
        row.take(k, out=c, mode="clip")
        np.multiply(t2, b1, out=s)
        s += c
        np.subtract(s, b2, out=b2)
        b1, b2 = b2, b1
    return coef[0].take(k, mode="clip") + t * b1 - b2


def _fit_pass(func, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (one row per piece) of the interpolants of func at the
    fit nodes of each piece [a, b], and each fit's error estimate: the last
    two coefficients plus the largest miss at the check nodes, inf when a
    value is not finite.  One call of func takes every piece's points; the
    products with _DCT and _AT_CHECK run in einsum's own loops, not BLAS,
    whose threads could change the bits."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = np.concatenate([_FIT_NODES, _CHECK_NODES])
    x = mid[:, None] + half[:, None] * t
    v = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.einsum("pj,jk->pk", v[:, :_NODES], _DCT)
        miss = np.abs(np.einsum("pj,jk->pk", coef, _AT_CHECK) - v[:, _NODES:])
        est = np.abs(coef[:, -2]) + np.abs(coef[:, -1]) + miss.max(axis=1)
    return coef, np.where(np.isfinite(est), est, math.inf)


def _split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Split points: geometric on a piece of one sign spanning a ratio
    above 4, so the tails are cut evenly in log |x|; else the midpoint."""
    lo, hi = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    wide = (np.sign(a) == np.sign(b)) & (hi > 4.0 * lo)
    return np.where(wide, np.sign(a) * np.sqrt(lo) * np.sqrt(hi), 0.5 * (a + b))


def _fit_pieces(func, a: np.ndarray, b: np.ndarray, tol: float) -> _Fit:
    """Interpolants of func on the pieces [a, b]: a pass fits every open
    piece in one batched call, and a piece missing ``tol`` is split for the
    next pass.  A piece that cannot be split, or would pass _MAX_PIECES
    pieces, is left unfitted: the interpolant evaluates func there."""
    done = []
    total = a.size
    while a.size:
        coef, est = _fit_pass(func, a, b)
        ok = est <= tol
        if ok.all():
            done.append(_Fit(a, b, coef, est, ~ok))
            break
        mid = _split(a, b)
        can = (~ok & np.isfinite(est) & (a < mid) & (mid < b)
               & (b - a > _MIN_WIDTH * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))
        if total + can.sum() > _MAX_PIECES:
            can[:] = False
        total += int(can.sum())
        keep = ~can
        coef[~ok] = 0.0
        done.append(_Fit(a[keep], b[keep], coef[keep], np.where(ok, est, 0.0)[keep], ~ok[keep]))
        a, b = np.concatenate([a[can], mid[can]]), np.concatenate([mid[can], b[can]])
    return _join(done)


def _interpolant(fit: _Fit, func):
    """The pointwise evaluator of the fitted pieces: the piece by
    searchsorted, its coefficients gathered, then Clenshaw; a point outside
    the pieces, or on one left unfitted, gets ``func``, the function fitted."""
    order = np.argsort(fit.a)
    edges = np.append(fit.a[order], fit.b[order][-1])
    coef = np.ascontiguousarray(fit.coef[order].T)
    mid = 0.5 * (fit.a + fit.b)[order]
    half = 0.5 * (fit.b - fit.a)[order]
    fallback = fit.fallback[order]
    last = order.size - 1

    def _eval(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        k = np.searchsorted(edges, flat, side="right") - 1
        k[flat == edges[-1]] = last
        keep = (k >= 0) & (k <= last)
        np.minimum(np.maximum(k, 0, out=k), last, out=k)
        keep &= ~fallback[k]
        with np.errstate(over="ignore", invalid="ignore"):
            t = (flat - mid.take(k, mode="clip")) / half.take(k, mode="clip")
        np.copyto(t, 0.0, where=~keep)
        out = _clenshaw(coef, k, t)
        if not keep.all():
            out[~keep] = func(flat[~keep])
        return out.reshape(x.shape)

    return _eval


class _Chain:
    """T-hat^k f for k = 1..n on a two-branch system, one preimage step per
    level.  Level k fits T-hat p_{k-1} (``_fit_pieces``), p_{k-1} the
    interpolant of level k-1 and p_0 = f, on [-(r + n - k), r + n - k],
    which holds the preimages of level k+1's window (|y+-(x)| <= |x| + 1).
    It is cut at 0 and at T(e) for every piece edge e of level k-1, f's
    breakpoints and support ends being level 0's: at their forward orbit,
    and at the seams where p_{k-1} may jump by its fit error.  ``grow(r)``
    extends every level to level n's radius r by its new outer pieces and
    returns level n's; ``evals[k]`` is p_k."""

    def __init__(self, f_eval, sys: DynamicalSystem, n: int, edges, tol: float):
        self.sys, self.tol, self.edges, self.radius = sys, tol, np.asarray(edges, dtype=float), 0.0
        self.evals, self.fits = [f_eval] + [None] * n, [[] for _ in range(n)]

    def grow(self, radius: float) -> _Fit:
        old, edges, n = self.radius, self.edges, len(self.fits)
        for k in range(1, n + 1):
            hi, lo = radius + n - k, old + n - k
            seams = np.asarray(self.sys.forward(edges), dtype=float)
            cuts = sorted(set(seams[np.isfinite(seams)].tolist()) | set(self.sys.singularities))
            step = _step(self.evals[k - 1], self.sys)
            pieces = _cells([(-hi, -lo), (lo, hi)] if old else [(-hi, hi)], cuts)
            self.fits[k - 1].append(_fit_pieces(step, *pieces, self.tol))
            fit = _join(self.fits[k - 1])
            self.evals[k], edges = _interpolant(fit, step), np.concatenate([fit.a, fit.b])
        self.radius = radius
        return self.fits[-1][-1]


def _one_signed(f: TestFunction) -> bool:
    """Whether f keeps one sign on 63 points inside each cell between its
    breakpoints and support ends: exact for the piecewise-linear shapes, a
    heuristic for a general f."""
    cells = _cells(f.support.intervals, sorted(f.breakpoints))
    x = cells[0][:, None] + (cells[1] - cells[0])[:, None] * np.linspace(0.0, 1.0, 65)[1:-1]
    v = np.asarray(f.eval(x.ravel()), dtype=float)
    return not ((v > 0).any() and (v < 0).any())


def _mass(fit: _Fit, abs_eval, q_tol: float) -> tuple[list[float], list[float]]:
    """Masses of the pieces of a fit of a function of one sign, and their
    errors: |integral| from the coefficients, with error est * length; a
    piece left unfitted integrates ``abs_eval`` by quadrature."""
    half = 0.5 * (fit.b - fit.a)
    mass = np.abs(half * (fit.coef * _T_INTEGRALS).sum(axis=1)).tolist()
    err = (fit.est * (fit.b - fit.a)).tolist()
    for i in np.flatnonzero(fit.fallback):
        w = window((fit.a[i], fit.b[i]))
        mass[i], err[i] = integrate(TestFunction(eval=abs_eval, support=w), w, tol=q_tol)
    return mass, err


def transfer_apply(f: TestFunction, sys: DynamicalSystem, n: int) -> TestFunction:
    """T-hat^n f: the Jacobian-weighted sum of f over depth-n preimages.

    For the two-branch Boole map the support of the image is unbounded, so
    a finite window is grown until the mass it misses, measured through the
    conservation identity int T-hat^n |f| = int |f|, is below
    TRANSFER_TAIL_TOL, read at call time, times max(1, int |f|); the
    remaining deficit is declared as the L1 tail bound.  The image is built
    level by level, one preimage step each, as a chain of piecewise
    Chebyshev interpolants (``_Chain``); each growth step of the window
    extends every level by its new outer pieces only and reads their mass
    from level n's coefficients.  T-hat^n |f| reuses the chain
    when f has one sign (``_one_signed``) and runs as its own chain otherwise.
    Boole's inverse Jacobians sum to 1, so T-hat does not raise the sup
    norm and the error of level n is at most the sum of the levels' fit
    errors: the sum of their estimates is declared as ``fit_error``.

    An iterate whose (n + 1) max(1, #breakpoints + #support ends) orbit
    points exceed _MAX_PULLBACKS is refused before the orbit is built.
    """
    n = int(n)
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n == 0:
        return f
    edges = list(f.breakpoints) + [e for iv in f.support.intervals for e in iv]
    followed = (n + 1) * max(1, len(edges))
    if followed > _MAX_PULLBACKS:
        raise ValueError(f"a transfer iterate to depth {n} follows {followed} orbit "
                         f"points, over the limit of {_MAX_PULLBACKS}")
    orbit = _forward_orbit(sys, edges, n)

    if len(sys.preimages(np.zeros(1))) == 1:
        return TestFunction(
            eval=_branch_sum(f.eval, sys, n),
            support=sys.image(f.support, n),
            sup_bound=f.sup_bound,
            l1_tail_bound=f.l1_tail_bound,
            l2_tail_bound=f.l2_tail_bound,
            breakpoints=tuple(sorted(set(orbit) | set(sys.singularities))),
            breakpoints_complete=f.breakpoints_complete,
        )

    if f.sup_bound is None:
        raise ValueError("transfer over a branching system needs f.sup_bound")
    if f.l1_tail_bound or f.l2_tail_bound:
        raise ValueError("transfer needs a compactly supported f (no declared tails)")

    tol = _FIT_TOL * f.sup_bound
    chain = _Chain(f.eval, sys, n, edges, tol)
    # T-hat^n |f| is |T-hat^n f| when f has one sign, so the signed chain serves
    abs_chain = chain if _one_signed(f) else _Chain(
        lambda x: np.abs(np.asarray(f.eval(x), dtype=float)), sys, n, edges, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        total_mass, mass_err = integrate(f, f.support, transform=np.abs, tol=1e-10)
    # the window's tolerances are relative to the mass once it exceeds 1
    unit = max(1.0, total_mass)
    target, q_tol = TRANSFER_TAIL_TOL * unit, max(1e-9, 0.02 * TRANSFER_TAIL_TOL) * unit
    hull = max(max(abs(lo), abs(hi)) for lo, hi in f.support.intervals)
    radius = hull + n + 1.0
    masses, errs = [], []
    for attempt in range(24):
        new = chain.grow(radius)
        if abs_chain is not chain:
            new = abs_chain.grow(radius)
        m, e = _mass(new, lambda x: np.abs(abs_chain.evals[-1](x)), q_tol)
        masses += m
        errs += e
        deficit = total_mass + mass_err - math.fsum(masses) + math.fsum(errs)
        if not math.isfinite(deficit):
            # an overflow in a quadrature or a fit: max(0.0, nan) would pass as 0
            raise ValueError(
                f"transfer: the missed mass is {deficit!r}; a mass or a step on the way "
                f"is beyond the float range (largest float {float(np.finfo(float).max)!r})")
        deficit = max(0.0, deficit)
        if deficit <= target:
            break
        if attempt == 23:
            warnings.warn(f"transfer window stopped at deficit {deficit:g} > {target:g}")
            break
        # the missing mass falls off like c / radius: jump toward the target
        radius = max(radius * 1.6, 1.3 * deficit * radius / target)

    return TestFunction(
        eval=chain.evals[-1],
        support=window((-radius, radius)),
        sup_bound=f.sup_bound,
        l1_tail_bound=deficit,
        l2_tail_bound=math.sqrt(deficit * f.sup_bound),
        breakpoints=tuple(sorted({b for b in orbit if -radius < b < radius}
                                 | set(sys.singularities))),
        breakpoints_complete=f.breakpoints_complete,
        fit_error=math.fsum(max(float(fit.est.max()) for fit in level) for level in chain.fits),
    )


def sampling_window(g: TestFunction, sys: DynamicalSystem, n: int) -> Window:
    """Where the Monte Carlo norms of g = T-hat^n f sample: on a branching
    system, the part of g's grown window within _MC_RADIUS + n of 0, the
    truncation bound covering the rest; on any other system, g's support."""
    if len(sys.preimages(np.zeros(1))) == 1:
        return g.support
    r = _MC_RADIUS + n
    return window_intersect(g.support, window((-r, r)))
