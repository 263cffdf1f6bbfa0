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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import TestFunction, Window, integrate, window, window_translate

__all__ = [
    "DynamicalSystem",
    "CIRCLE_OFFSET",
    "GOLDEN",
    "TRANSFER_TAIL_TOL",
    "make_translation",
    "make_boole",
    "make_composite",
    "circle_indicator",
    "birkhoff",
    "transfer_apply",
]

CIRCLE_OFFSET = float(2 ** 20)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_BOOLE_DEPTH_LIMIT = 14
# mass a transfer window may miss before its deficit becomes the L1 tail bound
TRANSFER_TAIL_TOL = 1e-4


@dataclass(frozen=True)
class DynamicalSystem:
    """A measure-preserving map with explicit inverse branches.

    ``branches`` maps a float array x to one (y, jac) pair of arrays per
    branch of T^{-1}: T(y) = x and jac = 1/|T'(y)|, the jacs summing to 1
    wherever defined.  It computes every branch in one pass.  Callers go
    through ``preimages``, which also takes scalars.
    ``backward_inflate(w, n)`` returns a window containing every T^{-k}(w)
    for k <= n.  ``singularities`` are points where the forward map is
    undefined or discontinuous, used as forced quadrature splits.
    """

    kind: str
    params: tuple[float, ...]
    forward: Callable[[np.ndarray], np.ndarray]
    branches: Callable[[np.ndarray], tuple[tuple[np.ndarray, np.ndarray], ...]]
    backward_inflate: Callable[[Window, int], Window]
    singularities: tuple[float, ...] = ()

    def preimages(self, x):
        """The points y with T(y) = x, each with 1/|T'(y)|, one pair per
        branch: arrays for array x, plain floats for scalar x."""
        if np.ndim(x) == 0:
            return tuple((float(y[0]), float(j[0]))
                         for y, j in self.branches(np.array([float(x)])))
        return self.branches(np.asarray(x, dtype=float))


def make_translation(step: float = 1.0) -> DynamicalSystem:
    """T(x) = x + step on the line; invertible, no finite invariant piece."""
    step = float(step)
    if step == 0.0:
        raise ValueError("step must be nonzero; for the identity use make_composite")

    def fwd(x):
        return np.asarray(x, dtype=float) + step

    def branches(x):
        return ((x - step, np.ones(x.shape)),)

    def inflate(w: Window, n: int) -> Window:
        pieces = []
        for k in range(int(n) + 1):
            pieces.extend(window_translate(w, -k * step).intervals)
        return window(*pieces)

    return DynamicalSystem(
        kind="translation",
        params=(step,),
        forward=fwd,
        branches=branches,
        backward_inflate=inflate,
    )


def make_boole() -> DynamicalSystem:
    """T(x) = x - 1/x, Lebesgue preserving with two preimage branches.

    The branches are y+- = (x +- sqrt(x^2 + 4)) / 2 with inverse Jacobian
    1 / (1 + 1/y^2).  One pass computes y+ once, in a cancellation-free
    form for either sign of x, derives y- = -1/y+ from y+ y- = -1, and
    takes each Jacobian from the y it belongs to.  T(0) is undefined and
    reported as NaN.
    """

    def fwd(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x == 0.0, np.nan, x - 1.0 / np.where(x == 0.0, 1.0, x))
        return out

    def _jac(y):
        yy = y * y
        return yy / (1.0 + yy)

    def _y_plus(x):
        # its own scope, so d is freed before the four outputs are built
        d = np.sqrt(x * x + 4.0)
        return np.where(x >= 0.0, 0.5 * (x + d), 2.0 / (d - x))

    def branches(x):
        y_plus = _y_plus(x)
        y_minus = -1.0 / y_plus
        return ((y_plus, _jac(y_plus)), (y_minus, _jac(y_minus)))

    def inflate(w: Window, n: int) -> Window:
        if not w:
            return w
        m = max(max(abs(lo), abs(hi)) for lo, hi in w.intervals)
        r = m + int(n) + 1
        return window((-r, r))

    return DynamicalSystem(
        kind="boole",
        params=(),
        forward=fwd,
        branches=branches,
        backward_inflate=inflate,
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
    length = float(circumference)
    if length <= 0:
        raise ValueError("circumference must be positive")
    angle = float(angle)
    step = float(step)
    c0 = CIRCLE_OFFSET
    c1 = c0 + length

    def _in_circle(x):
        return (x >= c0) & (x < c1)

    def _line_shift(x, delta):
        # collapse the circle segment out of the line, shift, re-insert
        u = np.where(x >= c1, x - length, x)
        u = u + delta
        return np.where(u >= c0, u + length, u)

    def fwd(x):
        x = np.asarray(x, dtype=float)
        rotated = c0 + np.mod(x - c0 + angle, length)
        return np.where(_in_circle(x), rotated, _line_shift(x, step))

    def branches(x):
        rotated = c0 + np.mod(x - c0 - angle, length)
        return ((np.where(_in_circle(x), rotated, _line_shift(x, -step)),
                 np.ones(x.shape)),)

    def inflate(w: Window, n: int) -> Window:
        pieces = []
        for lo, hi in w.intervals:
            mid = 0.5 * (lo + hi)
            if c0 <= mid < c1:
                pieces.append((c0, c1))
            else:
                for k in range(int(n) + 1):
                    pieces.append((lo - k * step, hi - k * step))
        return window(*pieces)

    wrap = c0 + math.fmod(length - math.fmod(angle, length) + length, length)
    return DynamicalSystem(
        kind="composite",
        params=(length, angle, step),
        forward=fwd,
        branches=branches,
        backward_inflate=inflate,
        singularities=(c0, wrap, c1),
    )


def circle_indicator(sys: DynamicalSystem, scale: float = 1.0) -> TestFunction:
    """Indicator of the invariant circle of a composite system."""
    if sys is None or sys.kind != "composite":
        raise ValueError("circle_indicator needs a composite system")
    length = sys.params[0]
    c0, c1 = CIRCLE_OFFSET, CIRCLE_OFFSET + length

    def _eval(x, c0=c0, c1=c1, s=float(scale)):
        x = np.asarray(x, dtype=float)
        return np.where((x >= c0) & (x < c1), s, 0.0)

    return TestFunction(
        eval=_eval,
        support=window((c0, c1)),
        sup_bound=abs(float(scale)),
        breakpoints=(c0, c1),
    )


# ---------------------------------------------------------------------------
# Birkhoff averages

def _pullback_breakpoints(sys: DynamicalSystem, pts, depth: int) -> tuple[float, ...] | None:
    """All branch preimages of ``pts`` down to ``depth``; None when the
    branch tree exceeds 20000 points."""
    level = np.asarray(pts, dtype=float)
    out = set(level.tolist())
    for _ in range(int(depth)):
        level = np.concatenate([y[np.isfinite(y)] for y, _ in sys.preimages(level)])
        if len(out) + level.size > 20000:
            return None
        out.update(level.tolist())
    return tuple(sorted(out))


def birkhoff(f: TestFunction, sys: DynamicalSystem, n: int,
             subsequence=None) -> TestFunction:
    """The depth-n Birkhoff average (1/n) sum_k f(T^{p_k} x) as a
    TestFunction.  The exponents p_k are (1, ..., n) by default; a strictly
    increasing ``subsequence`` of n exponents gives subsequence averages."""
    n = int(n)
    if n < 1:
        raise ValueError("depth must be >= 1")
    if subsequence is not None:
        powers = tuple(int(p) for p in subsequence)
        if len(powers) != n or any(b <= a for a, b in zip(powers, powers[1:])) or powers[0] < 1:
            raise ValueError("subsequence must be strictly increasing, length n, min >= 1")
    else:
        powers = tuple(range(1, n + 1))
    kmax = powers[-1]
    wanted = frozenset(powers)

    def _eval(x, f=f, fwd=sys.forward, wanted=wanted, kmax=kmax, count=len(powers)):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape)
        cur = x
        for k in range(1, kmax + 1):
            cur = np.asarray(fwd(cur), dtype=float)
            if k in wanted:
                vals = np.asarray(f.eval(cur), dtype=float)
                acc += np.where(np.isnan(vals), 0.0, vals)
        return acc / count

    bps = _pullback_breakpoints(sys, f.breakpoints, kmax)
    return TestFunction(
        eval=_eval,
        support=sys.backward_inflate(f.support, kmax),
        sup_bound=f.sup_bound,
        l1_tail_bound=f.l1_tail_bound,
        l2_tail_bound=f.l2_tail_bound,
        breakpoints=bps if bps is not None else (),
    )


# ---------------------------------------------------------------------------
# Transfer operator

def _branch_sum(f_eval, sys: DynamicalSystem, n: int):
    """Closure evaluating sum over depth-n preimage branches of
    f(y) * prod(inverse Jacobians).  The traversal is depth first: the
    stack holds at most one pending sibling per level, so memory grows
    with n, not with the 2^n leaves."""
    preimages = sys.preimages

    def _eval(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        out = np.zeros(flat.shape)
        stack = [(0, flat, np.ones(flat.shape))]
        while stack:
            level, y, wgt = stack.pop()
            if level == n:
                vals = np.asarray(f_eval(y), dtype=float)
                out += wgt * np.where(np.isnan(vals), 0.0, vals)
                continue
            for y2, jac in preimages(y):
                stack.append((level + 1, y2, wgt * jac))
        return out.reshape(x.shape)

    return _eval


def _forward_orbit(sys: DynamicalSystem, pts, n: int) -> tuple[float, ...]:
    out = set()
    for p in pts:
        y = float(p)
        for _ in range(int(n)):
            y = float(np.asarray(sys.forward(np.array([y])))[0])
            if not math.isfinite(y):
                break
            out.add(y)
    return tuple(sorted(out))


def _forward_window(sys: DynamicalSystem, w: Window, n: int) -> Window:
    """A window containing the n-step forward image of w (invertible kinds)."""
    if sys.kind == "translation":
        return window_translate(w, n * sys.params[0])
    length, _, step = sys.params
    c0, c1 = CIRCLE_OFFSET, CIRCLE_OFFSET + length
    pieces = []
    for lo, hi in w.intervals:
        mid = 0.5 * (lo + hi)
        if c0 <= mid < c1:
            pieces.append((c0, c1))
        else:
            # shift in collapsed line coordinates, then split at the segment
            u_lo = (lo - length if lo >= c1 else lo) + n * step
            u_hi = (hi - length if hi >= c1 else hi) + n * step
            if u_hi <= c0:
                pieces.append((u_lo, u_hi))
            elif u_lo >= c0:
                pieces.append((u_lo + length, u_hi + length))
            else:
                pieces.append((u_lo, c0))
                pieces.append((c1, u_hi + length))
    return window(*pieces)


def transfer_apply(f: TestFunction, sys: DynamicalSystem, n: int,
                   tail_tol: float = TRANSFER_TAIL_TOL) -> TestFunction:
    """T-hat^n f: the Jacobian-weighted sum of f over depth-n preimages.

    For the two-branch Boole map the support of the image is unbounded, so
    a finite window is grown until the mass it misses, measured through the
    conservation identity int T-hat^n |f| = int |f|, is below ``tail_tol``;
    the remaining deficit is declared as the L1 tail bound.
    """
    n = int(n)
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n == 0:
        return f
    two_branch = len(sys.preimages(0.0)) > 1
    if two_branch and n > _BOOLE_DEPTH_LIMIT:
        raise ValueError(f"transfer depth is limited to {_BOOLE_DEPTH_LIMIT} "
                         "for two-branch systems")

    signed_eval = _branch_sum(f.eval, sys, n)
    orbit = _forward_orbit(sys, f.breakpoints, n)

    if not two_branch:
        return TestFunction(
            eval=signed_eval,
            support=_forward_window(sys, f.support, n),
            sup_bound=f.sup_bound,
            l1_tail_bound=f.l1_tail_bound,
            l2_tail_bound=f.l2_tail_bound,
            breakpoints=tuple(sorted(set(orbit) | set(sys.singularities))),
        )

    if f.sup_bound is None:
        raise ValueError("transfer over a branching system needs f.sup_bound")
    if f.l1_tail_bound or f.l2_tail_bound:
        raise ValueError("transfer needs a compactly supported f (no declared tails)")

    def abs_eval(x, f=f):
        return np.abs(np.asarray(f.eval(x), dtype=float))

    branch_abs = _branch_sum(abs_eval, sys, n)
    total_mass, mass_err = integrate(f, f.support, transform=np.abs, tol=1e-10)

    hull = max(max(abs(lo), abs(hi)) for lo, hi in f.support.intervals)
    radius = hull + n + 1.0
    deficit = math.inf
    w = window((-radius, radius))
    q_tol = max(1e-9, 0.02 * tail_tol)
    for _ in range(24):
        w = window((-radius, radius))
        probe = TestFunction(eval=branch_abs, support=w,
                             breakpoints=tuple(b for b in orbit if -radius < b < radius))
        mass_in, q_err = integrate(probe, w, tol=q_tol)
        deficit = max(0.0, total_mass + mass_err - mass_in + q_err)
        if deficit <= tail_tol:
            break
        # the missing mass falls off like c / radius: jump toward the target
        radius = max(radius * 1.6, 1.3 * deficit * radius / tail_tol)
    else:
        warnings.warn(f"transfer window stopped at deficit {deficit:g} > {tail_tol:g}")

    return TestFunction(
        eval=signed_eval,
        support=w,
        sup_bound=f.sup_bound,
        l1_tail_bound=deficit,
        l2_tail_bound=math.sqrt(deficit * f.sup_bound),
        breakpoints=tuple(sorted({b for b in orbit if -radius < b < radius}
                                 | set(sys.singularities))),
    )
