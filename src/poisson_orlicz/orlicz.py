"""The fixed Young pair (Phi, Psi), the modular, the gauge (Luxemburg) norm,
and two Orlicz-norm evaluators.

Phi(x) = x^2 for x <= 1 and 2x - 1 for x > 1 (kink at 1, Delta_2-regular).
Psi(y) = y^2 for y <= 2 and +inf beyond (kink at 2).

Two Orlicz norms are shipped on purpose.  The duality form

    ||f||_Phi = sup{ integral |f g| dmu : N_Psi(g) <= 1 },
    N_Psi(g)  = max(||g||_2, ||g||_inf / 2),

is the primary evaluator; the constraint set is {0 <= g <= 2, ||g||_2 <= 1}
and the maximizer is g = min(2, |f| / (2 theta)) with theta fixed by the L2
constraint.  The canonical Amemiya form

    inf_{k>0} (1 + modular(k f)) / k

is an independent cross-check; Psi above is *not* the Legendre conjugate of
Phi (that would be y^2/4 on [0, 2]), so the two evaluators may disagree by a
bounded factor, and the gap is surfaced rather than hidden.

Each evaluator is written once, on L^1(mu): every integral it needs goes
through ``measure.integral``, which is the exact atom sum on a SimpleFunction
and adaptive quadrature on a TestFunction.  The gauge's lambda and the duality
form's theta are each the root of a monotone residual, found by one ITP root
finder (``_root``).  Inputs whose moments fall outside the float range the
evaluators can represent raise ValueError.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .measure import SimpleFunction, TestFunction, function_moments, integral

__all__ = [
    "young_phi",
    "young_psi",
    "modular",
    "gauge_norm",
    "orlicz_norm_paper",
    "orlicz_norm_amemiya",
    "golden_section_min",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi

# The evaluators square the values of f and rescale it by factors up to about
# 1e3 / ||f|| (the Amemiya grid), so they run only when ||f||_1, ||f||_2^2 and
# their ratio (an |f|-weighted mean of |f|, whose square must not underflow)
# sit well inside the normal float range.
_MOMENT_RANGE = (1e-300, 1e300)

# The norms are found to relative accuracy _TOL, from integrals taken to
# quadrature tolerance _QUAD_TOL (exact sums on a SimpleFunction).
_TOL = 1e-10
_QUAD_TOL = 1e-11


def young_phi(x):
    """Phi(x) = x^2 (x <= 1), 2x - 1 (x > 1); domain x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("young_phi domain is x >= 0")
    with np.errstate(over="ignore"):  # x * x past 1.3e154, where 2x - 1 is taken
        out = np.where(x <= 1.0, x * x, 2.0 * x - 1.0)
    return out if out.ndim else float(out)


def young_psi(y):
    """Psi(y) = y^2 (y <= 2), +inf (y > 2); domain y >= 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("young_psi domain is y >= 0")
    out = np.where(y <= 2.0, y * y, np.inf)
    return out if out.ndim else float(out)


def modular(f: TestFunction | SimpleFunction, scale: float = 1.0) -> float:
    """integral Phi(|scale * f|) dmu; exact on SimpleFunction, quadrature
    otherwise; inf, without a warning, once it leaves the float range."""
    with np.errstate(over="ignore"):
        val, _ = integral(f, lambda v: young_phi(np.abs(scale * v)), _QUAD_TOL)
    return val if math.isfinite(val) else math.inf


def _moments(f, tol: float) -> tuple[float, float]:
    """(||f||_1, ||f||_2^2); ValueError unless both lie in _MOMENT_RANGE and
    their ratio in its square root."""
    (l1, l2sq, _), _ = function_moments(f, tol=tol)
    lo, hi = _MOMENT_RANGE
    if not (lo <= l1 <= hi and lo <= l2sq <= hi
            and math.sqrt(lo) <= l2sq / l1 <= math.sqrt(hi)):
        raise ValueError(
            f"||f||_1 = {l1!r}, ||f||_2^2 = {l2sq!r} is outside the range the Orlicz "
            f"evaluators represent: both in [{lo!r}, {hi!r}], their ratio in "
            f"[{math.sqrt(lo)!r}, {math.sqrt(hi)!r}]")
    return l1, l2sq


def _norm_upper_bound(f) -> float:
    """An upper bracket for the gauge norm: min(||f||_2, 2 ||f||_1).

    Phi(x) <= x^2 gives modular(f/l2) <= 1; Phi(x) <= 2x gives
    modular(f/(2 l1)) <= 1.
    """
    l1, l2sq = _moments(f, 1e-9)
    return min(math.sqrt(l2sq), 2.0 * l1)


def _root(func: Callable[[float], float], lo: float, hi: float, rtol: float,
          y_lo: float, y_hi: float) -> float:
    """Root of an increasing residual func on [lo, hi] by ITP (interpolate,
    truncate, project; Oliveira & Takahashi, ACM TOMS 47(1), 2020, art. 5),
    to bracket width rtol * lo, then its midpoint.

    y_lo and y_hi are func(lo) and func(hi), already known to the caller.  A
    bracket with no sign change returns the end the root lies beyond, as
    bisection would; an exactly zero residual returns its point.  Each step
    evaluates func once, at the regula falsi point pulled toward the
    midpoint by kappa1 (hi - lo)^2 (kappa1 = 0.2 / initial width, kappa2 = 2)
    and kept within the radius that bounds the steps by bisection's n_half
    plus n0 = 1.
    """
    if y_lo >= 0.0:
        return lo
    if y_hi <= 0.0:
        return hi
    if hi - lo <= rtol * lo:
        return 0.5 * (lo + hi)
    eps = 0.5 * rtol * lo
    kappa1 = 0.2 / (hi - lo)
    steps_left = math.ceil(math.log2((hi - lo) / (2.0 * eps))) + 1  # n_half + n0
    while hi - lo > rtol * lo:
        mid = 0.5 * (lo + hi)
        radius = eps * 2.0 ** steps_left - 0.5 * (hi - lo)
        x = (hi * y_lo - lo * y_hi) / (y_lo - y_hi)
        if not math.isfinite(x):
            x = mid
        sigma = math.copysign(1.0, mid - x)
        delta = kappa1 * (hi - lo) ** 2
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        y = func(x)
        if y > 0.0:
            hi, y_hi = x, y
        elif y < 0.0:
            lo, y_lo = x, y
        else:
            return x
        steps_left -= 1
    return 0.5 * (lo + hi)


def gauge_norm(f: TestFunction | SimpleFunction) -> float:
    """Luxemburg norm N_Phi(f) = inf{lambda > 0 : modular(f/lambda) <= 1}.

    The residual 1 - modular(f/lambda) increases strictly in lambda; the
    Young pair is Delta_2-regular, so it vanishes at the norm, which the ITP
    root finder ``_root`` locates from a bracket halved down from
    ``_norm_upper_bound``.  Relative error <= _TOL.
    """
    if not f.total_mass:
        return 0.0

    def residual(lam: float) -> float:
        return 1.0 - modular(f, scale=1.0 / lam)

    hi = _norm_upper_bound(f)
    lo, y_hi = hi, None
    for _ in range(200):
        lo *= 0.5
        y_lo = residual(lo)
        if y_lo < 0.0:
            break
        hi, y_hi = lo, y_lo
    else:
        return 0.0  # modular stays <= 1 down to lambda ~ 0: f is negligible
    return _root(residual, lo, hi, _TOL, y_lo, residual(hi) if y_hi is None else y_hi)


def _dual_l2(f, theta: float) -> float:
    """||g_theta||_2^2 for the KKT candidate g = min(2, |f| / (2 theta)); a
    ratio past the float range is clipped to 2 without a warning."""
    with np.errstate(over="ignore"):
        return integral(f, lambda v: np.minimum(2.0, np.abs(v) / (2.0 * theta)) ** 2,
                        _QUAD_TOL)[0]


def orlicz_norm_paper(f: TestFunction | SimpleFunction) -> float:
    """Orlicz norm in the duality form sup{ integral |f g| : N_Psi(g) <= 1 }.

    N_Psi(g) = max(||g||_2, ||g||_inf / 2) <= 1 constrains g to 0 <= g <= 2,
    ||g||_2 <= 1.  The maximizer is g = min(2, |f| / (2 theta)); theta = 0
    (g identically 2) whenever 4 mu(supp f) <= 1, otherwise theta solves
    ||g_theta||_2 = 1, found by the ITP root finder ``_root`` on the residual
    1 - ||g_theta||_2^2 from a bracket halved down from ||f||_2 / 2.
    """
    if not f.total_mass:
        return 0.0
    l1, l2sq = _moments(f, _QUAD_TOL)
    if 4.0 * f.total_mass <= 1.0:
        return 2.0 * l1

    def residual(theta: float) -> float:
        return 1.0 - _dual_l2(f, theta)

    # bracket: g unclipped satisfies the constraint at theta_hi = ||f||_2 / 2
    hi = math.sqrt(l2sq) / 2.0
    lo, y_lo = hi, residual(hi)
    y_hi = y_lo
    while y_lo > 0.0 and lo >= 1e-300:
        hi, y_hi = lo, y_lo
        lo *= 0.5
        y_lo = residual(lo)
    theta = _root(residual, lo, hi, 1e-13, y_lo, y_hi)
    with np.errstate(over="ignore"):
        return integral(f, lambda u: np.abs(u) * np.minimum(2.0, np.abs(u) / (2.0 * theta)),
                        _QUAD_TOL)[0]


def golden_section_min(func, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal func on [a, b],
    until the bracket is narrower than tol * (|a| + |b|)."""
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = func(c), func(d)
    while (b - a) > tol * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = func(d)
    x = 0.5 * (a + b)
    return x, func(x)


def orlicz_norm_amemiya(f: TestFunction | SimpleFunction) -> float:
    """Canonical Orlicz norm inf_{k>0} (1 + modular(k f)) / k.

    The map is quasi-convex in k.  When the support mass exceeds 1 the
    infimum is attained at finite k and found by grid bracketing plus
    golden-section refinement; when the mass is <= 1 the map decreases
    toward its k -> infinity asymptote 2 ||f||_1, which is then the exact
    infimum, so the returned value is the smaller of the two.
    """
    if not f.total_mass:
        return 0.0
    l1, _ = _moments(f, _QUAD_TOL)

    def objective(k: float) -> float:
        return (1.0 + modular(f, scale=k)) / k

    n_upper = _norm_upper_bound(f)
    k_center = 1.0 / n_upper
    grid = k_center * np.logspace(-3, 3, 61)
    obj = np.array([objective(k) for k in grid])
    i = int(np.argmin(obj))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    _, finite_min = golden_section_min(objective, a, b, tol=_TOL)
    return min(finite_min, 2.0 * l1)
