"""The fixed Young pair (Phi, Psi), the modular, the gauge (Luxemburg) norm,
and two Orlicz norms.

Phi(x) = x^2 for x <= 1 and 2x - 1 for x > 1 (kink at 1, Delta_2-regular).
Psi(y) = y^2 for y <= 2 and +inf beyond (kink at 2).

Both Orlicz norms are dual forms

    sup{ integral |f| g dmu : 0 <= g <= 2, ||g||_2 <= r },

evaluated by one routine (``_dual_norm``): the maximizer is
g = min(2, |f| / (2 theta)) with theta fixed by the L2 constraint.  The
paper's norm takes r = 1, the ball N_Psi(g) = max(||g||_2, ||g||_inf / 2) <= 1.
The canonical Amemiya form

    inf_{k>0} (1 + modular(k f)) / k

equals the Orlicz norm built on the Legendre conjugate Phi*(y) = y^2/4 on
[0, 2] and +inf beyond (Hudzik & Maligranda, Indag. Math. 11, 2000), whose
ball {integral Phi*(g) <= 1} is the set above with r = 2.  The balls nest as
B_1 within B_2 within 2 B_1, so paper <= amemiya <= 2 paper.

Each evaluator is written once, on L^1(mu): every integral it needs goes
through ``measure.integral``, which is the exact atom sum on a SimpleFunction
and adaptive quadrature on a TestFunction.  The gauge's lambda and the dual
forms' theta are each the root of a monotone residual, found by one ITP root
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
]

# The evaluators square the values of f and divide them by norms of f, so
# they run only when ||f||_1, ||f||_2^2 and their ratio (an |f|-weighted mean
# of |f|, whose square must not underflow) sit well inside the normal float
# range.
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
    (l1, l2sq), _ = function_moments(f, tol=tol)
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


def _dual_norm(f, radius: float) -> float:
    """sup{ integral |f| g : 0 <= g <= 2, ||g||_2 <= radius }.

    The maximizer is g = min(2, |f| / (2 theta)); theta = 0 (g identically 2)
    whenever 4 mu(supp f) <= radius^2, otherwise theta solves
    ||g_theta||_2 = radius, found by the ITP root finder ``_root`` on the
    residual radius^2 - ||g_theta||_2^2 from a bracket halved down from
    ||f||_2 / (2 radius), where g unclipped meets the constraint.  A ratio
    |f| / theta past the float range is clipped to 2 without a warning.

    When f vanishes on part of its declared support, the residual stays
    positive once g is 2 wherever f is not 0, and the halving stops at two
    equal residuals.  A value of f whose share of ||g||_2^2 is below the
    sum's last bit can also stop it; it then counts at that theta.
    """
    if not f.total_mass:
        return 0.0
    l1, l2sq = _moments(f, _QUAD_TOL)
    if 4.0 * f.total_mass <= radius * radius:
        return 2.0 * l1

    def g(v, theta: float):
        return np.minimum(2.0, np.abs(v) / (2.0 * theta))

    def residual(theta: float) -> float:
        with np.errstate(over="ignore"):
            return radius * radius - integral(f, lambda v: g(v, theta) ** 2, _QUAD_TOL)[0]

    hi = math.sqrt(l2sq) / (2.0 * radius)
    lo, y_lo = hi, residual(hi)
    y_hi = y_lo
    while y_lo > 0.0 and lo >= 1e-300:
        hi, y_hi = lo, y_lo
        lo *= 0.5
        y_lo = residual(lo)
        if y_lo == y_hi:  # the plateau: g is 2 wherever f is not 0
            break
    theta = _root(residual, lo, hi, 1e-13, y_lo, y_hi)
    with np.errstate(over="ignore"):
        return integral(f, lambda u: np.abs(u) * g(u, theta), _QUAD_TOL)[0]


def orlicz_norm_paper(f: TestFunction | SimpleFunction) -> float:
    """Orlicz norm in the duality form sup{ integral |f g| : N_Psi(g) <= 1 }.

    N_Psi(g) = max(||g||_2, ||g||_inf / 2) <= 1 constrains g to 0 <= g <= 2,
    ||g||_2 <= 1: the dual form of radius 1 (``_dual_norm``).
    """
    return _dual_norm(f, 1.0)


def orlicz_norm_amemiya(f: TestFunction | SimpleFunction) -> float:
    """Canonical Orlicz norm inf_{k>0} (1 + modular(k f)) / k.

    It equals sup{ integral |f| g : integral Phi*(g) <= 1 } for the Legendre
    conjugate Phi*(y) = y^2/4 on [0, 2] (+inf beyond), that is the dual form
    of radius 2 (``_dual_norm``): 0 <= g <= 2, ||g||_2 <= 2.  The infimum is
    attained at k = 1 / (4 theta), and is the asymptote 2 ||f||_1 of
    k -> infinity when mu(supp f) <= 1.
    """
    return _dual_norm(f, 2.0)
