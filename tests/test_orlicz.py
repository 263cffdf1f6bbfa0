"""Young pair, modular, gauge norm, and the two Orlicz-norm evaluators."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poisson_orlicz import orlicz

from poisson_orlicz.measure import (
    SimpleFunction,
    TestFunction,
    function_moments,
    indicator,
    simple_moments,
    simple_to_test,
    window,
)
from poisson_orlicz.orlicz import (
    gauge_norm,
    modular,
    orlicz_norm_amemiya,
    orlicz_norm_paper,
    young_phi,
    young_psi,
)


def test_young_phi_values():
    assert young_phi(0.0) == 0.0
    assert young_phi(1.0) == 1.0  # both branches agree at the kink
    assert young_phi(2.0) == 3.0
    assert young_phi(0.5) == 0.25


def test_young_phi_delta2():
    x = np.linspace(0, 10, 1001)
    assert np.all(young_phi(2 * x) <= 4 * young_phi(x) + 1e-12)


def test_young_phi_convex_increasing():
    x = np.linspace(0, 5, 501)
    y = young_phi(x)
    assert np.all(np.diff(y) > 0)
    assert np.all(np.diff(y, 2) >= -1e-12)


def test_young_phi_domain_error():
    with pytest.raises(ValueError):
        young_phi(-0.1)


def test_young_psi_values():
    assert young_psi(0.0) == 0.0
    assert young_psi(2.0) == 4.0
    assert young_psi(2.5) == math.inf
    with pytest.raises(ValueError):
        young_psi(-1.0)


def test_modular_simple():
    assert modular(SimpleFunction(((1, 3),))) == 3.0
    assert modular(SimpleFunction(((2, 1),))) == 3.0
    assert modular(SimpleFunction()) == 0.0


def test_modular_matches_quadrature():
    f = SimpleFunction(((2.0, 0.5), (-0.3, 1.5)))
    tf = simple_to_test(f)
    assert abs(modular(tf) - modular(f)) < 1e-9


def test_gauge_norm_unit_atom():
    # Phi(1/lambda) = 1 has the root lambda = 1
    assert abs(gauge_norm(SimpleFunction(((1, 1),))) - 1.0) < 1e-9


def test_gauge_norm_homogeneity():
    f = SimpleFunction(((1.5, 0.7), (-0.4, 2.0)))
    g = SimpleFunction(tuple((3 * v, m) for v, m in f.atoms))
    assert abs(gauge_norm(g) - 3 * gauge_norm(f)) < 1e-8


def test_gauge_norm_birkhoff_closed_form():
    # n unit-mass atoms of value 1/n: solve n*Phi(1/(n lambda)) = 1 => n^{-1/2}
    for n in (1, 2, 4, 8, 16, 32):
        f = SimpleFunction(tuple((1.0 / n, 1.0) for _ in range(n)))
        assert abs(gauge_norm(f) - n**-0.5) < 1e-9


def test_gauge_modular_saturates():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = rng.integers(1, 6)
        atoms = tuple(zip(rng.uniform(-5, 5, k), rng.uniform(0.01, 10, k)))
        atoms = tuple((v, m) for v, m in atoms if v != 0)
        f = SimpleFunction(atoms)
        lam = gauge_norm(f)
        assert abs(modular(f, scale=1.0 / lam) - 1.0) < 1e-7


def test_gauge_triangle_inequality():
    # a and b share the same cells, so atom values add pointwise
    rng = np.random.default_rng(9)
    for _ in range(50):
        masses = rng.uniform(0.1, 5, 3)
        va = rng.uniform(0.1, 5, 3)
        vb = rng.uniform(0.1, 5, 3)
        a = SimpleFunction(tuple(zip(va, masses)))
        b = SimpleFunction(tuple(zip(vb, masses)))
        s = SimpleFunction(tuple(zip(va + vb, masses)))
        assert gauge_norm(s) <= gauge_norm(a) + gauge_norm(b) + 1e-8


def test_gauge_norm_zero():
    assert gauge_norm(SimpleFunction()) == 0.0


def test_gauge_norm_of_a_function_zero_on_its_support_is_zero():
    # the declared tails keep its moments in range, but the modular over the
    # support stays 0 as lambda halves toward 0
    zero = TestFunction(eval=lambda x: np.zeros(np.asarray(x, dtype=float).shape),
                        support=window((0.0, 2.0)), l1_tail_bound=1e-3, l2_tail_bound=1e-3)
    assert gauge_norm(zero) == 0.0


def test_orlicz_paper_corner_case():
    # 4*mass <= 1: the dual element g = 2 is feasible, norm = 2*l1
    assert abs(orlicz_norm_paper(SimpleFunction(((1, 0.2),))) - 0.4) < 1e-10


def test_orlicz_paper_unit_atom():
    assert abs(orlicz_norm_paper(SimpleFunction(((1, 1),))) - 1.0) < 1e-9


def test_orlicz_paper_grid_oracle():
    # oracle: constant dual g = c on the support, c in [0, min(2, 1/sqrt(m))]
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        atoms = tuple(zip(rng.uniform(0.2, 4, k), rng.uniform(0.05, 3, k)))
        f = SimpleFunction(atoms)
        val = orlicz_norm_paper(f)
        l1 = sum(abs(v) * m for v, m in atoms)
        mass = f.total_mass
        c = min(2.0, 1.0 / math.sqrt(mass))
        assert val >= c * l1 - 1e-9  # constant dual is admissible
        assert val <= 2 * l1 + 1e-9


def test_orlicz_paper_depends_on_abs():
    f = SimpleFunction(((1.5, 0.7), (-0.4, 2.0)))
    g = SimpleFunction(tuple((abs(v), m) for v, m in f.atoms))
    assert abs(orlicz_norm_paper(f) - orlicz_norm_paper(g)) < 1e-11


def test_orlicz_paper_zero():
    assert orlicz_norm_paper(SimpleFunction()) == 0.0


def test_orlicz_paper_testfunction_route():
    f = SimpleFunction(((2.0, 0.5), (-1.0, 1.5)))
    tf = simple_to_test(f)
    assert abs(orlicz_norm_paper(tf) - orlicz_norm_paper(f)) < 1e-7


_ATOM = st.tuples(st.one_of(st.floats(-4.0, -0.1), st.floats(0.1, 4.0)),
                  st.floats(0.05, 3.0))


@given(st.lists(_ATOM, min_size=1, max_size=4), st.floats(1.0, 2.5))
@example([(2.0, 0.5), (-0.3, 1.5)], 1.0)
@example([(2.0, 0.5), (-1.0, 1.5)], 1.0)
def test_atoms_and_quadrature_agree(atoms, scale):
    # the exact atom sums against quadrature on the same atoms laid out
    # on the line
    s = SimpleFunction(tuple(atoms))
    t = simple_to_test(s)
    for k in (1.0, scale):
        assert abs(modular(t, scale=k) - modular(s, scale=k)) < 1e-9
    for a, b in zip(function_moments(t, tol=1e-11)[0], function_moments(s)[0]):
        assert abs(a - b) < 1e-9
    for norm in (gauge_norm, orlicz_norm_paper, orlicz_norm_amemiya):
        assert abs(norm(t) - norm(s)) < 1e-7


def test_gauge_orlicz_bracket():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        values = rng.uniform(-5, 5, k)
        values[values == 0] = 1.0
        atoms = tuple(zip(values, rng.uniform(0.01, 10, k)))
        f = SimpleFunction(atoms)
        n_phi = gauge_norm(f)
        o_phi = orlicz_norm_paper(f)
        assert n_phi - 1e-8 <= o_phi <= 2 * n_phi + 1e-8


def test_amemiya_unit_atom():
    assert abs(orlicz_norm_amemiya(SimpleFunction(((1, 1),))) - 2.0) < 1e-9


def test_amemiya_small_mass_asymptote():
    # mass <= 1: infimum approached as k -> infinity, equals 2m
    assert abs(orlicz_norm_amemiya(SimpleFunction(((1, 0.26),))) - 0.52) < 1e-10


def test_amemiya_closed_form_large_mass():
    # single atom (1, m), m >= 1: minimum 2 sqrt(m) at k = 1/sqrt(m)
    for m in (1.0, 2.0, 4.0, 9.0):
        got = orlicz_norm_amemiya(SimpleFunction(((1.0, m),)))
        assert abs(got - 2 * math.sqrt(m)) < 1e-8


def test_amemiya_dense_grid_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        atoms = tuple(zip(rng.uniform(0.3, 4, k), rng.uniform(0.05, 6, k)))
        f = SimpleFunction(atoms)
        got = orlicz_norm_amemiya(f)
        ks = np.logspace(-4, 6, 4000)
        grid = np.array([(1 + modular(f, scale=kk)) / kk for kk in ks])
        assert got <= grid.min() + 1e-6
        assert got >= grid.min() - 1e-4  # grid may sit above the asymptote


def test_amemiya_zero():
    assert orlicz_norm_amemiya(SimpleFunction()) == 0.0


def _one_atom_norm(norm, v, m):
    """gauge: m Phi(|v| / lambda) = 1; Orlicz: 2|v|m if 4m <= 1 else |v| sqrt(m);
    Amemiya: 2|v|m if m <= 1 else 2|v| sqrt(m)."""
    v = abs(v)
    if norm is gauge_norm:
        return v * math.sqrt(m) if m >= 1 else 2 * v * m / (1 + m)
    if norm is orlicz_norm_paper:
        return 2 * v * m if 4 * m <= 1 else v * math.sqrt(m)
    return 2 * v * m if m <= 1 else 2 * v * math.sqrt(m)


@pytest.mark.parametrize("norm", [gauge_norm, orlicz_norm_paper, orlicz_norm_amemiya])
@pytest.mark.parametrize("atom", [(1e160, 1.0), (1e-200, 1.0), (1.0, 1e-320), (1.0, 1e20)])
def test_norms_at_float_range_edges(norm, atom):
    # l2sq overflows, l2sq underflows, subnormal mass, and a norm of 1e10
    # whose Amemiya minimizer k = 1e-10 needs a bracket relative to k: the
    # closed form or a refusal naming the range, never a hang, a zero, a nan
    # or a crash
    try:
        got = norm(SimpleFunction((atom,)))
    except ValueError as exc:
        assert "outside the range" in str(exc)
    else:
        want = _one_atom_norm(norm, *atom)
        assert abs(got - want) <= 1e-9 * want


def test_norm_brackets_on_direct_evaluators():
    f = SimpleFunction(((1.0, 0.5), (-2.0, 0.25)))
    gauge = gauge_norm(f)
    paper = orlicz_norm_paper(f)
    amemiya = orlicz_norm_amemiya(f)
    l1, l2sq = simple_moments(f)
    slack = 1e-8 * max(1.0, gauge)
    assert gauge <= paper + slack
    assert paper <= 2 * gauge + slack
    assert paper <= 2 * l1 + slack
    assert math.isfinite(amemiya) and amemiya > 0
    assert l1 == 1.0
    assert abs(math.sqrt(l2sq) - math.sqrt(1.5)) < 1e-12


# atoms with values and masses log-uniform in [1e-60, 1e60]: up to four of
# them keep ||f||_1, ||f||_2^2 and their ratio inside _MOMENT_RANGE
_LOG_ATOM = st.tuples(st.floats(-60.0, 60.0), st.booleans(), st.floats(-60.0, 60.0)).map(
    lambda t: ((-1.0 if t[1] else 1.0) * 10.0 ** t[0], 10.0 ** t[2]))
_LOG_ATOMS = st.lists(_LOG_ATOM, min_size=1, max_size=4).map(lambda a: SimpleFunction(tuple(a)))


@given(_LOG_ATOMS)
@example(SimpleFunction(((1.25, 0.68),)))
def test_gauge_is_certified_within_tol(f):
    # the root of 1 - modular(f/lambda) lies within _TOL of the returned norm
    lam = gauge_norm(f)
    tol = orlicz._TOL
    assert modular(f, scale=1.0 / (lam * (1.0 + tol))) <= 1.0
    assert modular(f, scale=1.0 / (lam * (1.0 - tol))) >= 1.0


@given(_LOG_ATOMS, st.floats(-30.0, 30.0))
def test_gauge_homogeneity_over_the_range(f, log_c):
    c = 10.0 ** log_c
    cf = SimpleFunction(tuple((c * v, m) for v, m in f.atoms))
    assert abs(gauge_norm(cf) - c * gauge_norm(f)) <= 2e-10 * c * gauge_norm(f)


@given(_LOG_ATOMS)
@example(SimpleFunction(((1.25, 0.68),)))  # the first Orlicz bracket has zero width
def test_gauge_orlicz_bracket_over_the_range(f):
    gauge, paper = gauge_norm(f), orlicz_norm_paper(f)
    assert gauge * (1.0 - 2e-10) <= paper <= 2.0 * gauge * (1.0 + 2e-10)


@given(_LOG_ATOMS)
def test_root_takes_at_most_bisections_steps_plus_one(f):
    # ITP's worst case is bisection's n_half steps on the same bracket and
    # stop rule, plus n0 = 1
    calls = []

    def counted(func, lo, hi, rtol, y_lo, y_hi):
        count = [0]

        def inner(x):
            count[0] += 1
            return func(x)

        root = real(inner, lo, hi, rtol, y_lo, y_hi)
        n_half = math.ceil(math.log2((hi - lo) / (rtol * lo))) if hi - lo > rtol * lo else 0
        calls.append((count[0], n_half))
        return root

    real = orlicz._root
    with mock.patch.object(orlicz, "_root", counted):
        gauge_norm(f)
        orlicz_norm_paper(f)
    assert calls
    assert all(count <= n_half + 1 for count, n_half in calls)


def test_root_returns_without_evaluating_on_a_closed_bracket():
    def never(x):
        raise AssertionError("evaluated")

    assert orlicz._root(never, 2.0, 2.0, 1e-13, -1e-16, -1e-16) == 2.0
    assert orlicz._root(never, 1.0, 2.0, 1e-13, 0.0, 1.0) == 1.0  # exact zero at lo
    assert orlicz._root(never, 1.0, 2.0, 1e-13, -1.0, 0.0) == 2.0  # exact zero at hi
    narrow = 1.0 + 2.0 ** -46  # already narrower than rtol * lo: the midpoint
    assert orlicz._root(never, 1.0, narrow, 1e-13, -1.0, 1.0) == 1.0 + 2.0 ** -47


def test_root_returns_an_exact_zero():
    assert orlicz._root(lambda x: x - 1.5, 1.0, 2.0, 1e-13, -0.5, 0.5) == 1.5


def test_root_on_a_smooth_residual_beats_bisection():
    calls = []

    def residual(x):
        calls.append(x)
        return x * x - 2.0

    root = orlicz._root(residual, 1.0, 2.0, 1e-13, -1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 1e-13
    assert len(calls) <= 10  # bisection takes 44


def _amemiya_bounds(f):
    """A lower and an upper bound on the Amemiya norm of f, found without the
    package's dual evaluator.

    Lower: integral |f| g for g = min(2, |f| / (2 theta)), with theta bisected
    (geometrically, to the last bits) to keep 0 <= g <= 2, ||g||_2 <= 2.
    Upper: the least (1 + modular(k f)) / k over a log grid of k spanning
    1e-12..1e12 times 1 / ||f||_2, plus the k = 1 / (4 theta) at which Young's
    equality makes the two bounds meet.
    """
    v = np.abs([a for a, _ in f.atoms])
    m = np.array([b for _, b in f.atoms])
    l2 = math.sqrt(float(np.sum(v * v * m)))
    ks = list(np.logspace(-12.0, 12.0, 193) / l2)
    if m.sum() <= 1.0:  # g identically 2 is feasible
        lower = 2.0 * float(np.sum(v * m))
    else:
        def l2sq(theta):
            return float(np.sum(m * np.minimum(2.0, v / (2.0 * theta)) ** 2))

        lo, hi = float(v.min()) / 4.0, l2 / 2.0  # g = 2 throughout; g unclipped, ||g||_2 = 1
        for _ in range(400):
            mid = math.sqrt(lo) * math.sqrt(hi)
            if not lo < mid < hi:
                break
            if l2sq(mid) <= 4.0:
                hi = mid
            else:
                lo = mid
        assert l2sq(hi) <= 4.0
        lower = float(np.sum(v * m * np.minimum(2.0, v / (2.0 * hi))))
        ks.append(1.0 / (4.0 * hi))
    upper = min((1.0 + modular(f, scale=k)) / k for k in ks)
    return lower, upper


# atom sets whose Amemiya minimizer k lies far from 1 / ||f||_2, where a k-grid
# search centred there stops above the infimum, by up to 6.4e-5 relative
_AMEMIYA_MISSES = [
    SimpleFunction(((29.3, 0.476), (0.00743, 1.35))),
    SimpleFunction(((-0.0102, 0.931), (48.0, 0.00865), (-24.6, 0.492), (0.0103, 0.014))),
    SimpleFunction(((-63.2, 0.0715), (11.1, 0.755), (-0.545, 0.0175), (-0.0137, 0.177),
                    (-0.0209, 0.0344))),
]


@given(_LOG_ATOMS)
@example(_AMEMIYA_MISSES[0])
@example(_AMEMIYA_MISSES[1])
@example(_AMEMIYA_MISSES[2])
def test_amemiya_between_a_feasible_dual_and_every_k(f):
    lower, upper = _amemiya_bounds(f)
    got = orlicz_norm_amemiya(f)
    assert lower * (1.0 - 1e-12) <= got <= upper * (1.0 + 1e-12)


def test_amemiya_on_the_first_grid_miss():
    # the minimizer k = 1 / (4 theta) is about 84, some 1700 / ||f||_2
    lower, upper = _amemiya_bounds(_AMEMIYA_MISSES[0])
    assert abs(orlicz_norm_amemiya(_AMEMIYA_MISSES[0]) - 27.9060983) < 1e-6
    assert upper - lower <= 1e-13 * upper


@given(_LOG_ATOMS)
@example(SimpleFunction(((1.0, 0.26),)))  # 1/4 < mass <= 1: amemiya = 2 l1 > paper
@example(_AMEMIYA_MISSES[0])
def test_paper_amemiya_bracket(f):
    # the dual balls nest: B_1 within B_2 within 2 B_1
    paper, amemiya = orlicz_norm_paper(f), orlicz_norm_amemiya(f)
    assert paper * (1.0 - 1e-12) <= amemiya <= 2.0 * paper * (1.0 + 1e-12)


@pytest.mark.parametrize("norm, nonzero, want", [(orlicz_norm_amemiya, 1.0, 2.0),
                                                  (orlicz_norm_paper, 0.2, 0.4)])
def test_dual_norm_stops_halving_at_the_plateau(norm, nonzero, want):
    # f = 1 on [0, nonzero) but declared on [0, 3): 4 mu(f != 0) <= radius^2,
    # so the residual stays positive as theta falls to 0 and the norm is
    # 2 ||f||_1.  The halving ran to theta < 1e-300, 997 integral calls
    f = TestFunction(eval=lambda x: np.where(np.asarray(x) < nonzero, 1.0, 0.0),
                     support=window((0.0, 3.0)), breakpoints=(nonzero,))
    with mock.patch.object(orlicz, "integral", wraps=orlicz.integral) as calls:
        got = norm(f)
    assert got == pytest.approx(want, rel=1e-12)
    assert calls.call_count <= 4
