"""Sampling, centered integrals, the three norm oracles, and identity checks."""

import math
from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from poisson_orlicz.measure import (
    SimpleFunction,
    TestFunction,
    Window,
    indicator,
    piecewise_constant,
    simple_moments,
    simple_to_test,
    triangular_bump,
    window,
)
from poisson_orlicz.poisson import (
    MCEstimate,
    PoissonSample,
    QuadratureError,
    coboundary_check,
    difference_check,
    equivariance_check,
    estimate_star_norm,
    estimate_starstar_norm,
    integral_centered,
    mecke_check,
    reduced_moment_check,
    sample_process,
    second_moment_check,
    star_norm_exact,
    star_norm_hsu,
    starstar_norm_exact,
)


def poisson_mad(m):
    # E|N - m| = 2 m^(floor(m)+1) e^(-m) / floor(m)!
    k = math.floor(m)
    return 2.0 * m ** (k + 1) * math.exp(-m) / math.factorial(k)


class _Shift:
    """Unit translation with the preimage interface used by the checks."""

    singularities = ()

    def forward(self, x):
        return np.asarray(x, dtype=float) + 1.0

    def preimages(self, y):
        return [(y - 1.0, 1.0)]


# ---------------------------------------------------------------------------
# sampling

def test_sample_determinism():
    w = window((0, 2), (5, 6))
    a = sample_process(w, 123, replicate=4)
    b = sample_process(w, 123, replicate=4)
    assert np.array_equal(a.points, b.points)
    c = sample_process(w, 123, replicate=5)
    assert not np.array_equal(a.points, c.points)


def test_sample_empty_window():
    s = sample_process(Window(), 1)
    assert s.points.size == 0


def test_sample_points_inside():
    w = window((0, 2), (5, 6))
    for r in range(50):
        s = sample_process(w, 9, replicate=r)
        assert np.all(w.contains(s.points))


def test_sample_count_moments():
    w = window((0, 2), (5, 6))  # measure 3
    counts = np.array([sample_process(w, 77, r).points.size for r in range(4000)])
    assert abs(counts.mean() - 3.0) <= 5 * math.sqrt(3.0 / 4000)
    se_var = math.sqrt((3 * (1 + 3 * 3) - 9) / 4000)  # Poisson fourth moment
    assert abs(counts.var(ddof=1) - 3.0) <= 4 * se_var


def test_sample_rejects_outside_points():
    with pytest.raises(ValueError):
        PoissonSample(window((0, 1)), np.array([2.0]))


# ---------------------------------------------------------------------------
# centered integral

def test_integral_centered_examples():
    f = indicator(0, 1)
    s = PoissonSample(window((0, 2)), np.array([0.3, 0.7, 1.8]))
    assert integral_centered(f, s, 1.0) == 1.0
    empty = PoissonSample(window((0, 2)), np.empty(0))
    assert integral_centered(f, empty, 3.5) == -3.5
    zero = TestFunction(eval=lambda x: np.zeros(np.asarray(x, dtype=float).shape),
                        support=Window())
    assert integral_centered(zero, s, 0.0) == 0.0


# ---------------------------------------------------------------------------
# exact oracle

def test_exact_single_atom_closed_form():
    for m in (1 / 3, 0.5, 1.0, 2.7, 29.5):
        got = star_norm_exact(SimpleFunction(((-1.0, m),)))
        assert abs(got - poisson_mad(m)) < 1e-10


def test_exact_sign_symmetry():
    for c in (0.2, 1.7):
        plus = star_norm_exact(SimpleFunction(((1.0, c),)))
        minus = star_norm_exact(SimpleFunction(((-1.0, c),)))
        assert abs(plus - minus) < 1e-12


def test_exact_skellam():
    got = star_norm_exact(SimpleFunction(((1.0, 0.25), (-1.0, 0.25))))
    ks = np.arange(60)
    p = stats.poisson.pmf(ks, 0.25)
    oracle = float(np.sum(p[:, None] * p[None, :] * np.abs(ks[:, None] - ks[None, :])))
    assert abs(got - oracle) < 1e-10


def test_exact_four_atoms_vs_dict_convolution():
    atoms = ((1.0, 0.8), (-1.0, 0.4), (2.0, 0.3), (-2.0, 0.6))
    got = star_norm_exact(SimpleFunction(atoms))
    cap = 30
    dist = {0.0: 1.0}
    for v, m in atoms:
        pk = stats.poisson.pmf(np.arange(cap), m)
        nxt = defaultdict(float)
        for s0, p0 in dist.items():
            for k in range(cap):
                nxt[s0 + v * k] += p0 * pk[k]
        dist = nxt
    shift = -sum(v * m for v, m in atoms)
    oracle = sum(p * abs(s + shift) for s, p in dist.items())
    assert abs(got - oracle) < 1e-9


def test_exact_norm_bounds():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = int(rng.integers(1, 6))
        values = rng.uniform(-5, 5, k)
        values[values == 0] = 1.0
        f = SimpleFunction(tuple(zip(values, rng.uniform(0.01, 10, k))))
        star = star_norm_exact(f)
        mom = simple_moments(f)
        assert star <= 2 * mom.l1 + 1e-9
        assert star <= math.sqrt(mom.l2sq) + 1e-9


def test_exact_refusals():
    seven = SimpleFunction(tuple((1.0, 0.1) for _ in range(7)))
    with pytest.raises(ValueError):
        star_norm_exact(seven)
    with pytest.raises(ValueError):
        star_norm_exact(SimpleFunction(((1.0, 30.5),)))
    assert star_norm_exact(SimpleFunction()) == 0.0


def test_starstar_exact_values():
    # nonnegative functions: E|N(f)| = E N(f) = l1
    f = SimpleFunction(((2.0, 0.8),))
    assert abs(starstar_norm_exact(f) - 1.6) < 1e-10
    g = SimpleFunction(((1.0, 0.5), (3.0, 0.25)))
    assert abs(starstar_norm_exact(g) - simple_moments(g).l1) < 1e-10
    # zero-integral functions: uncentered equals centered
    h = SimpleFunction(((1.0, 0.5), (-1.0, 0.5)))
    assert abs(starstar_norm_exact(h) - star_norm_exact(h)) < 1e-12
    # mixed sign: strictly below l1
    mixed = SimpleFunction(((1.0, 1.0), (-1.0, 2.0)))
    assert starstar_norm_exact(mixed) < simple_moments(mixed).l1 - 0.1


# ---------------------------------------------------------------------------
# characteristic-function oracle

def test_hsu_single_atom():
    got = star_norm_hsu(SimpleFunction(((-1.0, 0.5),)), tol=1e-6)
    assert abs(got - math.exp(-0.5)) < 1e-6


def test_hsu_vs_exact_skellam():
    f = SimpleFunction(((1.0, 0.25), (-1.0, 0.25)))
    assert abs(star_norm_hsu(f, tol=1e-6) - star_norm_exact(f)) < 1e-6 + 1e-12


def test_hsu_zero_and_testfunction_route():
    assert star_norm_hsu(SimpleFunction()) == 0.0
    got = star_norm_hsu(indicator(0, 1, scale=-1.0), tol=1e-5)
    assert abs(got - 2 * math.exp(-1)) < 1e-5


def test_hsu_nonconvergence_reports_partial():
    f = SimpleFunction(((1.0, 0.5),))
    with pytest.raises(QuadratureError) as info:
        star_norm_hsu(f, tol=1e-6, max_panels=100)
    assert info.value.err_bound > 1e-6
    assert abs(info.value.partial - poisson_mad(0.5)) < 0.05


# ---------------------------------------------------------------------------
# Monte Carlo estimators

def test_estimate_star_half_interval():
    f = indicator(0, 0.5, scale=-1.0)
    est = estimate_star_norm(f, f.support, 10 ** 5, seed=7)
    assert abs(est.mean - math.exp(-0.5)) <= 3 * est.std_error
    assert est.truncation_bound == 0.0
    assert est.replicates == 10 ** 5 and est.seed == 7


def test_estimate_star_zero_function():
    zero = TestFunction(eval=lambda x: np.zeros(np.asarray(x, dtype=float).shape),
                        support=Window())
    est = estimate_star_norm(zero, window((0, 1)), 1000, seed=1)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_estimate_star_skellam_vs_exact():
    f = piecewise_constant([0.0, 0.25, 0.5], [1.0, -1.0])
    w = window((0, 0.5))
    est = estimate_star_norm(f, w, 10 ** 5, seed=11)
    exact = star_norm_exact(SimpleFunction(((1.0, 0.25), (-1.0, 0.25))))
    assert abs(est.mean - exact) <= 3 * est.std_error
    assert est.mean <= 0.5 + 3 * est.std_error  # 2 * l1 bound, l1 = 1/4


def test_estimate_star_determinism():
    f = indicator(0, 1, scale=2.0)
    a = estimate_star_norm(f, f.support, 2000, seed=5)
    b = estimate_star_norm(f, f.support, 2000, seed=5)
    assert a == b


def test_estimate_star_replicate_floor():
    f = indicator(0, 1)
    with pytest.raises(ValueError):
        estimate_star_norm(f, f.support, 999, seed=1)


def test_estimate_star_truncated_window():
    # f = 1_[0,2] sampled only on [0,1]: the omitted unit of mass is declared
    f = indicator(0, 2)
    w = window((0, 1))
    est = estimate_star_norm(f, w, 10 ** 4, seed=3)
    assert abs(est.truncation_bound - 1.0) < 1e-6  # min(2*1, sqrt(1))
    full = star_norm_exact(SimpleFunction(((1.0, 2.0),)))
    assert abs(est.mean - full) <= 3 * est.std_error + est.truncation_bound
    windowed = star_norm_exact(SimpleFunction(((1.0, 1.0),)))
    assert abs(est.mean - windowed) <= 3 * est.std_error


def test_estimate_starstar():
    f = indicator(0, 0.7)
    est = estimate_starstar_norm(f, f.support, 10 ** 5, seed=2)
    assert abs(est.mean - 0.7) <= 3 * est.std_error

    g = piecewise_constant([0.0, 0.5, 1.0], [1.0, -1.0])  # integral zero
    w = window((0, 1))
    uncentered = estimate_starstar_norm(g, w, 10 ** 5, seed=21)
    centered = estimate_star_norm(g, w, 10 ** 5, seed=22)
    assert abs(uncentered.mean - centered.mean) <= 3 * (
        uncentered.std_error + centered.std_error
    )

    mixed = piecewise_constant([0.0, 1.0, 3.0], [1.0, -1.0])
    est = estimate_starstar_norm(mixed, window((0, 3)), 10 ** 4, seed=4)
    l1 = 3.0
    assert l1 - est.mean > 3 * est.std_error  # strict gap for mixed sign


# ---------------------------------------------------------------------------
# identities

def test_mecke_constant_functional():
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda x, s: 1.0, w, 400, seed=5)
    assert abs(lhs.mean - 1.0) <= 3 * lhs.std_error
    assert abs(rhs.mean - 1.0) < 1e-9
    assert rhs.std_error < 1e-12


def test_mecke_campbell():
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda x, s: x, w, 400, seed=6)
    assert abs(lhs.mean - 0.5) <= 3 * lhs.std_error
    assert abs(rhs.mean - 0.5) <= 3 * rhs.std_error + 1e-9


def test_mecke_count_coupled():
    w = window((0, 1))

    def phi(x, s):
        return x * s.points.size

    lhs, rhs = mecke_check(phi, w, 600, seed=8)
    assert abs(lhs.mean - rhs.mean) <= 3 * (lhs.std_error + rhs.std_error)
    # rhs per sample is (N+1) * int g, so its mean is (measure + 1) * 1/2
    assert abs(rhs.mean - 1.0) <= 3 * rhs.std_error


def test_difference_check_exact():
    w = window((0, 3))
    for f in (indicator(0, 1), triangular_bump(1.5, 1.0, 0.7),
              piecewise_constant([0.0, 1.0, 2.0], [1 / 3, -2 / 7])):
        for r in range(5):
            s = sample_process(w, 31, replicate=r)
            for x in (0.1, 1.0, 1.7, 2.9):
                observed, expected = difference_check(f, s, x, compensator=0.123)
                assert observed == expected


def test_difference_check_outside_support_is_zero():
    f = indicator(0, 1)
    s = sample_process(window((0, 3)), 2)
    observed, expected = difference_check(f, s, 2.5, compensator=1.0)
    assert observed == expected == 0.0


def test_difference_check_requires_x_in_window():
    f = indicator(0, 1)
    s = sample_process(window((0, 1)), 2)
    with pytest.raises(ValueError):
        difference_check(f, s, 5.0, compensator=1.0)


def test_second_moment_isometry():
    f = simple_to_test(SimpleFunction(((1.0, 1.0), (-2.0, 0.5))))
    est, l2sq = second_moment_check(f, f.support, 10 ** 5, seed=9)
    assert abs(l2sq - 3.0) < 1e-8
    assert abs(est.mean - l2sq) <= 3 * est.std_error

    g = indicator(0, 2)
    est, l2sq = second_moment_check(g, g.support, 10 ** 5, seed=10)
    assert abs(l2sq - 2.0) < 1e-9
    assert abs(est.mean - 2.0) <= 3 * est.std_error


def test_reduced_moment():
    g = indicator(0, 1)
    lhs, rhs = reduced_moment_check(g, g, window((0, 1)), 10 ** 4, seed=12)
    assert rhs == pytest.approx(1.0, abs=1e-9)
    assert abs(lhs.mean - rhs) <= 3 * lhs.std_error

    zero = TestFunction(eval=lambda x: np.zeros(np.asarray(x, dtype=float).shape),
                        support=Window())
    lhs, rhs = reduced_moment_check(zero, g, window((0, 1)), 1000, seed=13)
    assert lhs.mean == 0.0 and lhs.std_error == 0.0 and rhs == 0.0

    h = indicator(2, 3)
    lhs, rhs = reduced_moment_check(g, h, window((0, 3)), 10 ** 4, seed=14)
    assert rhs == pytest.approx(1.0, abs=1e-9)
    assert abs(lhs.mean - rhs) <= 3 * lhs.std_error


def test_equivariance_translation():
    f = indicator(0, 1)
    w_in = window((-1, 1))
    w_out = window((-0.5, 1.5))
    s = sample_process(w_in, 17)
    lhs, rhs = equivariance_check(f, _Shift(), s, (w_in, w_out))
    assert abs(lhs - rhs) < 1e-9


def test_equivariance_rejects_bad_window():
    f = indicator(0, 1)
    w_in = window((0.5, 1.0))  # misses the preimage [-1, 0]
    s = sample_process(w_in, 1)
    with pytest.raises(ValueError):
        equivariance_check(f, _Shift(), s, (w_in, window((-0.5, 1.5))))


def test_coboundary_translation():
    f = indicator(0, 1)
    w_in = window((-1, 1))
    w_out = window((0, 1))
    s = sample_process(w_in, 19)
    lhs, rhs = coboundary_check(f, _Shift(), s, (w_in, w_out))
    assert abs(lhs - rhs) < 1e-9
    # both sides are the count difference of two unit intervals
    n_left = int(np.sum((s.points >= -1) & (s.points <= 0)))
    n_mid = int(np.sum((s.points >= 0) & (s.points <= 1)))
    assert lhs == pytest.approx(n_left - n_mid, abs=1e-9)
