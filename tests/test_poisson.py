"""Sampling, centered integrals, the three norm oracles, and identity checks."""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import pdtrc

from poisson_orlicz import poisson
from poisson_orlicz.dynamics import (
    CIRCLE_OFFSET,
    birkhoff,
    make_boole,
    make_composite,
    make_translation,
    transfer_apply,
)
from poisson_orlicz.experiments import _SHAPES, build_function
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
    window_position,
)
from poisson_orlicz.poisson import (
    MCEstimate,
    PoissonSample,
    QuadratureError,
    abs_moment_exact,
    coboundary_check,
    difference_check,
    equivariance_check,
    estimate_star_norm,
    estimate_starstar_norm,
    hsu_error_floor,
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


def test_batched_streams_tell_large_seeds_apart():
    f = indicator(0.0, 1.0)
    at = lambda seed: estimate_star_norm(f, f.support, 2000, seed).mean
    assert at(2 ** 53) != at(2 ** 53 + 1)


def test_philox_key_words_must_fit_64_bits():
    for seed, replicate in ((-1, 0), (-7, None), (0, -1), (2 ** 64, None), (0, 2 ** 64)):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            poisson._philox(seed, replicate)
    # the batched stream is the one drawn when the key list went through float64
    old = np.random.Generator(np.random.Philox(key=[5, 0x9E3779B97F4A7C15]))
    assert poisson._philox(5).random(4).tolist() == old.random(4).tolist()


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


def test_exact_tiny_atom_is_relatively_exact():
    # the lattice merges on an absolute 1e-12 grid, far coarser than 1e-20
    got = star_norm_exact(SimpleFunction(((1e-20, 1.0),)))
    assert got == pytest.approx(2.0 * math.exp(-1.0) * 1e-20, rel=1e-9)
    # E|N - c| = 1 - c + 2 c e^-1 for N ~ Poisson(1) and 0 <= c <= 1
    c = 0.25
    got = abs_moment_exact(SimpleFunction(((1e-20, 1.0),)), center=c * 1e-20)
    assert got == pytest.approx((1.0 - c + 2.0 * c * math.exp(-1.0)) * 1e-20, rel=1e-9)


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


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


_KS = np.arange(601)


@settings(max_examples=300)
@given(m=_log_uniform(1e-12, 30.0))
@example(m=30.0)
@example(m=1.0)
def test_poisson_tables_are_bit_equal_to_scipy_stats(m):
    assert np.array_equal(poisson._poisson_pmf(_KS, m), stats.poisson.pmf(_KS, m))
    assert np.array_equal(pdtrc(_KS, m), stats.poisson.sf(_KS, m))


def _cutoff_whole_table(v, m, other_weight, budget, centered):
    """The cutoff search on all 600 candidates at once, from scipy.stats;
    None when no candidate meets the budget."""
    ks = np.arange(math.ceil(m), math.ceil(m) + 600)
    sf = stats.poisson.sf(ks, m)
    pmf = stats.poisson.pmf(ks, m)
    if centered:
        bounds = sf * other_weight + abs(v) * m * pmf
    else:
        bounds = sf * other_weight + abs(v) * m * (pmf + sf)
    ok = np.nonzero(bounds <= budget)[0]
    return None if not ok.size else (int(ks[ok[0]]), float(bounds[ok[0]]))


# with v = 0 and unit other weight the bound is sf(K), so a budget of
# sf(start + j) puts the cutoff at the j-th candidate: here the edges of the
# first two blocks of 64
_EDGE_M = 2.5


@settings(max_examples=300)
@given(v=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6), _log_uniform(1e-6, 1e6).map(lambda x: -x)),
       m=_log_uniform(1e-12, 30.0),
       other_weight=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6)),
       budget=st.one_of(_log_uniform(1e-300, 1e-3), st.sampled_from([0.0, -1e-12])),
       centered=st.booleans())
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(pdtrc(3, _EDGE_M)), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(pdtrc(66, _EDGE_M)), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(pdtrc(67, _EDGE_M)), centered=False)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(pdtrc(130, _EDGE_M)), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(pdtrc(131, _EDGE_M)), centered=False)
def test_blocked_cutoff_is_bit_equal_to_the_whole_table(v, m, other_weight, budget, centered):
    want = _cutoff_whole_table(v, m, other_weight, budget, centered)
    if want is None:
        with pytest.raises(ValueError, match="cannot certify the tail bound"):
            poisson._cutoff(v, m, other_weight, budget, centered)
    else:
        got = poisson._cutoff(v, m, other_weight, budget, centered)
        assert got == want


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
    assert abs(info.value.partial - poisson_mad(0.5)) <= info.value.err_bound
    assert info.value.err_bound == hsu_error_floor(f, max_panels=100)


def test_hsu_incommensurate_atoms_vs_exact():
    # values 1 and sqrt 2 make phi quasi-periodic, never periodic
    f = SimpleFunction(((1.0, 0.5), (-math.sqrt(2.0), 0.3)))
    assert abs(star_norm_hsu(f, tol=1e-7) - star_norm_exact(f)) <= 1e-7 + 1e-12


@pytest.mark.parametrize("scale", [2.0 ** -530, 2.0 ** 500])
def test_hsu_scales_exactly(scale):
    # the sweep runs on atoms normalised by a power of two, so squared nodes
    # stay in the float range at any scale and the scaled norm is exact
    f = SimpleFunction(((1.0, 0.5), (-math.sqrt(2.0), 0.3)))
    g = SimpleFunction(tuple((v * scale, m) for v, m in f.atoms))
    assert star_norm_hsu(g, tol=1e-6 * scale) == scale * star_norm_hsu(f, tol=1e-6)
    assert hsu_error_floor(g) == scale * hsu_error_floor(f)


def _hsu_reference(t, v, m):
    # (1 - Re phi(t)) / t^2 straight from phi, for t away from 0
    psi = sum(mj * (np.exp(1j * t * vj) - 1.0 - 1j * t * vj) for vj, mj in zip(v, m))
    return (1.0 - np.exp(psi).real) / (t * t)


@pytest.mark.parametrize("atoms", [((-1.0, 0.5),), ((1.0, 1.0), (-1.0, 1.0)),
                                   ((1.0, 0.1), (-2.0, 0.2), (0.5, 0.3))])
def test_hsu_panel_bounds_cover_the_g7_error(atoms):
    # at four times the planned width the G7 errors are visible; each stays
    # within its panel's proven bound
    v, m = SimpleFunction(atoms).values_masses()
    h = 4.0 * poisson._hsu_plan(v, m, 2e-7, 6_000_000).h
    fine, coarse = poisson._panel_bounds(v, m, h)
    fine_h = h / poisson._FINE_SPLIT
    for k in (5, 40, 80, 160, 255):
        got = poisson._hsu_sweep(v, m, k * fine_h, fine_h, 1)
        ref, _ = integrate.quad(_hsu_reference, k * fine_h, (k + 1) * fine_h,
                                args=(v, m), epsabs=1e-15, epsrel=1e-13, limit=200)
        assert abs(got - ref) <= fine[k] + 1e-14
    lo = poisson._FINE_SPAN * h
    got = poisson._hsu_sweep(v, m, lo, h, 4)
    ref, _ = integrate.quad(_hsu_reference, lo, lo + 4 * h, args=(v, m),
                            epsabs=1e-15, epsrel=1e-13, limit=400)
    assert abs(got - ref) <= coarse + 1e-14


_HSU_ATOM = st.tuples(
    st.floats(0.1, 2.0).flatmap(lambda a: st.sampled_from([a, -a])),
    st.floats(0.05, 2.0),
)


@settings(max_examples=25)
@given(atoms=st.lists(_HSU_ATOM, min_size=1, max_size=4),
       cap=st.sampled_from([300, 3000, 6_000_000]))
def test_hsu_within_its_proven_bound(atoms, cap):
    # the value is within tol, or the capped sweep within the bound it reports
    f = SimpleFunction(tuple(atoms))
    try:
        value, bound = star_norm_hsu(f, tol=1e-6, max_panels=cap), 1e-6
    except QuadratureError as exc:
        value, bound = exc.partial, exc.err_bound
    assert abs(value - star_norm_exact(f)) <= bound + 1e-12


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
# block evaluation of the sample points

_NUM = st.floats(-4.0, 4.0)
_NONZERO = st.one_of(st.floats(0.125, 4.0), st.floats(-4.0, -0.125))
_WIDTH = st.floats(0.125, 4.0)

# fields of each shape of experiments._SHAPES
_SHAPE_FIELDS = {
    "indicator": st.builds(lambda lo, w, s: {"lo": lo, "hi": lo + w, "scale": s},
                           _NUM, _WIDTH, _NONZERO),
    "bump": st.builds(lambda c, w, a: {"center": c, "halfwidth": w, "height": a},
                      _NUM, _WIDTH, _NONZERO),
    "steps": st.lists(_NUM, min_size=1, max_size=4).map(
        lambda vs: {"breaks": [i - 2.0 for i in range(len(vs) + 1)], "values": vs}),
    "atoms": st.lists(st.tuples(_NONZERO, _WIDTH), min_size=1, max_size=3).map(
        lambda atoms: {"atoms": [list(a) for a in atoms]}),
    "circle": st.builds(lambda s: {"scale": s}, _NUM),
    "circle_plus_indicator": st.builds(
        lambda lo, w, s, t: {"lo": lo, "hi": lo + w, "scale": s, "line_scale": t},
        _NUM, _WIDTH, _NUM, _NUM),
}
_LINE_SHAPES = ("indicator", "bump", "steps", "atoms")
_POINTS = st.lists(st.one_of(st.floats(-12.0, 12.0),
                             st.floats(CIRCLE_OFFSET - 2.0, CIRCLE_OFFSET + 3.0),
                             st.sampled_from([0.0, -1.0, 1.0, CIRCLE_OFFSET])),
                   min_size=1, max_size=40)


@st.composite
def _functions(draw):
    """A shape, a Birkhoff average (translation or composite, depth <= 8) of
    one, or a Boole transfer iterate (depth <= 3) of one."""
    route = draw(st.sampled_from(["shape", "birkhoff", "transfer"]))
    if route == "transfer":
        shape = draw(st.sampled_from(["indicator", "bump"]))
        f = build_function({"shape": shape, **draw(_SHAPE_FIELDS[shape])})
        return transfer_apply(f, make_boole(), draw(st.integers(0, 3)))
    sys = make_composite()
    if route == "birkhoff" and draw(st.booleans()):
        sys = make_translation(draw(_NONZERO))
    shape = draw(st.sampled_from(sorted(_SHAPE_FIELDS) if sys.kind == "composite"
                                 else _LINE_SHAPES))
    f = build_function({"shape": shape, **draw(_SHAPE_FIELDS[shape])}, sys)
    return f if route == "shape" else birkhoff(f, sys, draw(st.integers(1, 8)))


@settings(max_examples=200)
@given(f=_functions(), points=_POINTS, data=st.data())
def test_eval_of_a_split_is_the_eval_of_the_whole(f, points, data):
    # the contract block evaluation relies on: eval is pointwise, so any split
    # of the points gives the same bits
    assert set(_SHAPE_FIELDS) == set(_SHAPES)
    x = np.array(points)
    cuts = sorted(data.draw(st.lists(st.integers(0, x.size), max_size=4)))
    whole = np.asarray(f.eval(x), dtype=float)
    joined = np.concatenate([np.asarray(f.eval(part), dtype=float)
                             for part in np.split(x, cuts)])
    assert np.array_equal(whole.view(np.int64), joined.view(np.int64))


def test_estimators_do_not_depend_on_the_block_size(monkeypatch):
    f = birkhoff(indicator(0.0, 1.0), make_translation(0.5), 4)
    g, h = indicator(0.0, 1.0), triangular_bump(1.0, 1.5)
    w = window((-2.0, 3.0))

    def results():
        return (estimate_star_norm(f, w, 1000, seed=3),
                estimate_starstar_norm(f, w, 1000, seed=4),
                second_moment_check(g, w, 1000, seed=5),
                reduced_moment_check(g, h, w, 1000, seed=6))

    whole = results()
    monkeypatch.setattr(poisson, "_CHUNK", 7)
    assert results() == whole


def _replicate_sums_reference(w, R, seed, f):
    """Per-replicate sums from one whole-array draw, evaluation and cumsum."""
    rng = poisson._philox(seed)
    counts = rng.poisson(w.measure, size=R).astype(np.int64)
    vals = np.asarray(f.eval(window_position(w, rng.random(int(counts.sum())))), dtype=float)
    csum = np.empty(vals.size + 1)
    csum[0] = 0.0
    np.cumsum(vals, out=csum[1:])
    ends = np.cumsum(counts)
    return csum[ends] - csum[ends - counts]


@pytest.mark.parametrize("chunk", [7, poisson._CHUNK])
def test_replicate_sums_bit_equal_to_whole_array(monkeypatch, chunk):
    # a negative bump is -0.0 off its support, and so is every partial sum
    # of the all -0.0 function: the carried cumsum keeps those signs too
    minus_zero = TestFunction(eval=lambda x: np.full(np.shape(x), -0.0),
                              support=window((-2.0, 3.0)))
    monkeypatch.setattr(poisson, "_CHUNK", chunk)
    for f, w in ((triangular_bump(1.0, 0.5, -1.5), window((-2.0, 3.0))),
                 (minus_zero, window((-2.0, 3.0))),
                 (indicator(0.0, 1.0), window((-5.0, -1.0), (0.5, 40.0)))):
        got, = poisson._replicate_sums(w, 1000, 8, lambda pts: (poisson._eval_points(f, pts),))
        assert got.tobytes() == _replicate_sums_reference(w, 1000, 8, f).tobytes()


def test_replicate_checks_refuse_zero_replicates():
    g = indicator(0.0, 1.0)
    with pytest.raises(ValueError, match="at least one replicate"):
        second_moment_check(g, window((0.0, 1.0)), 0, seed=1)
    with pytest.raises(ValueError, match="at least one replicate"):
        reduced_moment_check(g, g, window((0.0, 1.0)), 0, seed=1)


# ---------------------------------------------------------------------------
# identities

def test_mecke_constant_functional():
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda xs, others: np.ones_like(xs), w, 400, seed=5)
    assert abs(lhs.mean - 1.0) <= 3 * lhs.std_error
    assert abs(rhs.mean - 1.0) < 1e-9
    assert rhs.std_error < 1e-12


def test_mecke_campbell():
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda xs, others: xs, w, 400, seed=6)
    assert abs(lhs.mean - 0.5) <= 3 * lhs.std_error
    assert abs(rhs.mean - 0.5) <= 3 * rhs.std_error + 1e-9


def test_mecke_count_coupled():
    w = window((0, 1))
    # the count of the configuration the point belongs to
    lhs, rhs = mecke_check(lambda xs, others: xs * (others.size + 1), w, 600, seed=8)
    assert abs(lhs.mean - rhs.mean) <= 3 * (lhs.std_error + rhs.std_error)
    # rhs per sample is (N+1) * int g, so its mean is (measure + 1) * 1/2
    assert abs(rhs.mean - 1.0) <= 3 * rhs.std_error


def test_mecke_position_coupled():
    # h reads where the other points are: both sides are (int_w x dx)^2
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda xs, others: xs * others.sum(), w, 2000, seed=9)
    for side in (lhs, rhs):
        assert abs(side.mean - 0.25) <= 3 * side.std_error


def test_mecke_left_side_removes_each_point():
    # with h the number of other points, replicate r contributes N(N - 1) on
    # the left and 2N on the right
    w = window((0, 2))
    lhs, rhs = mecke_check(lambda xs, others: np.full(xs.shape, float(others.size)),
                           w, 50, seed=3)
    counts = np.array([sample_process(w, 3, r).points.size for r in range(50)], dtype=float)
    assert lhs.mean == float(np.mean(counts * (counts - 1.0)))
    assert rhs.mean == pytest.approx(2.0 * counts.mean(), abs=1e-9)


def test_difference_check_exact():
    w = window((0, 3))
    for f in (indicator(0, 1), triangular_bump(1.5, 1.0, 0.7),
              piecewise_constant([0.0, 1.0, 2.0], [1 / 3, -2 / 7])):
        for r in range(5):
            s = sample_process(w, 31, replicate=r)
            for x in (0.1, 1.0, 1.7, 2.9):
                observed, expected = difference_check(f, s, x, compensator=0.123)
                assert observed == expected


def test_difference_check_flags_a_batch_dependent_eval():
    # an eval that scales by the number of points it is given is not
    # pointwise: adding x changes every other point's value too
    w = window((0, 3))
    f = TestFunction(eval=lambda x: np.asarray(x, dtype=float) * np.size(x), support=w)
    s = sample_process(w, 31, replicate=0)
    assert s.points.size == 4
    observed, expected = difference_check(f, s, 1.0, compensator=0.123)
    assert expected == 1.0
    assert observed == pytest.approx(1.0 + s.points.sum() + 4.0, abs=1e-12)


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
