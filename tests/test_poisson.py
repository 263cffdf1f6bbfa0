"""Sampling, centered integrals, the three norm oracles, and identity checks."""

import math
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from poisson_orlicz import measure, poisson
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


@pytest.mark.parametrize("w, seed, replicate", [(window((0, 2), (5, 6)), 123, 4),
                                                (window((0, 0.5)), 2 ** 64 - 1, 0),
                                                (window((-3, 40)), 7, 2 ** 64 - 1)])
def test_sample_process_is_a_fresh_philox_draw(w, seed, replicate):
    # the count, then that many uniforms, on a fresh Philox(key=(seed, replicate))
    rng = np.random.Generator(np.random.Philox(key=np.array((seed, replicate),
                                                            dtype=np.uint64)))
    u = rng.random(int(rng.poisson(w.measure)))
    got = sample_process(w, seed, replicate).points
    assert got.tobytes() == window_position(w, u).tobytes()


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


def test_exact_huge_atom_is_one_homogeneous():
    # values above 2^20 are put at unit scale by a power of two first, so
    # no lattice sum overflows: E|N - 1| = 2/e for N ~ Poisson(1)
    assert star_norm_exact(SimpleFunction(((1e308, 1.0),))) == pytest.approx(
        2.0 * math.exp(-1.0) * 1e308, rel=1e-12)
    # values with largest |v| in [1/2, 1) are the unit-scale form itself, so
    # scaling by 2^1000 scales the answer exactly
    atoms = ((0.75, 1.3), (-0.6, 2.0), (0.3125, 0.5))
    big = tuple((v * 2.0 ** 1000, m) for v, m in atoms)
    assert star_norm_exact(SimpleFunction(big)) == star_norm_exact(SimpleFunction(atoms)) * 2.0 ** 1000
    assert starstar_norm_exact(SimpleFunction(big)) == starstar_norm_exact(SimpleFunction(atoms)) * 2.0 ** 1000
    assert (abs_moment_exact(SimpleFunction(big), center=0.5 * 2.0 ** 1000)
            == abs_moment_exact(SimpleFunction(atoms), center=0.5) * 2.0 ** 1000)
    # a moment beyond the float range is inf, without a warning
    assert star_norm_exact(SimpleFunction(((1.7e308, 30.0), (1.7e308, 30.0)))) == math.inf


_UNIT_VALUE = st.floats(0.001, 0.999).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=30, deadline=None)
@given(atoms=st.lists(st.tuples(_UNIT_VALUE, st.floats(0.01, 30.0)), min_size=1, max_size=4),
       top=st.floats(0.5, 0.999, exclude_min=True), frac=st.floats(-0.999, 0.999))
@example(atoms=[(1.0, 30.0), (0.137, 30.0), (0.029, 30.0), (-0.0077, 30.0),
                (0.00051, 30.0), (0.000033, 30.0)], top=0.9, frac=0.3)
def test_exact_oracles_scale_by_powers_of_two_bit_for_bit(atoms, top, frac):
    # 2^k f has its largest |v| in (2^(k-1), 2^k), above 2^20 for every k
    # here, and is put at unit scale first: its cutoffs and lattice are
    # those of f, and its moments 2^k times f's
    peak = max(abs(v) for v, _ in atoms)
    atoms = [(v * top / peak, m) for v, m in atoms]  # the largest |v| is top
    f = SimpleFunction(tuple(atoms))
    c = frac * top
    star, moment = star_norm_exact(f), abs_moment_exact(f, center=c)
    for k in (21, 100, 400, 511):
        g = SimpleFunction(tuple((math.ldexp(v, k), m) for v, m in atoms))
        assert star_norm_exact(g) == math.ldexp(star, k)
        assert abs_moment_exact(g, center=math.ldexp(c, k)) == math.ldexp(moment, k)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


_KS = np.arange(631)
_LOG_FACT = np.array([math.lgamma(k + 1.0) for k in range(700)])
_SMALLEST_NORMAL = 2.0 ** -1022


def _rounding_scale(ks, m):
    """(|k log m| + log k! + m) * 2^-53: one ulp of the largest term of the
    log-pmf at k, the size of the rounding either side's exp(log-pmf) makes."""
    return (np.abs(ks * math.log(m)) + _LOG_FACT[ks] + m) * 2.0 ** -53


def _tail(m, lo, size):
    """pmf(K) and the tail bound at K = lo .. lo + size - 1 for one mass m,
    from the package's table wide enough for them."""
    masses = np.array([m])
    table = poisson._poisson_table(masses, lo + size + poisson._TAIL_TERMS + 1)
    pmf, sf = poisson._tail_bounds(table, masses, np.array([lo]), size)
    return pmf[0], sf[0]


def _full_tail(m):
    """The cutoff search's tail bounds for its _CUTOFF_SCAN candidates, block
    by block as ``poisson._cutoffs`` builds them."""
    start = math.ceil(m)
    stop = start + poisson._CUTOFF_SCAN
    blocks = [_tail(m, lo, min(poisson._CUTOFF_BLOCK, stop - lo))
              for lo in range(start, stop, poisson._CUTOFF_BLOCK)]
    return (np.arange(start, stop), np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]))


# Both sides compute a pmf term as exp of a log-pmf whose rounding is a few
# ulp of its largest term, |k log m| + log k! + m (up to 2.1e4 here), so the
# relative gap is a small multiple of _rounding_scale: 16 of them (at most
# 3.7e-11, at k = 630 and m = 1e-12) leaves room for a few ulp on each side;
# the tail, a sum of such terms, gets the scale of its leading term.  Below
# the smallest normal float the gap is absolute, up to that float: scipy
# flushes a subnormal tail to 0.
def _gap(tol, want):
    return np.where(want >= _SMALLEST_NORMAL, tol * want, _SMALLEST_NORMAL)


@settings(max_examples=300)
@given(m=_log_uniform(1e-12, 30.0))
@example(m=30.0)
@example(m=1.0)
def test_poisson_tables_match_scipy_stats(m):
    tol = 16.0 * _rounding_scale(_KS, m)
    want = stats.poisson.pmf(_KS, m)
    got = poisson._poisson_table(np.array([m]), _KS.size)[0]
    assert np.all(np.abs(got - want) <= _gap(tol, want))
    ks, _, sf = _full_tail(m)
    want = stats.poisson.sf(ks, m)
    assert np.all(np.abs(sf - want) <= _gap(16.0 * _rounding_scale(ks + 1, m), want))


@pytest.mark.parametrize("m", [1e-12, 0.3, 1.0, 7.3, 29.9, 30.0])
def test_poisson_tail_bounds_the_true_tail(m):
    # against P(N > K) = P(K + 1, m), the regularized lower incomplete gamma,
    # at 50 digits: the tail is never below it by more than rounding, and
    # the geometric remainder adds nothing visible above it
    mpmath = pytest.importorskip("mpmath")
    ks, pmf, sf = _full_tail(m)
    start = int(ks[0])
    for k in sorted({start, start + 1, start + 10, start + 63, start + 64, start + 65,
                     start + 127, start + 128, start + 300, start + 599}):
        i = k - start
        with mpmath.workdps(50):
            true = float(mpmath.gammainc(k + 1, 0, m, regularized=True))
            true_pmf = float(mpmath.exp(k * mpmath.log(m) - mpmath.loggamma(k + 1) - m))
        if true < _SMALLEST_NORMAL:
            assert sf[i] < _SMALLEST_NORMAL
            continue
        tol = 16.0 * float(_rounding_scale(np.array([k + 1]), m)[0])
        assert sf[i] >= true * (1.0 - tol), (k, sf[i], true)
        assert sf[i] <= true * (1.0 + tol), (k, sf[i], true)
        assert abs(pmf[i] - true_pmf) <= 16.0 * float(_rounding_scale(np.array([k]), m)[0]) * true_pmf


@pytest.mark.parametrize("m", [0.3, 7.3, 30.0])
def test_geometric_remainder_alone_bounds_the_tail(monkeypatch, m):
    # with no pmf terms summed past the block, the tail at its last K is the
    # remainder alone: it must still bound P(N > K), and not by a lot
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(poisson, "_TAIL_TERMS", 0)
    start = math.ceil(m)
    for lo in (start, start + 64):
        _, sf = _tail(m, lo, 64)
        for k in (lo, lo + 32, lo + 63):
            with mpmath.workdps(50):
                true = float(mpmath.gammainc(k + 1, 0, m, regularized=True))
            tol = 16.0 * float(_rounding_scale(np.array([k + 1]), m)[0])
            assert true * (1.0 - tol) <= sf[k - lo] <= 1.5 * true, (k, sf[k - lo], true)


def _cutoff_whole_table(v, m, other_weight, budget, centered):
    """The cutoff search on all _CUTOFF_SCAN candidates at once, from the
    package's own tables; None when no candidate meets the budget."""
    ks, pmf, sf = _full_tail(m)
    if centered:
        bounds = sf * other_weight + abs(v) * m * pmf
    else:
        bounds = sf * other_weight + abs(v) * m * (pmf + sf)
    ok = np.nonzero(bounds <= budget)[0]
    return None if not ok.size else (int(ks[ok[0]]), float(bounds[ok[0]]))


# with v = 0 and unit other weight the bound is the tail at K, so a budget
# equal to the tail at start + j puts the cutoff at the j-th candidate: here
# the edges of the first two blocks of 64
_EDGE_M = 2.5
_EDGE_TAIL = _full_tail(_EDGE_M)[2]


@settings(max_examples=300)
@given(v=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6), _log_uniform(1e-6, 1e6).map(lambda x: -x)),
       m=_log_uniform(1e-12, 30.0),
       other_weight=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6)),
       budget=st.one_of(_log_uniform(1e-300, 1e-3), st.sampled_from([0.0, -1e-12])),
       centered=st.booleans())
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(_EDGE_TAIL[0]), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(_EDGE_TAIL[63]), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(_EDGE_TAIL[64]), centered=False)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(_EDGE_TAIL[127]), centered=True)
@example(v=0.0, m=_EDGE_M, other_weight=1.0, budget=float(_EDGE_TAIL[128]), centered=False)
def test_blocked_cutoff_is_bit_equal_to_the_whole_table(v, m, other_weight, budget, centered):
    want = _cutoff_whole_table(v, m, other_weight, budget, centered)
    if want is None:
        with pytest.raises(ValueError, match="cannot certify the tail bound"):
            _cutoffs([(v, m, other_weight)], budget, centered)
    else:
        assert _cutoffs([(v, m, other_weight)], budget, centered) == [want]


def _cutoffs(atoms, budget, centered):
    """``poisson._cutoffs`` on (value, mass, other weight) triples, as a list
    of (K, bound) pairs; its table must hold the pmf of every mass at every
    k <= K."""
    v, m, other = (np.array(c, dtype=float) for c in zip(*atoms))
    caps, bounds, table = poisson._cutoffs(v, m, other, np.full(m.size, budget),
                                           np.full(m.size, centered))
    for mass, cap, row in zip(m, caps, table):
        assert np.array_equal(row[:cap + 1], poisson._poisson_table(np.array([mass]), cap + 1)[0])
    return [(int(k), float(b)) for k, b in zip(caps, bounds)]


_CUTOFF_ATOM = st.tuples(
    st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6), _log_uniform(1e-6, 1e6).map(lambda x: -x)),
    _log_uniform(1e-12, 30.0),
    st.one_of(st.just(0.0), _log_uniform(1e-6, 1e6)))


@settings(max_examples=200)
@given(atoms=st.lists(_CUTOFF_ATOM, min_size=1, max_size=6),
       budget=st.one_of(_log_uniform(1e-300, 1e-3), st.sampled_from([0.0, -1e-12])),
       centered=st.booleans())
# cutoffs in the second, first and fourth blocks of 64 (K = 103, 1, 241)
@example(atoms=[(0.0, _EDGE_M, 1.0), (0.0, 0.5, 0.0), (1.0, 29.0, 1e6)],
         budget=float(_EDGE_TAIL[100]), centered=True)
# two equal atoms at the first candidate of the second block, one in the first
@example(atoms=[(0.0, _EDGE_M, 1.0)] * 2 + [(1e-6, 1e-12, 1e-6)],
         budget=float(_EDGE_TAIL[64]), centered=False)
def test_cutoffs_of_several_atoms_are_each_the_whole_table(atoms, budget, centered):
    # all atoms are searched block by block at once; each keeps the cutoff
    # its own whole-table search finds, and one atom without one refuses all
    want = [_cutoff_whole_table(v, m, other, budget, centered) for v, m, other in atoms]
    if None in want:
        with pytest.raises(ValueError, match="cannot certify the tail bound"):
            _cutoffs(atoms, budget, centered)
    else:
        assert _cutoffs(atoms, budget, centered) == want


@settings(max_examples=200)
@given(atoms=st.lists(st.tuples(
    _CUTOFF_ATOM, st.one_of(_log_uniform(1e-300, 1e-3), st.sampled_from([0.0, -1e-12])),
    st.booleans()).map(lambda a: (*a[0], a[1], a[2])), min_size=1, max_size=12))
@example(atoms=[(0.0, _EDGE_M, 1.0, float(_EDGE_TAIL[100]), True),
                (1.0, 29.0, 1e6, 1e-12, False), (-2.0, 0.5, 0.0, 1e-13, True)])
def test_cutoffs_with_per_atom_budgets_and_centerings_are_each_their_own(atoms):
    # the atoms of many functions, each with its own budget and centering,
    # searched together: each keeps the cutoff of its own whole-table search
    want = [_cutoff_whole_table(v, m, other, budget, centered)
            for v, m, other, budget, centered in atoms]
    v, m, other, budget = (np.array(c, dtype=float) for c in list(zip(*atoms))[:4])
    centered = np.array([a[4] for a in atoms])
    if None in want:
        with pytest.raises(ValueError, match="cannot certify the tail bound"):
            poisson._cutoffs(v, m, other, budget, centered)
        return
    caps, bounds, table = poisson._cutoffs(v, m, other, budget, centered)
    assert [(int(k), float(b)) for k, b in zip(caps, bounds)] == want
    for mass, cap, row in zip(m, caps, table):
        assert np.array_equal(row[:cap + 1], poisson._poisson_table(np.array([mass]), cap + 1)[0])


@pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan])
@pytest.mark.filterwarnings("error")
def test_exact_refuses_a_non_finite_center(center):
    # refused before any table is built, with the centre in the message
    for atoms in ((), ((1.0, 0.5), (-2.0, 3.0))):
        with pytest.raises(ValueError, match=f"finite center, got {center}"):
            abs_moment_exact(SimpleFunction(atoms), center=center)


def _stated_error(f, center):
    """The exact oracles' stated error at unit scale (2^e = 1): half the
    tail budget, half a grid step per lattice merge, and the rounding
    estimate 1e-13 (sum |v| m + |c|)."""
    v, m = f.values_masses()
    return (0.5 * poisson._TAIL_EPS + 0.5 * len(f.atoms) * poisson._LATTICE_RES
            + 1e-13 * (float(np.abs(v) @ m) + abs(center)))


_GRID_MASSES = (0.3, 1.0, 4.5, 12.0, 25.0, 29.9)


@pytest.mark.parametrize("v", [0.75, 1.0, 3.0])
def test_exact_oracles_on_equal_atoms_within_the_stated_error(v):
    # k equal atoms are v N with N ~ Poisson(k m): E|v N| = v k m, and
    # E|v (N - k m)| = v 2 e^-lam lam^(n+1) / n! with lam = k m, n = floor(lam).
    # The uncentered values miss by up to 1.3e-11 (v = 3, k m = 150), past the
    # tail budget alone: the pmf terms carry the rounding of k log m - log k! - m
    mpmath = pytest.importorskip("mpmath")
    for k in range(1, 7):
        for m in _GRID_MASSES:
            f = SimpleFunction(((v, m),) * k)
            with mpmath.workdps(50):
                lam = k * mpmath.mpf(m)
                n = int(mpmath.floor(lam))
                centered = v * 2 * mpmath.exp(-lam) * lam ** (n + 1) / mpmath.factorial(n)
                uncentered = v * lam
                got = star_norm_exact(f)
                assert abs(got - centered) <= _stated_error(f, v * float(lam)), (k, m)
                got = starstar_norm_exact(f)
                assert abs(got - uncentered) <= _stated_error(f, 0.0), (k, m)


@pytest.mark.parametrize("v", [-3.0, 0.75, 1.0])
def test_exact_single_atom_about_a_center_within_the_stated_error(v):
    # E|v N - c| = |v| ((m - t) + 2 sum_{k <= t} (t - k) pmf(k)), t = c / v
    mpmath = pytest.importorskip("mpmath")
    for m in _GRID_MASSES:
        for c in (v * 0.5 * m, v * (m + 0.3), v * (2.0 * m + 1.0), -v, 0.0):
            f = SimpleFunction(((v, m),))
            with mpmath.workdps(50):
                t = mpmath.mpf(c) / v
                below = sum((t - k) * mpmath.exp(k * mpmath.log(m) - mpmath.loggamma(k + 1) - m)
                            for k in range(max(int(mpmath.floor(t)) + 1, 0)))
                want = abs(v) * ((m - t) + 2 * below)
                got = abs_moment_exact(f, center=c)
                assert abs(got - want) <= _stated_error(f, c), (m, c)


# ---------------------------------------------------------------------------
# frozen reference: the exact oracle as it stood before its whole-atom array
# passes, with a cutoff search per atom, np.unique merges and a re-sort of
# block A; the package's oracle must give its bits and refusals

_REF_TAIL_EPS, _REF_RES = 1e-12, 1e-12
_REF_SCAN, _REF_BLOCK, _REF_TERMS = 600, 64, 32
_REF_KS = np.arange(700, dtype=float)


def _ref_pmf(ks, m):
    return np.exp(_REF_KS[ks] * math.log(m) - _LOG_FACT[ks] - m)


def _ref_tail(lo, hi, m):
    end = hi + _REF_TERMS
    p = _ref_pmf(slice(lo, end + 1), m)
    terms = p[1:]
    terms[-1] /= 1.0 - m / (end + 1)
    return p[:hi - lo], np.cumsum(terms[::-1])[:lo - hi - 1:-1]


def _ref_cutoff(v, m, other_weight, budget, centered):
    start = int(math.ceil(m))
    stop = start + _REF_SCAN
    for lo in range(start, stop, _REF_BLOCK):
        pmf, sf = _ref_tail(lo, min(lo + _REF_BLOCK, stop), m)
        bounds = sf * other_weight + abs(v) * m * (pmf if centered else pmf + sf)
        ok = np.flatnonzero(bounds <= budget)
        if ok.size:
            i = int(ok[0])
            return lo + i, float(bounds[i])
    raise ValueError("cannot certify the tail bound")


def _ref_merge(vals, probs):
    grid = np.round(vals / _REF_RES)
    uniq, inverse = np.unique(grid, return_inverse=True)
    return uniq * _REF_RES, np.bincount(inverse, weights=probs)


def _ref_block(block):
    vals, probs = np.zeros(1), np.ones(1)
    for v, m, cap in block:
        ks = np.arange(cap + 1)
        vals = (vals[:, None] + (v * ks)[None, :]).ravel()
        probs = (probs[:, None] * _ref_pmf(ks, m)[None, :]).ravel()
        vals, probs = _ref_merge(vals, probs)
    return vals, probs


def _ref_abs_moment(f, center):
    atoms = f.atoms
    if len(atoms) > 6:
        raise ValueError(f"exact oracle handles at most 6 atoms, got {len(atoms)}")
    if any(m > 30.0 for _, m in atoms):
        raise ValueError("exact oracle handles masses up to 30.0")
    if not atoms:
        return 0.0 if center is None else abs(center)
    v = np.array([a[0] for a in atoms])
    m = np.array([a[1] for a in atoms])
    top = max(float(np.abs(v).max()), 0.0 if center is None else abs(center))
    e = math.frexp(top)[1] if not 2.0 ** -20 <= top <= 2.0 ** 20 else 0
    if e:
        v = np.ldexp(v, -e)
        if center is not None:
            center = math.ldexp(center, -e)
    centered = center is None
    extra = 0.0 if centered else abs(center)
    shift = -float(np.sum(v * m)) if centered else -center
    weights = np.abs(v) * (np.sqrt(m) if centered else m)
    caps, tail_bound = [], 0.0
    for i in range(len(atoms)):
        other = float(weights.sum() - weights[i]) + extra
        cap, b = _ref_cutoff(float(v[i]), float(m[i]), other, _REF_TAIL_EPS / len(atoms), centered)
        caps.append(cap)
        tail_bound += b
    blocks, log_size = ([], []), [0.0, 0.0]
    for i in sorted(range(len(atoms)), key=lambda j: -caps[j]):
        side = 0 if log_size[0] <= log_size[1] else 1
        blocks[side].append((float(v[i]), float(m[i]), caps[i]))
        log_size[side] += math.log(caps[i] + 1)
    va, pa = _ref_block(blocks[0])
    vb, pb = _ref_block(blocks[1])
    order = np.argsort(va, kind="stable")
    va, pa = va[order], pa[order]
    cum_p = np.concatenate(([0.0], np.cumsum(pa)))
    cum_pv = np.concatenate(([0.0], np.cumsum(pa * va)))
    tot_p, tot_pv = cum_p[-1], cum_pv[-1]
    vb = vb + shift
    idx = np.searchsorted(va, -vb, side="left")
    per_b = tot_pv + vb * tot_p - 2.0 * (cum_pv[idx] + vb * cum_p[idx])
    value = float(np.sum(pb * per_b))
    try:
        return math.ldexp(value + 0.5 * tail_bound, e)
    except OverflowError:
        return math.inf


def _outcome(oracle, f, center):
    try:
        return repr(oracle(f, center))  # repr round-trips every float bit
    except ValueError as exc:
        return f"ValueError: {exc}"


def _public_exact(f, center):
    """The public exact oracle of one (f, center) pair: a None center is
    the mean (``star_norm_exact``), any other is ``abs_moment_exact``'s."""
    return star_norm_exact(f) if center is None else abs_moment_exact(f, center)


_SIGNED = _log_uniform(1e-300, 1e300).flatmap(lambda x: st.sampled_from([x, -x]))
# one mass in twenty is past the oracle's domain, so refusals are compared too
_MASS = st.integers(0, 19).flatmap(
    lambda i: st.just(30.5) if i == 0 else _log_uniform(1e-12, 30.0))


@st.composite
def _oracle_inputs(draw):
    atoms = draw(st.lists(st.tuples(_SIGNED, _MASS), min_size=1, max_size=6))
    kind = draw(st.sampled_from(["centered", "uncentered", "explicit", "near the mean"]))
    if kind == "centered":
        return atoms, None
    if kind == "uncentered":
        return atoms, 0.0
    if kind == "explicit":
        return atoms, draw(_SIGNED)
    return atoms, draw(st.floats(-2.0, 2.0)) * math.fsum(v * m for v, m in atoms)


@settings(max_examples=400, deadline=None)
@given(inputs=_oracle_inputs())
@example(inputs=(((3.0, 29.9),) * 6, 0.0))
@example(inputs=(((1.0, 0.25), (-1.0, 0.25)), None))
@example(inputs=(((1e-300, 30.0), (-1e300, 1e-12)), 1e-300))
@example(inputs=(((1.0, 1.0), (1.0, 2.0), (2.0, 0.5), (0.5, 4.0)), 1.5))
# a mass whose np.log is one ulp off math.log, which moves the bits
@example(inputs=(((1.0, 2.6304043022953887), (-0.7, 1.3)), None))
@example(inputs=(((1.0, 0.1),) * 7, None))
@example(inputs=(((1.0, 30.0), (2.0, 30.5)), 0.0))
def test_exact_oracle_is_bit_equal_to_the_frozen_reference(inputs):
    atoms, center = inputs
    f = SimpleFunction(tuple(atoms))
    assert _outcome(_public_exact, f, center) == _outcome(_ref_abs_moment, f, center)


# ---------------------------------------------------------------------------
# the batched exact oracle: every pair's bits and the loop's first refusal

def _loop_outcome(pairs):
    """What a loop of single calls gives: every repr, or its first error."""
    try:
        return [repr(_public_exact(f, c)) for f, c in pairs]
    except ValueError as exc:
        return f"ValueError: {exc}"


def _batch_outcome(pairs):
    try:
        return [repr(x) for x in poisson._exact_abs_moments(pairs)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def _pairs(batch):
    return [(SimpleFunction(tuple(atoms)), center) for atoms, center in batch]


# tiny values tie on the first atom's grid and take the sorting merge
_TIED_BATCH = [([(1.0, 2.0), (1e-13, 3.0)], None), ([(-3e-13, 4.0)], 0.0),
               ([(1e-300, 30.0), (-1e300, 1e-12)], 1e-300),
               ([(2.5, 0.7), (-1.5, 12.0), (1e-14, 0.2)], 0.3)]


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(_oracle_inputs(), min_size=1, max_size=12))
@example(batch=_TIED_BATCH)
@example(batch=[(((3.0, 29.9),) * 6, 0.0), (((1.0, 0.25), (-1.0, 0.25)), None),
                (((1.0, 0.1),), 5.0), ((), None), ((), -2.0)])
def test_exact_batch_is_bit_equal_to_its_single_calls(batch):
    # each pair of a batch mixing centres, atom counts (so budgets) and
    # refusals gives the bits of its own single call, or the batch raises
    # what the loop of single calls raises first
    pairs = _pairs(batch)
    assert _batch_outcome(pairs) == _loop_outcome(pairs)


@pytest.mark.parametrize("group", [1, 2, 1000])
def test_exact_batch_bits_do_not_depend_on_the_group_size(monkeypatch, group):
    rng = np.random.default_rng(5)
    pairs = []
    for i in range(40):
        k = int(rng.integers(1, 7))
        atoms = tuple(zip((rng.choice([-1.0, 1.0], k) * rng.uniform(0.05, 5.0, k)).tolist(),
                          np.exp(rng.uniform(math.log(1e-3), math.log(30.0), k)).tolist()))
        pairs.append((SimpleFunction(atoms), [None, 0.0, float(rng.normal())][i % 3]))
    pairs += _pairs(_TIED_BATCH)
    want = _loop_outcome(pairs)
    monkeypatch.setattr(poisson, "_EXACT_GROUP", group)
    assert _batch_outcome(pairs) == want


_OK = ([(1.0, 2.0), (-0.5, 3.0)], None)
_MASS_REFUSED = ([(1.0, 30.5)], None)
_ATOMS_REFUSED = ([(1.0, 0.1)] * 7, 0.0)
_CENTER_REFUSED = ([(1.0, 0.1)], math.nan)


@pytest.mark.parametrize("group", [1, 3, 64])
@pytest.mark.parametrize("batch, first", [
    ([_OK, _MASS_REFUSED, _ATOMS_REFUSED], "masses up to 30.0"),
    ([_ATOMS_REFUSED, _OK, _MASS_REFUSED], "at most 6 atoms, got 7"),
    ([_OK, _OK, _OK, _CENTER_REFUSED, _MASS_REFUSED], "finite center, got nan"),
], ids=["mass", "atoms", "center"])
def test_exact_batch_raises_the_first_refusal(monkeypatch, group, batch, first):
    monkeypatch.setattr(poisson, "_EXACT_GROUP", group)
    pairs = _pairs(batch)
    want = _loop_outcome(pairs)
    assert want.startswith("ValueError: exact oracle") and first in want
    assert _batch_outcome(pairs) == want


@pytest.mark.parametrize("group", [1, 64])
def test_exact_batch_raises_an_uncertified_tail_before_a_later_refusal(monkeypatch, group):
    # with one candidate K = ceil(m), a mass of 29.5 cannot meet its budget:
    # the loop raises that before it reaches the refused pair, and so does
    # the batch; put after the refusal, the refusal comes first
    monkeypatch.setattr(poisson, "_CUTOFF_SCAN", 1)
    monkeypatch.setattr(poisson, "_EXACT_GROUP", group)
    tiny, uncertified = ([(1.0, 1e-9)], 0.0), ([(1.0, 29.5)], None)
    pairs = _pairs([tiny, uncertified, _MASS_REFUSED])
    assert _loop_outcome(pairs) == _batch_outcome(pairs) == \
        "ValueError: cannot certify the tail bound"
    pairs = _pairs([tiny, _MASS_REFUSED, uncertified])
    assert _loop_outcome(pairs) == _batch_outcome(pairs) == \
        "ValueError: exact oracle handles masses up to 30.0"


# ---------------------------------------------------------------------------
# characteristic-function oracle

def test_hsu_single_atom():
    got = star_norm_hsu(SimpleFunction(((-1.0, 0.5),)), tol=1e-6)
    assert abs(got - math.exp(-0.5)) < 1e-6


def test_hsu_vs_exact_skellam():
    f = SimpleFunction(((1.0, 0.25), (-1.0, 0.25)))
    assert abs(star_norm_hsu(f, tol=1e-6) - star_norm_exact(f)) < 1e-6 + 1e-12


def test_hsu_zero_and_piecewise_atoms():
    assert star_norm_hsu(SimpleFunction()) == 0.0
    got = star_norm_hsu(measure.piecewise_to_simple(indicator(0, 1, scale=-1.0)), tol=1e-5)
    assert abs(got - 2 * math.exp(-1)) < 1e-5


def _hsu_floor(f):
    """The smallest error bound star_norm_hsu proves for f: the bound it
    refuses the least positive tol with."""
    with pytest.raises(QuadratureError) as info:
        star_norm_hsu(f, tol=5e-324)
    return info.value.err_bound


def test_hsu_nonconvergence_reports_partial(monkeypatch):
    # a tol the capped plan cannot prove is refused before any sweep, with
    # the floor as its bound
    monkeypatch.setattr(poisson, "_HSU_MAX_PANELS", 100)
    sweeps = []
    sweep = poisson._hsu_sweep
    monkeypatch.setattr(poisson, "_hsu_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    f = SimpleFunction(((1.0, 0.5),))
    with pytest.raises(QuadratureError) as info:
        star_norm_hsu(f, tol=1e-6)
    assert info.value.err_bound > 1e-6
    assert info.value.err_bound == _hsu_floor(f)
    assert sweeps == []


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
    assert _hsu_floor(g) == scale * _hsu_floor(f)


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
    h = 4.0 * poisson._hsu_plan(v, m, 2e-7).h
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
    # the value is within tol, or, when the cap cannot prove tol, the capped
    # sweep within the floor its refusal reports
    f = SimpleFunction(tuple(atoms))
    with mock.patch.object(poisson, "_HSU_MAX_PANELS", cap):
        try:
            value, bound = star_norm_hsu(f, tol=1e-6), 1e-6
        except QuadratureError as exc:
            bound = exc.err_bound
            value = star_norm_hsu(f, tol=bound)
    assert abs(value - star_norm_exact(f)) <= bound + 1e-12


@settings(max_examples=40)
@given(atoms=st.lists(_HSU_ATOM, min_size=1, max_size=4),
       cap=st.sampled_from([300, 3000]),
       ratio=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 4.0))
def test_hsu_meets_tol_exactly_when_its_floor_does(atoms, cap, ratio):
    # every refusal reads one plan under one panel cap: a tol at or above
    # the floor is met, and a tol below it is refused with the floor as its
    # bound
    f = SimpleFunction(tuple(atoms))
    with mock.patch.object(poisson, "_HSU_MAX_PANELS", cap):
        floor = _hsu_floor(f)
        tol = ratio * floor
        try:
            value = star_norm_hsu(f, tol=tol)
        except QuadratureError as exc:
            assert floor > tol
            assert exc.err_bound == floor
        else:
            assert floor <= tol
            assert abs(value - star_norm_exact(f)) <= tol + 1e-12


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


def test_estimate_star_declares_a_sliver_the_window_misses():
    # the window leaves out [1, 1 + 5e-13], which carries L1 mass 0.5: the
    # sampler and the truncation bound share one exact cover test, so the
    # points drawn on [0, 1] report that mass as truncation
    f = piecewise_constant([0.0, 1.0, 1.0 + 5e-13], [1.0, 1e12])
    est = estimate_star_norm(f, window((0, 1)), 1000, 3)
    assert est.truncation_bound >= 0.5


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
# cell counts against points

# Birkhoff averages with a simple form: one atom on translation, several
# for a step function and for the circle plus a line piece
_COMPOSITE = make_composite(circumference=1.0, angle=0.3, step=1.0)
_SIMPLE_ROWS = {
    "indicator_depth_1": birkhoff(indicator(0.0, 1.0), make_translation(1.0), 1),
    "indicator_depth_8": birkhoff(indicator(0.0, 1.0), make_translation(1.0), 8),
    "steps_depth_4": birkhoff(piecewise_constant([-1.0, 0.3, 1.1, 2.5], [1.5, 0.0, -2.0]),
                              make_translation(1.0), 4),
    "circle_plus_indicator_depth_3": birkhoff(
        build_function({"shape": "circle_plus_indicator", "lo": CIRCLE_OFFSET - 2.5,
                        "hi": CIRCLE_OFFSET - 1.0, "scale": 2.0}, _COMPOSITE), _COMPOSITE, 3),
}
# the number of standard errors within which the two samplers must agree:
# each comparison has a false-fail chance of about 6e-7
_AGREE_SE = 5.0


def _stats(sums: np.ndarray, c: float,
           counts: np.ndarray | None = None) -> list[tuple[float, float]]:
    """(estimate, standard error) of the mean, the variance and E|N - c|,
    over per-replicate sums or a histogram: counts[i] replicates hold sums[i]."""
    n = np.ones(sums.size) if counts is None else counts.astype(float)
    R = float(n.sum())
    mean = float(n @ sums) / R
    dev = sums - mean
    s2 = float(n @ dev ** 2) / (R - 1)
    var_s2 = max(float(n @ dev ** 4) / R - s2 * s2, 0.0) / R
    a = np.abs(sums - c)
    a_mean = float(n @ a) / R
    a_s2 = float(n @ (a - a_mean) ** 2) / (R - 1)
    return [(mean, math.sqrt(s2 / R)), (s2, math.sqrt(var_s2)),
            (a_mean, math.sqrt(a_s2 / R))]


@pytest.mark.parametrize("name", sorted(_SIMPLE_ROWS))
def test_cell_counts_and_points_agree_in_law(name):
    # N(g) by its histogram of cell counts and by points: mean, variance and
    # E|N - c| within _AGREE_SE standard errors of each other, at R = 10^5,
    # over three seeds
    g = _SIMPLE_ROWS[name]
    atoms = measure.piecewise_to_simple(g).atoms
    c = sum(v * m for v, m in atoms)
    R = 10 ** 5
    for seed in (1, 2, 3):
        values, counts = poisson._count_cells(atoms, R, seed)
        assert int(counts.sum()) == R
        points, = poisson._replicate_sums(g.support, R, seed + 100,
                                          lambda pts: (g.eval(pts),))
        for (x, sx), (y, sy) in zip(_stats(values, c, counts), _stats(points, c)):
            assert abs(x - y) <= _AGREE_SE * math.hypot(sx, sy), (name, seed, x, y)


@pytest.mark.parametrize("depth", [1, 2, 5, 16])
def test_one_atom_rows_by_counts_match_the_exact_oracle(depth):
    # a translation average of 1_[0,1] is the one atom (1/n, n): counted,
    # its star norm lies within 4 se of the oracle at each of three seeds
    g = birkhoff(indicator(0.0, 1.0), make_translation(1.0), depth)
    s = measure.piecewise_to_simple(g)
    assert len(s.atoms) == 1
    exact = star_norm_exact(s)
    for seed in (11, 12, 13):
        est = estimate_star_norm(g, g.support, 20_000, seed)
        assert abs(est.mean - exact) <= 4.0 * est.std_error, (depth, seed)


def _chi_square_p(values: np.ndarray, counts: np.ndarray, m: float) -> float:
    """p-value of a one-atom histogram (value k held by counts replicates)
    against Poisson(m): at most 20 bins cut near the pmf's quantiles (those
    of its normal approximation, which scipy computes at any m), the outer
    two open-ended."""
    R = int(counts.sum())
    quantiles = stats.norm.ppf(np.arange(1, 20) / 20.0, m, math.sqrt(m))
    edges = np.unique(np.maximum(np.floor(quantiles), 0.0)).astype(np.int64)
    cdf = np.concatenate(([0.0], stats.poisson.cdf(edges, m), [1.0]))
    expected = R * np.diff(cdf)
    observed = np.bincount(np.searchsorted(edges, values.astype(np.int64)),
                           weights=counts, minlength=expected.size)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, expected.size - 1))


class _Recorded:
    """A Generator that records the name of each method it is asked for."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


def _record_draws(monkeypatch) -> list:
    calls = []
    philox = poisson._philox
    monkeypatch.setattr(poisson, "_philox", lambda *key: _Recorded(philox(*key), calls))
    return calls


@pytest.mark.parametrize("m, R", [(0.01, 10 ** 5), (1.0, 10 ** 5), (32.0, 10 ** 5),
                                  (2000.0, 1000), (4000.0, 1000), (1e12, 1000)])
def test_one_atom_histogram_has_the_poisson_law(m, R, monkeypatch):
    # the histogram of R counts against the Poisson(m) pmf at three seeds;
    # a window of 2 _half_width + 1 values that fits in R is split by
    # binomials, a wider one (m = 4000 and 10^12 at R = 1000) is R direct draws
    direct = m >= 4000.0
    assert poisson._drawn_directly(m, R) is direct
    calls = _record_draws(monkeypatch)
    for seed in (1, 2, 3):
        calls.clear()
        values, counts = poisson._count_cells(((1.0, m),), R, seed)
        assert int(counts.sum()) == R and counts.min() >= 1
        assert set(calls) == ({"poisson"} if direct else {"binomial"}), calls
        assert _chi_square_p(values, counts, m) > 1e-3, (m, seed)


@pytest.mark.parametrize("m", [1.0, 32.0])
def test_replicates_past_the_window_are_drawn_from_the_tails(m, monkeypatch):
    # a window of the values within e^-1 of the mode's pmf leaves about a
    # fifth of the replicates in the two tails, drawn by inversion: the
    # histogram keeps the Poisson law
    monkeypatch.setattr(poisson, "_WINDOW_LOG", 1.0)
    calls = _record_draws(monkeypatch)
    for seed in (1, 2, 3):
        values, counts = poisson._count_cells(((1.0, m),), 10 ** 5, seed)
        assert _chi_square_p(values, counts, m) > 1e-3, (m, seed)
    assert "random" in calls


def _crow(v: float, m: float) -> float:
    """E|v (N - m)| for N ~ Poisson(m) (Crow, Biometrika 45, 1958):
    2 |v| e^-m m^(floor(m) + 1) / floor(m)!."""
    k = math.floor(m)
    return 2.0 * abs(v) * math.exp(-m + (k + 1) * math.log(m) - math.lgamma(k + 1.0))


def _z_scores(atoms, exact: float, R: int, seeds) -> list[float]:
    c = sum(v * m for v, m in atoms)
    z = []
    for seed in seeds:
        values, counts = poisson._count_cells(atoms, R, seed)
        est = poisson._mc_estimate(np.abs(values - c), seed, counts=counts)
        z.append((est.mean - exact) / est.std_error)
    return z


@pytest.mark.parametrize("v, m", [(1.0 / 32.0, 32.0), (1.0, 1.0), (-2.5, 0.3)])
def test_one_atom_mean_and_se_match_crows_closed_form(v, m):
    # over 200 seeds at R = 10^4 the z-scores against Crow's closed form have
    # mean 0 and SD 1, each within about 3.5 of its own standard errors, and
    # the standard errors estimate sqrt(Var |v (N - m)| / R) within 1%
    R = 10 ** 4
    exact = _crow(v, m)
    sd = math.sqrt(v * v * m - exact * exact)
    z = np.array(_z_scores(((v, m),), exact, R, range(1, 201)))
    assert abs(z.mean()) <= 0.25 and 0.85 <= z.std(ddof=1) <= 1.15, (z.mean(), z.std(ddof=1))
    values, counts = poisson._count_cells(((v, m),), R, 1)
    se = poisson._mc_estimate(np.abs(values - v * m), 1, counts=counts).std_error
    assert abs(se * math.sqrt(R) / sd - 1.0) <= 0.01


@pytest.mark.parametrize("atoms", [((1.0, 1.0), (-1.0, 1.0)),
                                   ((0.5, 2.0), (-0.3, 0.7), (1.2, 0.2), (-2.0, 0.05))])
def test_nested_rows_match_the_exact_oracle_over_seeds(atoms):
    # nested histograms of two and four atoms: z-scores against
    # star_norm_exact over 200 seeds have mean 0 and SD 1
    z = np.array(_z_scores(atoms, star_norm_exact(SimpleFunction(atoms)), 10 ** 4,
                           range(1, 201)))
    assert abs(z.mean()) <= 0.25 and 0.85 <= z.std(ddof=1) <= 1.15, (z.mean(), z.std(ddof=1))


def _count_vectors(values: np.ndarray, atoms: int) -> np.ndarray:
    """The counts of cells whose atom values are 1, 10^3, 10^6, ...: the
    base-1000 digits of each value."""
    return (values.astype(np.int64)[:, None] // 1000 ** np.arange(atoms)) % 1000


@pytest.mark.parametrize("masses, R", [((3.0, 0.5, 2.0, 0.1), 10 ** 5),
                                       ((30.0, 20.0, 25.0, 30.0), 1000)])
def test_histogram_sums_to_R_in_at_most_min_R_prod_K_cells(masses, R):
    # each cell is one count vector, held by at least one replicate; the
    # second case has more count vectors than replicates
    atoms = tuple(zip((1.0, 1e3, 1e6, 1e9), masses))
    values, counts = poisson._count_cells(atoms, R, 5)
    assert int(counts.sum()) == R and counts.min() >= 1
    cells = _count_vectors(values, len(atoms))
    assert len({tuple(c) for c in cells.tolist()}) == len(values)
    K = [np.unique(cells[:, j]).size for j in range(len(atoms))]
    assert len(values) <= min(R, math.prod(K))


def test_cell_values_have_the_bits_of_one_replicate_summed_in_atom_order():
    # the draws do not depend on the atom values, so values 1, 10^3, 10^6
    # spell the count vector of each cell; with other values the cell holds
    # 0.0 + v_1 k_1 + v_2 k_2 + v_3 k_3, bit for bit
    masses, v, R = (3.0, 0.5, 2.0), (0.1, -0.37, 2.2), 10 ** 4
    coded, coded_counts = poisson._count_cells(tuple(zip((1.0, 1e3, 1e6), masses)), R, 9)
    values, counts = poisson._count_cells(tuple(zip(v, masses)), R, 9)
    assert counts.tolist() == coded_counts.tolist()
    k = _count_vectors(coded, 3)
    want = np.zeros(values.size)
    for j in range(3):
        want = want + v[j] * k[:, j]
    assert want.tobytes() == values.tobytes()


def test_histogram_reduction_is_the_reduction_of_its_replicates():
    # per-replicate values reduce to the bits of mean and std(ddof=1) / sqrt(R);
    # a histogram to the same mean and standard error as its expansion
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4321) * 3.0 + 1.0
    est = poisson._mc_estimate(x, 1)
    assert (est.mean, est.std_error, est.replicates) == (
        float(x.mean()), float(x.std(ddof=1)) / math.sqrt(x.size), x.size)
    values, counts = np.array([0.5, 2.0, -1.25, 7.0]), np.array([3, 1000, 27, 1])
    hist = poisson._mc_estimate(values, 1, counts=counts)
    flat = poisson._mc_estimate(np.repeat(values, counts), 1)
    assert hist.replicates == flat.replicates == 1031
    assert hist.mean == pytest.approx(flat.mean, rel=1e-14)
    assert hist.std_error == pytest.approx(flat.std_error, rel=1e-12)


def test_a_mass_past_numpys_largest_poisson_mean_names_itself():
    with pytest.raises(ValueError, match=r"mass 1e\+20 .*exceeds 9\.22337e\+18"):
        poisson._count_cells(((1.0, 1e20),), 1000, 3)


def test_points_stay_for_non_simple_rows_and_the_identity_checks(monkeypatch):
    # the count route takes simple functions whose window covers their
    # support; everything else, and every identity check, samples points
    calls = []

    def spy(name):
        original = getattr(poisson, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(poisson, name, recorded)

    for name in ("_replicate_sums", "_replicate_blocks", "_count_cells"):
        spy(name)

    def route(run):
        calls.clear()
        run()
        return calls[:]

    one = indicator(0.0, 1.0)
    assert route(lambda: estimate_star_norm(one, one.support, 1000, 1)) == ["_count_cells"]
    assert route(lambda: estimate_starstar_norm(one, window((-1.0, 2.0)), 1000, 1)) == [
        "_count_cells"]
    bump = triangular_bump(0.5, 0.5)
    points = ["_replicate_sums", "_replicate_blocks"]  # one sampler under the sums
    assert route(lambda: estimate_star_norm(bump, bump.support, 1000, 1)) == points
    stepped = birkhoff(bump, make_translation(1.0), 3)
    assert route(lambda: estimate_star_norm(stepped, stepped.support, 1000, 1)) == points
    cut = indicator(0.0, 2.0)  # its window leaves half of it out
    assert route(lambda: estimate_star_norm(cut, window((0.0, 1.0)), 1000, 1)) == points
    w = window((0.0, 2.0))
    assert route(lambda: second_moment_check(one, w, 1000, 1)) == points
    assert route(lambda: reduced_moment_check(one, one, w, 1000, 1)) == points
    assert route(lambda: mecke_check(lambda xs, o: xs, w, 10, 1)) == ["_replicate_blocks"]


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
                reduced_moment_check(g, h, w, 1000, seed=6),
                mecke_check(_JUMP_H, w, 300, seed=7))

    whole = results()
    monkeypatch.setattr(poisson, "_CHUNK", 7)
    assert results() == whole


def _replicate_sums_reference(w, R, seed, f):
    """Per-replicate sums from one whole-array draw and evaluation, each
    replicate's values added in point order from 0.0."""
    rng = poisson._philox(seed)
    counts = rng.poisson(w.measure, size=R).astype(np.int64)
    vals = np.asarray(f.eval(window_position(w, rng.random(int(counts.sum())))), dtype=float)
    sums = np.zeros(R)
    for r, part in enumerate(np.split(vals, np.cumsum(counts)[:-1])):
        for v in part.tolist():
            sums[r] += v
    return sums


@pytest.mark.parametrize("chunk", [7, poisson._CHUNK])
def test_replicate_sums_bit_equal_to_whole_array(monkeypatch, chunk):
    # a negative bump is -0.0 off its support, and every value of the
    # all -0.0 function is: each sum starts from +0.0 all the same
    minus_zero = TestFunction(eval=lambda x: np.full(np.shape(x), -0.0),
                              support=window((-2.0, 3.0)))
    monkeypatch.setattr(poisson, "_CHUNK", chunk)
    for f, w in ((triangular_bump(1.0, 0.5, -1.5), window((-2.0, 3.0))),
                 (minus_zero, window((-2.0, 3.0))),
                 (indicator(0.0, 1.0), window((-5.0, -1.0), (0.5, 40.0)))):
        got, = poisson._replicate_sums(w, 1000, 8, lambda pts: (f.eval(pts),))
        assert got.tobytes() == _replicate_sums_reference(w, 1000, 8, f).tobytes()


def _never(*args):
    raise AssertionError("evaluated after the refusal")


# an f whose evaluation fails the test: a refusal comes before any eval
_UNEVALUATED = TestFunction(eval=_never, support=window((0.0, 1.0)))


def test_replicate_checks_refuse_zero_replicates():
    with pytest.raises(ValueError, match="at least two replicates for a sample variance, got 0"):
        second_moment_check(_UNEVALUATED, window((0.0, 1.0)), 0, seed=1)
    with pytest.raises(ValueError, match="at least two replicates for a standard error, got 0"):
        reduced_moment_check(_UNEVALUATED, _UNEVALUATED, window((0.0, 1.0)), 0, seed=1)


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
    lhs, rhs = mecke_check(lambda xs, others: xs * (others.shape[-1] + 1), w, 600, seed=8)
    assert abs(lhs.mean - rhs.mean) <= 3 * (lhs.std_error + rhs.std_error)
    # rhs per sample is (N+1) * int g, so its mean is (measure + 1) * 1/2
    assert abs(rhs.mean - 1.0) <= 3 * rhs.std_error


def test_mecke_position_coupled():
    # h reads where the other points are: both sides are (int_w x dx)^2
    w = window((0, 1))
    lhs, rhs = mecke_check(lambda xs, others: xs * others.sum(axis=-1), w, 2000, seed=9)
    for side in (lhs, rhs):
        assert abs(side.mean - 0.25) <= 3 * side.std_error


def _batch_stream_points(w, R, seed):
    """The points of R replicates from one whole-array draw on the batch
    stream, as ``_replicate_sums_reference`` draws them: the counts first,
    then all the uniforms; one array per replicate."""
    rng = poisson._philox(seed)
    counts = rng.poisson(w.measure, size=R).astype(np.int64)
    pts = window_position(w, rng.random(int(counts.sum())))
    return np.split(pts, np.cumsum(counts)[:-1])


def test_mecke_left_side_removes_each_point():
    # with h the number of other points, replicate r contributes N(N - 1) on
    # the left and 2N on the right
    w = window((0, 2))
    lhs, rhs = mecke_check(
        lambda xs, others: np.full(np.broadcast_shapes(xs.shape, others.shape[:-1]),
                                   float(others.shape[-1])),
        w, 50, seed=3)
    counts = np.array([pts.size for pts in _batch_stream_points(w, 50, 3)], dtype=float)
    assert lhs.mean == float(np.mean(counts * (counts - 1.0)))
    assert rhs.mean == pytest.approx(2.0 * counts.mean(), abs=1e-9)


@pytest.mark.parametrize("w, seed", [(window((0, 0.5)), 11),
                                     (window((0, 0.5), (3, 4)), 12)])
def test_mecke_hands_h_the_points_of_the_batch_stream(w, seed):
    left, right = [], []

    def h(xs, others):
        # a left call pairs each point xs[..., i] with its others[..., i, :];
        # a right call pairs the nodes (1, q) with whole replicates (r, 1, n)
        (left if others.shape[:-1] == xs.shape else right).append((xs.copy(), others.copy()))
        return np.ones_like(xs)

    R = 40
    mecke_check(h, w, R, seed)
    replicates = _batch_stream_points(w, R, seed)
    counts = {pts.size for pts in replicates}
    # the left side: every point of every replicate once, the others without it
    want = Counter((float(pts[i]), tuple(np.delete(pts, i).tolist()))
                   for pts in replicates for i in range(pts.size))
    got = Counter((x, tuple(o)) for xs, others in left
                  for x, o in zip(xs.ravel().tolist(),
                                  others.reshape(xs.size, others.shape[-1]).tolist()))
    assert got == want
    # the right side: each replicate's points once, at the Kronrod nodes
    mids = np.array([0.5 * (lo + hi) for lo, hi in w.intervals])
    halves = np.array([0.5 * (hi - lo) for lo, hi in w.intervals])
    nodes = measure._gk_nodes(mids, halves).reshape(1, -1)
    assert nodes.size == 15 * len(w.intervals)
    assert all(np.array_equal(xs, nodes) for xs, _ in right)
    got = Counter(tuple(o) for _, others in right
                  for o in others.reshape(others.shape[0], others.shape[-1]).tolist())
    assert got == Counter(tuple(pts.tolist()) for pts in replicates)
    # one block: one call per side for each point count (none on the left for 0),
    # the left one with all the replicates' points
    assert all(xs.shape[1] == others.shape[-1] + 1 for xs, others in left)
    assert len(left) == len(counts - {0}) and len(right) == len(counts)
    assert 0 in counts  # a replicate with no points is among them


def _mecke_reference(h, w, R, seed):
    """The per-replicate sides of the Mecke check, one replicate at a time:
    the points of ``_batch_stream_points``, each point's h against the
    others summed by fsum, and one ``integrate`` call for the right side."""
    lhs, rhs = np.empty(R), np.empty(R)
    for r, pts in enumerate(_batch_stream_points(w, R, seed)):
        lhs[r] = math.fsum(float(h(pts[i:i + 1], np.delete(pts, i))[0])
                           for i in range(pts.size))
        probe = TestFunction(eval=lambda xs: h(xs, pts), support=w)
        rhs[r], _ = measure.integrate(probe, w, tol=1e-9, max_segments=2000)
    return lhs, rhs


_SUITE_MECKE_H = (lambda xs, others: np.ones_like(xs),
                  lambda xs, others: xs,
                  lambda xs, others: xs * (others.shape[-1] + 1))
# a jump at 0.7 of height the count of the others: a replicate with two or
# more points misses tol on its first pass and is integrated on its own
_JUMP_H = lambda xs, others: np.where(xs > 0.7, float(others.shape[-1]), 0.0) + xs


@pytest.mark.parametrize("h, w, R, seed, fallbacks", [
    *(pytest.param(h, window((0.0, 2.0)), 300, 43 + i, False, id=f"suite_h{i}")
      for i, h in enumerate(_SUITE_MECKE_H)),
    pytest.param(_JUMP_H, window((0.0, 2.0)), 300, 7, True, id="jump"),
    pytest.param(_JUMP_H, window((0.0, 0.5), (0.6, 1.5)), 200, 8, True, id="jump_two_intervals"),
    pytest.param(_SUITE_MECKE_H[2], window((0.0, 0.5), (3.0, 4.0)), 200, 9, False,
                 id="two_intervals"),
    pytest.param(_SUITE_MECKE_H[2], window((0.0, 2.0)), 1, 10, False, id="one_replicate"),
    pytest.param(_JUMP_H, window((0.0, 1.5)), 1, 2, True, id="one_replicate_jump"),
    pytest.param(_JUMP_H, window((0.65, 0.8)), 100, 11, True, id="mostly_empty"),
])
def test_mecke_sides_bit_equal_to_per_replicate_integrate(monkeypatch, h, w, R, seed,
                                                          fallbacks):
    want = _mecke_reference(h, w, R, seed)
    calls = []
    real = poisson.integrate
    monkeypatch.setattr(poisson, "integrate", lambda *a, **k: calls.append(1) or real(*a, **k))
    for chunk in (poisson._CHUNK, 7):
        monkeypatch.setattr(poisson, "_CHUNK", chunk)
        calls.clear()
        # the per-replicate values themselves, not their mean and standard error
        got = poisson._mecke_sides(h, w, R, seed)
        assert [side.tobytes() for side in got] == [side.tobytes() for side in want]
        assert (0 < len(calls) <= R) if fallbacks else not calls
    counts = [pts.size for pts in _batch_stream_points(w, R, seed)]
    if R > 1:
        assert 0 in counts  # replicates that draw no points are among them


# pointwise ufuncs, finite on the windows below
_MECKE_UFUNCS = (np.sin, np.cos, np.tanh, np.arctan, np.sqrt)
# mean count 185: at the default _CHUNK a replicate's n (n - 1) others take
# more than one left call
_CROWDED = ((0.0, 100.0), (110.0, 170.0), (175.0, 200.0))


def _mecke_pairs(gaps_lengths):
    pairs, lo = [], 0.0
    for gap, length in gaps_lengths:
        lo += gap
        pairs.append((lo, lo + length))
        lo += length
    return tuple(pairs)


@pytest.mark.parametrize("chunk", [7, poisson._CHUNK])
@settings(max_examples=20)
@example(weight=(0, 1, 1.5, -0.5), pairs=_CROWDED, R=3, seed=1)
@given(weight=st.tuples(st.integers(0, len(_MECKE_UFUNCS) - 1),
                        st.integers(0, len(_MECKE_UFUNCS) - 1), _NUM, _NUM),
       pairs=st.one_of(st.just(_CROWDED),
                       st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 2.0)),
                                min_size=1, max_size=3).map(_mecke_pairs)),
       R=st.integers(1, 5), seed=st.integers(0, 2 ** 64 - 1))
def test_mecke_sides_bit_equal_to_a_per_point_loop(chunk, weight, pairs, R, seed):
    # the grouped calls of any block size give the per-point loop's bits, and
    # no call hands h more than _CHUNK others or one configuration's
    f, g, a, b = weight

    def h(xs, others):
        k = others.shape[-1]
        first = np.cos(others[..., 0]) if k else 0.0  # reads the first other point
        return a * _MECKE_UFUNCS[f](xs) + b * (k + 1) * _MECKE_UFUNCS[g](xs) + first

    excess = []

    def spy(xs, others):
        excess.append(others.size - max(chunk, others.shape[-1]))
        return h(xs, others)

    w = window(*pairs)
    want = _mecke_reference(h, w, R, seed)
    with mock.patch.object(poisson, "_CHUNK", chunk):
        got = poisson._mecke_sides(spy, w, R, seed)
    assert [side.tobytes() for side in got] == [side.tobytes() for side in want]
    assert max(excess) <= 0


@pytest.mark.parametrize("R", [0, 1])
def test_mecke_refuses_fewer_than_two_replicates(monkeypatch, R):
    # one replicate leaves the standard error undefined (ddof = 1); nothing
    # is drawn and h is never called
    monkeypatch.setattr(poisson, "_philox", _never)
    with pytest.raises(ValueError, match=f"at least two replicates for a standard error, got {R}"):
        mecke_check(_never, window((0, 1)), R, 3)


def test_second_moment_check_refuses_one_replicate(monkeypatch):
    monkeypatch.setattr(poisson, "_philox", _never)
    with pytest.raises(ValueError, match="at least two replicates for a sample variance, got 1"):
        second_moment_check(_UNEVALUATED, window((0.0, 1.0)), 1, seed=1)


def test_reduced_moment_check_refuses_one_replicate(monkeypatch):
    monkeypatch.setattr(poisson, "_philox", _never)
    with pytest.raises(ValueError, match="at least two replicates for a standard error, got 1"):
        reduced_moment_check(_UNEVALUATED, _UNEVALUATED, window((0.0, 1.0)), 1, seed=1)


def test_mecke_refuses_a_seed_outside_the_philox_key():
    h = lambda xs, others: np.ones_like(xs)
    for seed in (2 ** 64, -1):
        with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
            mecke_check(h, window((0, 1)), 3, seed)


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
    [(lhs, rhs)] = equivariance_check(f, _Shift(), [s], (w_in, w_out))
    assert abs(lhs - rhs) < 1e-9


def test_equivariance_rejects_bad_window():
    f = indicator(0, 1)
    w_in = window((0.5, 1.0))  # misses the preimage [-1, 0]
    s = sample_process(w_in, 1)
    with pytest.raises(ValueError):
        equivariance_check(f, _Shift(), [s], (w_in, window((-0.5, 1.5))))


def test_coboundary_translation():
    f = indicator(0, 1)
    w_in = window((-1, 1))
    w_out = window((0, 1))
    s = sample_process(w_in, 19)
    [(lhs, rhs)] = coboundary_check(f, _Shift(), [s], (w_in, w_out))
    assert abs(lhs - rhs) < 1e-9
    # both sides are the count difference of two unit intervals
    n_left = int(np.sum((s.points >= -1) & (s.points <= 0)))
    n_mid = int(np.sum((s.points >= 0) & (s.points <= 1)))
    assert lhs == pytest.approx(n_left - n_mid, abs=1e-9)


def _suite_pair_setups():
    """The identity suite's two pair-check setups: (system, f, windows)."""
    boole = make_boole()
    (y_plus, _), (y_minus, _) = boole.preimages(np.array([-1.0, 1.0]))
    return {
        "translation": (make_translation(1.0), triangular_bump(0.5, 0.5, 1.0),
                        (window((-1.0, 1.0)), window((0.0, 2.0)))),
        "boole": (boole, triangular_bump(0.0, 0.5, 1.0),
                  (window(tuple(y_plus), tuple(y_minus)), window((-1.0, 1.0)))),
    }


def _pair_reference(f, sys, s, windows):
    """Both pair checks of one sample, each compensator integrated afresh."""
    w_in, w_out = windows
    comp_ft, _ = measure.integrate(poisson._compose_forward(f, sys, w_in), w_in, tol=1e-10)
    comp_out, _ = measure.integrate(f, w_out, tol=1e-10)
    comp_f, _ = measure.integrate(f, w_in, tol=1e-10)
    fv = np.asarray(f.eval(s.points), dtype=float)
    ftv = np.asarray(f.eval(np.asarray(sys.forward(s.points), dtype=float)), dtype=float)
    point_sum = math.fsum(ftv)
    equivariance = (point_sum - comp_out, point_sum - comp_ft)
    coboundary = (math.fsum(ftv - fv) - (comp_ft - comp_f),
                  (point_sum - comp_out) - (math.fsum(fv) - comp_f))
    return equivariance, coboundary


@pytest.mark.parametrize("kind", ["translation", "boole"])
@pytest.mark.parametrize("n", [0, 1, 10])
def test_pair_checks_are_bit_equal_to_their_single_sample_reference(kind, n):
    sys, f, windows = _suite_pair_setups()[kind]
    samples = [sample_process(windows[0], 31, t) for t in range(n)]
    refs = [_pair_reference(f, sys, s, windows) for s in samples]
    assert equivariance_check(f, sys, samples, windows) == [e for e, _ in refs]
    assert coboundary_check(f, sys, samples, windows) == [c for _, c in refs]
