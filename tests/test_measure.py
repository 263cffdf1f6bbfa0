"""Windows, simple functions, and quadrature."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poisson_orlicz import measure
from poisson_orlicz.measure import (
    SimpleFunction,
    TestFunction,
    Window,
    function_moments,
    indicator,
    integrate,
    piecewise_constant,
    piecewise_to_simple,
    simple_moments,
    simple_to_test,
    triangular_bump,
    window,
    window_intersect,
    window_position,
    window_translate,
    window_union,
)


def test_window_canonical_disjoint_sorted():
    w = window((2, 3), (0, 1))
    assert w.intervals == ((0, 1), (2, 3))
    assert w.measure == 2.0


def test_window_overlap_merged():
    w = window_union(window((0, 2)), window((1, 3)))
    assert w.intervals == ((0, 3),)
    assert w.measure == 3.0


def test_window_union_empty_identity():
    w = window_union(Window(), window((0, 1)))
    assert w.intervals == ((0, 1),)


def test_window_normalization_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pairs = [(a, a + abs(b)) for a, b in rng.normal(size=(5, 2))]
        w1 = window(*pairs)
        w2 = window(*w1.intervals)
        assert w1 == w2
        lows = [lo for lo, _ in w1.intervals]
        his = [hi for _, hi in w1.intervals]
        assert lows == sorted(lows)
        assert all(his[i] < lows[i + 1] for i in range(len(lows) - 1))


def test_window_measure_subadditive():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pa = [(a, a + abs(b)) for a, b in rng.normal(size=(3, 2))]
        pb = [(a, a + abs(b)) for a, b in rng.normal(size=(3, 2))]
        a, b = window(*pa), window(*pb)
        assert window_union(a, b).measure <= a.measure + b.measure + 1e-12


def test_window_position_inverse_cdf():
    w = window((0, 2), (5, 6))
    pts = window_position(w, np.array([0.0, 0.5, 2.0 / 3.0, 0.99]))
    assert pts[0] == 0.0
    assert pts[1] == 1.5
    assert pts[2] == 5.0  # boundary mass flows to the next interval
    assert 5 < pts[3] < 6
    assert w.contains(pts).all()


def _window_position_reference(w, u):
    """The clip/searchsorted inverse CDF that window_position must match."""
    u = np.asarray(u, dtype=float)
    lengths = np.array([hi - lo for lo, hi in w.intervals])
    starts = np.array([lo for lo, _ in w.intervals])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    target = u * cum[-1]
    idx = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, len(lengths) - 1)
    return starts[idx] + (target - cum[idx])


@given(start=st.floats(-1e3, 1e3),
       gaps_lengths=st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)),
                             min_size=1, max_size=5),
       u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
       off=st.lists(st.one_of(st.floats(-2.0, 3.0), st.just(np.nan)), max_size=5))
def test_window_position_matches_searchsorted_reference(start, gaps_lengths, u, off):
    pairs, x = [], start
    for gap, length in gaps_lengths:
        pairs.append((x + gap, x + gap + length))
        x = x + gap + length
    w = window(*pairs)
    assert len(w.intervals) == len(pairs)
    # u at and just below each inner boundary, where target meets a cut
    cuts = np.cumsum([hi - lo for lo, hi in w.intervals])
    edges = cuts[:-1] / cuts[-1]
    inside = np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges, np.nextafter(edges, 0.0), u])
    got = window_position(w, inside)
    assert got.tobytes() == _window_position_reference(w, inside).tobytes()
    assert w.contains(got).all()
    # u = 1.0, outside [0, 1) and off the unit interval: the same bits
    rest = np.array([1.0] + off)
    assert window_position(w, rest).tobytes() == _window_position_reference(w, rest).tobytes()


def test_indicator_negative_scale_keeps_positive_zero():
    f = indicator(-1.0, 2.0, -2.5)
    x = np.linspace(-4.0, 4.0, 801)
    mask = (x >= -1.0) & (x <= 2.0)
    got = f.eval(x)
    assert got.tobytes() == np.where(mask, -2.5, 0.0).tobytes()
    assert not np.signbit(got[~mask]).any()


def test_window_translate_and_intersect():
    w = window_translate(window((0, 1)), 2.5)
    assert w.intervals == ((2.5, 3.5),)
    assert window_intersect(window((0, 2)), window((1, 5))).intervals == ((1, 2),)


def test_simple_moments_examples():
    assert simple_moments(SimpleFunction(((1, 0.5), (-1, 0.5)))) == (1, 1, 0)
    assert simple_moments(SimpleFunction(((2, 1),))) == (2, 4, 2)
    assert simple_moments(SimpleFunction()) == (0, 0, 0)


def test_simple_moments_cauchy_schwarz():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = rng.integers(1, 6)
        atoms = tuple(
            (v, m)
            for v, m in zip(rng.uniform(-5, 5, n), rng.uniform(0.01, 10, n))
            if v != 0
        )
        f = SimpleFunction(atoms)
        l1, l2sq, _ = simple_moments(f)
        assert l1**2 <= l2sq * f.total_mass * (1 + 1e-12)


def test_simple_function_validation():
    with pytest.raises(ValueError):
        SimpleFunction(((0.0, 1.0),))
    with pytest.raises(ValueError):
        SimpleFunction(((1.0, 0.0),))
    for bad in ((float("inf"), 1.0), (-float("inf"), 1.0), (float("nan"), 1.0),
                (1.0, float("inf")), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            SimpleFunction((bad,))


def test_integrate_indicator():
    val, err = integrate(indicator(0, 1), window((-2, 2)), tol=1e-10)
    assert abs(val - 1.0) <= max(err, 1e-10)
    assert err <= 1e-10


def test_integrate_phi_of_indicator():
    # the Young function applied to a unit indicator on [0,3]: Phi(1) = 1
    from poisson_orlicz.orlicz import young_phi

    val, err = integrate(indicator(0, 3), window((0, 3)), transform=young_phi, tol=1e-10)
    assert abs(val - 3.0) <= max(err, 1e-10)


def test_integrate_square():
    ramp = lambda x: np.asarray(x, dtype=float)
    g = TestFunction(eval=ramp, support=window((0, 1)), sup_bound=1.0, breakpoints=(0.0, 1.0))
    val, err = integrate(g, window((0, 1)), transform=np.square, tol=1e-12)
    assert abs(val - 1.0 / 3.0) <= max(err, 1e-12)


def test_integrate_additive_over_disjoint_windows():
    f = triangular_bump(0.5, 1.5, 2.0)
    w1, w2 = window((-1, 0.2)), window((0.2, 2))
    v1, e1 = integrate(f, w1, tol=1e-10)
    v2, e2 = integrate(f, w2, tol=1e-10)
    v, e = integrate(f, window_union(w1, w2), tol=1e-10)
    assert abs(v - (v1 + v2)) <= e + e1 + e2 + 1e-13


def test_integrate_reports_nonconvergence():
    # an oscillation the segment budget cannot resolve
    def wiggle(x):
        x = np.asarray(x, dtype=float)
        return np.cos(5e4 * x)

    f = TestFunction(eval=wiggle, support=window((0, 1)), sup_bound=1.0)
    val, err = integrate(f, window((0, 1)), tol=1e-12, max_segments=64)
    assert err > 1e-12  # reported, never silent


def test_integrate_stops_after_one_pass_that_meets_tol(monkeypatch):
    # a linear f: the first pass over the initial segments is the whole job,
    # and its totals are those of that one batch
    f = TestFunction(eval=lambda x: 3.0 * x - 1.0, support=window((0, 1), (2, 4)))
    batches = []
    real = measure._gk_batch
    monkeypatch.setattr(measure, "_gk_batch",
                        lambda func, mid, half: batches.append(mid) or real(func, mid, half))
    val, err = integrate(f, tol=1e-9)
    assert len(batches) == 1 and batches[0].tolist() == [0.5, 3.0]
    vals, errs = real(f.eval, np.array([0.5, 3.0]), np.array([0.5, 1.0]))
    assert (val, err) == (float(vals.sum()), float(errs.sum()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_never_returns_a_finite_total_from_overflowed_segments():
    # each K15 sum of 1e308 overflows: the one-pass exit must not take it
    val, err = integrate(indicator(0.0, 1.0, 1e308), tol=1e-9)
    assert not (math.isfinite(val) and math.isfinite(err))


def test_triangular_bump_moments():
    f = triangular_bump(0.0, 1.0, 3.0)
    m, err = function_moments(f, tol=1e-10)
    assert abs(m.l1 - 3.0) <= 1e-8  # area of tent = height * halfwidth
    assert abs(m.l2sq - 2 * 3.0**2 / 3.0) <= 1e-8  # 2 h int_0^1 (a(1-x))^2 dx
    assert abs(m.integral - 3.0) <= 1e-8


def test_simple_to_test_round_trip():
    f = SimpleFunction(((2.0, 0.5), (-1.0, 1.5)))
    tf = simple_to_test(f)
    back = piecewise_to_simple(tf)
    assert back == SimpleFunction(((-1.0, 1.5), (2.0, 0.5)))
    m, _ = function_moments(tf, tol=1e-10)
    l1, l2sq, mean = simple_moments(f)
    assert abs(m.l1 - l1) < 1e-9
    assert abs(m.l2sq - l2sq) < 1e-9
    assert abs(m.integral - mean) < 1e-9


# Masses are multiples of 1/8, so every cell edge and every merged mass is
# exact in floating point and the round trip can be compared with ==.
@given(st.lists(st.tuples(st.sampled_from((-3.0, -0.5, 0.25, 1.0, 2.0)),
                          st.integers(1, 40).map(lambda k: k / 8)),
                min_size=1, max_size=6))
def test_simple_to_test_round_trip_merges_atoms(atoms):
    merged: dict[float, float] = {}
    for v, m in atoms:
        merged[v] = merged.get(v, 0.0) + m
    back = piecewise_to_simple(simple_to_test(SimpleFunction(tuple(atoms))))
    assert back == SimpleFunction(tuple(sorted(merged.items())))


def test_piecewise_to_simple_probes_every_cell_in_one_call():
    base = piecewise_constant([-1.0, 0.3, 0.7, 2.5, 4.0], [2.0, -1.0, 0.0, 2.0])
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return base.eval(x)

    s = piecewise_to_simple(dataclasses.replace(base, eval=counted))
    assert s == SimpleFunction(((-1.0, 0.7 - 0.3), (2.0, 1.3 + 1.5)))
    assert len(calls) == 1
    # the zero step (0.7, 2.5) is off the support, so it is no cell
    cells = [(-1.0, 0.3), (0.3, 0.7), (2.5, 4.0)]
    per_cell = np.concatenate([np.linspace(a, b, 5)[1:-1] for a, b in cells])
    assert calls[0].tobytes() == per_cell.tobytes()


def test_piecewise_to_simple_refuses_incomplete_breakpoints():
    f = dataclasses.replace(indicator(0.0, 1.0), breakpoints=(), breakpoints_complete=False)
    with pytest.raises(ValueError, match="incomplete"):
        piecewise_to_simple(f)


def test_piecewise_to_simple_rejects_nonconstant():
    ramp = lambda x: np.asarray(x, dtype=float)
    g = TestFunction(eval=ramp, support=window((0, 1)), sup_bound=1.0, breakpoints=(0.0, 1.0))
    with pytest.raises(ValueError):
        piecewise_to_simple(g)
