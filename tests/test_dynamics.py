"""Tests for the measure-preserving systems, Birkhoff averages, and the
transfer operator."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_orlicz import dynamics, experiments, poisson
from poisson_orlicz.dynamics import (
    CIRCLE_OFFSET,
    GOLDEN,
    _branch_sum,
    _forward_orbit,
    birkhoff,
    circle_indicator,
    make_boole,
    make_composite,
    make_translation,
    transfer_apply,
)
from poisson_orlicz.experiments import build_function
from poisson_orlicz.measure import (
    TestFunction,
    function_moments,
    indicator,
    integrate,
    piecewise_constant,
    triangular_bump,
    window,
    window_position,
)


# ---------------------------------------------------------------------------
# translation

def test_translation_preimages():
    sys = make_translation(1.0)
    pre = sys.preimages(np.array([5.0]))
    assert len(pre) == 1
    y, j = pre[0]
    assert y[0] == 4.0 and j[0] == 1.0


def test_translation_forward_and_inflate():
    sys = make_translation(1.0)
    assert float(sys.forward(np.array([2.5]))[0]) == 3.5
    w = window((0.0, 1.0))
    assert sys.image(w, -3).intervals == ((-3.0, -2.0),)
    assert sys.image(w, 2).intervals == ((2.0, 3.0),)
    assert birkhoff(indicator(0.0, 1.0), sys, 3).support.intervals == ((-3.0, 0.0),)


def test_translation_rejects_zero_step():
    with pytest.raises(ValueError):
        make_translation(0.0)


def test_translation_transfer_is_exact_shift():
    sys = make_translation(1.0)
    f = indicator(0.0, 1.0)
    g = transfer_apply(f, sys, 3)
    xs = np.linspace(-1.0, 6.0, 101)
    assert np.array_equal(g.eval(xs), f.eval(xs - 3.0))
    assert g.support.intervals == ((3.0, 4.0),)


# ---------------------------------------------------------------------------
# Boole map

def test_boole_forward_values():
    sys = make_boole()
    out = sys.forward(np.array([2.0, 0.0, -1.0]))
    assert out[0] == 1.5
    assert math.isnan(out[1])
    assert out[2] == 0.0


def test_boole_preimages_of_zero():
    sys = make_boole()
    pre = sorted((float(y[0]), float(j[0])) for y, j in sys.preimages(np.zeros(1)))
    assert pre[0][0] == pytest.approx(-1.0, abs=1e-14)
    assert pre[1][0] == pytest.approx(1.0, abs=1e-14)
    assert pre[0][1] == pytest.approx(0.5, abs=1e-14)
    assert pre[1][1] == pytest.approx(0.5, abs=1e-14)


def test_boole_jacobians_sum_to_one_at_example_point():
    sys = make_boole()
    total = sum(float(j[0]) for _, j in sys.preimages(np.array([3.7])))
    assert abs(total - 1.0) < 1e-12


def test_boole_preimage_identity_and_jacobian_sum():
    sys = make_boole()
    rng = np.random.default_rng(41)
    xs = rng.uniform(-80.0, 80.0, 1000)
    total = np.zeros(xs.shape)
    for ys, jacs in sys.preimages(xs):
        back = sys.forward(ys)
        assert np.max(np.abs(back - xs)) < 1e-10
        total += jacs
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_boole_preimages_of_large_points_raise_no_warning():
    # sqrt(x^2 + 4) rounds to x above about 1e8, where the branch for x < 0
    # would divide by zero; pytest turns that RuntimeWarning into an error
    sys = make_boole()
    x = np.array([1e9, 1e15, -1e15, 1e150])
    for y, _ in sys.preimages(x):
        assert np.all(np.abs(sys.forward(y) - x) <= 1e-15 * np.abs(x))


def test_boole_preimages_near_the_float_max_stay_finite():
    # x^2 and x + sqrt(x^2 + 4) overflow here; the preimages must not, and
    # pytest turns any RuntimeWarning into an error
    big = np.finfo(float).max
    x = np.array([1e200, -1e200, big, -big])
    pairs = make_boole().preimages(x)
    total = np.zeros(x.shape)
    for y, jac in pairs:
        assert np.all(np.isfinite(y))
        assert np.all((jac >= 0.0) & (jac <= 1.0))
        total += jac
    assert np.array_equal(total, np.ones(x.shape))
    (y_plus, _), (y_minus, _) = pairs
    assert np.array_equal(np.where(x > 0, y_plus, -y_minus), np.abs(x))


def test_boole_backward_inflate():
    sys = make_boole()
    w = window((-2.0, 2.0))
    assert sys.image(w, -3).intervals == ((-6.0, 6.0),)
    assert birkhoff(indicator(-2.0, 2.0), sys, 3).support.intervals == ((-6.0, 6.0),)
    with pytest.raises(ValueError, match="unbounded"):
        sys.image(w, 1)


C0 = CIRCLE_OFFSET
# windows below, above, straddling and inside the segment [C0, C0 + 1), and
# one covering it
SEGMENT_WINDOWS = [
    window((C0 - 10.0, C0 - 8.5), (C0 - 2.25, C0 - 0.75)),
    window((C0 + 1.2, C0 + 1.7), (C0 + 2.5, C0 + 3.9)),
    window((C0 - 0.5, C0 + 0.5)),
    window((C0 + 0.8, C0 + 1.6)),
    window((C0 + 0.2, C0 + 0.6)),
    window((C0 - 0.4, C0 + 1.4)),
]


def _random_points(rng, w, size):
    lo, hi = np.array(w.intervals).T
    pick = rng.integers(len(lo), size=size)
    return rng.uniform(lo[pick], hi[pick])


def test_image_contains_branch_pullbacks():
    rng = np.random.default_rng(7)
    cases = [
        (make_boole(), window((-1.5, 2.0))),
        (make_translation(0.7), window((0.0, 1.0), (2.0, 2.5))),
    ]
    for sys in (make_composite(1.0, 0.3, 1.0), make_composite(1.0, 0.3, 0.45)):
        cases += [(sys, w) for w in SEGMENT_WINDOWS]
    for sys, w in cases:
        for k in range(1, 5):
            y = _random_points(rng, w, 200)
            for _ in range(k):
                branches = sys.preimages(y)
                pick = rng.integers(len(branches), size=y.size)
                y = np.choose(pick, [b for b, _ in branches])
            assert np.all(sys.image(w, -k).contains(y)), (sys.kind, w, k)


def test_image_contains_forward_images():
    rng = np.random.default_rng(17)
    cases = [(make_translation(-0.7), window((0.0, 1.0), (2.0, 2.5)))]
    for sys in (make_composite(1.0, 0.3, 1.0), make_composite(1.0, 0.3, -0.45)):
        cases += [(sys, w) for w in SEGMENT_WINDOWS]
    for sys, w in cases:
        x = _random_points(rng, w, 200)
        for k in range(1, 5):
            x = sys.forward(x)
            assert np.all(sys.image(w, k).contains(x)), (sys.kind, w, k)


# ---------------------------------------------------------------------------
# composite system

def test_composite_rotation_example():
    sys = make_composite(circumference=1.0, angle=0.3, step=1.0)
    x = np.array([CIRCLE_OFFSET + 0.9])
    out = float(sys.forward(x)[0])
    assert abs(out - (CIRCLE_OFFSET + 0.2)) < 1e-9


def test_composite_circle_indicator_invariant():
    sys = make_composite()
    f = circle_indicator(sys)
    rng = np.random.default_rng(3)
    circle_pts = CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 200)
    line_pts = rng.uniform(-50.0, 50.0, 200)
    pts = np.concatenate([circle_pts, line_pts])
    assert np.array_equal(f.eval(sys.forward(pts)), f.eval(pts))


def test_composite_line_part_skips_circle():
    sys = make_composite(step=1.0)
    x = np.array([CIRCLE_OFFSET - 0.25])
    out = float(sys.forward(x)[0])
    assert out == CIRCLE_OFFSET + 1.0 + 0.75
    [(back, _)] = sys.preimages(np.array([out]))
    assert back[0] == x[0]


def test_composite_preimage_round_trip():
    sys = make_composite()
    rng = np.random.default_rng(11)
    pts = np.concatenate([
        rng.uniform(-30.0, 30.0, 100),
        CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 100),
    ])
    [(ys, jacs)] = sys.preimages(pts)
    assert np.max(np.abs(sys.forward(ys) - pts)) < 1e-9
    assert np.array_equal(jacs, np.ones(pts.shape))


def test_composite_birkhoff_of_circle_indicator_is_itself():
    sys = make_composite()
    f = circle_indicator(sys)
    g = birkhoff(f, sys, 4)
    rng = np.random.default_rng(5)
    pts = np.concatenate([
        CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 100),
        rng.uniform(-20.0, 20.0, 100),
    ])
    assert np.array_equal(g.eval(pts), f.eval(pts))


def test_composite_identity_map():
    sys = make_composite(angle=0.0, step=0.0)
    pts = np.array([-3.0, 0.5, CIRCLE_OFFSET + 0.4])
    assert np.array_equal(sys.forward(pts), pts)


# ---------------------------------------------------------------------------
# the preimage interface, on every system

SYSTEMS = {
    "translation": lambda: make_translation(0.7),
    "boole": make_boole,
    "composite": lambda: make_composite(circumference=1.0, angle=0.3, step=1.0),
}


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_preimages_array_round_trip_and_jacobian_sum(kind):
    sys = SYSTEMS[kind]()
    rng = np.random.default_rng(29)
    xs = np.concatenate([rng.uniform(-40.0, 40.0, 300),
                         CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 100)])
    total = np.zeros(xs.shape)
    for ys, jacs in sys.preimages(xs):
        assert ys.shape == jacs.shape == xs.shape
        assert np.max(np.abs(sys.forward(ys) - xs) / np.maximum(1.0, np.abs(xs))) < 1e-14
        total += jacs
    assert np.max(np.abs(total - 1.0)) < 1e-14


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_preimages_of_one_point_count_the_branches_pointwise(kind):
    # a one-element array is how the callers count the branches, and each
    # point's preimages are those it gets inside a longer array
    sys = SYSTEMS[kind]()
    xs = np.array([0.0, -2.5, 3.75, CIRCLE_OFFSET + 0.5])
    whole = sys.preimages(xs)
    assert len(sys.preimages(np.zeros(1))) == (2 if kind == "boole" else 1)
    for i, x in enumerate(xs):
        one = sys.preimages(np.array([x]))
        assert len(one) == len(whole)
        for (y, j), (ya, ja) in zip(one, whole):
            assert y.tobytes() == ya[i:i + 1].tobytes() and j.tobytes() == ja[i:i + 1].tobytes()


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_forward_orbit_matches_pointwise_loop(kind):
    sys = SYSTEMS[kind]()
    pts = (0.0, 1.0, -2.5, 1e-300, 1.0 / 3.0,
           CIRCLE_OFFSET - 0.25, CIRCLE_OFFSET + 0.5, CIRCLE_OFFSET + 1.0)
    expected = set()
    for p in pts:
        y = p
        for _ in range(5):
            y = float(sys.forward(np.array([y]))[0])
            if not math.isfinite(y):
                break
            expected.add(y)
    assert _forward_orbit(sys, pts, 5) == tuple(sorted(expected))


# ---------------------------------------------------------------------------
# Birkhoff averages

def test_birkhoff_depth_one_is_composition():
    sys = make_translation(1.0)
    f = triangular_bump(0.0, 1.0, 2.0)
    g = birkhoff(f, sys, 1)
    xs = np.linspace(-3.0, 3.0, 301)
    assert np.array_equal(g.eval(xs), f.eval(xs + 1.0))


def test_birkhoff_translation_depth_two_plateau():
    sys = make_translation(1.0)
    f = indicator(0.0, 1.0)
    g = birkhoff(f, sys, 2)
    assert g.support.intervals == ((-2.0, 0.0),)
    xs = np.linspace(-1.95, -0.05, 20)
    assert np.max(np.abs(g.eval(xs) - 0.5)) == 0.0
    assert g.eval(np.array([0.5]))[0] == 0.0


def test_birkhoff_rejects_zero_depth():
    sys = make_translation(1.0)
    with pytest.raises(ValueError):
        birkhoff(indicator(0.0, 1.0), sys, 0)


def test_birkhoff_subsequence():
    sys = make_translation(1.0)
    f = indicator(0.0, 1.0)
    g = birkhoff(f, sys, 3, subsequence=(1, 4, 9))
    xs = np.linspace(-10.0, 1.0, 223)
    manual = (f.eval(xs + 1) + f.eval(xs + 4) + f.eval(xs + 9)) / 3.0
    assert np.array_equal(g.eval(xs), manual)
    with pytest.raises(ValueError):
        birkhoff(f, sys, 3, subsequence=(1, 1, 2))
    with pytest.raises(ValueError):
        birkhoff(f, sys, 2, subsequence=(1, 2, 3))


def test_birkhoff_l1_conservation():
    cases = [
        (make_translation(1.0), indicator(0.0, 1.0), 3),
        (make_boole(), triangular_bump(1.0, 0.5, 2.0), 2),
    ]
    for sys, f, n in cases:
        g = birkhoff(f, sys, n)
        base, _ = integrate(f, f.support, transform=np.abs, tol=1e-10)
        got, err = integrate(g, g.support, transform=np.abs, tol=1e-9)
        assert abs(got - base) < 1e-7 + err


def test_birkhoff_positive_function_stays_nonnegative():
    sys = make_boole()
    f = indicator(1.0, 2.0)
    g = birkhoff(f, sys, 3)
    rng = np.random.default_rng(13)
    xs = rng.uniform(-8.0, 8.0, 500)
    assert np.min(g.eval(xs)) >= 0.0


# ---------------------------------------------------------------------------
# transfer operator

def test_transfer_depth_zero_returns_function():
    sys = make_boole()
    f = indicator(1.0, 2.0)
    assert transfer_apply(f, sys, 0) is f


def test_transfer_boole_of_wide_indicator_is_one_inside(monkeypatch):
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 0.5)
    sys = make_boole()
    f = indicator(-60.0, 60.0)
    g = transfer_apply(f, sys, 1)
    xs = np.linspace(-3.0, 3.0, 41)
    assert np.max(np.abs(g.eval(xs) - 1.0)) < 1e-12


def test_transfer_boole_conserves_mass(monkeypatch):
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 1e-4)
    sys = make_boole()
    f = indicator(1.0, 2.0)
    g = transfer_apply(f, sys, 3)
    moments, err = function_moments(g, tol=1e-9)
    assert abs(moments.l1 - 1.0) < 2e-4 + err
    assert g.l1_tail_bound <= 1e-4


def test_transfer_boole_duality(monkeypatch):
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 1e-6)
    sys = make_boole()
    f = indicator(1.0, 2.0)
    g = triangular_bump(0.5, 1.5, 1.0)
    for n in (1, 2, 3):
        tf = transfer_apply(f, sys, n)

        def _prod(x, tf=tf, g=g):
            return tf.eval(x) * g.eval(x)

        lhs_f = TestFunction(eval=_prod, support=tf.support,
                             breakpoints=tuple(sorted(set(tf.breakpoints) | set(g.breakpoints))))
        lhs, e1 = integrate(lhs_f, tf.support, tol=1e-9)

        def _pull(x, f=f, g=g, sys=sys, n=n):
            y = np.asarray(x, dtype=float)
            for _ in range(n):
                y = sys.forward(y)
            vals = g.eval(y)
            return f.eval(x) * np.where(np.isnan(vals), 0.0, vals)

        kinks = [b for b in _pullback_kinks(sys, g.breakpoints + (0.0,), n) if 1.0 < b < 2.0]
        rhs_f = TestFunction(eval=_pull, support=f.support,
                             breakpoints=tuple(sorted(kinks)))
        rhs, e2 = integrate(rhs_f, f.support, tol=1e-9)
        assert abs(lhs - rhs) < 1e-6 * g.sup_bound + 1e-7 + e1 + e2


def _pullback_kinks(sys, pts, depth):
    level = list(pts)
    out = set(level)
    for _ in range(depth):
        nxt = []
        for p in level:
            for y, _ in sys.preimages(np.array([p])):
                if math.isfinite(y[0]):
                    nxt.append(float(y[0]))
        out.update(nxt)
        level = nxt
    return sorted(out)


def test_transfer_boole_positivity(monkeypatch):
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 1e-3)
    sys = make_boole()
    f = indicator(1.0, 2.0)
    g = transfer_apply(f, sys, 2)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-10.0, 10.0, 400)
    assert np.min(g.eval(xs)) >= 0.0


@pytest.mark.parametrize("n", [20, 64])
def test_transfer_boole_deep_iterates_conserve_mass(n):
    # depths whose 2^n preimage leaves are out of reach: the mass inside the
    # grown window plus the declared deficit must still be 1
    g = transfer_apply(indicator(1.0, 2.0), make_boole(), n)
    moments, err = function_moments(g, tol=1e-9)
    assert g.l1_tail_bound <= 1e-4
    assert abs(moments.l1 - 1.0) <= g.l1_tail_bound + err


def test_transfer_composite_shifts_line_and_fixes_circle():
    sys = make_composite(step=1.0)
    f = indicator(0.0, 1.0)
    g = transfer_apply(f, sys, 2)
    xs = np.linspace(-1.0, 4.0, 83)
    assert np.array_equal(g.eval(xs), f.eval(xs - 2.0))
    c = circle_indicator(sys)
    tc = transfer_apply(c, sys, 3)
    rng = np.random.default_rng(23)
    pts = np.concatenate([CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 50),
                          rng.uniform(-5.0, 5.0, 50)])
    assert np.array_equal(tc.eval(pts), c.eval(pts))
    assert tc.support.intervals == c.support.intervals


# functions whose windows must be cut at the segment's ends: a line piece
# just above it, which a backward step moves below it, and intervals
# straddling or covering it
def _segment_cases():
    sys = make_composite(1.0, 0.3, 1.0)
    near = indicator(C0 + 1.2, C0 + 1.7)
    straddle = build_function({"shape": "circle_plus_indicator",
                               "lo": C0 - 0.5, "hi": C0 + 0.5}, sys)
    cover = build_function({"shape": "circle_plus_indicator",
                            "lo": C0 - 0.4, "hi": C0 + 1.4}, sys)
    return sys, {"above": near, "straddle": straddle, "cover": cover}


@pytest.mark.parametrize("apply, case", [
    (birkhoff, "above"), (birkhoff, "straddle"), (birkhoff, "cover"),
    (transfer_apply, "straddle"), (transfer_apply, "cover"),
])
@pytest.mark.parametrize("depth", [1, 3])
def test_composite_mass_conserved_near_segment(apply, case, depth):
    sys, functions = _segment_cases()
    f = functions[case]
    g = apply(f, sys, depth)
    assert abs(integrate(g, g.support)[0] - integrate(f, f.support)[0]) < 1e-9


def test_transfer_translation_duality():
    sys = make_translation(0.5)
    f = triangular_bump(0.0, 1.0, 1.0)
    g = indicator(0.5, 2.0)
    tf = transfer_apply(f, sys, 3)

    def _prod(x):
        return tf.eval(x) * g.eval(x)

    lhs, e1 = integrate(
        TestFunction(eval=_prod, support=tf.support,
                     breakpoints=tf.breakpoints + g.breakpoints),
        tf.support, tol=1e-10)

    def _pull(x):
        return f.eval(x) * g.eval(np.asarray(x, dtype=float) + 1.5)

    rhs, e2 = integrate(
        TestFunction(eval=_pull, support=f.support,
                     breakpoints=f.breakpoints + tuple(b - 1.5 for b in g.breakpoints)),
        f.support, tol=1e-10)
    assert abs(lhs - rhs) < 1e-9 + e1 + e2


# ---------------------------------------------------------------------------
# transfer operator against a brute-force recursion written from the closed
# forms, independent of the systems' preimage code

def _boole_transfer_brute(f_exact, x, n):
    """sum over depth-n Boole preimages y of f(y) * prod y^2 / (1 + y^2),
    with y+- = (x +- sqrt(x^2 + 4)) / 2 taken in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50

        def rec(x, k):
            if k == 0:
                return f_exact(x)
            d = (x * x + 4).sqrt()
            return sum(y * y / (1 + y * y) * rec(y, k - 1)
                       for y in ((x + d) / 2, (x - d) / 2))

        return float(rec(Decimal(float(x)), n))


def test_transfer_boole_matches_closed_form_recursion(monkeypatch):
    # f = 1 - (y/20)^2 on [-20, 20]: continuous, and above 0.43 at every
    # depth-10 preimage of [-5, 5] (each branch moves |y| by at most 1).  f
    # declares no breakpoints, so the interpolant's pieces must end at the
    # kinks T^k(+-20) from the orbit of its support ends
    def f_exact(y):
        return 1 - (y / 20) ** 2 if abs(y) <= 20 else Decimal(0)

    def _eval(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 20.0, 1.0 - (x / 20.0) ** 2, 0.0)

    f = TestFunction(eval=_eval, support=window((-20.0, 20.0)), sup_bound=1.0)
    sys = make_boole()
    # the tail tolerance only sizes the declared support, not the pointwise values
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 1.0)
    xs = np.random.default_rng(37).uniform(-5.0, 5.0, 12)
    for n in range(11):
        g = transfer_apply(f, sys, n)
        assert set(_forward_orbit(sys, (-20.0, 20.0), n)) <= set(g.breakpoints), n
        want = np.array([_boole_transfer_brute(f_exact, x, n) for x in xs])
        assert np.max(np.abs(g.eval(xs) - want) / np.abs(want)) < 1e-13, n


# ---------------------------------------------------------------------------
# the level chain of a Boole transfer iterate against the 2^n-leaf branch
# sum it stands for

_SIGNED = st.one_of(st.floats(0.125, 4.0), st.floats(-4.0, -0.125))
_FIT_SHAPES = st.one_of(
    st.builds(lambda lo, w, s: indicator(lo, lo + w, s),
              st.floats(-4.0, 4.0), st.floats(0.125, 4.0), _SIGNED),
    st.builds(triangular_bump, st.floats(-4.0, 4.0), st.floats(0.125, 4.0), _SIGNED),
    st.lists(_SIGNED, min_size=1, max_size=4).map(
        lambda vs: piecewise_constant([i - 2.0 for i in range(len(vs) + 1)], vs)),
)


@settings(max_examples=40)
@given(f=_FIT_SHAPES, n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_transfer_interpolant_within_its_fit_estimate(f, n, seed):
    sys = make_boole()
    g = transfer_apply(f, sys, n)
    (lo, hi), = g.support.intervals
    rng = np.random.default_rng(seed)
    xs = np.concatenate([rng.uniform(-60.0, 60.0, 300), rng.uniform(lo, hi, 100)])
    # the branch sum jumps at the breakpoints, where either side is right
    xs = xs[np.min(np.abs(xs[:, None] - np.array(g.breakpoints)), axis=1) >= 1e-9]
    miss = np.abs(g.eval(xs) - _branch_sum_reference(f, sys, n, xs))
    assert miss.max() <= g.fit_error + 8 * np.spacing(f.sup_bound)


def test_stock_transfer_fit_estimates_are_small():
    sys, f = make_boole(), indicator(1.0, 2.0)
    for n in range(1, 11):
        assert 0.0 <= transfer_apply(f, sys, n).fit_error <= 1e-13, n


def _many_steps(cells):
    # alternating signs, so T-hat^n |f| runs as its own chain
    return piecewise_constant(np.linspace(-5.0, 5.0, cells + 1).tolist(),
                              [(-1.0) ** i * (1.0 + (i % 7) / 7.0) for i in range(cells)])


@pytest.mark.parametrize("cells", [300, 2500])
def test_transfer_of_many_steps_conserves_its_mass_past_unfitted_slivers(monkeypatch, cells):
    # near-coincident orbit cuts leave pieces about 1e-15 wide that cannot
    # be split: they are left unfitted, and their mass is integrated by
    # quadrature; at 2500 cells the level chain passes _MAX_PIECES
    fits, quadratures = [], []
    fit_pieces, quadrature = dynamics._fit_pieces, dynamics.integrate

    def spy_fit(*args):
        fits.append(fit_pieces(*args))
        return fits[-1]

    def spy_integrate(*args, **kwargs):
        quadratures.append(args)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_fit_pieces", spy_fit)
    monkeypatch.setattr(dynamics, "integrate", spy_integrate)
    f = _many_steps(cells)
    g = transfer_apply(f, make_boole(), 3)
    assert any(fit.fallback.any() for fit in fits)
    assert len(quadratures) > 1  # the total mass, then the unfitted pieces
    assert (max(fit.a.size for fit in fits) > dynamics._MAX_PIECES) == (cells == 2500)
    mass, _ = integrate(f, f.support, tol=1e-12)
    got, err = integrate(g, g.support, tol=1e-9)
    assert abs(got - mass) <= g.l1_tail_bound + g.fit_error + err


@pytest.mark.parametrize("cells", [300, 2500])
def test_transfer_of_many_steps_matches_the_branch_sum_off_its_slivers(cells):
    # away from the 1e-15 slivers, which the breakpoints bracket, the
    # interpolant is within its fit estimate of the branch sum
    f, sys = _many_steps(cells), make_boole()
    g = transfer_apply(f, sys, 3)
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-60.0, 60.0, 3000), rng.uniform(-8.0, 8.0, 3000)])
    cuts = np.array(g.breakpoints)
    i = np.clip(np.searchsorted(cuts, xs), 1, cuts.size - 1)
    xs = xs[np.minimum(xs - cuts[i - 1], cuts[i] - xs) >= 1e-9]
    miss = np.abs(g.eval(xs) - _branch_sum_reference(f, sys, 3, xs))
    assert miss.max() <= g.fit_error + 8 * np.spacing(f.sup_bound)


def test_transfer_window_that_stops_short_warns_and_declares_its_deficit(monkeypatch):
    # at 1e-9 the missed mass of indicator(1, 2) stalls near 7.9e-7: the
    # growth loop gives up with a warning, and the deficit is the L1 tail
    monkeypatch.setattr(dynamics, "TRANSFER_TAIL_TOL", 1e-9)
    with pytest.warns(UserWarning) as caught:
        g = transfer_apply(indicator(1.0, 2.0), make_boole(), 2)
    assert [str(w.message).startswith("transfer window stopped") for w in caught] == [True]
    assert g.l1_tail_bound > 1e-9


def test_transfer_composite_with_breakpoints_matches_recursion():
    length, angle, step = 1.0, GOLDEN, 1.0
    c0, c1 = CIRCLE_OFFSET, CIRCLE_OFFSET + length
    sys = make_composite(circumference=length, angle=angle, step=step)
    line = piecewise_constant((-3.0, -1.0, 0.5, 2.0), (1.0, -2.0, 0.5))
    circle = piecewise_constant((c0, c0 + 0.5, c1), (3.0, -1.5))

    def _eval(x):
        return line.eval(x) + circle.eval(x)

    f = TestFunction(eval=_eval, support=window((-3.0, 2.0), (c0, c1)),
                     sup_bound=3.0, breakpoints=line.breakpoints + circle.breakpoints)

    def back(x):
        # rotate the circle by -angle; on the line, collapse the circle
        # segment, shift by -step, then re-insert the segment
        if c0 <= x < c1:
            return c0 + (x - c0 - angle) % length
        u = (x - length if x >= c1 else x) - step
        return u + length if u >= c0 else u

    rng = np.random.default_rng(43)
    for n in range(7):
        g = transfer_apply(f, sys, n)
        assert set(b + n for b in line.breakpoints) <= set(g.breakpoints)
        xs = np.concatenate([rng.uniform(-4.0, 10.0, 40),
                             c0 + rng.uniform(0.0, length, 40),
                             [b + n for b in line.breakpoints]])
        want = []
        for x in xs:
            for _ in range(n):
                x = back(x)
            want.append(float(_eval(np.array([x]))[0]))
        assert np.array_equal(g.eval(xs), np.array(want)), n


# ---------------------------------------------------------------------------
# the Birkhoff and branch-sum kernels against the np.where accumulation

def _birkhoff_reference(f, sys, n, x, powers=None):
    """(1/n) sum_k f(T^{p_k} x) over the exponents (1..n by default), every
    point stepped at every step, a NaN value counted as 0.0."""
    wanted = set(range(1, n + 1) if powers is None else powers)
    acc = np.zeros(x.shape)
    cur = x
    for k in range(1, max(wanted) + 1):
        cur = np.asarray(sys.forward(cur), dtype=float)
        if k in wanted:
            vals = np.asarray(f.eval(cur), dtype=float)
            acc += np.where(np.isnan(vals), 0.0, vals)
    return acc / n


def _branch_sum_reference(f, sys, n, x):
    """The depth-first sum over all 2^n (or 1) preimage branches, a NaN
    value counted as 0.0: bit for bit the one-branch loop ``_branch_sum``,
    and what the Boole level chain stands for."""
    out = np.zeros(x.shape)
    stack = [(0, x, np.ones(x.shape))]
    while stack:
        level, y, wgt = stack.pop()
        if level == n:
            vals = np.asarray(f.eval(y), dtype=float)
            out += wgt * np.where(np.isnan(vals), 0.0, vals)
            continue
        for y2, jac in sys.preimages(y):
            stack.append((level + 1, y2, wgt * jac))
    return out


def _nan_on_part(x):
    # NaN to the right of 0.5, a signed wave on [-2, 0.5]
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # sin of an infinite Boole iterate
        inside = np.where(np.abs(x) <= 2.0, np.sin(3.0 * x) - 0.2, 0.0)
    return np.where(x > 0.5, np.nan, inside)


GUARD_FUNCTIONS = {
    "nan_on_part": TestFunction(eval=_nan_on_part, support=window((-2.0, 2.0)),
                                sup_bound=1.2, breakpoints=(-2.0, 0.5, 2.0)),
    "negative": TestFunction(
        eval=lambda x: indicator(-1.0, 1.5, -2.0).eval(x)
        + triangular_bump(0.3, 1.0, -1.5).eval(x),
        support=window((-1.0, 1.5)), sup_bound=3.5, breakpoints=(-1.0, -0.7, 0.3, 1.3, 1.5)),
}


def _guard_points(size):
    rng = np.random.default_rng(61)
    pool = np.concatenate([[-1.0, 0.0, 1.0], CIRCLE_OFFSET + rng.uniform(0.0, 1.0, 20),
                           np.linspace(-3.0, 3.0, 97), rng.uniform(-4.0, 4.0, size)])
    return rng.permutation(pool)[:size]


def _near(points, ulps=3):
    """The points and the floats up to ``ulps`` either side of each."""
    out = [np.asarray(points, dtype=float)]
    lo = hi = out[0]
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def _edge_points(f, sys, n, powers=None):
    """Every window edge ``sys.image`` gives the depth-n average, and every
    singularity, each with the floats a few ulps either side."""
    kmax = n if powers is None else powers[-1]
    images = [sys.image(f.support, -k) for k in range(kmax + 1)]
    edges = [e for w in images for iv in w.intervals for e in iv]
    return _near(np.concatenate([edges, sys.singularities]))


# (depth, exponents): short and long averages, and a k^2 subsequence up to 64
BIRKHOFF_DEPTHS = ((1, None), (3, None), (16, None), (33, None),
                   (8, tuple(k * k for k in range(1, 9))))


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
@pytest.mark.parametrize("name", sorted(GUARD_FUNCTIONS))
def test_kernels_bit_equal_to_where_reference(kind, name):
    sys, f = SYSTEMS[kind](), GUARD_FUNCTIONS[name]
    # from one point to just past one 2^15-point Monte Carlo block
    for size in (1, 97, 4096, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1):
        xs = _guard_points(size)
        for n, powers in BIRKHOFF_DEPTHS:
            got = birkhoff(f, sys, n, subsequence=powers).eval(xs)
            want = _birkhoff_reference(f, sys, n, xs, powers)
            assert got.tobytes() == want.tobytes(), (size, n)
        # a one-branch system's transfer iterate is the branch sum itself
        for n in range(1, 4) if kind != "boole" else ():
            got = _branch_sum(f.eval, sys, n)(xs)
            assert got.tobytes() == _branch_sum_reference(f, sys, n, xs).tobytes(), (size, n)
    for n, powers in BIRKHOFF_DEPTHS:
        xs = _edge_points(f, sys, n, powers)
        got = birkhoff(f, sys, n, subsequence=powers).eval(xs)
        assert got.tobytes() == _birkhoff_reference(f, sys, n, xs, powers).tobytes(), n


def test_birkhoff_follows_a_circle_point_that_rounds_off_the_circle():
    # with angle 0.3 the rotation of the wrap point rounds up to the circle's
    # end c1, a line point: the clamp keeps it on the circle, at the float
    # below c1, so the line never carries it into f's support
    sys = make_composite(circumference=1.0, angle=0.3, step=1.0)
    c1 = CIRCLE_OFFSET + 1.0
    wrap = np.array([sys.singularities[1]])
    assert sys.forward(wrap)[0] == np.nextafter(c1, 0.0)
    for f, want in ((indicator(c1 + 0.5, c1 + 1.5), 0.0), (circle_indicator(sys), 1.0)):
        xs = np.concatenate([wrap, _edge_points(f, sys, 3)])
        got = birkhoff(f, sys, 3).eval(xs)
        assert got.tobytes() == _birkhoff_reference(f, sys, 3, xs).tobytes()
        assert got[0] == want


def test_composite_keeps_every_circle_point_on_the_circle():
    # c0 + mod(x - c0 +- angle, length) can round up to c1, a line point;
    # forward and the preimage branch clamp it to the circle's last float
    rng = np.random.default_rng(5)
    for length in (1.0, 0.37):
        c0, c1 = CIRCLE_OFFSET, CIRCLE_OFFSET + length
        for angle in rng.uniform(0.0, length, 40):
            sys = make_composite(length, angle, 1.0)
            xs = np.concatenate([_near([c0 + angle, c1 - angle], ulps=20), [c0]])
            xs = xs[(xs >= c0) & (xs < c1)]
            (pre, _), = sys.preimages(xs)
            for ys in (sys.forward(xs), pre):
                assert np.all((ys >= c0) & (ys < c1)), (length, angle)


def test_composite_forward_rotates_only_circle_points_without_a_warning():
    # np.mod of +-inf warns: a block mixing them with circle points must
    # rotate only the circle points, each with its own bits
    sys, f = make_composite(), triangular_bump(0.5, 0.5)
    xs = np.array([np.inf, -np.inf, np.nan, CIRCLE_OFFSET + 0.5, 0.3] * 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = birkhoff(f, sys, 3).eval(xs)
        want = _birkhoff_reference(f, sys, 3, xs)
        block = sys.forward(xs[:5])
        alone = np.concatenate([sys.forward(xs[i:i + 1]) for i in range(5)])
    assert got.tobytes() == want.tobytes()
    assert block.tobytes() == alone.tobytes()
    assert block[3] == CIRCLE_OFFSET + np.mod(0.5 + GOLDEN, 1.0)
    assert block[4] == 1.3


def _shape(draw, near):
    lo = near + draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(0.05, 2.5))
    height = draw(st.sampled_from([1.0, -2.0, 0.3]))
    kind = draw(st.sampled_from(["indicator", "bump", "steps"]))
    if kind == "indicator":
        return indicator(lo, lo + width, height)
    if kind == "bump":
        return triangular_bump(lo + width / 2, width / 2, height)
    return piecewise_constant([lo, lo + width / 3, lo + width], [height, -0.5])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_birkhoff_bits_equal_dense_loop(data):
    draw = data.draw
    kind = draw(st.sampled_from(["translation", "boole", "composite"]))
    near = 0.0
    if kind == "translation":
        sys = make_translation(draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 3.0)))
    elif kind == "boole":
        sys = make_boole()
    else:
        sys = make_composite(draw(st.floats(0.25, 3.0)), draw(st.floats(-2.0, 2.0)),
                             draw(st.floats(-3.0, 3.0)))
        near = draw(st.sampled_from([0.0, CIRCLE_OFFSET, CIRCLE_OFFSET + sys.params[0]]))
    f = _shape(draw, near)
    n = draw(st.integers(1, 24))
    powers = None
    if draw(st.booleans()):
        powers = tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=n, max_size=n))))
    g = birkhoff(f, sys, n, subsequence=powers)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = _edge_points(f, sys, n, powers)
    xs = np.concatenate([rng.choice(edges, draw(st.integers(0, 200))),
                         window_position(g.support, rng.random(draw(st.integers(0, 3000))))])
    xs = rng.permutation(xs)
    got = g.eval(xs)
    assert got.tobytes() == _birkhoff_reference(f, sys, n, xs, powers).tobytes()


def test_branch_sum_maps_cauchy_kernels_by_letac():
    # Boole's map is the boundary map of the inner function z - 1/z, so its
    # transfer operator sends the Cauchy kernel P_z to P_{z - 1/z} (Letac,
    # "Which functions preserve Cauchy laws?", Proc. AMS 67, 1977).  The
    # level chain, with no breakpoints to follow, must stay within its
    # summed fit estimate of the closed form
    def cauchy(z):
        a, b = z.real, z.imag
        return lambda x: (b / math.pi) / ((np.asarray(x, dtype=float) - a) ** 2 + b * b)

    sys, z = make_boole(), 0.3 + 1.0j
    xs = np.linspace(-20.0, 20.0, 201)
    zn, depth = z, 0
    for n in (16, 64, 256):
        while depth < n:
            zn, depth = zn - 1.0 / zn, depth + 1
        chain = dynamics._Chain(cauchy(z), sys, n, (), dynamics._FIT_TOL / math.pi)
        chain.grow(20.0)
        estimate = math.fsum(max(float(fit.est.max()) for fit in level) for level in chain.fits)
        miss = np.abs(chain.evals[-1](xs) - cauchy(zn)(xs))
        assert miss.max() <= estimate + 4 * np.spacing(1.0 / math.pi), n


def test_circle_indicator_negative_scale_keeps_positive_zero():
    sys = make_composite(0.3, 0.1, 1.0)
    x = np.concatenate([np.linspace(-2.0, 2.0, 41),
                        CIRCLE_OFFSET + np.linspace(-0.5, 0.8, 131)])
    mask = (x >= CIRCLE_OFFSET) & (x < CIRCLE_OFFSET + 0.3)
    got = circle_indicator(sys, -1.5).eval(x)
    assert got.tobytes() == np.where(mask, -1.5, 0.0).tobytes()
    assert not np.signbit(got[~mask]).any()


# ---------------------------------------------------------------------------
# Birkhoff averages at their pulled-back breakpoints

def _assert_loop_bits(g, f, sys, n, powers=None, extra=()):
    """g.eval against the dense reference, bit for bit: on g's support, at
    the floats up to 64 ulps either side of every pulled-back breakpoint,
    where the float iterates of a point can cross a breakpoint that the
    exact ones do not, and at ``extra``."""
    rng = np.random.default_rng(n)
    xs = np.concatenate([window_position(g.support, rng.random(2 ** 12)),
                         _near(g.breakpoints, ulps=64), np.asarray(extra, dtype=float)])
    got = g.eval(xs)
    assert got.tobytes() == _birkhoff_reference(f, sys, n, xs, powers).tobytes(), n


CUT_CASES = {
    "indicator_translation": (lambda: make_translation(1.0), lambda s: indicator(0.0, 1.0)),
    "steps_translation": (lambda: make_translation(0.7),
                          lambda s: piecewise_constant([-1.0, 0.2, 0.9, 2.5], [1.5, 0.0, -2.0])),
    "indicator_tenth_translation": (lambda: make_translation(0.1),
                                    lambda s: indicator(0.0, 1.0)),
    "indicator_back_translation": (lambda: make_translation(-0.05),
                                   lambda s: indicator(0.3, 0.45, -3.0)),
    "circle": (make_composite, lambda s: circle_indicator(s)),
    "circle_plus_indicator": (
        lambda: make_composite(circumference=1.0, angle=0.3, step=1.0),
        lambda s: build_function({"shape": "circle_plus_indicator", "lo": CIRCLE_OFFSET - 2.5,
                                  "hi": CIRCLE_OFFSET - 1.0, "scale": 2.0}, s)),
    "atoms_composite": (lambda: make_composite(0.5, -0.2, -1.5),
                        lambda s: build_function({"shape": "atoms",
                                                  "atoms": [[1.0, 0.5], [-2.0, 0.25]]})),
    # a cell 1e-3 wide among cuts spread over about 40
    "steps_golden_translation": (lambda: make_translation(GOLDEN),
                                 lambda s: piecewise_constant([0.0, 1e-3, 1.0], [1.0, -1.0])),
}


@pytest.mark.parametrize("name", sorted(CUT_CASES))
@pytest.mark.parametrize("n", (1, 4, 33, 40))
def test_table_bits_equal_the_reference_at_every_cut_and_bucket_edge(name, n):
    # the cuts are the average's pulled-back breakpoints
    make_sys, make_f = CUT_CASES[name]
    sys = make_sys()
    f = make_f(sys)
    g = birkhoff(f, sys, n)
    _assert_loop_bits(g, f, sys, n, extra=sys.singularities)


def test_table_bits_equal_the_reference_at_the_wrap_singularity():
    # with angle 0.3 the rotation jumps from the circle's end back to c0 at
    # the wrap point 1048576.7, which rotates to the circle's last float
    sys = make_composite(circumference=1.0, angle=0.3, step=1.0)
    wrap = sys.singularities[1]
    assert wrap == 1048576.7
    c1 = CIRCLE_OFFSET + 1.0
    for f in (indicator(c1 + 0.5, c1 + 1.5), circle_indicator(sys), indicator(c1, c1 + 3.0)):
        for n in (1, 3, 32):
            g = birkhoff(f, sys, n)
            _assert_loop_bits(g, f, sys, n, extra=_near([wrap], ulps=50))
    g = birkhoff(indicator(c1 + 0.5, c1 + 1.5), sys, 3)
    assert g.eval(np.array([wrap]))[0] == 0.0
    assert birkhoff(circle_indicator(sys), sys, 4).eval(np.array([wrap]))[0] == 1.0


def test_table_bits_on_the_k_squared_subsequence():
    powers = tuple(k * k for k in range(1, 9))
    for sys, f in ((make_translation(1.0), indicator(0.0, 1.0)),
                   (make_composite(), circle_indicator(make_composite()))):
        g = birkhoff(f, sys, 8, subsequence=powers)
        _assert_loop_bits(g, f, sys, 8, powers)


def test_table_takes_non_finite_points_without_a_warning():
    sys = make_composite()
    for f, s in ((indicator(0.0, 1.0), make_translation(0.5)),
                 (circle_indicator(sys), sys)):
        g = birkhoff(f, s, 8)
        xs = np.array([np.nan, np.inf, -np.inf, 0.25, -1e308, 1.7e308, CIRCLE_OFFSET + 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = g.eval(xs)
            want = _birkhoff_reference(f, s, 8, xs)
        assert got.tobytes() == want.tobytes()


def test_empty_support_boole_and_undeclared_functions_keep_stepping():
    # an empty support, a branching system, a kink and declared tails: each
    # average is the dense loop
    empty = build_function({"shape": "steps", "breaks": [0.0, 1.0], "values": [0.0]})
    assert not empty.support
    tails = TestFunction(eval=indicator(0.0, 1.0).eval, support=window((0.0, 1.0)),
                         l1_tail_bound=1e-3, breakpoints=(0.0, 1.0))
    xs = np.linspace(-4.0, 2.0, 61)
    for f, sys in ((empty, make_translation(1.0)), (indicator(0.0, 1.0), make_boole()),
                   (triangular_bump(0.5, 0.5), make_translation(1.0)),
                   (tails, make_translation(1.0))):
        got = birkhoff(f, sys, 3).eval(xs)
        assert got.tobytes() == _birkhoff_reference(f, sys, 3, xs).tobytes(), sys.kind


@pytest.mark.parametrize("scenario", ["birkhoff_decay", "starstar_ergodic",
                                      "invariant_vector", "blum_hanson"])
def test_stock_rows_are_simple_and_drawn_by_cell_counts(scenario, monkeypatch):
    # the stock rows, and the suite's rows for blum_hanson: each average
    # reduces to atoms by piecewise_to_simple, so its norm columns are
    # exact and its Monte Carlo sums are Poisson cell counts, with no
    # sample point drawn or evaluated
    calls = []
    for name in ("_replicate_sums", "_replicate_blocks", "_count_cells"):
        original = getattr(poisson, name)

        def recorded(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(poisson, name, recorded)
    suite = experiments._SCENARIOS[scenario].suite if scenario == "blum_hanson" else {}
    cfg = experiments.default_config(scenario, seed=42, **suite)
    rows, _ = experiments.run_experiment(cfg)
    assert [r.n for r in rows] == list(cfg._built.depths)
    assert [r.norm_source for r in rows] == ["simple"] * len(rows)
    assert calls == ["_count_cells"] * len(rows)
