"""Young pair, modular, gauge norm, and the two Orlicz-norm evaluators."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poisson_orlicz.measure import (
    SimpleFunction,
    function_moments,
    indicator,
    simple_moments,
    simple_to_test,
)
from poisson_orlicz.orlicz import (
    gauge_norm,
    golden_section_min,
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
    assert abs(modular(tf, tol=1e-11) - modular(f)) < 1e-9


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
    assert abs(orlicz_norm_paper(tf, tol=1e-9) - orlicz_norm_paper(f)) < 1e-7


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
        assert abs(modular(t, tol=1e-11, scale=k) - modular(s, scale=k)) < 1e-9
    for a, b in zip(function_moments(t, tol=1e-11)[0], function_moments(s)[0]):
        assert abs(a - b) < 1e-9
    for norm in (gauge_norm, orlicz_norm_paper, orlicz_norm_amemiya):
        assert abs(norm(t, tol=1e-9) - norm(s)) < 1e-7


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


def test_golden_section_parabola():
    x, fx = golden_section_min(lambda t: (t - 1.3) ** 2 + 0.25, 0.0, 4.0)
    assert abs(x - 1.3) < 1e-6
    assert abs(fx - 0.25) < 1e-12


def test_norm_brackets_on_direct_evaluators():
    f = SimpleFunction(((1.0, 0.5), (-2.0, 0.25)))
    gauge = gauge_norm(f)
    paper = orlicz_norm_paper(f)
    amemiya = orlicz_norm_amemiya(f)
    l1, l2sq, _ = simple_moments(f)
    slack = 1e-8 * max(1.0, gauge)
    assert gauge <= paper + slack
    assert paper <= 2 * gauge + slack
    assert paper <= 2 * l1 + slack
    assert math.isfinite(amemiya) and amemiya > 0
    assert l1 == 1.0
    assert abs(math.sqrt(l2sq) - math.sqrt(1.5)) < 1e-12
