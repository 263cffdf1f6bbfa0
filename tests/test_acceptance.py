"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Each criterion is a separate test so a failure pinpoints the broken claim.
Run with ``pytest -s tests/test_acceptance.py`` to see every line.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from poisson_orlicz.measure import (
    SimpleFunction,
    indicator,
    piecewise_constant,
    piecewise_to_simple,
    simple_moments,
    simple_to_test,
    triangular_bump,
)
from poisson_orlicz.orlicz import gauge_norm, orlicz_norm_paper
from poisson_orlicz.poisson import (
    estimate_star_norm,
    estimate_starstar_norm,
    second_moment_check,
    star_norm_exact,
    star_norm_hsu,
)
from poisson_orlicz.experiments import _MASS_BAND, default_config, run_experiment
from test_scripts import GOLDEN, golden


def report(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def poisson_mad(c):
    k = math.floor(c)
    return 2.0 * c ** (k + 1) * math.exp(-c) / math.factorial(k)


def random_simple(rng, max_atoms=5):
    k = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(0.05, 5.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    masses = np.exp(rng.uniform(math.log(0.01), math.log(10.0), size=k))
    return SimpleFunction(tuple((float(v), float(m))
                                for v, m in zip(values, masses)))


# ---------------------------------------------------------------------------

def test_criterion_01_indicator_star_norm():
    ok = True
    for n in (2, 3, 5, 10):
        m = 1.0 / n
        target = 2.0 * m * math.exp(-m)
        exact = star_norm_exact(SimpleFunction(((-1.0, m),)))
        ok = ok and abs(exact - target) <= 1e-10
        f = indicator(0.0, m, scale=-1.0)
        t0 = time.monotonic()
        est = estimate_star_norm(f, f.support, 100_000, 6001 + n)
        elapsed = time.monotonic() - t0
        band = 3.0 * est.std_error + est.truncation_bound
        ok = ok and abs(est.mean - target) <= band and elapsed < 5.0
    report(1, "indicator star norm matches 2(1/n)e^(-1/n)", ok)


def test_criterion_02_triple_oracle_agreement():
    panel = [
        SimpleFunction(((-1.0, 0.5),)),
        SimpleFunction(((1.0, 1.0),)),
        SimpleFunction(((1.0, 1.0), (-1.0, 1.0))),          # Skellam
        SimpleFunction(((1.0, 2.0), (-0.5, 1.0))),
        SimpleFunction(((0.3, 4.0),)),
        SimpleFunction(((2.0, 0.25), (1.0, 0.5))),
        SimpleFunction(((-1.5, 0.8), (0.7, 1.2))),
        SimpleFunction(((1.0, 0.1), (-2.0, 0.2), (0.5, 0.3))),
        SimpleFunction(((0.6, 3.0), (-0.6, 3.0))),
        SimpleFunction(((1.2, 0.4), (-0.3, 2.5), (2.0, 0.15), (-1.0, 0.6))),
    ]
    ok = True
    for i, s in enumerate(panel):
        exact = star_norm_exact(s)
        hsu = star_norm_hsu(s, tol=2e-7)
        ok = ok and abs(exact - hsu) <= 1e-6
        f = simple_to_test(s)
        est = estimate_star_norm(f, f.support, 20_000, 6100 + i)
        ok = ok and abs(est.mean - exact) <= 3.0 * est.std_error + est.truncation_bound
    report(2, "exact, Hsu, and Monte Carlo star norms agree", ok)


def test_criterion_03_urbanik_marcus_scan():
    rng = np.random.default_rng(777)
    t0 = time.monotonic()
    violations = 0
    for _ in range(200):
        s = random_simple(rng)
        star = star_norm_exact(s)
        gauge = gauge_norm(s)
        orl = orlicz_norm_paper(s)
        if not (0.125 * gauge <= star <= 2.125 * gauge):
            violations += 1
        if star > orl + 1e-9:
            violations += 1
    elapsed = time.monotonic() - t0
    report(3, "Marcus bounds and star<=orlicz on 200 random functions",
           violations == 0 and elapsed < 30.0)


def test_criterion_04_gauge_orlicz_bracket():
    rng = np.random.default_rng(777)
    offenders = []
    for i in range(200):
        s = random_simple(rng)
        gauge = gauge_norm(s)
        orl = orlicz_norm_paper(s)
        if not (gauge <= orl + 1e-8 and orl <= 2.0 * gauge + 1e-8):
            offenders.append((i, s.atoms, gauge, orl))
    for i, atoms, gauge, orl in offenders:
        print(f"  bracket violation at sample {i}: atoms={atoms} "
              f"gauge={gauge!r} orlicz={orl!r}")
    report(4, "gauge <= orlicz <= 2*gauge within 1e-8", not offenders)


def test_criterion_05_l2_isometry():
    panel = [
        indicator(0.0, 1.0),
        indicator(-2.0, 1.5, scale=0.8),
        piecewise_constant((0.0, 0.5, 2.0), (0.4, 1.1)),
        triangular_bump(1.0, 0.8, 1.2),
        piecewise_constant((0.0, 1.0, 2.0), (1.0, -1.0)),
    ]
    ok = True
    for i, f in enumerate(panel):
        est, target = second_moment_check(f, f.support, 100_000, 6200 + i)
        ok = ok and abs(est.mean - target) <= 3.0 * est.std_error + est.truncation_bound
    report(5, "sample variance of I1(f) equals integral of f^2", ok)


def test_criterion_06_identity_suite():
    ok = True
    for seed in (1, 42, 1337):
        rows, summary = run_experiment(default_config("identity_suite",
                                                      seed=seed))
        ok = ok and summary["all_pass"]
        margin = [c["margin"] for c in summary["checks"]
                  if c["id"] == "difference_exact"]
        ok = ok and margin == [0.0]
    report(6, "Mecke/difference/moment/equivariance/coboundary identities", ok)


def test_criterion_07_birkhoff_decay():
    t0 = time.monotonic()
    cfg = default_config("birkhoff_decay", seed=6301)
    rows, summary = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    ok = summary["all_pass"] and [r.n for r in rows] == [1, 2, 4, 8, 16, 32]
    for r in rows:
        target = 2.0 * r.n ** r.n * math.exp(-r.n) / math.factorial(r.n)
        band = 3.0 * r.star.std_error + r.star.truncation_bound
        ok = ok and abs(r.star.mean - target) <= band
        ok = ok and abs(r.l1 - 1.0) <= 1e-9
    slope = [v for r in rows for v in r.verdicts if v.id == "slope"]
    ok = ok and len(slope) == 1 and slope[0].passed
    report(7, "Birkhoff star decay n^(-1/2) with constant L1 norm",
           ok and elapsed < 60.0)


def test_criterion_08_invariant_vector():
    cfg = default_config("invariant_vector", seed=6401)
    rows, summary = run_experiment(cfg)
    target = 2.0 * math.exp(-1.0)
    ok = summary["all_pass"] and len(rows) == 6
    for r in rows:
        band = 3.0 * r.star.std_error + r.star.truncation_bound
        ok = ok and abs(r.star.mean - target) <= band
    report(8, "circle indicator star norm constant at 2/e", ok)


def test_criterion_09_transfer_decay():
    cfg = default_config("transfer_decay", seed=6501)
    rows, summary = run_experiment(cfg)
    ok = summary["all_pass"] and [r.n for r in rows] == list(range(11))
    for prev, cur in zip(rows, rows[1:]):
        band = (2.0 * (prev.star.std_error + cur.star.std_error)
                + prev.star.truncation_bound + cur.star.truncation_bound)
        ok = ok and cur.star.mean <= prev.star.mean + band
    for r in rows:
        ok = ok and abs(r.l1 - 1.0) <= _MASS_BAND
    first = rows[0]
    band0 = 3.0 * first.star.std_error + first.star.truncation_bound
    ok = ok and abs(first.star.mean - 2.0 * math.exp(-1.0)) <= band0
    report(9, "Boole transfer iterates: mass 1, star non-increasing", ok)


def test_criterion_10_starstar_properties():
    ok = True
    nonneg = [
        indicator(0.0, 1.3, scale=0.7),
        piecewise_constant((0.0, 0.5, 2.0), (0.4, 1.1)),
        triangular_bump(1.0, 0.8, 1.2),
    ]
    for i, f in enumerate(nonneg):
        est = estimate_starstar_norm(f, f.support, 50_000, 6600 + i)
        try:
            s = piecewise_to_simple(f)
            mom_l1 = simple_moments(s)[0]
        except ValueError:
            mom_l1 = 0.96  # triangular bump: height * halfwidth
        ok = ok and abs(est.mean - mom_l1) <= 3.0 * est.std_error + est.truncation_bound

    mixed = piecewise_constant((0.0, 1.0, 2.0), (1.0, -1.0))
    est = estimate_starstar_norm(mixed, mixed.support, 50_000, 6610)
    l1 = simple_moments(piecewise_to_simple(mixed))[0]
    ok = ok and l1 - est.mean > 3.0 * est.std_error + est.truncation_bound

    zero_integral = [
        piecewise_constant((0.0, 1.0, 2.0), (1.0, -1.0)),
        piecewise_constant((0.0, 1.0, 2.0, 3.0), (0.5, -1.0, 0.5)),
        simple_to_test(SimpleFunction(((2.0, 0.3), (-1.0, 0.6)))),
    ]
    for i, f in enumerate(zero_integral):
        est = estimate_starstar_norm(f, f.support, 50_000, 6620 + i)
        star = star_norm_exact(piecewise_to_simple(f))
        ok = ok and abs(est.mean - star) <= 3.0 * est.std_error + est.truncation_bound

    rows, summary = run_experiment(default_config("starstar_ergodic",
                                                  seed=6630))
    ok = ok and summary["all_pass"]
    for r in rows:
        target = poisson_mad(float(r.n)) / r.n
        ok = ok and abs(r.star.mean - target) <= 3.0 * r.star.std_error + r.star.truncation_bound
    report(10, "starstar equals L1 for signs, star for zero integral", ok)


def test_criterion_11_suite_determinism(tmp_path):
    outputs = []
    for threads, name in (("1", "a.csv"), ("4", "b.csv")):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_orlicz.cli", "suite",
             "--seed", "42", "--output", str(path)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(path.read_bytes())
    report(11, "suite output byte-identical across thread counts and pinned",
           outputs[0] == outputs[1] == golden.text(GOLDEN["suite_csv"]).encode())
