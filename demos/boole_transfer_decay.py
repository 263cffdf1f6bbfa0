"""
Transfer operator of the Boole map
==================================

T(x) = x - 1/x preserves Lebesgue measure on the whole line.  Its transfer
operator pushes densities forward:

    (T^ f)(x) = sum over preimages y of f(y) / |T'(y)|.

Iterating it conserves total mass exactly while flattening the density, so
the star norm of the iterates decays to zero: the system is "remotely
infinite" and its Poisson suspension is exact.  Each iterate doubles the
number of preimage branches, so at depth n the sum has 2^n terms.  Instead
the iterate is built one preimage step per level.  Between the forward
orbit of f's breakpoints it is analytic, so level k is a piecewise
Chebyshev interpolant of degree 16 of the transfer of level k-1, and every
sample point and quadrature node evaluates level n.  Each run reports the
summed per-level estimate of the sup-norm error by depth (a heuristic
estimate, not a bound) beside the truncation bound.
"""

from poisson_orlicz import default_config, run_experiment

cfg = default_config("transfer_decay", seed=6501,
                     depths=(0, 1, 2, 3, 4, 5, 6), replicates=2000)
rows, summary = run_experiment(cfg)

print(f"{'n':>2s} {'star (mc)':>11s} {'se':>9s} {'mass':>12s} "
      f"{'norm source':>12s}")
for r in rows:
    print(f"{r.n:2d} {r.star.mean:11.6f} {r.star.std_error:9.6f} "
          f"{r.l1:12.8f} {r.norm_source:>12s}")

print(f"\nmass stays at 1 and the star column never rises: "
      f"all_pass={summary['all_pass']}")
print("(the n=0 row is the exact value 2/e = 0.735759 of the base")
print("indicator; later rows are Monte Carlo over the level-n interpolant")
print("of the 2^n-branch sum, whose estimated fit error is at most "
      f"{max(summary['fit_error_estimate'].values()):.1e})")
