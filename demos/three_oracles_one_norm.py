"""
Three routes to the star norm
=============================

The star norm of a simple function is the mean absolute value of its
centered Poisson integral.  The package computes it three independent ways:

  * exact summation over the joint Poisson law of the atoms,
  * characteristic-function inversion (a quadrature with an error estimate),
  * plain Monte Carlo over seeded samples.

Agreement of all three on the same input is the strongest correctness check
available, because the implementations share no code path.
"""

from poisson_orlicz import (
    SimpleFunction,
    estimate_star_norm,
    simple_to_test,
    star_norm_exact,
    star_norm_hsu,
)

panel = [
    ("single negative atom", SimpleFunction(((-1.0, 0.5),))),
    ("Skellam pair", SimpleFunction(((1.0, 1.0), (-1.0, 1.0)))),
    ("uneven mixture", SimpleFunction(((1.2, 0.4), (-0.3, 2.5), (2.0, 0.15)))),
]

print(f"{'function':24s} {'exact':>12s} {'cf inversion':>13s} "
      f"{'monte carlo':>12s} {'mc se':>9s}")
for name, s in panel:
    exact = star_norm_exact(s)
    hsu = star_norm_hsu(s, tol=2e-7)
    f = simple_to_test(s)
    est = estimate_star_norm(f, f.support, 20_000, seed=6100)
    print(f"{name:24s} {exact:12.8f} {hsu:13.8f} "
          f"{est.mean:12.8f} {est.std_error:9.6f}")

print("\nThe lattice-valued Skellam case is the hard one for the quadrature:")
print("its characteristic function is periodic, so the inversion integrand")
print("decays only like 1/t^2 and tolerances below ~1e-7 get")
print("expensive.  The exact oracle has no such difficulty.")
