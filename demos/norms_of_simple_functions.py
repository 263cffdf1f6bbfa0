"""
Norms of simple functions
=========================

A simple function is a finite list of (value, mass) atoms over disjoint
finite-measure sets.  This demo prints all the norms the package knows for a
few of them and shows the bracket relations that hold in general:

    gauge <= orlicz <= 2 * gauge          (dual vs Luxemburg formulation)
    orlicz <= amemiya <= 2 * orlicz       (dual balls of radius 1 and 2)
    0.125 * gauge <= star <= 2.125 * gauge  (Poisson-integral equivalence)

Both Orlicz norms are dual forms sup{ int |f| g : 0 <= g <= 2, ||g||_2 <= r }:
r = 1 for the paper's norm, r = 2 for Amemiya's, whose ball is that of the
conjugate Phi*(y) = y^2/4.
"""

from poisson_orlicz import (
    SimpleFunction,
    gauge_norm,
    orlicz_norm_amemiya,
    orlicz_norm_paper,
    star_norm_exact,
    starstar_norm_exact,
    simple_moments,
)

functions = {
    "half-mass indicator": SimpleFunction(((-1.0, 0.5),)),
    "unit atom": SimpleFunction(((1.0, 1.0),)),
    "Skellam pair": SimpleFunction(((1.0, 1.0), (-1.0, 1.0))),
    "three mixed atoms": SimpleFunction(((1.0, 0.1), (-2.0, 0.2), (0.5, 0.3))),
}

for name, s in functions.items():
    gauge = gauge_norm(s)
    orlicz = orlicz_norm_paper(s)
    amemiya = orlicz_norm_amemiya(s)
    star = star_norm_exact(s)
    starstar = starstar_norm_exact(s)
    l1, l2sq = simple_moments(s)
    print(name)
    print(f"  atoms      {s.atoms}")
    print(f"  gauge      {gauge:.10f}")
    print(f"  orlicz     {orlicz:.10f}   (amemiya, radius-2 dual form, {amemiya:.10f})")
    print(f"  star       {star:.10f}")
    print(f"  starstar   {starstar:.10f}   (l1 = {l1:.10f})")
    print(f"  brackets   orlicz/gauge = {orlicz / gauge:.6f},"
          f" amemiya/orlicz = {amemiya / orlicz:.6f},"
          f" star/gauge = {star / gauge:.6f}")
    print()

# The starstar norm collapses to the L1 norm exactly when the function does
# not change sign; the Skellam pair shows a strict gap.
s = functions["Skellam pair"]
print("Skellam starstar vs l1:",
      f"{starstar_norm_exact(s):.6f} < {simple_moments(s)[0]:.6f}")
