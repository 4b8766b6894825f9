"""Weierstrass functions and elliptic invariants.

Evaluates wp and wp' on three reference lattices, checks the defining
differential equation, the lattice symmetries of the square and hexagonal
tori, and the homothety behaviour of g2, g3 and j.  g2, g3, the
discriminant and j are arithmetic on the reduced cell's q-series; e1, e2,
e3 are wp at the half periods, one wp call of their own.
"""

import numpy as np

from toruslie import Lattice, half_period_values, invariants, j_invariant, scale_check, wp, wp_both
from toruslie.lattice import HEX_TAU

LATTICES = {
    "square": Lattice(1j),
    "hexagonal": Lattice(HEX_TAU),
    "generic": Lattice(0.31 + 1.07j),
}

rng = np.random.default_rng(0)

for name, lat in LATTICES.items():
    inv = invariants(lat)
    e1, e2, e3 = half_period_values(lat)
    print(f"\n=== {name} lattice, tau = {lat.tau:.4f} ===")
    print(f"g2 = {inv.g2:.10g}")
    print(f"g3 = {inv.g3:.10g}")
    print(f"e1, e2, e3 = {e1:.6g}, {e2:.6g}, {e3:.6g}")
    print(f"discriminant = {inv.discriminant:.6g}, j = {inv.j:.10g}")

    z = (0.1 + 0.8 * rng.random(200)) + lat.tau * (0.1 + 0.8 * rng.random(200))
    w, wq = wp_both(z, lat)
    res = np.max(np.abs(wq ** 2 - (4 * w ** 3 - inv.g2 * w - inv.g3)))
    print(f"differential equation residual over 200 points: {res:.2e}")

# the square torus has multiplication by i, the hexagonal one by a sixth
# root of unity; both show up as exact symmetries of wp
sq = LATTICES["square"]
z = 0.31 + 0.17j
print("\nsquare symmetry  wp(z/i) + wp(z)      =", abs(wp(z / 1j, sq) + wp(z, sq)))
hexl = LATTICES["hexagonal"]
w6 = np.exp(1j * np.pi / 3)
print("hexagonal symmetry  wp(z/w6) - w6^2 wp(z) =",
      abs(wp(z / w6, hexl) - w6 ** 2 * wp(z, hexl)))

print("\nscaling-law self-test residuals (two independent evaluation routes):")
for alpha in (2.0, 1j, 0.7 + 0.2j):
    print(f"  alpha = {alpha}: {scale_check(alpha, 0.3 + 0.4j, LATTICES['generic']):.2e}")

print("\nspecial j values: j(i) =", f"{j_invariant(1j):.6f}",
      " j(2i) =", f"{j_invariant(2j):.4f}", " j(hex) =", f"{abs(j_invariant(HEX_TAU)):.1e}")
