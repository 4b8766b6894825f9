"""Normal forms: invariant frames and their bracket structure.

For every admissible symmetry the invariant sl2-valued generators satisfy
[H, E] = 2E, [H, F] = -2F and [E, F] = H tensor p, with p a polynomial in
the invariant function ring, exact in g2 and g3 of the ring lattice.  The
number of distinct roots of p equals the number of branch points of the
quotient map.
"""

from toruslie import Lattice, catalog
from toruslie.lattice import HEX_TAU
from toruslie.normalform import (
    abelianization_dim,
    check_triple,
    exact_structure_polynomial,
    normal_form,
)
from toruslie.torusgroup import branch_points

for name, tau in (("square", 1j), ("hexagonal", HEX_TAU), ("generic", 0.31 + 1.07j)):
    lat = Lattice(tau)
    print(f"\n=== {name} (tau = {tau:.4f}) ===")
    print(f"{'case':22s} {'bracket':>9s} {'ef_exact':>9s} {'invariance':>11s} {'roots':>6s} {'branch':>7s}")
    for emb in catalog(lat):
        gens = normal_form(emb)
        br, inv = check_triple(gens)
        ab = abelianization_dim(gens)
        bc, _ = branch_points(emb)
        label = f"{emb.kind}[{emb.order_param}]"
        worst = max(br["he"], br["hf"], br["ef"])
        print(f"{label:22s} {worst:9.1e} {br['ef_exact']:9.1e} {inv:11.1e} {ab:6d} {bc:7d}")

print("\nexact structure polynomials on the generic lattice:")
lat = Lattice(0.31 + 1.07j)
for emb in catalog(lat, orders=(3,)):
    gens = normal_form(emb)
    poly = exact_structure_polynomial(gens)
    coeffs = ", ".join(f"{c:.4g}" for c in poly.a)
    print(f"  {emb.kind}[{emb.order_param}] over {gens.ring.variable}: ({coeffs})")
