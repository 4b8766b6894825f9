"""Equivariant function systems on the punctured torus.

The character projections of wp'/(wp - wp(alpha)) attached to a cyclic
translation have simple poles on the orbit of the origin with residues
-2 + 2 cos(2 pi j / N); a two-point fit recovers the constants of the
quadratic relation among them, which for odd N the closed form read off
the Laurent expansions at the origin gives as well.  The Klein group's projections of 1/wp'
satisfy square relations with half-period constants.
"""

import numpy as np

from toruslie import (
    Lattice,
    c2c2_constants,
    c2c2_translation,
    cn_translation,
    fit_lambda_mu,
    invariants,
    p_small,
    residue_at,
)
from toruslie.funcalg import lambda_mu, p_system, sample_points
from toruslie.lattice import HEX_TAU

lat = Lattice(0.31 + 1.07j)

print("residues at the origin for the orbit pole functions:")
for n in (3, 4, 5):
    emb = cn_translation(lat, n)
    ps = p_system(emb)
    row = []
    for j in range(1, n):
        r = residue_at(ps.pj(j), 0.0)
        row.append(f"j={j}: {r.real:+.6f}")
    print(f"  N={n}:  " + "   ".join(row))

print("\nfitted constants of P_2j P_-j^2 - P_-2j P_j^2 = lam P_-j P_j + mu:")
for n in (3, 4, 5, 6):
    lam, mu = fit_lambda_mu(cn_translation(lat, n), 1)
    print(f"  N={n}: lam = {lam:.6g}, mu = {mu:.6g}")
    if n % 2:
        lam, mu = lambda_mu(p_system(cn_translation(lat, n)), 1)
        print(f"       closed form: lam = {lam:.6g}, mu = {mu:.6g}")

print("\nKlein quartet on three lattices:")
for name, tau in (("square", 1j), ("hexagonal", HEX_TAU), ("generic", 0.31 + 1.07j)):
    L = Lattice(tau)
    emb = c2c2_translation(L)
    p0, p1, p2 = p_small(emb)
    cc = c2c2_constants(L)
    rng = np.random.default_rng(1)
    z = sample_points(p0.lattice, 40, rng, avoid=p0.poles, margin=0.1)
    rel1 = np.max(np.abs(p1(z) ** 2 - cc.alpha1 * p2(z) ** 2 - cc.alpha2))
    rel0 = np.max(np.abs(p0(z) ** 2 - cc.beta1 * p2(z) ** 2 - cc.beta2))
    s = p0(z) ** 2 + p1(z) ** 2 + p2(z) ** 2
    print(f"  {name:10s} alpha1 = {cc.alpha1:.6g}  beta1 = {cc.beta1:.6g}")
    print(f"             relation residuals {rel1:.1e}, {rel0:.1e};"
          f" sum-of-squares spread {np.max(np.abs(s - s[0])):.2e}"
          f" (g2 = {abs(invariants(L).g2):.2e})")
