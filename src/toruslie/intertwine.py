"""Matrix-valued equivariant maps trivialising the group actions.

For a cyclic translation group the map Phi_j has first column
(P_-j, P_j) and second column the unique unit-determinant completion with
lowest-order poles,

    q1 = (P_j P_-2j + (lam/2) P_-j) / mu,
    q2 = (P_-j P_2j - (lam/2) P_j) / mu,

so that Phi_j(z + alpha) = diag(w^j, w^-j) Phi_j(z) and
Phi_j(-z) = S Phi_j(z) diag(-1, 1) with S the antidiagonal flip.  For even
group order the same construction runs on an index-two cover lattice where
the shift has twice the order; conjugation kills the extra sign, so the
conjugated frames descend to the original torus.

For the Klein translation group no faithful SL2 representation exists, so
the intertwiner Psi is a 3x3 automorphism-valued map built from the odd
half-period functions p0, p1, p2 and their constants; the matrix is
radical-free in the p's and has unit determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .funcalg import (
    PSystem, _fit_lambda_mu_ps, c2c2_constants_for, p_small, p_system, sample_points,
)
from .lattice import ScaledLattice
from .torusgroup import GroupEmbedding, UnsupportedEmbeddingError

__all__ = [
    "MatrixFunction",
    "check_intertwining",
    "double_cover",
    "phi",
    "psi",
]

@dataclass
class MatrixFunction:
    """Evaluator z -> d x d matrix (vectorised: output shape (..., d, d))."""

    fn: object
    d: int
    lattice: ScaledLattice
    poles: tuple = ()
    meta: dict = field(default_factory=dict)

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self.fn(np.atleast_1d(zz))
        if zz.ndim == 0:
            return out[0]
        return out.reshape(zz.shape + (self.d, self.d))


def double_cover(emb: GroupEmbedding):
    """Cover data for an even-order cyclic translation.

    Returns (slat, shift fractions over the cover basis, 2N).  The cover
    lattice is index two in the original one, chosen by where N*alpha/2
    lands among the half-period classes, so the shift acquires order 2N.
    """
    n = emb.order_param
    if n % 2:
        raise ValueError("double cover applies to even order")
    r = emb.cyclic_generator
    a, b = r.shift.a, r.shift.b
    assert r.shift.n == n
    tau = emb.tau
    if a % 2 == 1:  # N*alpha/2 = 1/2 or (1+tau)/2: keep tau, double the real period
        slat = ScaledLattice(tau / 2.0, 2.0)
        shift = (Fraction(a, 2 * n), Fraction(b, n))
    else:  # N*alpha/2 = tau/2
        slat = ScaledLattice(2.0 * tau, 1.0)
        shift = (Fraction(a, n), Fraction(b, 2 * n))
    return slat, shift, 2 * n


def _psystem_for(emb: GroupEmbedding):
    """(PSystem, twist order) realising the intertwiner for emb."""
    n = emb.order_param
    if n < 2:
        raise UnsupportedEmbeddingError("no intertwiner for the trivial translation")
    if n % 2 == 0:
        slat, shift, m = double_cover(emb)
        return PSystem(slat, shift, m), m
    return p_system(emb), n


def phi(emb: GroupEmbedding, j: int = 1) -> MatrixFunction:
    """The SL2-valued map of a cyclic translation embedding.

    Requires 2j != 0 mod the twist order (P_j and P_2j must be nonzero).
    meta records the twist order M, the shift alpha, and lam, mu; the map
    satisfies Phi(z + alpha) = diag(w_M^j, w_M^-j) Phi(z).
    """
    if emb.kind not in ("CN_translation", "DN"):
        raise ValueError("phi is attached to cyclic translation data")
    ps, m = _psystem_for(emb)
    if (2 * j) % m == 0:
        raise ValueError(f"character index {j} has 2j = 0 mod {m}: the corner column degenerates")
    lam, mu = _fit_lambda_mu_ps(ps, j, j)
    js = (j % m, (-j) % m, (2 * j) % m, (-2 * j) % m)

    def fn(z):
        vals = ps.values(z, js)
        pj, pmj = vals[js[0]], vals[js[1]]
        p2j, pm2j = vals[js[2]], vals[js[3]]
        q1 = (pj * pm2j + 0.5 * lam * pmj) / mu
        q2 = (pmj * p2j - 0.5 * lam * pj) / mu
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = pmj
        out[..., 0, 1] = q1
        out[..., 1, 0] = pj
        out[..., 1, 1] = q2
        return out

    return MatrixFunction(
        fn,
        2,
        ps.slat,
        ps.orbit,
        meta={"twist_order": m, "j": j, "alpha": ps.alpha, "lam": lam, "mu": mu},
    )


def _psi_fn(p0, p1, p2, cc):
    k = cc.sqrt_a2b2
    a1a, b1b = cc.A1 / cc.alpha1, cc.B1 / cc.beta1
    A1, B1 = cc.A1, cc.B1

    def fn(z):
        v0, v1, v2 = p0.fn(z), p1.fn(z), p2.fn(z)
        tp = v0 * v1 + k
        tm = v0 * v1 - k
        out = np.empty(z.shape + (3, 3), dtype=complex)
        out[..., 0, 0] = v0 * v1 / k
        out[..., 0, 1] = -v2
        out[..., 0, 2] = (A1 ** 2 * v0 ** 2 - B1 ** 2 * v1 ** 2) * v2 / (4.0 * k ** 2)
        out[..., 1, 0] = (B1 * v1 - A1 * v0) * v2 / k
        out[..., 1, 1] = a1a * v1 - b1b * v0
        out[..., 1, 2] = (B1 * v1 - A1 * v0) * tm / (4.0 * k ** 2)
        out[..., 2, 0] = (A1 * v0 + B1 * v1) * v2 / k
        out[..., 2, 1] = -a1a * v1 - b1b * v0
        out[..., 2, 2] = (A1 * v0 + B1 * v1) * tp / (4.0 * k ** 2)
        return out

    return fn


def psi(emb: GroupEmbedding) -> MatrixFunction:
    """The 3x3 intertwiner of the Klein translation group over (h, e, f).

    Unit determinant; Psi(r.z) = rho(r) Psi(z) for the quaternion-cover
    action of C2 x C2 on sl2.  For the tetrahedral group the Klein part is
    its last two generators (r1, r2) with r2 := r1 (s r1 s^-1), so on
    every basis the rotation s cycles the half periods s1 -> s1 + s2 ->
    s2.  The shift-matched constants therefore need no sign change: with
    them the Cartan column is invariant under s (cross_validate certifies
    this through its invariance check).
    """
    if emb.kind not in ("C2xC2_translation", "A4"):
        raise ValueError("psi is attached to the Klein translation group")
    p0, p1, p2 = p_small(emb)
    cc = c2c2_constants_for(emb)
    return MatrixFunction(
        _psi_fn(p0, p1, p2, cc), 3, p0.lattice, p0.poles,
        meta={"constants": cc, "kind": "psi"},
    )


def check_intertwining(
    m: MatrixFunction,
    rho: dict,
    rho_tilde: dict | None,
    emb: GroupEmbedding,
    n_samples: int = 40,
    seed: int = 0,
    margin: float = 0.08,
) -> float:
    """max over samples and group elements of |M(g.z) - rho(g) M(z) rho~(g)^-1|.

    rho and rho_tilde map group elements to d x d matrices; rho_tilde None
    means the trivial action on the right.
    """
    rng = np.random.default_rng(seed)
    z = sample_points(m.lattice, n_samples, rng, avoid=m.poles, margin=margin)
    worst = 0.0
    for g in emb.elements:
        left = m(g.apply(z))
        right = rho[g] @ m(z)
        if rho_tilde is not None:
            right = right @ np.linalg.inv(rho_tilde[g])
        worst = max(worst, float(np.max(np.abs(left - right))))
    return worst
