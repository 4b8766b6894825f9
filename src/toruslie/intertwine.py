"""Matrix-valued equivariant maps trivialising the group actions.

For a cyclic translation group the map Phi_j has first column
(P_-j, P_j) and second column the unique unit-determinant completion with
lowest-order poles,

    q1 = (P_j P_-2j + (lam/2) P_-j) / mu,
    q2 = (P_-j P_2j - (lam/2) P_j) / mu,

with lam and mu the constants of P_2j P_-j^2 - P_-2j P_j^2 = lam P_-j P_j + mu,
read off the Laurent expansions at z = 0 of the theta quotients that
evaluate the P_j (funcalg.lambda_mu), so that
Phi_j(z + alpha) = diag(w^j, w^-j) Phi_j(z) and
Phi_j(-z) = S Phi_j(z) diag(-1, 1) with S the antidiagonal flip.  For even
group order the same construction runs on an index-two cover lattice where
the shift has twice the order; conjugation kills the extra sign, so the
conjugated frames descend to the original torus.

For the Klein translation group no faithful SL2 representation exists, so
the intertwiner Psi is a 3x3 automorphism-valued map built from the odd
half-period functions p0, p1, p2 and their constants; the matrix is
radical-free in the p's and has unit determinant.

What the exact group data fixes (the P-system, the character representative,
lam and mu of Phi; the p stack and constants of Psi) is built once per equal
embedding and j; phi and psi return a fresh TorusFunction on every call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .funcalg import (
    PSystem, TorusFunction, _p_stack, c2c2_constants_for, lambda_mu, p_system,
)
from .lattice import Lattice
from .torusgroup import GroupEmbedding, UnsupportedEmbeddingError

__all__ = [
    "double_cover",
    "phi",
    "psi",
]


def double_cover(emb: GroupEmbedding):
    """Cover data for an even-order cyclic translation by (a + b*tau)/N.

    Returns (cover lattice, shift triple over the cover basis): (a, 2b, 2N)
    or (2a, b, 2N), reduced, so the shift acquires order 2N.  The cover
    lattice is index two in the original one, chosen by where N*alpha/2
    lands among the half-period classes.
    """
    a, b, n = emb.cyclic_generator.key[2:]
    if n % 2:
        raise ValueError("double cover applies to even order")
    tau = emb.tau
    if a % 2 == 1:  # N*alpha/2 = 1/2 or (1+tau)/2: keep tau, double the real period
        return Lattice(tau / 2.0, 2.0), (a, 2 * b, 2 * n)
    # N*alpha/2 = tau/2
    return Lattice(2.0 * tau), (2 * a, b, 2 * n)


@lru_cache(maxsize=256)
def _phi_data(emb: GroupEmbedding, j: int) -> tuple:
    """phi's (PSystem, j representative, lam, mu); the PSystem's n is the twist order."""
    n = emb.order_param
    if n < 2:
        raise UnsupportedEmbeddingError("no intertwiner for the trivial translation")
    ps = PSystem(*double_cover(emb)) if n % 2 == 0 else p_system(emb)
    j %= n
    if ps.n != n and 2 * j > n:
        j += n
    return (ps, j) + lambda_mu(ps, j)


def phi(emb: GroupEmbedding, j: int = 1) -> TorusFunction:
    """The SL2-valued map of a cyclic translation embedding.

    Requires 2j != 0 mod the twist order (P_j and P_2j must be nonzero).
    meta records the twist order M, the character representative j, the
    shift alpha, and lam, mu; the map satisfies
    Phi(z + alpha) = diag(w_M^j, w_M^-j) Phi(z).  j counts mod N, as in
    standard_rep.  On the order-2N cover of an even N, j and j + N give
    the same action through different Phi; phi takes the one nearer 0 mod
    2N, j + N where 2j > N, whose P_j has the smaller |c_j| (1/(2N) at
    j = -1, against nearly 1/2) and so the smaller frames.  j = 1 keeps j.
    """
    if emb.kind not in ("CN_translation", "DN"):
        raise ValueError("phi is attached to cyclic translation data")
    ps, j, lam, mu = _phi_data(emb, j)
    m = ps.n
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

    return TorusFunction(
        fn,
        ps.lattice,
        ps.orbit,
        (2, 2),
        meta={"twist_order": m, "j": j, "alpha": ps.alpha, "lam": lam, "mu": mu},
    )


def _psi_fn(stack, cc):
    k = cc.sqrt_a2b2
    a1a, b1b = cc.A1 / cc.alpha1, cc.B1 / cc.beta1
    A1, B1 = cc.A1, cc.B1

    def fn(z):
        v0, v1, v2 = stack(z)
        v01, a0, b1 = v0 * v1, A1 * v0, B1 * v1  # each shared product formed once
        minus, plus = b1 - a0, a0 + b1
        out = np.empty(z.shape + (3, 3), dtype=complex)
        out[..., 0, 0] = v01 / k
        out[..., 0, 1] = -v2
        out[..., 0, 2] = (A1 ** 2 * v0 ** 2 - B1 ** 2 * v1 ** 2) * v2 / (4.0 * k ** 2)
        out[..., 1, 0] = minus * v2 / k
        out[..., 1, 1] = a1a * v1 - b1b * v0
        out[..., 1, 2] = minus * (v01 - k) / (4.0 * k ** 2)
        out[..., 2, 0] = plus * v2 / k
        out[..., 2, 1] = -a1a * v1 - b1b * v0
        out[..., 2, 2] = plus * (v01 + k) / (4.0 * k ** 2)
        return out

    return fn


@lru_cache(maxsize=256)
def _psi_data(emb: GroupEmbedding) -> tuple:
    """psi's (_p_stack(emb), c2c2_constants_for(emb))."""
    return _p_stack(emb), c2c2_constants_for(emb)


def psi(emb: GroupEmbedding) -> TorusFunction:
    """The 3x3 intertwiner of the Klein translation group over (h, e, f).

    Unit determinant; Psi(r.z) = rho(r) Psi(z) for the quaternion-cover
    action of C2 x C2 on sl2.  For the tetrahedral group the Klein part is
    its last two generators (r1, r2) with r2 := r1 (s r1 s^-1), so on
    every basis the rotation s cycles the half periods s1 -> s1 + s2 ->
    s2.  The shift-matched constants alone do not make the Cartan column
    invariant under s: c2c2_constants_for also flips A1 and B1 together
    where exp(2 pi i/3) sends s1 to s1 + s2, on every A4 embedding
    (cross_validate certifies the result through its invariance check).
    """
    if emb.kind not in ("C2xC2_translation", "A4"):
        raise ValueError("psi is attached to the Klein translation group")
    (stack, poles), cc = _psi_data(emb)
    return TorusFunction(
        _psi_fn(stack, cc), emb.lattice, poles, (3, 3),
        meta={"constants": cc, "kind": "psi"},
    )

