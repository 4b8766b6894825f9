"""Numerical Weierstrass elliptic functions on Z + Z*tau.

The evaluation backend reduces tau into the SL2(Z) fundamental domain and
z into the centred cell, then evaluates the q-series (DLMF 23.8) with
q = exp(2*pi*i*tau_reduced) and u = exp(2*pi*i*z).  Past its closed-form
head the series is two power series, sum w_k t^k and sum k w_k t^k with
w_k = k / (1 - q^k), at t = q/u and t = q*u; centring keeps
|t| <= |q|^(1/2) <= exp(-pi*sqrt(3)/2).  The sums stop after K terms (16
on the hexagonal lattice, 14 on the square one, 4 from reduced Im tau =
3.44 up), where the dropped tail is below the roundoff of wp' at its own
scale.  Both are evaluated by Horner's rule: no complex exponential per
term, no K x Z temporaries, and each point's value is computed in the same
order whatever batch it comes in.  The defining lattice sum, which
converges far too slowly for tight tolerances, is kept in the test suite
as an independent oracle.

wp_both takes a scalar or an array of any shape; callers batch every
point set they need (all shifts of all probes) into one call, since the
per-call overhead dwarfs the per-point cost at small batches.  The
series runs on blocks of at most BLOCK points of a batch.

Values very close to a lattice point are delegated to the Laurent
expansion 1/z^2 + (g2/20) z^2 + (g3/28) z^4 + ...; on a lattice point the
functions return complex infinity rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice, ScaledLattice, reduce_modular, torus_reduce_centered

__all__ = [
    "EllipticInvariants",
    "invariants",
    "invariants_scaled",
    "j_invariant",
    "scale_check",
    "wp",
    "wp_both",
    "wp_both_scaled",
    "wp_prime",
]

_PI = math.pi
_TWO_PI_I = 2j * math.pi

#: |z| below this (in units of the reduced cell) counts as a pole.
POLE_EPS = 1e-12
#: |z| below this switches to the Laurent expansion near the pole.
LAURENT_EPS = 1e-6
#: wp_both runs the series on blocks of at most this many points, into
#: preallocated outputs: one 10k-point pass takes hundreds of minor page
#: faults for its temporaries, 4096-point blocks keep the working set small
BLOCK = 4096


@dataclass(frozen=True)
class EllipticInvariants:
    g2: complex
    g3: complex
    e1: complex
    e2: complex
    e3: complex
    discriminant: complex
    j: complex


@dataclass(frozen=True)
class _Cell:
    """Cached per-tau evaluation data on the reduced lattice."""

    tau: complex          # original parameter
    tau_r: complex        # reduced parameter
    m: complex            # Z + Z*tau = m * (Z + Z*tau_r)
    q: complex            # exp(2 pi i tau_r)
    coef: np.ndarray      # (K, 2): w_k = k / (1 - q^k) and k w_k, k = 1..K
    s1: complex           # sum k q^k / (1 - q^k)
    g2r: complex          # invariants of the reduced lattice
    g3r: complex
    discr: complex        # discriminant via the eta product (no cancellation)


def _n_terms(qabs: float, trunc: int | None) -> int:
    if trunc is not None:
        return max(4, int(trunc))
    # cut where |q|^(K/2) reaches 1.6e-19: the dropped tail, at most 2.6e-18
    # on the fundamental domain (at the hexagonal lattice), is
    # sum_{k>K} k^2 |q|^(k/2) / (1 - |q|^k); 8 pi^3 times it bounds the
    # error of wp' and stays below 2^-53 e_max^1.5
    return max(4, math.ceil(2.0 * math.log(1.6e-19) / math.log(max(qabs, 1e-300))))


@lru_cache(maxsize=256)
def _cell(tau: complex, trunc: int | None = None) -> _Cell:
    mc = reduce_modular(tau)
    (_, _), (c, d) = mc.transform
    m = c * tau + d
    tau_r = mc.tau_reduced
    q = np.exp(_TWO_PI_I * tau_r)
    ks = np.arange(1, _n_terms(abs(q), trunc) + 1, dtype=float)
    qk = q ** ks
    denom = 1.0 - qk
    lam = ks * qk / denom  # k q^k / (1 - q^k)
    s1 = complex(np.sum(lam))
    e4 = 1.0 + 240.0 * complex(np.sum(ks ** 2 * lam))
    e6 = 1.0 - 504.0 * complex(np.sum(ks ** 4 * lam))
    g2r = (4.0 * _PI ** 4 / 3.0) * e4
    g3r = (8.0 * _PI ** 6 / 27.0) * e6
    # discriminant through the 24th power of the eta product: the direct
    # g2^3 - 27 g3^2 cancels catastrophically for elongated lattices
    discr = (2.0 * _PI) ** 12 * complex(q) * complex(np.prod(denom)) ** 24
    w = ks / denom
    coef = np.stack((w, ks * w), axis=1)
    return _Cell(tau, tau_r, m, complex(q), coef, s1, g2r, g3r, discr)


def _wp_series(zc: np.ndarray, cell: _Cell) -> tuple[np.ndarray, np.ndarray]:
    """wp and wp' on the reduced lattice at centred arguments."""
    dist = np.abs(zc)
    near = dist < LAURENT_EPS
    any_near = bool(near.any())
    zs = np.where(near, 0.25, zc) if any_near else zc

    u = np.exp(_TWO_PI_I * zs)
    big = np.abs(u) > 1.0
    v = np.divide(1.0, u, out=u.copy(), where=big)
    omv = 1.0 - v
    head_p = -4.0 * v / omv ** 2                      # = csc^2(pi z)
    head_q = v * (1.0 + v) / omv ** 3
    np.negative(head_q, out=head_q, where=big)

    # sum_k w_k (t^k) and sum_k k w_k (t^k) at t = q/u and t = q u by
    # Horner's rule on one (2, 2, Z) accumulator: rows are the two
    # coefficient sequences, columns the two values of t
    t = np.empty((2, zs.size), dtype=complex)
    np.divide(cell.q, u, out=t[0])
    np.multiply(cell.q, u, out=t[1])
    coef = cell.coef[:, :, None, None]
    acc = np.empty((2, 2, zs.size), dtype=complex)
    acc[...] = coef[-1]
    for c in coef[-2::-1]:
        np.multiply(acc, t, out=acc)
        np.add(acc, c, out=acc)
    np.multiply(acc, t, out=acc)
    sum_p = acc[0, 0] + acc[0, 1]
    sum_q = acc[1, 1] - acc[1, 0]

    wpv = _PI ** 2 * (head_p - 1.0 / 3.0 + 8.0 * cell.s1 - 4.0 * sum_p)
    wppv = -8j * _PI ** 3 * (head_q + sum_q)

    if any_near:
        pole = dist < POLE_EPS
        zl = np.where(pole, 1.0, zc)
        g2, g3 = cell.g2r, cell.g3r
        wp_l = 1.0 / zl ** 2 + (g2 / 20.0) * zl ** 2 + (g3 / 28.0) * zl ** 4
        wpp_l = -2.0 / zl ** 3 + (g2 / 10.0) * zl + (g3 / 7.0) * zl ** 3
        wpv = np.where(near, wp_l, wpv)
        wppv = np.where(near, wpp_l, wppv)
        inf = complex(np.inf, 0.0)
        wpv = np.where(pole, inf, wpv)
        wppv = np.where(pole, inf, wppv)
    return wpv, wppv


def wp_both(z, lattice: Lattice, trunc: int | None = None):
    """Evaluate (wp(z), wp'(z)) for the lattice Z + Z*tau.

    Accepts a scalar or an array of any shape; arrays come back in the
    shape they came in, with values equal to those of the flattened call.
    On lattice points both values are complex infinity.
    """
    cell = _cell(lattice.tau, trunc)
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zc = torus_reduce_centered(zz.reshape(-1) / cell.m, cell.tau_r)
    wpv, wppv = np.empty_like(zc), np.empty_like(zc)
    for i in range(0, zc.size, BLOCK):
        wpv[i:i + BLOCK], wppv[i:i + BLOCK] = _wp_series(zc[i:i + BLOCK], cell)
    with np.errstate(invalid="ignore"):
        wpv = wpv / cell.m ** 2
        wppv = wppv / cell.m ** 3
    if not (np.isfinite(wpv).all() and np.isfinite(wppv).all()):
        wpv = np.where(np.isfinite(wpv), wpv, complex(np.inf, 0.0))
        wppv = np.where(np.isfinite(wppv), wppv, complex(np.inf, 0.0))
    if scalar:
        return complex(wpv[0]), complex(wppv[0])
    return wpv.reshape(zz.shape), wppv.reshape(zz.shape)


def wp(z, lattice: Lattice, trunc: int | None = None):
    return wp_both(z, lattice, trunc)[0]


def wp_prime(z, lattice: Lattice):
    return wp_both(z, lattice)[1]


def wp_both_scaled(z, slat: ScaledLattice):
    """(wp, wp') for the scaled lattice scale*(Z + Z*tau)."""
    s = slat.scale
    a, b = wp_both(np.asarray(z, dtype=complex) / s, Lattice(slat.tau))
    return a / s ** 2, b / s ** 3


@lru_cache(maxsize=256)
def invariants(lattice: Lattice, trunc: int | None = None) -> EllipticInvariants:
    """g2, g3, half-period values, discriminant and j for Z + Z*tau.

    g2 and g3 come from the Eisenstein q-expansions on the reduced lattice
    and are pulled back through the homothety; e1, e2, e3 are wp at the
    half periods 1/2, tau/2, (1+tau)/2 of the original basis.
    """
    cell = _cell(lattice.tau, trunc)
    g2 = cell.g2r / cell.m ** 4
    g3 = cell.g3r / cell.m ** 6
    tau = lattice.tau
    half = np.array([0.5, tau / 2.0, (1.0 + tau) / 2.0])
    e1, e2, e3 = (complex(v) for v in wp(half, lattice, trunc))
    disc = cell.discr / cell.m ** 12
    return EllipticInvariants(g2, g3, e1, e2, e3, disc, 1728.0 * g2 ** 3 / disc)


def invariants_scaled(slat: ScaledLattice) -> EllipticInvariants:
    base = invariants(Lattice(slat.tau))
    s = slat.scale
    g2 = base.g2 / s ** 4
    g3 = base.g3 / s ** 6
    # rescale the eta-product discriminant: g2^3 - 27 g3^2 recomputed here
    # would cancel catastrophically on elongated lattices
    disc = base.discriminant / s ** 12
    return EllipticInvariants(
        g2, g3, base.e1 / s ** 2, base.e2 / s ** 2, base.e3 / s ** 2, disc, base.j
    )


def j_invariant(tau: complex) -> complex:
    return invariants(Lattice(tau)).j


def scale_check(alpha: complex, z: complex, lattice: Lattice) -> float:
    """Residual of wp_{alpha L}(z) = alpha^-2 wp_L(z / alpha).

    The left side is evaluated through the flipped basis (alpha*tau, -alpha)
    of the same lattice, so the two routes exercise independent reductions.
    """
    if alpha == 0:
        raise ValueError("scale factor must be nonzero")
    tau = lattice.tau
    w1 = alpha * tau
    left = wp(z / w1, Lattice(-1.0 / tau)) / w1 ** 2
    right = wp(z / alpha, lattice) / alpha ** 2
    return abs(left - right)
