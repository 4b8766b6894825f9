"""Numerical Weierstrass elliptic functions on scale*(Z + Z*tau).

The evaluation backend reduces tau into the SL2(Z) fundamental domain and
z into the centred cell, up to sign, then evaluates the q-series (DLMF 23.8)
with q = exp(2*pi*i*tau_reduced) and v = exp(2*pi*i*z), |v| <= 1.  Past
csc^2(pi z) it is sum w_k t^k and sum k w_k t^k, w_k = k / (1 - q^k), at
t = q/v and t = q*v.  With w_k = k + lam_k the k part sums in closed form
to the two lattice rows next to the cell; the lam_k part decays like
|q|^(3k/2), and its Horner sums stop after K' terms (5 on the hexagonal
lattice, 4 on the square one, 1 from reduced Im tau = 2.22 up), below the
roundoff of wp' at its own scale.  Each point's value is computed in the
same order whatever batch it comes in.  The defining lattice sum is kept
in the test suite as an independent oracle.

wp_both takes a scalar or an array of any shape and returns wp and wp'
together (wp is its first value alone); callers batch every point set
they need (all shifts of all probes) into one call, since the per-call
overhead dwarfs the per-point cost at small batches.  Both series
lengths follow from |q| alone; no caller sets them.  The series runs on
blocks of at most BLOCK points of a batch.  A far point is folded on the
caller's basis, whose periods are exact, before it moves to the reduced one.
A lattice's scale c enters through the homothety wp(cz | c L) =
c^-2 wp(z | L), wp'(cz | c L) = c^-3 wp'(z | L) (DLMF 23.10(iv)), skipped
at c = 1: dividing by 1+0j would flip the sign of an exact zero.

Values very close to a lattice point are delegated to the Laurent
expansion 1/z^2 + (g2/20) z^2 + (g3/28) z^4 + ...; on a lattice point the
functions return complex infinity rather than raising.  invariants is
arithmetic on the cached reduced cell, with no wp call; e1, e2, e3 are
half_period_values' one wp_both call, made only where they are printed.

The Jacobi theta1 of Z + Z*T has its q-series here too, in the nome
exp(i pi T) (DLMF 20.2.1), with its series length from |q| as well;
funcalg.PSystem evaluates its P_j as quotients of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Lattice, _any_far, _centred, _coordinates, _folded_coordinates, fold_far
from .lattice import reduce_modular

__all__ = [
    "EllipticInvariants",
    "half_period_values",
    "invariants",
    "j_invariant",
    "scale_check",
    "wp",
    "wp_both",
]

_PI = math.pi
_TWO_PI_I = 2j * math.pi

#: |z| below this (in units of the reduced cell) counts as a pole.
POLE_EPS = 1e-12
#: |z| below this switches to the Laurent expansion near the pole.
LAURENT_EPS = 1e-6
#: wp_both runs the series on blocks of at most this many points: on 10k
#: points 1.2-1.35x faster than 1024-point blocks, as fast as 8192-point ones
BLOCK = 4096


@dataclass(frozen=True)
class EllipticInvariants:
    g2: complex
    g3: complex
    discriminant: complex
    j: complex


@dataclass(frozen=True)
class _Cell:
    """Cached per-tau evaluation data on the reduced lattice."""

    tau_r: complex        # reduced parameter
    m: complex            # Z + Z*tau = m * (Z + Z*tau_r)
    q: complex            # exp(2 pi i tau_r)
    coef: np.ndarray      # (K', 2): lam_k = k q^k / (1 - q^k) and k lam_k, k <= K'
    s1: complex           # sum lam_k over the K >= K' terms of _n_terms
    g2r: complex          # invariants of the reduced lattice
    g3r: complex
    discr: complex        # discriminant via the eta product (no cancellation)
    scaling: np.ndarray   # (2, 1): -4 pi^2 / m^2 and -8i pi^3 / m^3, the series' factors
    const: complex        # pi^2 (8 s1 - 1/3) / m^2, the constant term of wp


def _n_terms(qabs: float) -> int:
    # cut where |q|^(K/2) reaches 1.6e-19: the q-series of s1, g2, g3 and
    # the discriminant then equal those of any longer cut bit for bit
    return max(4, math.ceil(2.0 * math.log(1.6e-19) / math.log(max(qabs, 1e-300))))


def _split_terms(qabs: float) -> int:
    """Smallest K' with sum_{k>K'} k^2 |q|^(3k/2) / (1 - |q|^k) <= 2.6e-18: that
    tail bounds the dropped wp' terms; 8 pi^3 times it is below 2^-53 e_max^1.5."""
    k = np.arange(1.0, 41.0)
    tails = np.cumsum((k ** 2 * qabs ** (1.5 * k) / (1.0 - qabs ** k))[::-1])[::-1]
    return int(np.argmax(tails[1:] <= 2.6e-18)) + 1  # tails[i]: the sum over k > i


@lru_cache(maxsize=256)
def _cell(tau: complex) -> _Cell:
    mc = reduce_modular(tau)
    (_, _), (c, d) = mc.transform
    m = c * tau + d
    tau_r = mc.tau_reduced
    q = np.exp(_TWO_PI_I * tau_r)
    ks = np.arange(1, _n_terms(abs(q)) + 1, dtype=float)
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
    coef = np.stack((lam, ks * lam), axis=1)[: _split_terms(abs(q))]
    m2, m3 = m ** 2, m ** 3
    scaling = np.array([[-4.0 * _PI ** 2 / m2], [-8j * _PI ** 3 / m3]])
    const = _PI ** 2 * (8.0 * s1 - 1.0 / 3.0) / m2
    return _Cell(tau_r, m, complex(q), coef, s1, g2r, g3r, discr, scaling, const)


def _theta_terms(qabs: float) -> int:
    """Smallest M >= 1 with |q|^(M (M+1)) <= 2^-53: the first term _theta_series
    drops, q^((M+1)^2) t^(M+1) at |t| <= 1/|q|, is then below half an ulp of
    its O(1) leading terms."""
    cut = -53.0 * math.log(2.0) / math.log(max(qabs, 1e-300))
    return max(1, math.ceil((math.sqrt(1.0 + 4.0 * cut) - 1.0) / 2.0))


@dataclass(frozen=True)
class _Theta:
    """theta1 of Z + Z*T in the nome q = exp(i pi T) (DLMF 20.2.1, with
    theta1(x) here DLMF's theta1(pi x | T)).

    Summing DLMF 20.2.1's exponential form term by term gives, at every x,
    theta1(x) = i q^(1/4) exp(-i pi x) R(exp(2 pi i x)) with the Laurent
    series R(W) = sum_k (-1)^k q^(k(k-1)) W^k = H(q/W) - W H(q W),
    H(t) = sum_(m>=0) (-1)^m q^(m^2) t^m.  _theta_series evaluates R.
    """

    q: complex
    coef: np.ndarray      # (-1)^m q^(m^2), m = M..1: H's Horner coefficients past its 1
    prime: complex        # theta1'(0) / (i q^(1/4)) = -2 pi i sum_m (-1)^m (2m + 1) q^(m(m+1))


def _theta(T: complex) -> _Theta:
    q = cmath.exp(1j * _PI * T)
    ms = range(_theta_terms(abs(q)), -1, -1)
    coef = np.array([(-1) ** m * q ** (m * m) for m in ms[:-1]])
    return _Theta(q, coef, -2j * _PI * sum((-1) ** m * (2 * m + 1) * q ** (m * (m + 1)) for m in ms))


def _theta_series(w: np.ndarray, th: _Theta) -> np.ndarray:
    """R(w) of _Theta at |q|^2 <= |w| <= |q|^-2, where |q/w| and |q w| are at
    most 1/|q|: H's terms then fall like |q|^(m(m-1)), and _theta_terms
    keeps those above the roundoff.  H - 1 of both arguments runs on one
    Horner accumulator, elementwise; their leading 1 - w is formed on its
    own, exact next to w = 1, the zero of theta1."""
    t = np.empty((2,) + w.shape, dtype=complex)
    np.divide(th.q, w, out=t[0])
    np.multiply(w, th.q, out=t[1])
    acc = t * th.coef[0]
    for c in th.coef[1:]:
        acc += c
        acc *= t
    acc[1] *= w
    acc[0] -= acc[1]
    acc[0] += 1.0 - w
    return acc[0]


def _wp_series(zc: np.ndarray, cell: _Cell, out: np.ndarray) -> None:
    """wp and wp' of Z + Z*tau, into out, at arguments centred in the reduced cell."""
    dist = np.abs(zc)
    near = dist < LAURENT_EPS if np.minimum.reduce(dist) < LAURENT_EPS else None
    zs = zc if near is None else np.where(near, 0.25, zc)
    work = np.empty((13, zs.size), dtype=complex)
    x, a, c, acc = work[0:3], work[3:6], work[6:9], work[9:13].reshape(2, 2, zs.size)

    # wp is even and wp' odd: evaluate at s z, s = +-1, Im(s z) >= 0, so that
    # x = (v, q/v, q v) with v = exp(2 pi i s z) has |x| <= 1
    sign = np.copysign(1.0, zs.imag)
    np.multiply(zs, sign * _TWO_PI_I, out=x[0])
    np.exp(x[0], out=x[0])
    np.divide(cell.q, x[0], out=x[1])
    np.multiply(x[0], cell.q, out=x[2])

    # sum lam_k t^k and sum k lam_k t^k at t = q/v, q v by Horner's rule on
    # one accumulator: rows are the two sequences, columns the two t
    coef = cell.coef[:, :, None, None]
    np.multiply(coef[-1], x[1:], out=acc)
    for ck in coef[-2::-1]:
        acc += ck
        acc *= x[1:]

    # P = x / (1 - x)^2 = sum k x^k, Q = x (1 + x) / (1 - x)^3 = sum k^2 x^k:
    # csc^2(pi z) = -4 P(v), and at q/v, q v they give the rows z -+ tau
    np.subtract(1.0, x, out=a)
    np.multiply(a, a, out=c)
    c *= a
    np.divide(x, c, out=c)
    a *= c                            # P
    x += 1.0
    c *= x                            # Q
    acc[0] += a[1:]
    acc[1] += c[1:]
    np.add(acc[0, 0], acc[0, 1], out=x[1])
    x[1] += a[0]
    np.subtract(acc[1, 1], acc[1, 0], out=x[2])
    x[2] += c[0]

    # on m (Z + Z*tau_r) wp scales by m^-2, wp' by m^-3, out of place: numpy
    # rounds an in-place complex product of one element on another path
    np.multiply(x[1:], cell.scaling, out=out)
    out[0] += cell.const
    out[1] *= sign
    if near is not None:
        m2, m3 = cell.m ** 2, cell.m ** 3
        pole = dist < POLE_EPS
        zl = np.where(pole, 1.0, zc)
        wp_l = 1.0 / zl ** 2 + (cell.g2r / 20.0) * zl ** 2 + (cell.g3r / 28.0) * zl ** 4
        wpp_l = -2.0 / zl ** 3 + (cell.g2r / 10.0) * zl + (cell.g3r / 7.0) * zl ** 3
        out[0] = np.where(pole, np.inf, np.where(near, wp_l / m2, out[0]))
        out[1] = np.where(pole, np.inf, np.where(near, wpp_l / m3, out[1]))


def wp_both(z, lattice: Lattice):
    """Evaluate (wp(z), wp'(z)) for the lattice scale * (Z + Z*tau).

    Accepts a scalar or an array of any shape; arrays come back in the
    shape they came in, with values equal to those of the flattened call.
    On lattice points both values are complex infinity; a non-finite
    point raises ValueError.
    """
    s = lattice.scale
    cell = _cell(lattice.tau)
    zz = np.asarray(z, dtype=complex)
    flat = zz.reshape(-1) if s == 1 else zz.reshape(-1) / s
    u, v = _coordinates(flat / cell.m, cell.tau_r)
    if _any_far(u, v):
        u, v = _folded_coordinates(fold_far(flat, Lattice(lattice.tau)) / cell.m, cell.tau_r, 1.0)[1:]
    zc = _centred(u, v, cell.tau_r)
    del u, v  # freed before the series runs: kept alive, they slowed 10k-point calls by ~30%
    out = np.empty((2, zc.size), dtype=complex)
    for i in range(0, zc.size, BLOCK):
        _wp_series(zc[i:i + BLOCK], cell, out[:, i:i + BLOCK])
    if s != 1:  # out of place, like the scaling by m; inf / s is nan until reset below
        with np.errstate(invalid="ignore"):
            out = out / np.array([[s ** 2], [s ** 3]])
    if not np.isfinite(out).all():
        if not np.isfinite(zz).all():
            raise ValueError("wp_both needs finite points; a non-finite point is not a pole")
        out[~np.isfinite(out)] = complex(np.inf, 0.0)
    if zz.ndim == 0:
        return complex(out[0, 0]), complex(out[1, 0])
    return out[0].reshape(zz.shape), out[1].reshape(zz.shape)


def wp(z, lattice: Lattice):
    return wp_both(z, lattice)[0]


def invariants(lattice: Lattice) -> EllipticInvariants:
    """g2, g3, discriminant and j of scale * (Z + Z*tau), with no wp call: g2,
    g3 from the reduced cell's Eisenstein series through the homothety, j its
    own (a class function).  Past reduced Im tau ~113 j overflows: ValueError."""
    cell = _cell(lattice.tau)
    j = 1728.0 * cell.g2r ** 3 / cell.discr if cell.discr else math.inf
    if not cmath.isfinite(j):
        raise ValueError(f"j overflows float64 at reduced Im tau {cell.tau_r.imag:.4g};"
                         " the limit is about 113")
    m, s = cell.m, lattice.scale
    g2, g3, discr = cell.g2r / m ** 4, cell.g3r / m ** 6, cell.discr / m ** 12
    if s != 1:  # the eta-product discriminant rescaled: g2^3 - 27 g3^2 cancels on elongated lattices
        g2, g3, discr = g2 / s ** 4, g3 / s ** 6, discr / s ** 12
    return EllipticInvariants(g2, g3, discr, j)


def half_period_values(lattice: Lattice) -> tuple[complex, complex, complex]:
    """e1, e2, e3: wp at the half periods 1/2, tau/2, (1 + tau)/2 of Z + Z*tau
    (DLMF 23.3), divided by scale^2; computed only where they are printed."""
    tau, s = lattice.tau, lattice.scale
    e = tuple(complex(v) for v in wp(np.array([0.5, tau / 2.0, (1.0 + tau) / 2.0]), Lattice(tau)))
    return e if s == 1 else tuple(v / s ** 2 for v in e)


def j_invariant(tau: complex) -> complex:
    return invariants(Lattice(tau)).j


def scale_check(alpha: complex, z: complex, lattice: Lattice) -> float:
    """Residual of wp_{alpha L}(z) = alpha^-2 wp_L(z / alpha).

    The left side is evaluated through the flipped basis (c*tau, -c),
    c = alpha*scale, of the same lattice, so the two routes exercise
    independent reductions.
    """
    if alpha == 0:
        raise ValueError("scale factor must be nonzero")
    tau = lattice.tau
    w1 = alpha * lattice.scale * tau
    left = wp(z / w1, Lattice(-1.0 / tau)) / w1 ** 2
    right = wp(z / alpha, lattice) / alpha ** 2
    return abs(left - right)
