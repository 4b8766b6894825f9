"""Complex lattices scale*(Z + Z*tau): torsion points, integer sublattice bases,
and reduction of tau into the SL2(Z) fundamental domain.

Conventions.  A lattice is stored through its modular parameter tau with
Im(tau) > 0 and a nonzero complex scale; its basis is (scale, scale*tau),
(1, tau) at the default scale 1.  Torsion points are kept as
exact integer triples (a, b, n) meaning (a + b*tau)/n, so that all group
arithmetic downstream is exact integer arithmetic.  The fundamental domain uses the
half-open convention Re(tau) in [-1/2, 1/2) away from the unit circle,
and the Re >= 0 side on the circle itself, so every class has a unique
representative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd

import numpy as np

__all__ = [
    "DegenerateLatticeError",
    "HEX_TAU",
    "Lattice",
    "ModularClass",
    "SQUARE_TAU",
    "TorsionPoint",
    "fold_far",
    "is_hexagonal_class",
    "is_square_class",
    "moebius",
    "reduce_modular",
    "shortest_period",
    "sublattice_vectors",
    "torus_reduce_centered",
    "transport_torsion",
]

SQUARE_TAU = 1j
HEX_TAU = complex(0.5, math.sqrt(3.0) / 2.0)

_MAX_REDUCTION_STEPS = 10_000
_REDUCTION_EPS = 1e-12  # reduce_modular's boundary tolerance
_CLASS_ATOL = 1e-9
#: periods out, in either lattice coordinate, beyond which fold_far moves a point in
FAR_PERIODS = 8


class DegenerateLatticeError(ValueError):
    """Generators span a subgroup of rank below two."""


@dataclass(frozen=True)
class Lattice:
    """The lattice scale * (Z + Z*tau), Im(tau) > 0; scale may be any nonzero complex."""

    tau: complex
    scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        tau = complex(self.tau)
        scale = complex(self.scale)
        for name, v in (("tau", tau), ("scale", scale)):
            if not cmath.isfinite(v):
                raise ValueError(f"lattice {name} must be finite, got {v!r}")
        if not tau.imag > 0:
            raise ValueError(f"lattice parameter needs Im(tau) > 0, got {tau!r}")
        if scale == 0:
            raise ValueError("lattice scale must be nonzero")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "scale", scale)


def _reduce_torsion(a: int, b: int, n: int) -> tuple[int, int, int]:
    """(a + b*tau)/n as (a, b, n) with 0 <= a, b < n and gcd(a, b, n) = 1."""
    if n < 1:
        raise ValueError("torsion denominator must be >= 1")
    a %= n
    b %= n
    g = gcd(a, b, n)
    return a // g, b // g, n // g


@dataclass(frozen=True)
class TorsionPoint:
    """The point (a + b*tau)/n modulo the lattice, stored gcd-reduced.

    After normalisation 0 <= a, b < n and gcd(a, b, n) == 1, so the point
    has exact additive order n.
    """

    a: int
    b: int
    n: int

    def __post_init__(self):
        a, b, n = _reduce_torsion(int(self.a), int(self.b), int(self.n))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)

    @classmethod
    def zero(cls) -> "TorsionPoint":
        return cls(0, 0, 1)

    def matrix_apply(self, m: tuple[tuple[int, int], tuple[int, int]]) -> "TorsionPoint":
        """Apply an integer matrix to the (a, b) coordinates."""
        (p, q), (r, s) = m
        return TorsionPoint(p * self.a + q * self.b, r * self.a + s * self.b, self.n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_complex(self, tau: complex) -> complex:
        return (self.a + self.b * tau) / self.n


@dataclass(frozen=True)
class ModularClass:
    """A reduced modular parameter together with the SL2(Z) matrix realising it.

    ``moebius(transform, tau_original) == tau_reduced`` up to rounding.
    """

    tau_reduced: complex
    transform: tuple[tuple[int, int], tuple[int, int]]


def moebius(m: tuple[tuple[int, int], tuple[int, int]], tau: complex) -> complex:
    (a, b), (c, d) = m
    return (a * tau + b) / (c * tau + d)


def reduce_modular(tau: complex) -> ModularClass:
    """Reduce tau into the SL2(Z) fundamental domain.

    Gauss reduction: translate Re(tau) into [-1/2, 1/2], invert while
    |tau| < 1.  Boundary ties are resolved half-open (Re = +1/2 maps to
    -1/2 off the unit circle) and towards Re >= 0 on the circle, so the
    hexagonal corner is represented by exp(i*pi/3).
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError(f"reduce_modular needs Im(tau) > 0, got {tau!r}")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_MAX_REDUCTION_STEPS):
        if abs(tau.real) > 0.5 + _REDUCTION_EPS:
            n = round(tau.real)
            tau -= n
            a, b = a - n * c, b - n * d
        if abs(tau) < 1.0 - _REDUCTION_EPS:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
            continue
        if abs(tau.real) <= 0.5 + _REDUCTION_EPS:
            break
    else:  # pragma: no cover
        raise RuntimeError("modular reduction did not terminate")

    on_arc = abs(abs(tau) - 1.0) <= _CLASS_ATOL
    if on_arc:
        if tau.real < -_CLASS_ATOL:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
    elif tau.real >= 0.5 - _REDUCTION_EPS:
        tau -= 1
        a, b = a - c, b - d
    return ModularClass(tau, ((a, b), (c, d)))


def is_square_class(tau: complex) -> bool:
    """True when Z + Z*tau is homothetic to the square lattice Z + Z*i."""
    return abs(reduce_modular(tau).tau_reduced - SQUARE_TAU) < _CLASS_ATOL


def is_hexagonal_class(tau: complex) -> bool:
    """True when Z + Z*tau is homothetic to the hexagonal lattice."""
    return abs(reduce_modular(tau).tau_reduced - HEX_TAU) < _CLASS_ATOL


def shortest_period(tau: complex) -> float:
    """Length of a shortest nonzero vector of Z + Z*tau."""
    mc = reduce_modular(tau)
    (_, _), (c, d) = mc.transform
    # Z + Z*tau = (c*tau + d) * (Z + Z*tau_reduced), and the reduced
    # lattice has shortest vector 1.
    return abs(c * tau + d)


def _coordinates(z, tau: complex):
    """Real coordinates (s, t) of z = s + t*tau over (1, tau)."""
    t = z.imag / tau.imag
    return z.real - t * tau.real, t


def _centred(s, t, tau: complex):
    """s + t*tau moved into the centred cell of (1, tau): whole numbers are
    subtracted from array arguments s and t in place, leaving [-1/2, 1/2)."""
    s -= np.floor(s + 0.5)
    t -= np.floor(t + 0.5)
    return s + t * tau.real + 1j * (t * tau.imag)


def torus_reduce_centered(z, tau: complex):
    """Representative with coordinates s, t in [-1/2, 1/2) over (1, tau), of
    scalars or arrays; a far point is first moved in as fold_far moves it."""
    return _centred(*_folded_coordinates(z, tau, 1.0)[1:], tau)


def fold_far(z, lattice: Lattice) -> np.ndarray:
    """z, each point more than FAR_PERIODS periods out moved in by rounded
    whole periods subtracted from z itself, until none is far; other points
    stay bit for bit."""
    return _folded_coordinates(z, lattice.tau, lattice.scale)[0]


def _abs_max(x) -> float:
    return np.fmax.reduce(np.abs(x), None, initial=0.0)


def _any_far(s, t) -> bool:
    return _abs_max(s) > FAR_PERIODS or _abs_max(t) > FAR_PERIODS


def _folded_coordinates(z, tau: complex, scale: complex):
    """(fold_far of z, and its coordinates s, t over (scale, scale*tau));
    no division at scale 1."""
    z = np.asarray(z, dtype=complex)
    while True:
        s, t = _coordinates(z if scale == 1 else z / scale, tau)
        # the mask is built only when some point is far (fmax skips nan); a nan point stays put
        if not _any_far(s, t):
            return z, s, t
        far = np.maximum(np.abs(s), np.abs(t)) > FAR_PERIODS
        # the s periods first: round(t) tau added to a huge round(s) would lose its digits
        z = np.where(far, (z - scale * np.round(s)) - scale * (np.round(t) * tau), z)


def _hnf_2col(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row Hermite normal form ((g, y), (0, d)) of an integer k x 2 matrix of
    rank 2, with g, d > 0 and 0 <= y < d.

    One Euclid loop: each row is folded into the pivot (g, y) by Euclid's
    steps on the first column, and the second coordinate it leaves behind
    joins d by gcd.
    """
    g, y, d = 0, 0, 0
    for x2, y2 in rows:
        x2, y2 = int(x2), int(y2)
        while x2:
            q = g // x2
            g, y, x2, y2 = x2, y2, g - q * x2, y - q * y2
        d = gcd(d, y2)
    if g == 0 or d == 0:
        raise DegenerateLatticeError("generators span rank < 2")
    if g < 0:
        g, y = -g, -y
    return (g, y % d), (0, d)


def sublattice_vectors(
    generators, n: int, tau: complex
) -> tuple[complex, complex]:
    """Z-basis (w1, w2) of the subgroup spanned by integer coordinate pairs
    over the basis (1/n, tau/n); Im(w2/w1) > 0."""
    basis = _hnf_2col([tuple(g) for g in generators])
    (g, y), (_, d) = basis
    w1 = (g + y * tau) / n
    w2 = (d * tau) / n
    # det ((g, y), (0, d)) > 0 together with Im(tau) > 0 gives Im(w2/w1) > 0.
    return w1, w2


def transport_torsion(
    p: TorsionPoint, transform: tuple[tuple[int, int], tuple[int, int]]
) -> TorsionPoint:
    """Coordinates of p after the basis change tau -> moebius(transform, tau).

    The homothety identifying Z + Z*tau with Z + Z*tau' maps the point with
    (1, tau)-coordinates (x, y) to the point with (1, tau')-coordinates
    (a x - b y, -c x + d y).
    """
    (a, b), (c, d) = transform
    return p.matrix_apply(((a, -b), (-c, d)))
