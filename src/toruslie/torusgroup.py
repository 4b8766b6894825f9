"""Finite subgroups of the automorphism group of a complex torus.

Every automorphism is an affine map z -> eps*z + alpha with eps a root of
unity for which the lattice has complex multiplication and alpha a torsion
point.  Group data is exact and held in machine integers: the key
(rot_num, rot_den, a, b, n) of an element holds eps = exp(2*pi*i*rot_num/
rot_den) and alpha = (a + b*tau)/n, both reduced, and multiplication by
eps is an integer matrix on the (1, tau) coordinates.  One kernel, _act,
serves composition, inversion and the action on torsion points.  From one
closure on keys a GroupEmbedding keeps its elements, their keys, the
generator table and each element's inverse, as an index and as complex
(rotation, shift) arrays.  Floats enter only where a point is embedded.

The admissible families are the cyclic rotation groups C_l (l = 2 on any
torus, l in {4} on square and {3, 6} on hexagonal tori), cyclic
translation groups C_N, the Klein translation group C2 x C2, the dihedral
groups D_N = C2 x| C_N, and A4 on hexagonal tori.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm

import numpy as np

from .lattice import (
    Lattice,
    TorsionPoint,
    _reduce_torsion,
    is_hexagonal_class,
    is_square_class,
    reduce_modular,
    sublattice_vectors,
)

__all__ = [
    "AffineAutomorphism",
    "GroupEmbedding",
    "UnsupportedEmbeddingError",
    "a4_group",
    "branch_points",
    "c2c2_translation",
    "catalog",
    "cl_rotation",
    "cn_translation",
    "dn_group",
    "fixed_points",
    "make_embedding",
    "mult_matrix",
]

IntMat = tuple[tuple[int, int], tuple[int, int]]
#: (a, b, n): the torsion point (a + b*tau)/n, reduced as TorsionPoint stores it
Point = tuple[int, int, int]
#: (rot_num, rot_den, a, b, n): the element z -> eps*z + (a + b*tau)/n
Key = tuple[int, int, int, int, int]

_ROT_DENS = (1, 2, 3, 4, 6)
#: the largest group a closure builds before it gives up
_MAX_ORDER = 200
_ZERO: Point = (0, 0, 1)
_IDENTITY: Key = (0, 1) + _ZERO


class UnsupportedEmbeddingError(ValueError):
    """The requested group does not act on this lattice."""


def _rotation_value(num: int, den: int) -> complex:
    return cmath.exp(2j * math.pi * num / den)


#: g -> the matrix of multiplication by exp(2*pi*i/g) on (1, tau_r) of the
#: reduced class: tau_r = exp(i*pi/3) (g = 6), tau_r = i (g = 4), and -1 on
#: any lattice (g = 2)
_UNITS = {6: ((0, -1), (1, 1)), 4: ((0, -1), (1, 0)), 2: ((-1, 0), (0, -1))}


def _matmul(m: IntMat, n: IntMat) -> IntMat:
    (a, b), (c, d) = m
    (p, q), (r, s) = n
    return ((a * p + b * r, a * q + b * s), (c * p + d * r, c * q + d * s))


@lru_cache(maxsize=1024)
def mult_matrix(num: int, den: int, tau: complex) -> IntMat:
    """Integer matrix of multiplication by exp(2*pi*i*num/den) on (1, tau).

    A power of the reduced class's unit in _UNITS, carried to (1, tau) by
    reduce_modular(tau).transform; no coordinate is rounded.  Raises
    UnsupportedEmbeddingError when the lattice's class does not admit
    the rotation.
    """
    g = 6 if is_hexagonal_class(tau) else 4 if is_square_class(tau) else 2
    if g * num % den:
        raise UnsupportedEmbeddingError(
            f"lattice tau={tau:.6g} has no multiplication by exp(2*pi*i*{num}/{den})"
        )
    m = ((1, 0), (0, 1))
    for _ in range(g * num // den % g):
        m = _matmul(_UNITS[g], m)
    # Z + Z tau = (c tau + d)(Z + Z tau_r): the reduced basis has
    # (1, tau)-coordinates P = ((d, b), (c, a)), and P^-1 = ((a, -b), (-c, d))
    (a, b), (c, d) = reduce_modular(tau).transform
    return _matmul(_matmul(((d, b), (c, a)), m), ((a, -b), (-c, d)))


def _rot(num: int, den: int) -> tuple[int, int]:
    """The rotation index num/den reduced into [0, 1), 0 as 0/1."""
    num %= den
    g = gcd(num, den)
    return num // g, den // g


def _act(m: IntMat, a: int, b: int, n: int, shift: Point) -> Point:
    """m (a, b)/n + shift: the image of a torsion point under z -> eps*z +
    shift when m is the matrix of eps."""
    (p, q), (r, s) = m
    sa, sb, sn = shift
    d = lcm(n, sn)
    u, v = d // n, d // sn
    return _reduce_torsion((p * a + q * b) * u + sa * v, (r * a + s * b) * u + sb * v, d)


def _product(g: Key, m: IntMat, h: Key) -> Key:
    """The key of g after h; m is the rotation matrix of g."""
    return _rot(g[0] * h[1] + h[0] * g[1], g[1] * h[1]) + _act(m, h[2], h[3], h[4], g[2:])


def _inverse(g: Key, tau: complex) -> Key:
    num, den = _rot(-g[0], g[1])
    return (num, den) + _act(mult_matrix(num, den, tau), -g[2], -g[3], g[4], _ZERO)


@dataclass(frozen=True)
class AffineAutomorphism:
    """The torus map z -> eps*z + shift with eps = exp(2*pi*i*rot_num/rot_den)."""

    rot_num: int
    rot_den: int
    shift: TorsionPoint
    lattice: Lattice

    def __post_init__(self):
        num, den = int(self.rot_num), int(self.rot_den)
        if den not in _ROT_DENS:
            raise ValueError(f"rotation order {den} is not admissible on a torus")
        num, den = _rot(num, den)
        object.__setattr__(self, "rot_num", num)
        object.__setattr__(self, "rot_den", den)
        if den > 2:
            mult_matrix(num, den, self.lattice.tau)  # validate CM

    @classmethod
    def from_key(cls, key: Key, lattice: Lattice) -> "AffineAutomorphism":
        return cls(key[0], key[1], TorsionPoint(*key[2:]), lattice)

    @property
    def key(self) -> Key:
        return (self.rot_num, self.rot_den, self.shift.a, self.shift.b, self.shift.n)

    @property
    def is_identity(self) -> bool:
        return self.rot_num == 0 and self.shift.is_zero()

    @property
    def is_translation(self) -> bool:
        return self.rot_num == 0

    @property
    def rotation(self) -> complex:
        return _rotation_value(self.rot_num, self.rot_den)

    def rot_matrix(self) -> IntMat:
        return mult_matrix(self.rot_num, self.rot_den, self.lattice.tau)

    def apply(self, z):
        """Numeric action on a point (scalar or array) of the plane."""
        return self.rotation * z + self.shift.to_complex(self.lattice.tau)


def _closure(generators: list[Key], tau: complex) -> tuple[tuple, tuple]:
    """The sorted keys of the group the generator keys span, and the table
    of the products s g it composed once each: table[i][k] is the index of
    generators[i] after keys[k]."""
    gens = [(s, mult_matrix(s[0], s[1], tau)) for s in generators]
    products = {_IDENTITY: None}  # every key seen, then its row of products
    frontier = [_IDENTITY]
    while frontier:
        nxt = []
        for g in frontier:
            row = products[g] = [_product(s, m, g) for s, m in gens]
            for h in row:
                if h not in products:
                    products[h] = None
                    nxt.append(h)
        frontier = nxt
        if len(products) > _MAX_ORDER:
            raise UnsupportedEmbeddingError(f"group order exceeds the closure bound {_MAX_ORDER}")
    keys = tuple(sorted(products, key=lambda k: (k[1], k[0], k[4], k[2], k[3])))
    index = {k: i for i, k in enumerate(keys)}
    return keys, tuple(zip(*(tuple(index[h] for h in products[k]) for k in keys)))


@dataclass(frozen=True)
class GroupEmbedding:
    """A finite subgroup of Aut(T): its elements, their keys, its generator
    table and its inverses, all from one breadth-first closure on keys.

    kind is one of CN_translation, Cl_rotation, DN, C2xC2_translation, A4;
    order_param is N for C_N/D_N and l for C_l rotations.  Equality and hash
    read kind, order_param, lattice and generators; the rest derives from them.
    """

    kind: str
    order_param: int
    lattice: Lattice
    generators: tuple[AffineAutomorphism, ...]
    #: the group's elements, sorted; element 0 is the identity
    elements: tuple[AffineAutomorphism, ...] = field(init=False, compare=False)
    #: keys[k]: the key (rot_num, rot_den, a, b, n) of elements[k]
    keys: tuple[Key, ...] = field(init=False, compare=False, repr=False)
    #: table[i][k]: index in elements of generators[i] after elements[k]
    table: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    #: inverse_index[k]: index in elements of the inverse of elements[k]
    inverse_index: tuple[int, ...] = field(init=False, compare=False, repr=False)
    #: rotation and shift of the inverse of elements[k] as complex numbers:
    #: it maps z to inverse_rotation[k] * z + inverse_shift[k]
    inverse_rotation: np.ndarray = field(init=False, compare=False, repr=False)
    inverse_shift: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # the keys' torsion shifts are coordinates over the basis (1, tau)
        _require(self.lattice.scale == 1, "group embeddings need a lattice of scale 1")
        tau = self.lattice.tau
        keys, table = _closure([g.key for g in self.generators], tau)
        index = {k: i for i, k in enumerate(keys)}
        elements = tuple(AffineAutomorphism.from_key(k, self.lattice) for k in keys)
        inv = tuple(index[_inverse(k, tau)] for k in keys)
        pairs = np.array([(g.rotation, g.shift.to_complex(tau)) for g in elements])[list(inv)]
        pairs.setflags(write=False)
        rotation, shift = pairs.T
        for name, value in (("elements", elements), ("keys", keys), ("table", table),
                            ("inverse_index", inv), ("inverse_rotation", rotation),
                            ("inverse_shift", shift)):
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def quotient(self) -> Lattice:
        """quotient_scaled(self), computed once for classify and normal_form."""
        return quotient_scaled(self)

    @property
    def tau(self) -> complex:
        return self.lattice.tau

    @property
    def cyclic_generator(self) -> AffineAutomorphism:
        """Generator of the cyclic part: the translation r of D_N, else the first."""
        return self.generators[-1] if self.kind == "DN" else self.generators[0]


def _require(cond: bool, msg: str):
    if not cond:
        raise UnsupportedEmbeddingError(msg)


def cn_translation(lattice: Lattice, n: int, shift: TorsionPoint | None = None) -> GroupEmbedding:
    """C_N acting by z -> z + alpha for an N-torsion point alpha."""
    if shift is None:
        shift = TorsionPoint(1, 0, n)
    _require(shift.n == n, f"shift {shift} does not have exact order {n}")
    r = AffineAutomorphism(0, 1, shift, lattice)
    emb = GroupEmbedding("CN_translation", n, lattice, (r,))
    assert emb.order == n
    return emb


def cl_rotation(lattice: Lattice, ell: int) -> GroupEmbedding:
    """C_l acting by z -> exp(2*pi*i/l) z; l in {3, 4, 6} needs a special torus."""
    _require(ell in (2, 3, 4, 6), f"rotation order {ell} not admissible")
    if ell == 4:
        _require(is_square_class(lattice.tau), "order-4 rotation needs a square-class lattice")
    if ell in (3, 6):
        _require(is_hexagonal_class(lattice.tau), f"order-{ell} rotation needs a hexagonal-class lattice")
    s = AffineAutomorphism(1, ell, TorsionPoint.zero(), lattice)
    emb = GroupEmbedding("Cl_rotation", ell, lattice, (s,))
    assert emb.order == ell
    return emb


def dn_group(lattice: Lattice, n: int, shift: TorsionPoint | None = None) -> GroupEmbedding:
    """D_N = <s, r> with s(z) = -z and r(z) = z + alpha, alpha of order N."""
    if shift is None:
        shift = TorsionPoint(1, 0, n)
    _require(shift.n == n, f"shift {shift} does not have exact order {n}")
    s = AffineAutomorphism(1, 2, TorsionPoint.zero(), lattice)
    r = AffineAutomorphism(0, 1, shift, lattice)
    emb = GroupEmbedding("DN", n, lattice, (s, r))
    assert emb.order == 2 * n
    ts, tr = emb.table
    assert ts[tr[ts[tr[0]]]] == 0  # (sr)^2 = 1
    return emb


def c2c2_translation(lattice: Lattice) -> GroupEmbedding:
    """C2 x C2 acting by the half-period translations."""
    r1 = AffineAutomorphism(0, 1, TorsionPoint(1, 0, 2), lattice)
    r2 = AffineAutomorphism(0, 1, TorsionPoint(0, 1, 2), lattice)
    emb = GroupEmbedding("C2xC2_translation", 2, lattice, (r1, r2))
    assert emb.order == 4
    return emb


def a4_group(lattice: Lattice) -> GroupEmbedding:
    """A4 = <s, r1, r2> on a hexagonal-class lattice.

    s is the order-3 rotation and r1 the half-period translation z + 1/2;
    r2 := r1 * (s r1 s^-1) makes the presentation relations
    s r1 s^-1 = r1 r2 and s r2 s^-1 = r1 hold for any hexagonal basis.
    """
    _require(is_hexagonal_class(lattice.tau), "A4 needs a hexagonal-class lattice")
    s, r1, m = (1, 3) + _ZERO, (0, 1, 1, 0, 2), mult_matrix(1, 3, lattice.tau)
    conj = _product(_product(s, m, r1), m, (2, 3) + _ZERO)  # s r1 s^-1
    r2 = _product(r1, mult_matrix(0, 1, lattice.tau), conj)
    gens = tuple(AffineAutomorphism.from_key(k, lattice) for k in (s, r1, r2))
    emb = GroupEmbedding("A4", 3, lattice, gens)
    assert emb.order == 12
    ts, t1, t2 = emb.table
    s_inv = emb.inverse_index[ts[0]]
    assert ts[t1[s_inv]] == t1[t2[0]]  # s r1 s^-1 = r1 r2
    assert ts[t2[s_inv]] == t1[0]  # s r2 s^-1 = r1
    return emb


def make_embedding(
    lattice: Lattice,
    kind: str,
    order: int = 2,
    shift: TorsionPoint | None = None,
) -> GroupEmbedding:
    """Factory keyed by kind name; raises UnsupportedEmbeddingError if absent,
    or if the kind takes no shift and one is given."""
    _require(shift is None or kind in ("CN_translation", "DN"), f"{kind} takes no torsion shift")
    if kind == "CN_translation":
        return cn_translation(lattice, order, shift)
    if kind == "Cl_rotation":
        return cl_rotation(lattice, order)
    if kind == "DN":
        return dn_group(lattice, order, shift)
    if kind == "C2xC2_translation":
        return c2c2_translation(lattice)
    if kind == "A4":
        return a4_group(lattice)
    raise ValueError(f"unknown embedding kind {kind!r}")


def catalog(lattice: Lattice, orders: tuple[int, ...] = (2, 3, 4, 5)) -> list[GroupEmbedding]:
    """All admissible families on this lattice, one representative each.

    Translation families C_N and D_N are instantiated with alpha = 1/N for
    the requested orders; the special rotations and A4 appear when the
    lattice class admits them.
    """
    out: list[GroupEmbedding] = [cl_rotation(lattice, 2)]
    if is_square_class(lattice.tau):
        out.append(cl_rotation(lattice, 4))
    if is_hexagonal_class(lattice.tau):
        out.append(cl_rotation(lattice, 3))
        out.append(cl_rotation(lattice, 6))
        out.append(a4_group(lattice))
    for n in orders:
        out.append(cn_translation(lattice, n))
    out.append(c2c2_translation(lattice))
    for n in orders:
        out.append(dn_group(lattice, n))
    return out


def _fixed(m: IntMat, shift: Point) -> set[Point]:
    """All torus solutions of eps z + shift = z, eps != 1 with matrix m."""
    (p, q), (r, s) = m
    # A = eps - 1 as an integer matrix; det A = |eps - 1|^2 > 0
    a11, a12, a21, a22 = p - 1, q, r, s - 1
    det = a11 * a22 - a12 * a21
    assert det > 0
    # v = adj(A) (k - shift) / det for k in Z^2, kept over the denominator
    # det * n as integers; v mod Z^2 depends on k mod A Z^2 only.  The
    # first coordinates of A Z^2 are d1 Z with d1 = gcd(a11, a12) and its
    # points on the second axis are (0, det/d1) Z, so k in
    # [0, d1) x [0, det/d1) meets each of the det cosets once
    d1 = gcd(a11, a12)
    sa, sb, n = shift
    sols = set()
    for k1 in range(d1):
        for k2 in range(det // d1):
            x, y = k1 * n - sa, k2 * n - sb
            sols.add(_reduce_torsion(a22 * x - a12 * y, a11 * y - a21 * x, det * n))
    assert len(sols) == det
    return sols


def fixed_points(g: AffineAutomorphism) -> tuple[TorsionPoint, ...]:
    """All torus solutions of g(z) = z, exactly.

    Empty for a nontrivial translation; the identity is a domain error.
    """
    if g.is_identity:
        raise ValueError("every point is fixed by the identity")
    if g.is_translation:
        return ()
    sols = (TorsionPoint(*t) for t in _fixed(g.rot_matrix(), g.key[2:]))
    return tuple(sorted(sols, key=lambda t: (t.n, t.a, t.b)))


@lru_cache(maxsize=256)
def branch_points(emb: GroupEmbedding) -> tuple[int, tuple[frozenset[TorsionPoint], ...]]:
    """Count and list the branch-point orbits of T -> T/Gamma away from Gamma.0.

    Enumerates every point with nontrivial stabiliser, removes the orbit of
    the origin, and groups the remainder into Gamma-orbits, on the keys of
    the closure.
    """
    acts = [(mult_matrix(k[0], k[1], emb.tau), k[2:]) for k in emb.keys]

    def orbit(t: Point) -> frozenset[Point]:
        return frozenset(_act(m, *t, shift) for m, shift in acts)

    ramified: set[Point] = set()
    for k, (m, shift) in zip(emb.keys, acts):
        if k[0]:  # a rotation: neither the identity nor a translation
            ramified |= _fixed(m, shift)
    ramified -= orbit(_ZERO)
    orbits = []
    while ramified:
        orb = orbit(next(iter(ramified)))
        assert orb <= ramified
        ramified -= orb
        orbits.append(orb)
    orbits.sort(key=lambda o: sorted((t[2], t[0], t[1]) for t in o))
    return len(orbits), tuple(frozenset(TorsionPoint(*t) for t in o) for o in orbits)


def quotient_scaled(emb: GroupEmbedding):
    """The lattice of T / t(Gamma) (true vectors, not just the class)."""
    trans = [k[2:] for k in emb.keys if k[0] == 0 and k[4] > 1]
    n = lcm(*(d for _, _, d in trans))
    gens = [(n, 0), (0, n)] + [(a * n // d, b * n // d) for a, b, d in trans]
    w1, w2 = sublattice_vectors(gens, n, emb.tau)
    return Lattice(w2 / w1, w1)
