"""Finite subgroups of the automorphism group of a complex torus.

Every automorphism is an affine map z -> eps*z + alpha with eps a root of
unity for which the lattice has complex multiplication and alpha a torsion
point.  Group data is exact and held in machine integers: eps as a
reduced rotation index num/den, alpha as an integer torsion triple, and
multiplication by eps as an integer matrix on the (1, tau) coordinates.
Floats enter only when a point is finally embedded into the plane.

The admissible families are the cyclic rotation groups C_l (l = 2 on any
torus, l in {4} on square and {3, 6} on hexagonal tori), cyclic
translation groups C_N, the Klein translation group C2 x C2, the dihedral
groups D_N = C2 x| C_N, and A4 on hexagonal tori.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .lattice import (
    Lattice,
    ScaledLattice,
    TorsionPoint,
    is_hexagonal_class,
    is_square_class,
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
    "compose",
    "dn_group",
    "fixed_points",
    "identity_map",
    "inverse",
    "make_embedding",
    "mult_matrix",
]

IntMat = tuple[tuple[int, int], tuple[int, int]]

_ROT_DENS = (1, 2, 3, 4, 6)


class UnsupportedEmbeddingError(ValueError):
    """The requested group does not act on this lattice."""


def _rotation_value(num: int, den: int) -> complex:
    return cmath.exp(2j * math.pi * num / den)


@lru_cache(maxsize=1024)
def mult_matrix(num: int, den: int, tau: complex) -> IntMat:
    """Integer matrix of multiplication by exp(2*pi*i*num/den) on (1, tau).

    Raises UnsupportedEmbeddingError when the lattice does not admit the
    rotation (residual above 1e-9 after rounding to integers).
    """
    eps = _rotation_value(num, den)
    rows = []
    for w in (1.0 + 0.0j, tau):
        v = eps * w
        y = v.imag / tau.imag
        x = v.real - y * tau.real
        xi, yi = round(x), round(y)
        if abs(x - xi) > 1e-9 or abs(y - yi) > 1e-9:
            raise UnsupportedEmbeddingError(
                f"lattice tau={tau:.6g} has no multiplication by exp(2*pi*i*{num}/{den})"
            )
        rows.append((xi, yi))
    # matrix acts on column coordinates (a, b) of a + b*tau
    (p, q), (r, s) = rows
    return ((p, r), (q, s))


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
        num %= den
        g = gcd(num, den)
        if num:
            num, den = num // g, den // g
        else:
            num, den = 0, 1
        object.__setattr__(self, "rot_num", num)
        object.__setattr__(self, "rot_den", den)
        if den > 2:
            mult_matrix(num, den, self.lattice.tau)  # validate CM

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

    def act_torsion(self, p: TorsionPoint) -> TorsionPoint:
        return p.matrix_apply(self.rot_matrix()) + self.shift


def identity_map(lattice: Lattice) -> AffineAutomorphism:
    return AffineAutomorphism(0, 1, TorsionPoint.zero(), lattice)


def compose(g: AffineAutomorphism, h: AffineAutomorphism) -> AffineAutomorphism:
    """g after h: z -> g(h(z)), exact on the rotation/torsion data."""
    if g.lattice != h.lattice:
        raise ValueError("cannot compose automorphisms of different lattices")
    num = g.rot_num * h.rot_den + h.rot_num * g.rot_den
    den = g.rot_den * h.rot_den
    d = gcd(num, den)
    shift = h.shift.matrix_apply(g.rot_matrix()) + g.shift
    return AffineAutomorphism(num // d, den // d, shift, g.lattice)


def inverse(g: AffineAutomorphism) -> AffineAutomorphism:
    inv = AffineAutomorphism(-g.rot_num, g.rot_den, TorsionPoint.zero(), g.lattice)
    shift = (-g.shift).matrix_apply(inv.rot_matrix())
    return AffineAutomorphism(inv.rot_num, inv.rot_den, shift, g.lattice)


def _closure(generators: list[AffineAutomorphism], bound: int = 200) -> tuple[tuple, tuple]:
    """The sorted elements of the group the generators span, and the table
    of the products s g it composed once each: table[i][k] is the index of
    compose(generators[i], elements[k])."""
    seen = {identity_map(generators[0].lattice)}
    products = {}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            row = products[g] = []
            for s in generators:
                h = compose(s, g)
                row.append(h)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
        if len(seen) > bound:
            raise RuntimeError("group closure exceeded bound")
    elements = tuple(sorted(seen, key=lambda g: (g.rot_den, g.rot_num, g.shift.n, g.shift.a, g.shift.b)))
    index = {g: k for k, g in enumerate(elements)}
    return elements, tuple(zip(*(tuple(index[h] for h in products[g]) for g in elements)))


@dataclass(frozen=True)
class GroupEmbedding:
    """A finite subgroup of Aut(T): its elements and its generator table,
    both from one breadth-first closure.

    kind is one of CN_translation, Cl_rotation, DN, C2xC2_translation, A4;
    order_param is N for C_N/D_N and l for C_l rotations.
    """

    kind: str
    order_param: int
    lattice: Lattice
    generators: tuple[AffineAutomorphism, ...]
    #: the group's elements, sorted; element 0 is the identity
    elements: tuple[AffineAutomorphism, ...] = field(init=False)
    #: table[i][k]: index in elements of compose(generators[i], elements[k])
    table: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elements, table = _closure(list(self.generators))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "table", table)

    @property
    def order(self) -> int:
        return len(self.elements)

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


def cl_rotation(lattice: Lattice, ell: int, num: int = 1) -> GroupEmbedding:
    """C_l acting by z -> exp(2*pi*i/l) z; l in {3, 4, 6} needs a special torus."""
    _require(ell in (2, 3, 4, 6), f"rotation order {ell} not admissible")
    if ell == 4:
        _require(is_square_class(lattice.tau), "order-4 rotation needs a square-class lattice")
    if ell in (3, 6):
        _require(is_hexagonal_class(lattice.tau), f"order-{ell} rotation needs a hexagonal-class lattice")
    s = AffineAutomorphism(num, ell, TorsionPoint.zero(), lattice)
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
    assert compose(compose(s, r), compose(s, r)).is_identity  # (sr)^2 = 1
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
    s = AffineAutomorphism(1, 3, TorsionPoint.zero(), lattice)
    r1 = AffineAutomorphism(0, 1, TorsionPoint(1, 0, 2), lattice)
    conj = compose(compose(s, r1), inverse(s))
    r2 = compose(r1, conj)
    emb = GroupEmbedding("A4", 3, lattice, (s, r1, r2))
    assert emb.order == 12
    assert compose(compose(s, r1), inverse(s)) == compose(r1, r2)
    assert compose(compose(s, r2), inverse(s)) == r1
    return emb


def make_embedding(
    lattice: Lattice,
    kind: str,
    order: int = 2,
    shift: TorsionPoint | None = None,
) -> GroupEmbedding:
    """Factory keyed by kind name; raises UnsupportedEmbeddingError if absent."""
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


def fixed_points(g: AffineAutomorphism, lattice: Lattice | None = None) -> tuple[TorsionPoint, ...]:
    """All torus solutions of g(z) = z, exactly.

    Empty for a nontrivial translation; the identity is a domain error.
    """
    if lattice is not None and lattice != g.lattice:
        raise ValueError("lattice mismatch")
    if g.is_identity:
        raise ValueError("every point is fixed by the identity")
    if g.is_translation:
        return ()
    (p, q), (r, s) = g.rot_matrix()
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
    sa, sb, n = g.shift.a, g.shift.b, g.shift.n
    sols = set()
    for k1 in range(d1):
        for k2 in range(det // d1):
            x, y = k1 * n - sa, k2 * n - sb
            sols.add(TorsionPoint(a22 * x - a12 * y, a11 * y - a21 * x, det * n))
    assert len(sols) == det
    return tuple(sorted(sols, key=lambda t: (t.n, t.a, t.b)))


def _orbit(emb: GroupEmbedding, p: TorsionPoint) -> frozenset[TorsionPoint]:
    return frozenset(g.act_torsion(p) for g in emb.elements)


def branch_points(emb: GroupEmbedding) -> tuple[int, tuple[frozenset[TorsionPoint], ...]]:
    """Count and list the branch-point orbits of T -> T/Gamma away from Gamma.0.

    Enumerates every point with nontrivial stabiliser, removes the orbit of
    the origin, and groups the remainder into Gamma-orbits.
    """
    ramified: set[TorsionPoint] = set()
    for g in emb.elements:
        if g.is_identity or g.is_translation:
            continue
        ramified.update(fixed_points(g))
    ramified -= _orbit(emb, TorsionPoint.zero())
    orbits = []
    while ramified:
        p = next(iter(ramified))
        orb = _orbit(emb, p)
        assert orb <= ramified
        ramified -= orb
        orbits.append(orb)
    orbits.sort(key=lambda o: sorted((t.n, t.a, t.b) for t in o))
    return len(orbits), tuple(orbits)


def quotient_scaled(emb: GroupEmbedding):
    """Scaled lattice of T / t(Gamma) (true vectors, not just the class)."""
    trans = [g for g in emb.elements if g.is_translation and not g.shift.is_zero()]
    n = 1
    for g in trans:
        n = n * g.shift.n // gcd(n, g.shift.n)
    gens = [(n, 0), (0, n)]
    gens += [(g.shift.a * n // g.shift.n, g.shift.b * n // g.shift.n) for g in trans]
    w1, w2 = sublattice_vectors(gens, n, emb.tau)
    return ScaledLattice(w2 / w1, w1)
