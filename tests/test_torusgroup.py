import cmath
import math
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np
import pytest

from sweep import SWEEP_TAUS, sweep_cases
from toruslie import normalform, sl2rep
from toruslie import torusgroup as tg
from toruslie.lattice import (
    HEX_TAU, Lattice, TorsionPoint, moebius, reduce_modular, torus_reduce_centered,
)
from toruslie.torusgroup import (
    AffineAutomorphism,
    UnsupportedEmbeddingError,
    a4_group,
    branch_points,
    catalog,
    cl_rotation,
    cn_translation,
    dn_group,
    fixed_points,
    make_embedding,
    quotient_scaled,
)

GENERIC = complex(0.37, 1.2)
L_GEN = Lattice(GENERIC)
L_SQ = Lattice(1j)
L_HEX = Lattice(HEX_TAU)
#: the integer matrix of the identity rotation
_ONE = ((1, 0), (0, 1))


def identity_map(lattice):
    return AffineAutomorphism(0, 1, TorsionPoint.zero(), lattice)


def kinds(entries):
    return {(e.kind, e.order_param) for e in entries}


class TestCatalog:
    def test_generic_lattice(self):
        got = kinds(catalog(L_GEN))
        assert ("Cl_rotation", 2) in got
        assert ("CN_translation", 3) in got
        assert ("C2xC2_translation", 2) in got
        assert ("DN", 3) in got
        assert not any(k == "Cl_rotation" and p in (3, 4, 6) for k, p in got)
        assert not any(k == "A4" for k, _ in got)

    def test_hexagonal_lattice(self):
        got = kinds(catalog(L_HEX))
        assert ("A4", 3) in got
        assert ("Cl_rotation", 3) in got
        assert ("Cl_rotation", 6) in got
        assert ("Cl_rotation", 4) not in got

    def test_square_lattice(self):
        got = kinds(catalog(L_SQ))
        assert ("Cl_rotation", 4) in got
        assert ("Cl_rotation", 3) not in got
        assert ("Cl_rotation", 6) not in got
        assert ("A4", 3) not in got

    def test_unsupported_rotation_raises(self):
        with pytest.raises(UnsupportedEmbeddingError):
            cl_rotation(L_GEN, 4)
        with pytest.raises(UnsupportedEmbeddingError):
            a4_group(L_SQ)

    @pytest.mark.parametrize("kind", ["Cl_rotation", "C2xC2_translation", "A4"])
    def test_a_shift_the_kind_cannot_take_raises(self, kind):
        assert make_embedding(L_HEX, kind).kind == kind
        with pytest.raises(UnsupportedEmbeddingError, match="takes no torsion shift"):
            make_embedding(L_HEX, kind, 2, TorsionPoint(1, 0, 2))

    def test_scaled_lattice_rejected(self):
        # the keys' torsion shifts are coordinates over the basis (1, tau)
        with pytest.raises(UnsupportedEmbeddingError, match="scale 1"):
            cn_translation(Lattice(1j, 2.0), 2)

    def test_group_orders_and_relations(self):
        for lat in (L_SQ, L_HEX, L_GEN):
            for emb in catalog(lat):
                expected = {
                    "CN_translation": emb.order_param,
                    "Cl_rotation": emb.order_param,
                    "DN": 2 * emb.order_param,
                    "C2xC2_translation": 4,
                    "A4": 12,
                }[emb.kind]
                assert emb.order == expected
                # closure and inverses, exactly
                els = set(emb.elements)
                for g, i in zip(emb.elements, emb.inverse_index):
                    assert emb.elements[i] == fraction_inverse(g)
                    for h in emb.generators:
                        assert fraction_compose(h, g) in els


class TestEquality:
    @pytest.mark.parametrize("lat", [L_SQ, L_HEX, L_GEN], ids=["square", "hex", "generic"])
    def test_rebuilt_embeddings_are_equal(self, lat):
        # equality and hash read the defining fields; the closure derives
        # the elements from them
        for a, b in zip(catalog(lat), catalog(Lattice(lat.tau))):
            assert a is not b and a == b and hash(a) == hash(b)
            assert a.elements == b.elements

    def test_the_hash_is_computed_once(self, monkeypatch):
        # every cache keyed on an embedding hashes it: a repeated hash(emb)
        # reads the stored value and calls no field's __hash__
        embs = catalog(L_GEN, orders=(2, 3, 5))
        want = [hash((e.kind, e.order_param, e.lattice, e.generators)) for e in embs]

        def refuse(obj):
            raise AssertionError(f"{type(obj).__name__}.__hash__ called")

        for cls in (Lattice, AffineAutomorphism, TorsionPoint):
            monkeypatch.setattr(cls, "__hash__", refuse)
        assert [hash(e) for e in embs] == want

    def test_other_generators_are_not_equal(self):
        # 2/5 generates the same group as 1/5, on other characters
        a, b = cn_translation(L_GEN, 5), cn_translation(L_GEN, 5, TorsionPoint(2, 0, 5))
        assert a.elements == b.elements and a != b
        assert dn_group(L_GEN, 3) != dn_group(L_GEN, 3, TorsionPoint(1, 1, 3))
        assert cn_translation(L_GEN, 2) != cn_translation(L_SQ, 2)


class TestComposition:
    def test_involution_squares_to_identity(self):
        emb = cl_rotation(L_GEN, 2)
        s = emb.generators[0]
        assert emb.table[0][emb.elements.index(s)] == 0

    def test_commutator_of_flip_and_half_shift(self):
        # [s, r'] with s(z) = -z and r'(z) = z + alpha/2 is translation by alpha
        alpha = TorsionPoint(1, 0, 2)
        half = TorsionPoint(1, 0, 4)
        s = AffineAutomorphism(1, 2, TorsionPoint.zero(), L_GEN)
        rp = AffineAutomorphism(0, 1, half, L_GEN)
        comm = fraction_compose(
            fraction_compose(s, rp), fraction_compose(fraction_inverse(s), fraction_inverse(rp))
        )
        assert comm.is_translation
        assert comm.shift == alpha

    def test_commutators_are_translations(self):
        for lat in (L_SQ, L_HEX):
            for emb in catalog(lat):
                els, inv = emb.elements, emb.inverse_index
                for a, g in enumerate(els[:6]):
                    for b, h in enumerate(els[:6]):
                        comm = fraction_compose(
                            fraction_compose(g, h), fraction_compose(els[inv[a]], els[inv[b]])
                        )
                        assert comm.is_translation

    def test_table_matches_pointwise_evaluation(self):
        # the exact products of A4's generator table against direct numeric
        # evaluation at 20 points
        emb = a4_group(L_HEX)
        rng = np.random.default_rng(0)
        z = rng.random(20) + HEX_TAU * rng.random(20)
        for s, row in zip(emb.generators, emb.table):
            for g, k in zip(emb.elements, row):
                # equality on the torus: difference is a lattice vector
                diff = s.apply(g.apply(z)) - emb.elements[k].apply(z)
                t = diff.imag / HEX_TAU.imag
                x = diff.real - t * HEX_TAU.real
                assert np.allclose(x, np.round(x), atol=1e-10)
                assert np.allclose(t, np.round(t), atol=1e-10)


class TestFixedPoints:
    def test_translation_has_none(self):
        g = AffineAutomorphism(0, 1, TorsionPoint(1, 0, 2), L_GEN)
        assert fixed_points(g) == ()

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            fixed_points(identity_map(L_GEN))

    def test_minus_one_fixes_two_torsion(self):
        s = AffineAutomorphism(1, 2, TorsionPoint.zero(), L_GEN)
        pts = set(fixed_points(s))
        expect = {
            TorsionPoint(0, 0, 1),
            TorsionPoint(1, 0, 2),
            TorsionPoint(0, 1, 2),
            TorsionPoint(1, 1, 2),
        }
        assert pts == expect

    def test_order_three_rotation(self):
        s = AffineAutomorphism(1, 3, TorsionPoint.zero(), L_HEX)
        pts = fixed_points(s)
        assert len(pts) == 3
        # verify numerically: s(p) = p on the torus
        for p in pts:
            z = p.to_complex(HEX_TAU)
            diff = s.apply(z) - z
            t = diff.imag / HEX_TAU.imag
            x = diff.real - t * HEX_TAU.real
            assert abs(x - round(x)) < 1e-9 and abs(t - round(t)) < 1e-9

    def test_conjugation_permutes_fixed_points(self):
        emb = dn_group(L_GEN, 3)
        for g in emb.elements:
            if g.is_identity or g.is_translation:
                continue
            pts = set(fixed_points(g))
            for h, i in zip(emb.elements, emb.inverse_index):
                conj = fraction_compose(fraction_compose(h, g), emb.elements[i])
                mapped = {torsion_add(p.matrix_apply(h.rot_matrix()), h.shift) for p in pts}
                assert set(fixed_points(conj)) == mapped


class TestBranchPoints:
    def test_closed_form_on_special_and_random_lattices(self):
        rng = np.random.default_rng(1)
        taus = [1j, HEX_TAU, GENERIC] + [
            complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.6)) for _ in range(5)
        ]
        for tau in taus:
            lat = Lattice(tau)
            for emb in catalog(lat, orders=(2, 3, 4, 5)):
                n, orbits = branch_points(emb)
                if emb.kind in ("CN_translation", "C2xC2_translation"):
                    expect = 0
                elif emb.kind == "A4" or (
                    emb.kind == "Cl_rotation" and emb.order_param in (3, 4, 6)
                ):
                    expect = 2
                else:  # C2 rotation or dihedral
                    expect = 3
                assert n == expect, (tau, emb.kind, emb.order_param)
                assert len(orbits) == n

    def test_c3_rotation_two_branch_points(self):
        n, _ = branch_points(cl_rotation(L_HEX, 3))
        assert n == 2

    def test_translations_no_branch_points(self):
        n, _ = branch_points(cn_translation(L_GEN, 4))
        assert n == 0

    def test_dihedral_three_branch_points(self):
        n, _ = branch_points(dn_group(L_GEN, 4))
        assert n == 3


class TestClosureBound:
    def test_past_the_bound_is_unsupported(self):
        for build, n in ((cn_translation, 201), (dn_group, 101)):
            with pytest.raises(UnsupportedEmbeddingError, match="200"):
                build(L_SQ, n)
        assert issubclass(UnsupportedEmbeddingError, ValueError)

    def test_at_the_bound_builds(self):
        assert cn_translation(L_SQ, 200).order == 200
        assert dn_group(L_SQ, 100).order == 200


class TestTranslationSubgroup:
    """t(Gamma), the translations of a group, and T / t(Gamma)."""

    def test_c2_rotation_trivial(self):
        emb = cl_rotation(L_GEN, 2)
        assert sum(g.is_translation for g in emb.elements) == 1
        quot = quotient_scaled(emb)
        assert abs(reduce_modular(quot.tau).tau_reduced
                   - reduce_modular(GENERIC).tau_reduced) < 1e-9

    def test_cn_translation_full(self):
        emb = cn_translation(L_SQ, 2)
        assert sum(g.is_translation for g in emb.elements) == 2
        quot = quotient_scaled(emb)
        # Lambda_(1/2) on the square lattice is homothetic to 2i
        assert abs(reduce_modular(quot.tau).tau_reduced - 2j) < 1e-9

    def test_a4_subgroup_is_klein(self):
        emb = a4_group(L_HEX)
        assert sum(g.is_translation for g in emb.elements) == 4
        # four translations, each shift of order at most 2: the Klein
        # group, not C4
        trans = [g for g in emb.elements if g.is_translation]
        assert sorted(g.shift.n for g in trans) == [1, 2, 2, 2]
        # T / (half shifts) is the half lattice: same class
        quot = quotient_scaled(emb)
        assert abs(reduce_modular(quot.tau).tau_reduced
                   - reduce_modular(HEX_TAU).tau_reduced) < 1e-9

    def test_quotient_scaled_vectors(self):
        slat = quotient_scaled(cn_translation(L_SQ, 2))
        # (1/2) Z + Z i: scale 1/2, class 2i
        assert abs(slat.scale - 0.5) < 1e-12
        assert abs(slat.tau - 2j) < 1e-12


class TestA4Presentation:
    def test_relations(self):
        emb = a4_group(L_HEX)
        s, r1, r2 = emb.generators
        s_inv = emb.elements[emb.inverse_index[emb.elements.index(s)]]
        assert fraction_compose(fraction_compose(s, s), s).is_identity
        assert fraction_compose(r1, r1).is_identity
        assert fraction_compose(r2, r2).is_identity
        assert fraction_compose(fraction_compose(s, r1), s_inv) == fraction_compose(r1, r2)
        assert fraction_compose(fraction_compose(s, r2), s_inv) == r1

    def test_adapted_generators_on_shifted_basis(self):
        # same lattice class through a different basis still presents A4
        emb = a4_group(Lattice(HEX_TAU + 1))
        assert emb.order == 12
        s, r1, r2 = emb.generators
        s_inv = emb.elements[emb.inverse_index[emb.elements.index(s)]]
        assert fraction_compose(fraction_compose(s, r1), s_inv) == fraction_compose(r1, r2)


# The rational formulas that the integer arithmetic replaced, kept as the
# reference: sums of torsion points and rotation indices through Fraction,
# and fixed points through the inverse of eps - 1 over Q.  The slow ones
# are memoised: each is a function of its arguments alone.


def _from_fractions(x: Fraction, y: Fraction) -> TorsionPoint:
    n = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return TorsionPoint(int(x * n), int(y * n), n)


def fraction_add(p: TorsionPoint, q: TorsionPoint) -> TorsionPoint:
    return _from_fractions(
        Fraction(p.a, p.n) + Fraction(q.a, q.n), Fraction(p.b, p.n) + Fraction(q.b, q.n)
    )


@cache
def fraction_compose(g: AffineAutomorphism, h: AffineAutomorphism) -> AffineAutomorphism:
    if g.lattice != h.lattice:
        raise ValueError("cannot compose automorphisms of different lattices")
    rot = Fraction(g.rot_num, g.rot_den) + Fraction(h.rot_num, h.rot_den)
    shift = fraction_add(h.shift.matrix_apply(g.rot_matrix()), g.shift)
    return AffineAutomorphism(rot.numerator, rot.denominator, shift, g.lattice)


def fraction_inverse(g: AffineAutomorphism) -> AffineAutomorphism:
    rot = -Fraction(g.rot_num, g.rot_den)
    inv = AffineAutomorphism(rot.numerator, rot.denominator, TorsionPoint.zero(), g.lattice)
    shift = torsion_neg(g.shift).matrix_apply(inv.rot_matrix())
    return AffineAutomorphism(rot.numerator, rot.denominator, shift, g.lattice)


# the key kernel of torusgroup through Fraction: the reduced rotation
# index, the image m (a, b)/n + shift of a torsion point, and the fixed
# points of z -> eps z + shift, all as the integer tuples the kernel returns


def _key_point(x: Fraction, y: Fraction) -> tuple:
    x, y = x % 1, y % 1
    n = lcm(x.denominator, y.denominator)
    return int(x * n), int(y * n), n


def fraction_rot(num: int, den: int) -> tuple:
    x = Fraction(num, den) % 1
    return x.numerator, x.denominator


def fraction_act(m, a: int, b: int, n: int, shift: tuple) -> tuple:
    (p, q), (r, s) = m
    sa, sb, sn = shift
    return _key_point(
        Fraction(p * a + q * b, n) + Fraction(sa, sn), Fraction(r * a + s * b, n) + Fraction(sb, sn)
    )


@cache
def fraction_fixed(m, shift: tuple) -> frozenset:
    (p, q), (r, s) = m
    a = ((p - 1, q), (r, s - 1))
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    cx, cy = -Fraction(shift[0], shift[2]), -Fraction(shift[1], shift[2])
    inv = (
        (Fraction(a[1][1], det), Fraction(-a[0][1], det)),
        (Fraction(-a[1][0], det), Fraction(a[0][0], det)),
    )
    sols = set()
    for k1 in range(abs(det)):
        for k2 in range(abs(det)):
            vx = inv[0][0] * (cx + k1) + inv[0][1] * (cy + k2)
            vy = inv[1][0] * (cx + k1) + inv[1][1] * (cy + k2)
            sols.add(_key_point(vx, vy))
    return frozenset(sols)


def _embeddings(tau: complex) -> list:
    """catalog() up to order 8, and C_N, D_N at every shift of exact order N."""
    lat = Lattice(tau)
    out = tg.catalog(lat, orders=(2, 3, 4, 5, 6, 7, 8))
    for n in (3, 4, 6, 8):
        for a in range(n):
            for b in range(n):
                if TorsionPoint(a, b, n).n == n:
                    out.append(tg.cn_translation(lat, n, TorsionPoint(a, b, n)))
                    out.append(tg.dn_group(lat, n, TorsionPoint(a, b, n)))
    return out


def _group_data(emb) -> dict:
    """What the exact layer derives for one embedding, looked up through
    the modules so that substituted formulas take effect."""
    els = emb.elements
    rep = sl2rep.standard_rep(emb)
    return {
        "elements": els,
        "keys": emb.keys,
        "table": emb.table,
        "inverses": emb.inverse_index,
        "fixed": [tg.fixed_points(g) for g in els if not (g.is_identity or g.is_translation)],
        "branch": tg.branch_points(emb),
        "rep": [m.tobytes() for m in rep],
    }


class TestIntegerArithmeticMatchesFractions:
    @pytest.mark.parametrize(
        "tau", [1j, HEX_TAU, 0.31 + 1.07j, 0.2 + 1.3j, 7.3 + 0.2j], ids=lambda t: f"{t:.2f}"
    )
    def test_group_data_identical(self, tau, monkeypatch):
        new = [_group_data(e) for e in _embeddings(tau)]
        with monkeypatch.context() as m:
            # the closure, inverses, fixed points and branch orbits all run
            # on these three functions of the key kernel
            m.setattr(tg, "_rot", fraction_rot)
            m.setattr(tg, "_act", fraction_act)
            m.setattr(tg, "_fixed", fraction_fixed)
            # branch_points keeps its result per equal embedding: its body
            # must run again on the substituted kernel
            m.setattr(tg, "branch_points", tg.branch_points.__wrapped__)
            old = [_group_data(e) for e in _embeddings(tau)]
        assert len(new) == len(old) >= 184
        for a, b in zip(new, old):
            assert a == b
        # the inverse indices, once per distinct element
        pairs = {(g, d["elements"][i]) for d in new for g, i in zip(d["elements"], d["inverses"])}
        for g, g_inv in pairs:
            assert g_inv == fraction_inverse(g)

    def test_torsion_sums_with_large_denominators(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n1, n2 = (int(v) for v in rng.integers(1, 10**6 + 1, size=2))
            p = TorsionPoint(*(int(v) for v in rng.integers(0, n1, size=2)), n1)
            q = TorsionPoint(*(int(v) for v in rng.integers(0, n2, size=2)), n2)
            # the group layer adds torsion points in _act, the identity
            # matrix applied to one point with the other as shift
            pk, qk = (p.a, p.b, p.n), (q.a, q.b, q.n)
            total = tg._act(_ONE, *pk, qk)
            r = fraction_add(p, q)
            assert total == (r.a, r.b, r.n) == tg._act(_ONE, *qk, pk)
            assert tg._act(_ONE, *total, (-q.a, -q.b, q.n)) == pk


# The object path that the integer keys replaced, kept as the reference:
# the closure composed AffineAutomorphism objects through TorsionPoint
# arithmetic, branch_points acted on TorsionPoints, the invariance checks
# stacked object_inverse(g).apply(z) element by element, and the orbit points
# applied every g to 0.


def torsion_add(p: TorsionPoint, q: TorsionPoint) -> TorsionPoint:
    """p + q over lcm(n1, n2), as TorsionPoint added before the group layer
    moved onto integer keys."""
    n = lcm(p.n, q.n)
    u, v = n // p.n, n // q.n
    return TorsionPoint(p.a * u + q.a * v, p.b * u + q.b * v, n)


def torsion_neg(p: TorsionPoint) -> TorsionPoint:
    return TorsionPoint(-p.a, -p.b, p.n)


def object_compose(g: AffineAutomorphism, h: AffineAutomorphism) -> AffineAutomorphism:
    num = g.rot_num * h.rot_den + h.rot_num * g.rot_den
    den = g.rot_den * h.rot_den
    d = gcd(num, den)
    shift = torsion_add(h.shift.matrix_apply(g.rot_matrix()), g.shift)
    return AffineAutomorphism(num // d, den // d, shift, g.lattice)


def object_inverse(g: AffineAutomorphism) -> AffineAutomorphism:
    inv = AffineAutomorphism(-g.rot_num, g.rot_den, TorsionPoint.zero(), g.lattice)
    shift = torsion_neg(g.shift).matrix_apply(inv.rot_matrix())
    return AffineAutomorphism(inv.rot_num, inv.rot_den, shift, g.lattice)


def object_closure(generators: list) -> tuple:
    seen = {identity_map(generators[0].lattice)}
    products = {}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            row = products[g] = []
            for s in generators:
                h = object_compose(s, g)
                row.append(h)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    elements = tuple(sorted(seen, key=lambda g: (g.rot_den, g.rot_num, g.shift.n, g.shift.a, g.shift.b)))
    index = {g: k for k, g in enumerate(elements)}
    return elements, tuple(zip(*(tuple(index[h] for h in products[g]) for g in elements)))


def object_fixed_points(g: AffineAutomorphism) -> tuple:
    (p, q), (r, s) = g.rot_matrix()
    a11, a12, a21, a22 = p - 1, q, r, s - 1
    det = a11 * a22 - a12 * a21
    d1 = gcd(a11, a12)
    sa, sb, n = g.shift.a, g.shift.b, g.shift.n
    sols = set()
    for k1 in range(d1):
        for k2 in range(det // d1):
            x, y = k1 * n - sa, k2 * n - sb
            sols.add(TorsionPoint(a22 * x - a12 * y, a11 * y - a21 * x, det * n))
    return tuple(sorted(sols, key=lambda t: (t.n, t.a, t.b)))


def _object_orbit(emb, p: TorsionPoint) -> frozenset:
    return frozenset(torsion_add(p.matrix_apply(g.rot_matrix()), g.shift) for g in emb.elements)


def object_branch_points(emb) -> tuple:
    ramified = set()
    for g in emb.elements:
        if g.is_identity or g.is_translation:
            continue
        ramified.update(object_fixed_points(g))
    ramified -= _object_orbit(emb, TorsionPoint.zero())
    orbits = []
    while ramified:
        orb = _object_orbit(emb, next(iter(ramified)))
        ramified -= orb
        orbits.append(orb)
    orbits.sort(key=lambda o: sorted((t.n, t.a, t.b) for t in o))
    return len(orbits), tuple(orbits)


def object_preimages(emb, z: np.ndarray) -> np.ndarray:
    return np.concatenate([object_inverse(g).apply(z) for g in emb.elements])


def object_orbit_points(emb) -> tuple:
    zs = torus_reduce_centered(np.array([g.apply(0.0) for g in emb.elements]), emb.tau)
    pts = set(zs.tolist())
    return tuple(sorted(pts, key=lambda c: (round(c.real, 9), round(c.imag, 9))))


#: the moduli sweep's lattices, and the square and hexagonal lattices for
#: the rotations of order 3, 4, 6 and A4
KEY_TAUS = SWEEP_TAUS + [1j, HEX_TAU]


@cache
def _sweep_embeddings(tau: complex) -> tuple:
    """rot2, c2c2, and cn/dn for N = 1..8 at the shifts 1/N, tau/N and
    (1+tau)/N; on the square and hexagonal lattices also their catalog."""
    out = [emb for _, emb in sweep_cases(tau, range(1, 9))]
    if tau in (1j, HEX_TAU):
        out += tg.catalog(Lattice(tau), orders=(2, 3, 4, 5, 6, 7, 8))
    return tuple(out)


class TestKeysMatchObjectPath:
    """The closure, inverses, branch orbits, preimages, orbit points and
    standard_rep on integer keys equal the object path bit for bit."""

    @pytest.mark.parametrize("tau", KEY_TAUS, ids=lambda t: f"{t:.3f}")
    def test_closure_and_inverses(self, tau):
        for emb in _sweep_embeddings(tau):
            elements, table = object_closure(list(emb.generators))
            assert emb.elements == elements
            assert emb.table == table
            assert emb.keys == tuple(g.key for g in elements)
            assert emb.inverse_index == tuple(elements.index(object_inverse(g)) for g in elements)

    @pytest.mark.parametrize("tau", KEY_TAUS, ids=lambda t: f"{t:.3f}")
    def test_branch_points(self, tau):
        for emb in _sweep_embeddings(tau):
            assert branch_points(emb) == object_branch_points(emb)

    @pytest.mark.parametrize("tau", KEY_TAUS, ids=lambda t: f"{t:.3f}")
    def test_preimages_and_orbit_points(self, tau):
        rng = np.random.default_rng(3)
        z = rng.random(9) - 0.5 + (rng.random(9) - 0.5) * tau
        for emb in _sweep_embeddings(tau):
            # element 0 is the identity, whose preimages the stack leaves out
            assert emb.elements[0].is_identity
            got = normalform._preimages(SimpleNamespace(emb=emb), z)
            assert got.tobytes() == object_preimages(emb, z)[len(z):].tobytes()
            got = np.array(normalform._orbit_points(emb))
            assert got.tobytes() == np.array(object_orbit_points(emb)).tobytes()

    @pytest.mark.parametrize("tau", KEY_TAUS, ids=lambda t: f"{t:.3f}")
    def test_standard_rep(self, tau):
        for emb in _sweep_embeddings(tau):
            got = sl2rep.standard_rep(emb)
            ref = _compose_standard_rep(emb)
            assert set(ref) == set(emb.elements)
            assert [m.tobytes() for m in got] == [ref[g].tobytes() for g in emb.elements]


# standard_rep before it read the closure: the generator images extended by
# composing again on the object path.  Kept as the reference of the table walk.


def _compose_extend(emb, gen_images):
    mats = dict(gen_images)
    ident = next(g for g in emb.elements if g.is_identity)
    mats[ident] = np.eye(3, dtype=complex)
    frontier = list(mats)
    while frontier:
        nxt = []
        for g in frontier:
            for s, ms in gen_images.items():
                h = object_compose(s, g)
                m = ms @ mats[g]
                if h in mats:
                    assert np.max(np.abs(mats[h] - m)) <= 1e-10
                else:
                    mats[h] = m
                    nxt.append(h)
        frontier = nxt
    return mats


def _compose_standard_rep(emb):
    gens = emb.generators
    if emb.kind == "CN_translation" and emb.order_param == 1:
        return {emb.elements[0]: np.eye(3, dtype=complex)}
    if emb.kind == "CN_translation":
        return _compose_extend(emb, {gens[0]: sl2rep._cyclic_eigen(emb.order_param, 1)})
    if emb.kind == "Cl_rotation":
        w = cmath.exp(2j * math.pi / emb.order_param)
        return _compose_extend(emb, {gens[0]: sl2rep._diag_action(w)})
    if emb.kind == "DN":
        images = {gens[0]: sl2rep._FLIP.copy()}
        if emb.order_param > 1:
            images[gens[1]] = sl2rep._cyclic_eigen(emb.order_param, 1)
        return _compose_extend(emb, images)
    if emb.kind == "C2xC2_translation":
        return _compose_extend(emb, {gens[0]: sl2rep._R1_3, gens[1]: sl2rep._R2_3})
    return _compose_extend(
        emb, {gens[0]: sl2rep._A4_S, gens[1]: sl2rep._R1_3, gens[2]: sl2rep._R2_3}
    )


TABLE_TAUS = [1j, HEX_TAU, 0.31 + 1.07j, 0.2 + 1.3j, 7.3 + 0.2j]


def _table_embeddings(tau):
    """catalog() for orders 1 to 8, and C_N, D_N at every shift of exact order N."""
    lat = Lattice(tau)
    return _embeddings(tau) + [tg.cn_translation(lat, 1), tg.dn_group(lat, 1)]


class TestGeneratorTable:
    @pytest.mark.parametrize("tau", TABLE_TAUS, ids=lambda t: f"{t:.2f}")
    def test_rows_are_the_products(self, tau):
        for emb in _table_embeddings(tau):
            assert emb.elements[0].is_identity
            assert len(emb.table) == len(emb.generators)
            for s, row in zip(emb.generators, emb.table):
                assert [emb.elements[k] for k in row] == [fraction_compose(s, g) for g in emb.elements]

    @pytest.mark.parametrize("tau", TABLE_TAUS, ids=lambda t: f"{t:.2f}")
    def test_standard_rep_equals_the_compose_search(self, tau):
        for emb in _table_embeddings(tau):
            got = sl2rep.standard_rep(emb)
            ref = _compose_standard_rep(emb)
            assert set(ref) == set(emb.elements)
            assert [m.tobytes() for m in got] == [ref[g].tobytes() for g in emb.elements]


def _rounded_mult_matrix(num, den, tau):
    """Multiplication by exp(2 pi i num/den) on (1, tau) by rounding the
    images of 1 and tau to integer coordinates; None where a coordinate
    is more than 1e-9 from an integer."""
    eps = cmath.exp(2j * math.pi * num / den)
    cols = []
    for w in (1.0, tau):
        v = eps * w
        y = v.imag / tau.imag
        x = v.real - y * tau.real
        if abs(x - round(x)) > 1e-9 or abs(y - round(y)) > 1e-9:
            return None
        cols.append((round(x), round(y)))
    (p, q), (r, s) = cols
    return ((p, r), (q, s))


def _sl2z_images(tau, n, seed):
    """n images moebius(m, tau) of SL2(Z) matrices m with |a|, |b| <= 60."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, b = (int(v) for v in rng.integers(-60, 61, size=2))
        if gcd(a, b) != 1:
            continue
        # a d - b c = 1 by extended Euclid on (a, b)
        r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
        while r1:
            k = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - k * r1, s1, s0 - k * s1, t1, t0 - k * t1
        d, c = (s0, -t0) if r0 == 1 else (-s0, t0)
        assert a * d - b * c == 1
        out.append(moebius(((a, b), (c, d)), tau))
    return out


class TestExactRotationMatrices:
    @pytest.mark.parametrize(
        "tau, rotations",
        [(1j, [(1, 4), (3, 4), (1, 2), (0, 1)]), (HEX_TAU, [(1, 3), (2, 3), (1, 6), (5, 6), (1, 2)])],
        ids=["square", "hex"],
    )
    def test_equal_the_rounded_ones_where_those_exist(self, tau, rotations):
        agree = 0
        for t in _sl2z_images(tau, 300, seed=5):
            for num, den in rotations:
                exact = tg.mult_matrix(num, den, t)
                rounded = _rounded_mult_matrix(num, den, t)
                if rounded is not None:
                    assert exact == rounded, (t, num, den)
                    agree += 1
        assert agree >= 0.9 * 300 * len(rotations)

    def test_catalog_on_a_flat_hexagonal_basis(self):
        # the order-3 rotation's images of 1 and tau sit more than 1e-9
        # from integer coordinates here, so rounding rejected it
        tau = moebius(((-47, -40), (20, 17)), HEX_TAU)
        assert _rounded_mult_matrix(1, 3, tau) is None
        kinds = [(e.kind, e.order_param) for e in catalog(Lattice(tau))]
        assert ("Cl_rotation", 3) in kinds and ("Cl_rotation", 6) in kinds and ("A4", 3) in kinds
