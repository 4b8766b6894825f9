import cmath
import math
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from types import SimpleNamespace

import numpy as np
import pytest

from toruslie import normalform, sl2rep
from toruslie.classify import classify
from toruslie import torusgroup as tg
from toruslie.lattice import HEX_TAU, Lattice, TorsionPoint, reduce_modular, torus_reduce_centered
from toruslie.torusgroup import (
    AffineAutomorphism,
    UnsupportedEmbeddingError,
    a4_group,
    branch_points,
    c2c2_translation,
    catalog,
    cl_rotation,
    cn_translation,
    compose,
    dn_group,
    fixed_points,
    inverse,
    quotient_scaled,
)

GENERIC = complex(0.37, 1.2)
L_GEN = Lattice(GENERIC)
L_SQ = Lattice(1j)
L_HEX = Lattice(HEX_TAU)


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
                for g in emb.elements:
                    assert inverse(g) in els
                    for h in emb.generators:
                        assert compose(h, g) in els


class TestComposition:
    def test_involution_squares_to_identity(self):
        s = AffineAutomorphism(1, 2, TorsionPoint.zero(), L_GEN)
        assert compose(s, s).is_identity

    def test_commutator_of_flip_and_half_shift(self):
        # [s, r'] with s(z) = -z and r'(z) = z + alpha/2 is translation by alpha
        alpha = TorsionPoint(1, 0, 2)
        half = TorsionPoint(1, 0, 4)
        s = AffineAutomorphism(1, 2, TorsionPoint.zero(), L_GEN)
        rp = AffineAutomorphism(0, 1, half, L_GEN)
        comm = compose(compose(s, rp), compose(inverse(s), inverse(rp)))
        assert comm.is_translation
        assert comm.shift == alpha

    def test_commutators_are_translations(self):
        for lat in (L_SQ, L_HEX):
            for emb in catalog(lat):
                for g in emb.elements[:6]:
                    for h in emb.elements[:6]:
                        comm = compose(
                            compose(g, h), compose(inverse(g), inverse(h))
                        )
                        assert comm.is_translation

    def test_compose_matches_pointwise_evaluation(self):
        # exact composition against direct numeric evaluation at 20 points
        s = AffineAutomorphism(1, 3, TorsionPoint.zero(), L_HEX)
        r = AffineAutomorphism(0, 1, TorsionPoint(1, 0, 2), L_HEX)
        g = compose(s, r)
        rng = np.random.default_rng(0)
        z = rng.random(20) + HEX_TAU * rng.random(20)
        direct = s.apply(r.apply(z))
        got = g.apply(z)
        # equality on the torus: difference is a lattice vector
        diff = direct - got
        t = diff.imag / HEX_TAU.imag
        x = diff.real - t * HEX_TAU.real
        assert np.allclose(x, np.round(x), atol=1e-10)
        assert np.allclose(t, np.round(t), atol=1e-10)

    def test_lattice_mismatch(self):
        g = identity_map(L_SQ)
        h = identity_map(L_GEN)
        with pytest.raises(ValueError):
            compose(g, h)


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
            for h in emb.elements:
                conj = compose(compose(h, g), inverse(h))
                mapped = {h.act_torsion(p) for p in pts}
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


class TestTranslationSubgroup:
    """t(Gamma) and T / t(Gamma) as classify reports them."""

    def test_c2_rotation_trivial(self):
        emb = cl_rotation(L_GEN, 2)
        assert classify(emb).provenance["translation_subgroup_order"] == 1
        quot = quotient_scaled(emb)
        assert abs(reduce_modular(quot.tau).tau_reduced
                   - reduce_modular(GENERIC).tau_reduced) < 1e-9

    def test_cn_translation_full(self):
        emb = cn_translation(L_SQ, 2)
        assert classify(emb).provenance["translation_subgroup_order"] == 2
        quot = quotient_scaled(emb)
        # Lambda_(1/2) on the square lattice is homothetic to 2i
        assert abs(reduce_modular(quot.tau).tau_reduced - 2j) < 1e-9

    def test_a4_subgroup_is_klein(self):
        emb = a4_group(L_HEX)
        assert classify(emb).provenance["translation_subgroup_order"] == 4
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
        assert compose(compose(s, s), s).is_identity
        assert compose(r1, r1).is_identity
        assert compose(r2, r2).is_identity
        assert compose(compose(s, r1), inverse(s)) == compose(r1, r2)
        assert compose(compose(s, r2), inverse(s)) == r1

    def test_adapted_generators_on_shifted_basis(self):
        # same lattice class through a different basis still presents A4
        emb = a4_group(Lattice(HEX_TAU + 1))
        assert emb.order == 12
        s, r1, r2 = emb.generators
        assert compose(compose(s, r1), inverse(s)) == compose(r1, r2)


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
    shift = (-g.shift).matrix_apply(inv.rot_matrix())
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
        "rep": [rep.mats[g].tobytes() for g in els],
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
            old = [_group_data(e) for e in _embeddings(tau)]
        assert len(new) == len(old) >= 184
        for a, b in zip(new, old):
            assert a == b
        # the compose and inverse wrappers: compose is a function of the
        # pair alone, so each distinct pair of elements is checked once
        pairs = {(g, h) for d in new for g in d["elements"] for h in d["elements"]}
        assert len(pairs) >= 4000
        for g, h in pairs:
            assert compose(g, h) == fraction_compose(g, h)
        for g in {g for g, _ in pairs}:
            assert inverse(g) == fraction_inverse(g)

    def test_torsion_sums_with_large_denominators(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n1, n2 = (int(v) for v in rng.integers(1, 10**6 + 1, size=2))
            p = TorsionPoint(*(int(v) for v in rng.integers(0, n1, size=2)), n1)
            q = TorsionPoint(*(int(v) for v in rng.integers(0, n2, size=2)), n2)
            assert p + q == fraction_add(p, q) == q + p
            assert (p + q) + (-q) == p


# The object path that the integer keys replaced, kept as the reference:
# the closure composed AffineAutomorphism objects through TorsionPoint
# arithmetic, branch_points acted on TorsionPoints, the invariance checks
# stacked inverse(g).apply(z) element by element, and the orbit points
# applied every g to 0.


def object_compose(g: AffineAutomorphism, h: AffineAutomorphism) -> AffineAutomorphism:
    num = g.rot_num * h.rot_den + h.rot_num * g.rot_den
    den = g.rot_den * h.rot_den
    d = gcd(num, den)
    shift = h.shift.matrix_apply(g.rot_matrix()) + g.shift
    return AffineAutomorphism(num // d, den // d, shift, g.lattice)


def object_inverse(g: AffineAutomorphism) -> AffineAutomorphism:
    inv = AffineAutomorphism(-g.rot_num, g.rot_den, TorsionPoint.zero(), g.lattice)
    shift = (-g.shift).matrix_apply(inv.rot_matrix())
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
    return frozenset(p.matrix_apply(g.rot_matrix()) + g.shift for g in emb.elements)


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


#: the moduli sweep's lattices: random_taus(default_rng(7), 12) of
#: bench/workloads.py written out, and its four fixed lattices
SWEEP_TAUS = [
    -0.5893857908086169 + 1.2735055474703787j,
    0.39853471437602295 + 0.4601842813566953j,
    2.23396747642186 + 2.22753101665419j,
    -2.8484837865903434 + 0.8261519606790553j,
    -2.3607871939496134 + 1.7388668289443447j,
    -1.3725652061729374 + 2.827555502964597j,
    1.2225381529413237 + 1.8568694641868244j,
    0.7522741294789768 + 1.4399254913299668j,
    -1.7232513239627538 + 0.6377573610354215j,
    -0.002249858282803885 + 2.5876390409136865j,
    1.8963309596068765 + 2.397185404513006j,
    2.811089614720582 + 0.9383557638036008j,
    2.5j,
    3.5j,
    0.49 + 0.9j,
    7.3 + 0.2j,
]
#: and the square and hexagonal lattices, for the rotations of order 3, 4, 6 and A4
KEY_TAUS = SWEEP_TAUS + [1j, HEX_TAU]


@cache
def _sweep_embeddings(tau: complex) -> tuple:
    """rot2, c2c2, and cn/dn for N = 1..8 at the shifts 1/N, tau/N and
    (1+tau)/N; on the square and hexagonal lattices also their catalog."""
    lat = Lattice(tau)
    out = [tg.cl_rotation(lat, 2), tg.c2c2_translation(lat)]
    for n in range(1, 9):
        for a, b in ((1, 0), (0, 1), (1, 1)):
            shift = TorsionPoint(a, b, n)
            out += [tg.cn_translation(lat, n, shift), tg.dn_group(lat, n, shift)]
    if tau in (1j, HEX_TAU):
        out += tg.catalog(lat, orders=(2, 3, 4, 5, 6, 7, 8))
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
            got = normalform._preimages(SimpleNamespace(emb=emb), z)
            assert got.tobytes() == object_preimages(emb, z).tobytes()
            got = np.array(normalform._orbit_points(emb))
            assert got.tobytes() == np.array(object_orbit_points(emb)).tobytes()

    @pytest.mark.parametrize("tau", KEY_TAUS, ids=lambda t: f"{t:.3f}")
    def test_standard_rep(self, tau):
        for emb in _sweep_embeddings(tau):
            got = sl2rep.standard_rep(emb).mats
            ref = _compose_standard_rep(emb)
            assert list(got) == list(ref)
            assert [got[g].tobytes() for g in got] == [ref[g].tobytes() for g in ref]


# standard_rep and classify before they read the closure: the generator
# images extended by composing again on the object path, and t(Gamma) rebuilt as a group of
# its own to read its order.  Kept as the references of the table walk.


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


def _rebuilt_translation_order(emb):
    trans = [g for g in emb.elements if g.is_translation]
    if len(trans) == 1:
        return 1
    if max(t.shift.n for t in trans) == len(trans):
        gen = next(t for t in trans if t.shift.n == len(trans))
        return cn_translation(emb.lattice, len(trans), gen.shift).order
    return c2c2_translation(emb.lattice).order


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
                assert [emb.elements[k] for k in row] == [compose(s, g) for g in emb.elements]

    @pytest.mark.parametrize("tau", TABLE_TAUS, ids=lambda t: f"{t:.2f}")
    def test_standard_rep_equals_the_compose_search(self, tau):
        for emb in _table_embeddings(tau):
            got = sl2rep.standard_rep(emb).mats
            ref = _compose_standard_rep(emb)
            assert list(got) == list(ref)
            assert [got[g].tobytes() for g in got] == [ref[g].tobytes() for g in ref]

    @pytest.mark.parametrize("tau", TABLE_TAUS, ids=lambda t: f"{t:.2f}")
    def test_classify_provenance_unchanged(self, tau):
        for emb in _table_embeddings(tau):
            prov = classify(emb).provenance
            assert prov == {
                "group": emb.kind,
                "order_param": emb.order_param,
                "group_order": emb.order,
                "translation_subgroup_order": _rebuilt_translation_order(emb),
                "quotient_tau": Lattice(quotient_scaled(emb).tau).tau,
                "branch_orbits": branch_points(emb)[0],
            }
