import dataclasses
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from toruslie import elliptic, normalform
from toruslie.elliptic import half_period_values, invariants, wp_both
from toruslie.classify import BRACKET_TOL, FIT_TOL, INVARIANCE_TOL, cross_validate
from toruslie.funcalg import FitError, InvariantRing, WPoly, _p_stack, c2c2_constants_for, sample_points
from toruslie.intertwine import psi
from toruslie.lattice import HEX_TAU, Lattice, TorsionPoint, transport_torsion
from toruslie.normalform import (
    BRACKET_SAMPLES,
    abelianization_dim,
    check_triple,
    exact_structure_polynomial,
    invariance_residual,
    normal_form,
    structure_polynomial,
    verify_brackets,
)
from toruslie.sl2rep import bracket, standard_rep
from toruslie.torusgroup import (
    a4_group,
    branch_points,
    c2c2_translation,
    catalog,
    cl_rotation,
    cn_translation,
    dn_group,
)
from test_elliptic import FAR_TAUS, _oracle, check_far_values
from test_sl2rep import coeffs, cyclic_labels

GENERIC = complex(0.31, 1.07)
L_GEN = Lattice(GENERIC)
L_SQ = Lattice(1j)
L_HEX = Lattice(HEX_TAU)
LATTICES = [L_SQ, L_HEX, L_GEN]


def probe_points(gens, n, seed, margin=0.2):
    rng = np.random.default_rng(seed)
    return sample_points(Lattice(gens.emb.tau), n, rng, avoid=gens.poles, margin=margin)


def fit_residual(gens, poly):
    """The relative residual of [E, F] against H times the fitted p at the
    bracket probes of check_triple(seed=0), as ef_exact reads the exact p."""
    z = normalform._probe(gens.emb, BRACKET_SAMPLES, 1)
    e, f, h = normalform._frames(gens, z)
    # a p = 1 row reads no ring values, and its fitted p is a constant
    x = 0.0 if gens.ring_wp is None else gens.ring.from_wp(*gens.ring_wp(z))
    return normalform._relative_residual(bracket(e, f), poly(x), h)


class TestConstructions:
    def test_c2_rotation_bracket_is_the_cubic(self):
        lat = L_SQ
        inv = invariants(lat)
        gens = normal_form(cl_rotation(lat, 2))
        z = probe_points(gens, 40, 0)
        e, f, h = gens.E.fn(z), gens.F.fn(z), gens.H.fn(z)
        comm = e @ f - f @ e
        w = wp_both(z, lat)[0]
        cubic = 4 * w ** 3 - inv.g2 * w - inv.g3
        assert np.max(np.abs(comm - cubic[..., None, None] * h)) < 1e-7

    def test_c3_rotation_bracket_is_wp_cubed(self):
        gens = normal_form(cl_rotation(L_HEX, 3))
        z = probe_points(gens, 40, 1, margin=0.25)
        e, f, h = gens.E.fn(z), gens.F.fn(z), gens.H.fn(z)
        comm = e @ f - f @ e
        w = wp_both(z, L_HEX)[0]
        assert np.max(np.abs(comm - (w ** 3)[..., None, None] * h)) < 1e-7

    def test_c3_translation_flat_brackets(self):
        gens = normal_form(cn_translation(L_GEN, 3, TorsionPoint(1, 0, 3)))
        z = probe_points(gens, 40, 2, margin=0.15)
        e, f, h = gens.E.fn(z), gens.F.fn(z), gens.H.fn(z)
        assert np.max(np.abs(e @ f - f @ e - h)) < 1e-7
        assert np.max(np.abs(h @ e - e @ h - 2 * e)) < 1e-7

    def test_base_triple_is_exact(self):
        gens = normal_form(cn_translation(L_GEN, 1))
        rep = verify_brackets(gens, BRACKET_SAMPLES, 1)
        assert max(rep["he"], rep["hf"], rep["ef"]) == 0.0

    def test_cn_matches_explicit_displays(self):
        # the conjugated frames agree with their closed forms in the P's
        from toruslie.funcalg import p_system
        from toruslie.intertwine import phi

        n = 5
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)
        lam, mu = m.meta["lam"], m.meta["mu"]
        ps = p_system(emb)
        gens = normal_form(emb, j=1)
        rng = np.random.default_rng(3)
        z = sample_points(ps.lattice, 20, rng, avoid=ps.orbit, margin=0.12)
        vals = ps.values(z, (1, 4, 2, 3))
        pj, pmj, p2j, pm2j = vals[1], vals[4], vals[2], vals[3]
        e = gens.E.fn(z)
        assert np.max(np.abs(e[..., 0, 0] + pmj * pj)) < 1e-8
        assert np.max(np.abs(e[..., 0, 1] - pmj ** 2)) < 1e-8
        assert np.max(np.abs(e[..., 1, 0] + pj ** 2)) < 1e-8
        h = gens.H.fn(z)
        h11 = (pmj ** 2 * p2j + pm2j * pj ** 2) / mu
        h12 = (-2 * pmj * pj * pm2j - lam * pmj ** 2) / mu
        h21 = (2 * pmj * pj * p2j - lam * pj ** 2) / mu
        assert np.max(np.abs(h[..., 0, 0] - h11)) < 1e-7
        assert np.max(np.abs(h[..., 0, 1] - h12)) < 1e-7
        assert np.max(np.abs(h[..., 1, 0] - h21)) < 1e-7
        f = gens.F.fn(z)
        f11 = (4 * pmj * pj * pm2j * p2j + lam ** 2 * pmj * pj + 2 * lam * mu) / (4 * mu ** 2)
        assert np.max(np.abs(f[..., 0, 0] - f11)) < 1e-7


class TestBracketsAcrossCatalog:
    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_all_cases(self, lat):
        for emb in catalog(lat):
            gens = normal_form(emb)
            poly = structure_polynomial(gens)
            rep = verify_brackets(gens, BRACKET_SAMPLES, 1)
            assert rep["he"] < 1e-7, emb.kind
            assert rep["hf"] < 1e-7, emb.kind
            assert rep["ef"] < 1e-7, emb.kind
            assert fit_residual(gens, poly) < 1e-6, emb.kind
            assert rep["ef_exact"] < 1e-6, emb.kind
            assert rep["trace"] < 1e-10, emb.kind

    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_invariance(self, lat):
        for emb in catalog(lat):
            gens = normal_form(emb)
            assert invariance_residual(gens, 40, 2) < 1e-8, (emb.kind, emb.order_param)

    def test_negative_control_perturbed_f(self):
        gens = normal_form(cn_translation(L_GEN, 3))
        poly = structure_polynomial(gens)
        f0 = gens.F.fn
        gens.F.fn = lambda z: 1.01 * f0(z)
        rep = verify_brackets(gens, BRACKET_SAMPLES, 1)
        assert fit_residual(gens, poly) > 1e-3
        assert rep["ef_exact"] > 1e-3


class TestPeriodicity:
    # entries of the generators are quasi-periodic under the invariant
    # lattice (the shift acts by conjugation with the constant twist
    # matrix); plain periodicity holds for the original lattice, which is
    # nontrivial for the even orders built on a double cover

    def test_entries_have_original_periods_even_order(self):
        emb = cn_translation(L_GEN, 4)
        gens = normal_form(emb)
        z = probe_points(gens, 20, 4, margin=0.15)
        for m in (gens.E, gens.F, gens.H):
            v = m.fn(z)
            assert np.max(np.abs(m.fn(z + 1.0) - v)) < 1e-8
            assert np.max(np.abs(m.fn(z + GENERIC) - v)) < 1e-8

    def test_cn_shift_acts_by_constant_conjugation(self):
        n = 3
        emb = cn_translation(L_GEN, n)
        gens = normal_form(emb)
        z = probe_points(gens, 20, 5, margin=0.15)
        w = np.exp(2j * np.pi / n)
        d = np.diag([w, 1 / w]).astype(complex)
        dinv = np.diag([1 / w, w]).astype(complex)
        for m in (gens.E, gens.F, gens.H):
            lhs = m.fn(z + 1.0 / n)
            rhs = np.einsum("ab,zbc,cd->zad", d, m.fn(z), dinv)
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_klein_half_shift_acts_by_constant_conjugation(self):
        emb = c2c2_translation(L_GEN)
        gens = normal_form(emb)
        z = probe_points(gens, 20, 6, margin=0.15)
        r1 = np.diag([1j, -1j]).astype(complex)
        for m in (gens.E, gens.F, gens.H):
            lhs = m.fn(z + 0.5)
            rhs = np.einsum("ab,zbc,cd->zad", r1, m.fn(z), np.linalg.inv(r1))
            assert np.max(np.abs(lhs - rhs)) < 1e-8
            # full periods of the original lattice act trivially
            assert np.max(np.abs(m.fn(z + 1.0) - m.fn(z))) < 1e-8


class TestStructurePolynomial:
    def test_cn_constant_one(self):
        for n in (1, 2, 3, 5):
            gens = normal_form(cn_translation(L_GEN, n))
            w = structure_polynomial(gens)
            assert len(w.a) == 1
            assert abs(w.a[0] - 1.0) < 1e-8

    def test_klein_constant_one(self):
        w = structure_polynomial(normal_form(c2c2_translation(L_GEN)))
        assert len(w.a) == 1 and abs(w.a[0] - 1.0) < 1e-8

    def test_dn_cubic_matches_ring_invariants(self):
        gens = normal_form(dn_group(L_GEN, 3))
        w = structure_polynomial(gens)
        ring_inv = invariants(gens.ring.lattice)
        expect = np.array([-ring_inv.g3, -ring_inv.g2, 0.0, 4.0])
        got = np.array(list(w.a) + [0] * (4 - len(w.a)))
        assert np.max(np.abs(got - expect)) < 1e-6 * np.max(np.abs(expect))

    def test_c4_quadratic_in_wp_squared(self):
        # wp (wp')^2 = 4 u^2 - g2 u with u = wp^2 on the square lattice
        gens = normal_form(cl_rotation(L_SQ, 4))
        w = structure_polynomial(gens)
        inv = invariants(L_SQ)
        got = np.array(list(w.a) + [0] * (3 - len(w.a)))
        expect = np.array([0.0, -inv.g2, 4.0])
        assert np.max(np.abs(got - expect)) < 1e-6 * np.max(np.abs(expect))

    def test_c3_quadratic_in_wp_prime(self):
        gens = normal_form(cl_rotation(L_HEX, 3))
        w = structure_polynomial(gens)
        inv = invariants(L_HEX)
        got = np.array(list(w.a) + [0] * (3 - len(w.a)))
        expect = np.array([inv.g3 / 4, 0.0, 0.25])
        assert np.max(np.abs(got - expect)) < 1e-6

    def test_rotation_monomials_rederived_by_projection(self):
        # the tabulated generator factors live in the advertised
        # isotypical components of the function algebra
        emb = cl_rotation(L_HEX, 3)
        slat = Lattice(HEX_TAU)
        rng = np.random.default_rng(6)
        z = sample_points(slat, 30, rng, avoid=(0j,), margin=0.1)
        w = np.exp(2j * np.pi / 3)

        def project(chi):
            # (1/|G|) sum conj(chi(g)) wp(g^-1 z) with chi(r^k) = w^(chi k)
            els, inv = emb.elements, emb.inverse_index
            return sum(
                np.conj(w ** (chi * k)) * wp_both(els[inv[g]].apply(z), slat)[0]
                for g, k in enumerate(cyclic_labels(emb))
            ) / 3

        # e-factor wp sits in chi_2 = chi_{l-1}; untouched by that projector
        assert np.max(np.abs(project(2) - wp_both(z, slat)[0])) < 1e-9
        assert np.max(np.abs(project(0))) < 1e-9


class TestAbelianization:
    """The root count of the exact structure polynomial; no fit runs."""

    def test_translations_give_zero(self):
        for emb in (cn_translation(L_GEN, 4), c2c2_translation(L_GEN)):
            gens = normal_form(emb)
            assert abelianization_dim(gens) == 0

    def test_c3_rotation_two_roots(self):
        gens = normal_form(cl_rotation(L_HEX, 3))
        assert abelianization_dim(gens) == 2

    def test_dn_three_roots(self):
        gens = normal_form(dn_group(L_GEN, 4))
        assert abelianization_dim(gens) == 3

    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_matches_branch_count_across_catalog(self, lat):
        for emb in catalog(lat):
            gens = normal_form(emb)
            assert abelianization_dim(gens) == branch_points(emb)[0], emb.kind

    def test_d6_square_is_tolerance_limited(self):
        # the quotient lattice of D6 on the square torus is so elongated
        # that |e2 - e3| lies far below 1e-6 of the roots' size, where a
        # count of fitted roots could not separate them; the exact cubic's
        # discriminant is nonzero, so the count is exactly 3
        gens = normal_form(dn_group(L_SQ, 6))
        e1, e2, e3 = half_period_values(gens.ring.lattice)
        gap = abs(e2 - e3)
        scale = max(abs(e1), abs(e2), abs(e3))
        assert 0 < gap < 1e-6 * scale
        assert abs(invariants(gens.ring.lattice).discriminant) > 1.0
        assert abelianization_dim(gens) == 3


def _hex_image(m):
    (a, b), (c, d) = m
    return (a * HEX_TAU + b) / (c * HEX_TAU + d)


W3 = np.exp(2j * np.pi / 3)

# eleven SL2(Z) images of the hexagonal parameter, each a basis of the
# same lattice with its own labelling of the half periods
HEX_BASES = [
    ("shifted", HEX_TAU + 1),
    ("left-corner", np.exp(2j * np.pi / 3)),
    ("moebius", (2 * HEX_TAU + 1) / (HEX_TAU + 1)),
    ("canonical", HEX_TAU),
    ("plus-two", _hex_image(((1, 2), (0, 1)))),
    ("minus-two", _hex_image(((1, -2), (0, 1)))),
    ("st", _hex_image(((0, -1), (1, 1)))),
    ("lower", _hex_image(((1, 0), (1, 1)))),
    ("lower-two", _hex_image(((1, 0), (2, 1)))),
    ("narrow", _hex_image(((1, 1), (1, 2)))),
    ("flat", _hex_image(((1, 2), (1, 3)))),
]
FLAT_DEFECT = (
    "flat basis (w+2)/(w+3): ef 6.3e-7 above 1e-7 at frame_scale 4.9e5, "
    "the conditioning defect of skewed lattices"
)


#: the Weyl element: conjugation by it swaps e and f and negates h
WEYL = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestRotationWeylImage:
    """Rotations take character index 1 only.  Every faithful index of C_l,
    l in {2, 3, 4, 6}, is +-1 mod l, and the action at -1 is the action at 1
    conjugated by the Weyl element: the normal form at -1 is the Weyl image
    of the one at 1, the same row with fe and ff swapped, with the same p."""

    @pytest.mark.parametrize(
        "lat, ell", [(L_SQ, 2), (L_SQ, 4), (L_HEX, 2), (L_HEX, 3), (L_HEX, 6)],
        ids=["sq-rot2", "sq-rot4", "hex-rot2", "hex-rot3", "hex-rot6"],
    )
    def test_weyl_image_is_invariant_at_index_minus_one(self, lat, ell):
        emb = cl_rotation(lat, ell)
        gens = normal_form(emb)

        def weyl(x, sign=1.0):
            return dataclasses.replace(x, fn=lambda z: sign * (WEYL @ x.fn(z) @ WEYL))

        # (ff e, fe f, h): E and F trade places, and -Ad(w) h = h
        image = dataclasses.replace(
            gens, E=weyl(gens.F), F=weyl(gens.E), H=weyl(gens.H, -1.0), rep=standard_rep(emb, ell - 1)
        )
        brackets, inv = check_triple(image)
        assert inv < max(INVARIANCE_TOL, 1e-11 * brackets["frame_scale"])
        assert max(brackets["he"], brackets["hf"], brackets["ef"]) < BRACKET_TOL
        assert brackets["ef_exact"] < FIT_TOL
        if ell > 2:  # index -1 is another character: the image is not invariant at 1
            assert check_triple(dataclasses.replace(image, rep=standard_rep(emb, 1)))[1] > 1e-3


class TestNonCanonicalBases:
    @pytest.mark.parametrize(
        "tau",
        [
            pytest.param(
                tau,
                id=name,
                marks=[pytest.mark.xfail(strict=True, reason=FLAT_DEFECT)] if name == "flat" else [],
            )
            for name, tau in HEX_BASES
        ],
    )
    def test_a4_works_on_any_hexagonal_basis(self, tau):
        # the half-period labels permute with the basis; the adapted
        # generators and shift-matched constants must compensate
        cv = cross_validate(a4_group(Lattice(tau)))
        br = cv.bracket_residuals
        assert max(br["he"], br["hf"], br["ef"]) < 1e-7
        assert cv.invariance < 1e-8
        assert cv.abel_dim == 2
        assert cv.passed

    @pytest.mark.parametrize("tau", [t for _, t in HEX_BASES], ids=[n for n, _ in HEX_BASES])
    def test_a4_choices_forced_by_group(self, tau):
        # r2 := r1 (s r1 s^-1) fixes how s permutes the half periods, so
        # the shift-matched constants need no sign flip and the e-column
        # always picks up w^2 under s (the normal form pairs it with wp^2)
        emb = a4_group(Lattice(tau))
        s = emb.generators[0]
        k = emb.elements.index(s)
        rho_s = standard_rep(emb)[k]
        m = psi(emb)
        z = sample_points(m.lattice, 6, np.random.default_rng(0), avoid=m.poles, margin=0.15)
        at_z = m(z)
        h_moved = np.einsum("ab,zb->za", rho_s, at_z[..., :, 0])
        assert np.max(np.abs(h_moved - m(s.apply(z))[..., :, 0])) < 1e-8
        pulled = np.einsum("ab,zbc->zac", rho_s, m(emb.elements[emb.inverse_index[k]].apply(z)))
        scale = max(1.0, float(np.max(np.abs(at_z))))
        assert np.max(np.abs(pulled[..., :, 1] - W3 ** 2 * at_z[..., :, 1])) < 1e-6 * scale
        assert np.max(np.abs(pulled[..., :, 2] - W3 * at_z[..., :, 2])) < 1e-6 * scale


class TestCaseTable:
    """normal_form reads one _CASES row per case."""

    def test_every_catalog_case_has_one_row(self):
        from toruslie.normalform import _CASES, _case

        used = set()
        for lat in LATTICES:
            for emb in catalog(lat, orders=(1, 2, 3, 4, 5, 6)):
                row = _case(emb)
                keys = [k for k, v in _CASES.items() if v is row]
                assert len(keys) == 1, (emb.kind, emb.order_param)
                used.add(keys[0])
        assert used == set(_CASES)
        assert _case(cn_translation(L_GEN, 1)) is _CASES["CN_translation"]

    @pytest.mark.parametrize(
        "tau",
        [1j, HEX_TAU] + [t for _, t in HEX_BASES],
        ids=["square", "hexagonal"] + [n for n, _ in HEX_BASES],
    )
    def test_rotation_ring_lattice_is_the_lattice(self, tau):
        # the rotation rows put their wp factors on quotient_scaled(emb)
        from toruslie.torusgroup import quotient_scaled

        rotations = [e for e in catalog(Lattice(tau)) if e.kind == "Cl_rotation"]
        assert len(rotations) >= 2
        for emb in rotations:
            got = quotient_scaled(emb)
            assert got == Lattice(emb.tau)
            assert np.array([got.tau, got.scale]).tobytes() == np.array([emb.tau, 1.0]).tobytes()


class TestHomothety:
    def test_structure_roots_transform_under_basis_change(self):
        # equivalent bases of the same lattice: the extracted cubics are
        # related by x -> m^2 x with m the homothety factor
        m = ((1, -1), (1, 0))
        (a, b), (c, d) = m
        tau2 = (a * GENERIC + b) / (c * GENERIC + d)
        factor = 1.0 / (c * GENERIC + d)  # Lambda_tau2 = factor * Lambda_tau

        shift1 = TorsionPoint(1, 1, 2)
        shift2 = transport_torsion(shift1, m)
        g1 = normal_form(dn_group(Lattice(GENERIC), 2, shift1))
        g2 = normal_form(dn_group(Lattice(tau2), 2, shift2))
        w1 = structure_polynomial(g1)
        w2 = structure_polynomial(g2)
        r1 = np.sort_complex(np.roots(np.array(w1.a[::-1], dtype=complex)))
        r2 = np.sort_complex(np.roots(np.array(w2.a[::-1], dtype=complex)))
        # roots scale by factor^-2
        scaled = np.sort_complex(r1 / factor ** 2)
        assert np.max(np.abs(scaled - r2)) < 1e-6 * np.max(np.abs(r2))


class TestAdPhiFrames:
    """C_N and D_N frames are the columns (h, e, f) of ad(Phi)."""

    @pytest.mark.parametrize("make", [cn_translation, dn_group], ids=["cn", "dn"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_frames_are_columns_of_ad_phi(self, make, n):
        from toruslie.sl2rep import ad, from_coeffs

        gens = normal_form(make(L_GEN, n))
        z = probe_points(gens, 30, 4)
        cols = ad(gens.intertwiner(z))
        factor = 1.0 if gens.ring_wp is None else gens.ring_wp(z)[1][..., None, None]
        h = from_coeffs(cols[..., :, 0])
        e = factor * from_coeffs(cols[..., :, 1])
        f = factor * from_coeffs(cols[..., :, 2])
        for got, want in ((gens.H.fn(z), h), (gens.E.fn(z), e), (gens.F.fn(z), f)):
            assert got.tobytes() == want.tobytes()
            assert np.all(np.trace(got, axis1=-2, axis2=-1) == 0)


def _psi_reference(emb, z):
    """Psi at z by its entries as written out one by one: each product
    formed where it is used, none shared."""
    stack, _ = _p_stack(emb)
    cc = c2c2_constants_for(emb)
    k = cc.sqrt_a2b2
    a1a, b1b = cc.A1 / cc.alpha1, cc.B1 / cc.beta1
    A1, B1 = cc.A1, cc.B1
    v0, v1, v2 = stack(z)
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


class TestPsiFrames:
    """C2xC2 and A4 frames are the columns (h, e, f) of Psi, as the
    twin of TestAdPhiFrames, byte for byte against the references."""

    @pytest.mark.parametrize("emb", [
        pytest.param(emb, id=f"{name}-{emb.kind}")
        for name, lat in (("square", L_SQ), ("hex", L_HEX), ("generic", L_GEN))
        for emb in catalog(lat) if emb.kind in ("C2xC2_translation", "A4")
    ])
    def test_frames_are_columns_of_psi(self, emb):
        from toruslie.sl2rep import from_coeffs

        gens = normal_form(emb)
        z = probe_points(gens, 30, 4)
        m = _psi_reference(emb, z)
        assert gens.intertwiner.fn(z).tobytes() == m.tobytes()
        # the frames as (n, 3, 2, 2), column c at [..., c, :, :]
        frames = from_coeffs(np.swapaxes(m, -1, -2))
        h, e, f = (frames[..., c, :, :] for c in range(3))
        if gens.ring_wp is not None:  # A4: wp^2 e and wp f of the half lattice
            x = gens.ring_wp(z)[0]
            e, f = (x ** 2)[..., None, None] * e, x[..., None, None] * f
        for got, want in ((gens.H.fn(z), h), (gens.E.fn(z), e), (gens.F.fn(z), f)):
            assert got.tobytes() == want.tobytes()
            assert np.all(np.trace(got, axis1=-2, axis2=-1) == 0)


# every catalog case of the three lattices, the trivial C_1 and D_1 included
CATALOG_CASES = [
    emb for lat in LATTICES for emb in catalog(lat, orders=(1, 2, 3, 4, 5))
]


def _case_id(emb):
    return f"{emb.kind}-{emb.order_param}-{emb.tau}"


class TestOneFrameEvaluation:
    """E, F and H are columns of one frame evaluation under one memo."""

    @pytest.mark.parametrize("emb", CATALOG_CASES, ids=_case_id)
    def test_one_frame_evaluation_per_point_array(self, emb, monkeypatch, count_wp_calls):
        gens = normal_form(emb)
        frame_calls = []
        if gens.intertwiner is not None:
            fn = gens.intertwiner.fn
            gens.intertwiner.fn = lambda z: frame_calls.append(len(z)) or fn(z)
        calls = count_wp_calls(monkeypatch)
        z = probe_points(gens, 7, 5)
        for m in (gens.E, gens.F, gens.H):
            m.fn(z)
        # one wp_both call for Psi's frame (Phi's theta quotients make
        # none), one for the ring's (wp, wp') where the row has factors of
        # e and f
        wp_frames = emb.kind in ("C2xC2_translation", "A4")
        assert len(calls) == wp_frames + (gens.ring_wp is not None)
        assert frame_calls == ([7] if gens.intertwiner is not None else [])
        if gens.ring_wp is not None:
            gens.ring_wp(z)
        gens.H.fn(z.copy())
        assert len(calls) == wp_frames + (gens.ring_wp is not None)

    @pytest.mark.parametrize("emb", CATALOG_CASES, ids=_case_id)
    def test_writing_into_a_result_changes_no_later_call(self, emb):
        gens = normal_form(emb)
        z = probe_points(gens, 5, 6)
        ms = (gens.E, gens.F, gens.H)
        before = [m.fn(z).tobytes() for m in ms]
        for m in ms:
            m.fn(z)[...] = np.nan
        assert [m.fn(z).tobytes() for m in ms] == before

    @pytest.mark.parametrize(
        "emb",
        [cn_translation(L_GEN, 3), dn_group(L_SQ, 4), cl_rotation(L_HEX, 6),
         c2c2_translation(L_GEN), a4_group(L_HEX)],
        ids=_case_id,
    )
    def test_wrapped_evaluators_see_every_evaluation(self, emb):
        # bench/spans.py and verify --perturb-f wrap or replace E.fn, F.fn,
        # H.fn and the intertwiner's fn after normal_form returns
        gens = normal_form(emb)
        seen = {}

        def wrap(name, fn):
            def wrapper(z):
                seen.setdefault(name, []).append(len(z))
                return fn(z)

            return wrapper

        for name in "EFH":
            m = getattr(gens, name)
            m.fn = wrap(name, m.fn)
        if gens.intertwiner is not None:
            gens.intertwiner.fn = wrap("intertwiner", gens.intertwiner.fn)
        check_triple(gens)
        n = seen["H"][0]
        expect = {name: [n] for name in "EFH"}
        if gens.intertwiner is not None:
            expect["intertwiner"] = [n]
        assert seen == expect


def _catalog_params(lattices):
    """One param per catalog case of each (name, lattice), id "name-KindN"."""
    return [
        pytest.param(emb, id=f"{name}-{emb.kind}{emb.order_param}")
        for name, lat in lattices
        for emb in catalog(lat)
    ]


THREE_CATALOGS = [("square", L_SQ), ("hex", L_HEX), ("generic", L_GEN)]


class TestExactStructurePolynomial:
    @pytest.mark.parametrize(
        "emb", _catalog_params(THREE_CATALOGS + [(n, Lattice(t)) for n, t in HEX_BASES])
    )
    def test_equals_the_product_of_the_factors(self, emb):
        # pointwise on the ring lattice, with no fit: fe ff against the
        # row's p in the ring variable, relative to p's absolute terms
        gens = normal_form(emb)
        case = normalform._case(emb)
        ring = gens.ring
        z = sample_points(ring.lattice, 40, np.random.default_rng(0), avoid=(0j,), margin=0.1)
        wp, wpp = wp_both(z, ring.lattice)
        product = 1.0 if case.fe is None else case.fe(wp, wpp) * case.ff(wp, wpp)
        x = ring.from_wp(wp, wpp)
        p = exact_structure_polynomial(gens)
        scale = WPoly(tuple(abs(c) for c in p.a))(np.abs(x)).real
        assert np.max(np.abs(product - p(x)) / scale) < 1e-12
        assert abelianization_dim(gens) == branch_points(emb)[0]

    @pytest.mark.parametrize("emb", _catalog_params(THREE_CATALOGS))
    def test_fitted_coefficients_match_at_seed_0(self, emb):
        gens = normal_form(emb)
        fit = structure_polynomial(gens)
        exact = exact_structure_polynomial(gens)
        n = max(len(fit.a), len(exact.a))
        got, want = (np.array(list(w.a) + [0.0] * (n - len(w.a))) for w in (fit, exact))
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("emb", _catalog_params(THREE_CATALOGS))
    def test_case_row_is_consistent(self, emb):
        # the exact p fixes the fit's degree and so its row counts; exactly
        # the p = 1 rows have no factors, so they read no ring values and
        # fit one column on 11 rows, held out on 12
        from toruslie.funcalg import _fit_shape

        gens = normal_form(emb)
        case = normalform._case(emb)
        exact = exact_structure_polynomial(gens)
        degree = len(exact.a) - 1
        is_one = exact.a == (1.0,)
        assert (case.fe is None) == (case.ff is None) == is_one == (gens.ring_wp is None)
        z = normalform._fit_rows(gens, 0)
        assert len(z) == sum(_fit_shape(degree))
        if is_one:
            assert _fit_shape(degree) == (11, 12)

    @pytest.mark.parametrize(
        "emb", _catalog_params(THREE_CATALOGS + [(n, Lattice(t)) for n, t in HEX_BASES])
    )
    def test_fit_is_zero_where_the_exact_p_is(self, emb):
        # the monomials the exact p lacks (x^2 of the cubic, y of
        # (y^2 + g3)/4, u^0 of 4u^2 - g2 u and 4u^2 - g3 u) are never fitted
        gens = normal_form(emb)
        fit = structure_polynomial(gens)
        exact = exact_structure_polynomial(gens)
        assert len(fit.a) == len(exact.a)
        assert [c == 0 for c in fit.a] == [c == 0 for c in exact.a]


class _Poly:
    """An exact polynomial in x, y, g2 and g3: exponents (x, y, g2, g3) -> Fraction."""

    def __init__(self, terms=()):
        self.terms = {k: v for k, v in dict(terms).items() if v != 0}

    @staticmethod
    def of(v):
        return v if isinstance(v, _Poly) else _Poly({(0, 0, 0, 0): Fraction(v)})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in _Poly.of(other).terms.items():
            terms[k] = terms.get(k, 0) + v
        return _Poly(terms)

    def __mul__(self, other):
        terms = {}
        for a, u in self.terms.items():
            for b, v in _Poly.of(other).terms.items():
                k = tuple(i + j for i, j in zip(a, b))
                terms[k] = terms.get(k, 0) + u * v
        return _Poly(terms)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -_Poly.of(other)
    __truediv__ = lambda self, c: self * (1 / Fraction(c))
    __pow__ = lambda self, n: _Poly.of(1) if n == 0 else self * self ** (n - 1)
    __eq__ = lambda self, other: self.terms == _Poly.of(other).terms

    def at(self, vanishing):
        """self with the invariant at exponent index vanishing (None: none) set to 0."""
        return _Poly({k: v for k, v in self.terms.items() if vanishing is None or not k[vanishing]})

    def mod_curve(self):
        """self reduced to degree < 2 in y modulo y^2 = 4x^3 - g2 x - g3."""
        return sum((_Poly({(a, b % 2, c, d): v}) * CURVE ** (b // 2)
                    for (a, b, c, d), v in self.terms.items()), _Poly())


X, Y, G2, G3 = (_Poly({tuple(int(i == k) for i in range(4)): 1}) for k in range(4))
CURVE = 4 * X ** 3 - G2 * X - G3
#: the exponent index of the invariant that every ring lattice of a ring
#: variable has 0: g2 where an order-3 or order-6 symmetry acts (wp', wp^3),
#: g3 where an order-4 one does (wp^2)
VANISHING = {"wp": None, "wp_prime": 2, "wp2": 3, "wp3": 2}


def _discriminant(c):
    """The discriminant of sum c[i] t^i, of degree 2 or 3."""
    if len(c) == 3:
        return c[1] ** 2 - 4 * c[2] * c[0]
    d, c1, b, a = c
    return b ** 2 * c1 ** 2 - 4 * a * c1 ** 3 - 4 * b ** 3 * d - 27 * a ** 2 * d ** 2 + 18 * a * b * c1 * d


def _is_power_multiple(p, base):
    """p = r base^k for a rational r != 0 and some k in 1..3."""
    for k in (1, 2, 3):
        b = base ** k
        key = next(iter(b.terms))
        r = p.terms.get(key, 0) / b.terms[key]
        if r and p == b * r:
            return True
    return False


def row_defects(row) -> list:
    """Which exact claims of a _CASES row fail, with g2 and g3 symbolic:
    p(ring variable) = fe ff modulo the curve, with the row's vanishing
    invariant set to 0, and p's discriminant a nonzero rational multiple
    of a power of the lattice discriminant or of the surviving invariant,
    so that p's roots are distinct on every lattice the row admits."""
    vanishing = VANISHING[row.var]
    coeff = [_Poly.of(c) for c in row.p(types.SimpleNamespace(g2=G2, g3=G3))]
    u = InvariantRing(L_SQ, row.var).from_wp(X, Y)
    p = sum((c * u ** i for i, c in enumerate(coeff)), _Poly())
    product = _Poly.of(1) if row.fe is None else row.fe(X, Y) * row.ff(X, Y)
    defects = []
    if (product - p).mod_curve().at(vanishing) != 0:
        defects.append("fe ff != p")
    if coeff[-1].at(vanishing).terms.keys() != {(0, 0, 0, 0)}:
        defects.append("leading coefficient not a nonzero constant")
    elif len(coeff) > 1:
        # on a lattice with g2 = 0 (g3 = 0), Delta vanishes only with g3 (g2)
        bases = ((G2 ** 3 - 27 * G3 ** 2).at(vanishing),) + {2: (G3,), 3: (G2,)}.get(vanishing, ())
        if not any(_is_power_multiple(_discriminant(coeff).at(vanishing), b) for b in bases):
            defects.append("discriminant may vanish")
    return defects


#: mutations of _CASES rows that the exact proof must reject: (row key, the
#: fields changed, from the table)
ROW_MUTATIONS = {
    "dn-leading-coefficient-doubled": ("DN", lambda rows: {"p": lambda inv: (-inv.g3, -inv.g2, 0.0, 8.0)}),
    "rot3-given-rot2-cubic": (("Cl_rotation", 3), lambda rows: {"p": rows[("Cl_rotation", 2)].p}),
    "rot3-spurious-y3": (("Cl_rotation", 3), lambda rows: {"p": lambda inv: (inv.g3 / 4, 0.0, 0.25, 1.0)}),
    "rot4-ff-x": (("Cl_rotation", 4), lambda rows: {"ff": lambda x, y: x}),
}


class TestExactRows:
    """Each _CASES row's exact p, proven once on exact polynomials."""

    @pytest.mark.parametrize("key", list(normalform._CASES), ids=str)
    def test_p_is_fe_ff_with_distinct_roots(self, key):
        assert row_defects(normalform._CASES[key]) == []

    @pytest.mark.parametrize("name", list(ROW_MUTATIONS))
    def test_a_mutated_row_fails(self, name):
        key, change = ROW_MUTATIONS[name]
        rows = normalform._CASES
        assert row_defects(rows[key]._replace(**change(rows))) != []

    @pytest.mark.parametrize("tau", [1j, HEX_TAU, GENERIC, 0.2 + 1.3j])
    def test_the_vanishing_invariant_is_0_on_every_ring_lattice(self, tau):
        # VANISHING's claim, read off the ring lattices the catalog builds
        for emb in catalog(Lattice(tau), orders=(1, 2, 3, 4, 5, 6)):
            vanishing = VANISHING[normalform._case(emb).var]
            if vanishing is not None:
                inv = invariants(normal_form(emb).ring.lattice)
                g, weight = (inv.g2, 3) if vanishing == 2 else (inv.g3, 2)
                assert abs(g) ** weight < 1e-24 * abs(inv.discriminant), (emb.kind, emb.order_param)


class TestExactPAtTheProbes:
    """The check path reads p as fe ff of the memo's (wp, wp'); it takes
    no invariant of the ring lattice and evaluates no row's p."""

    @pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
    def test_dn_on_the_square_lattice_matches_the_oracle(self, n):
        # the ring lattice is Lattice(n i, 1/n); p at the bracket probes is
        # wp'^2 there, against 30-digit theta functions
        pytest.importorskip("mpmath")
        gens = normal_form(dn_group(L_SQ, n))
        z = normalform._probe(gens.emb, 8, 1)
        p = normalform._exact_p(gens, gens.ring_wp(z))
        ring = gens.ring.lattice
        s = complex(ring.scale)
        want = np.array([(_oracle().wp_pair(complex(v) / s, ring.tau)[1] / s ** 3) ** 2 for v in z])
        assert np.max(np.abs(p - want) / np.abs(want)) < 1e-12

    def test_check_triple_takes_no_invariants(self, monkeypatch):
        calls = []
        original = elliptic.invariants
        for name, module in list(sys.modules.items()):
            if name.startswith("toruslie") and vars(module).get("invariants") is original:
                monkeypatch.setattr(module, "invariants", lambda *a: calls.append(a) or original(*a))
        for emb in CATALOG_CASES:
            gens = normal_form(emb)
            check_triple(gens)
            verify_brackets(gens, 20, 4)
        assert calls == []

    def test_cross_validate_evaluates_p_once(self, monkeypatch):
        calls = []
        rows = normalform._CASES
        for key, row in list(rows.items()):
            monkeypatch.setitem(rows, key, row._replace(p=lambda inv, p=row.p: calls.append(1) or p(inv)))
        for emb in CATALOG_CASES:
            calls.clear()
            cross_validate(emb)
            assert len(calls) == 1, _case_id(emb)


def per_generator_bracket_residuals(gens, frames, wp):
    """_bracket_residuals as it ran one relation and one generator at a
    time, with p the row's fe ff at the ring's (wp, wp') rows wp (1 where
    wp is None): the reference the stacked pass must equal bit for bit."""
    e, f, h = frames
    case = normalform._case(gens.emb)
    p = 1.0 if wp is None else case.fe(*wp) * case.ff(*wp)
    he = bracket(h, e) - 2.0 * e
    hf = bracket(h, f) + 2.0 * f
    comm = bracket(e, f)
    ef = comm - normalform._h_projection(comm, h)[..., None, None] * h
    return {
        "he": float(np.max(np.abs(he))),
        "hf": float(np.max(np.abs(hf))),
        "ef": float(np.max(np.abs(ef))),
        "ef_exact": normalform._relative_residual(comm, p, h),
        "trace": max(float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1)))) for m in frames),
        "frame_scale": max(float(np.max(np.abs(m))) for m in frames),
    }


def per_generator_invariance(gens, frames, start, n):
    """_invariance as it ran one generator at a time."""
    r = gens.rep[1:]
    mid, end = start + n, start + n * (1 + len(r))
    worst = 0.0
    for m in frames:
        v = coeffs(m[mid:end]).reshape(len(r), n, 3)
        pulled = np.einsum("gab,gzb->gza", r, v)
        worst = max(worst, float(np.max(np.abs(pulled - coeffs(m[start:mid])), initial=0.0)))
    return worst


class TestStackedChecks:
    """check_triple's stacked bracket and invariance passes equal the
    per-generator ones bit for bit."""

    @pytest.mark.parametrize(
        "emb",
        _catalog_params(THREE_CATALOGS)
        + [pytest.param(build(Lattice(2.5j), n), id=f"tall-{build.__name__}{n}")
           for build in (cn_translation, dn_group) for n in (7, 8)],
    )
    def test_equal_the_per_generator_checks(self, emb):
        gens = normal_form(emb)
        for seed in (0, 3, 11):
            z_br = normalform._probe(gens.emb, BRACKET_SAMPLES, seed + 1)
            z_inv = normalform._probe(gens.emb, 40, seed + 2)
            z = np.concatenate([z_br, z_inv, normalform._preimages(gens, z_inv)])
            frames = [m.fn(z) for m in (gens.E, gens.F, gens.H)]
            b = len(z_br)
            wp = None if gens.ring_wp is None else [v[:b] for v in gens.ring_wp(z)]
            want = (
                per_generator_bracket_residuals(gens, [m[:b] for m in frames], wp),
                per_generator_invariance(gens, frames, b, len(z_inv)),
            )
            assert repr(check_triple(gens, seed=seed)) == repr(want)

    @pytest.mark.parametrize("emb", _catalog_params(THREE_CATALOGS))
    def test_equal_the_two_checks_at_any_probe_count(self, emb):
        # max(20, 2n // 3) invariance probes: 20 at n = 20, 26 at 40, 60 at 90
        gens = normal_form(emb)
        for n, seed in ((20, 5), (40, 7), (90, 0)):
            want = (verify_brackets(gens, n, seed + 1),
                    invariance_residual(gens, max(20, 2 * n // 3), seed + 2))
            assert repr(check_triple(gens, n, seed=seed)) == repr(want)

    @pytest.mark.parametrize("emb", _catalog_params(THREE_CATALOGS))
    def test_a_fit_leaves_the_checks_as_they_were(self, emb):
        # structure_polynomial returns its fit and attaches nothing that a
        # later check reads
        gens = normal_form(emb)
        before = repr(check_triple(gens, seed=3))
        structure_polynomial(gens)
        assert repr(check_triple(gens, seed=3)) == before


class TestProbeCache:
    """A check's probes are drawn once per equal embedding, probe count and
    seed; the frames and residuals run on every call."""

    @staticmethod
    def _count_draws(monkeypatch) -> list:
        """The probe counts of the sample_points calls made from here on."""
        calls = []
        original = normalform.sample_points

        def counting(lattice, n, *args, **kwargs):
            calls.append(n)
            return original(lattice, n, *args, **kwargs)

        monkeypatch.setattr(normalform, "sample_points", counting)
        return calls

    @pytest.mark.parametrize("build", [cn_translation, dn_group])
    def test_a_rebuilt_embedding_draws_nothing(self, monkeypatch, build):
        normalform._probe.cache_clear()
        calls = self._count_draws(monkeypatch)
        first = cross_validate(build(L_GEN, 5), seed=4)
        assert calls == [BRACKET_SAMPLES, 40]
        second = cross_validate(build(Lattice(GENERIC), 5), seed=4)
        assert calls == [BRACKET_SAMPLES, 40]
        assert repr(second) == repr(first)

    def test_a_new_seed_or_count_draws_again(self, monkeypatch):
        normalform._probe.cache_clear()
        gens = normal_form(cn_translation(L_SQ, 3))
        check_triple(gens, seed=0)
        calls = self._count_draws(monkeypatch)
        check_triple(gens, seed=0)
        assert calls == []
        # seed 1 draws the brackets' 60 from seed 2, which only the 40
        # invariance probes of seed 0 were drawn from
        check_triple(gens, seed=1)
        assert calls == [BRACKET_SAMPLES, 40]
        check_triple(gens, 45, seed=0)
        assert calls == [BRACKET_SAMPLES, 40, 45, 30]

    def test_the_cached_draw_is_read_only(self):
        z = normalform._probe(c2c2_translation(L_HEX), 20, 0)
        assert normalform._probe(c2c2_translation(Lattice(HEX_TAU)), 20, 0) is z
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_a_draw_that_raises_is_not_kept(self, monkeypatch):
        gens = normal_form(cn_translation(L_SQ, 3))
        want = verify_brackets(gens, 45, 0)
        normalform._probe.cache_clear()

        def starving(*args, **kwargs):
            raise FitError("no sampling margin admits points away from the pole orbit")

        with monkeypatch.context() as m:
            m.setattr(normalform, "sample_points", starving)
            with pytest.raises(FitError):
                verify_brackets(gens, 45, 0)
        calls = self._count_draws(monkeypatch)
        assert verify_brackets(gens, 45, 0) == want
        assert calls == [45]


class TestFarPoints:
    """E, F and H at a point many periods out equal their values in the
    cell bit for bit: the point moves in by whole periods, subtracted from
    z itself, before anything is added to it."""

    Z = 0.25 + 0.375j

    @pytest.mark.parametrize("emb", _catalog_params(THREE_CATALOGS))
    def test_frames(self, emb):
        # Z + 2**k stays exact up to k = 50, and Z + 2**k tau up to k = 40
        far = np.concatenate([self.Z + 2.0 ** np.arange(4, 51), self.Z + 2.0 ** np.arange(4, 41) * emb.tau])
        gens = normal_form(emb)
        for m in (gens.E, gens.F, gens.H):
            want = m(np.array([self.Z]))
            assert np.all(np.isfinite(want))
            assert m(far).tobytes() == np.repeat(want, len(far), axis=0).tobytes()

    @pytest.mark.parametrize(
        "emb", _catalog_params([(n, Lattice(t)) for n, t in zip(("flat", "skewed"), FAR_TAUS)])
    )
    def test_frames_on_a_basis_far_from_reduced(self, emb):
        gens = normal_form(emb)
        # on 7.3+0.2i the c2c2 frames' pole tau/2 lies 0.05 from the folded
        # 0.3i, where a shift of the point by 1e-15 alone moves F by 1.4e-13
        flat_c2c2 = emb.kind == "C2xC2_translation" and emb.tau == FAR_TAUS[0]
        for m in (gens.E, gens.F, gens.H):
            check_far_values(m, m.lattice, rtol=2e-13 if flat_c2c2 else 1e-13)
