import numpy as np
import pytest

from toruslie.funcalg import TorusFunction, sample_points
from toruslie.intertwine import double_cover, phi, psi
from toruslie.lattice import HEX_TAU, Lattice, TorsionPoint
from toruslie.sl2rep import ad, standard_rep
from toruslie.torusgroup import GroupEmbedding, a4_group, c2c2_translation, cn_translation
from test_sl2rep import cyclic_labels

GENERIC = complex(0.31, 1.07)
L_GEN = Lattice(GENERIC)
L_SQ = Lattice(1j)
L_HEX = Lattice(HEX_TAU)

S = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
D = np.diag([-1.0, 1.0]).astype(complex)


def probe(m: TorusFunction, n, seed, margin=0.08):
    rng = np.random.default_rng(seed)
    return sample_points(m.lattice, n, rng, avoid=m.poles, margin=margin)


def check_intertwining(
    m: TorusFunction,
    rho: np.ndarray,
    rho_tilde: np.ndarray | None,
    emb: GroupEmbedding,
    n_samples: int = 40,
    seed: int = 0,
) -> float:
    """max over samples and group elements of |M(g.z) - rho(g) M(z) rho~(g)^-1|.

    rho and rho_tilde hold the d x d images of the group elements, in the
    order of emb.elements (as standard_rep gives them); rho_tilde None
    means the trivial action on the right.
    """
    rng = np.random.default_rng(seed)
    z = sample_points(m.lattice, n_samples, rng, avoid=m.poles, margin=0.08)
    worst = 0.0
    for k, g in enumerate(emb.elements):
        left = m(g.apply(z))
        right = rho[k] @ m(z)
        if rho_tilde is not None:
            right = right @ np.linalg.inv(rho_tilde[k])
        worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


class TestPhi:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unit_determinant(self, n):
        m = phi(cn_translation(L_GEN, n), 1)
        z = probe(m, 50, 1)
        v = m(z)
        det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
        assert np.max(np.abs(det - 1)) < 1e-8

    @pytest.mark.parametrize("n", [3, 5])
    def test_translation_equivariance_odd(self, n):
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)
        assert m.meta["twist_order"] == n
        w = np.exp(2j * np.pi / n)
        dmat = np.diag([w, 1 / w])
        z = probe(m, 40, 2)
        res = np.max(np.abs(m(z + m.meta["alpha"]) - np.einsum("ab,zbc->zac", dmat, m(z))))
        assert res < 1e-8

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_translation_equivariance_even_runs_on_cover(self, n):
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)
        assert m.meta["twist_order"] == 2 * n
        w = np.exp(2j * np.pi / (2 * n))
        dmat = np.diag([w, 1 / w])
        z = probe(m, 40, 3)
        res = np.max(np.abs(m(z + m.meta["alpha"]) - np.einsum("ab,zbc->zac", dmat, m(z))))
        assert res < 1e-8

    @pytest.mark.parametrize(
        "n, j, used", [(2, 1, 1), (4, 1, 1), (4, 3, 7), (4, -1, 7), (6, 5, 11), (8, 3, 3),
                       (8, 5, 13), (5, 4, 4), (3, 2, 2)],
    )
    def test_character_representative(self, n, j, used):
        # on the order-2N cover of an even N, phi builds j + N where 2j > N
        # (j mod N): the representative nearer 0 mod 2N, with the action of j
        emb = cn_translation(L_GEN, n)
        m = phi(emb, j)
        assert m.meta["j"] == used
        w = np.exp(2j * np.pi * used / m.meta["twist_order"])
        dmat = np.diag([w, 1 / w])
        z = probe(m, 40, 3)
        res = np.max(np.abs(m(z + m.meta["alpha"]) - np.einsum("ab,zbc->zac", dmat, m(z))))
        assert res < 1e-8
        r = emb.generators[0]
        lhs, rhs = ad(m(r.apply(z))), standard_rep(emb, j)[emb.elements.index(r)] @ ad(m(z))
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flip_equivariance(self, n):
        # Phi(-z) = S Phi(z) diag(-1, 1)
        m = phi(cn_translation(L_GEN, n), 1)
        z = probe(m, 40, 4)
        lhs = m(-z)
        rhs = np.einsum("ab,zbc,cd->zad", S, m(z), D)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_kernel_invariance_even(self):
        # conjugation kills the sign of Phi(z + N alpha) on the cover
        n = 4
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)
        z = probe(m, 20, 5)
        shift = n * m.meta["alpha"]
        for zz in z[:10]:
            a1 = ad(m(zz + shift))
            a2 = ad(m(zz))
            assert np.max(np.abs(a1 - a2)) < 1e-7

    def test_ad_level_equivariance(self):
        n = 5
        emb = cn_translation(L_GEN, n)
        rep = standard_rep(emb, 1)
        m = phi(emb, 1)
        r = emb.generators[0]
        z = probe(m, 20, 6)
        for zz in z[:10]:
            lhs = ad(m(r.apply(zz)))
            rhs = rep[emb.elements.index(r)] @ ad(m(zz))
            assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            phi(cn_translation(L_GEN, 4), 4)  # 2j = 0 mod 2N
        with pytest.raises(ValueError):
            phi(cn_translation(L_GEN, 3), 3)

    def test_double_cover_case_split(self):
        # shift 1/N with odd numerator doubles the real period
        slat, (_, _, m) = double_cover(cn_translation(L_GEN, 4))
        assert m == 8
        assert abs(slat.scale - 2.0) < 1e-12 and abs(slat.tau - GENERIC / 2) < 1e-12
        # shift tau/2-type doubles the tau period
        emb = cn_translation(L_GEN, 2, TorsionPoint(0, 1, 2))
        slat, (_, _, m) = double_cover(emb)
        assert m == 4
        assert abs(slat.scale - 1.0) < 1e-12 and abs(slat.tau - 2 * GENERIC) < 1e-12

    def test_double_cover_triple_is_reduced_of_order_2n(self):
        # the cover shift is (a, 2b, 2N) or (2a, b, 2N) for the shift
        # (a + b tau)/N, already gcd-reduced, and it is the original point
        for n in (2, 4, 6, 8):
            for a in range(n):
                for b in range(n):
                    if TorsionPoint(a, b, n).n != n:
                        continue
                    slat, shift = double_cover(cn_translation(L_GEN, n, TorsionPoint(a, b, n)))
                    assert shift[2] == 2 * n
                    assert shift in ((a, 2 * b, 2 * n), (2 * a, b, 2 * n))
                    p = TorsionPoint(*shift)
                    assert (p.a, p.b, p.n) == shift
                    alpha = slat.scale * p.to_complex(slat.tau)
                    assert abs(alpha - (a + b * GENERIC) / n) < 1e-12

    def test_wrong_sign_column_breaks_determinant(self):
        # negative control: flipping the sign of the second column makes
        # det = -1, far from unimodular
        m = phi(cn_translation(L_GEN, 3), 1)

        def bad(z):
            v = m.fn(z)
            v = v.copy()
            v[..., :, 1] *= -1
            return v

        z = probe(m, 20, 7)
        v = bad(z)
        det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
        assert np.min(np.abs(det - 1)) > 0.1


class TestCheckIntertwining:
    def test_identity_function(self):
        emb = c2c2_translation(L_GEN)
        rep = standard_rep(emb)
        ident = TorusFunction(
            lambda z: np.broadcast_to(np.eye(3, dtype=complex), z.shape + (3, 3)).copy(),
            psi(emb).lattice,
            (),
            (3, 3),
        )
        res = check_intertwining(ident, rep, rep, emb, 20)
        assert res < 1e-12

    def test_phi_intertwines_cyclic_action(self):
        n = 3
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)
        w = np.exp(2j * np.pi / n)
        labels = cyclic_labels(emb)
        rho = np.array([np.diag([w ** k, w ** -k]) for k in labels], dtype=complex)
        res = check_intertwining(m, rho, None, emb, 30)
        assert res < 1e-8

    def test_negative_control(self):
        # a column sign flip commutes with the diagonal twist (it shows up
        # in the determinant instead), so the equivariance control
        # perturbs an entry additively
        n = 3
        emb = cn_translation(L_GEN, n)
        m = phi(emb, 1)

        def bad(z):
            v = m.fn(z).copy()
            v[..., 0, 1] += 0.5
            return v

        mbad = TorusFunction(bad, m.lattice, m.poles, m.shape, m.meta)
        w = np.exp(2j * np.pi / n)
        labels = cyclic_labels(emb)
        rho = np.array([np.diag([w ** k, w ** -k]) for k in labels], dtype=complex)
        res = check_intertwining(mbad, rho, None, emb, 30)
        assert res > 0.1


class TestPsi:
    @pytest.mark.parametrize("lat", [L_SQ, L_HEX, L_GEN], ids=["square", "hex", "generic"])
    def test_unit_determinant(self, lat):
        m = psi(c2c2_translation(lat))
        z = probe(m, 50, 8)
        assert np.max(np.abs(np.linalg.det(m(z)) - 1)) < 1e-8

    @pytest.mark.parametrize("lat", [L_SQ, L_HEX, L_GEN], ids=["square", "hex", "generic"])
    def test_klein_equivariance(self, lat):
        emb = c2c2_translation(lat)
        rep = standard_rep(emb)
        m = psi(emb)
        res = check_intertwining(m, rep, None, emb, 40)
        assert res < 1e-8

    def test_entries_bounded_off_divisor(self):
        m = psi(c2c2_translation(L_GEN))
        z = probe(m, 200, 9, margin=0.05)
        assert np.max(np.abs(m(z))) < 1e4

    def test_a4_h_invariance(self):
        emb = a4_group(L_HEX)
        rep = standard_rep(emb)
        m = psi(emb)
        s = emb.generators[0]
        z = probe(m, 40, 10)
        h_col = m(z)[..., :, 0]
        lhs = np.einsum("ab,zb->za", rep[emb.elements.index(s)], h_col)
        rhs = m(s.apply(z))[..., :, 0]
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            psi(cn_translation(L_GEN, 2))

    @pytest.mark.parametrize(
        "tau", [HEX_TAU, HEX_TAU + 1, -1 / HEX_TAU, HEX_TAU / (HEX_TAU + 1)],
        ids=["hex", "hex+1", "-1/hex", "hex/(hex+1)"],
    )
    def test_a4_equals_psi_of_its_klein_part(self, tau):
        # psi(A4) reads the half periods off the A4 embedding; it once built
        # the Klein group of the last two generators as an embedding of
        # its own, kept here as the reference, with bitwise equal values
        emb = a4_group(Lattice(tau))
        klein = GroupEmbedding("C2xC2_translation", 2, emb.lattice, emb.generators[1:])
        m, ref = psi(emb), psi(klein)
        assert m.poles == ref.poles
        assert m.meta == ref.meta
        z = probe(ref, 40, 11)
        assert m(z).tobytes() == ref(z).tobytes()
