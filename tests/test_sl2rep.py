import numpy as np
import pytest

from toruslie import sl2rep
from toruslie.lattice import HEX_TAU, Lattice
from toruslie.sl2rep import (
    B_E,
    B_F,
    B_H,
    ad,
    bracket,
    coeffs,
    from_coeffs,
    standard_rep,
)
from toruslie.torusgroup import (
    a4_group,
    c2c2_translation,
    catalog,
    cl_rotation,
    cn_translation,
    dn_group,
)

GENERIC = complex(0.37, 1.2)
L_GEN = Lattice(GENERIC)
L_HEX = Lattice(HEX_TAU)
L_SQ = Lattice(1j)
W3 = np.exp(2j * np.pi / 3)


def cyclic_labels(emb):
    """labels[k]: the exponent of elements[k] as a power of the generator of
    a cyclic embedding (C_N or C_l)."""
    row = emb.table[emb.generators.index(emb.cyclic_generator)]
    labels = [0] * emb.order
    g = 0
    for k in range(emb.order):
        labels[g] = k
        g = row[g]
    return tuple(labels)


def random_sl2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.sqrt(np.linalg.det(m))


class TestAd:
    def test_identity(self):
        assert np.allclose(ad(np.eye(2)), np.eye(3))

    def test_diag_i(self):
        assert np.allclose(ad(np.diag([1j, -1j])), np.diag([1, -1, -1]))

    def test_antidiagonal(self):
        m = np.array([[0, 1], [-1, 0]])
        expect = np.array([[-1, 0, 0], [0, 0, -1], [0, -1, 0]])
        assert np.allclose(ad(m), expect)

    def test_closed_form(self):
        rng = np.random.default_rng(0)
        m = random_sl2(rng)
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        closed = np.array(
            [[b * c + a * d, -a * c, b * d], [-2 * a * b, a * a, -b * b], [2 * c * d, -c * c, d * d]]
        )
        assert np.max(np.abs(ad(m) - closed)) < 1e-12

    def test_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m1, m2 = random_sl2(rng), random_sl2(rng)
            assert np.max(np.abs(ad(m1 @ m2) - ad(m1) @ ad(m2))) < 1e-11

    def test_preserves_bracket(self):
        rng = np.random.default_rng(2)
        m = random_sl2(rng)
        for _ in range(10):
            x = from_coeffs(rng.normal(size=3) + 1j * rng.normal(size=3))
            y = from_coeffs(rng.normal(size=3) + 1j * rng.normal(size=3))
            lhs = ad(m) @ coeffs(bracket(x, y))
            rhs = coeffs(bracket(from_coeffs(ad(m) @ coeffs(x)), from_coeffs(ad(m) @ coeffs(y))))
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_determinant_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert abs(np.linalg.det(ad(m)) - 1) < 1e-10

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            ad(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestStandardRep:
    def test_c2c2_action(self):
        emb = c2c2_translation(L_GEN)
        rep = standard_rep(emb)
        r1, r2 = (emb.elements.index(g) for g in emb.generators)
        # r1 fixes h and negates e, f
        assert np.allclose(rep[r1], np.diag([1, -1, -1]))
        assert np.allclose(rep[r2], [[-1, 0, 0], [0, 0, -1], [0, -1, 0]])

    def test_c3_rotation_diag(self):
        emb = cl_rotation(L_HEX, 3)
        rep = standard_rep(emb)
        s = emb.elements.index(emb.generators[0])
        assert np.allclose(rep[s], np.diag([1, W3, W3 ** -1]))

    def test_a4_generator_cubes_to_identity(self):
        emb = a4_group(L_HEX)
        rep = standard_rep(emb)
        u = rep[emb.elements.index(emb.generators[0])]
        assert np.max(np.abs(u @ u @ u - np.eye(3))) < 1e-10
        # quoted matrix of the order-3 generator over (h, e, f)
        expect = 0.5 * np.array([[0, -1j, 1j], [2, 1j, 1j], [2, -1j, -1j]])
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_all_catalog_reps_faithful_and_homomorphic(self):
        for lat in (L_SQ, L_HEX, L_GEN):
            for emb in catalog(lat):
                rep = standard_rep(emb)
                assert rep.shape == (emb.order, 3, 3)
                # faithful: only the identity acts trivially
                for g, m in zip(emb.elements, rep):
                    assert g.is_identity or np.max(np.abs(m - np.eye(3))) > 1e-10
                # homomorphic on the generator table: rho(s g) = rho(s) rho(g)
                for s, row in zip(emb.generators, emb.table):
                    for g, k in enumerate(row):
                        lhs = rep[k]
                        rhs = rep[emb.elements.index(s)] @ rep[g]
                        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dihedral_flip(self):
        emb = dn_group(L_GEN, 3)
        rep = standard_rep(emb)
        s = emb.elements.index(emb.generators[0])
        # conjugation by the antidiagonal flip: (h, e, f) -> (-h, f, e)
        assert np.allclose(rep[s], [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_non_coprime_character_rejected(self):
        # one check, with one message, for the three cyclic kinds
        for emb in (cn_translation(L_GEN, 4), cl_rotation(L_SQ, 4), dn_group(L_GEN, 4)):
            with pytest.raises(ValueError, match="character index 2 is not coprime to 4"):
                standard_rep(emb, 2)

    def test_images_violating_the_relations_rejected(self):
        # an order-3 image for the half-period translation r2: every
        # product that reaches an element again disagrees with its image
        emb = c2c2_translation(L_GEN)
        with pytest.raises(ValueError, match="group relations"):
            sl2rep._extend(emb, [sl2rep._R1_3, sl2rep._A4_S])
        # images that respect the relations pass the same check
        assert len(sl2rep._extend(emb, [sl2rep._R1_3, sl2rep._R2_3])) == 4


class TestIsotypical:
    def test_projectors_idempotent_and_sum_to_identity(self):
        emb = cn_translation(L_GEN, 5)
        rep = standard_rep(emb)
        labels = cyclic_labels(emb)
        w = np.exp(2j * np.pi / 5)
        total = np.zeros((3, 3), dtype=complex)
        for j in range(5):
            proj = sum(np.conj(w ** (j * k)) * rep[g] for g, k in enumerate(labels)) / 5
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10
            total += proj
        assert np.max(np.abs(total - np.eye(3))) < 1e-10


def _ad_by_products(m):
    """The conjugation ad once computed, as matrix products with the
    adjugate over the determinant: the reference of its closed form."""
    m = np.asarray(m, dtype=complex)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    minv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det
    return np.stack([coeffs(m @ b @ minv) for b in (B_H, B_E, B_F)], axis=1)


class TestBracket:
    def test_agrees_with_matrix_products(self):
        # the elementwise commutator against x @ y - y @ x on random stacks,
        # traceless and not, within 4 eps |x| |y| (Frobenius norms)
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        for traceless in (True, False):
            x = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
            y = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
            x *= 10.0 ** rng.uniform(-3, 3, size=(200, 1, 1))
            if traceless:
                x[:, 1, 1] = -x[:, 0, 0]
                y[:, 1, 1] = -y[:, 0, 0]
            norms = np.linalg.norm(x, axis=(1, 2)) * np.linalg.norm(y, axis=(1, 2))
            err = np.max(np.abs(bracket(x, y) - (x @ y - y @ x)), axis=(1, 2))
            assert np.all(err <= 4 * eps * norms)

    def test_broadcasts_and_keeps_the_basis_relations(self):
        assert np.array_equal(bracket(B_H, B_E), 2 * B_E)
        assert np.array_equal(bracket(B_H, B_F), -2 * B_F)
        assert np.array_equal(bracket(B_E, B_F), B_H)
        stack = np.stack([B_H, B_E, B_F])
        assert np.array_equal(bracket(stack, B_F), np.stack([-2 * B_F, B_H, 0 * B_F]))


class TestAdClosedForm:
    def test_stacked_equals_per_matrix_bitwise(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 50, 2, 2)) + 1j * rng.normal(size=(4, 50, 2, 2))
        stacked = ad(m)
        assert stacked.shape == (4, 50, 3, 3)
        for idx in np.ndindex(4, 50):
            assert ad(m[idx]).tobytes() == stacked[idx].tobytes()

    def test_agrees_with_matrix_products(self):
        # entries are quadratic in m over det m: the two routes differ by
        # at most 64 eps * max|m_ij|^2 / |det m| (21 eps seen over these)
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for _ in range(500):
            m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 10.0 ** rng.uniform(-3, 3)
            det = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            bound = 64 * eps * np.max(np.abs(m)) ** 2 / det
            assert np.max(np.abs(ad(m) - _ad_by_products(m))) <= bound

    def test_group_constants_unchanged(self):
        from toruslie import sl2rep

        generators = {
            "_FLIP": [[0, 1], [1, 0]],
            "_R1_3": [[1j, 0], [0, -1j]],
            "_R2_3": [[0, 1], [-1, 0]],
            "_A4_S": 0.5 * np.array([[1 + 1j, -1 + 1j], [1 + 1j, 1 - 1j]]),
        }
        for name, m in generators.items():
            assert np.array_equal(getattr(sl2rep, name), _ad_by_products(m)), name

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="singular"):
            ad(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(ValueError, match="singular"):
            ad(np.zeros((2, 2)))
