from itertools import combinations
from math import gcd

import numpy as np
import pytest

from sweep import SWEEP_TAUS
from toruslie.lattice import (
    FAR_PERIODS,
    DegenerateLatticeError,
    HEX_TAU,
    Lattice,
    TorsionPoint,
    _centred,
    _coordinates,
    _hnf_2col,
    fold_far,
    moebius,
    reduce_modular,
    shortest_period,
    sublattice_vectors,
    torus_reduce_centered,
    transport_torsion,
)
from toruslie.torusgroup import _act

GENERIC = complex(0.31, 1.07)


class TestReduceModular:
    def test_already_reduced(self):
        mc = reduce_modular(1j)
        assert mc.tau_reduced == 1j
        assert mc.transform == ((1, 0), (0, 1))

    def test_unit_translation(self):
        mc = reduce_modular(1 + 1j)
        assert abs(mc.tau_reduced - 1j) < 1e-14

    def test_interior_point_needs_inversion(self):
        # (1+i)/2: translate nothing, invert to -1+i, translate to i
        mc = reduce_modular(0.5 + 0.5j)
        assert abs(mc.tau_reduced - 1j) < 1e-14
        assert mc.transform == ((1, -1), (1, 0))

    def test_hexagonal_corner_convention(self):
        # the arc representative sits on the Re >= 0 side
        mc = reduce_modular(np.exp(2j * np.pi / 3))
        assert abs(mc.tau_reduced - HEX_TAU) < 1e-12

    def test_right_edge_maps_to_left(self):
        mc = reduce_modular(0.5 + 2j)
        assert abs(mc.tau_reduced - (-0.5 + 2j)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            reduce_modular(1.0 - 2j)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tau = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
            red = reduce_modular(tau).tau_reduced
            again = reduce_modular(red).tau_reduced
            assert abs(red - again) < 1e-12

    def test_moebius_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tau = complex(rng.uniform(-5, 5), rng.uniform(0.02, 5))
            mc = reduce_modular(tau)
            assert abs(moebius(mc.transform, tau) - mc.tau_reduced) < 1e-12
            (a, b), (c, d) = mc.transform
            assert a * d - b * c == 1
            assert abs(mc.tau_reduced.real) <= 0.5 + 1e-9
            assert abs(mc.tau_reduced) >= 1 - 1e-9

    def test_equivalent_parameters_reduce_equal(self):
        rng = np.random.default_rng(2)
        tau = GENERIC
        for _ in range(30):
            # random SL2(Z) word
            m = np.eye(2, dtype=int)
            for _ in range(6):
                n = rng.integers(-3, 4)
                m = m @ np.array([[1, n], [0, 1]])
                if rng.random() < 0.5:
                    m = m @ np.array([[0, -1], [1, 0]])
            tau2 = moebius(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])), tau)
            r1 = reduce_modular(tau).tau_reduced
            r2 = reduce_modular(tau2).tau_reduced
            assert abs(r1 - r2) < 1e-9


class TestSublattice:
    def test_half_integer_generator(self):
        # {1, tau, 1/2} with tau = i: basis (1/2, i), class 2i
        w1, w2 = sublattice_vectors([(2, 0), (0, 2), (1, 0)], 2, 1j)
        assert abs(w2 / w1 - 2j) < 1e-14

    def test_index_two_superlattice(self):
        w1, w2 = sublattice_vectors([(2, 0), (0, 2), (1, 1)], 2, GENERIC)
        # contains 1, tau and (1+tau)/2
        for target in (1.0, GENERIC, (1 + GENERIC) / 2):
            # solve target = a w1 + b w2 over the integers
            mat = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
            ab = np.linalg.solve(mat, [target.real, target.imag])
            assert np.allclose(ab, np.round(ab), atol=1e-9)

    def test_membership_brute_force(self):
        # HNF basis of {1, tau, (1+2tau)/3}: every generator must be an
        # integer combination of the output basis (bounded coefficient box)
        tau = 1j
        gens = [(3, 0), (0, 3), (1, 2)]
        w1, w2 = sublattice_vectors(gens, 3, tau)
        for gx, gy in gens:
            target = (gx + gy * tau) / 3
            found = any(
                abs(a * w1 + b * w2 - target) < 1e-9
                for a in range(-6, 7)
                for b in range(-6, 7)
            )
            assert found

    def test_order_independent(self):
        tau = GENERIC
        gens = [(4, 0), (0, 4), (1, 2), (2, 3)]
        w1, w2 = sublattice_vectors(gens, 4, tau)
        base = reduce_modular(w2 / w1).tau_reduced
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = list(rng.permutation(len(gens)))
            w1, w2 = sublattice_vectors([gens[i] for i in perm], 4, tau)
            assert abs(reduce_modular(w2 / w1).tau_reduced - base) < 1e-9

    def test_rank_deficient(self):
        with pytest.raises(DegenerateLatticeError):
            sublattice_vectors([(1, 0), (2, 0)], 1, 1j)


def _random_rows(rng) -> list:
    """1-6 integer rows with entries up to +-1000, some zero, some repeated,
    some sets of rank one."""
    k = int(rng.integers(1, 7))
    bound = int(rng.choice([3, 1000]))
    rows = [tuple(int(v) for v in rng.integers(-bound, bound + 1, 2)) for _ in range(k)]
    if rng.random() < 0.2:  # rank one: multiples of the first row
        rows = [(c * rows[0][0], c * rows[0][1]) for c in rng.integers(-5, 6, k).tolist()]
    if rng.random() < 0.3:
        rows.insert(int(rng.integers(0, len(rows) + 1)), (0, 0))
    if rng.random() < 0.3:
        rows.append(rows[int(rng.integers(0, len(rows)))])
    return rows


class TestHermiteNormalForm:
    def test_random_row_sets(self):
        rng = np.random.default_rng(18)
        degenerate = 0
        for _ in range(3000):
            rows = _random_rows(rng)
            minors = 0
            for (x1, y1), (x2, y2) in combinations(rows, 2):
                minors = gcd(minors, x1 * y2 - x2 * y1)
            if minors == 0:
                degenerate += 1
                with pytest.raises(DegenerateLatticeError):
                    _hnf_2col(rows)
                continue
            (g, y), (zero, d) = _hnf_2col(rows)
            assert zero == 0 and g > 0 and d > 0 and 0 <= y < d
            # the index of the span is the gcd of the 2x2 minors ...
            assert g * d == minors
            # ... and every row lies in the span of (g, y), (0, d), so the
            # two lattices are equal
            for x, v in rows:
                assert x % g == 0 and (v - (x // g) * y) % d == 0
        assert degenerate > 100

    def test_degenerate_inputs(self):
        for rows in ([], [(0, 0)], [(0, 0), (0, 5)], [(2, 4), (-3, -6)], [(0, 3), (0, 7)]):
            with pytest.raises(DegenerateLatticeError):
                _hnf_2col(rows)


class TestTorsionPoint:
    def test_orders(self):
        assert TorsionPoint(0, 0, 1).n == 1
        assert TorsionPoint(1, 0, 2).n == 2
        assert TorsionPoint(2, 0, 4).n == 2  # reduces to (1,0,2)

    def test_normalisation(self):
        p = TorsionPoint(2, 0, 4)
        assert (p.a, p.b, p.n) == (1, 0, 2)
        q = TorsionPoint(-1, 5, 3)
        assert 0 <= q.a < q.n and 0 <= q.b < q.n

    def test_group_law(self):
        # torsion points add in the group layer's kernel: the identity
        # matrix applied to one point, with the other as the shift
        one = ((1, 0), (0, 1))
        p = (1, 0, 3)
        assert _act(one, *_act(one, *p, p), p) == (0, 0, 1)
        assert _act(one, -1, 0, 3, p) == (0, 0, 1)
        assert _act(one, 1, 2, 4, (1, 1, 6)) == (5, 8, 12)

    def test_transport_round_trip(self):
        m = ((2, -11), (1, -5))
        (a, b), (c, d) = m
        inv = ((d, -b), (-c, a))  # inverse in SL2(Z), transport composes contravariantly
        p = TorsionPoint(1, 2, 5)
        q = transport_torsion(transport_torsion(p, m), inv)
        assert q == p


@pytest.mark.parametrize(
    "tau, scale, field",
    [(1j, np.nan, "scale"), (1j, np.inf, "scale"), (1j, complex(1, np.nan), "scale"),
     (complex(np.inf) * 1j, 1.0, "tau"), (complex(np.nan, 1), 1.0, "tau"), (complex(np.inf, 1), 1.0, "tau")],
)
def test_non_finite_lattice_is_rejected(tau, scale, field):
    with pytest.raises(ValueError, match=f"lattice {field} must be finite"):
        Lattice(tau, scale)


def test_shortest_period():
    assert abs(shortest_period(1j) - 1.0) < 1e-12
    assert abs(shortest_period(2j) - 1.0) < 1e-12
    # tall thin lattice reached by tau -> tau/|tau|^2 style transforms
    assert abs(shortest_period(0.5 + 0.5j) - abs(0.5 + 0.5j)) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.6 - 0.8j], ids=["unit", "complex"])
@pytest.mark.parametrize("tau", SWEEP_TAUS, ids=lambda tau: f"{tau:.3f}")
def test_fold_leaves_no_point_far(tau, scale):
    # one pass of rounded whole periods can leave 1e17 + 0.3i more than
    # FAR_PERIODS out on 7.3+0.2i; the fold repeats until none is far
    z = np.array([1e8, 2.0 ** 50, 1e17, -1e17]) + 0.3j
    folded = fold_far(z, Lattice(tau, scale))
    w = folded if scale == 1 else folded / scale
    s, t = _coordinates(w, tau)
    assert np.max(np.maximum(np.abs(s), np.abs(t))) <= FAR_PERIODS
    # torus_reduce_centered is _centred of the same fold's coordinates; at
    # the complex scale, the folded point over (1, tau) takes no second fold
    assert np.array_equal(torus_reduce_centered(z if scale == 1 else w, tau), _centred(s, t, tau))
