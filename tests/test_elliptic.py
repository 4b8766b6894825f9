import importlib.util
import tracemalloc
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from toruslie import elliptic
from toruslie.elliptic import (
    half_period_values,
    invariants,
    j_invariant,
    scale_check,
    wp,
    wp_both,
)
from toruslie.lattice import HEX_TAU, Lattice, fold_far, reduce_modular, torus_reduce_centered
from sweep import SWEEP_TAUS

GENERIC = complex(0.31, 1.07)
LATTICES = [Lattice(1j), Lattice(HEX_TAU), Lattice(GENERIC)]
BATCH_TAUS = [1j, HEX_TAU, GENERIC, 0.2 + 2.5j, -2.3 + 0.4j]
# seeded lattices across the moduli space, tall, flat and skewed ones,
# and the three test lattices
_RNG = np.random.default_rng(7)
ORACLE_TAUS = [
    complex(x, y) for x, y in zip(_RNG.uniform(-3.0, 3.0, 16), _RNG.uniform(0.25, 3.0, 16))
] + [2.5j, 3.5j, 0.49 + 0.9j, 7.3 + 0.2j, 1j, HEX_TAU, GENERIC]
ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"

# frozen value of the truncated defining sum 60 * sum (a+bi)^-4 over
# 0 < max(|a|,|b|) <= 300, computed with the oracle below
G2_I_TRUNCATED = 189.072498645905


@cache
def _oracle():
    """The benchmark's theta-function oracle, loaded from its file."""
    spec = importlib.util.spec_from_file_location("wp_oracle", ORACLE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _horner(c, t):
    """sum_k c[k-1] t^k, k = 1..len(c), by Horner's rule out of place."""
    acc = c[-1] * t
    for ck in c[-2::-1]:
        acc = (acc + ck) * t
    return acc


def lattice_sum_g2(tau, cutoff):
    a = np.arange(-cutoff, cutoff + 1)
    ax, bx = np.meshgrid(a, a)
    om = (ax + bx * tau).ravel()
    om = om[np.abs(om) > 1e-12]
    return 60.0 * np.sum(om ** -4.0)


def invariants_route_e(lat):
    """e1, e2, e3 by the route invariants took while they were its fields:
    wp at (1/2, tau/2, (1 + tau)/2) of Lattice(tau), as Python complex
    numbers, divided by scale^2 off scale 1."""
    tau = lat.tau
    half = np.array([0.5, tau / 2.0, (1.0 + tau) / 2.0])
    e1, e2, e3 = (complex(v) for v in wp(half, Lattice(tau)))
    s = lat.scale
    if s == 1:
        return e1, e2, e3
    return e1 / s ** 2, e2 / s ** 2, e3 / s ** 2


#: bases far from reduced, a flat and a skewed one, and offsets that are
#: periods of both
FAR_TAUS = [7.3 + 0.2j, -2.85 + 0.83j]
FAR_OFFSETS = np.array([1e8, 1e12, 2.0 ** 50, 1e17, -1e17])


def check_far_values(f, lattice, z0=0.3j, rtol=1e-13):
    """f at z0 + FAR_OFFSETS against f at the near point fold_far(z0): bit
    for bit where a far point folds onto that same float, and within rtol
    of the near value's largest entry elsewhere.  f maps an array of points
    to an array with the points on its first axis."""
    near = fold_far(np.array([z0]), lattice)
    far = z0 + FAR_OFFSETS
    exact = fold_far(far, lattice) == near
    want, got = f(near), f(far)
    assert np.all(np.isfinite(want))
    assert got[exact].tobytes() == np.repeat(want, exact.sum(), axis=0).tobytes()
    err = np.abs(got - want).reshape(len(far), -1).max(axis=1) / np.abs(want).max()
    assert np.all(err <= rtol), err


def sample_cell(tau, n, seed, margin=0.12):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.random(), 0) + tau * rng.random()
        d = min(abs(z - (m + k * tau)) for m in (-1, 0, 1, 2) for k in (-1, 0, 1, 2))
        if d > margin:
            pts.append(z)
    return np.array(pts)


class TestInvariants:
    def test_square_lattice_g3_vanishes(self):
        assert abs(invariants(Lattice(1j)).g3) < 1e-10

    def test_hexagonal_g2_vanishes(self):
        assert abs(invariants(Lattice(HEX_TAU)).g2) < 1e-10

    def test_g2_against_lattice_sum_oracle(self):
        got = invariants(Lattice(1j)).g2
        assert abs(got - G2_I_TRUNCATED) / abs(got) < 1e-5
        # frozen value matches a fresh (cheaper) truncation direction too
        assert abs(lattice_sum_g2(1j, 120) - got) / abs(got) < 1e-4

    @pytest.mark.parametrize("tau", ORACLE_TAUS, ids=lambda t: f"{t:.3f}")
    def test_against_theta_function_oracle(self, tau):
        # e_i are the oracle's wp at the half periods; g2 = 2 sum e_i^2,
        # g3 = 4 e1 e2 e3 and Delta = 16 prod (e_i - e_j)^2 are formed from
        # them at 30 digits.  Each error is relative to max(|value|, e_max^w)
        # with w the weight (1 for e_i, 2, 3 and 6), like the wp oracle's
        # conditioning.  Worst over the 23 lattices: 6.5e-15, Delta at
        # 0.31+1.07i; e_i at most 4.7e-16, g2 1.5e-15, g3 4.1e-16.
        mpmath = pytest.importorskip("mpmath")
        halves = (0.5, tau / 2.0, (1.0 + tau) / 2.0)
        e = [_oracle().wp_pair(h, tau)[0] for h in halves]
        e_max = max(abs(v) for v in e)
        with mpmath.workdps(_oracle().DIGITS):
            e1, e2, e3 = (mpmath.mpc(v.real, v.imag) for v in e)
            ref = {
                "e1": (e1, 1),
                "e2": (e2, 1),
                "e3": (e3, 1),
                "g2": (2 * (e1 ** 2 + e2 ** 2 + e3 ** 2), 2),
                "g3": (4 * e1 * e2 * e3, 3),
                "discriminant": (16 * ((e1 - e2) * (e1 - e3) * (e2 - e3)) ** 2, 6),
            }
            ref = {k: (complex(v), w) for k, (v, w) in ref.items()}
        inv = invariants(Lattice(tau))
        got = dict(zip(("e1", "e2", "e3"), half_period_values(Lattice(tau))),
                   g2=inv.g2, g3=inv.g3, discriminant=inv.discriminant)
        for name, (want, w) in ref.items():
            err = abs(got[name] - want) / max(abs(want), e_max ** w)
            assert err <= 5e-14, name

    def test_invariants_make_no_wp_call(self, monkeypatch, count_wp_calls):
        # g2, g3, the discriminant and j are arithmetic on the reduced cell
        calls = count_wp_calls(monkeypatch)
        elliptic._cell.cache_clear()
        for tau in ORACLE_TAUS:
            for s in (1, 0.6 - 0.8j):
                invariants(Lattice(tau, s))
        assert calls == []
        half_period_values(Lattice(GENERIC))
        assert len(calls) == 1

    @pytest.mark.parametrize("scale", [1, 2.0, 0.6 - 0.8j, 0.5j])
    def test_half_period_values_are_the_invariants_route(self, scale):
        for tau in ORACLE_TAUS + SWEEP_TAUS:
            lat = Lattice(tau, scale)
            got = np.array(half_period_values(lat))
            assert got.tobytes() == np.array(invariants_route_e(lat)).tobytes(), tau

    def test_half_period_symmetric_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
            inv = invariants(Lattice(tau))
            e1, e2, e3 = half_period_values(Lattice(tau))
            assert abs(e1 + e2 + e3) < 1e-10
            s2 = e1 * e2 + e1 * e3 + e2 * e3
            assert abs(s2 + inv.g2 / 4) < 1e-9
            assert abs(e1 * e2 * e3 - inv.g3 / 4) < 1e-9
            assert abs(inv.discriminant) > 1e-6

    def test_discriminant_product_form_matches_subtraction(self):
        # the stored discriminant comes from the q-product; it must agree
        # with g2^3 - 27 g3^2 wherever the subtraction is well conditioned
        for tau in (1j, HEX_TAU, GENERIC, 0.5 + 2j):
            inv = invariants(Lattice(tau))
            direct = inv.g2 ** 3 - 27.0 * inv.g3 ** 2
            assert abs(inv.discriminant - direct) < 1e-9 * max(
                abs(inv.g2) ** 3, 27 * abs(inv.g3) ** 2, 1.0
            )

    def test_j_accurate_on_elongated_lattices(self):
        # j grows like exp(2 pi Im tau); the product-form discriminant
        # keeps it at full relative precision where the subtraction loses
        # most digits
        j1 = j_invariant(6j)
        j2 = j_invariant(-1.0 / 6j)  # equivalent class
        assert abs(j1 - j2) < 1e-10 * abs(j1)

    def test_j_is_taken_on_the_reduced_cell(self):
        # j is a class function: every basis and scale of a lattice gives
        # the j of its reduced representative, bit for bit
        for tau in SWEEP_TAUS:
            reduced = np.complex128(invariants(Lattice(reduce_modular(tau).tau_reduced)).j)
            for s in (1, 0.6 - 0.8j):
                got = np.complex128(invariants(Lattice(tau, s)).j)
                assert got.tobytes() == reduced.tobytes(), (tau, s)

    def test_j_special_values(self):
        assert abs(j_invariant(1j) - 1728.0) < 1e-8
        assert abs(j_invariant(2j) - 287496.0) < 1e-6  # 66^3
        assert abs(j_invariant(HEX_TAU)) < 1e-20

    def test_j_modular_invariance(self):
        for m in (((1, 3), (0, 1)), ((0, -1), (1, 0)), ((2, -11), (1, -5))):
            (a, b), (c, d) = m
            tau2 = (a * GENERIC + b) / (c * GENERIC + d)
            j1, j2 = j_invariant(GENERIC), j_invariant(tau2)
            assert abs(j1 - j2) <= 1e-8 * max(1.0, abs(j1))

    def test_homothety_scaling(self):
        inv = invariants(Lattice(GENERIC))
        for alpha in (2.0, 0.5j, 1.3 - 0.4j):
            s = invariants(Lattice(GENERIC, alpha))
            assert abs(s.g2 - inv.g2 / alpha ** 4) <= 1e-8 * abs(inv.g2)
            assert abs(s.g3 - inv.g3 / alpha ** 6) <= 1e-8 * abs(inv.g3)

    @pytest.mark.parametrize("tau", [8j, 12j])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_scaled_discriminant_on_tall_lattices(self, tau, scale):
        # g2^3 - 27 g3^2 cancels to 0 here; the eta-product value survives
        inv = invariants(Lattice(tau))
        s = invariants(Lattice(tau, scale))
        assert s.discriminant != 0
        expect = inv.discriminant / scale ** 12
        assert abs(s.discriminant - expect) <= 1e-12 * abs(expect)
        assert abs(1728.0 * s.g2 ** 3 / s.discriminant - inv.j) <= 1e-9 * abs(inv.j)

    # reduced Im tau 114: j overflows; 1000 (tau = 1e-3 i): the discriminant underflows
    @pytest.mark.parametrize("tau", [114j, 1e-3j])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_past_the_float64_range_raises(self, tau, scale):
        with pytest.raises(ValueError, match="about 113"):
            invariants(Lattice(tau, scale))


class TestWeierstrass:
    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_differential_equation(self, lat):
        inv = invariants(lat)
        z = sample_cell(lat.tau, 100, 7, margin=0.15)
        w, wq = wp_both(z, lat)
        res = np.abs(wq ** 2 - (4 * w ** 3 - inv.g2 * w - inv.g3))
        assert np.max(res) < 1e-8

    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_parity(self, lat):
        z = sample_cell(lat.tau, 50, 8)
        assert np.max(np.abs(wp(z, lat) - wp(-z, lat))) < 1e-9
        assert np.max(np.abs(wp_both(z, lat)[1] + wp_both(-z, lat)[1])) < 1e-9

    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_double_periodicity(self, lat):
        z = sample_cell(lat.tau, 100, 9)
        a = wp(z, lat)
        assert np.max(np.abs(wp(z + 1, lat) - a)) < 1e-9
        assert np.max(np.abs(wp(z + lat.tau, lat) - a)) < 1e-9

    @pytest.mark.parametrize("tau, z0, offsets", [
        (HEX_TAU, 0.3j, [1e17, -1e17, 2.0 ** 50, 1e8, -1e8]),
        # 2**k tau + z0 stops being exact at k = 50, where the sum rounds
        # the 0.375 itself
        (GENERIC, 0.25 + 0.375j,
         [2.0 ** k for k in range(4, 51)] + [2.0 ** k * GENERIC for k in range(4, 50)]),
    ], ids=["hex", "generic"])
    def test_far_points_keep_their_digits(self, tau, z0, offsets):
        # wp_both called directly moves a far point in by whole periods
        # subtracted from z itself, so it gives the near point's value bit
        # for bit; a reduction of s = Re z - t Re(tau) alone loses them
        lat = Lattice(tau)
        w, wq = wp_both(z0 + np.array(offsets), lat)
        w0, wq0 = wp_both(z0, lat)
        assert np.array_equal(w, np.full(w.shape, w0)) and np.array_equal(wq, np.full(wq.shape, wq0))

    @pytest.mark.parametrize("tau", FAR_TAUS, ids=["flat", "skewed"])
    def test_far_points_on_a_basis_far_from_reduced(self, tau):
        # the fold subtracts the periods of s before those of t, and wp_both
        # folds on the caller's basis before it divides by the reduced
        # basis' first period: a far point keeps its place on the torus
        lat = Lattice(tau)
        check_far_values(lambda z: np.stack(wp_both(z, lat), axis=-1), lat)
        w0 = np.array(wp_both(0.3j, lat))
        w = np.array(wp_both(0.3j + FAR_OFFSETS, lat))
        assert np.max(np.abs(w - w0[:, None])) <= 1e-13 * np.max(np.abs(w0))

    def test_square_lattice_quarter_turn(self):
        lat = Lattice(1j)
        e1, e2, _ = half_period_values(lat)
        # multiplication by i negates wp: e2 = -e1, e3 = 0, wp((1+i)/2) = 0
        assert abs(wp(0.5j, lat) + wp(0.5, lat)) < 1e-10
        assert abs(wp((1 + 1j) / 2, lat)) < 1e-10
        assert abs(e2 + e1) < 1e-10
        z = sample_cell(1j, 30, 10)
        assert np.max(np.abs(wp(z / 1j, lat) + wp(z, lat))) < 1e-9

    def test_hexagonal_sixth_turn(self):
        lat = Lattice(HEX_TAU)
        w6 = np.exp(1j * np.pi / 3)
        z = sample_cell(HEX_TAU, 30, 11)
        assert np.max(np.abs(wp(z / w6, lat) - w6 ** 2 * wp(z, lat))) < 1e-9
        assert np.max(np.abs(wp_both(z / w6, lat)[1] + wp_both(z, lat)[1])) < 1e-9

    @pytest.mark.parametrize("lat", LATTICES, ids=["square", "hex", "generic"])
    def test_derivative_vanishes_at_half_periods(self, lat):
        tau = lat.tau
        for h in (0.5, tau / 2, (1 + tau) / 2):
            assert abs(wp_both(h, lat)[1]) < 1e-8

    def test_any_input_shape(self):
        lat = Lattice(1j)
        z = np.full((2, 3), 0.1 + 0.2j)
        z[1] += np.array([0.3, 0.2j, 0.4 + 0.1j])
        w, wq = wp_both(z, lat)
        assert w.shape == wq.shape == (2, 3)
        w1, wq1 = wp_both(z.ravel(), lat)
        assert np.array_equal(w.ravel(), w1)
        assert np.array_equal(wq.ravel(), wq1)

    def test_series_matches_out_of_place_reference(self):
        # the kernel runs the split series in place on one scratch array;
        # the same formula written out of place is the reference, equal bit
        # for bit.  The kernel it replaced, Horner's rule on the unsplit
        # series, is a second reference at roundoff level, conditioned like
        # the oracle: relative to max(|value|, e_max) (e_max^1.5 for wp')
        for tau in ORACLE_TAUS + [0.2 + 2.5j]:
            cell = elliptic._cell(tau)
            zc = torus_reduce_centered(sample_cell(cell.tau_r, 300, 5), cell.tau_r)
            got = np.empty((2, zc.size), dtype=complex)
            elliptic._wp_series(zc, cell, got)
            ref = _ref_wp_series(zc, cell)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()
            assert _unsplit_error(got, _unsplit_wp_series(zc, cell), tau) <= 2e-15

    @pytest.mark.parametrize("tau", BATCH_TAUS, ids=lambda t: f"{t:.2f}")
    def test_values_do_not_depend_on_the_batch(self, tau):
        # a point's value is the same alone, in a one-point array, in a
        # small window and in the full batch, bit for bit
        lat = Lattice(tau)
        z = sample_cell(tau, 200, 17)
        w, wq = wp_both(z, lat)
        for i, zi in enumerate(z):
            assert wp_both(complex(zi), lat) == (w[i], wq[i])
            w1, wq1 = wp_both(z[i:i + 1], lat)
            assert w1.tobytes() == w[i:i + 1].tobytes()
            assert wq1.tobytes() == wq[i:i + 1].tobytes()
        for i in range(len(z) - 6):
            w7, wq7 = wp_both(z[i:i + 7], lat)
            assert w7.tobytes() == w[i:i + 7].tobytes()
            assert wq7.tobytes() == wq[i:i + 7].tobytes()

    def test_large_batch_peak_memory(self):
        # the series keeps 13 rows of scratch per block, no K x Z terms:
        # 10k points peak near 1.5 MB (the exp form peaked near 13 MB)
        lat = Lattice(HEX_TAU)
        rng = np.random.default_rng(29)
        z = rng.random(10_000) + HEX_TAU * rng.random(10_000)
        wp_both(z[:2], lat)  # series data of the lattice cached
        tracemalloc.start()
        try:
            wp_both(z, lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6

    @pytest.mark.parametrize("tau", ORACLE_TAUS, ids=lambda t: f"{t:.3f}")
    def test_against_theta_function_oracle(self, tau):
        # 30-digit wp and wp' through Jacobi theta functions (mpmath);
        # errors conditioned on max(|value|, e_max) as in the benchmark
        pytest.importorskip("mpmath")
        z = sample_cell(tau, 12, 23)
        ref = _oracle().Reference(tau, z)
        assert ref.error(*wp_both(z, Lattice(tau))) <= 2.5e-13

    def test_pole_signal(self):
        lat = Lattice(GENERIC)
        assert np.isinf(wp(0.0, lat).real)
        assert np.isinf(wp(3 + 2 * GENERIC, lat).real)

    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.7 - 0.4j])
    def test_lattice_points_of_a_scaled_lattice(self, scale):
        # the cover lattice 2 (Z + Z tau/2) = 2Z + Z tau at scale 2; any
        # warning of an inf / scale division fails the test
        lat = Lattice(GENERIC / 2, scale)
        pts = scale * np.array([0.0, 1.0, GENERIC / 2, -3.0 + GENERIC])
        w, wq = wp_both(pts, lat)
        for v in (*w, *wq, *wp_both(complex(pts[1]), lat)):
            assert v == complex(np.inf, 0.0)  # inf+nanj compares unequal
        assert np.all(np.isfinite(wp_both(scale * 0.5, lat)))

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize(
        "bad", [float("nan"), complex(np.inf, 0.0), complex(np.nan, 1.0)], ids=["nan", "inf", "nan+1j"]
    )
    def test_non_finite_point_is_not_a_pole(self, scale, bad):
        # a non-finite point raises instead of reading as a lattice point;
        # its nan arithmetic warns, which pytest would turn into an error
        lat = Lattice(GENERIC, scale)
        with np.errstate(invalid="ignore"):
            for z in (bad, np.array([0.3 + 0.2j, bad]), np.array([[bad]])):
                with pytest.raises(ValueError, match="finite"):
                    wp_both(z, lat)
            w, wq = wp_both(np.array([0.3 + 0.2j, scale * GENERIC]), lat)
        assert w[1] == wq[1] == complex(np.inf, 0.0)
        assert np.isfinite(w[0]) and np.isfinite(wq[0])

    def test_laurent_guard_consistent_with_series(self):
        # the guarded branch and the series agree in the crossover zone
        lat = Lattice(GENERIC)
        inv = invariants(lat)
        for r in (2e-3, 5e-3):
            z = r * np.exp(1j * np.linspace(0.3, 5.9, 7))
            w, wq = wp_both(z, lat)
            laur = 1 / z ** 2 + inv.g2 / 20 * z ** 2 + inv.g3 / 28 * z ** 4
            laur_q = -2 / z ** 3 + inv.g2 / 10 * z + inv.g3 / 7 * z ** 3
            assert np.max(np.abs(w - laur) / np.abs(w)) < 1e-9
            assert np.max(np.abs(wq - laur_q) / np.abs(wq)) < 1e-9

    def test_oracle_lattice_sum_pointwise(self):
        # defining sum, Eisenstein-ordered, truncated: O(1/R^2) accurate
        lat = Lattice(GENERIC)
        tau = GENERIC
        R = 140
        a = np.arange(-R, R + 1)
        ax, bx = np.meshgrid(a, a)
        om = (ax + bx * tau).ravel()
        om = om[np.abs(om) > 1e-12]
        for z in (0.23 + 0.11j, -0.37 + 0.45j):
            direct = 1 / z ** 2 + np.sum(1 / (z - om) ** 2 - 1 / om ** 2)
            assert abs(wp(z, lat) - direct) < 1e-4


class TestScaleCheck:
    def test_identity(self):
        assert scale_check(1.0, 0.3 + 0.4j, Lattice(1j)) < 1e-12

    def test_doubling(self):
        assert scale_check(2.0, 0.3 + 0.4j, Lattice(1j)) < 1e-9

    def test_quarter_turn_reproduces_square_symmetry(self):
        lat = Lattice(1j)
        assert scale_check(1j, 0.3 + 0.4j, lat) < 1e-9
        # i * (Z + Zi) is the same lattice, so wp_{iL}(z) = -wp_L(-iz) = wp(z)/i^2
        z = 0.27 + 0.34j
        assert abs(wp(z / 1j, lat) + wp(z, lat)) < 1e-10

    def test_generic_scale(self):
        assert scale_check(0.7 + 0.2j, 0.3 + 0.4j, Lattice(GENERIC)) < 1e-9

    def test_scaled_lattice(self):
        assert scale_check(0.7 + 0.2j, 0.3 + 0.4j, Lattice(GENERIC, 1.5 - 0.5j)) < 1e-9

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            scale_check(0.0, 0.1, Lattice(1j))


def _dropped_tail(qabs, k_cut):
    """sum_{k>K'} k^2 |q|^(3k/2) / (1 - |q|^k): it bounds the terms of the
    wp' series that a cut after K' terms drops.  Past the closed form the
    coefficients are k lam_k, |lam_k| <= k |q|^k / (1 - |q|^k), at
    |t| <= |q|^(1/2)."""
    r = np.sqrt(qabs)
    k = np.arange(k_cut + 1, k_cut + 80, dtype=float)
    return float(np.sum(k ** 2 * r ** (3 * k) / (1.0 - r ** (2 * k))))


def _old_n_terms(qabs):
    """The term count of a series cut at |q|^(K/2) = 1e-28, at least 10."""
    return int(min(600, max(10, np.ceil(2.0 * np.log(1e-28) / np.log(qabs)))))


def _cell_sums(cell, k_terms):
    """s1, g2, g3, the discriminant and the split coefficients of a cell, as
    _cell sums them, over a series of k_terms terms."""
    q = cell.q
    ks = np.arange(1, k_terms + 1, dtype=float)
    qk = q ** ks
    denom = 1.0 - qk
    lam = ks * qk / denom
    e4 = 1.0 + 240.0 * complex(np.sum(ks ** 2 * lam))
    e6 = 1.0 - 504.0 * complex(np.sum(ks ** 4 * lam))
    discr = (2.0 * np.pi) ** 12 * complex(q) * complex(np.prod(denom)) ** 24
    g2, g3 = (4.0 * np.pi ** 4 / 3.0) * e4, (8.0 * np.pi ** 6 / 27.0) * e6
    coef = np.stack((lam, ks * lam), axis=1)[: elliptic._split_terms(abs(q))]
    return (complex(np.sum(lam)), g2, g3, discr), coef


TALL_TAUS = [2j, 3j, 4j, 5j, 0.5 + 4.5j, -0.3 + 3.7j]


class TestSeriesCut:
    @pytest.mark.parametrize("tau", ORACLE_TAUS + TALL_TAUS, ids=lambda t: f"{t:.3f}")
    def test_tail_below_double_roundoff(self, tau):
        # wp' = -8 i pi^3 (head + series): the dropped tail, times 8 pi^3,
        # stays below 2^-53 of the scale wp' is judged on, e_max^1.5
        cell = elliptic._cell(tau)
        e_max = max(abs(e) for e in half_period_values(Lattice(cell.tau_r)))
        tail = _dropped_tail(abs(cell.q), len(cell.coef))
        assert 8 * np.pi ** 3 * tail < 2.0 ** -53 * max(1.0, e_max ** 1.5)

    def test_tail_bound_over_the_fundamental_domain(self):
        # the tail depends on Im tau_r only; it peaks where the term count
        # steps down, and most at the lowest point, the hexagonal lattice.
        # The count is the smallest one under the bound: one term fewer
        # would exceed it
        for q in np.exp(-2 * np.pi * np.linspace(np.sqrt(3) / 2, 6.0, 5000)):
            k_cut = elliptic._split_terms(q)
            assert _dropped_tail(q, k_cut) <= 2.6e-18
            assert k_cut == 1 or _dropped_tail(q, k_cut - 1) > 2.6e-18

    def test_term_counts(self):
        taus = (HEX_TAU, 1j, 3.5j)
        assert [len(elliptic._cell(t).coef) for t in taus] == [5, 4, 1]
        # s1, g2, g3 and the discriminant keep the longer sums
        assert [elliptic._n_terms(abs(elliptic._cell(t).q)) for t in taus] == [16, 14, 4]

    def test_invariants_equal_the_longer_series(self):
        # the terms the cut drops are below the last bit of s1, g2, g3 and
        # the eta-product discriminant: all equal those of the old count,
        # and so do the coefficients of the split series
        rng = np.random.default_rng(13)
        taus = ORACLE_TAUS + TALL_TAUS + [
            complex(x, y) for x, y in zip(rng.uniform(-3, 3, 200), rng.uniform(0.05, 6, 200))
        ]
        for tau in taus:
            cell = elliptic._cell(tau)
            k = elliptic._n_terms(abs(cell.q))
            k_old = _old_n_terms(abs(cell.q))
            assert k_old > k
            # the sums written out reproduce the cell at its own count
            assert _cell_sums(cell, k)[0] == (cell.s1, cell.g2r, cell.g3r, cell.discr)
            sums, coef = _cell_sums(cell, k_old)
            assert (cell.s1, cell.g2r, cell.g3r, cell.discr) == sums
            assert cell.coef.tobytes() == coef.tobytes()


# The split series written out of place, the bit-for-bit reference of the
# kernel and of wp_both.


def _ref_wp_series(zc, cell):
    dist = np.abs(zc)
    pole = dist < elliptic.POLE_EPS
    near = dist < elliptic.LAURENT_EPS
    zs = np.where(near, 0.25, zc)
    sign = np.copysign(1.0, zs.imag)
    v = np.exp(zs * (sign * (2j * np.pi)))
    ta, tb = cell.q / v, v * cell.q
    x = np.stack((v, ta, tb))
    # operands in the kernel's order, and no temporary on the right of a
    # product: numpy reuses a large temporary in place and swaps the
    # operands, and with fused multiply-adds a complex product rounds
    # differently when its operands swap
    omx = 1.0 - x
    w = x / (omx * omx * omx)
    p = omx * w
    xp1 = x + 1.0
    q = w * xp1
    lam, klam = cell.coef[:, 0], cell.coef[:, 1]
    sum_p = (_horner(lam, ta) + p[1]) + (_horner(lam, tb) + p[2]) + p[0]
    sum_q = (_horner(klam, tb) + q[2]) - (_horner(klam, ta) + q[1]) + q[0]
    m2, m3 = cell.m ** 2, cell.m ** 3
    wpv = sum_p * (-4.0 * np.pi ** 2 / m2) + np.pi ** 2 * (8.0 * cell.s1 - 1.0 / 3.0) / m2
    wppv = sum_q * (-8j * np.pi ** 3 / m3) * sign
    if np.any(near):
        zl = np.where(pole, 1.0, zc)
        g2, g3 = cell.g2r, cell.g3r
        wp_l = 1.0 / zl ** 2 + (g2 / 20.0) * zl ** 2 + (g3 / 28.0) * zl ** 4
        wpp_l = -2.0 / zl ** 3 + (g2 / 10.0) * zl + (g3 / 7.0) * zl ** 3
        wpv = np.where(pole, np.inf + 0j, np.where(near, wp_l / m2, wpv))
        wppv = np.where(pole, np.inf + 0j, np.where(near, wpp_l / m3, wppv))
    return wpv, wppv


def _ref_wp_both(z, lattice, series=_ref_wp_series):
    cell = elliptic._cell(lattice.tau)
    zz = np.asarray(z, dtype=complex)
    zc = torus_reduce_centered(zz.reshape(-1) / cell.m, cell.tau_r)
    wpv, wppv = series(zc, cell)
    wpv = np.where(np.isfinite(wpv), wpv, np.inf + 0j)
    wppv = np.where(np.isfinite(wppv), wppv, np.inf + 0j)
    return wpv.reshape(zz.shape), wppv.reshape(zz.shape)


# The kernel before the split: Horner's rule on w_k = k / (1 - q^k) and
# k w_k over the K terms of the invariants, with the head csc^2(pi z) and
# its derivative in closed form.  Kept as a second reference at roundoff
# level.


def _unsplit_wp_series(zc, cell):
    ks = np.arange(1, elliptic._n_terms(abs(cell.q)) + 1, dtype=float)
    w = ks / (1.0 - cell.q ** ks)
    dist = np.abs(zc)
    pole = dist < elliptic.POLE_EPS
    near = dist < elliptic.LAURENT_EPS
    zs = np.where(near, 0.25, zc)
    u = np.exp(2j * np.pi * zs)
    big = np.abs(u) > 1.0
    v = np.where(big, 1.0 / u, u)
    omv = 1.0 - v
    head_p = -4.0 * v / omv ** 2
    head_q = v * (1.0 + v) / omv ** 3
    head_q = np.where(big, -head_q, head_q)
    ta, tb = cell.q / u, cell.q * u
    sum_p = _horner(w, ta) + _horner(w, tb)
    sum_q = _horner(ks * w, tb) - _horner(ks * w, ta)
    wpv = np.pi ** 2 * (head_p - 1.0 / 3.0 + 8.0 * cell.s1 - 4.0 * sum_p)
    wppv = -8j * np.pi ** 3 * (head_q + sum_q)
    if np.any(near):
        zl = np.where(pole, 1.0, zc)
        g2, g3 = cell.g2r, cell.g3r
        wp_l = 1.0 / zl ** 2 + (g2 / 20.0) * zl ** 2 + (g3 / 28.0) * zl ** 4
        wpp_l = -2.0 / zl ** 3 + (g2 / 10.0) * zl + (g3 / 7.0) * zl ** 3
        wpv = np.where(pole, np.inf + 0j, np.where(near, wp_l, wpv))
        wppv = np.where(pole, np.inf + 0j, np.where(near, wpp_l, wppv))
    with np.errstate(invalid="ignore"):
        return wpv / cell.m ** 2, wppv / cell.m ** 3


def _unsplit_error(got, ref, tau):
    """Worst error of (wp, wp') against ref, relative to max(|ref|, e_max)
    for wp and max(|ref|, e_max^1.5) for wp'; both infinite on poles."""
    e_max = max(abs(e) for e in half_period_values(Lattice(tau)))
    worst = 0.0
    for g, r, scale in ((got[0], ref[0], e_max), (got[1], ref[1], e_max ** 1.5)):
        finite = np.isfinite(r)
        assert np.array_equal(finite, np.isfinite(g))
        err = np.abs(g[finite] - r[finite]) / np.maximum(np.abs(r[finite]), scale)
        worst = max(worst, float(np.max(err, initial=0.0)))
    return worst


def _special_points(tau):
    """Lattice points, Laurent-zone and half-period points of Z + Z tau."""
    return np.array([
        0, 1, tau, 1 + tau, -2 * tau,            # poles
        1e-7, 3e-7j, 1 + 2e-8 - 4e-8j, tau + 1e-13,  # Laurent expansion
        0.5, tau / 2, (1 + tau) / 2,             # wp' vanishes
    ], dtype=complex)


class TestKernelTrims:
    @pytest.mark.parametrize(
        "tau", ORACLE_TAUS + [0.2 + 2.5j, 0.45 + 6.0j, -2.3 + 0.4j, 3.7 + 0.08j],
        ids=lambda t: f"{t:.3f}",
    )
    def test_equal_to_the_reference_kernel(self, tau):
        lat = Lattice(tau)
        rng = np.random.default_rng(41)
        special = _special_points(tau)
        for size in (1, 2, 7, 40, 4095, 4096, 4097, 10_000):
            z = rng.random(size) + tau * rng.random(size)
            k = min(size, len(special))
            z[rng.choice(size, size=k, replace=False)] = rng.permutation(special)[:k]
            got, ref = wp_both(z, lat), _ref_wp_both(z, lat)
            assert got[0].tobytes() == ref[0].tobytes(), size
            assert got[1].tobytes() == ref[1].tobytes(), size
        for zi in special:
            w, wq = wp_both(complex(zi), lat)
            rw, rwq = _ref_wp_both(zi, lat)
            assert np.array([w, wq]).tobytes() == np.array([rw, rwq]).tobytes()
        # at the half periods, where wp' vanishes, the unsplit series agrees
        # too.  Not near poles: there two kernels that round exp(2 pi i z)
        # differently part by about eps / (pi |z|), 6e-11 at the Laurent
        # switch |z| = 1e-6
        half = special[-3:]
        got = wp_both(half, lat)
        assert _unsplit_error(got, _ref_wp_both(half, lat, _unsplit_wp_series), tau) <= 2e-15

    def test_large_batches_run_in_blocks(self, monkeypatch):
        sizes = []
        original = elliptic._wp_series

        def recording(zc, cell, out):
            sizes.append(zc.size)
            return original(zc, cell, out)

        monkeypatch.setattr(elliptic, "_wp_series", recording)
        z = sample_cell(HEX_TAU, 10_000, 3, margin=0.0)
        wp_both(z, Lattice(HEX_TAU))
        assert sizes == [min(elliptic.BLOCK, 10_000 - i) for i in range(0, 10_000, elliptic.BLOCK)]
