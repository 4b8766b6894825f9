import cmath
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from toruslie import funcalg
from toruslie.elliptic import half_period_values, wp_both
from toruslie.funcalg import (
    FitError,
    InvariantRing,
    NotInRingError,
    PSystem,
    TorusFunction,
    _constants_from_e,
    _half_periods,
    _last_points_memo,
    _laurent_lambda_mu,
    _p_stack,
    c2c2_constants,
    c2c2_constants_for,
    fit_in_ring,
    fit_lambda_mu,
    lambda_mu,
    p_small,
    p_system,
    residue_at,
    sample_points,
    torus_distance,
)
from toruslie.lattice import (
    HEX_TAU,
    Lattice,
    is_hexagonal_class,
    TorsionPoint,
    _reduce_torsion,
    moebius,
    shortest_period,
    fold_far,
    torus_reduce_centered,
)
from sweep import SHIFTS, SWEEP_TAUS
from toruslie.classify import cross_validate
from toruslie.intertwine import double_cover, phi
from test_elliptic import FAR_TAUS, check_far_values
from test_torusgroup import _sl2z_images
from toruslie.torusgroup import a4_group, c2c2_translation, cn_translation, dn_group, quotient_scaled

GENERIC = complex(0.31, 1.07)
L_GEN = Lattice(GENERIC)
L_SQ = Lattice(1j)
L_HEX = Lattice(HEX_TAU)
W3 = np.exp(2j * np.pi / 3)


def wp_function(lat: Lattice) -> TorusFunction:
    return TorusFunction(lambda z: wp_both(z, lat)[0], lat, (0j,))


def wpp_function(lat: Lattice) -> TorusFunction:
    return TorusFunction(lambda z: wp_both(z, lat)[1], lat, (0j,))


def squared(f: TorusFunction) -> TorusFunction:
    """The pointwise square of f, with the poles of f."""
    return TorusFunction(lambda z: f.fn(z) * f.fn(z), f.lattice, f.poles)


class TestPSystemShift:
    @pytest.mark.parametrize("lat", [L_GEN, L_HEX, Lattice(GENERIC / 2, 2.0), Lattice(1j, 0.7 - 0.4j)],
                             ids=["generic", "hex", "cover", "scaled"])
    def test_alpha_bit_for_bit(self, lat):
        # alpha rounds a/n and b/n on their own, as the former pair of
        # Fractions did; (a + b tau)/n would round differently
        for n in range(2, 13):
            for a in range(n):
                for b in range(n):
                    if TorsionPoint(a, b, n).n != n:
                        continue
                    ps = PSystem(lat, (a, b, n))
                    want = lat.scale * (complex(a / n) + complex(b / n) * lat.tau)
                    frac = complex(lat.scale * (Fraction(a, n) + Fraction(b, n) * lat.tau))
                    assert np.array(ps.alpha).tobytes() == np.array(want).tobytes()
                    assert np.array(ps.alpha).tobytes() == np.array(frac).tobytes()

    def test_triple_is_reduced(self):
        ps = PSystem(L_GEN, (2, 0, 4))
        assert ps.n == 2
        assert ps.alpha == PSystem(L_GEN, (1, 0, 2)).alpha == PSystem(L_GEN, (-3, 4, 2)).alpha
        assert ps.orbit == PSystem(L_GEN, (1, 0, 2)).orbit
        with pytest.raises(ValueError, match="order >= 2"):
            PSystem(L_GEN, (3, 6, 3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_p_system_reads_the_generator_key(self, n):
        emb = cn_translation(L_GEN, n, TorsionPoint(1, 1, n))
        ps = p_system(emb)
        assert ps.n == n
        assert ps.alpha == PSystem(L_GEN, (1, 1, n)).alpha


class TestFarPoints:
    """A point many periods out moves in by whole periods before the shifts
    z - k alpha and z - s are taken: its values are those in the cell."""

    Z = 0.25 + 0.375j
    # periods of the square lattice and of its index-two covers, up to the
    # last power of two at which Z + 2**k is still exact
    FAR = Z + 2.0 ** np.arange(4, 51)

    @pytest.mark.parametrize(
        "make",
        [lambda: p_system(cn_translation(L_SQ, 3)),
         lambda: PSystem(*double_cover(cn_translation(L_SQ, 4))),
         lambda: p_system(dn_group(L_SQ, 4))],
        ids=["cn3", "cn4-cover", "dn4"],
    )
    def test_psystem_values(self, make):
        ps = make()
        js = range(1, ps.n)
        want, got = ps.values(self.Z, js), ps.values(self.FAR, js)
        for j in js:
            assert got[j].tobytes() == np.repeat(want[j], len(self.FAR)).tobytes()

    @pytest.mark.parametrize("tau", FAR_TAUS, ids=["flat", "skewed"])
    @pytest.mark.parametrize(
        "make",
        [lambda lat: p_system(cn_translation(lat, 3)),
         lambda lat: p_system(cn_translation(lat, 5)),
         lambda lat: PSystem(*double_cover(cn_translation(lat, 4))),
         lambda lat: p_system(dn_group(lat, 4))],
        ids=["cn3", "cn5", "cn4-cover", "dn4"],
    )
    def test_psystem_values_on_a_basis_far_from_reduced(self, tau, make):
        ps = make(Lattice(tau))
        js = range(1, ps.n)

        def values(z):
            v = ps.values(z, js)
            return np.stack([v[j] for j in js], axis=-1)

        check_far_values(values, ps.lattice)

    def test_p_small(self):
        for p in p_small(c2c2_translation(L_SQ)):
            assert p(self.FAR).tobytes() == np.repeat(p(np.array([self.Z])), len(self.FAR)).tobytes()


def orbit_sum(ps, z, js):
    """(P_j, size): P_j as the orbit sum sum_k w^(-kj) v(z - k alpha),
    v = wp'/(wp - wp(alpha)), in float64 term by term, the definition the
    theta quotient of PSystem.values is held to, and the size
    sum_k |v_k| (1 + (|wp_k| + |wp(alpha)|) / |wp_k - wp(alpha)|) of its
    terms, each weighted by its condition number: n eps times it bounds
    the orbit sum's own rounding within a small factor."""
    zz = fold_far(np.atleast_1d(z), ps.lattice)
    ks = np.arange(ps.n)
    wpv, wppv = wp_both(zz[None] - (ks * ps.alpha).reshape((-1,) + (1,) * zz.ndim), ps.lattice)
    e = wp_both(ps.alpha, ps.lattice)[0]
    v = wppv / (wpv - e)
    w = cmath.exp(2j * math.pi / ps.n)
    out = {}
    for j in js:
        out[j] = np.zeros(zz.shape, dtype=complex)
        for k in ks:
            out[j] += w ** (-k * (j % ps.n)) * v[k]
    size = np.abs(v) * (1.0 + (np.abs(wpv) + abs(e)) / np.abs(wpv - e))
    return out, size.sum(axis=0)


class TestPBig:
    def test_values_equal_the_orbit_sum(self):
        # within 4 n eps of the orbit sum's conditioned size, where 2.9 n
        # eps is the worst seen; j = 0 mod n are the exact zeros the sum
        # rounds.  The plain absolute sum sum_k |v_k| does not bound the
        # orbit sum's own error: against 40 digits it is 190 eps times that
        # sum at n = 38, where the theta quotient is within 5
        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        for lat in (L_GEN, Lattice(GENERIC / 2, 2.0)):
            for n in range(2, 41):
                ps = PSystem(lat, (1, 1, n))
                z = lat.scale * (rng.random(30) + rng.random(30) * lat.tau)
                for js, pts in itertools.product(
                    (tuple(range(-n, n + 2)), (1,)), (z, z.reshape(5, 6), z[0])
                ):
                    got = ps.values(pts, js)
                    want, size = orbit_sum(ps, pts, js)
                    assert got.keys() == want.keys()
                    for j in js:
                        assert got[j].shape == want[j].shape
                        assert np.all(np.abs(got[j] - want[j]) <= 4 * n * eps * size), (n, j)
                        if j % n == 0:
                            assert not got[j].any()

    def test_p0_vanishes(self):
        # pj(0) and values at j = 0 mod n are exact zeros (acceptance
        # criterion 4 checks the orbit sum they stand for)
        emb = cn_translation(L_GEN, 4)
        ps = p_system(emb)
        p0 = ps.pj(0)
        rng = np.random.default_rng(6)
        z = sample_points(p0.lattice, 50, rng, margin=0.0)
        assert np.max(np.abs(p0(z))) < 1e-9
        for v in ps.values(z, (0, 4, -8)).values():
            assert v.shape == z.shape and np.all(v == 0)

    def test_values_leaving_float64_raise(self):
        # |e^(2 pi i u) y_j| reaches exp(2 pi (1/2 + |c_j|) Im T): on the
        # cover of cn 200 (Im T = 200) P_1 stays finite and P_199, whose
        # c_j is near 1/2, raises instead of returning inf or nan, as a
        # point on a pole and a non-finite point do
        ps = PSystem(*double_cover(cn_translation(L_SQ, 200)))
        assert ps._T.imag == 200
        z = sample_points(ps.lattice, 2000, np.random.default_rng(1), avoid=ps.orbit, margin=0.05)
        assert all(np.isfinite(v).all() for v in ps.values(z, (1, -1, 2, -2)).values())
        with pytest.raises(ValueError, match="too tall for float64"):
            ps.values(z, (199,))
        for bad in (0.0, 3 * ps.lattice.scale, complex(np.nan, 0.0)):
            with pytest.raises(ValueError, match="not finite"):
                ps.values(bad, (1,))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_residues_at_origin(self, n):
        emb = cn_translation(L_GEN, n)
        for j in range(1, n):
            pj = p_system(emb).pj(j)
            res = residue_at(pj, 0.0)
            expect = -2.0 + 2.0 * np.cos(2 * np.pi * j / n)
            assert abs(res - expect) < 1e-6

    def test_parity_exchange(self):
        emb = cn_translation(L_GEN, 5)
        ps = p_system(emb)
        rng = np.random.default_rng(7)
        z = sample_points(ps.lattice, 50, rng, avoid=ps.orbit, margin=0.05)
        vals = ps.values(z, (1, 2, 3, 4))
        negs = ps.values(-z, (1, 2, 3, 4))
        for j in (1, 2, 3, 4):
            assert np.max(np.abs(negs[j] + vals[(-j) % 5])) < 1e-8

    def test_character_twist(self):
        n = 3
        emb = cn_translation(L_GEN, n)
        p1 = p_system(emb).pj(1)
        alpha = 1.0 / 3.0
        rng = np.random.default_rng(8)
        z = sample_points(p1.lattice, 30, rng, avoid=p1.poles, margin=0.08)
        w = np.exp(2j * np.pi / 3)
        assert np.max(np.abs(p1(z - alpha) - w * p1(z))) < 1e-8

    def test_poles_are_simple(self):
        emb = cn_translation(L_GEN, 3)
        p1 = p_system(emb).pj(1)
        for r in (1e-3, 1e-4):
            z = np.array([r, r * 1j, -r])
            assert np.max(np.abs(z * p1(z))) < 10.0

    def test_residue_transforms_along_orbit(self):
        # the twist moves residues by the character; poles sit on the
        # whole orbit with equal magnitude
        emb = cn_translation(L_GEN, 4)
        p1 = p_system(emb).pj(1)
        r0 = residue_at(p1, 0.0)
        r1 = residue_at(p1, 0.25)
        assert abs(r1 - (-1j) * r0) < 1e-6
        assert abs(abs(r1) - abs(r0)) < 1e-6

    @pytest.mark.parametrize(
        "make",
        [lambda: p_system(cn_translation(L_GEN, 3)),
         lambda: p_system(cn_translation(L_GEN, 6)),
         lambda: PSystem(*double_cover(cn_translation(L_GEN, 4))),
         lambda: PSystem(*double_cover(cn_translation(L_GEN, 6)))],
        ids=["3", "6", "cn4-cover", "cn6-cover"],
    )
    def test_values_do_not_depend_on_the_batch(self, make):
        # a point's P_j must not change with the points that share its call,
        # for all js at once and for one j (pj's call); the covers' 8 and 12
        # shifts are where numpy's pairwise reduction over the shift axis
        # would start to round by batch
        ps = make()
        rng = np.random.default_rng(22)
        z = sample_points(ps.lattice, 200, rng, avoid=ps.orbit, margin=0.05)
        for js in (tuple(range(1, ps.n)), (1,)):
            batch = ps.values(z, js)
            for i, zi in enumerate(z):
                single = ps.values(zi, js)
                for j in js:
                    assert single[j][0] == batch[j][i], (i, j)

    @pytest.mark.parametrize("n", [3, 2], ids=["cn3", "cn2-cover"])
    def test_a_repeated_j_is_evaluated_once(self, monkeypatch, n):
        # Phi asks for (j, -j, 2j, -2j), which repeat mod 3 and mod 4: each j
        # is one theta row, and its values are those of a call asking for it alone
        emb = cn_translation(L_GEN, n)
        ps = PSystem(*double_cover(emb)) if n % 2 == 0 else p_system(emb)
        js = (1, -1 % ps.n, 2, -2 % ps.n)
        z = sample_points(ps.lattice, 50, np.random.default_rng(5), avoid=ps.orbit, margin=0.05)
        rows = []
        series = funcalg._theta_series
        monkeypatch.setattr(funcalg, "_theta_series", lambda w, th: rows.append(len(w)) or series(w, th))
        got = ps.values(z, js)
        assert rows == [1 + len(set(js))] and len(set(js)) < len(js)
        for j in js:
            assert got[j].tobytes() == ps.values(z, (j,))[j].tobytes()

    @pytest.mark.parametrize("tau", [1j, HEX_TAU, GENERIC], ids=["square", "hex", "generic"])
    def test_orbit_and_repeated_values_equal_the_scalar_route(self, tau):
        # the orbit is reduced in one call and equals, bit for bit, the
        # reduction of each k alpha; a second values call repeats the first
        lat = Lattice(tau)
        rng = np.random.default_rng(31)
        checked = 0
        for n in range(2, 9):
            for a in range(n):
                for b in range(n):
                    if TorsionPoint(a, b, n).n != n:
                        continue
                    emb = cn_translation(lat, n, TorsionPoint(a, b, n))
                    systems = [p_system(emb)]
                    if n % 2 == 0:
                        systems.append(PSystem(*double_cover(emb)))
                    for ps in systems:
                        z = sample_points(ps.lattice, 7, rng, avoid=ps.orbit, margin=0.05)
                        js = tuple(range(1, ps.n))
                        first = ps.values(z, js)
                        second = ps.values(z, js)
                        for j in js:
                            assert first[j].tobytes() == second[j].tobytes()
                        s = ps.lattice.scale
                        orbit = [
                            complex(s * torus_reduce_centered(k * ps.alpha / s, ps.lattice.tau))
                            for k in range(ps.n)
                        ]
                        assert np.array(ps.orbit).tobytes() == np.array(orbit).tobytes()
                        checked += 1
        assert checked >= 150

    def test_value_pairs_separate_points(self):
        # ring-generator spot check for N = 3: the pair (P1, P2) separates
        # the sampled points of the punctured torus
        emb = cn_translation(L_GEN, 3)
        ps = p_system(emb)
        rng = np.random.default_rng(21)
        z = sample_points(ps.lattice, 40, rng, avoid=ps.orbit, margin=0.05)
        vals = ps.values(z, (1, 2))
        pairs = np.stack([vals[1], vals[2]], axis=1)
        for i in range(len(z)):
            for k in range(i + 1, len(z)):
                assert np.max(np.abs(pairs[i] - pairs[k])) > 1e-8


class TestLambdaMu:
    def test_identity_holds_on_holdout(self):
        emb = cn_translation(L_GEN, 5)
        lam, mu = fit_lambda_mu(emb, 1, 1)
        ps = p_system(emb)
        rng = np.random.default_rng(9)
        z = sample_points(ps.lattice, 20, rng, avoid=ps.orbit, margin=0.1)
        vals = ps.values(z, (1, 2, 3, 4))
        lhs = vals[2] * vals[4] ** 2 - vals[3] * vals[1] ** 2
        rhs = lam * vals[4] * vals[1] + mu
        assert np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs))) < 1e-7

    def test_mu_nonzero(self):
        for n, j in ((5, 2), (3, 1), (4, 1), (6, 1)):
            emb = cn_translation(L_GEN, n)
            _, mu = fit_lambda_mu(emb, j, j)
            assert abs(mu) > 1e-9

    def test_n4_j1(self):
        emb = cn_translation(L_GEN, 4)
        lam, mu = fit_lambda_mu(emb, 1, 1)
        ps = p_system(emb)
        rng = np.random.default_rng(10)
        z = sample_points(ps.lattice, 20, rng, avoid=ps.orbit, margin=0.1)
        vals = ps.values(z, (1, 2, 3))
        lhs = vals[2] * vals[3] ** 2 - vals[2] * 0 - (vals[(-2) % 4] * 0)
        lhs = vals[2] * vals[3] ** 2 - vals[(-2) % 4] * vals[1] ** 2
        rhs = lam * vals[3] * vals[1] + mu
        assert np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs))) < 1e-7

    def test_k_zero_rejected(self):
        emb = cn_translation(L_GEN, 4)
        with pytest.raises(ValueError):
            fit_lambda_mu(emb, 1, 4)


def _mp_p_values(ps: PSystem, shift: tuple):
    """(z, js) -> {i: P_i(z)} at the working mpmath precision: the orbit sum
    of v = wp'/(wp - wp(alpha)) with wp from Jacobi theta functions (as
    bench/oracle.py), every step in mpmath.  Call it inside workdps.

    shift is ps's torsion triple; alpha is formed from it in mpmath, not
    read from ps.alpha, so nothing is rounded to complex before the end.
    """
    mpmath = pytest.importorskip("mpmath")
    a, b, n = _reduce_torsion(*shift)
    tau = mpmath.mpc(ps.lattice.tau.real, ps.lattice.tau.imag)
    s = mpmath.mpc(complex(ps.lattice.scale).real, complex(ps.lattice.scale).imag)
    q = mpmath.exp(1j * mpmath.pi * tau)
    t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
    c = (mpmath.pi * t2 * t3) ** 2
    const = mpmath.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4)

    def wp_pair(z):  # wp and wp' of s (Z + Z tau)
        v = mpmath.pi * z / s
        t1, t4 = mpmath.jtheta(1, v, q), mpmath.jtheta(4, v, q)
        t1d, t4d = mpmath.jtheta(1, v, q, 1), mpmath.jtheta(4, v, q, 1)
        g = t4 / t1
        gd = mpmath.pi * (t4d * t1 - t4 * t1d) / t1 ** 2
        return (c * g ** 2 - const) / s ** 2, 2 * c * g * gd / s ** 3

    alpha = s * (a + b * tau) / n
    e = wp_pair(alpha)[0]
    w = mpmath.exp(2j * mpmath.pi / n)

    def p_values(z, js):
        v = []
        for k in range(n):
            wp, wpp = wp_pair(z - k * alpha)
            v.append(wpp / (wp - e))
        return {i: mpmath.fsum(w ** (-k * (i % n)) * v[k] for k in range(n)) for i in js}

    return p_values


def _reference_lambda_mu(ps: PSystem, shift: tuple, j: int) -> tuple[complex, complex]:
    """lam, mu of ps at 40 digits: a two-point solve of the relation with
    the P_j of _mp_p_values, at points formed in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p_values = _mp_p_values(ps, shift)
        tau = mpmath.mpc(ps.lattice.tau.real, ps.lattice.tau.imag)
        s = mpmath.mpc(complex(ps.lattice.scale).real, complex(ps.lattice.scale).imag)

        def sides(z):
            p = p_values(z, (j, -j, 2 * j, -2 * j))
            return p[2 * j] * p[-j] ** 2 - p[-2 * j] * p[j] ** 2, p[-j] * p[j]

        (l1, b1), (l2, b2) = (
            sides(s * (mpmath.mpf(x) + mpmath.mpf(y) * tau)) for x, y in (("0.23", "0.37"), ("0.61", "0.19"))
        )
        lam = (l1 - l2) / (b1 - b2)
        return complex(lam), complex(l1 - lam * b1)


def _relation_residual(ps: PSystem, lam: complex, mu: complex, j: int = 1) -> float:
    """fit_lambda_mu's held-out measure of the relation at 20 seeded points:
    max |LHS - (lam basis + mu)| / max(1, max |LHS|)."""
    n = ps.n
    z = sample_points(ps.lattice, 20, np.random.default_rng(0), avoid=ps.orbit, margin=0.08)
    v = ps.values(z, {j % n, -j % n, 2 * j % n, -2 * j % n})
    lhs = v[2 * j % n] * v[-j % n] ** 2 - v[-2 * j % n] * v[j % n] ** 2
    basis = v[-j % n] * v[j % n]
    return float(np.max(np.abs(lhs - (lam * basis + mu))) / max(1.0, np.max(np.abs(lhs))))


def _cover_system(emb) -> tuple[PSystem, tuple]:
    """phi's PSystem of a C_N or D_N embedding and its torsion triple."""
    if emb.order_param % 2:
        return p_system(emb), emb.cyclic_generator.key[2:]
    lattice, shift = double_cover(emb)
    return PSystem(lattice, shift), shift


#: the relation test's lattices and orders; its shifts are those of the sweep
RELATION_TAUS = SWEEP_TAUS + [1j, HEX_TAU, GENERIC]
RELATION_ORDERS = (3, 4, 5, 6, 7, 8, 28, 30, 32)
#: the only case where lambda_mu raises: C8 at (1+tau)/8 on 7.3+0.2i, whose
#: mu is 7.45e-11 at 40 digits, below its rounding bound of 8.9e-11
MU_BELOW_ROUNDING = [(7.3 + 0.2j, 8, "(1+tau)/N")]


class TestLambdaMuClosedForm:
    @pytest.mark.parametrize("tau", RELATION_TAUS, ids=lambda t: f"{t:.3f}")
    def test_relation_holds_and_sees_a_changed_mu(self, tau):
        # the closed form keeps the relation to 1e-9 on all 512 cases it
        # builds of these 513, the fit raising on 44; 4.5e-13 is the worst
        # seen.  Scaling mu by 1 + 1e-6 takes the same measure past 1.9e-6
        # on every lattice
        worst = worst_mutated = 0.0
        raised = []
        for n in RELATION_ORDERS:
            for a, b, label in SHIFTS:
                ps, _ = _cover_system(cn_translation(Lattice(tau), n, TorsionPoint(a, b, n)))
                try:
                    lam, mu = lambda_mu(ps, 1)
                except FitError:
                    raised.append((tau, n, label))
                    continue
                worst = max(worst, _relation_residual(ps, lam, mu))
                worst_mutated = max(worst_mutated, _relation_residual(ps, lam, mu * (1 + 1e-6)))
        assert worst <= 1e-9
        assert worst_mutated > 1e-9
        assert raised == [c for c in MU_BELOW_ROUNDING if c[0] == tau]

    @pytest.mark.parametrize(
        "build, tau, n",
        [(cn_translation, GENERIC, 5), (cn_translation, GENERIC, 4),
         (dn_group, HEX_TAU, 3), (cn_translation, 2.5j, 7)],
        ids=["cn5-generic", "cn4-generic-cover", "dn3-hex", "cn7-2.5i"],
    )
    def test_against_a_40_digit_two_point_solve(self, build, tau, n):
        # relative errors seen: lam at most 4.0e-16; mu 4.3e-15 to
        # 1.6e-13, and 7.7e-10 for cn7 at 2.5i, where |mu| = 0.018 is small
        # against the z^0 terms it is the difference of
        ps, shift = _cover_system(build(Lattice(tau), n))
        ref_lam, ref_mu = _reference_lambda_mu(ps, shift, 1)
        lam, mu = lambda_mu(ps, 1)
        assert abs(lam - ref_lam) <= 1e-13 * abs(ref_lam)
        assert abs(mu - ref_mu) <= 1e-8 * abs(ref_mu)

    @pytest.mark.parametrize(
        "build, tau, n, shift",
        [(cn_translation, GENERIC, 5, (1, 0)), (cn_translation, GENERIC, 4, (1, 0)),
         (dn_group, HEX_TAU, 3, (1, 0)), (cn_translation, 2.5j, 7, (1, 0)),
         (cn_translation, 3.5j, 7, (1, 0)), (cn_translation, 1j, 32, (0, 1)),
         (cn_translation, 7.3 + 0.2j, 8, (1, 1))],
        ids=["cn5-generic", "cn4-generic-cover", "dn3-hex", "cn7-2.5i", "cn7-3.5i",
             "cn32-square-cover", "cn8-7.3+0.2i"],
    )
    def test_rounding_bound_covers_the_error(self, build, tau, n, shift):
        # mu's error against the 40-digit solve is 0.0095 (cn8 at 7.3+0.2i)
        # to 0.25 (cn32 on its cover) of the bound the guard compares |mu| to
        ps, triple = _cover_system(build(Lattice(tau), n, TorsionPoint(*shift, n)))
        ref_mu = _reference_lambda_mu(ps, triple, 1)[1]
        _, mu, bound = _laurent_lambda_mu(ps, 1)
        assert abs(mu - ref_mu) <= bound

    @pytest.mark.parametrize("build", [cn_translation, dn_group], ids=["cn8", "dn8"])
    def test_mu_below_its_rounding_raises(self, build):
        # at 7.3+0.2i, shift (1+tau)/8, the 40-digit mu is 7.45e-11, and
        # the closed form reads 7.38e-11 against a bound of 8.9e-11: the
        # guard names both |mu| and its rounding bound, the reference lies
        # below the bound, and the read |mu| lies within the bound of it
        emb = build(Lattice(7.3 + 0.2j), 8, TorsionPoint(1, 1, 8))
        with pytest.raises(FitError, match=r"mu vanishes within its rounding") as info:
            phi(emb)
        got, bound = (float(x) for x in re.search(r"= (\S+) <= (\S+) ", str(info.value)).groups())
        ref_mu = _reference_lambda_mu(*_cover_system(emb), 1)[1]
        assert abs(ref_mu) < bound and abs(got - abs(ref_mu)) <= bound

    @pytest.mark.parametrize("n", [28, 30, 32])
    def test_large_even_orders_pass_cross_validate(self, n):
        # the fit raised "lambda/mu fit failed" here: its two-point
        # determinant on the cover Lattice(2i) is 6e-15 to 8e-9
        emb = cn_translation(L_SQ, n, TorsionPoint(0, 1, n))
        with pytest.raises(FitError, match="lambda/mu fit failed"):
            fit_lambda_mu(_cover_system(emb)[0], 1, 1)
        assert cross_validate(emb, seed=0).passed

    def test_twice_j_zero_rejected(self):
        with pytest.raises(ValueError, match="2j = 0 mod 8"):
            lambda_mu(PSystem(L_GEN, (1, 0, 8)), 4)


#: the P_j oracle's lattices: near-reduced ones, held to 1e-13 relative,
#: and the sweep's fixed ones, held to max(1e-13, the float orbit sum's own error)
ORACLE_REDUCED_TAUS = [1j, HEX_TAU, GENERIC]
ORACLE_SWEEP_TAUS = [2.5j, 3.5j, 0.49 + 0.9j, 7.3 + 0.2j]


class TestPOracle:
    """PSystem.values against a 40-digit orbit sum: CN and DN for N = 2-8 at
    the shifts 1/N, tau/N and (1+tau)/N, even N on their covers, two probes
    each; about 13 s on two CPUs.  Worst seen: theta quotient 1.6e-14 on the
    near-reduced lattices and 7.5e-14 at 7.3+0.2i; the float orbit sum
    1.3e-12 there, 2.0e-6 at 7.3+0.2i and 1.4e-2 at 3.5i, and 1.6e-9 for
    N = 7 at 2.5i, shift 1/N."""

    @staticmethod
    def _errors(tau):
        """{(N, label): (theta errors, orbit sum errors)}, relative, per value."""
        mpmath = pytest.importorskip("mpmath")
        out = {}
        for n in range(2, 9):
            for a, b, label in SHIFTS:
                shift = TorsionPoint(a, b, n)
                systems = [_cover_system(build(Lattice(tau), n, shift))
                           for build in (cn_translation, dn_group)]
                (ps, triple), (ps_dn, triple_dn) = systems
                # D_N's translations are C_N's: one P-system, one reference
                assert (ps_dn.lattice, triple_dn) == (ps.lattice, triple)
                z = sample_points(ps.lattice, 2, np.random.default_rng(n), avoid=ps.orbit, margin=0.08)
                js = range(1, ps.n)
                with mpmath.workdps(40):
                    p_values = _mp_p_values(ps, triple)
                    ref = [p_values(mpmath.mpc(zi.real, zi.imag), js) for zi in z]
                ref = {j: np.array([complex(r[j]) for r in ref]) for j in js}
                orbit = orbit_sum(ps, z, js)[0]
                errors = []
                for system in (ps, ps_dn):
                    got = system.values(z, js)
                    errors += [np.abs(got[j] - ref[j]) / np.abs(ref[j]) for j in js]
                orbit_errors = [np.abs(orbit[j] - ref[j]) / np.abs(ref[j]) for j in js] * 2
                out[n, label] = (np.concatenate(errors), np.concatenate(orbit_errors))
        return out

    @pytest.mark.parametrize("tau", ORACLE_REDUCED_TAUS, ids=["square", "hex", "generic"])
    def test_near_reduced_lattices(self, tau):
        for err, _ in self._errors(tau).values():
            assert err.max() <= 1e-13

    @pytest.mark.parametrize("tau", ORACLE_SWEEP_TAUS, ids=lambda t: f"{t:.3f}")
    def test_sweep_lattices(self, tau):
        errors = self._errors(tau)
        for err, orbit_err in errors.values():
            assert np.all(err <= np.maximum(1e-13, orbit_err))
        if tau == 2.5j:
            # where verify --group dn --order 7 --tau-im 2.5 failed
            assert errors[7, "1/N"][1].max() > 1e-10


class TestResidues:
    def test_wp_residue_zero(self):
        f = wp_function(L_GEN)
        assert abs(residue_at(f, 0.0)) < 1e-9

    def test_v_residue_minus_two(self):
        # wp'/(wp - wp(alpha)) has residue -2 at the origin
        alpha = 0.25
        slat = Lattice(GENERIC)
        wpa = wp_both(alpha, slat)[0]

        def fn(z):
            w, wq = wp_both(z, slat)
            return wq / (w - wpa)

        f = TorusFunction(fn, slat, (0j, 0.25, -0.25))
        assert abs(residue_at(f, 0.0) + 2.0) < 1e-6

    def test_circle_collision_rejected(self):
        # an outside point this close to a declared pole has no circle
        # that clears it
        f = wp_function(L_GEN)
        with pytest.raises(ValueError, match="intersects another declared pole"):
            residue_at(f, 1.5e-9)


class TestLastPointsMemo:
    def test_keys_on_contents_not_identity(self):
        calls = []

        def double(z):
            calls.append(z)
            return 2.0 * z

        memo = _last_points_memo(double)
        z = np.array([1 + 1j, 2 + 0j])
        memo(z)
        assert np.array_equal(memo(z.copy()), 2.0 * z)
        assert len(calls) == 1
        z[0] = 3j  # the same buffer with new contents
        assert memo(z)[0] == 6j
        assert len(calls) == 2
        memo(z.reshape(2, 1))  # same bytes, other shape
        assert len(calls) == 3


def per_pole_sample_points(slat, n, rng, avoid=(), margin=0.05):
    """The sampler as it was before its rejection became one broadcast:
    one torus_distance call per avoided point, stacked."""
    short = shortest_period(slat.tau) * abs(slat.scale)
    avoid = np.asarray(list(avoid), dtype=complex)
    out = []
    for _ in range(200):
        m = max(2 * (n - len(out)), 16)
        s = rng.random(m)
        t = rng.random(m)
        z = slat.scale * (s + t * slat.tau)
        if avoid.size:
            d = np.min(np.stack([torus_distance(z, p, slat) for p in avoid]), axis=0)
            z = z[d >= margin * short]
        out.extend(z.tolist())
        if len(out) >= n:
            return np.asarray(out[:n], dtype=complex)
    raise FitError("rejection sampling starved; margin too large for the pole set")


class TestSamplePoints:
    SLATS = [Lattice(GENERIC), Lattice(HEX_TAU, 0.7 - 0.4j), Lattice(0.2 + 2.5j), Lattice(7.3 + 0.2j)]

    @pytest.mark.parametrize("n_avoid", [0, 1, 40])
    @pytest.mark.parametrize("slat", SLATS, ids=["generic", "hex-scaled", "tall", "flat"])
    def test_matches_per_pole_loop(self, slat, n_avoid):
        # sample_points tests the margin in lattice coordinates and never
        # folds an avoided point 20 periods out, as torus_distance does here
        pts = np.random.default_rng(n_avoid).random((2, n_avoid))
        for periods in (0, 20):
            avoid = tuple(slat.scale * ((pts[0] + periods) + (pts[1] - periods) * slat.tau))
            for seed in range(5):
                for margin in (0.02, 0.08, 0.15):
                    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = sample_points(slat, 60, rng_new, avoid=avoid, margin=margin)
                    want = per_pole_sample_points(slat, 60, rng_old, avoid=avoid, margin=margin)
                    assert got.tobytes() == want.tobytes()
                    assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_keeps_the_margin(self):
        slat = Lattice(GENERIC)
        orbit = np.asarray(p_system(cn_translation(L_GEN, 5)).orbit)
        z = sample_points(slat, 200, np.random.default_rng(3), avoid=orbit, margin=0.08)
        d = torus_distance(z[None, :], orbit[:, None], slat)
        assert d.shape == (len(orbit), 200)
        assert d.min() >= 0.08 * shortest_period(GENERIC)

    @pytest.mark.parametrize("n", [0, -4])
    def test_fewer_than_one_point_raises(self, n):
        with pytest.raises(ValueError, match="at least one sample point"):
            sample_points(Lattice(GENERIC), n, np.random.default_rng(0), margin=0.05)

    def test_a_starved_margin_backs_off(self):
        # 0.75 around 0 on the square lattice keeps no point in 200 rounds;
        # the draw starts over at 0.75 of that margin on the same rng
        slat = Lattice(1j)
        rng_new, rng_old = np.random.default_rng(0), np.random.default_rng(0)
        got = sample_points(slat, 10, rng_new, avoid=(0j,), margin=0.75)
        with pytest.raises(FitError, match="starved"):
            per_pole_sample_points(slat, 10, rng_old, avoid=(0j,), margin=0.75)
        want = per_pole_sample_points(slat, 10, rng_old, avoid=(0j,), margin=0.5625)
        assert got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize("avoid", [(0j,), tuple(np.arange(12) / 12.0 + 0.3j)])
    def test_a_margin_starved_at_every_share_raises(self, avoid):
        # a quarter of 3.0 still clears no point of the cell
        with pytest.raises(FitError, match="^no sampling margin admits points away from the pole orbit$"):
            sample_points(Lattice(1j), 10, np.random.default_rng(0), avoid=avoid, margin=3.0)


class TestPSmall:
    def test_trivial_character_projection_vanishes(self):
        # the group average of 1/wp' over the half-period translations is
        # zero: the signed averages p0, p1, p2 are all there is
        emb = c2c2_translation(L_GEN)
        slat = Lattice(GENERIC)
        rng = np.random.default_rng(11)
        poles = (0j, 0.5 + 0j, GENERIC / 2, (1 + GENERIC) / 2)
        z = sample_points(slat, 30, rng, avoid=poles, margin=0.1)
        inverses = (emb.elements[i] for i in emb.inverse_index)
        avg = sum(1.0 / wp_both(g.apply(z), slat)[1] for g in inverses) / 4
        assert np.max(np.abs(avg)) < 1e-9

    def test_characters_and_oddness(self):
        emb = c2c2_translation(L_GEN)
        p0, p1, p2 = p_small(emb)
        rng = np.random.default_rng(12)
        z = sample_points(p0.lattice, 30, rng, avoid=p0.poles, margin=0.08)
        s1, s2 = 0.5, GENERIC / 2
        # r1 . p1 = -p1, r2 . p1 = p1
        assert np.max(np.abs(p1(z + s1) + p1(z))) < 1e-9
        assert np.max(np.abs(p1(z + s2) - p1(z))) < 1e-9
        assert np.max(np.abs(p2(z + s1) - p2(z))) < 1e-9
        assert np.max(np.abs(p2(z + s2) + p2(z))) < 1e-9
        assert np.max(np.abs(p0(z + s1) + p0(z))) < 1e-9
        for p in (p0, p1, p2):
            assert np.max(np.abs(p(z) + p(-z))) < 1e-9

    def test_square_relations(self):
        for lat in (L_SQ, L_HEX, L_GEN):
            emb = c2c2_translation(lat)
            p0, p1, p2 = p_small(emb)
            cc = c2c2_constants(lat)
            rng = np.random.default_rng(13)
            z = sample_points(p0.lattice, 30, rng, avoid=p0.poles, margin=0.08)
            assert np.max(np.abs(p1(z) ** 2 - cc.alpha1 * p2(z) ** 2 - cc.alpha2)) < 1e-7
            assert np.max(np.abs(p0(z) ** 2 - cc.beta1 * p2(z) ** 2 - cc.beta2)) < 1e-7

    def test_sum_of_squares_constant_iff_g2_zero(self):
        for lat, const in ((L_HEX, True), (L_GEN, False), (L_SQ, False)):
            emb = c2c2_translation(lat)
            p0, p1, p2 = p_small(emb)
            rng = np.random.default_rng(14)
            z = sample_points(p0.lattice, 40, rng, avoid=p0.poles, margin=0.1)
            s = p0(z) ** 2 + p1(z) ** 2 + p2(z) ** 2
            spread = np.max(np.abs(s - s[0]))
            assert (spread < 1e-7) == const

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            p_small(cn_translation(L_GEN, 2))

    @pytest.mark.parametrize("make, lat", [(c2c2_translation, L_GEN), (a4_group, L_HEX)])
    def test_rows_equal_the_per_function_sums(self, make, lat, monkeypatch, count_wp_calls):
        # the reference: each p_k summed on its own, sign by sign, over
        # 1/wp' at the shifts (0, s1, s2, s1 + s2)
        emb = make(lat)
        s1, s2 = _half_periods(emb)
        rng = np.random.default_rng(16)
        z = sample_points(lat, 25, rng, avoid=(0j, s1, s2, s1 + s2), margin=0.08)
        inv = [1.0 / wp_both(z - s, lat)[1] for s in (0.0, s1, s2, s1 + s2)]
        signs = ((1.0, -1.0, -1.0, 1.0), (1.0, -1.0, 1.0, -1.0), (1.0, 1.0, -1.0, -1.0))
        fn, _ = _p_stack(emb)
        calls = count_wp_calls(monkeypatch)
        stack = fn(z)
        assert len(calls) == 1
        for row, p, sgn in zip(stack, p_small(emb), signs):
            acc = np.zeros_like(z)
            for c, v in zip(sgn, inv):
                acc += c * v
            assert row.tobytes() == acc.tobytes() == p.fn(z).tobytes()
        # p0, p1 and p2 on one point array share one evaluation of the stack
        assert len(calls) == 2


class TestC2C2Constants:
    def test_square_lattice_values(self):
        cc = c2c2_constants(L_SQ)
        assert abs(cc.alpha1 - 1.0) < 1e-9
        assert abs(cc.beta1 - 4.0) < 1e-9

    def test_hexagonal_values(self):
        cc = c2c2_constants(L_HEX)
        assert abs(cc.alpha1 - W3) < 1e-9
        assert abs(cc.beta1 - W3 ** 2) < 1e-9
        assert abs(cc.alpha1 * cc.beta1 - 1.0) < 1e-9
        assert abs(cc.A1 + 1j) < 1e-9
        assert abs(cc.B1 - 1.0) < 1e-9

    def test_a1_squared_is_ratio_cubed(self):
        for lat in (L_SQ, L_HEX, L_GEN):
            e1, e2, e3 = half_period_values(lat)
            cc = c2c2_constants(lat)
            assert abs(cc.A1 ** 2 - ((e1 - e3) / (e2 - e3)) ** 3) < 1e-9
            assert abs(cc.sqrt_a2b2 ** 2 - cc.alpha2 * cc.beta2) < 1e-12

    def test_mixed_identity(self):
        # (A1/a1 p1 + B1/b1 p0)(A1/a1 p1 - B1/b1 p0) = p2^2
        for lat in (L_SQ, L_HEX, L_GEN):
            emb = c2c2_translation(lat)
            p0, p1, p2 = p_small(emb)
            cc = c2c2_constants(lat)
            rng = np.random.default_rng(15)
            z = sample_points(p0.lattice, 30, rng, avoid=p0.poles, margin=0.08)
            u = cc.A1 / cc.alpha1 * p1(z)
            v = cc.B1 / cc.beta1 * p0(z)
            assert np.max(np.abs((u + v) * (u - v) - p2(z) ** 2)) < 1e-7
            lhs = (u - v) * (cc.A1 * p0(z) + cc.B1 * p1(z))
            assert np.max(np.abs(lhs - (p0(z) * p1(z) + cc.sqrt_a2b2))) < 1e-7

    def test_matched_constants_equal_scalar_evaluations(self):
        # one wp call on the three half periods gives the values of three
        # scalar calls bit for bit: wp does not depend on the batch
        for lat in (L_SQ, L_HEX, L_GEN):
            emb = c2c2_translation(lat)
            slat = Lattice(emb.tau)
            s1, s2 = _half_periods(emb)
            e = [complex(wp_both(s, slat)[0]) for s in (s1, s2, s1 + s2)]
            expect = _constants_from_e(*e, _numeric_flip(*e, emb.tau))
            assert c2c2_constants_for(emb) == expect


def _numeric_flip(e1, e2, e3, tau) -> bool:
    """The A1/B1 sign flip as it was decided numerically, before
    c2c2_constants_for read it off the rotation matrix: A1 near i and B1
    near -1 on a hexagonal-class basis."""
    a, b = (e1 - e3) / (e2 - e3), (e1 - e2) / (e2 - e3)
    return is_hexagonal_class(tau) and abs(a ** 1.5 - 1j) < 1e-6 and abs(b ** 1.5 + 1.0) < 1e-6


def invariants_route_constants(lat: Lattice):
    """c2c2_constants as formed before it became c2c2_constants_for of the
    standard Klein generators: from e1, e2, e3 of half_period_values(lat)."""
    e = half_period_values(lat)
    return _constants_from_e(*e, _numeric_flip(*e, lat.tau))


class TestC2C2ConstantsRoutes:
    def test_equal_to_the_invariants_route(self):
        rng = np.random.default_rng(5)
        taus = [complex(x, y) for x, y in zip(rng.uniform(-2, 2, 500), rng.uniform(0.3, 3, 500))]
        # SL2(Z) images of the hexagonal tau; two of them take the
        # simultaneous sign flip of A1 and B1
        images = (((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (1, 1)),
                  ((2, 1), (1, 1)), ((1, -1), (1, 0)), ((1, 2), (1, 3)))
        taus += [moebius(m, HEX_TAU) for m in images]
        for tau in taus:
            lat = Lattice(tau)
            assert c2c2_constants(lat) == invariants_route_constants(lat), tau

    @pytest.mark.parametrize("tau", [1j, HEX_TAU], ids=["square", "hex"])
    def test_exact_flip_equals_the_numeric_probe(self, tau):
        # the flip read off the rotation matrix, against the numeric probe
        # on the e-values, for both Klein-carrying kinds on every basis
        flips = {"A4": 0, "C2xC2_translation": 0}
        images = _sl2z_images(tau, 300, seed=5)
        for t in images:
            lat = Lattice(t)
            embs = [c2c2_translation(lat)] + ([a4_group(lat)] if is_hexagonal_class(t) else [])
            for emb in embs:
                s1, s2 = _half_periods(emb)
                e = [complex(v) for v in wp_both(np.array([s1, s2, s1 + s2]), emb.lattice)[0]]
                flip = _numeric_flip(*e, emb.tau)
                assert c2c2_constants_for(emb) == _constants_from_e(*e, flip), (t, emb.kind)
                flips[emb.kind] += flip
        # A4 always flips, C2 x C2 on some hexagonal bases only, never on square ones
        if tau == HEX_TAU:
            assert flips["A4"] == len(images) and 0 < flips["C2xC2_translation"] < len(images)
        else:
            assert flips == {"A4": 0, "C2xC2_translation": 0}


class TestFitWPoly:
    def test_wp_squared(self):
        f = wp_function(L_GEN)
        w = fit_in_ring(squared(f), InvariantRing(L_GEN), 4)
        assert np.allclose(w.a, (0, 0, 1), atol=1e-8)

    def test_hauptmodul_product_is_linear(self):
        # P_-1 P_1 for N = 3 is degree one in wp of the index lattice
        emb = cn_translation(L_GEN, 3)
        ps = p_system(emb)
        prod = TorusFunction(
            lambda z: ps.values(z, (1, 2))[1] * ps.values(z, (1, 2))[2],
            ps.lattice,
            ps.orbit,
        )
        ring = quotient_scaled(emb)
        w = fit_in_ring(prod, InvariantRing(ring), 2)
        assert len(w.a) == 2 and abs(w.a[1]) > 1e-6

    def test_p0_squared_coefficients(self):
        # p0^2 = (wp_half - 4 e3) / ((e1-e3)^2 (e2-e3)^2)
        for lat in (L_GEN, L_SQ, L_HEX):
            emb = c2c2_translation(lat)
            p0, _, _ = p_small(emb)
            e1, e2, e3 = half_period_values(lat)
            half = Lattice(lat.tau, 0.5)
            w = fit_in_ring(squared(p0), InvariantRing(half), 2)
            c0 = 1.0 / ((e1 - e3) ** 2 * (e2 - e3) ** 2)
            assert len(w.a) == 2
            assert abs(w.a[1] - c0) < 1e-7 * max(1, abs(c0))
            assert abs(w.a[0] + 4 * e3 * c0) < 1e-7 * max(1, abs(4 * e3 * c0))

    def test_not_in_ring_rejected(self):
        # wp' is odd: it cannot be a polynomial in wp alone
        f = wpp_function(L_GEN)
        ring = InvariantRing(Lattice(GENERIC), "wp")
        with pytest.raises(NotInRingError):
            fit_in_ring(f, ring, 4)
