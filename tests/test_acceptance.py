"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are fixed here, not configurable: they are the contract.
"""

import numpy as np

from toruslie.classify import classify, cross_validate
from toruslie.elliptic import half_period_values, invariants, wp_both
from toruslie.funcalg import (
    c2c2_constants,
    fit_lambda_mu,
    p_small,
    p_system,
    residue_at,
    sample_points,
)
from toruslie.intertwine import phi, psi
from toruslie.lattice import (
    HEX_TAU,
    Lattice,
    TorsionPoint,
    moebius,
    transport_torsion,
)
from toruslie.normalform import check_triple, normal_form
from toruslie.sl2rep import standard_rep
from toruslie.torusgroup import (
    a4_group,
    branch_points,
    c2c2_translation,
    catalog,
    cl_rotation,
    cn_translation,
    dn_group,
)
from test_funcalg import orbit_sum
from test_intertwine import check_intertwining

GENERIC = complex(0.31, 1.07)
SQUARE = Lattice(1j)
HEX = Lattice(HEX_TAU)
GEN = Lattice(GENERIC)
THREE = [SQUARE, HEX, GEN]
W3 = np.exp(2j * np.pi / 3)


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {label}: {status} {detail}")
    assert ok, f"criterion {num} ({label}) failed {detail}"


def seeded_cell_points(tau, n, seed, margin):
    rng = np.random.default_rng(seed)
    return sample_points(Lattice(tau), n, rng, avoid=(0j,), margin=margin)


def test_criterion_01_differential_equation():
    worst = 0.0
    for lat in THREE:
        inv = invariants(lat)
        # conditioning: |wp|^3 * eps grows near the poles, so the seeded
        # points keep a moderate distance from the lattice
        z = seeded_cell_points(lat.tau, 100, 11, margin=0.15)
        w, wq = wp_both(z, lat)
        worst = max(worst, float(np.max(np.abs(wq ** 2 - (4 * w ** 3 - inv.g2 * w - inv.g3)))))
    report(1, "Weierstrass differential equation", worst < 1e-8, f"max residual {worst:.2e}")


def test_criterion_02_special_invariants():
    g3_i = abs(invariants(SQUARE).g3)
    g2_h = abs(invariants(HEX).g2)
    R = 300
    a = np.arange(-R, R + 1)
    ax, bx = np.meshgrid(a, a)
    om = (ax + bx * 1j).ravel()
    om = om[np.abs(om) > 1e-12]
    oracle = 60.0 * np.sum(om ** -4.0)
    rel = abs(invariants(SQUARE).g2 - oracle) / abs(oracle)
    ok = g3_i < 1e-10 and g2_h < 1e-10 and rel < 1e-5
    report(2, "special invariants and lattice-sum oracle", ok,
           f"|g3(i)|={g3_i:.1e} |g2(hex)|={g2_h:.1e} rel={rel:.1e}")


def test_criterion_03_half_period_algebra():
    rng = np.random.default_rng(12)
    ok = True
    detail = []
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.8))
        inv = invariants(Lattice(tau))
        e1, e2, e3 = half_period_values(Lattice(tau))
        s1 = abs(e1 + e2 + e3)
        s3 = abs(e1 * e2 * e3 - inv.g3 / 4)
        ok = ok and s1 < 1e-10 and s3 < 1e-9 and abs(inv.discriminant) > 1e-8
        detail.append(s1)
    report(3, "half-period symmetric functions on 10 random lattices", ok,
           f"max e-sum {max(detail):.1e}")


def test_criterion_04_p_function_suite():
    ok = True
    worst_res = 0.0
    worst_parity = 0.0
    worst_p0 = 0.0
    for n in (3, 4, 5, 6):
        emb = cn_translation(GEN, n)
        ps = p_system(emb)
        rng = np.random.default_rng(100 + n)
        z = sample_points(ps.lattice, 60, rng, avoid=ps.orbit, margin=0.05)
        # the float orbit sum sum_k v(z - k alpha), which values' exact
        # zeros at j = 0 stand for
        worst_p0 = max(worst_p0, float(np.max(np.abs(orbit_sum(ps, z, (0,))[0][0]))))
        vals = ps.values(z, tuple(range(n)))
        negs = ps.values(-z, tuple(range(n)))
        for j in range(1, n):
            res = residue_at(ps.pj(j), 0.0)
            expect = -2.0 + 2.0 * np.cos(2 * np.pi * j / n)
            worst_res = max(worst_res, abs(res - expect))
            worst_parity = max(
                worst_parity, float(np.max(np.abs(negs[j] + vals[(-j) % n])))
            )
    ok = worst_p0 < 1e-9 and worst_res < 1e-6 and worst_parity < 1e-8
    report(4, "orbit pole functions: P0, residues, parity", ok,
           f"P0 sup {worst_p0:.1e}, residue {worst_res:.1e}, parity {worst_parity:.1e}")


def test_criterion_05_lambda_mu():
    ok = True
    details = []
    for n, j in ((5, 1), (5, 2), (4, 1), (3, 1), (6, 1)):
        emb = cn_translation(GEN, n)
        lam, mu = fit_lambda_mu(emb, j, tol=1e-7)
        ps = p_system(emb)
        rng = np.random.default_rng(200 + n)
        z = sample_points(ps.lattice, 20, rng, avoid=ps.orbit, margin=0.1)
        vals = ps.values(z, sorted({j % n, (-j) % n, (2 * j) % n, (-2 * j) % n}))
        lhs = vals[(2 * j) % n] * vals[(-j) % n] ** 2 - vals[(-2 * j) % n] * vals[j % n] ** 2
        rhs = lam * vals[(-j) % n] * vals[j % n] + mu
        res = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
        mu_ok = abs(mu) > 1e-9
        ok = ok and res < 1e-7 and mu_ok
        details.append(res)
    report(5, "linear relation constants on held-out points", ok,
           f"max residual {max(details):.1e}, mu nonzero in all cases")


def test_criterion_06_intertwiners():
    ok = True
    details = []
    # cyclic translations, including covers for the even orders
    for n in (3, 4, 5, 6):
        emb = cn_translation(GEN, n)
        m = phi(emb, 1)
        rng = np.random.default_rng(300 + n)
        z = sample_points(m.lattice, 50, rng, avoid=m.poles, margin=0.08)
        v = m(z)
        det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
        det_res = float(np.max(np.abs(det - 1)))
        tw = m.meta["twist_order"]
        w = np.exp(2j * np.pi / tw)
        dmat = np.diag([w, 1 / w])
        equi = float(np.max(np.abs(m(z + m.meta["alpha"]) - np.einsum("ab,zbc->zac", dmat, v))))
        s_mat = np.array([[0, 1], [1, 0]], dtype=complex)
        d_mat = np.diag([-1.0, 1.0]).astype(complex)
        flip = float(np.max(np.abs(m(-z) - np.einsum("ab,zbc,cd->zad", s_mat, v, d_mat))))
        ok = ok and det_res < 1e-8 and equi < 1e-8 and flip < 1e-8
        details.append(max(det_res, equi, flip))
    # Klein intertwiner on three lattices
    for lat in THREE:
        emb = c2c2_translation(lat)
        m = psi(emb)
        rng = np.random.default_rng(310)
        z = sample_points(m.lattice, 40, rng, avoid=m.poles, margin=0.08)
        det_res = float(np.max(np.abs(np.linalg.det(m(z)) - 1)))
        rep = standard_rep(emb)
        equi = check_intertwining(m, rep, None, emb, 40, seed=5)
        ok = ok and det_res < 1e-8 and equi < 1e-8
        details.append(max(det_res, equi))
    # order-3 invariance of the Cartan column on the hexagonal torus
    a4 = a4_group(HEX)
    m = psi(a4)
    rep = standard_rep(a4)
    s = a4.generators[0]
    rho_s = rep[a4.elements.index(s)]
    rng = np.random.default_rng(320)
    z = sample_points(m.lattice, 40, rng, avoid=m.poles, margin=0.08)
    h_col = m(z)[..., :, 0]
    h_res = float(
        np.max(np.abs(np.einsum("ab,zb->za", rho_s, h_col) - m(s.apply(z))[..., :, 0]))
    )
    ok = ok and h_res < 1e-8
    report(6, "intertwiner determinants and equivariance", ok,
           f"max residual {max(details + [h_res]):.1e}")


def test_criterion_07_normal_forms():
    ok = True
    worst = {"he": 0.0, "hf": 0.0, "ef": 0.0, "ef_exact": 0.0, "inv": 0.0}
    for lat in THREE:
        for emb in catalog(lat):
            br, inv_res = check_triple(normal_form(emb))
            worst["he"] = max(worst["he"], br["he"])
            worst["hf"] = max(worst["hf"], br["hf"])
            worst["ef"] = max(worst["ef"], br["ef"])
            worst["ef_exact"] = max(worst["ef_exact"], br["ef_exact"])
            worst["inv"] = max(worst["inv"], inv_res)
    ok = (
        worst["he"] < 1e-7
        and worst["hf"] < 1e-7
        and worst["ef"] < 1e-7
        and worst["ef_exact"] < 1e-6
        and worst["inv"] < 1e-8
    )
    report(7, "normal-form brackets, exact structure and invariance", ok,
           " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_08_classification_table():
    rows = [
        (cl_rotation(GEN, 2), "SFamily", 3),
        (cl_rotation(HEX, 3), "Onsager", 2),
        (cl_rotation(SQUARE, 4), "Onsager", 2),
        (cl_rotation(HEX, 6), "Onsager", 2),
        (cn_translation(GEN, 2), "CurrentAlgebra", 0),
        (cn_translation(GEN, 3), "CurrentAlgebra", 0),
        (cn_translation(GEN, 4), "CurrentAlgebra", 0),
        (cn_translation(GEN, 5), "CurrentAlgebra", 0),
        (cn_translation(GEN, 6), "CurrentAlgebra", 0),
        (cn_translation(GEN, 7), "CurrentAlgebra", 0),
        (c2c2_translation(GEN), "CurrentAlgebra", 0),
        (dn_group(GEN, 2), "SFamily", 3),
        (dn_group(GEN, 3), "SFamily", 3),
        (dn_group(GEN, 4), "SFamily", 3),
        (dn_group(GEN, 5), "SFamily", 3),
        (a4_group(HEX), "Onsager", 2),
    ]
    ok = True
    for emb, kind, count in rows:
        cls = classify(emb)
        ok = ok and cls.kind == kind and cls.branch_count == count
        ok = ok and branch_points(emb)[0] == count
    # abelianisation equals branch count for every catalog case
    for lat in THREE:
        for emb in catalog(lat):
            cv = cross_validate(emb)
            ok = ok and cv.abel_dim == cv.classification.branch_count
            ok = ok and cv.passed
    report(8, "classification table and abelianisation", ok)


def test_criterion_09_homothety():
    rng = np.random.default_rng(13)
    ok = True
    worst = 0.0
    count = 0
    while count < 5:
        m = np.eye(2, dtype=int)
        for _ in range(5):
            m = m @ np.array([[1, int(rng.integers(-2, 3))], [0, 1]])
            if rng.random() < 0.6:
                m = m @ np.array([[0, -1], [1, 0]])
        if np.array_equal(m, np.eye(2, dtype=int)):
            continue
        count += 1
        mt = ((int(m[0, 0]), int(m[0, 1])), (int(m[1, 0]), int(m[1, 1])))
        tau2 = moebius(mt, GENERIC)

        shift = TorsionPoint(1, 0, 3)
        a = classify(cn_translation(GEN, 3, shift))
        b = classify(cn_translation(Lattice(tau2), 3, transport_torsion(shift, mt)))
        ok = ok and a.kind == b.kind
        worst = max(worst, abs(a.j_invariant - b.j_invariant) / max(1, abs(a.j_invariant)))

        shift = TorsionPoint(1, 1, 2)
        a = classify(dn_group(GEN, 2, shift))
        b = classify(dn_group(Lattice(tau2), 2, transport_torsion(shift, mt)))
        ok = ok and a.kind == b.kind
        worst = max(worst, abs(a.j_invariant - b.j_invariant) / max(1, abs(a.j_invariant)))
    ok = ok and worst < 1e-7
    report(9, "homothety invariance of the classification", ok, f"max rel j diff {worst:.1e}")


def test_criterion_10_negative_controls():
    # perturbed generator against the exact structure polynomial
    gens = normal_form(cn_translation(GEN, 3))
    f0 = gens.F.fn
    gens.F.fn = lambda z: 1.01 * f0(z)
    pert_res = check_triple(gens)[0]["ef_exact"]

    # sign-flipped intertwiner column: breaks unimodularity
    m = phi(cn_translation(GEN, 3), 1)
    rng = np.random.default_rng(14)
    z = sample_points(m.lattice, 20, rng, avoid=m.poles, margin=0.1)
    v = m(z)
    v[..., :, 1] *= -1
    det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
    det_res = float(np.min(np.abs(det - 1)))

    ok = pert_res > 1e-3 and det_res > 1e-3
    report(10, "negative controls are detected", ok,
           f"perturbed bracket {pert_res:.1e}, flipped-column det {det_res:.1e}")


def p0_squared_residual(lat: Lattice, c0_scale: float = 1.0) -> float:
    """max |p0^2 - c0 (wp_half - 4 e3)| / |c0 (wp_half - 4 e3)| at 40 seeded
    points, c0 = c0_scale / ((e1-e3)^2 (e2-e3)^2), wp_half the wp of the
    half lattice: a relative residual per point, so that a change of c0
    reads as its own size."""
    p0, _, _ = p_small(c2c2_translation(lat))
    e1, e2, e3 = half_period_values(lat)
    c0 = c0_scale / ((e1 - e3) ** 2 * (e2 - e3) ** 2)
    z = sample_points(p0.lattice, 40, np.random.default_rng(15), avoid=p0.poles, margin=0.12)
    rhs = c0 * (wp_both(z, Lattice(lat.tau, 0.5))[0] - 4 * e3)
    return float(np.max(np.abs(p0(z) ** 2 - rhs) / np.abs(rhs)))


def test_criterion_11_klein_constants():
    # alpha1 * beta1 = 1 characterises the hexagonal class (the derivation
    # uses the order-3 rotation), so the ten lattices are hexagonal-class
    # representatives reached by modular transformations
    rng = np.random.default_rng(15)
    ok = True
    worst = 0.0
    for _ in range(10):
        m = np.eye(2, dtype=int)
        for _ in range(4):
            m = m @ np.array([[1, int(rng.integers(-2, 3))], [0, 1]])
            if rng.random() < 0.5:
                m = m @ np.array([[0, -1], [1, 0]])
        mt = ((int(m[0, 0]), int(m[0, 1])), (int(m[1, 0]), int(m[1, 1])))
        tau = moebius(mt, HEX_TAU)
        cc = c2c2_constants(Lattice(tau))
        worst = max(worst, abs(cc.alpha1 * cc.beta1 - 1.0))
    ok = ok and worst < 1e-9

    cc = c2c2_constants(HEX)
    ok = ok and abs(cc.alpha1 - W3) < 1e-9

    # p0^2 = (wp_half - 4 e3) / ((e1-e3)^2 (e2-e3)^2) pointwise, on all
    # three reference lattices
    p0_res = max(p0_squared_residual(lat) for lat in THREE)
    ok = ok and p0_res < 1e-7
    report(11, "Klein-quartet constants", ok,
           f"|a1*b1-1| max {worst:.1e}, p0^2 relative residual {p0_res:.1e}")


def test_criterion_11_catches_a_perturbed_c0():
    # c0 off by 1e-6 reads about 1e-6, over the criterion's 1e-7
    assert all(p0_squared_residual(lat, 1.0 + 1e-6) > 1e-7 for lat in THREE)
