"""The function algebra of a punctured torus and its equivariant elements.

The invariant rings of the symmetry cases are one-variable: C[x] with x
one of wp, wp', wp^2 or wp^3 of a lattice.  WPoly holds the coefficients
of a polynomial a(x) in that variable; TorusFunction is the numeric side:
an evaluator, scalar- or matrix-valued, together with its declared poles,
which every sampling routine respects.

The construction kernels live here as well: the character projections P_j
of wp'/(wp - wp(alpha)) attached to a cyclic translation group (simple
poles on the orbit of the origin, residue -2 + 2 cos(2 pi j / N) at the
origin), evaluated not as that orbit sum but as Kronecker's theta quotient
on the ring lattice L + Z alpha (D. Zagier, Invent. Math. 104 (1991) 449;
theta1 from its q-series, DLMF 20.2.1), the linear relation
P_2j P_-j^2 - P_-2j P_j^2 = lam * P_-j P_j + mu, whose constants lambda_mu
reads off the theta quotients' Laurent series at z = 0 and fit_lambda_mu fits
from sampled values, the quartet of odd half-period functions built from 1/wp',
and the half-period constants entering the 3x3 intertwiner.  p0, p1 and p2 are
the rows of one stack from one 1/wp' evaluation, which psi reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import _theta, _theta_series, _theta_terms, wp_both
from .lattice import Lattice, TorsionPoint, _centred, _coordinates, _folded_coordinates, _hnf_2col
from .lattice import _reduce_torsion, fold_far
from .lattice import is_hexagonal_class, moebius, reduce_modular, shortest_period, torus_reduce_centered
from .torusgroup import GroupEmbedding, c2c2_translation, mult_matrix

__all__ = [
    "C2C2Constants",
    "FIT_TOL",
    "FitError",
    "InvariantRing",
    "NotInRingError",
    "PSystem",
    "TorusFunction",
    "WPoly",
    "c2c2_constants",
    "c2c2_constants_for",
    "fit_in_ring",
    "fit_lambda_mu",
    "lambda_mu",
    "p_small",
    "p_system",
    "residue_at",
    "sample_points",
    "torus_distance",
]

#: bound of a ring fit's held-out residual, per point and relative
FIT_TOL = 1e-6
#: sample draws of the lambda/mu fit before it gives up
FIT_RETRIES = 8
#: held-out points of each lambda/mu draw
FIT_HOLDOUT = 20
#: trapezoidal nodes of residue_at's contour
RESIDUE_NODES = 128
#: the shares of its margin that sample_points tries in turn
_MARGIN_SHARES = (1.0, 0.75, 0.55, 0.4, 0.25)


class FitError(RuntimeError):
    """A linear fit could not be stabilised within the retry budget."""


class NotInRingError(ValueError):
    """Held-out residual of a ring fit exceeded the threshold."""


# ---------------------------------------------------------------------------
# polynomials in a ring variable


def _poly_trim(p):
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class WPoly:
    """The coefficients of a polynomial a(x) in a ring variable x, the values
    InvariantRing.from_wp gives, ascending in degree.  It holds them only:
    numpy.polynomial.polynomial.polyval(x, poly.a) evaluates it."""

    a: tuple = ()


# ---------------------------------------------------------------------------
# numeric functions on the torus


def _shifted(z: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """z - s for every shift s, stacked on a new leading axis."""
    return z[None, ...] - shifts.reshape((-1,) + (1,) * z.ndim)


def _last_points_memo(fn):
    """fn remembering its value at the last point array it was called on.

    The three generators of a normal-form triple run in turn on the same
    points and share one such evaluation of their frame.  The key is the
    array's dtype, shape and bytes, never its identity, so a reused buffer
    with new contents misses.  Callers must not write into the returned
    value.
    """
    last_key = None
    last_value = None

    def memo(z):
        nonlocal last_key, last_value
        key = (z.dtype.str, z.shape, z.tobytes())
        if key != last_key:
            last_value = fn(z)
            last_key = key
        return last_value

    return memo


def torus_distance(z, p, lattice: Lattice) -> np.ndarray:
    """Distance from z to p modulo the lattice; z and p broadcast
    against each other."""
    zz = np.asarray(z, dtype=complex) - p
    return np.abs(lattice.scale) * np.abs(torus_reduce_centered(zz / lattice.scale, lattice.tau))


@dataclass
class TorusFunction:
    """Evaluator plus declared pole data for a meromorphic function whose
    values have the given shape: () for scalars, (d, d) for matrices.

    fn maps a 1-d point array to values of shape (n,) + shape.  ``poles``
    are representatives modulo the carrying lattice, supplied by the
    construction, never inferred; ``meta`` holds its constants.
    """

    fn: object
    lattice: Lattice
    poles: tuple = ()
    shape: tuple = ()
    meta: dict = field(default_factory=dict)

    def __call__(self, z):
        zz = fold_far(z, self.lattice)
        out = self.fn(np.atleast_1d(zz))
        if zz.ndim == 0:
            return out[0] if self.shape else complex(out[0])
        return out.reshape(zz.shape + self.shape)


def sample_points(
    lattice: Lattice, n: int, rng: np.random.Generator, avoid=(), *, margin: float
) -> np.ndarray:
    """Seeded points of the fundamental cell, rejection-sampled to keep a
    margin (as a fraction of the shortest period) from every avoided point.

    Each round draws m = max(2 (n - kept), 16) values for s, then m for t,
    and keeps, in draw order, each scale * (s + t tau) that clears the
    margin.  The test runs in coordinates over (1, tau), with differences
    to the avoided points reduced to [-1/2, 1/2) as torus_distance reduces
    them; only kept points are formed.  Where 200 rounds keep fewer than
    n points, the draw starts over on the same rng at 0.75, 0.55, 0.4 and
    0.25 of the margin: spread-out orbits can use up the cell at the
    preferred margin, and the residual targets are calibrated for the
    catalogued shifts.  FitError if every share starves."""
    if n < 1:
        raise ValueError(f"need at least one sample point, got {n}")
    tau = lattice.tau
    w = np.asarray(list(avoid), dtype=complex)[:, None] / lattice.scale
    s_avoid, t_avoid = _coordinates(w, tau)
    for factor in _MARGIN_SHARES:
        limit = margin * factor * shortest_period(tau)
        out: list[complex] = []
        for _ in range(200):
            m = max(2 * (n - len(out)), 16)
            s = rng.random(m)
            t = rng.random(m)
            if w.size:
                keep = np.abs(_centred(s - s_avoid, t - t_avoid, tau)).min(axis=0) >= limit
                s, t = s[keep], t[keep]
            out.extend((lattice.scale * (s + t * tau)).tolist())
            if len(out) >= n:
                return np.asarray(out[:n], dtype=complex)
    raise FitError("no sampling margin admits points away from the pole orbit")


# ---------------------------------------------------------------------------
# character projections and the P_j system


class PSystem:
    """The family P_j attached to a cyclic translation by an n-torsion point.

    The shift is the integer triple (a, b, n) of the point
    alpha = scale * (a + b*tau)/n; it is gcd-reduced here, so n is its exact
    order.  P_j = sum_k w^(-kj) v(z - k alpha) with v = wp'/(wp - wp(alpha))
    and w = exp(2 pi i/n); the lattice L may be scaled (used for the
    even-order double covers).  P_j is L-periodic, takes the factor
    chi_j(alpha) = w^-j under z -> z + alpha, and has simple poles exactly on
    the ring lattice Lam = L + Z alpha, of residue 2 cos(2 pi j/n) - 2 at 0.  So
    it is that multiple of Kronecker's function (D. Zagier, Invent. Math.
    104 (1991) 449):

        P_j(z) = (2 cos(2 pi j/n) - 2)/om1 chi_j(lam) e^(2 pi i c_j u) F(u, v_j | T),
        F(u, v | T) = theta1'(0) theta1(u + v) / (theta1(u) theta1(v)),

    theta1 of Z + Z*T as in DLMF 20.2.1 (its argument times pi), with
    (om1, om1 T) the reduced basis of Lam, z/om1 = u + lam/om1 and u in
    the centred cell of (1, T), and c_j, v_j = c_j T - d_j fixed by
    e^(2 pi i c_j) = chi_j(om1), e^(2 pi i d_j) = chi_j(om1 T), |c_j| <= 1/2.
    lambda_mu reads its Laurent coefficients off the same quotients; orbit
    holds the poles k alpha, k = 0..n-1, centred.
    """

    def __init__(self, lattice: Lattice, shift: tuple[int, int, int]):
        a, b, n = _reduce_torsion(*shift)
        if n < 2:
            raise ValueError("P functions need a translation of order >= 2")
        self.lattice = lattice
        self.n = n
        # a/n and b/n round on their own: (a + b*tau)/n rounds differently
        self.alpha = lattice.scale * (complex(a / n) + complex(b / n) * lattice.tau)
        tau = lattice.tau
        ks = np.arange(n) * self.alpha / lattice.scale
        self.orbit = tuple((lattice.scale * torus_reduce_centered(ks, tau)).tolist())
        # Lam over (scale/n, scale tau/n): _hnf_2col's basis (g, y), (0, h),
        # reduced by reduce_modular's matrix to (p1, q1), (p2, q2) of
        # determinant n, whose adjugate maps L's coordinates to Lam's; each
        # period's real part is rounded once, from the exact p + q Re tau
        (g, y), (_, h) = _hnf_2col([(n, 0), (0, n), (a, b)])
        (ra, rb), (rc, rd) = reduce_modular(moebius(((h, 0), (y, g)), tau)).transform
        (p1, q1), (p2, q2) = (rd * g, rd * y + rc * h), (rb * g, rb * y + ra * h)
        self._to_ring = ((q2, -p2), (-q1, p1))
        num, den = tau.real.as_integer_ratio()
        # n om1 / scale and n om1 T / scale
        w1, w2 = (complex((p * den + q * num) / den, q * tau.imag) for p, q in ((p1, q1), (p2, q2)))
        self._T = w2 / w1
        self._theta = _theta(self._T)
        # (p, q) in Lam is m alpha mod L, m its multiple of (a, b) mod n
        self._m = [next(m for m in range(n) if (p - m * a) % n == (q - m * b) % n == 0)
                   for p, q in ((p1, q1), (p2, q2))]
        # row j of P_j's constants, c_j centred; row 0 doubles as that of
        # e^(2 pi i u) = b^n
        js = np.arange(n)
        half = (n - 1) // 2
        c = (half - self._m[0] * js) % n - half
        self._exponent = np.where(js == 0, n, c)
        self._y = np.exp((c * self._T - (-self._m[1] * js) % n) * (2j * math.pi / n))
        roots = np.exp((-2j * math.pi / n) * js)
        const = np.zeros(n, dtype=complex)
        factor = self._theta.prime * n / (lattice.scale * w1)
        const[1:] = (2.0 * roots.real[1:] - 2.0) * factor / _theta_series(self._y[1:], self._theta)
        # [j, m]: P_j's constant times chi_j(lam) = w^(-j m), m = lam's multiple of alpha mod n
        self._const_chi = const[:, None] * roots[np.multiply.outer(js, js) % n]

    def values(self, z, js) -> dict:
        """P_j(z) for each j in js, as Kronecker theta quotients: every j of
        one call in one stacked elementwise pass, so a point's value does not
        depend on which other points share the call.

        z moves into Lam's centred cell through its coordinates over L's
        basis and the exact integer matrix to Lam's.  The one exp per point
        is b = e^(2 pi i u/n); e^(2 pi i u) = b^n and e^(2 pi i c_j u) =
        b^(n c_j) are integer powers of it.  F is kappa R(e^(2 pi i u) y_j) /
        (R(e^(2 pi i u)) R(y_j)), with y_j = e^(2 pi i v_j), kappa =
        theta1'(0) / (i q^(1/4)) and the series R of _theta_series, whose
        arguments stay where it converges: |Im u| and |Im v_j| are at most
        Im T/2.  j = 0 mod n gives exact zeros, its residue factor being 0.
        """
        _, s, t = _folded_coordinates(np.atleast_1d(z), self.lattice.tau, self.lattice.scale)
        js = tuple(dict.fromkeys(js))  # a repeated j, as Phi's (j, -j, 2j, -2j) mod 3 or 4, once
        n = self.n
        (a11, a12), (a21, a22) = self._to_ring
        x, y = a11 * s + a12 * t, a21 * s + a22 * t
        # u = x + y T centred; lam = k1 om1 + k2 om2, the whole numbers removed
        xc, yc = x.copy(), y.copy()
        u = _centred(xc, yc, self._T)
        k1, k2 = x - xc, y - yc
        rows = (np.array((0, *js), dtype=int) % n).reshape((-1,) + (1,) * u.ndim)
        with np.errstate(all="ignore"):
            powers = np.power(np.exp((2j * math.pi / n) * u), self._exponent[rows])
            r = _theta_series(powers[0] * self._y[rows], self._theta)
            const_chi = self._const_chi[rows[1:], (k1 * self._m[0] + k2 * self._m[1]).astype(int) % n]
            # this order keeps every factor finite while e^(2 pi i u) y_j is:
            # up to Im T of about 113 at |c_j| = 1/2, and about 225 at c_j = 0
            out = r[1:] / r[0] * const_chi * powers[1:]
        if not np.isfinite(out).all():
            raise ValueError(
                "P_j is not finite: a point on a pole, a non-finite point, or a ring"
                f" lattice too tall for float64 (Im T = {self._T.imag:.4g})"
            )
        return dict(zip(js, out))

    def pj(self, j: int) -> TorusFunction:
        jj = j % self.n
        if jj == 0:
            return TorusFunction(lambda z: np.zeros_like(z, dtype=complex), self.lattice, ())
        return TorusFunction(lambda z, _j=j: self.values(z, (_j,))[_j], self.lattice, self.orbit)


def p_system(emb: GroupEmbedding) -> PSystem:
    """The P_j family of a C_N translation or of the translations of D_N."""
    if emb.kind not in ("CN_translation", "DN"):
        raise ValueError("P functions are attached to cyclic translations")
    return PSystem(emb.lattice, emb.cyclic_generator.key[2:])


def fit_lambda_mu(emb: GroupEmbedding | PSystem, j: int, *, seed: int = 0, tol: float = 1e-7):
    """Constants (lam, mu) with P_2j P_-j^2 - P_-2j P_j^2 = lam P_-j P_j + mu,
    fitted from sampled values: the route independent of lambda_mu.

    The P_j are those of p_system(emb), or of emb itself when it is a
    PSystem of order n; j must be coprime to n, as standard_rep requires
    of a character index.  phi takes its constants from lambda_mu on its
    own PSystem, the index-two cover at even orders; so for even N
    fit_lambda_mu(emb, j), which the constants command reports, is not the
    lam, mu of phi(emb, j), and for odd N the two agree within the fit's
    held-out residual tol.  Two-point linear solve plus FIT_HOLDOUT
    held-out points; ill-conditioned draws are resampled up to FIT_RETRIES
    draws.  When n >= 3 the constant mu is asserted nonzero.
    """
    ps = emb if isinstance(emb, PSystem) else p_system(emb)
    n = ps.n
    if math.gcd(j, n) != 1:
        raise ValueError(f"character index {j} is not coprime to {n}")
    rng = np.random.default_rng(seed)
    js = sorted({j % n, (-j) % n, (2 * j) % n, (-2 * j) % n})
    last_res = np.inf
    for _ in range(FIT_RETRIES):
        z = sample_points(ps.lattice, 2 + FIT_HOLDOUT, rng, avoid=ps.orbit, margin=0.08)
        v = ps.values(z, js)
        lhs = v[(2 * j) % n] * v[(-j) % n] ** 2 - v[(-2 * j) % n] * v[j % n] ** 2
        basis = v[(-j) % n] * v[j % n]
        det = basis[0] - basis[1]
        scale = max(1.0, float(np.max(np.abs(basis[:2]))))
        if abs(det) < 1e-8 * scale:
            continue
        lam = (lhs[0] - lhs[1]) / det
        mu = lhs[0] - lam * basis[0]
        res = np.max(np.abs(lhs[2:] - (lam * basis[2:] + mu)))
        res /= max(1.0, float(np.max(np.abs(lhs[2:]))))
        if res < tol:
            if n >= 3 and abs(mu) <= 1e-9:
                raise FitError(f"mu unexpectedly vanishes (N={n}, j={j})")
            return complex(lam), complex(mu)
        last_res = res
    raise FitError(f"lambda/mu fit failed; final residual {last_res:.3g}")


#: lambda_mu's moment powers p, p!, and lower triangular Toeplitz indices
_POWERS = np.arange(5)[:, None, None]
_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0, 24.0])[:, None, None]
_TOEPLITZ = np.where(np.tri(4, dtype=bool), np.subtract.outer(range(4), range(4)), 4)


def _laurent_lambda_mu(ps: PSystem, j: int) -> tuple[complex, complex, float]:
    """lambda_mu's (lam, mu) and the rounding bound of mu."""
    if (2 * j) % ps.n == 0:
        raise ValueError(f"character index {j} has 2j = 0 mod {ps.n}: the corner column degenerates")
    rows = np.array((0, j, -j, 2 * j, -2 * j)) % ps.n
    q, y = ps._theta.q, ps._y[rows]
    # k = -m, m + 1 for m = 0..M + 1, one past _theta_series for the weight k^4:
    # a_k y^k = (-1)^m q^(m^2) (q/y)^m, -(-1)^m q^(m^2) y (q y)^m, finite at |q| <= |y| <= 1/|q|
    ms = np.arange(_theta_terms(abs(q)) + 2)[:, None]
    qm = np.array([(-1) ** m * q ** (m * m) for m in ms[:, 0]])[:, None]
    terms = np.concatenate((qm * (q / y) ** ms, -qm * y * (q * y) ** ms))
    c = np.where(rows == 0, 0, ps._exponent[rows]) / ps.n  # R(e^s) has c = 0
    terms = (np.concatenate((-ms, ms + 1)) + c) ** _POWERS / _FACTORIALS * terms
    moments, moments_abs = terms.sum(axis=1), np.abs(terms).sum(axis=1)
    # dividing by R(e^s)/s, y_0 = 1: the inverse of its lower triangular Toeplitz matrix
    inverse = np.linalg.inv(np.append(moments[1:, 0], 0.0)[_TOEPLITZ])
    laurent = ps._const_chi[rows[1:], 0] * (inverse @ moments[:4, 1:])
    size = np.abs(ps._const_chi[rows[1:], 0]) * (np.abs(inverse) @ moments_abs[:4, 1:])

    def sides(pj, pmj, p2j, pm2j, sign):
        # the left side's coefficients from s^-3 on, P_-j P_j's from s^-2 on
        cube = lambda a, b: np.convolve(a, np.convolve(b, b))
        return cube(p2j, pmj) + sign * cube(pm2j, pj), np.convolve(pmj, pj)

    lhs, basis = sides(*laurent.T, -1)
    lam = lhs[1] / basis[0]
    mu = lhs[3] - lam * basis[2]
    size_lhs, size_basis = sides(*size.T, 1)
    return lam, mu, np.finfo(float).eps * (size_lhs[3] + abs(lam) * size_basis[2])


def lambda_mu(ps: PSystem, j: int) -> tuple[complex, complex]:
    """Constants (lam, mu) with P_2j P_-j^2 - P_-2j P_j^2 = lam P_-j P_j + mu,
    read off the Laurent expansions at z = 0 of PSystem.values' theta quotients.

    Near 0, with s = 2 pi i u, P_i = const_i e^(c_i s) R(e^s y_i) / R(e^s) for
    _Theta's series R(W) = sum_k a_k W^k, and e^(c s) R(e^s y) = sum_p E_p s^p
    with the moments E_p(y, c) = sum_k a_k y^k (k + c)^p / p!, E_0(1, 0) = R(1) = 0.
    One stacked power-series division gives each P_i = r_i/s + A_i + B_i s + C_i s^2.
    lam is the left side's s^-2 coefficient over r_j r_-j, and mu its s^0
    coefficient minus lam times that of P_-j P_j, both the same in z.  Needs
    2j != 0 mod n.  mu is nonzero for n >= 3; a mu within eps times the same
    s^0 coefficients formed from absolute values raises FitError.
    """
    lam, mu, bound = _laurent_lambda_mu(ps, j)
    if abs(mu) <= bound:
        raise FitError(f"mu vanishes within its rounding: |mu| = {abs(mu):.3g} <= {bound:.3g}"
                       f" (twist order {ps.n}, j={j})")
    return complex(lam), complex(mu)


# ---------------------------------------------------------------------------
# contour residues


def residue_at(f: TorusFunction, p: complex) -> complex:
    """(1/2*pi*i) * contour integral of f on a circle around p.

    Trapezoidal quadrature on the circle is spectrally accurate for the
    meromorphic integrand; the radius is just under half the distance to
    the nearest other declared pole, capped well inside the fundamental
    cell.
    """
    p = complex(p)
    short = shortest_period(f.lattice.tau) * abs(f.lattice.scale)
    d = torus_distance(p, np.asarray(f.poles, dtype=complex), f.lattice)
    others = d[d > 1e-9 * short]
    radius = 0.45 * float(np.min(others, initial=short))
    if np.any(others < radius + 1e-9 * short):
        raise ValueError("contour circle intersects another declared pole")
    theta = 2.0 * math.pi * np.arange(RESIDUE_NODES) / RESIDUE_NODES
    ring = radius * np.exp(1j * theta)
    vals = f(p + ring)
    return complex(np.mean(vals * ring))


# ---------------------------------------------------------------------------
# the C2 x C2 quartet and its constants


def _half_periods(emb: GroupEmbedding) -> tuple[complex, complex]:
    """Shifts (s1, s2) of the Klein generators: the last two of a C2 x C2 or an A4 embedding."""
    if emb.kind not in ("C2xC2_translation", "A4"):
        raise ValueError("half-period data needs a C2 x C2 translation or an A4 embedding")
    r1, r2 = emb.generators[-2:]
    return complex(r1.shift.to_complex(emb.tau)), complex(r2.shift.to_complex(emb.tau))


#: the signs of (p0, p1, p2) over the shifts (0, s1, s2, s1 + s2)
_P_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])


def _p_stack(emb: GroupEmbedding) -> tuple:
    """(fn, poles): z -> the (3, n) stack (p0, p1, p2)(z), from one 1/wp'
    evaluation at the four half-period shifts; psi reads it directly."""
    s1, s2 = _half_periods(emb)
    shifts = np.array([0.0, s1, s2, s1 + s2])
    poles = tuple(complex(torus_reduce_centered(s, emb.tau)) for s in shifts)

    def fn(z):
        inv_wpp = 1.0 / wp_both(_shifted(z, shifts), emb.lattice)[1]
        out = np.zeros((3,) + z.shape, dtype=complex)
        for c, row in zip(_P_SIGNS.T, inv_wpp):
            out += c[:, None] * row
        return out

    return fn, poles


def p_small(emb: GroupEmbedding) -> tuple[TorusFunction, TorusFunction, TorusFunction]:
    """(p0, p1, p2): signed half-period averages of 1/wp', rows of _p_stack.

    p2 is even under the first Klein generator and odd under the second,
    p1 the reverse, p0 odd under both; all three are odd in z with simple
    poles on the four half-period points.  On one point array the three
    read one evaluation of the stack.
    """
    fn, poles = _p_stack(emb)
    stack = _last_points_memo(fn)
    row = lambda k: lambda z: stack(z)[k].copy()
    return tuple(TorusFunction(row(k), emb.lattice, poles) for k in range(3))


@dataclass(frozen=True)
class C2C2Constants:
    """Half-period constants of the quartet relations.

    p1^2 = alpha1 p2^2 + alpha2 and p0^2 = beta1 p2^2 + beta2; A1, B1 are
    3/2-power branches of the e-difference ratios, and sqrt_a2b2 the
    branch-consistent square root of alpha2*beta2 obtained in closed form
    as A1 B1 (alpha2/alpha1 - beta2/beta1).
    """

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex
    A1: complex
    B1: complex
    sqrt_a2b2: complex


def _constants_from_e(e1, e2, e3, flip: bool) -> C2C2Constants:
    a = (e1 - e3) / (e2 - e3)
    b = (e1 - e2) / (e2 - e3)
    alpha1 = a ** 2
    beta1 = b ** 2
    alpha2 = 4.0 / ((e1 - e2) * (e2 - e3) ** 2)
    beta2 = 4.0 / ((e1 - e3) * (e2 - e3) ** 2)
    A1 = a ** 1.5
    B1 = b ** 1.5
    if flip:
        # simultaneous sign flip: keeps A1*B1, makes the order-3 element of
        # A4 fix the Cartan generator
        A1, B1 = -A1, -B1
    sqrt_a2b2 = A1 * B1 * (alpha2 / alpha1 - beta2 / beta1)
    return C2C2Constants(alpha1, alpha2, beta1, beta2, A1, B1, sqrt_a2b2)


def c2c2_constants(lattice: Lattice) -> C2C2Constants:
    """Constants for the standard Klein generators (shifts 1/2 and tau/2)."""
    return c2c2_constants_for(c2c2_translation(lattice))


def c2c2_constants_for(emb: GroupEmbedding) -> C2C2Constants:
    """Constants matched to the embedding's own generator shifts.

    The quartet relations pair each squared projection with the value of
    wp at one specific half period: wp(s1) plays e1, wp(s2) plays e2 and
    wp(s1 + s2) plays e3.  Adapted generator choices (an A4 on a
    hexagonal basis with permuted half-period labels) permute the values
    accordingly; for the standard generators this is c2c2_constants.
    """
    s1, s2 = _half_periods(emb)
    e1, e2, e3 = (complex(e) for e in wp_both(np.array([s1, s2, s1 + s2]), emb.lattice)[0])
    # on a hexagonal-class basis w = exp(2 pi i/3) sends s1 to s2 or to
    # s1 + s2; in the second case e3 = w e1, e2 = w^2 e1, so a = exp(i pi/3)
    # gives A1 = i and B1 = -1, which flip.  a4_group puts every A4 there
    t1, t2 = (g.shift for g in emb.generators[-2:])
    w_t1 = t1.matrix_apply(mult_matrix(1, 3, emb.tau)) if is_hexagonal_class(emb.tau) else None
    return _constants_from_e(e1, e2, e3, w_t1 == TorsionPoint(t1.a + t2.a, t1.b + t2.b, 2))


# ---------------------------------------------------------------------------
# fitting numeric functions into the ring


#: variable -> (its pole order, the variable as a function of (wp, wp'))
_RING_VARIABLES = {
    "wp": (2, lambda wp, wpp: wp),
    "wp2": (4, lambda wp, wpp: wp ** 2),
    "wp3": (6, lambda wp, wpp: wp ** 3),
    "wp_prime": (3, lambda wp, wpp: wpp),
}


@dataclass(frozen=True)
class InvariantRing:
    """Descriptor of the invariant function ring of one symmetry case: the
    one-variable ring C[x], x = wp, wp^2, wp^3 or wp' of lattice."""

    lattice: Lattice
    variable: str = "wp"

    def from_wp(self, wp, wpp):
        """The ring variable x from wp and wp' of lattice."""
        return _RING_VARIABLES[self.variable][1](wp, wpp)


def _fit_shape(degree: int) -> tuple[int, int]:
    """(fit rows, held-out rows) of a ring fit of this degree."""
    return 3 * (degree + 1) + 8, max(12, degree + 5)


def _fit_points(ring: InvariantRing, degree: int, avoid, *, seed: int, margin: float) -> np.ndarray:
    """The rows a ring fit of this degree samples: fit rows, then held-out rows."""
    n_fit, n_hold = _fit_shape(degree)
    rng = np.random.default_rng(seed)
    avoid = tuple(avoid) + (0.0 + 0.0j,)
    return sample_points(ring.lattice, n_fit + n_hold, rng, avoid=avoid, margin=margin)


def _fit_values(x, rhs: np.ndarray, ring: InvariantRing, powers) -> WPoly:
    """The expansion of f in the monomials x^i, i in powers, from the ring
    variable x and f at the rows of _fit_points; x is None for a constant
    fit (powers (0,)), which reads no ring."""
    degree = max(powers)
    n_fit, _ = _fit_shape(degree)
    if x is None:
        x = np.ones(len(rhs))
    # precondition: work in x/c with c the typical magnitude, so the
    # Vandermonde columns stay O(1) even on small-covolume lattices
    c = float(np.median(np.abs(x))) or 1.0
    xs = x / c
    design = np.stack([xs ** i for i in powers], axis=1)
    w = 1.0 / np.maximum(1.0, np.abs(rhs))
    a_mat = design[:n_fit] * w[:n_fit, None]
    b_vec = rhs[:n_fit] * w[:n_fit]
    coeff, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    # one step of iterative refinement squeezes out the last digits
    coeff += np.linalg.lstsq(a_mat, b_vec - a_mat @ coeff, rcond=None)[0]
    resid = np.abs(design[n_fit:] @ coeff - rhs[n_fit:]) * w[n_fit:]
    rel = float(np.max(resid))
    if rel > FIT_TOL:
        raise NotInRingError(
            f"held-out residual {rel:.3g} exceeds {FIT_TOL:.3g} for variable {ring.variable!r}"
        )
    a = dict(zip(powers, coeff))
    return WPoly(_poly_trim(tuple(a[i] / c ** i if i in a else 0j for i in range(degree + 1))))


def fit_in_ring(f: TorusFunction, ring: InvariantRing, pole_bound: int) -> WPoly:
    """Least-squares expansion of f in the ring, with held-out validation.

    pole_bound is the declared order of f at the ring's lattice points; it
    fixes which monomials may appear.  Rows are weighted by 1/max(1, |f|)
    so the fit controls relative error where the values are large; the
    held-out residual is per-point relative on the same scale.  A residual
    above FIT_TOL means f does not live in the ring (or the bound is wrong)
    -> NotInRingError.
    """
    degree = pole_bound // _RING_VARIABLES[ring.variable][0]
    z = _fit_points(ring, degree, f.poles, seed=0, margin=0.12)
    x = ring.from_wp(*wp_both(z, ring.lattice))
    return _fit_values(x, f(z), ring, range(degree + 1))
