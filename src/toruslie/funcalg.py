"""The function algebra of a punctured torus and its equivariant elements.

Meromorphic functions on the torus holomorphic away from the origin form
the ring C[wp, wp'] modulo (wp')^2 = 4 wp^3 - g2 wp - g3.  WPoly stores a
canonical representative a(x) + b(x) y of that quotient; TorusFunction is
the numeric side: an evaluator together with its declared poles, which
every sampling routine respects.

The construction kernels live here as well: the character projections of
wp'/(wp - wp(alpha)) attached to a cyclic translation group (simple poles
on the orbit of the origin, residue -2 + 2 cos(2 pi j / N) at the origin),
the linear relation P_2j P_-j^2 - P_-2j P_j^2 = lam * P_-k P_k + mu fitted
numerically, the quartet of odd half-period functions built from 1/wp',
and the half-period constants entering the 3x3 intertwiner.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .elliptic import wp_both_scaled
from .lattice import (
    Lattice,
    ScaledLattice,
    is_hexagonal_class,
    shortest_period,
    torus_reduce_centered,
)
from .torusgroup import GroupEmbedding, c2c2_translation

__all__ = [
    "C2C2Constants",
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
    "p_small",
    "p_system",
    "residue_at",
    "sample_points",
    "torus_distance",
]

DEFAULT_MARGIN = 0.05


class FitError(RuntimeError):
    """A linear fit could not be stabilised within the retry budget."""


class NotInRingError(ValueError):
    """Held-out residual of a ring fit exceeded the threshold."""


# ---------------------------------------------------------------------------
# the quotient ring


def _poly_trim(p, tol=0.0):
    lim = max([abs(c) for c in p], default=0.0) * tol
    out = list(p)
    while out and abs(out[-1]) <= lim:
        out.pop()
    return tuple(out)


def _poly_eval(p, x):
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for c in reversed(p):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class WPoly:
    """Canonical element a(x) + b(x) y of C[x, y]/(y^2 - 4x^3 + g2 x + g3).

    Coefficients ascend in degree; x and y are the values that
    InvariantRing.values gives.
    """

    a: tuple = ()
    b: tuple = ()

    def eval_xy(self, x, y=None):
        out = _poly_eval(self.a, x)
        if self.b:
            if y is None:
                raise ValueError("y values required for a polynomial with a y part")
            out = out + _poly_eval(self.b, x) * y
        return out

    def degree(self) -> tuple[int, int]:
        return len(_poly_trim(self.a, 1e-12)) - 1, len(_poly_trim(self.b, 1e-12)) - 1

    def is_constant(self, tol=1e-9) -> bool:
        a = _poly_trim(self.a, tol)
        b = _poly_trim(self.b, tol)
        return len(a) <= 1 and len(b) == 0


# ---------------------------------------------------------------------------
# numeric functions on the torus


def _shifted(z: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """z - s for every shift s, stacked on a new leading axis."""
    return z[None, ...] - shifts.reshape((-1,) + (1,) * z.ndim)


def _last_points_memo(fn):
    """fn remembering its value at the last point array it was called on.

    Evaluators that run in turn on the same points (the three generators
    of a triple, the three half-period functions of Psi) share one such
    base evaluation.  The key is the array's dtype, shape and bytes, never
    its identity, so a reused buffer with new contents misses.  Callers
    must not write into the returned value.
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


def torus_distance(z, p, slat: ScaledLattice) -> np.ndarray:
    """Distance from z to p modulo the scaled lattice; z and p broadcast
    against each other."""
    zz = (np.asarray(z, dtype=complex) - p) / slat.scale
    return np.abs(slat.scale) * np.abs(torus_reduce_centered(zz, slat.tau))


@dataclass
class TorusFunction:
    """Evaluator plus declared pole data for a meromorphic function.

    ``poles`` are representatives modulo the carrying lattice, supplied by
    the construction, never inferred.
    """

    fn: object
    lattice: ScaledLattice
    poles: tuple = ()

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self.fn(np.atleast_1d(zz))
        return complex(out[0]) if zz.ndim == 0 else out.reshape(zz.shape)

    def __mul__(self, other: TorusFunction) -> TorusFunction:
        if other.lattice != self.lattice:
            raise ValueError("carrying lattices differ")
        return TorusFunction(
            lambda z: self.fn(z) * other.fn(z),
            self.lattice,
            tuple(dict.fromkeys(self.poles + other.poles)),
        )


def sample_points(
    slat: ScaledLattice,
    n: int,
    rng: np.random.Generator,
    avoid=(),
    margin: float = DEFAULT_MARGIN,
) -> np.ndarray:
    """Seeded points of the fundamental cell, rejection-sampled to keep a
    margin (as a fraction of the shortest period) from every avoided point."""
    short = shortest_period(slat.tau) * abs(slat.scale)
    avoid = np.asarray(list(avoid), dtype=complex)
    out: list[complex] = []
    for _ in range(200):
        m = max(2 * (n - len(out)), 16)
        s = rng.random(m)
        t = rng.random(m)
        z = slat.scale * (s + t * slat.tau)
        if avoid.size:
            d = torus_distance(z[None, :], avoid[:, None], slat).min(axis=0)
            z = z[d >= margin * short]
        out.extend(z.tolist())
        if len(out) >= n:
            return np.asarray(out[:n], dtype=complex)
    raise FitError("rejection sampling starved; margin too large for the pole set")


# ---------------------------------------------------------------------------
# character projections and the P_j system


class PSystem:
    """The family P_j attached to a cyclic translation by an n-torsion point.

    P_j = sum_k w^(-kj) v(z - k alpha) with v = wp'/(wp - wp(alpha)); the
    lattice may be scaled (used for the even-order double covers).
    wp_alpha is evaluated as one more point of the first _v_stack call
    (wp_both's values do not depend on the batch) and is None until then.
    """

    def __init__(self, slat: ScaledLattice, shift: tuple[Fraction, Fraction], n: int):
        if n < 2:
            raise ValueError("P functions need a translation of order >= 2")
        self.slat = slat
        self.n = n
        self.alpha = complex(slat.scale * (shift[0] + shift[1] * slat.tau))
        self.w = cmath.exp(2j * math.pi / n)
        self.wp_alpha = None
        ks = np.arange(n)
        self.orbit = tuple((slat.scale * torus_reduce_centered(ks * self.alpha / slat.scale, slat.tau)).tolist())

    def _v_stack(self, z: np.ndarray) -> np.ndarray:
        """v(z - k alpha) for k = 0..n-1, stacked on a leading axis."""
        pts = _shifted(z, np.arange(self.n) * self.alpha)
        first = self.wp_alpha is None
        wpv, wppv = wp_both_scaled(np.append(pts, self.alpha) if first else pts, self.slat)
        if first:
            self.wp_alpha = complex(wpv[-1])
            wpv, wppv = wpv[:-1].reshape(pts.shape), wppv[:-1].reshape(pts.shape)
        return wppv / (wpv - self.wp_alpha)

    def values(self, z, js) -> dict:
        """P_j(z) for each j in js, sharing the shifted evaluations.

        The phase sum is accumulated shift by shift, elementwise, so a
        point's value does not depend on which other points share the call
        (a BLAS contraction would round differently with the batch size).
        """
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        stack = self._v_stack(zz)
        ks = np.arange(self.n)
        out = {}
        for j in js:
            phases = self.w ** (-(ks * (j % self.n)))
            acc = phases[0] * stack[0]
            for c, row in zip(phases[1:], stack[1:]):
                acc += c * row
            out[j] = acc
        return out

    def pj(self, j: int) -> TorusFunction:
        jj = j % self.n
        if jj == 0:
            return TorusFunction(lambda z: np.zeros_like(z, dtype=complex), self.slat, ())
        return TorusFunction(lambda z, _j=j: self.values(z, (_j,))[_j], self.slat, self.orbit)


def p_system(emb: GroupEmbedding) -> PSystem:
    """The P_j family of a C_N translation or of the translations of D_N."""
    if emb.kind not in ("CN_translation", "DN"):
        raise ValueError("P functions are attached to cyclic translations")
    n = emb.order_param
    return PSystem(ScaledLattice(emb.tau), emb.cyclic_generator.shift.fractions, n)


def fit_lambda_mu(
    emb: GroupEmbedding,
    j: int,
    k: int | None = None,
    *,
    seed: int = 0,
    tol: float = 1e-7,
    retries: int = 8,
    n_holdout: int = 20,
):
    """Constants (lam, mu) with P_2j P_-j^2 - P_-2j P_j^2 = lam P_-k P_k + mu.

    Two-point linear solve plus held-out validation; ill-conditioned draws
    are resampled up to the retry budget.  When N >= 3, k = +-j and
    2j != 0 mod N the constant mu is asserted nonzero.
    """
    ps = p_system(emb)
    return _fit_lambda_mu_ps(ps, j, k, seed=seed, tol=tol, retries=retries, n_holdout=n_holdout)


def _fit_lambda_mu_ps(ps: PSystem, j, k=None, *, seed=0, tol=1e-7, retries=8, n_holdout=20):
    n = ps.n
    if k is None:
        k = j
    if k % n == 0:
        raise ValueError("k must not vanish mod the group order")
    rng = np.random.default_rng(seed)
    js = sorted({j % n, (-j) % n, (2 * j) % n, (-2 * j) % n, k % n, (-k) % n})

    def lhs_rhs(z):
        vals = ps.values(z, js)
        lhs = (
            vals[(2 * j) % n] * vals[(-j) % n] ** 2
            - vals[(-2 * j) % n] * vals[j % n] ** 2
        )
        basis = vals[(-k) % n] * vals[k % n]
        return lhs, basis

    last_res = np.inf
    for _ in range(retries):
        z = sample_points(ps.slat, 2 + n_holdout, rng, avoid=ps.orbit, margin=0.08)
        lhs, basis = lhs_rhs(z)
        det = basis[0] - basis[1]
        scale = max(1.0, float(np.max(np.abs(basis[:2]))))
        if abs(det) < 1e-8 * scale:
            continue
        lam = (lhs[0] - lhs[1]) / det
        mu = lhs[0] - lam * basis[0]
        res = np.max(np.abs(lhs[2:] - (lam * basis[2:] + mu)))
        res /= max(1.0, float(np.max(np.abs(lhs[2:]))))
        if res < tol:
            if n >= 3 and (k - j) % n in (0, (-2 * j) % n) and (2 * j) % n != 0:
                if abs(mu) <= 1e-9:
                    raise FitError(f"mu unexpectedly vanishes (N={n}, j={j}, k={k})")
            return complex(lam), complex(mu)
        last_res = res
    raise FitError(f"lambda/mu fit failed; final residual {last_res:.3g}")


# ---------------------------------------------------------------------------
# contour residues


def residue_at(f: TorusFunction, p: complex, n_nodes: int = 128, radius: float | None = None) -> complex:
    """(1/2*pi*i) * contour integral of f on a circle around p.

    Trapezoidal quadrature on the circle is spectrally accurate for the
    meromorphic integrand; the radius defaults to just under half the
    distance to the nearest other declared pole, capped well inside the
    fundamental cell.
    """
    p = complex(p)
    short = shortest_period(f.lattice.tau) * abs(f.lattice.scale)
    d = torus_distance(p, np.asarray(f.poles, dtype=complex), f.lattice)
    others = d[d > 1e-9 * short]
    if radius is None:
        radius = 0.45 * float(np.min(others, initial=short))
    if radius >= 0.5 * short:
        raise ValueError("contour circle leaves the isolation cell of the pole")
    if np.any(others < radius + 1e-9 * short):
        raise ValueError("contour circle intersects another declared pole")
    theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
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


def p_small(emb: GroupEmbedding) -> tuple[TorusFunction, TorusFunction, TorusFunction]:
    """(p0, p1, p2): signed half-period averages of 1/wp'.

    p2 is even under the first Klein generator and odd under the second,
    p1 the reverse, p0 odd under both; all three are odd in z with simple
    poles on the four half-period points.
    """
    slat = ScaledLattice(emb.tau)
    s1, s2 = _half_periods(emb)
    shifts = np.array([0.0, s1, s2, s1 + s2])
    signs = {
        "p2": (1.0, 1.0, -1.0, -1.0),
        "p1": (1.0, -1.0, 1.0, -1.0),
        "p0": (1.0, -1.0, -1.0, 1.0),
    }
    poles = tuple(
        complex(torus_reduce_centered(s, emb.tau)) for s in shifts
    )

    # p0, p1 and p2 are evaluated together (by psi) on the same points:
    # one wp' evaluation at the four shifts serves all three
    inv_wpp = _last_points_memo(
        lambda z: 1.0 / wp_both_scaled(_shifted(z, shifts), slat)[1]
    )

    def make(sgn):
        def fn(z):
            acc = np.zeros_like(z, dtype=complex)
            for c, row in zip(sgn, inv_wpp(z)):
                acc += c * row
            return acc

        return fn

    return tuple(TorusFunction(make(signs[name]), slat, poles) for name in ("p0", "p1", "p2"))


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


def _constants_from_e(e1, e2, e3, hexagonal: bool) -> C2C2Constants:
    a = (e1 - e3) / (e2 - e3)
    b = (e1 - e2) / (e2 - e3)
    alpha1 = a ** 2
    beta1 = b ** 2
    alpha2 = 4.0 / ((e1 - e2) * (e2 - e3) ** 2)
    beta2 = 4.0 / ((e1 - e3) * (e2 - e3) ** 2)
    A1 = a ** 1.5
    B1 = b ** 1.5
    if hexagonal and abs(A1 - 1j) < 1e-6 and abs(B1 + 1.0) < 1e-6:
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
    slat = ScaledLattice(emb.tau)
    s1, s2 = _half_periods(emb)
    e1, e2, e3 = (complex(e) for e in wp_both_scaled(np.array([s1, s2, s1 + s2]), slat)[0])
    return _constants_from_e(e1, e2, e3, is_hexagonal_class(emb.tau))


# ---------------------------------------------------------------------------
# fitting numeric functions into the ring


#: variable -> (its pole order, the ring's (x, y) as functions of (wp, wp'))
_RING_VARIABLES = {
    "full": (2, lambda wp, wpp: (wp, wpp)),
    "wp": (2, lambda wp, wpp: (wp, None)),
    "wp2": (4, lambda wp, wpp: (wp ** 2, None)),
    "wp3": (6, lambda wp, wpp: (wp ** 3, None)),
    "wp_prime": (3, lambda wp, wpp: (wpp, None)),
}


@dataclass(frozen=True)
class InvariantRing:
    """Descriptor of the invariant function ring of one symmetry case.

    variable: "full" means C[x, y] with x = wp, y = wp' of slat; the other
    flavours are the single-generator rings C[wp], C[wp^2], C[wp^3],
    C[wp'].
    """

    slat: ScaledLattice
    variable: str = "full"

    def var_order(self) -> int:
        return _RING_VARIABLES[self.variable][0]

    def values(self, z):
        return self.from_wp(*wp_both_scaled(z, self.slat))

    def from_wp(self, wp, wpp):
        """The ring's (x, y) from wp and wp' of slat; y is None unless full."""
        return _RING_VARIABLES[self.variable][1](wp, wpp)


def _fit_shape(ring: InvariantRing, pole_bound: int) -> tuple[int, int, int, int]:
    """(da, db, fit rows, held-out rows) of a ring fit with this pole bound."""
    da = pole_bound // ring.var_order()
    db = (pole_bound - 3) // 2 if ring.variable == "full" else -1
    n_cols = (da + 1) + (db + 1)
    return da, db, 3 * n_cols + 8, max(12, n_cols + 4)


def _fit_points(ring: InvariantRing, pole_bound: int, avoid, *, seed: int, margin: float) -> np.ndarray:
    """The rows fit_in_ring samples: its fit rows, then its held-out rows."""
    _, _, n_fit, n_hold = _fit_shape(ring, pole_bound)
    rng = np.random.default_rng(seed)
    avoid = tuple(avoid) + (0.0 + 0.0j,)
    return sample_points(ring.slat, n_fit + n_hold, rng, avoid=avoid, margin=margin)


def _fit_values(x, y, rhs: np.ndarray, ring: InvariantRing, pole_bound: int, tol: float) -> WPoly:
    """The expansion of fit_in_ring from the ring's (x, y) and f at its rows."""
    da, db, n_fit, _ = _fit_shape(ring, pole_bound)
    # precondition: work in x/c with c the typical magnitude, so the
    # Vandermonde columns stay O(1) even on small-covolume lattices
    c = float(np.median(np.abs(x))) or 1.0
    xs = x / c
    cols = [xs ** i for i in range(da + 1)]
    if db >= 0:
        ys = y / c ** 1.5
        cols += [ys * xs ** i for i in range(db + 1)]
    design = np.stack(cols, axis=1)
    w = 1.0 / np.maximum(1.0, np.abs(rhs))
    a_mat = design[:n_fit] * w[:n_fit, None]
    b_vec = rhs[:n_fit] * w[:n_fit]

    def solve(mat, vec):
        sol, *_ = np.linalg.lstsq(mat, vec, rcond=None)
        # one step of iterative refinement squeezes out the last digits
        sol += np.linalg.lstsq(mat, vec - mat @ sol, rcond=None)[0]
        return sol

    coeff = solve(a_mat, b_vec)
    # drop columns whose coefficient is at the noise floor, then refit the
    # reduced model: the surviving coefficients re-optimise, so no
    # accuracy is lost to the deletion (never zero a coefficient in place;
    # least-squares errors are correlated and cancel at evaluation time)
    keep = np.abs(coeff) > 1e-10 * max(1e-300, float(np.max(np.abs(coeff))))
    if not np.all(keep) and np.any(keep):
        reduced = solve(a_mat[:, keep], b_vec)
        coeff = np.zeros_like(coeff)
        coeff[keep] = reduced
    resid = np.abs(design[n_fit:] @ coeff - rhs[n_fit:]) * w[n_fit:]
    rel = float(np.max(resid))
    if rel > tol:
        raise NotInRingError(
            f"held-out residual {rel:.3g} exceeds {tol:.3g} for variable {ring.variable!r}"
        )
    a = tuple(coeff[i] / c ** i for i in range(da + 1))
    b = tuple(coeff[da + 1 + i] / c ** (1.5 + i) for i in range(db + 1)) if db >= 0 else ()
    return WPoly(_poly_trim(a), _poly_trim(b))


def fit_in_ring(f: TorusFunction, ring: InvariantRing, pole_bound: int) -> WPoly:
    """Least-squares expansion of f in the ring, with held-out validation.

    pole_bound is the declared order of f at the ring's lattice points; it
    fixes which monomials may appear.  Rows are weighted by 1/max(1, |f|)
    so the fit controls relative error where the values are large; the
    held-out residual is per-point relative on the same scale.  A residual
    above 1e-6 means f does not live in the ring (or the bound is wrong)
    -> NotInRingError.
    """
    z = _fit_points(ring, pole_bound, f.poles, seed=0, margin=0.12)
    x, y = ring.values(z)
    return _fit_values(x, y, f(z), ring, pole_bound, 1e-6)
