"""Normal-form generator triples (E, F, H) for every admissible symmetry.

Each case produces three sl2-valued meromorphic maps, invariant under the
combined action on the torus and on sl2, with constant bracket structure
[H, E] = 2E, [H, F] = -2F and [E, F] = H tensor p for a polynomial p in
the invariant ring of the case:

  cyclic translations   columns of ad(Phi_j),         p = 1
  order-2 rotation      (h, e wp', f wp'),            p = 4x^3 - g2 x - g3
  order-3 rotation      (h, e wp, f wp^2),            p in C[wp']
  order-4 rotation      (h, e wp', f wp wp'),         p in C[wp^2]
  order-6 rotation      (h, e wp wp', f wp^2 wp'),    p in C[wp^3]
  dihedral              cyclic frames times wp' of the invariant lattice
  Klein translations    columns of Psi,               p = 1
  A4                    Klein columns paired with powers of wp of the
                        half lattice,                 p in C[wp']

_CASES holds this list, one row per case: the frame source (constant,
ad(Phi) or Psi), the ring variable, the structure bound, the bracket
sampling margin and the factors of e and f.  The factors live on the
lattice of T / t(Gamma), which for rotations is the lattice itself.

The order-4 pairing puts wp' on the e-side: that is the character-correct
match for the generator action e -> i e (the product of the two function
factors must be the full invariant wp (wp')^2 either way, so the bracket
polynomial is unchanged).

Each check is three steps: draw its points, evaluate the triple (and the
ring) there, and compute the residual from those values.
structure_polynomial, verify_brackets and invariance_residual run the
three steps for one check; check_triple draws the point sets of all
three (and, on request, the verify command's invariance probes) first
and evaluates the triple and its ring once on their concatenation, with
results equal to those of the functions run one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import wp_both_scaled
from .funcalg import (
    FitError, InvariantRing, WPoly, _fit_points, _fit_values, _last_points_memo, sample_points,
)
from .intertwine import MatrixFunction, phi, psi
from .lattice import ScaledLattice, shortest_period, torus_reduce_centered
from .sl2rep import B_E, B_F, B_H, GroupRepresentation, ad, bracket, coeffs, from_coeffs, standard_rep
from .torusgroup import GroupEmbedding, quotient_scaled

__all__ = [
    "GeneratorTriple",
    "abelianization_dim",
    "check_triple",
    "invariance_residual",
    "normal_form",
    "structure_polynomial",
    "verify_brackets",
]

#: bracket probes of verify_brackets and of check_triple
BRACKET_SAMPLES = 60
#: invariance probes of invariance_residual and of check_triple
INVARIANCE_SAMPLES = 40

class _Case(NamedTuple):
    frames: str  # "B" constant, "phi" columns of ad(Phi), "psi" columns of Psi
    var: str  # the variable of the invariant ring
    bound: int  # the structure bound
    margin: float  # the bracket sampling margin
    fe: object = None  # the factor of e as a function of (wp, wp') of the ring lattice
    ff: object = None  # the factor of f, likewise


#: one row per case, keyed by kind and by (kind, order) for rotations.
#: Generator products scale like distance^(-bound); the margin keeps the
#: bracket magnitudes low enough that 64-bit roundoff stays below the
#: absolute residual targets.  Dihedral frames carry the extra wp' factor
#: on top of the conjugated frames, so they get the widest berth (their
#: pole rows sit on a line, leaving the mid-band free).
_CASES = {
    "CN_translation": _Case("phi", "full", 0, 0.15),
    "DN": _Case("phi", "wp", 6, 0.34, lambda x, y: y, lambda x, y: y),
    ("Cl_rotation", 2): _Case("B", "wp", 6, 0.22, lambda x, y: y, lambda x, y: y),
    ("Cl_rotation", 3): _Case("B", "wp_prime", 6, 0.22, lambda x, y: x, lambda x, y: x ** 2),
    ("Cl_rotation", 4): _Case("B", "wp2", 8, 0.3, lambda x, y: y, lambda x, y: x * y),
    ("Cl_rotation", 6): _Case("B", "wp3", 12, 0.34, lambda x, y: x * y, lambda x, y: x ** 2 * y),
    "C2xC2_translation": _Case("psi", "full", 0, 0.15),
    # a4_group makes the rotation s cycle the half periods s1 -> s1 + s2
    # -> s2 on every basis, so under s the e-column picks up w^2 and the
    # f-column w, w = exp(2 pi i/3), while wp of the half lattice picks up
    # w^2: wp^2 e and wp f are invariant
    "A4": _Case("psi", "wp_prime", 6, 0.22, lambda x, y: x ** 2, lambda x, y: x),
}

#: ad(M) for M = [[1, 1], [1, -1]]: the flip S has S M = M diag(1, -1), so it fixes
#: the h-column and negates the e- and f-columns, as D_N's odd factor wp' does
_D1_FRAME = ad(np.array([[1.0, 1.0], [1.0, -1.0]]))


@dataclass
class GeneratorTriple:
    """Generator triple with its invariant ring and pole bookkeeping."""

    E: MatrixFunction
    F: MatrixFunction
    H: MatrixFunction
    ring: InvariantRing
    emb: GroupEmbedding
    rep: GroupRepresentation
    j: int
    poles: tuple
    structure_bound: int
    #: the Phi or Psi that E, F and H are built on, if any
    intertwiner: MatrixFunction | None
    structure_poly: WPoly | None = None
    #: z -> (wp, wp') of the ring lattice, evaluated once per point set,
    #: when a factor of E or F is a function on that lattice; else None
    ring_wp: object = None


def _const_mat(x: np.ndarray, slat: ScaledLattice, poles=()) -> MatrixFunction:
    def fn(z):
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[...] = x
        return out

    return MatrixFunction(fn, 2, slat, poles)


def _times(factor, frame: MatrixFunction) -> MatrixFunction:
    """z -> factor(z) * frame(z) for a scalar-valued factor."""

    def fn(z):
        return factor(z)[..., None, None] * frame.fn(z)

    return MatrixFunction(fn, 2, frame.lattice, frame.poles)


def _columns(frame, like: MatrixFunction) -> tuple:
    """The columns (h, e, f images) of the 3x3 map frame as sl2-valued maps
    on the lattice and poles of like; frame runs once per point set."""
    memo = _last_points_memo(frame)

    def column(c):
        return MatrixFunction(
            lambda z: from_coeffs(memo(z)[..., :, c]), 2, like.lattice, like.poles
        )

    return tuple(column(c) for c in (0, 1, 2))


def _orbit_points(emb: GroupEmbedding) -> tuple:
    # g(0) is the shift of g, and the inverses run through every element
    pts = set(torus_reduce_centered(emb.inverse_shift, emb.tau).tolist())
    return tuple(sorted(pts, key=lambda c: (round(c.real, 9), round(c.imag, 9))))


def _case(emb: GroupEmbedding) -> _Case:
    key = (emb.kind, emb.order_param) if emb.kind == "Cl_rotation" else emb.kind
    if key not in _CASES:
        raise ValueError(f"unknown embedding kind {emb.kind!r}")
    return _CASES[key]


def normal_form(emb: GroupEmbedding, rep: GroupRepresentation | None = None, j: int = 1) -> GeneratorTriple:
    """Construct the invariant generator triple for a catalog embedding.

    The frames come from the case's row of _CASES: constant, the columns
    of ad(Phi) or the columns of Psi; E, F and H share that base, so
    evaluated in turn on one point array the three of them evaluate it
    once.  Where the row has factors of e and f, they are functions of wp
    on the ring lattice T / t(Gamma) (for rotations the lattice itself);
    that wp is the triple's ring_wp, so the ring values at those points
    come from the same evaluation.
    """
    if rep is None:
        rep = standard_rep(emb, j)
    case = _case(emb)
    orbit = _orbit_points(emb)
    intertwiner = None
    ring_wp = None
    if case.frames == "B" and j != 1:
        raise ValueError("rotation normal forms are tabulated for character index 1")
    # the trivial translation has no Phi: its frames are constant too
    if case.frames == "B" or emb.order_param == 1:
        base = ScaledLattice(emb.tau)
        xs = from_coeffs(_D1_FRAME.T) if emb.kind == "DN" else (B_H, B_E, B_F)
        h, e, f = (_const_mat(x, base, orbit) for x in xs)
    elif case.frames == "phi":
        intertwiner = phi(emb, j)
        # ad divides by the computed det(Phi), which the fitted constants
        # leave 1 only up to their noise: the frames stay an automorphism
        h, e, f = _columns(lambda z: ad(intertwiner.fn(z)), intertwiner)
    else:
        intertwiner = psi(emb)
        h, e, f = _columns(lambda z: intertwiner.fn(z), intertwiner)
    ring_slat = quotient_scaled(emb)
    if case.fe is not None:
        ring_wp = _last_points_memo(lambda z: wp_both_scaled(z, ring_slat))
        e = _times(lambda z: case.fe(*ring_wp(z)), e)
        f = _times(lambda z: case.ff(*ring_wp(z)), f)
    ring = InvariantRing(ring_slat, case.var)
    return GeneratorTriple(e, f, h, ring, emb, rep, j, orbit, case.bound, intertwiner, ring_wp=ring_wp)


def _backed_off(attempt, margin: float):
    """attempt(margin), retried at shrinking margins while sampling starves.

    Spread-out orbits can exhaust the cell at the preferred margin; back
    off rather than fail (the residual targets are calibrated for the
    catalogued shifts, wider orbits simply report what they get).
    """
    for factor in (1.0, 0.75, 0.55, 0.4, 0.25):
        try:
            return attempt(margin * factor)
        except FitError:
            continue
    raise FitError("no sampling margin admits points away from the pole orbit")


def _probe(gens: GeneratorTriple, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    slat = ScaledLattice(gens.emb.tau)
    return _backed_off(
        lambda m: sample_points(slat, n_samples, rng, avoid=gens.poles, margin=m),
        _case(gens.emb).margin,
    )


def _fit_rows(gens: GeneratorTriple, seed: int) -> np.ndarray:
    """The ring-fit rows of the structure polynomial.

    The sampling margin is the case's bracket margin converted to the ring
    cell: the invariant lattice can be much finer than the original one,
    and the frames blow up near the pole orbit in absolute distance.
    """
    short_orig = shortest_period(gens.emb.tau)
    slat = gens.ring.slat
    short_ring = shortest_period(slat.tau) * abs(slat.scale)
    margin = _case(gens.emb).margin * short_orig / short_ring
    return _backed_off(
        lambda m: _fit_points(gens.ring, gens.structure_bound, (), seed=seed, margin=m),
        margin,
    )


def _preimages(gens: GeneratorTriple, z: np.ndarray) -> np.ndarray:
    """g^-1 z for every group element g, stacked in the order of the elements."""
    emb = gens.emb
    return (emb.inverse_rotation[:, None] * z + emb.inverse_shift[:, None]).ravel()


def _frames(gens: GeneratorTriple, z: np.ndarray) -> tuple:
    """(E, F, H) at z; their shared base is evaluated once."""
    return gens.E.fn(z), gens.F.fn(z), gens.H.fn(z)


def _ring_xy(gens: GeneratorTriple, z: np.ndarray, n: int) -> tuple:
    """The ring's (x, y) at the first n points of z, once the frames ran on z.

    Where a frame factor lives on the ring lattice, its (wp, wp') at z is
    reused; otherwise wp is evaluated at those n points alone.
    """
    if gens.ring_wp is None:
        wp = wp_both_scaled(z[:n], gens.ring.slat)
    else:
        wp = (v[:n] for v in gens.ring_wp(z))
    return gens.ring.from_wp(*wp)


def _rows(values: tuple, rows: slice) -> tuple:
    return tuple(None if v is None else v[rows] for v in values)


def _fit_structure(gens: GeneratorTriple, frames: tuple, xy: tuple, tol: float) -> WPoly:
    """Fit p from the triple and the ring values at the ring-fit rows; attach it."""
    e, f, h = frames
    p = _h_projection(bracket(e, f), h)
    gens.structure_poly = _fit_values(*xy, p, gens.ring, gens.structure_bound, tol)
    return gens.structure_poly


def structure_polynomial(gens: GeneratorTriple, *, seed: int = 0, tol: float = 1e-6) -> WPoly:
    """Fit the invariant p with [E, F] = H tensor p and attach it.

    The scalar function is recovered as the projection of [E, F] onto H
    and expanded in the case's invariant ring, as fit_in_ring expands a
    function, at rows drawn from seed.
    """
    z = _fit_rows(gens, seed)
    return _fit_structure(gens, _frames(gens, z), _ring_xy(gens, z, len(z)), tol)


def _h_projection(comm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Scalar p with [E, F] ~ p H, as the Hermitian projection onto H.

    Noise-optimal: the trace pairing tr([E, F] H)/2 cancels |H|^2-sized
    products down to O(1) and inherits that cancellation error, while the
    projection divides like-sized quantities.
    """
    num = np.einsum("...ij,...ij->...", comm, np.conj(h))
    den = np.einsum("...ij,...ij->...", h, np.conj(h))
    return num / den


def _bracket_residuals(frames: tuple, poly: WPoly | None, xy: tuple | None) -> dict:
    """The residuals of verify_brackets from the triple (and, with a
    structure polynomial, the ring values) at the probes."""
    e, f, h = frames
    he = bracket(h, e) - 2.0 * e
    hf = bracket(h, f) + 2.0 * f
    comm = bracket(e, f)
    p_point = _h_projection(comm, h)
    ef = comm - p_point[..., None, None] * h
    out = {
        "he": float(np.max(np.abs(he))),
        "hf": float(np.max(np.abs(hf))),
        "ef": float(np.max(np.abs(ef))),
        "trace": max(
            float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1)))) for m in (e, f, h)
        ),
        "frame_scale": max(float(np.max(np.abs(m))) for m in (e, f, h)),
    }
    if poly is not None:
        p = poly.eval_xy(*xy)
        diff = comm - p[..., None, None] * h
        scale = 1.0 + np.abs(p[..., None, None] * h)
        out["ef_fit"] = float(np.max(np.abs(diff) / scale))
    return out


def verify_brackets(gens: GeneratorTriple, n_samples: int = BRACKET_SAMPLES, seed: int = 1) -> dict:
    """Max pointwise residuals of the three bracket relations.

    `ef` is the absolute residual of [E, F] against its projection onto H:
    it certifies that [E, F] is a scalar function times H.  When a
    structure polynomial is attached, `ef_fit` additionally reports the
    relative residual of [E, F] against H times that fitted polynomial;
    relative, because the polynomial's coefficients on small-covolume
    invariant lattices are large and an absolute target would only measure
    float granularity.  `trace` is the worst deviation of the generators
    from tracelessness, and `frame_scale` the largest entry seen (the
    noise floor of every absolute residual is proportional to it).
    """
    z = _probe(gens, n_samples, seed)
    frames = _frames(gens, z)
    poly = gens.structure_poly
    return _bracket_residuals(frames, poly, None if poly is None else _ring_xy(gens, z, len(z)))


def _invariance(gens: GeneratorTriple, frames: tuple, start: int, n: int) -> float:
    """The residual of invariance_residual from (E, F, H) on a point array
    holding, from row start, n probes z and then the preimages g^-1 z
    stacked in the order of the elements."""
    elements = gens.emb.elements
    mid, end = start + n, start + n * (1 + len(elements))
    r = np.stack([gens.rep.mats[g] for g in elements])
    worst = 0.0
    for m in frames:
        v0 = coeffs(m[start:mid])
        v = coeffs(m[mid:end]).reshape(len(elements), n, -1)
        pulled = np.einsum("gab,gzb->gza", r, v)
        worst = max(worst, float(np.max(np.abs(pulled - v0))))
    return worst


def invariance_residual(gens: GeneratorTriple, n_samples: int = INVARIANCE_SAMPLES, seed: int = 2) -> float:
    """Worst deviation from rho(g) X(g^-1 z) = X(z) over the group and probes.

    The probes and the preimages g^-1 z of all group elements are stacked
    into one point array, so the triple is evaluated once.
    """
    z = _probe(gens, n_samples, seed)
    frames = _frames(gens, np.concatenate([z, _preimages(gens, z)]))
    return _invariance(gens, frames, 0, len(z))


def check_triple(
    gens: GeneratorTriple, *, seed: int = 0, tol: float = 1e-6, verify_samples: int | None = None
) -> tuple:
    """(structure_polynomial(seed), verify_brackets(seed + 1),
    invariance_residual(seed + 2)) from one evaluation of the triple.

    The point sets of the three checks are drawn first, each from its own
    seed as those functions draw it: the ring-fit rows, the bracket probes,
    and the invariance probes with their preimages.  E, F, H and the ring
    values are then evaluated once on the concatenation and sliced per
    check.  Results and exceptions equal those of the three functions run
    in turn; in particular a ring fit that fails outranks a probe sampler
    that starves.

    verify_samples adds a fourth value from the same evaluation:
    invariance_residual(gens, verify_samples, seed + 2), or None when that
    sampler starves (invariance_residual, run after the checks, raises).
    """
    z_fit = _fit_rows(gens, seed)
    try:
        z_br = _probe(gens, BRACKET_SAMPLES, seed + 1)
        z_inv = [_probe(gens, INVARIANCE_SAMPLES, seed + 2)]
    except FitError:
        structure_polynomial(gens, seed=seed, tol=tol)
        raise
    if verify_samples is not None:
        try:
            z_inv.append(_probe(gens, verify_samples, seed + 2))
        except FitError:
            pass
    z = np.concatenate([z_fit, z_br] + [w for zi in z_inv for w in (zi, _preimages(gens, zi))])
    frames = _frames(gens, z)
    a = len(z_fit)
    b = a + len(z_br)
    xy = _ring_xy(gens, z, b)
    fit, probes = slice(None, a), slice(a, b)
    poly = _fit_structure(gens, _rows(frames, fit), _rows(xy, fit), tol)
    brackets = _bracket_residuals(_rows(frames, probes), poly, _rows(xy, probes))
    invs = [None, None]
    for k, zi in enumerate(z_inv):
        invs[k] = _invariance(gens, frames, b, len(zi))
        b += len(zi) * (1 + gens.emb.order)
    return (poly, brackets, *invs[: 1 if verify_samples is None else 2])


def _cluster_roots(roots: np.ndarray) -> int:
    if roots.size == 0:
        return 0
    scale = max(1e-9, float(np.max(np.abs(roots))))
    tol = 1e-6 * max(scale, 1e-3)
    remaining = list(roots)
    count = 0
    while remaining:
        r = remaining.pop()
        remaining = [s for s in remaining if abs(s - r) > tol]
        count += 1
    return count


def abelianization_dim(gens: GeneratorTriple) -> int:
    """Number of distinct roots of the structure polynomial, 0 for constants.

    Equals the dimension of the abelianisation of the algebra; a vanishing
    structure polynomial would be degenerate and raises.
    """
    w = gens.structure_poly if gens.structure_poly is not None else structure_polynomial(gens)
    coeff = np.asarray(w.a, dtype=complex)
    if w.b:
        raise ValueError("structure polynomial acquired an odd part; inconsistent ring")
    if coeff.size == 0 or np.max(np.abs(coeff)) < 1e-12:
        raise ValueError("structure polynomial vanished; degenerate construction")
    lead = np.max(np.abs(coeff))
    deg = coeff.size - 1
    while deg > 0 and abs(coeff[deg]) < 1e-9 * lead:
        deg -= 1
    if deg == 0:
        return 0
    roots = np.roots(coeff[: deg + 1][::-1])
    return _cluster_roots(roots)
