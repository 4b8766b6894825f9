"""Normal-form generator triples (E, F, H) for every admissible symmetry.

Each case produces three sl2-valued meromorphic maps, invariant under the
combined action on the torus and on sl2, with constant bracket structure
[H, E] = 2E, [H, F] = -2F and [E, F] = H tensor p for a polynomial p in
the one-variable invariant ring of the case.  p = fe ff, the product of
the factors of e and f, is exact in g2 and g3 of the ring lattice, in its
ring variable x = wp, y = wp' or u = wp^2, wp^3:

  cyclic translations   columns of ad(Phi_j),         p = 1
  order-2 rotation      (h, e wp', f wp'),            p = 4x^3 - g2 x - g3
  order-3 rotation      (h, e wp, f wp^2),            p = (y^2 + g3)/4
  order-4 rotation      (h, e wp', f wp wp'),         p = 4u^2 - g2 u
  order-6 rotation      (h, e wp wp', f wp^2 wp'),    p = 4u^2 - g3 u
  dihedral              cyclic frames times wp' of the invariant lattice,
                                                      p = 4x^3 - g2 x - g3
  Klein translations    columns of Psi,               p = 1
  A4                    Klein columns paired with powers of wp of the
                        half lattice,                 p = (y^2 + g3)/4

_CASES holds this list, one row per case: the frame source (constant,
ad(Phi) or Psi), the ring variable, the bracket sampling margin, the
exact p, as coefficients and as its roots, and the factors of e and f.
The factors live on the lattice of T / t(Gamma), which for rotations is
the lattice itself; the p = 1 rows have none.

Each triple has one frame, z -> (3, n, 2, 2), written once in the layout the
columns slice (frame[c] is column c at every point): the constant (h, e, f),
or from_coeffs of ad(Phi), or of Psi, with the column axis first.  The frame
and, where the row has factors, (wp, wp') of the ring lattice are evaluated
once per point array under one memo; E, F and H are its columns times their
factors, and the ring variable is read off the same (wp, wp').  They stay
three evaluators because a wrapper set on E.fn, F.fn or H.fn after
normal_form (a tracer's span, verify's --perturb-f scaling of F) must see
every evaluation the checks make.  standard_rep, the pole orbit and the data
of Phi or Psi are built once per equal embedding, and each check's probes
once per equal embedding, probe count and seed; the triple, its memo and its
evaluators are new on every call, so no such wrapper reaches a cache.

The order-4 pairing puts wp' on the e-side: that is the character-correct
match for the generator action e -> i e (the product of the two function
factors must be the full invariant wp (wp')^2 either way, so the bracket
polynomial is unchanged).

The structure check compares [E, F] with H times the exact p.  p is
evaluated at the (wp, wp') that the frames' memo already holds, as its
leading coefficient times the product over its roots, because the
monomial form cancels where p is small against its terms.  Sampling p
and fitting it in the ring (structure_polynomial) is an independent
route that no check runs; it returns its fit and leaves the triple as
it was.

Each check is three steps: draw its points (kept read-only per embedding,
count and seed), evaluate the triple (and the ring) there, and compute the
residual from those values.  structure_polynomial, verify_brackets and
invariance_residual run the three steps for one check; check_triple, the one
re-check of a triple, draws the point sets of the bracket and invariance
checks first and evaluates the triple and its ring once on their
concatenation, with results equal to those of the two functions run one by
one.  The residuals are computed on E, F and H stacked (3, n, 2, 2) in one
array, one bracket call and one invariance einsum (on a strided view of
their (h, e, f)) for all three, bit for bit as one generator at a time.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import invariants, wp_both
from .funcalg import InvariantRing, TorusFunction, WPoly, _fit_points, _fit_values
from .funcalg import _last_points_memo, sample_points
from .intertwine import phi, psi
from .lattice import shortest_period, torus_reduce_centered
from .sl2rep import B_E, B_F, B_H, ad, bracket, from_coeffs, standard_rep
from .torusgroup import GroupEmbedding

__all__ = [
    "GeneratorTriple",
    "abelianization_dim",
    "check_triple",
    "exact_structure_polynomial",
    "invariance_residual",
    "normal_form",
    "structure_polynomial",
    "verify_brackets",
]


#: the bracket probe count of check_triple by default
BRACKET_SAMPLES = 60

class _Case(NamedTuple):
    frames: str  # "B" constant, "phi" columns of ad(Phi), "psi" columns of Psi
    var: str  # the variable of the invariant ring
    margin: float  # the bracket sampling margin, which sample_points backs off from
    # p = fe ff in the ring variable from the ring lattice's invariants: (its
    # ascending coefficients, a value that vanishes exactly with its
    # discriminant, its roots)
    p: object
    fe: object = None  # the factor of e as a function of (wp, wp') of the ring lattice
    ff: object = None  # the factor of f, likewise


#: the rows' exact p: 1, or the p of their ring variable (the table above)
_P_ONE = lambda inv: ((1.0,), 1.0, ())
_P_WP = lambda inv: ((-inv.g3, -inv.g2, 0.0, 4.0), inv.discriminant, (inv.e1, inv.e2, inv.e3))
_P_WP_PRIME = lambda inv: (  # g2 = 0
    (inv.g3 / 4, 0.0, 0.25), inv.g3, (cmath.sqrt(-inv.g3), -cmath.sqrt(-inv.g3))
)
_P_WP2 = lambda inv: ((0.0, -inv.g2, 4.0), inv.g2, (0.0, inv.g2 / 4))  # g3 = 0
_P_WP3 = lambda inv: ((0.0, -inv.g3, 4.0), inv.g3, (0.0, inv.g3 / 4))  # g2 = 0

#: one row per case, keyed by kind and by (kind, order) for rotations.
#: Generator products grow like a power of 1/distance to the poles; the
#: margin keeps bracket magnitudes low enough that 64-bit roundoff stays
#: below the absolute residual targets.  Dihedral frames carry the extra
#: wp' factor on top of the conjugated frames, so they get the widest
#: berth (their pole rows sit on a line, leaving the mid-band free).
_CASES = {
    "CN_translation": _Case("phi", "wp", 0.15, _P_ONE),
    "DN": _Case("phi", "wp", 0.34, _P_WP, lambda x, y: y, lambda x, y: y),
    ("Cl_rotation", 2): _Case("B", "wp", 0.22, _P_WP, lambda x, y: y, lambda x, y: y),
    ("Cl_rotation", 3): _Case("B", "wp_prime", 0.22, _P_WP_PRIME, lambda x, y: x, lambda x, y: x ** 2),
    ("Cl_rotation", 4): _Case("B", "wp2", 0.3, _P_WP2, lambda x, y: y, lambda x, y: x * y),
    ("Cl_rotation", 6): _Case("B", "wp3", 0.34, _P_WP3, lambda x, y: x * y, lambda x, y: x ** 2 * y),
    "C2xC2_translation": _Case("psi", "wp", 0.15, _P_ONE),
    # a4_group makes the rotation s cycle the half periods s1 -> s1 + s2
    # -> s2 on every basis, so under s the e-column picks up w^2 and the
    # f-column w, w = exp(2 pi i/3), while wp of the half lattice picks up
    # w^2: wp^2 e and wp f are invariant
    "A4": _Case("psi", "wp_prime", 0.22, _P_WP_PRIME, lambda x, y: x ** 2, lambda x, y: x),
}

#: ad(M) for M = [[1, 1], [1, -1]]: the flip S has S M = M diag(1, -1), so it fixes
#: the h-column and negates the e- and f-columns, as D_N's odd factor wp' does
_D1_FRAME = ad(np.array([[1.0, 1.0], [1.0, -1.0]]))


@dataclass
class GeneratorTriple:
    """Generator triple with its invariant ring and pole bookkeeping."""

    E: TorusFunction
    F: TorusFunction
    H: TorusFunction
    ring: InvariantRing
    emb: GroupEmbedding
    #: standard_rep(emb, j): rep[k] acts as emb.elements[k]
    rep: np.ndarray
    poles: tuple
    #: the Phi or Psi that E, F and H are built on, if any
    intertwiner: TorusFunction | None
    #: z -> (wp, wp') of the ring lattice, from the evaluation that E, F
    #: and H share, when a factor of E or F is a function on that lattice;
    #: else None
    ring_wp: object = None


@lru_cache(maxsize=256)
def _orbit_points(emb: GroupEmbedding) -> tuple:
    # g(0) is the shift of g, and the inverses run through every element
    pts = set(torus_reduce_centered(emb.inverse_shift, emb.tau).tolist())
    return tuple(sorted(pts, key=lambda c: (round(c.real, 9), round(c.imag, 9))))


def _case(emb: GroupEmbedding) -> _Case:
    key = (emb.kind, emb.order_param) if emb.kind == "Cl_rotation" else emb.kind
    if key not in _CASES:
        raise ValueError(f"unknown embedding kind {emb.kind!r}")
    return _CASES[key]


def normal_form(emb: GroupEmbedding, j: int = 1) -> GeneratorTriple:
    """Construct the invariant generator triple for a catalog embedding.

    The frame and the factors of e and f come from the case's row of
    _CASES.  Each call of E, F or H returns a fresh array; the triple's
    ring_wp reads the (wp, wp') of the same evaluation.
    """
    rep = standard_rep(emb, j)
    case = _case(emb)
    orbit = _orbit_points(emb)
    intertwiner = None
    if case.frames == "B" and j % emb.order_param != 1:
        raise ValueError("rotation normal forms are tabulated for character index 1")
    # the trivial translation has no Phi: its frames are constant too
    if case.frames == "B" or emb.order_param == 1:
        const = from_coeffs(_D1_FRAME.T) if emb.kind == "DN" else np.array((B_H, B_E, B_F))
        frame = lambda z: np.broadcast_to(const.reshape(3, *(1,) * z.ndim, 2, 2), (3, *z.shape, 2, 2))
        lattice, poles = emb.lattice, orbit
    else:
        intertwiner = phi(emb, j) if case.frames == "phi" else psi(emb)
        # ad divides by the computed det(Phi), which the computed constants
        # leave 1 only up to their noise: the frames stay an automorphism.
        # intertwiner.fn is looked up per call, so a wrapper set on it
        # after normal_form sees every evaluation
        conj = ad if case.frames == "phi" else np.asarray
        # the column axis moved first, a view: frame[c] is column c at every point
        frame = lambda z: from_coeffs(conj(intertwiner.fn(z)).transpose(-1, *range(z.ndim + 1)))
        lattice, poles = intertwiner.lattice, intertwiner.poles
    ring_lattice = emb.quotient
    memo = _last_points_memo(
        lambda z: (frame(z), None if case.fe is None else wp_both(z, ring_lattice))
    )

    def column(c, factor):
        def fn(z):
            frames, wp = memo(z)
            return frames[c].copy() if factor is None else factor(*wp)[..., None, None] * frames[c]

        return TorusFunction(fn, lattice, poles, (2, 2))

    h, e, f = column(0, None), column(1, case.fe), column(2, case.ff)
    ring_wp = None if case.fe is None else (lambda z: memo(z)[1])
    ring = InvariantRing(ring_lattice, case.var)
    return GeneratorTriple(e, f, h, ring, emb, rep, orbit, intertwiner, ring_wp=ring_wp)


@lru_cache(maxsize=256)
def _probe(emb: GroupEmbedding, n_samples: int, seed: int) -> np.ndarray:
    """The n_samples probes of a check drawn from seed, away from the pole
    orbit by the case's margin; shared by equal keys, so read-only."""
    rng = np.random.default_rng(seed)
    z = sample_points(emb.lattice, n_samples, rng, avoid=_orbit_points(emb), margin=_case(emb).margin)
    z.setflags(write=False)
    return z


def _fit_rows(gens: GeneratorTriple, seed: int) -> np.ndarray:
    """The ring-fit rows of the structure polynomial.

    The sampling margin is the case's bracket margin converted to the ring
    cell: the invariant lattice can be much finer than the original one,
    and the frames blow up near the pole orbit in absolute distance.
    """
    short_orig = shortest_period(gens.emb.tau)
    ring = gens.ring.lattice
    short_ring = shortest_period(ring.tau) * abs(ring.scale)
    margin = _case(gens.emb).margin * short_orig / short_ring
    degree = len(exact_structure_polynomial(gens).a) - 1
    return _fit_points(gens.ring, degree, (), seed=seed, margin=margin)


def _preimages(gens: GeneratorTriple, z: np.ndarray) -> np.ndarray:
    """g^-1 z for every group element g past the identity, in element order."""
    emb = gens.emb
    return (emb.inverse_rotation[1:, None] * z + emb.inverse_shift[1:, None]).ravel()


def _frames(gens: GeneratorTriple, z: np.ndarray) -> np.ndarray:
    """(E, F, H) at z, stacked (3, len(z), 2, 2), through each generator's
    fn; their frame is evaluated once."""
    out = np.empty((3, len(z), 2, 2), dtype=complex)
    out[0], out[1], out[2] = gens.E.fn(z), gens.F.fn(z), gens.H.fn(z)
    return out


def _ring_x(gens: GeneratorTriple, z: np.ndarray, rows: slice = slice(None)):
    """The ring variable at z[rows], read off the (wp, wp') that the frame
    factors evaluated on z; None on the p = 1 rows, which have no factors."""
    return None if gens.ring_wp is None else gens.ring.from_wp(*(v[rows] for v in gens.ring_wp(z)))


def structure_polynomial(gens: GeneratorTriple) -> WPoly:
    """Fit the invariant p with [E, F] = H tensor p.

    The scalar function is recovered as the projection of [E, F] onto H
    and expanded in the exact p's monomials, as fit_in_ring expands a
    function, at rows drawn from seed 0.
    """
    z = _fit_rows(gens, 0)
    e, f, h = _frames(gens, z)
    p = _h_projection(bracket(e, f), h)
    powers = [i for i, c in enumerate(exact_structure_polynomial(gens).a) if c != 0]
    return _fit_values(_ring_x(gens, z), p, gens.ring, powers)


def _h_projection(comm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Scalar p with [E, F] ~ p H, as the Hermitian projection onto H.

    Noise-optimal: the trace pairing tr([E, F] H)/2 cancels |H|^2-sized
    products down to O(1) and inherits that cancellation error, while the
    projection divides like-sized quantities.
    """
    hc = np.conj(h)
    return np.einsum("...ij,...ij->...", comm, hc) / np.einsum("...ij,...ij->...", h, hc)


def _exact_p(gens: GeneratorTriple, x):
    """The exact p at the ring variable x (None on the p = 1 rows): its
    leading coefficient times the product over its roots."""
    coeff, _, roots = _case(gens.emb).p(invariants(gens.ring.lattice))
    value = coeff[-1]
    for r in roots:
        value = value * (x - r)
    return value


#: max |x| over every entry; a nan entry gives nan, where lattice._abs_max skips it
_max_abs = lambda x: float(np.maximum.reduce(np.abs(x), axis=None))


def _relative_residual(comm: np.ndarray, p, h: np.ndarray) -> float:
    """max |[E, F] - p H| / (1 + |p H|) over the points and entries."""
    ph = np.asarray(p)[..., None, None] * h
    return float(np.maximum.reduce(np.abs(comm - ph) / (1.0 + np.abs(ph)), axis=None))


def _bracket_residuals(gens: GeneratorTriple, frames: np.ndarray, x) -> dict:
    """The residuals of verify_brackets from the stacked (E, F, H) and the
    ring variable x (None on the p = 1 rows) at the probes."""
    e, f, h = frames
    # [h, e], [h, f] and [e, f] in one call
    he, hf, comm = bracket(frames[[2, 2, 0]], frames[[0, 1, 1]])
    he -= 2.0 * e
    hf += 2.0 * f
    return {
        "he": _max_abs(he),
        "hf": _max_abs(hf),
        "ef": _max_abs(comm - _h_projection(comm, h)[..., None, None] * h),
        "ef_exact": _relative_residual(comm, _exact_p(gens, x), h),
        "trace": _max_abs(frames[..., 0, 0] + frames[..., 1, 1]),
        "frame_scale": _max_abs(frames),
    }


def verify_brackets(gens: GeneratorTriple, n_samples: int, seed: int) -> dict:
    """Max pointwise residuals of the three bracket relations at n_samples
    probes drawn from seed.

    `ef` is the absolute residual of [E, F] against its projection onto H:
    it certifies that [E, F] is a scalar function times H.  `ef_exact` is
    the relative residual of [E, F] against H times the exact p; relative,
    because p's coefficients on small-covolume invariant lattices are
    large and an absolute target would only measure float granularity.
    `trace` is the worst deviation of the generators from tracelessness,
    and `frame_scale` the largest entry seen (the noise floor of every
    absolute residual is proportional to it).
    """
    z = _probe(gens.emb, n_samples, seed)
    return _bracket_residuals(gens, _frames(gens, z), _ring_x(gens, z))


def _invariance(gens: GeneratorTriple, frames: np.ndarray, start: int, n: int) -> float:
    """The residual of invariance_residual from the stacked (E, F, H) on a
    point array holding, from row start, n probes z and then their
    _preimages.  The identity, which contributes exactly 0, is left out."""
    r = gens.rep[1:]
    mid, end = start + n, start + n * (1 + len(r))
    # (h, e, f) = entries (0, 0), (0, 1), (1, 0); coordinate axis first: einsum's inner loop runs over z
    v = frames.reshape(3, -1, 4)[..., :3]
    pulled = np.einsum("gab,mgzb->amgz", r, v[:, mid:end].reshape(3, len(r), n, 3))
    pulled -= v[:, start:mid].transpose(2, 0, 1)[:, :, None]
    return float(np.maximum.reduce(np.abs(pulled), axis=None, initial=0.0))


def invariance_residual(gens: GeneratorTriple, n_samples: int, seed: int) -> float:
    """Worst deviation from rho(g) X(g^-1 z) = X(z) over the group and
    n_samples probes drawn from seed.

    The probes and their _preimages are stacked into one point array, so
    the triple is evaluated once.
    """
    z = _probe(gens.emb, n_samples, seed)
    frames = _frames(gens, np.concatenate([z, _preimages(gens, z)]))
    return _invariance(gens, frames, 0, len(z))


def check_triple(gens: GeneratorTriple, n_samples: int = BRACKET_SAMPLES, *, seed: int = 0) -> tuple:
    """(verify_brackets(n_samples, seed + 1), invariance_residual(m, seed + 2))
    from one evaluation of the triple, with m = max(20, 2 n_samples // 3)
    invariance probes, 40 at BRACKET_SAMPLES.

    The point sets of the checks are drawn first, each from its own seed
    as those functions draw it, or read from the draw an equal embedding,
    count and seed kept: the bracket probes, and the invariance probes
    with their preimages.  E, F, H and the ring values are then
    evaluated once on the concatenation and sliced per check.  Results
    and exceptions equal those of the two functions run in turn.
    """
    z_br = _probe(gens.emb, n_samples, seed + 1)
    z_inv = _probe(gens.emb, max(20, 2 * n_samples // 3), seed + 2)
    z = np.concatenate([z_br, z_inv, _preimages(gens, z_inv)])
    frames = _frames(gens, z)
    b = len(z_br)
    brackets = _bracket_residuals(gens, frames[:, :b], _ring_x(gens, z, slice(None, b)))
    return brackets, _invariance(gens, frames, b, len(z_inv))


def exact_structure_polynomial(gens: GeneratorTriple) -> WPoly:
    """p = fe ff in the ring variable, from the exact g2 and g3 of the ring
    lattice (the p of the case's row); no sampling, no fit.  A repeated
    root, which only a degenerate ring lattice could give, raises."""
    coeff, disc, _ = _case(gens.emb).p(invariants(gens.ring.lattice))
    if disc == 0:
        raise ValueError("exact structure polynomial has a repeated root")
    return WPoly(tuple(complex(c) for c in coeff))


def abelianization_dim(gens: GeneratorTriple) -> int:
    """Number of distinct roots of the exact structure polynomial, 0 for
    constants: its degree, as its exact discriminant is nonzero.  Equals
    the dimension of the abelianisation of the algebra."""
    return len(exact_structure_polynomial(gens).a) - 1
