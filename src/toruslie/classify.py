"""End-to-end classification of the equivariant map algebras.

The isomorphism class is read off the number of branch points of the
quotient map away from the marked orbit: 0 gives the current algebra of
the elliptic curve of T/t(Gamma), 2 the Onsager algebra, and 3 the
twisted family parametrised by [tau] of T/t(Gamma).  No other branch
counts occur; seeing one is an internal inconsistency.

cross_validate rebuilds the normal form and checks that the independent
routes agree: the root count of the exact structure polynomial against
the branch count, the degree of the fitted one against the exact one's,
and the j-invariant of the reported class against the invariants that
actually appear in the fitted polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elliptic import invariants, j_invariant
from .funcalg import FIT_TOL
from .lattice import ModularClass, reduce_modular
from .normalform import GeneratorTriple, abelianization_dim, check_triple, normal_form
from .normalform import exact_structure_polynomial
from .torusgroup import GroupEmbedding, branch_points

__all__ = [
    "Classification",
    "CrossValidation",
    "InternalInconsistencyError",
    "KIND_BY_BRANCH_COUNT",
    "classify",
    "cross_validate",
]

KIND_BY_BRANCH_COUNT = {0: "CurrentAlgebra", 2: "Onsager", 3: "SFamily"}

#: bounds of cross_validate: the bracket residuals he, hf and ef, the
#: invariance residual, and the relative j agreement of the reported
#: class; the relative structure-fit residual is bounded by FIT_TOL, the
#: ring-fit bound of funcalg, re-exported here
BRACKET_TOL = 1e-7
INVARIANCE_TOL = 1e-8
J_REL_TOL = 1e-7

#: whether lattice classes are known to separate the family completely
_CAVEAT_SFAMILY = (
    "the tau-class is reported as metadata; it is not known to be a complete"
    " isomorphism invariant for this family"
)


class InternalInconsistencyError(RuntimeError):
    """A branch count outside {0, 2, 3} (should be impossible)."""


@dataclass(frozen=True)
class Classification:
    kind: str
    branch_count: int
    tau_class: ModularClass | None
    j_invariant: complex | None
    provenance: dict = field(default_factory=dict)
    caveat: str = ""


def classify(emb: GroupEmbedding) -> Classification:
    """Classify a catalog embedding by its branch-point count."""
    count, orbits = branch_points(emb)
    if count not in KIND_BY_BRANCH_COUNT:
        raise InternalInconsistencyError(f"branch count {count} outside {{0, 2, 3}}")
    kind = KIND_BY_BRANCH_COUNT[count]
    quotient = emb.quotient
    mc = reduce_modular(quotient.tau)
    prov = {
        "group": emb.kind,
        "order_param": emb.order_param,
        "group_order": emb.order,
        # t(Gamma): the translations, the fixed-point-free elements on a torus
        "translation_subgroup_order": sum(g.is_translation for g in emb.elements),
        "quotient_tau": quotient.tau,
        "branch_orbits": len(orbits),
    }
    if kind == "Onsager":
        return Classification(kind, count, None, None, prov)
    caveat = _CAVEAT_SFAMILY if kind == "SFamily" else ""
    return Classification(kind, count, mc, j_invariant(mc.tau_reduced), prov, caveat)


@dataclass(frozen=True)
class CrossValidation:
    """Checks of one normal form; ``triple`` is the triple they were run on,
    with its structure polynomial attached."""

    classification: Classification
    bracket_residuals: dict
    invariance: float
    abel_dim: int
    poly_degree: int
    j_from_polynomial: complex | None
    checks: dict
    passed: bool
    notes: tuple = ()
    triple: GeneratorTriple | None = field(default=None, compare=False, repr=False)
    #: invariance_residual(triple, verify_samples, seed + 2), if asked for
    verify_invariance: float | None = field(default=None, compare=False, repr=False)


def cross_validate(
    emb: GroupEmbedding, j: int = 1, *, seed: int = 0, verify_samples: int | None = None
) -> CrossValidation:
    """Build the normal form and check it against the classification.

    The structure polynomial, bracket residuals and invariance residual
    are those of structure_polynomial(seed), verify_brackets(seed + 1) and
    invariance_residual(seed + 2), computed by check_triple: every point
    set is drawn first and the triple and its ring are evaluated once.
    verify_samples adds the verify command's invariance probes to that
    evaluation; their residual is verify_invariance.

    For the twisted family the extracted cubic 4x^3 - g2 x - g3 carries its
    own j-invariant, which must match the j of the reported tau-class; for
    the current algebra the ring's lattice plays that role.
    """
    cls = classify(emb)
    gens = normal_form(emb, j=j)
    # asked for verify's probes, check_triple returns their residual fourth
    extra = {} if verify_samples is None else {"verify_samples": verify_samples}
    poly, brackets, inv_res, *verify_inv = check_triple(gens, seed=seed, **extra)
    abel = abelianization_dim(gens)
    notes: list[str] = []

    # generator entries can be large (small mu, elongated lattices); the
    # invariance comparison of such values bottoms out at the evaluation
    # chain's relative accuracy of about 1e-11
    inv_floor = max(INVARIANCE_TOL, 1e-11 * brackets.get("frame_scale", 0.0))
    checks = {
        "brackets": max(brackets["he"], brackets["hf"], brackets["ef"]) < BRACKET_TOL,
        "structure_fit": brackets.get("ef_fit", 0.0) < FIT_TOL,
        "invariance": inv_res < inv_floor,
        # the exact p's root count against the branch points, and the
        # fitted p's shape against the exact one's
        "abel_matches_branch": abel == cls.branch_count,
        "poly_shape": poly.degree() == exact_structure_polynomial(gens).degree(),
    }

    ring_inv = invariants(gens.ring.lattice)
    j_poly = None
    if cls.kind == "SFamily":
        # the cubic extracted from the fit carries its own invariants; the
        # check degrades gracefully when the discriminant sits below the
        # fit's coefficient noise (tall quotient lattices, huge j)
        a = list(poly.a) + [0j] * (4 - len(poly.a))
        g2_hat, g3_hat = -a[1], -a[0]
        disc = g2_hat ** 3 - 27.0 * g3_hat ** 2
        # amplification of coefficient noise into the fitted j; the exact
        # class j bounds it from below even when the fitted discriminant
        # itself is noise
        amp = (abs(g2_hat) ** 3 + 27.0 * abs(g3_hat) ** 2) / max(abs(disc), 1e-300)
        amp = max(amp, abs(cls.j_invariant) / 864.0)
        coeff_scale = max(abs(c) for c in a)
        checks["leading_coefficient"] = abs(a[3] - 4.0) <= max(4e-6, 1e-10 * coeff_scale)
        jtol = max(J_REL_TOL, 3e-8 * amp)
        if jtol < 0.5:
            j_poly = 1728.0 * g2_hat ** 3 / disc
            checks["j_poly_consistent"] = abs(j_poly - cls.j_invariant) <= jtol * max(
                1.0, abs(cls.j_invariant)
            )
        else:
            notes.append(
                "fitted-cubic discriminant below coefficient noise; "
                "j comparison via the polynomial skipped"
            )
    elif cls.kind == "CurrentAlgebra":
        j_poly = ring_inv.j

    if cls.j_invariant is not None:
        # quotient class versus the lattice the invariant ring actually uses
        checks["j_ring_consistent"] = abs(ring_inv.j - cls.j_invariant) <= J_REL_TOL * max(
            1.0, abs(cls.j_invariant)
        )

    return CrossValidation(
        cls,
        brackets,
        inv_res,
        abel,
        poly.degree(),
        j_poly,
        checks,
        all(checks.values()),
        tuple(notes),
        gens,
        *verify_inv,
    )
