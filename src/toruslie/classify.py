"""End-to-end classification of the equivariant map algebras.

The isomorphism class is read off the number of branch points of the
quotient map away from the marked orbit: 0 gives the current algebra of
the elliptic curve of T/t(Gamma), 2 the Onsager algebra, and 3 the
twisted family parametrised by [tau] of T/t(Gamma).  No other branch
counts occur; seeing one is an internal inconsistency.

cross_validate rebuilds the normal form and checks that the independent
routes agree: the triple's [E, F] against H times the exact structure
polynomial, and the root count of that polynomial against the branch
count.  The class is the j of emb.quotient, the lattice the ring and its
exact p are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elliptic import invariants
from .funcalg import FIT_TOL
from .lattice import ModularClass, reduce_modular
from .normalform import GeneratorTriple, abelianization_dim, check_triple, normal_form
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

#: bounds of cross_validate: the bracket residuals he, hf and ef, and the
#: invariance residual; the relative residual ef_exact against the exact p
#: is bounded by FIT_TOL, the ring-fit bound of funcalg, re-exported here
BRACKET_TOL = 1e-7
INVARIANCE_TOL = 1e-8

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
    caveat: str = ""


def classify(emb: GroupEmbedding) -> Classification:
    """Classify a catalog embedding by its branch-point count."""
    count, _ = branch_points(emb)
    if count not in KIND_BY_BRANCH_COUNT:
        raise InternalInconsistencyError(f"branch count {count} outside {{0, 2, 3}}")
    kind = KIND_BY_BRANCH_COUNT[count]
    if kind == "Onsager":
        return Classification(kind, count, None, None)
    caveat = _CAVEAT_SFAMILY if kind == "SFamily" else ""
    q = emb.quotient
    return Classification(kind, count, reduce_modular(q.tau), invariants(q).j, caveat)


@dataclass(frozen=True)
class CrossValidation:
    """Checks of one normal form; ``triple`` is the triple they were run on."""

    classification: Classification
    bracket_residuals: dict
    invariance: float
    abel_dim: int
    checks: dict
    passed: bool
    triple: GeneratorTriple | None = field(default=None, compare=False, repr=False)


def cross_validate(emb: GroupEmbedding, j: int = 1, *, seed: int = 0) -> CrossValidation:
    """Build the normal form and check it against the classification.

    The bracket residuals and invariance residual are check_triple's at
    its default probe count, those of verify_brackets(60, seed + 1) and
    invariance_residual(40, seed + 2): every point set is drawn first and
    the triple and its ring are evaluated once.  The verify command at
    its defaults reports these two residuals.

    The structure check is ef_exact, [E, F] against H times the exact p
    of the case; no p is fitted.
    """
    cls = classify(emb)
    gens = normal_form(emb, j=j)
    brackets, inv_res = check_triple(gens, seed=seed)
    abel = abelianization_dim(gens)

    # generator entries can be large (small mu, elongated lattices); the
    # invariance comparison of such values bottoms out at the evaluation
    # chain's relative accuracy of about 1e-11
    inv_floor = max(INVARIANCE_TOL, 1e-11 * brackets["frame_scale"])
    checks = {
        "brackets": max(brackets["he"], brackets["hf"], brackets["ef"]) < BRACKET_TOL,
        "structure": brackets["ef_exact"] < FIT_TOL,
        "invariance": inv_res < inv_floor,
        # the exact p's root count against the branch points
        "abel_matches_branch": abel == cls.branch_count,
    }
    return CrossValidation(cls, brackets, inv_res, abel, checks, all(checks.values()), gens)
