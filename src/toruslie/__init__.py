"""Equivariant sl2-valued elliptic function algebras on complex tori.

Construction, numerical verification and classification of the algebras
of meromorphic sl2-valued maps on a punctured torus that are equivariant
under a finite symmetry group acting on both the torus and on sl2.
"""

from .lattice import (
    HEX_TAU,
    Lattice,
    ModularClass,
    SQUARE_TAU,
    TorsionPoint,
    reduce_modular,
)
from .elliptic import (
    EllipticInvariants,
    half_period_values,
    invariants,
    j_invariant,
    scale_check,
    wp,
    wp_both,
)
from .torusgroup import (
    AffineAutomorphism,
    GroupEmbedding,
    UnsupportedEmbeddingError,
    a4_group,
    branch_points,
    c2c2_translation,
    catalog,
    cl_rotation,
    cn_translation,
    dn_group,
    fixed_points,
    make_embedding,
)
from .sl2rep import ad, standard_rep
from .funcalg import (
    C2C2Constants,
    TorusFunction,
    WPoly,
    c2c2_constants,
    fit_lambda_mu,
    fit_in_ring,
    p_small,
    p_system,
    residue_at,
)
from .intertwine import phi, psi
from .normalform import (
    GeneratorTriple,
    abelianization_dim,
    normal_form,
    structure_polynomial,
    verify_brackets,
)
from .classify import Classification, CrossValidation, classify, cross_validate

__version__ = "0.1.0"
