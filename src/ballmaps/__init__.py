"""Linear fractional maps of the complex unit ball.

Maps z -> (Az + B) / (<z, C> + D) with their associated-matrix
calculus, Bruhat-style factorization into reflections and affine maps,
exact image ellipsoids, and cross-checked self-map tests.
"""

__version__ = "0.1.0"

from .bruhat import (
    BruhatFactors,
    FactorMap,
    bruhat_factorize,
    compose_factor_maps,
    factors_to_maps,
    permutation_to_transpositions,
    transposition_matrix,
)
from .criterion import (
    CriterionReport,
    agreement_table,
    check,
    classify_fixed_point,
    krein_check,
    krein_metric,
    monte_carlo_sup,
    oracle_is_selfmap,
    row_criterion,
    sphere_points,
)
from .errors import (
    BallmapsError,
    ContractViolation,
    DegenerateMapError,
    PoleError,
    ShapeError,
)
from .geometry import (
    BallAutomorphism,
    EllipsoidImage,
    automorphism_to_lfmap,
    ball_involution,
    ellipsoid_sup_norm,
    image_ellipsoid,
    involution_matrix,
    involution_matrix_inverse,
)
from .lfm import (
    LFMap,
    classical_disk_criterion,
    compose,
    evaluate,
    evaluate_batch,
    from_associated_matrix,
    invert,
)
from .quadric import (
    Quadric,
    from_standard_form,
    pullback_affine,
    pullback_chain,
    pullback_map,
    pullback_reflection,
    pullback_swap,
    residual,
)

__all__ = [
    "BallAutomorphism",
    "BallmapsError",
    "BruhatFactors",
    "ContractViolation",
    "CriterionReport",
    "DegenerateMapError",
    "EllipsoidImage",
    "FactorMap",
    "LFMap",
    "PoleError",
    "Quadric",
    "ShapeError",
    "agreement_table",
    "automorphism_to_lfmap",
    "ball_involution",
    "bruhat_factorize",
    "check",
    "classical_disk_criterion",
    "classify_fixed_point",
    "compose",
    "compose_factor_maps",
    "ellipsoid_sup_norm",
    "evaluate",
    "evaluate_batch",
    "factors_to_maps",
    "from_associated_matrix",
    "from_standard_form",
    "image_ellipsoid",
    "invert",
    "involution_matrix",
    "involution_matrix_inverse",
    "krein_check",
    "krein_metric",
    "monte_carlo_sup",
    "oracle_is_selfmap",
    "permutation_to_transpositions",
    "pullback_affine",
    "pullback_chain",
    "pullback_map",
    "pullback_reflection",
    "pullback_swap",
    "residual",
    "row_criterion",
    "sphere_points",
    "transposition_matrix",
    "__version__",
]
