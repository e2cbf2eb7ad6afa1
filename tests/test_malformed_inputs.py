"""One table of malformed inputs, each with the typed error it must raise.

Arrays pass linalg's gate (nonempty, finite numbers, right number of
dimensions; real numbers for a quadric) and maps act on C^N with N >= 1, so N = 0 is refused where
the map or its arrays are built, not later by a bare IndexError.
"""

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    ContractViolation,
    EllipsoidImage,
    LFMap,
    ShapeError,
    bruhat_factorize,
    classify_fixed_point,
    compose_factor_maps,
    factors_to_maps,
    from_associated_matrix,
    image_ellipsoid,
    krein_check,
    pullback_affine,
    pullback_map,
    sphere_points,
)
from ballmaps import lfm
from ballmaps.bruhat import transposition_matrix
from ballmaps.linalg import as_vector
from ballmaps.quadric import (
    Quadric,
    evaluate,
    evaluate_batch,
    from_hermitian,
    from_standard_form,
    residual,
)

EMPTY = np.zeros((0, 0))
SPHERE_2 = Quadric(np.eye(4), np.zeros(4), -1.0)
POINTS_3 = np.full((2, 3), 0.1)


def subnormal_map():
    """A map LFMap accepts whose max|m| and |d| are below the smallest
    normal double, so that 1/max|m| and 1/d overflow."""
    return LFMap([[1e-313]], [5e-314], [2.5e-314], 1e-313)


def huge_map():
    """A well-conditioned map with entries of 1e160, whose associated
    matrix squared overflows."""
    return LFMap(1e160 * np.eye(1), [0.0], [0.0], 1e160)


MALFORMED = [
    ("lfmap_n0", lambda: LFMap(EMPTY, [], [], 1.0), ShapeError),
    ("identity_n0", lambda: LFMap.identity(0), ShapeError),
    ("lfmap_ragged_a", lambda: LFMap([[1.0, 0.0], [0.0]], [0, 0], [0, 0], 1.0), ContractViolation),
    ("lfmap_d_not_a_number", lambda: LFMap(np.eye(1), [0.0], [0.0], None), ContractViolation),
    ("vector_of_strings", lambda: as_vector(["x"]), ContractViolation),
    ("ellipsoid_n0", lambda: EllipsoidImage(np.zeros(0), EMPTY), ShapeError),
    ("automorphism_n0", lambda: BallAutomorphism(np.zeros(0), EMPTY), ShapeError),
    ("bruhat_n0", lambda: factors_to_maps(bruhat_factorize(EMPTY)), ShapeError),
    ("transposition_out_of_range", lambda: transposition_matrix(2, 0, 5), ContractViolation),
    ("transposition_negative", lambda: transposition_matrix(2, -1, 1), ContractViolation),
    ("compose_no_factors", lambda: compose_factor_maps([]), ContractViolation),
    ("quadric_points_of_other_dim", lambda: evaluate_batch(SPHERE_2, POINTS_3), ShapeError),
    ("quadric_point_of_other_dim", lambda: evaluate(SPHERE_2, POINTS_3[0]), ShapeError),
    ("quadric_residual_other_dim", lambda: residual(SPHERE_2, POINTS_3), ShapeError),
    ("quadric_complex_c", lambda: Quadric(np.eye(2), np.zeros(2), 1j), ContractViolation),
    ("quadric_string_c", lambda: Quadric(np.eye(2), np.zeros(2), "1"), ContractViolation),
    ("quadric_complex_s", lambda: Quadric(np.eye(2) * (1 + 1j), np.zeros(2), -1.0), ContractViolation),
    ("quadric_complex_b", lambda: Quadric(np.eye(2), [0.5j, 0.0], -1.0), ContractViolation),
    ("quadric_string_s", lambda: Quadric([["x", "0"], ["0", "1"]], np.zeros(2), -1.0), ContractViolation),
    ("quadric_ragged_s", lambda: Quadric([[1.0, 0.0], [0.0]], np.zeros(2), -1.0), ContractViolation),
    ("standard_form_complex_alphas", lambda: from_standard_form([1j], [0], [0], -1.0), ContractViolation),
    ("standard_form_string_betas", lambda: from_standard_form([1], ["y"], [0], -1.0), ContractViolation),
    ("standard_form_complex_delta", lambda: from_standard_form([1], [0], [0], 1j), ContractViolation),
    ("sphere_points_dim_0", lambda: sphere_points(3, 0, 1), ContractViolation),
    ("sphere_points_dim_negative", lambda: sphere_points(3, -1, 1), ContractViolation),
    ("krein_subnormal_scale", lambda: krein_check(subnormal_map()), ContractViolation),
    ("classify_subnormal_scale", lambda: classify_fixed_point(subnormal_map(), 0.5), ContractViolation),
    ("ellipsoid_subnormal_d", lambda: image_ellipsoid(subnormal_map()), ContractViolation),
    # Past the largest double: an entry's modulus (numpy's SVD returns nan)
    # or the norm (inf).  from_associated_matrix divides by d unless d is
    # negligible, so its overflowing norm comes with d = 1.
    ("lfmap_overflowing_entry", lambda: LFMap([[1e308]], [0.0], [0.0], complex(1.5e308, 1.5e308)), ContractViolation),
    ("lfmap_overflowing_norm", lambda: LFMap([[1.7e308]], [1.7e308], [0.0], 1.7e308), ContractViolation),
    (
        "associated_matrix_overflowing_entry",
        lambda: from_associated_matrix([[1e308, 0.0], [0.0, complex(1.5e308, 1.5e308)]]),
        ContractViolation,
    ),
    (
        "associated_matrix_overflowing_norm",
        lambda: from_associated_matrix([[1.7e308, 1.7e308], [0.0, 1.0]]),
        ContractViolation,
    ),
    # Products past the largest double: the associated matrices' product,
    # the numerator a z + b and the denominator <z, c> + d.
    ("compose_overflowing_product", lambda: lfm.compose(huge_map(), huge_map()), ContractViolation),
    ("evaluate_overflowing_value", lambda: lfm.evaluate(LFMap([[1e300]], [0.0], [0.0], 1e300), [1e10]), ContractViolation),
    ("evaluate_overflowing_denominator", lambda: lfm.evaluate(LFMap([[1.0]], [0.0], [2.0], 1.0), [1e308]), ContractViolation),
    ("associated_matrix_1x1", lambda: from_associated_matrix([[1.0]]), ShapeError),
    ("map_points_of_other_dim", lambda: lfm.evaluate_batch(LFMap.identity(2), POINTS_3), ShapeError),
    ("ellipsoid_center_vs_shape", lambda: EllipsoidImage(np.zeros(3), np.eye(2)), ShapeError),
    ("standard_form_unequal_lengths", lambda: from_standard_form([1, 1], [0], [0, 0], -1.0), ShapeError),
    ("hermitian_1x1", lambda: from_hermitian([[1.0]]), ShapeError),
    ("pullback_affine_other_dim", lambda: pullback_affine(SPHERE_2, LFMap.identity(3)), ShapeError),
    ("pullback_map_other_dim", lambda: pullback_map(SPHERE_2, LFMap.identity(3)), ShapeError),
]


@pytest.mark.parametrize("build, error", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED])
def test_malformed_input_raises_its_typed_error(build, error):
    with pytest.raises(error):
        build()
