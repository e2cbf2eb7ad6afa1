"""Linear fractional maps and the associated-matrix calculus."""

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    DegenerateMapError,
    LFMap,
    PoleError,
    ShapeError,
    classical_disk_criterion,
    compose,
    evaluate,
    evaluate_batch,
    from_associated_matrix,
    invert,
)

from conftest import random_ball_point, random_complex_matrix


def test_worked_map_values(worked_map):
    np.testing.assert_allclose(worked_map([0.0, 0.0]), [1.0 / 3.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(worked_map([1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(worked_map([1j, 0.0]), [0.2 + 0.4j, 0.0], atol=1e-15)


def test_associated_matrix_layout(worked_map):
    m = worked_map.associated_matrix()
    expected = np.array(
        [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 3.0]], dtype=np.complex128
    )
    np.testing.assert_array_equal(m, expected)


def test_constructor_validates_shapes():
    with pytest.raises(ShapeError):
        LFMap(np.eye(2), [1.0], [0.0, 0.0], 1.0)
    with pytest.raises(ShapeError):
        LFMap(np.ones((2, 3)), [0.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(ContractViolation):
        LFMap(np.eye(1), [0.0], [0.0], complex(np.nan))


def test_constructor_rejects_singular_matrix():
    # b = a e1 and d = conj(c1) make the last column a multiple of the first
    with pytest.raises(DegenerateMapError):
        LFMap(np.eye(2), [1.0, 0.0], [1.0, 0.0], 1.0)


def test_identity_and_make():
    phi = LFMap.identity(3)
    z = np.array([0.1, 0.2j, -0.3])
    np.testing.assert_array_equal(phi(z), z)
    psi = LFMap(np.eye(2), [0.0, 0.0], [0.0, 0.0], 2.0)
    np.testing.assert_allclose(psi([0.4, 0.0]), [0.2, 0.0], atol=1e-15)


def test_pole_free_on_ball(worked_map):
    assert worked_map.pole_free_on_ball
    assert not LFMap(np.eye(1), [0.0], [2.0], 1.0).pole_free_on_ball


def test_evaluate_raises_at_pole():
    phi = LFMap(np.eye(1), [0.0], [2.0], 1.0)
    with pytest.raises(PoleError) as err:
        evaluate(phi, [-0.5])
    np.testing.assert_allclose(err.value.point, [-0.5], atol=1e-15)


def test_evaluate_batch_matches_evaluate(worked_map):
    rng = np.random.default_rng(21)
    pts = np.stack([random_ball_point(rng, 2) for _ in range(40)])
    batch = evaluate_batch(worked_map, pts)
    for k in range(len(pts)):
        np.testing.assert_allclose(batch[k], evaluate(worked_map, pts[k]), atol=1e-13)


def test_evaluate_batch_flags_offending_sample(worked_map):
    pts = np.zeros((3, 1), dtype=np.complex128)
    pts[1, 0] = -0.5
    phi = LFMap(np.eye(1), [0.0], [2.0], 1.0)
    with pytest.raises(PoleError) as err:
        evaluate_batch(phi, pts)
    np.testing.assert_allclose(err.value.point, [-0.5], atol=1e-15)


def test_from_associated_matrix_normalizes_scale(worked_map):
    m = worked_map.associated_matrix()
    phi = from_associated_matrix(5.0 * m)
    psi = from_associated_matrix(m)
    np.testing.assert_allclose(phi.a, psi.a, atol=1e-15)
    np.testing.assert_allclose(phi.b, psi.b, atol=1e-15)
    np.testing.assert_allclose(phi.c, psi.c, atol=1e-15)
    assert abs(phi.d - 1.0) < 1e-15


def test_from_associated_matrix_zero_corner():
    # lower-right entry zero: the scale is kept and the map is z -> 1/z
    phi = from_associated_matrix([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(phi([0.5]), [2.0], atol=1e-15)


def test_compose_is_matrix_product():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        mf = random_complex_matrix(rng, n + 1)
        mg = random_complex_matrix(rng, n + 1)
        f = from_associated_matrix(mf)
        g = from_associated_matrix(mg)
        h = compose(f, g)
        prod = mf @ mg
        # proportional up to the normalizing scalar
        ratio = prod[np.abs(prod) > 1e-9] / h.associated_matrix()[np.abs(prod) > 1e-9]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10 * np.max(np.abs(ratio))
        for _ in range(5):
            z = random_ball_point(rng, n, radius=0.5)
            try:
                expected = f(g(z))
            except PoleError:
                continue
            np.testing.assert_allclose(h(z), expected, atol=1e-9)


def test_compose_dimension_mismatch(worked_map):
    with pytest.raises(ShapeError):
        compose(worked_map, LFMap.identity(3))


def test_invert_round_trip(worked_map):
    inv = invert(worked_map)
    rng = np.random.default_rng(23)
    for _ in range(20):
        z = random_ball_point(rng, 2)
        np.testing.assert_allclose(inv(worked_map(z)), z, atol=1e-12)
    both = compose(inv, worked_map)
    np.testing.assert_allclose(both.associated_matrix(), np.eye(3), atol=1e-12)


def test_classical_disk_criterion_frozen():
    half = LFMap(np.eye(1) / 2, [0.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(half)
    assert verdict and abs(margin - 0.5) < 1e-15

    double = LFMap(2 * np.eye(1), [0.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(double)
    assert not verdict and abs(margin + 1.0) < 1e-15

    # disk automorphism (z - 1/2) / (1 - z/2) sits exactly on the margin
    aut = LFMap(np.eye(1), [-0.5], [-0.5], 1.0)
    verdict, margin = classical_disk_criterion(aut)
    assert verdict and abs(margin) < 1e-15

    translate = LFMap(np.eye(1), [1.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(translate)
    assert not verdict and abs(margin + 1.0) < 1e-15


def test_classical_disk_criterion_needs_dimension_one(worked_map):
    with pytest.raises(ContractViolation):
        classical_disk_criterion(worked_map)
