"""Triangular-permutation factorization and elementary map factors."""

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    DegenerateMapError,
    LFMap,
    PoleError,
    ShapeError,
    bruhat_factorize,
    compose,
    compose_factor_maps,
    factors_to_maps,
    from_associated_matrix,
    permutation_to_transpositions,
    transposition_matrix,
)
from ballmaps.bruhat import FactorMap

from conftest import random_ball_point, random_complex_matrix


def is_unit_upper_triangular(u):
    return np.allclose(np.tril(u, -1), 0.0, atol=1e-15) and np.allclose(
        np.diag(u), 1.0, atol=1e-15
    )


def test_worked_map_factorization(worked_map):
    # small exact rationals: the multipliers -1 and -3, the pivots -1, 2, 4
    m = worked_map.associated_matrix()
    fac = bruhat_factorize(m)
    assert fac.perm == (2, 1, 0)
    np.testing.assert_allclose(fac.recompose(), m, atol=1e-15)
    np.testing.assert_allclose(
        fac.permutation_matrix(),
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        atol=1e-15,
    )
    np.testing.assert_array_equal(fac.left_unipotent, [[1, 0, -1], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(fac.right_unipotent, [[1, 0, -3], [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(fac.diag, np.diag([-1.0, 2.0, 4.0]))


def test_worked_map_factor_structure(worked_map):
    maps = factors_to_maps(bruhat_factorize(worked_map.associated_matrix()))
    kinds = [f.kind for f in maps]
    assert kinds == ["multilinear", "reflection", "multilinear", "multilinear"]
    assert maps[1].swap == (0, 2)
    rebuilt = compose_factor_maps(maps)
    rng = np.random.default_rng(41)
    for _ in range(10):
        z = random_ball_point(rng, 2)
        np.testing.assert_allclose(rebuilt(z), worked_map(z), atol=1e-12)


def test_identity_factorization():
    fac = bruhat_factorize(np.eye(3))
    assert fac.perm == (0, 1, 2)
    maps = factors_to_maps(fac)
    assert len(maps) == 1 and maps[0].kind == "multilinear"
    z = np.array([0.2, -0.3j])
    np.testing.assert_array_equal(maps[0].map(z), z)


def test_factorize_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = random_complex_matrix(rng, n)
        fac = bruhat_factorize(m)
        assert is_unit_upper_triangular(fac.left_unipotent)
        assert is_unit_upper_triangular(fac.right_unipotent)
        np.testing.assert_allclose(fac.diag, np.diag(np.diag(fac.diag)), atol=1e-15)
        assert np.min(np.abs(np.diag(fac.diag))) > 0.0
        assert sorted(fac.perm) == list(range(n))
        residual = np.max(np.abs(fac.recompose() - m)) / np.max(np.abs(m))
        assert residual < 1e-9, f"recomposition residual {residual:.3e}"


def test_factorize_rejects_singular():
    with pytest.raises(DegenerateMapError):
        bruhat_factorize([[1.0, 2.0], [2.0, 4.0]])


def test_permutation_to_transpositions():
    assert permutation_to_transpositions((0, 1, 2)) == []
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        perm = tuple(rng.permutation(n).tolist())
        pairs = permutation_to_transpositions(perm)
        assert len(pairs) <= max(n - 1, 0)
        prod = np.eye(n)
        for i, j in pairs:
            prod = prod @ transposition_matrix(n, i, j)
        expected = np.zeros((n, n))
        for j, i in enumerate(perm):
            expected[i, j] = 1.0
        np.testing.assert_array_equal(prod, expected)
    with pytest.raises(ContractViolation):
        permutation_to_transpositions((0, 0, 1))


def test_factor_maps_structure_random():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = random_complex_matrix(rng, n + 1)
        maps = factors_to_maps(bruhat_factorize(m))
        for f in maps:
            am = f.map.associated_matrix()
            if f.kind == "reflection":
                i, j = f.swap
                np.testing.assert_array_equal(am, transposition_matrix(n + 1, i, j))
            else:
                assert f.kind == "multilinear"
                # affine factor: upper triangular associated matrix, c = 0
                assert np.allclose(np.tril(am, -1), 0.0, atol=1e-12)
                assert np.linalg.norm(f.map.c) == 0.0


def test_factor_maps_recompose_pointwise():
    rng = np.random.default_rng(45)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = random_complex_matrix(rng, n + 1)
        phi = from_associated_matrix(m)
        rebuilt = compose_factor_maps(factors_to_maps(bruhat_factorize(m)))
        for _ in range(8):
            z = random_ball_point(rng, n, radius=0.6)
            try:
                expected = phi(z)
            except PoleError:
                continue
            np.testing.assert_allclose(rebuilt(z), expected, atol=1e-8)
            checked += 1
    assert checked > 100


def test_compose_factor_maps_is_the_matrix_product():
    # one map from the product of the factors' matrices, which agrees with
    # folding the factors with compose to rounding
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        pieces = factors_to_maps(bruhat_factorize(random_complex_matrix(rng, n + 1)))
        folded = compose_factor_maps(pieces)
        prod = pieces[0].map.associated_matrix()
        step = pieces[0].map
        for f in pieces[1:]:
            prod = prod @ f.map.associated_matrix()
            step = compose(step, f.map)
        expected = prod / prod[n, n]
        assert folded.associated_matrix().tobytes() == expected.tobytes()
        np.testing.assert_allclose(
            folded.associated_matrix(), step.associated_matrix(), rtol=0.0, atol=1e-12
        )


def test_compose_factor_maps_single_factor():
    phi = LFMap(np.diag([1.0, 2.0]), [1.0, 0.0], [0.0, 0.0], 3.0)
    folded = compose_factor_maps([FactorMap("multilinear", None, phi)])
    expected = phi.associated_matrix() / 3.0
    assert folded.associated_matrix().tobytes() == expected.tobytes()
    z = np.array([0.3, -0.2j])
    np.testing.assert_allclose(folded(z), phi(z), rtol=0.0, atol=1e-15)
    (only,) = factors_to_maps(bruhat_factorize(np.eye(3)))
    same = compose_factor_maps([only])
    assert same.associated_matrix().tobytes() == only.map.associated_matrix().tobytes()


def test_compose_factor_maps_rejects_mixed_dimensions():
    pieces = [
        FactorMap("multilinear", None, LFMap.identity(2)),
        FactorMap("multilinear", None, LFMap.identity(3)),
    ]
    with pytest.raises(ShapeError):
        compose_factor_maps(pieces)



def test_reflections_are_shared_and_read_only():
    # Both permutations split into transpositions that include (1, 3), so the
    # two factorizations return one and the same reflection factor.
    rng = np.random.default_rng(19)
    found = []
    for perm in ((0, 3, 2, 1), (2, 3, 0, 1)):
        p = np.zeros((4, 4))
        p[perm, range(4)] = 1.0
        u1, u2 = (np.triu(rng.standard_normal((4, 4)), 1) + np.eye(4) for _ in range(2))
        fac = bruhat_factorize(u1 @ p @ np.diag(rng.uniform(1.0, 2.0, 4)) @ u2)
        assert fac.perm == perm
        found.append({f.swap: f for f in factors_to_maps(fac) if f.kind == "reflection"})
    assert set(found[0]) == {(1, 3)} and set(found[1]) == {(0, 2), (1, 3)}
    shared = found[0][(1, 3)]
    assert found[1][(1, 3)] is shared
    assert not shared.map._m.flags.writeable
    with pytest.raises(ValueError):
        shared.map.a[0, 0] = 2.0
    np.testing.assert_array_equal(shared.map.associated_matrix(), transposition_matrix(4, 1, 3))
