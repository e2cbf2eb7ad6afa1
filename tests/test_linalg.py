"""Shape-checked linear algebra wrappers."""

import numpy as np
import pytest

from ballmaps import ContractViolation, ShapeError, SingularMatrixError
from ballmaps.linalg import (
    as_matrix,
    as_square_matrix,
    as_vector,
    inverse,
    polar_decompose,
    svd,
)

from conftest import random_complex_matrix


def test_as_vector_coerces_and_validates():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.complex128
    assert v.shape == (2,)
    with pytest.raises(ShapeError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ContractViolation):
        as_vector([1.0, np.nan])


def test_as_vector_accepts_noncontiguous_slice():
    m = np.arange(9, dtype=np.complex128).reshape(3, 3)
    v = as_vector(m[:2, 2])
    np.testing.assert_array_equal(v, [2.0, 5.0])


def test_as_matrix_coerces_and_validates():
    a = as_matrix(np.eye(3))
    assert a.dtype == np.complex128
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ContractViolation):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        as_square_matrix(np.ones((2, 3)))


def test_inverse_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            a = random_complex_matrix(rng, n)
            inv = inverse(a)
            np.testing.assert_allclose(a @ inv, np.eye(n), atol=1e-10)
            np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-10)


def row_by_row_inverse(a, pivot_tol=1e-12):
    """Gauss-Jordan elimination one row at a time, the reference for inverse."""
    n = a.shape[0]
    threshold = pivot_tol * float(np.max(np.linalg.norm(a, axis=1)))
    work = np.concatenate([a.copy(), np.eye(n, dtype=np.complex128)], axis=1)
    for j in range(n):
        k = j + int(np.argmax(np.abs(work[j:, j])))
        if abs(work[k, j]) <= threshold:
            return abs(work[k, j])
        work[[j, k]] = work[[k, j]]
        work[j] /= work[j, j]
        for i in range(n):
            if i != j and work[i, j] != 0:
                work[i] -= work[i, j] * work[j]
    return work[:, n:]


def test_inverse_matches_row_by_row_elimination():
    # same pivots and the same arithmetic: equal bits, signed zeros included
    rng = np.random.default_rng(14)
    for n in range(1, 10):
        for k in range(30):
            a = random_complex_matrix(rng, n)
            if k % 3 == 0:
                a = np.triu(a.real).astype(np.complex128)
            if k % 5 == 0 and n > 1:
                a[1] = 2.0 * a[0]
            expected = row_by_row_inverse(a)
            if isinstance(expected, float):
                with pytest.raises(SingularMatrixError) as err:
                    inverse(a)
                assert err.value.pivot == expected
            else:
                assert inverse(a).tobytes() == expected.tobytes()


def test_inverse_singular_reports_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
    with pytest.raises(SingularMatrixError) as err:
        inverse(a)
    assert err.value.pivot <= 1e-11


def test_svd_reconstructs():
    rng = np.random.default_rng(12)
    a = random_complex_matrix(rng, 4)
    w, s, v = svd(a)
    np.testing.assert_allclose(w @ np.diag(s) @ v.conj().T, a, atol=1e-10)
    assert np.all(np.diff(s) <= 0), "singular values must be descending"
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def test_polar_decompose_frozen():
    # a = p @ u with p = diag(2, 1) psd and u the swap, by hand
    a = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=np.complex128)
    p, u = polar_decompose(a)
    np.testing.assert_allclose(p, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


def test_polar_decompose_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_complex_matrix(rng, 3)
        p, u = polar_decompose(a)
        np.testing.assert_allclose(p @ u, a, atol=1e-9)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
