"""Shape-checked linear algebra wrappers."""

import numpy as np
import pytest

from ballmaps import ContractViolation, DegenerateMapError, ShapeError
from ballmaps.linalg import (
    as_matrix,
    as_square_matrix,
    as_vector,
    inverse,
    polar_from_svd,
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


def test_inverse_is_lapack():
    # inverse adds only coercion and the typed error to numpy's LU inverse
    rng = np.random.default_rng(14)
    for n in range(1, 10):
        for _ in range(30):
            a = random_complex_matrix(rng, n)
            assert inverse(a).tobytes() == np.linalg.inv(a).tobytes()


def test_inverse_repeated_row_is_singular():
    # LAPACK flags only an exactly zero pivot.  The power-of-two pivot in
    # the repeated row makes the multiplier of its copy exactly 1, so the
    # copy is eliminated to an exactly zero row.
    rng = np.random.default_rng(15)
    for n in range(2, 10):
        a = random_complex_matrix(rng, n)
        a[0, 0] = 64.0
        a[-1] = a[0]
        with pytest.raises(DegenerateMapError):
            inverse(a)


def test_inverse_singular_is_degenerate():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
    with pytest.raises(DegenerateMapError):
        inverse(a)


def test_svd_reconstructs():
    rng = np.random.default_rng(12)
    a = random_complex_matrix(rng, 4)
    w, s, v = svd(a)
    np.testing.assert_allclose(w @ np.diag(s) @ v.conj().T, a, atol=1e-10)
    assert np.all(np.diff(s) <= 0), "singular values must be descending"
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def _reference_polar(a):
    """p = (a a*)^(1/2) by eigh and u = p^-1 a, sharing no code with
    polar_from_svd; a must be invertible."""
    lam, q = np.linalg.eigh(a @ a.conj().T)
    p = (q * np.sqrt(lam)) @ q.conj().T
    return p, np.linalg.solve(p, a)


def test_polar_decompose_frozen():
    # a = p @ u with p = diag(2, 1) psd and u the swap, by hand
    a = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=np.complex128)
    p, u = polar_from_svd(*svd(a))
    np.testing.assert_allclose(p, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    p_ref, u_ref = _reference_polar(a)
    np.testing.assert_allclose(p, p_ref, atol=1e-12)
    np.testing.assert_allclose(u, u_ref, atol=1e-12)


def test_polar_decompose_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_complex_matrix(rng, 3)
        p, u = polar_from_svd(*svd(a))
        np.testing.assert_allclose(p @ u, a, atol=1e-9)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
        p_ref, u_ref = _reference_polar(a)
        np.testing.assert_allclose(p, p_ref, atol=1e-9)
        np.testing.assert_allclose(u, u_ref, atol=1e-9)
