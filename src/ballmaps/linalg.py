"""Dense complex linear algebra kernel sized for small matrices.

Everything here works on square complex128 arrays of modest dimension
(a dozen rows or so).  Inversion, products and factorizations delegate
to numpy and so to LAPACK; the wrappers coerce and check their input and
raise this package's typed errors.  The one caller of inverse is
lfm.invert: LFMap itself tests its matrix by singular values.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, ShapeError, SingularMatrixError


def as_vector(entries) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractViolation("vector entries must be finite")
    return v


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractViolation("matrix entries must be finite")
    return m


def as_square_matrix(entries) -> np.ndarray:
    m = as_matrix(entries)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def inverse(a) -> np.ndarray:
    """Invert a square matrix by LAPACK's LU factorization (numpy's inv).

    LAPACK reports a matrix singular only when a pivot of its LU factor is
    exactly zero; that raises SingularMatrixError with pivot 0.  A matrix
    singular only to rounding is inverted, so callers that need a
    conditioning test make it first, as LFMap does.
    """
    a = as_square_matrix(a)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}", pivot=0.0) from exc


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = w @ diag(s) @ v.conj().T.

    Returns (w, s, v) with w, v unitary and s nonnegative descending.
    """
    a = as_square_matrix(a)
    w, s, vh = np.linalg.svd(a)
    return w, s, vh.conj().T


def polar_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition a = p @ u.

    p is Hermitian positive semidefinite and u is unitary; for
    rank-deficient inputs u is completed unitarily from the singular
    vectors.
    """
    return polar_from_svd(*svd(a))


def polar_from_svd(w, s, v) -> tuple[np.ndarray, np.ndarray]:
    """polar_decompose's (p, u) from an SVD a = w @ diag(s) @ v.conj().T
    that the caller already holds."""
    p = (w * s) @ w.conj().T
    p = (p + p.conj().T) / 2.0
    return p, w @ v.conj().T
