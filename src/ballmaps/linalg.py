"""Dense complex linear algebra kernel sized for small matrices.

as_vector, as_matrix and as_square_matrix are the one gate for arrays
from outside the package, which every constructor uses: they coerce to
complex128 and raise ShapeError unless the array is nonempty with the
right number of dimensions, ContractViolation unless its entries are
finite numbers.  as_real is the same gate for the real arrays of a
quadric: it coerces to float64 and also refuses complex entries, whose
imaginary parts numpy would drop.  Arrays built from checked ones are
not checked again, so inverse and svd take checked square matrices (a
dozen rows or so) and delegate to LAPACK; polar_from_svd forms the polar
factors from an SVD the caller already holds.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DegenerateMapError, ShapeError


def _checked(entries, ndim: int, kind: str, real: bool = False) -> np.ndarray:
    field = "real" if real else "complex"
    try:
        if real and np.iscomplexobj(entries):
            raise TypeError("complex entries")
        a = np.asarray(entries, dtype=np.float64 if real else np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(f"{kind} entries must be {field} numbers: {exc}") from exc
    if a.ndim != ndim or a.size == 0:
        raise ShapeError(f"expected a nonempty {kind}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ContractViolation(f"{kind} entries must be finite")
    return a


def as_vector(entries) -> np.ndarray:
    """Coerce to a nonempty, finite 1-d complex128 array."""
    return _checked(entries, 1, "vector")


def as_matrix(entries) -> np.ndarray:
    """Coerce to a nonempty, finite 2-d complex128 array."""
    return _checked(entries, 2, "matrix")


def as_square_matrix(entries) -> np.ndarray:
    """Coerce to a nonempty, finite, square complex128 matrix."""
    m = as_matrix(entries)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_real(entries, ndim: int) -> np.ndarray:
    """Coerce to a nonempty, finite float64 array of ndim (1 or 2) dimensions."""
    return _checked(entries, ndim, ("vector", "matrix")[ndim - 1], real=True)


def inverse(a) -> np.ndarray:
    """Invert a checked square matrix by LAPACK's LU factorization (numpy's inv).

    LAPACK reports a matrix singular only when a pivot of its LU factor is
    exactly zero; that raises DegenerateMapError.  A matrix singular only
    to rounding is inverted, so callers that need a conditioning test make
    it first, as LFMap does.
    """
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMapError("map is not invertible") from exc


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = w @ diag(s) @ v.conj().T of a
    checked matrix.  Returns (w, s, v) with w, v unitary and s nonnegative
    descending.
    """
    w, s, vh = np.linalg.svd(a)
    return w, s, vh.conj().T


def polar_from_svd(w, s, v) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition a = p @ u from an SVD a = w @ diag(s) @
    v.conj().T that the caller already holds.

    p is Hermitian positive semidefinite and u is unitary; for a
    rank-deficient a, u is completed unitarily from the singular vectors.
    """
    p = (w * s) @ w.conj().T
    p = (p + p.conj().T) / 2.0
    return p, w @ v.conj().T
