"""Dense complex linear algebra kernel sized for small matrices.

Everything here works on square complex128 arrays of modest dimension
(a dozen rows or so).  Matrix products and factorizations delegate to
numpy; inversion runs its own Gauss-Jordan elimination so that a failed
pivot can be reported with its magnitude.  Its one caller is
lfm.invert: LFMap itself tests its matrix by singular values.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, ShapeError, SingularMatrixError

PIVOT_TOL = 1e-12


def as_vector(entries) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    v = np.asarray(entries, dtype=np.complex128)
    if v.ndim != 1:
        raise ShapeError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("vector entries must be finite")
    return v


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation("matrix entries must be finite")
    return m


def as_square_matrix(entries) -> np.ndarray:
    m = as_matrix(entries)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def inverse(a) -> np.ndarray:
    """Invert a square matrix by Gauss-Jordan elimination with partial pivoting.

    A pivot whose magnitude falls below PIVOT_TOL times the largest
    euclidean row norm of the input raises SingularMatrixError carrying
    that magnitude.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    scale = float(np.max(np.linalg.norm(a, axis=1))) if n else 0.0
    threshold = PIVOT_TOL * scale
    work = np.concatenate([a.copy(), np.eye(n, dtype=np.complex128)], axis=1)
    for j in range(n):
        col = np.abs(work[j:, j])
        k = j + int(np.argmax(col))
        pivot = abs(work[k, j])
        if pivot <= threshold:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below threshold {threshold:.3e} in column {j}",
                pivot=pivot,
            )
        if k != j:
            work[[j, k]] = work[[k, j]]
        work[j] /= work[j, j]
        # Clear column j from the other rows in one rank-one update; rows
        # whose factor is 0 are left as they are (signed zeros included).
        factors = work[:, j, None].copy()
        factors[j] = 0.0
        np.subtract(work, factors * work[j], out=work, where=factors != 0)
    return np.ascontiguousarray(work[:, n:])


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
    a = as_square_matrix(a)
    w, s, v = svd(a)
    p = (w * s) @ w.conj().T
    p = (p + p.conj().T) / 2.0
    u = w @ v.conj().T
    return p, u
