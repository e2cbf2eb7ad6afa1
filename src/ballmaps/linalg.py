"""Dense complex linear algebra kernel sized for small matrices.

as_vector, as_matrix and as_square_matrix are the one gate for arrays
from outside the package, which every constructor uses: they coerce to
complex128 and raise ShapeError unless the array is nonempty with the
right number of dimensions, ContractViolation unless its entries are
finite numbers.  as_real is the same gate for the real arrays of a
quadric: it coerces to float64 and also refuses complex entries, whose
imaginary parts numpy would drop.  Arrays built from checked ones are
not checked again.

eig, eigh, svd, svdvals and inverse are the package's one door to LAPACK:
no other module factors a matrix.  Each calls the gufunc that numpy.linalg
itself calls (numpy.linalg._umath_linalg, by its numpy 2.x name) with
numpy.linalg's signature for complex input, so each result is numpy.linalg's
bit for bit.  What the door leaves out is numpy.linalg's per-call dispatch:
type promotion, eig's finiteness scan, a fresh errstate and the wrapping of
results.  That dispatch costs 3-8 us per call (5 x 5 complex, one thread),
against 2-20 us for LAPACK's own work: a quarter to three fifths of each
call on the package's matrices, 9 x 9 and smaller, two to seven a check().

Precondition: every argument is a finite, square complex128 matrix that
the package formed from checked arrays.  Nothing here tests that.  A
non-finite entry is outside it; eig may never return on an infinite one.

Error policy, numpy.linalg's own: each call runs under one np.errstate
with invalid="raise" and over, divide and under ignored.  LAPACK's failure
flag (no convergence, or a NaN that LAPACK reads) raises numpy's
LinAlgError, and no numpy warning gets out.  An exactly zero LU pivot is
inverse's failure flag, which it raises as DegenerateMapError; like
numpy.linalg.inv, it returns NaNs for a NaN entry.  polar_from_svd forms
the polar factors from an SVD the caller already holds.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, a: np.ndarray, signature: str):
    """gufunc(a) under numpy.linalg's error policy (module docstring)."""
    try:
        return gufunc(a, signature=signature)
    except FloatingPointError:
        raise LinAlgError(f"LAPACK failed in {gufunc.__name__}") from None


def eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and unit eigenvector columns of a square matrix, as
    numpy.linalg.eig."""
    return _lapack(_umath_linalg.eig, a, "D->DD")


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a
    Hermitian matrix, read from its lower triangle, as numpy.linalg.eigh."""
    return _lapack(_umath_linalg.eigh_lo, a, "D->dD")


def inverse(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix by LAPACK's LU factorization (numpy's inv).

    LAPACK reports a matrix singular only when a pivot of its LU factor is
    exactly zero; that raises DegenerateMapError.  A matrix singular only
    to rounding is inverted, so callers that need a conditioning test make
    it first, as LFMap does.
    """
    try:
        return _lapack(_umath_linalg.inv, a, "D->D")
    except LinAlgError as exc:
        raise DegenerateMapError("map is not invertible") from exc


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition a = w @ diag(s) @ v.conj().T, as
    numpy.linalg.svd.  Returns (w, s, v) with w, v unitary and s
    nonnegative descending.
    """
    w, s, vh = _lapack(_umath_linalg.svd_f, a, "D->DdD")
    return w, s, vh.conj().T


def svdvals(a: np.ndarray) -> np.ndarray:
    """The singular values of svd alone, descending, as numpy.linalg.svd
    with compute_uv=False."""
    return _lapack(_umath_linalg.svd, a, "D->d")


def polar_from_svd(w, s, v) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition a = p @ u from an SVD a = w @ diag(s) @
    v.conj().T that the caller already holds.

    p is Hermitian positive semidefinite and u is unitary; for a
    rank-deficient a, u is completed unitarily from the singular vectors.
    """
    p = (w * s) @ w.conj().T
    p = (p + p.conj().T) / 2.0
    return p, w @ v.conj().T
