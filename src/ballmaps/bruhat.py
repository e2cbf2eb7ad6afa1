"""Bruhat-style factorization of invertible matrices and the induced
splitting of a linear fractional map into elementary factors.

Any invertible m factors as m = u1 @ P @ diag @ u2 with u1, u2
unipotent upper triangular, P a permutation matrix and diag diagonal.
The permutation then splits into transpositions; each transposition
gives a coordinate-swap map (a reflection, possibly through the
homogeneous slot, where it acts as an inversion) while the triangular
factors give affine maps.  A reflection depends only on the size and the
swapped pair, so each one is built and checked once and then shared by
every factorization: an immutable FactorMap around a read-only matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolation, DegenerateMapError, ShapeError
from .lfm import LFMap, _ldexp, _unit, from_associated_matrix

PIVOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BruhatFactors:
    """Factorization m = left_unipotent @ P(perm) @ diag @ right_unipotent.

    ``perm[j]`` is the pivot row of column j, so the permutation matrix
    has ones at (perm[j], j).
    """

    left_unipotent: np.ndarray
    perm: tuple[int, ...]
    diag: np.ndarray
    right_unipotent: np.ndarray

    def permutation_matrix(self) -> np.ndarray:
        n = len(self.perm)
        p = np.zeros((n, n), dtype=np.complex128)
        for j, i in enumerate(self.perm):
            p[i, j] = 1.0
        return p

    def recompose(self) -> np.ndarray:
        return (
            self.left_unipotent
            @ self.permutation_matrix()
            @ self.diag
            @ self.right_unipotent
        )


def bruhat_factorize(m) -> BruhatFactors:
    """Factor an invertible matrix by structured Gaussian elimination.

    Columns are processed left to right; the pivot of each column is the
    lowest not-yet-claimed row whose entry is nonzero (an entry counts
    as zero below PIVOT_TOL times the largest input magnitude).  Row
    operations clear the column above its pivot and column operations
    clear the pivot row to the right.  As L holds the multipliers in LU,
    u1 and u2 hold the elimination multipliers: entry (i, pivot row) of
    u1 is the multiple of the pivot row taken from row i, and entry
    (j, k) of u2 the multiple of column j taken from column k.  The
    elimination runs on m / 2^e, with max|m / 2^e| in [1/2, 1), so that no
    pivot is subnormal; the diagonal factor carries 2^e back, exactly.
    """
    m, e = _unit(linalg.as_square_matrix(m))
    n = m.shape[0]
    threshold = PIVOT_TOL * float(np.max(np.abs(m)))
    work = m.copy()
    u1 = np.eye(n, dtype=np.complex128)
    u2 = np.eye(n, dtype=np.complex128)
    claimed = np.zeros(n, dtype=bool)
    perm = [0] * n
    for j in range(n):
        pivot_row = -1
        for i in range(n - 1, -1, -1):
            if not claimed[i] and abs(work[i, j]) > threshold:
                pivot_row = i
                break
        if pivot_row < 0:
            raise DegenerateMapError(
                f"no usable pivot in column {j}: matrix is singular to tolerance"
            )
        claimed[pivot_row] = True
        perm[j] = pivot_row
        p = work[pivot_row, j]
        # Row i is unclaimed and k > j, so u1[:, i] and u2[k, :] are still unit
        # vectors and each update is one entry; += onto +0 makes a zero part +0.
        for i in range(pivot_row):
            if not claimed[i] and work[i, j] != 0:
                f = work[i, j] / p
                work[i, :] -= f * work[pivot_row, :]
                work[i, j] = 0.0
                u1[i, pivot_row] += f
        u2[j, j + 1 :] += work[pivot_row, j + 1 :] / p
        work[pivot_row, j + 1 :] = 0.0
    return BruhatFactors(u1, tuple(perm), np.diag(_ldexp(work[perm, range(n)], e)), u2)


def permutation_to_transpositions(perm) -> list[tuple[int, int]]:
    """Split a permutation into transpositions, largest index first.

    ``perm`` maps column j to row perm[j].  The returned pairs satisfy
    P(perm) = T_1 @ T_2 @ ... @ T_k as permutation matrices, with at
    most len(perm) - 1 entries.  Repeatedly swapping the largest
    misplaced value into place makes the output canonical.
    """
    work = list(perm)
    n = len(work)
    if sorted(work) != list(range(n)):
        raise ContractViolation(f"not a permutation of 0..{n - 1}: {perm}")
    recorded = []
    for target in range(n - 1, 0, -1):
        j = work.index(target)
        if j != target:
            work[j], work[target] = work[target], work[j]
            recorded.append((min(j, target), max(j, target)))
    recorded.reverse()
    return recorded


def transposition_matrix(n: int, i: int, j: int) -> np.ndarray:
    """The n x n permutation matrix that swaps rows i and j."""
    if not (0 <= i < n and 0 <= j < n):
        raise ContractViolation(f"transposition ({i}, {j}) out of range for size {n}")
    t = np.eye(n, dtype=np.complex128)
    t[[i, j]] = t[[j, i]]
    return t


@dataclass(frozen=True, eq=False)
class FactorMap:
    """One elementary factor of a decomposed map.

    ``kind`` is "reflection" for a two-coordinate swap of the associated
    matrix (with ``swap`` naming the swapped rows; an index equal to the
    map dimension means the homogeneous slot) and "multilinear" for an
    affine factor with upper-triangular associated matrix.
    """

    kind: str
    swap: tuple[int, int] | None
    map: LFMap


@functools.lru_cache(maxsize=128)
def _reflection(n: int, i: int, j: int) -> FactorMap:
    """The reflection factor that swaps homogeneous coordinates i and j of
    an n x n associated matrix.  It depends on (n, i, j) alone, so it is
    built and checked once and then shared; 128 entries hold every swap
    for N <= 8."""
    return FactorMap("reflection", (i, j), from_associated_matrix(transposition_matrix(n, i, j)))


def factors_to_maps(factors: BruhatFactors) -> list[FactorMap]:
    """Expand a factorization into an ordered list of elementary maps.

    Composing the returned maps in list order (first entry outermost)
    reproduces the original map.  Identity factors are dropped; a fully
    trivial factorization yields a single identity factor.  Reflection
    factors are shared: every factorization that swaps (i, j) at size n
    returns the same immutable FactorMap.
    """
    n = len(factors.perm)
    dim = n - 1
    eye = np.eye(n, dtype=np.complex128)
    out: list[FactorMap] = []
    if not np.array_equal(factors.left_unipotent, eye):
        out.append(
            FactorMap("multilinear", None, from_associated_matrix(factors.left_unipotent))
        )
    out.extend(_reflection(n, i, j) for i, j in permutation_to_transpositions(factors.perm))
    if not np.array_equal(factors.diag, eye):
        out.append(FactorMap("multilinear", None, from_associated_matrix(factors.diag)))
    if not np.array_equal(factors.right_unipotent, eye):
        out.append(
            FactorMap("multilinear", None, from_associated_matrix(factors.right_unipotent))
        )
    if not out:
        out.append(FactorMap("multilinear", None, LFMap.identity(dim)))
    return out


def compose_factor_maps(factor_maps) -> LFMap:
    """Fold a factor list back into a single map.

    The factors' associated matrices are multiplied left to right and the
    product becomes one map, built and checked once by
    from_associated_matrix.  No map is built for a partial product, so an
    ill-conditioned partial product raises no DegenerateMapError; only the
    folded map must be invertible to working precision.  Factors of
    different dimension raise ShapeError, and no factors ContractViolation.
    """
    maps = [f.map for f in factor_maps]
    if not maps:
        raise ContractViolation("no factors to compose")
    m = maps[0]._m
    for phi in maps[1:]:
        if phi.dim != maps[0].dim:
            raise ShapeError(
                f"cannot compose maps of dimensions {maps[0].dim} and {phi.dim}"
            )
        m = m @ phi._m
    return from_associated_matrix(m)
