"""Linear fractional maps of C^N and their associated matrices.

A map phi(z) = (a z + b) / (<z, c> + d) has an N x N matrix a, vectors
b and c in C^N and a scalar d.  The pairing is <z, c> = sum_k z_k *
conj(c_k), so the denominator written as a polynomial in z has
coefficient row conj(c).

The associated matrix is the (N+1) x (N+1) block matrix

    [ a        b ]
    [ conj(c)  d ]

and turns composition of maps into matrix multiplication.  Each map owns
one read-only copy of it, checked once when the map is built; a and b are
views into that copy.  Scalar multiples of the associated matrix describe
the same map, and a map is accepted when that matrix is invertible to
working precision: its smallest singular value exceeds (N + 1) eps times
its largest, the default rank rule of numpy's matrix_rank.  The rule is
scale-invariant, and one private method applies it, whether the map is
built from its coefficients (LFMap) or from a matrix
(from_associated_matrix, which compose, invert and the Bruhat fold use).
Only the map that is returned is checked: a product of several matrices
is checked once, so an ill-conditioned partial product along the way
raises nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateMapError,
    PoleError,
    ShapeError,
    SingularMatrixError,
)
from . import linalg

POLE_TOL = 1e-14
NORMALIZE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LFMap:
    """A linear fractional map with an invertible associated matrix.

    The coefficients are copied, as given, into one read-only associated
    matrix that the map owns, so later writes to the caller's arrays do
    not reach it.  a and b are read-only views into that matrix, c is the
    conjugate of its bottom row and d its corner entry.  A non-finite
    coefficient raises ContractViolation, and DegenerateMapError is raised
    when the matrix is singular to working precision (see the module
    docstring).  Conjugating by a ball automorphism near the sphere leaves
    a map invertible but ill-conditioned; such maps are accepted.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: complex
    _m: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"a must be a square matrix, got shape {a.shape}")
        n = a.shape[0]
        b = np.asarray(self.b, dtype=np.complex128)
        c = np.asarray(self.c, dtype=np.complex128)
        if b.shape != (n,) or c.shape != (n,):
            raise ShapeError(
                f"coefficient shapes disagree: a {a.shape}, b {b.shape}, c {c.shape}"
            )
        m = np.empty((n + 1, n + 1), dtype=np.complex128)
        m[:n, :n] = a
        m[:n, n] = b
        m[n, :n] = np.conj(c)
        m[n, n] = complex(self.d)
        self._own(m)

    def _own(self, m: np.ndarray) -> None:
        """Check m and make it this map's associated matrix.

        m is a square complex array that no one else holds; it becomes
        read-only and a, b, c and d are read from it.  This is the one
        place where the finite test and the invertibility rule live.
        """
        n = m.shape[0] - 1
        if not np.isfinite(m).all():
            raise ContractViolation("coefficients must be finite")
        sigma = np.linalg.svd(m, compute_uv=False)
        if sigma[-1] <= (n + 1) * _EPS * sigma[0]:
            raise DegenerateMapError("associated matrix is singular to working precision")
        m.flags.writeable = False
        c = np.conj(m[n, :n])
        c.flags.writeable = False
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "a", m[:n, :n])
        object.__setattr__(self, "b", m[:n, n])
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", complex(m[n, n]))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def pole_free_on_ball(self) -> bool:
        """True when every pole lies outside the closed unit ball.

        That is |c| < |d|, with |c| from math.hypot, which neither
        overflows nor underflows: the answer is the same at any scale of
        the coefficients, and the tie |c| = |d| stays exact for one entry.
        """
        return math.hypot(*np.abs(self.c).tolist()) < abs(self.d)

    def associated_matrix(self) -> np.ndarray:
        """A writable copy of the associated matrix."""
        return self._m.copy()

    @classmethod
    def identity(cls, n: int) -> "LFMap":
        return cls(np.eye(n), np.zeros(n), np.zeros(n), 1.0)

    def __call__(self, z) -> np.ndarray:
        return evaluate(self, z)


def from_associated_matrix(m) -> LFMap:
    """Build a map straight from its associated matrix.

    The matrix is rescaled so the lower-right entry is 1 whenever that
    entry is not negligible against the largest entry; otherwise the
    scale is kept as given.  Either way the map owns a fresh copy, so
    later writes to m do not reach it.  The copy is checked as LFMap
    checks its coefficients, once: a matrix that is a product, as in
    compose or compose_factor_maps, is checked as a whole and its
    factors' partial products are not.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0] - 1
    if n < 1:
        raise ShapeError("associated matrix must be at least 2 x 2")
    scale = float(np.abs(m).max())
    d = m[n, n]
    m = m / d if abs(d) > NORMALIZE_TOL * scale else m.copy()
    phi = object.__new__(LFMap)
    phi._own(m)
    return phi


def evaluate(phi: LFMap, z) -> np.ndarray:
    """Apply the map to a point, guarding against near-pole evaluation."""
    z = linalg.as_vector(z)
    if z.shape != (phi.dim,):
        raise ShapeError(f"point has shape {z.shape}, map acts on C^{phi.dim}")
    den = np.vdot(phi.c, z) + phi.d
    floor = POLE_TOL * (abs(phi.d) + np.linalg.norm(phi.c) * np.linalg.norm(z))
    if abs(den) <= floor:
        raise PoleError(f"denominator {abs(den):.3e} at evaluation point", point=z)
    return (phi.a @ z + phi.b) / den


def evaluate_batch(phi: LFMap, points) -> np.ndarray:
    """Apply the map to each row of an (m, N) array of points."""
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != phi.dim:
        raise ShapeError(f"points have shape {pts.shape}, map acts on C^{phi.dim}")
    den = pts @ np.conj(phi.c) + phi.d
    floors = POLE_TOL * (abs(phi.d) + np.linalg.norm(phi.c) * np.linalg.norm(pts, axis=1))
    bad = np.abs(den) <= floors
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleError(
            f"denominator {abs(den[idx]):.3e} at sample {idx}", point=pts[idx]
        )
    return (pts @ phi.a.T + phi.b) / den[:, None]


def compose(phi: LFMap, psi: LFMap) -> LFMap:
    """The map z -> phi(psi(z)); associated matrices multiply."""
    if phi.dim != psi.dim:
        raise ShapeError(f"cannot compose maps of dimensions {phi.dim} and {psi.dim}")
    return from_associated_matrix(phi._m @ psi._m)


def invert(phi: LFMap) -> LFMap:
    """The inverse map, from the inverse associated matrix."""
    try:
        m = linalg.inverse(phi._m)
    except SingularMatrixError as exc:
        raise DegenerateMapError("map is not invertible") from exc
    return from_associated_matrix(m)


def classical_disk_criterion(phi: LFMap) -> tuple[bool, float]:
    """Exact self-map test for the unit disk (N = 1).

    Writing the map as (a z + b) / (c z + d) with literal denominator
    coefficients, the disk maps into itself iff

        |b conj(d) - a conj(c)| + |a d - b c| <= |d|^2 - |c|^2.

    Our stored c is conjugated relative to the literal coefficient, so
    the test below substitutes accordingly.  Returns (verdict, margin)
    with margin = rhs - lhs; the verdict is the plain sign of the margin.
    """
    if phi.dim != 1:
        raise ContractViolation(f"disk criterion needs N = 1, got N = {phi.dim}")
    a = complex(phi.a[0, 0])
    b = complex(phi.b[0])
    c = complex(phi.c[0])
    d = complex(phi.d)
    lhs = abs(b * np.conj(d) - a * c) + abs(a * d - b * np.conj(c))
    rhs = abs(d) ** 2 - abs(c) ** 2
    margin = rhs - lhs
    return bool(lhs <= rhs), float(margin)
