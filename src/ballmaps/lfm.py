"""Linear fractional maps of C^N and their associated matrices.

A map phi(z) = (a z + b) / (<z, c> + d) is stored by its coefficient
block (a, b, c, d) with a an N x N matrix, b and c vectors in C^N and d
a scalar.  The pairing is <z, c> = sum_k z_k * conj(c_k), so the
denominator written as a polynomial in z has coefficient row conj(c).

The associated matrix is the (N+1) x (N+1) block matrix

    [ a        b ]
    [ conj(c)  d ]

and turns composition of maps into matrix multiplication.  Scalar
multiples of the associated matrix describe the same map.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LFMap:
    """A linear fractional map with an invertible associated matrix."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: complex

    def __post_init__(self):
        a = linalg.as_square_matrix(self.a)
        b = linalg.as_vector(self.b)
        c = linalg.as_vector(self.c)
        d = complex(self.d)
        n = a.shape[0]
        if b.shape != (n,) or c.shape != (n,):
            raise ShapeError(
                f"coefficient shapes disagree: a {a.shape}, b {b.shape}, c {c.shape}"
            )
        if not (np.isfinite(d.real) and np.isfinite(d.imag)):
            raise ContractViolation("d must be finite")
        for arr in (a, b, c):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        m = self.associated_matrix()
        try:
            linalg.inverse(m)
        except SingularMatrixError as exc:
            raise DegenerateMapError(
                f"associated matrix is singular (pivot {exc.pivot:.3e})"
            ) from exc

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def pole_free_on_ball(self) -> bool:
        """True when every pole lies outside the closed unit ball."""
        return abs(self.d) ** 2 > float(np.linalg.norm(self.c)) ** 2

    def associated_matrix(self) -> np.ndarray:
        n = self.dim
        m = np.zeros((n + 1, n + 1), dtype=np.complex128)
        m[:n, :n] = self.a
        m[:n, n] = self.b
        m[n, :n] = np.conj(self.c)
        m[n, n] = self.d
        return m

    @classmethod
    def identity(cls, n: int) -> "LFMap":
        return cls(np.eye(n), np.zeros(n), np.zeros(n), 1.0)

    def __call__(self, z) -> np.ndarray:
        return evaluate(self, z)


def from_associated_matrix(m) -> LFMap:
    """Rebuild a map from its associated matrix.

    The matrix is rescaled so the lower-right entry is 1 whenever that
    entry is not negligible against the largest entry; otherwise the
    scale is kept as given.
    """
    m = linalg.as_square_matrix(m)
    n = m.shape[0] - 1
    if n < 1:
        raise ShapeError("associated matrix must be at least 2 x 2")
    scale = float(np.max(np.abs(m)))
    d = m[n, n]
    if abs(d) > NORMALIZE_TOL * scale:
        m = m / d
    return LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])


def evaluate(phi: LFMap, z, pole_tol: float = POLE_TOL) -> np.ndarray:
    """Apply the map to a point, guarding against near-pole evaluation."""
    z = linalg.as_vector(z)
    if z.shape != (phi.dim,):
        raise ShapeError(f"point has shape {z.shape}, map acts on C^{phi.dim}")
    den = np.vdot(phi.c, z) + phi.d
    floor = pole_tol * (abs(phi.d) + np.linalg.norm(phi.c) * np.linalg.norm(z))
    if abs(den) <= floor:
        raise PoleError(f"denominator {abs(den):.3e} at evaluation point", point=z)
    return (phi.a @ z + phi.b) / den


def evaluate_batch(phi: LFMap, points, pole_tol: float = POLE_TOL) -> np.ndarray:
    """Apply the map to each row of an (m, N) array of points."""
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[1] != phi.dim:
        raise ShapeError(f"points have shape {pts.shape}, map acts on C^{phi.dim}")
    den = pts @ np.conj(phi.c) + phi.d
    floors = pole_tol * (abs(phi.d) + np.linalg.norm(phi.c) * np.linalg.norm(pts, axis=1))
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
    return from_associated_matrix(phi.associated_matrix() @ psi.associated_matrix())


def invert(phi: LFMap) -> LFMap:
    """The inverse map, from the inverse associated matrix."""
    try:
        m = linalg.inverse(phi.associated_matrix())
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
