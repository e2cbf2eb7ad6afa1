"""Linear fractional maps of C^N and their associated matrices.

A map phi(z) = (a z + b) / (<z, c> + d) has an N x N matrix a, vectors
b and c in C^N and a scalar d.  The pairing is <z, c> = sum_k z_k *
conj(c_k), so the denominator written as a polynomial in z has
coefficient row conj(c).

The associated matrix is the (N+1) x (N+1) block matrix

    [ a        b ]
    [ conj(c)  d ]

and turns composition of maps into matrix multiplication.  Maps act on
C^N with N >= 1; scalar multiples of their matrix describe the same map.

A map's coefficients are checked once, when it is built: LFMap passes a,
b, c and d (as a one-entry vector) through linalg's gate (shape,
nonempty, finite numbers), and from_associated_matrix passes the whole
matrix.  The map is accepted when its matrix is invertible to working
precision: its smallest singular value exceeds (N + 1) eps times its
largest, the scale-invariant default rank rule of numpy's matrix_rank,
applied by one private method, which first refuses a largest singular
value that is not a finite double.  compose, invert and the Bruhat fold
build their result by from_associated_matrix, so a product of several
matrices is checked once, as a whole, and an ill-conditioned partial
product along the way raises nothing.

Scale.  A multiple of a map is the same map, so every route works on it
at unit scale and none refuses a map for its scale.  _unit divides the
associated matrix by the power of two 2^e that puts max|m| in [1/2, 1);
_divide divides by a scalar (d, or max|m|), scaling both sides first by
the power of two that puts a subnormal divisor in [1/2, 1).  Both are
exact.  Only outputs stated at the coefficients' scale can refuse: the
row test's rhs (degree 4 in the coefficients, e taken from |d|) and its
rows (lhs times rhs), krein_t (degree -1), the disc margin (degree 2) and
ballmaps decompose's residual (degree 1).  _stated scales each back from
unit scale, exactly: it may underflow, and past the largest double it
raises ContractViolation.  Every other output (verdicts, the sup, the
image ellipsoid, fixed points, values) is scale-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateMapError, PoleError, ShapeError
from . import linalg

POLE_TOL = 1e-14
NORMALIZE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class LFMap:
    """A linear fractional map with an invertible associated matrix.

    The coefficients are copied, as given, into one read-only associated
    matrix that the map owns, so later writes to the caller's arrays do
    not reach it.  a and b are read-only views into that matrix, c is the
    conjugate of its bottom row and d its corner entry.  N = 0 or a
    misshapen coefficient raises ShapeError, an entry that is not a finite
    number or a norm past the largest double ContractViolation, and a matrix
    singular to working precision DegenerateMapError (see the module
    docstring).  Conjugating by a ball automorphism near the sphere leaves a
    map invertible but ill-conditioned; such maps are accepted.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: complex
    _m: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = linalg.as_square_matrix(self.a)
        b = linalg.as_vector(self.b)
        c = linalg.as_vector(self.c)
        n = a.shape[0]
        if b.shape != (n,) or c.shape != (n,):
            raise ShapeError(
                f"coefficient shapes disagree: a {a.shape}, b {b.shape}, c {c.shape}"
            )
        d = linalg.as_vector([self.d])[0]
        m = np.empty((n + 1, n + 1), dtype=np.complex128)
        m[:n, :n] = a
        m[:n, n] = b
        m[n, :n] = np.conj(c)
        m[n, n] = d
        self._own(m)

    def _own(self, m: np.ndarray) -> None:
        """Check m and make it this map's associated matrix.

        m is a finite square complex array, at least 2 x 2, that no one
        else holds; it becomes read-only and a, b, c and d are read from
        it.  This is the one place where the invertibility rule lives.
        """
        n = m.shape[0] - 1
        sigma = linalg.svdvals(m)
        if not math.isfinite(sigma[0]):
            raise ContractViolation(
                "associated matrix: its largest singular value is not a finite "
                "double; divide the coefficients by a common factor"
            )
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

        That is |c| < |d|, with |c| from _norm: the answer is the same at
        any scale of the coefficients, and the tie |c| = |d| stays exact
        for one entry.
        """
        return _norm(self.c) < abs(self.d)

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
    later writes to m do not reach it.  It is checked as a whole.
    """
    m = linalg.as_square_matrix(m)
    n = m.shape[0] - 1
    if n < 1:
        raise ShapeError("associated matrix must be at least 2 x 2")
    scale = float(np.abs(m).max())
    d = m[n, n]
    m = _divide(m, d) if abs(d) > NORMALIZE_TOL * scale else m.copy()
    phi = object.__new__(LFMap)
    phi._own(m)
    return phi


def _divide(x: np.ndarray, d: complex) -> np.ndarray:
    """x / d in a fresh array.  numpy's complex division forms 1 / d, which
    overflows for a subnormal |d| though x / d may be O(1); there x and d
    are first scaled, exactly, by the power of two that puts |d| in [1/2, 1)."""
    if abs(d) < sys.float_info.min:
        k = -math.frexp(abs(d))[1]
        x, d = _ldexp(x, k), complex(math.ldexp(d.real, k), math.ldexp(d.imag, k))
    return x / d


def _unit(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m / 2^e, e) for the power of two 2^e that puts max|m| in [1/2, 1);
    the division is exact, and a multiple of m is the same map."""
    e = math.frexp(float(np.abs(m).max()))[1]
    return _ldexp(m, -e), e


def _stated(x: float, e: int, degree: int, what: str) -> float:
    """x, an output of the given degree in the coefficients formed at unit
    scale (the coefficients divided by 2^e), at the coefficients' own scale:
    x times 2^(degree e), exactly.  It may underflow; past the largest double
    it raises ContractViolation, naming what."""
    try:
        return math.ldexp(x, degree * e)
    except OverflowError:
        raise ContractViolation(
            f"{what} is stated at the coefficients' scale, where it passes the largest "
            f"double; {'divide' if e > 0 else 'multiply'} the coefficients by a common factor"
        ) from None


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x times 2^k in a fresh C-ordered complex array, exact within the range
    of doubles: one ldexp over the real and imaginary parts side by side."""
    return np.ldexp(np.ascontiguousarray(x).view(np.float64), k).view(np.complex128)


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of v by math.hypot, which neither overflows nor
    underflows, where np.linalg.norm squares the entries."""
    return math.hypot(*np.abs(v).tolist())


def evaluate(phi: LFMap, z) -> np.ndarray:
    """Apply the map to a point: evaluate_batch on the one row [z]."""
    return evaluate_batch(phi, [z])[0]


def evaluate_batch(phi: LFMap, points) -> np.ndarray:
    """Apply the map to each row of an (m, N) array of points.

    The map is evaluated at unit scale (_unit), so its values do not depend
    on the coefficients' scale.  A non-finite point raises
    ContractViolation.  A point z whose denominator is within POLE_TOL
    (|d| + |c| |z|) of 0 raises PoleError, which names the first such row
    as its sample and its denominator at the coefficients' scale.  A
    denominator or value past the largest double raises ContractViolation,
    with no numpy warning; the denominator is tested first.
    """
    pts = linalg.as_matrix(points)
    n = phi.dim
    if pts.shape[1] != n:
        raise ShapeError(f"points have shape {pts.shape}, map acts on C^{n}")
    m, e = _unit(phi._m)
    c, d = m[n, :n], m[n, n]
    # Overflow comes out inf or nan, and the tests below refuse it.
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(pts, axis=1)
        if np.isinf(norms).any():
            # |z|^2 passed the largest double; hypot does not square.
            norms = np.hypot.reduce(np.abs(pts), axis=1)
        floors = POLE_TOL * (abs(d) + _norm(c) * norms)
        den = pts @ c + d
        out = (pts @ m[:n, :n].T + m[:n, n]) / den[:, None]
    if not np.isfinite(den).all():
        raise ContractViolation("denominator past the largest double")
    bad = np.abs(den) <= floors
    if np.any(bad):
        idx = int(np.argmax(bad))
        with np.errstate(over="ignore"):
            stated = np.ldexp(abs(den[idx]), e)
        raise PoleError(f"denominator {stated:.3e} at sample {idx}", point=pts[idx])
    if not np.isfinite(out).all():
        raise ContractViolation("map value past the largest double")
    return out


def compose(phi: LFMap, psi: LFMap) -> LFMap:
    """The map z -> phi(psi(z)); associated matrices multiply.  Each is first
    brought to unit scale (_unit), so the product neither overflows nor
    underflows at any scale of the coefficients."""
    if phi.dim != psi.dim:
        raise ShapeError(f"cannot compose maps of dimensions {phi.dim} and {psi.dim}")
    return from_associated_matrix(_unit(phi._m)[0] @ _unit(psi._m)[0])


def invert(phi: LFMap) -> LFMap:
    """The inverse map, from the inverse of the associated matrix brought to
    unit scale (_unit), which stays in range at any scale of the
    coefficients."""
    return from_associated_matrix(linalg.inverse(_unit(phi._m)[0]))


def classical_disk_criterion(phi: LFMap) -> tuple[bool, float]:
    """Exact self-map test for the unit disk (N = 1).

    Writing the map as (a z + b) / (c z + d) with literal denominator
    coefficients, the disk maps into itself iff

        |b conj(d) - a conj(c)| + |a d - b c| <= |d|^2 - |c|^2.

    Our stored c is conjugated relative to the literal coefficient, so
    the test below substitutes accordingly.  Returns (verdict, margin)
    with margin = rhs - lhs.  Both sides are formed at unit scale (_unit),
    so the verdict is the same at every scale; the margin is stated at the
    coefficients' own scale (_stated, see the module docstring).
    """
    if phi.dim != 1:
        raise ContractViolation(f"disk criterion needs N = 1, got N = {phi.dim}")
    m, e = _unit(phi._m)
    a, b, c, d = (complex(z) for z in (m[0, 0], m[0, 1], m[1, 0].conjugate(), m[1, 1]))
    lhs = abs(b * np.conj(d) - a * c) + abs(a * d - b * np.conj(c))
    rhs = abs(d) ** 2 - abs(c) ** 2
    return bool(lhs <= rhs), _stated(rhs - lhs, e, 2, "disk criterion: its margin")
