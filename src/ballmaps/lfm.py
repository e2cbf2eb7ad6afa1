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
        sigma = np.linalg.svd(m, compute_uv=False)
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


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x times 2^k in a fresh complex array, exact within the range of doubles."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, k)
    out.imag = np.ldexp(x.imag, k)
    return out


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of v by math.hypot, which neither overflows nor
    underflows, where np.linalg.norm squares the entries."""
    return math.hypot(*np.abs(v).tolist())


def evaluate(phi: LFMap, z) -> np.ndarray:
    """Apply the map to a point: evaluate_batch on the one row [z]."""
    return evaluate_batch(phi, [z])[0]


def evaluate_batch(phi: LFMap, points) -> np.ndarray:
    """Apply the map to each row of an (m, N) array of points.

    A non-finite point raises ContractViolation.  A point z whose
    denominator is within POLE_TOL (|d| + |c| |z|) of 0 raises PoleError,
    which names the first such row as its sample.  A denominator or value
    past the largest double raises ContractViolation, with no numpy warning;
    the denominator is tested first.  A subnormal denominator (a map with
    tiny coefficients) divides as a normal one does.
    """
    pts = linalg.as_matrix(points)
    if pts.shape[1] != phi.dim:
        raise ShapeError(f"points have shape {pts.shape}, map acts on C^{phi.dim}")
    # Overflow comes out inf or nan, and the tests below refuse it.
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(pts, axis=1)
        if np.isinf(norms).any():
            # |z|^2 passed the largest double; hypot does not square.
            norms = np.hypot.reduce(np.abs(pts), axis=1)
        floors = POLE_TOL * (abs(phi.d) + _norm(phi.c) * norms)
        den = pts @ np.conj(phi.c) + phi.d
        out = (pts @ phi.a.T + phi.b) / den[:, None]
        tiny = np.abs(den) < sys.float_info.min
        if tiny.any():
            # A subnormal denominator has lost bits, and numpy's division by
            # it overflows (see _divide): those rows alone are formed again
            # from m scaled, exactly, by the power of two that brings max|m|
            # into [1/2, 1).
            m = _ldexp(phi._m, -math.frexp(np.abs(phi._m).max())[1])
            n, rows = phi.dim, pts[tiny]
            out[tiny] = (rows @ m[:n, :n].T + m[:n, n]) / (rows @ m[n, :n] + m[n, n])[:, None]
    if not np.isfinite(den).all():
        raise ContractViolation("denominator past the largest double; scale the coefficients down")
    bad = np.abs(den) <= floors
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise PoleError(
            f"denominator {abs(den[idx]):.3e} at sample {idx}", point=pts[idx]
        )
    if not np.isfinite(out).all():
        raise ContractViolation("map value past the largest double; scale the coefficients down")
    return out


def compose(phi: LFMap, psi: LFMap) -> LFMap:
    """The map z -> phi(psi(z)); associated matrices multiply.  A product that
    overflows raises ContractViolation at the gate, with no numpy warning."""
    if phi.dim != psi.dim:
        raise ShapeError(f"cannot compose maps of dimensions {phi.dim} and {psi.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = phi._m @ psi._m
    return from_associated_matrix(m)


def invert(phi: LFMap) -> LFMap:
    """The inverse map, from the inverse associated matrix."""
    return from_associated_matrix(linalg.inverse(phi._m))


def classical_disk_criterion(phi: LFMap) -> tuple[bool, float]:
    """Exact self-map test for the unit disk (N = 1).

    Writing the map as (a z + b) / (c z + d) with literal denominator
    coefficients, the disk maps into itself iff

        |b conj(d) - a conj(c)| + |a d - b c| <= |d|^2 - |c|^2.

    Our stored c is conjugated relative to the literal coefficient, so
    the test below substitutes accordingly.  Returns (verdict, margin)
    with margin = rhs - lhs.  Both sides are formed from the coefficients
    divided by the power of two 2^e that brings the largest modulus into
    [1/2, 1), which is exact, so the verdict is lhs <= rhs at every scale.
    The margin is stated at the coefficients' own scale, 2^(2e) times the
    unit one: it may underflow, and past the largest double it raises
    ContractViolation.
    """
    if phi.dim != 1:
        raise ContractViolation(f"disk criterion needs N = 1, got N = {phi.dim}")
    coefficients = (phi.a[0, 0], phi.b[0], phi.c[0], phi.d)
    e = math.frexp(max(abs(z) for z in coefficients))[1]
    a, b, c, d = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in coefficients)
    lhs = abs(b * np.conj(d) - a * c) + abs(a * d - b * np.conj(c))
    rhs = abs(d) ** 2 - abs(c) ** 2
    try:
        margin = math.ldexp(rhs - lhs, 2 * e)
    except OverflowError:
        raise ContractViolation(
            "disk criterion: its margin is stated at the coefficients' scale, "
            "where it passes the largest double; divide the coefficients by a "
            "common factor"
        ) from None
    return bool(lhs <= rhs), margin
