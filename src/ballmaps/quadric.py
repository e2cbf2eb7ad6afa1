"""Real quadrics on C^N and their exact pullbacks under factor maps.

A quadric is stored over real coordinates, x^T S x + b^T x + c = 0 with
z_k = x_{2k} + i x_{2k+1}.  Generalized ellipsoids in standard form,

    sum a_i |z_i|^2 + sum b_i Re(z_i) + sum g_i Im(z_i) + d = 0,

are the Hermitian members of that family: their S commutes with the
complex structure.  Such quadrics also have a homogeneous description
Z* Q Z with Z = (z, 1) and Q Hermitian of size N+1, and substituting a
linear fractional map with associated matrix m and clearing the squared
denominator is exactly the congruence Q -> m* Q m.  Every factor map
pulls back through it (pullback_map); for a reflection m is a permutation,
so the congruence only moves coefficients.  An affine map, a swap with
j < N included, also pulls back quadrics not of Hermitian type.

Quadrics are projective: an overall real scale does not change the zero
set, and comparisons should go through normalized().

Quadric and from_standard_form take their arrays through linalg's real
gate, so complex or non-numeric entries raise ContractViolation and bad
shapes ShapeError; c must be a real number.  Quadrics the package forms
itself (pullbacks, normalized) skip that gate but keep the checks that
can still fail: finite and not all-zero coefficients, with s symmetrised.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bruhat, linalg
from .errors import ContractViolation, ShapeError
from .lfm import LFMap, _divide

HERMITIAN_STRUCTURE_TOL = 1e-10


def _real_parts(z: np.ndarray) -> np.ndarray:
    """Interleaved real coordinates (Re z_0, Im z_0, Re z_1, ...)."""
    x = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    x[..., 0::2] = z.real
    x[..., 1::2] = z.imag
    return x


@dataclass(frozen=True, eq=False)
class Quadric:
    """Zero set of x^T S x + b^T x + c in real coordinates of C^N."""

    s: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        s = linalg.as_real(self.s, 2)
        b = linalg.as_real(self.b, 1)
        if s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise ShapeError(f"quadratic part must be square of even size, got {s.shape}")
        if b.shape != (s.shape[0],):
            raise ShapeError(f"linear part has shape {b.shape}, expected ({s.shape[0]},)")
        if not isinstance(self.c, numbers.Real):
            raise ContractViolation("quadric coefficients must be finite real numbers")
        # Symmetrising entries near the largest double can overflow; _own
        # then refuses the result as not finite, with no numpy warning first.
        with np.errstate(over="ignore"):
            self._own(s, b.copy(), float(self.c))

    def _own(self, s: np.ndarray, b: np.ndarray, c: float) -> None:
        """Take float64 s and b of matching shapes (b held by no one else)
        and c as this quadric's coefficients: s is symmetrised, all must be
        finite and not all zero, and s and b become read-only."""
        s = s + s.T
        s /= 2.0
        if not (np.isfinite(s).all() and np.isfinite(b).all() and math.isfinite(c)):
            raise ContractViolation("quadric coefficients must be finite real numbers")
        if not (np.any(s) or np.any(b) or c != 0.0):
            raise ContractViolation("all-zero quadric")
        s.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.s.shape[0] // 2


def _quadric(s: np.ndarray, b: np.ndarray, c: float) -> Quadric:
    """A quadric from coefficients the package formed itself (see _own)."""
    q = object.__new__(Quadric)
    q._own(s, b, c)
    return q


def from_standard_form(alphas, betas, gammas, delta: float) -> Quadric:
    """Quadric of sum a_i|z_i|^2 + sum b_i Re(z_i) + sum g_i Im(z_i) + d."""
    alphas, betas, gammas = (linalg.as_real(v, 1) for v in (alphas, betas, gammas))
    if not (alphas.shape == betas.shape == gammas.shape):
        raise ShapeError("coefficient vectors must share one length")
    n = alphas.shape[0]
    s = np.zeros((2 * n, 2 * n))
    s[np.arange(0, 2 * n, 2), np.arange(0, 2 * n, 2)] = alphas
    s[np.arange(1, 2 * n, 2), np.arange(1, 2 * n, 2)] = alphas
    b = np.empty(2 * n)
    b[0::2] = betas
    b[1::2] = gammas
    return Quadric(s, b, delta)


def evaluate(q: Quadric, z) -> float:
    return float(evaluate_batch(q, [z])[0])


def evaluate_batch(q: Quadric, points) -> np.ndarray:
    """q at each row of an (m, N) array of points, checked by linalg's gate."""
    pts = linalg.as_matrix(points)
    if pts.shape[1] != q.dim:
        raise ShapeError(f"points have shape {pts.shape}, quadric lives in C^{q.dim}")
    x = _real_parts(pts)
    return np.einsum("ki,ij,kj->k", x, q.s, x) + x @ q.b + q.c


def residual(q: Quadric, points) -> float:
    """Largest |q(z)| over the given complex points; 0 for no points."""
    if np.size(points) == 0:
        return 0.0
    return float(np.max(np.abs(evaluate_batch(q, np.atleast_2d(points)))))


def normalized(q: Quadric) -> Quadric:
    """Projective representative with largest coefficient 1 in magnitude.

    The sign is fixed by making the first nonzero coefficient positive,
    so projectively equal quadrics compare entrywise.
    """
    flat = np.concatenate([q.s.ravel(), q.b, [q.c]])
    scale = np.max(np.abs(flat))
    first = flat[np.nonzero(flat)[0][0]]
    if first < 0:
        scale = -scale
    return _quadric(q.s / scale, q.b / scale, float(q.c / scale))


def to_hermitian(q: Quadric) -> np.ndarray:
    """Homogeneous Hermitian matrix Q with q(z) = Z* Q Z, Z = (z, 1).

    Requires the quadratic part to be of Hermitian type, meaning no
    Re(z_i z_j) or Im(z_i z_j) terms; those cannot survive a reflection
    substitution as polynomial terms.
    """
    n = q.dim
    s4 = q.s.reshape(n, 2, n, 2)
    sxx, sxy = s4[:, 0, :, 0], s4[:, 0, :, 1]
    syx, syy = s4[:, 1, :, 0], s4[:, 1, :, 1]
    scale = max(1.0, float(abs(q.s).max()))
    defect = max(float(abs(sxx - syy).max()), float(abs(sxy + syx).max()))
    if defect > HERMITIAN_STRUCTURE_TOL * scale:
        raise ContractViolation(
            "quadratic part is not of Hermitian type (has z_i z_j terms)"
        )
    # q.s is exactly symmetric, so this block is Hermitian as formed; adding
    # 0.0 makes its zeros +0, the bits of the symmetrised (h + h*) / 2.
    big = np.empty((n + 1, n + 1), dtype=np.complex128)
    big.real[:n, :n] = (sxx + syy) / 2.0 + 0.0
    big.imag[:n, :n] = (syx - sxy) / 2.0 + 0.0
    w = (q.b[0::2] + 1j * q.b[1::2]) / 2.0
    big[:n, n] = w
    big[n, :n] = np.conj(w)
    big[n, n] = q.c
    return big


def from_hermitian(big) -> Quadric:
    """Inverse of to_hermitian; big is (N+1)x(N+1) Hermitian, N >= 1, and
    passes linalg's gate."""
    big = linalg.as_square_matrix(big)
    if big.shape[0] < 2:
        raise ShapeError(f"Hermitian matrix must be at least 2 x 2, got {big.shape}")
    return _from_hermitian(big)


def _from_hermitian(big: np.ndarray) -> Quadric:
    """from_hermitian of a square complex matrix the package formed itself."""
    n = big.shape[0] - 1
    big = (big + big.conj().T) / 2.0
    return _quadric(_real_matrix(big[:n, :n]), 2.0 * _real_parts(big[:n, n]), float(big[n, n].real))


def _real_matrix(a: np.ndarray) -> np.ndarray:
    """Real 2x2-block representation of a complex matrix, exact."""
    n, k = a.shape
    t = np.empty((2 * n, 2 * k))
    t4 = t.reshape(n, 2, k, 2)
    t4[:, 0, :, 0] = a.real
    t4[:, 1, :, 1] = a.real
    t4[:, 1, :, 0] = a.imag
    t4[:, 0, :, 1] = -a.imag
    return t


def pullback_affine(q: Quadric, phi: LFMap) -> Quadric:
    """Quadric q' with q'(z) = q(phi(z)) for an affine (c = 0) map.

    Done as the real substitution x -> Tx + t in the quadratic form, so
    it applies to every stored quadric, Hermitian type or not.
    """
    if np.any(phi.c):
        raise ContractViolation("affine pullback needs a map with c = 0")
    if phi.dim != q.dim:
        raise ShapeError(f"map dimension {phi.dim} vs quadric dimension {q.dim}")
    # As in pullback_map: overflow comes out not finite, and _own refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        t_mat = _real_matrix(_divide(phi.a, phi.d))
        t_vec = _real_parts(_divide(phi.b, phi.d))
        s2 = t_mat.T @ q.s @ t_mat
        b2 = t_mat.T @ (2.0 * (q.s @ t_vec) + q.b)
        c2 = float(t_vec @ q.s @ t_vec + q.b @ t_vec + q.c)
        return _quadric(s2, b2, c2)


def pullback_swap(q: Quadric, i: int, j: int) -> Quadric:
    """Pullback through the transposition of homogeneous coordinates i, j:
    pullback_map of that reflection, whose permutation matrix only moves
    coefficients, exactly.  For j = N it is the inversion-type reflection
    sending z_i to 1/z_i-style quotients, and q'(z) = q(f(z)) |denominator|^2.
    """
    n = q.dim
    if not (0 <= i < j <= n):
        raise ContractViolation(f"transposition ({i}, {j}) out of range for N={n}")
    return pullback_map(q, bruhat._reflection(n + 1, i, j).map)


def pullback_reflection(q: Quadric) -> Quadric:
    """Pullback through the canonical reflection (z_1/z_N, ..., 1/z_N).

    Clears |z_N|^2: the result q' satisfies q'(z) = q(f(z)) |z_N|^2 away
    from z_N = 0.  An involution, exactly.
    """
    return pullback_swap(q, q.dim - 1, q.dim)


def pullback_chain(q: Quadric, factors) -> Quadric:
    """Pullback through a composition factors[0] after factors[1] after ...

    Pullback is contravariant, so the outermost factor substitutes
    first.
    """
    out = q
    for factor in factors:
        out = pullback_map(out, factor.map)
    return out


def pullback_map(q: Quadric, phi: LFMap) -> Quadric:
    """Pullback through a whole map in one congruence.

    For Hermitian-type q this is m* Q m on the homogeneous matrix; the
    result satisfies q'(z) = q(phi(z)) |<z,C> + D|^2.  Non-Hermitian
    quadrics are supported for affine maps only.
    """
    if phi.dim != q.dim:
        raise ShapeError(f"map dimension {phi.dim} vs quadric dimension {q.dim}")
    try:
        big = to_hermitian(q)
    except ContractViolation:
        if not np.any(phi.c):
            return pullback_affine(q, phi)
        raise
    m = phi._m
    # A congruence that overflows comes out not finite and _own refuses it
    # with ContractViolation, with no numpy warning first.
    with np.errstate(over="ignore", invalid="ignore"):
        return _from_hermitian(m.conj().T @ big @ m)
