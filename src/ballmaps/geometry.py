"""Geometry of the complex unit ball under linear fractional maps.

Covers the standard involutive automorphisms of the ball, the exact
ellipsoid image of the ball under a pole-free map, and the sup norm of
a point set {center + shape @ v : |v| <= 1}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ContractViolation, DegenerateMapError, PoleError, ShapeError
from .lfm import LFMap, evaluate


def _ball_point(alpha, n: int | None = None) -> tuple[np.ndarray, float]:
    """alpha through linalg's gate, and |alpha|^2; refused unless alpha lies
    in the open unit ball and, when n is given, has length n."""
    alpha = linalg.as_vector(alpha)
    if n is not None and alpha.shape != (n,):
        raise ShapeError(f"alpha has shape {alpha.shape}, expected ({n},)")
    anorm2 = float(np.vdot(alpha, alpha).real)
    if anorm2 >= 1.0:
        raise ContractViolation(f"|alpha| = {math.sqrt(anorm2):.3f} must be < 1")
    return alpha, anorm2


@dataclass(frozen=True, eq=False)
class BallAutomorphism:
    """A ball automorphism: unitary rotation applied after the involution.

    Built once as its linear fractional map, associated matrix
    [[rotation M, rotation alpha], [-alpha*, 1]] with M = involution_matrix(alpha)
    (M = -I at alpha = 0), and evaluated by it; so LFMap's rule refuses
    |alpha| within about 1e-15 of 1 with DegenerateMapError.  alpha and
    rotation are read-only copies.
    """

    alpha: np.ndarray
    rotation: np.ndarray
    _map: LFMap = field(init=False, repr=False)

    def __post_init__(self):
        rot = linalg.as_square_matrix(self.rotation).copy()
        n = rot.shape[0]
        alpha, anorm2 = _ball_point(self.alpha, n)
        alpha = alpha.copy()
        if np.max(np.abs(rot.conj().T @ rot - np.eye(n))) > 1e-10:
            raise ContractViolation("rotation must be unitary")
        a = rot @ involution_matrix(alpha) if anorm2 else -rot
        phi = LFMap(a, rot @ alpha, -alpha, 1.0)
        alpha.flags.writeable = False
        rot.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "_map", phi)

    def __call__(self, z) -> np.ndarray:
        return evaluate(self._map, z)


def ball_involution(alpha, z) -> np.ndarray:
    """The involutive ball automorphism exchanging 0 and alpha (|alpha| < 1)
    at z: BallAutomorphism(alpha, I)(z), which is -z at alpha = 0."""
    z = linalg.as_vector(z)
    return BallAutomorphism(alpha, np.eye(z.shape[0]))(z)


def involution_matrix(alpha) -> np.ndarray:
    """Linear part of the involution numerator: s*beta - s*I - beta.

    beta is the orthogonal projection onto the span of alpha and
    s = sqrt(1 - |alpha|^2).  Requires 0 < |alpha| < 1.
    """
    alpha, anorm2 = _ball_point(alpha)
    if anorm2 == 0.0:
        raise ContractViolation("need alpha != 0")
    beta = np.outer(alpha, np.conj(alpha)) / anorm2
    s = np.sqrt(1.0 - anorm2)
    return s * beta - s * np.eye(alpha.shape[0]) - beta


def involution_matrix_inverse(alpha) -> np.ndarray:
    """Closed-form inverse of involution_matrix.

    Rank-one update formula:
        -(1 / (s |alpha|^2)) (|alpha|^2 I + (s - 1) alpha alpha*).
    """
    alpha, anorm2 = _ball_point(alpha)
    if anorm2 == 0.0:
        raise ContractViolation("need alpha != 0")
    s = np.sqrt(1.0 - anorm2)
    outer = np.outer(alpha, np.conj(alpha))
    return -(anorm2 * np.eye(alpha.shape[0]) + (s - 1.0) * outer) / (s * anorm2)


def automorphism_to_lfmap(aut: BallAutomorphism) -> LFMap:
    """The linear fractional map an automorphism holds and evaluates."""
    return aut._map


@dataclass(frozen=True, eq=False)
class EllipsoidImage:
    """The set {center + shape @ v : |v| <= 1} in C^N.  It owns the one SVD
    shape = _w diag(_sigma) _v* that image_ellipsoid, the sup norm and the
    polar factors of `ballmaps image` read.

    The public constructor takes center and shape through linalg's gate and
    copies them.  image_ellipsoid forms its arrays from a checked map and
    builds through _own, with no gate and no copy.  Either way center and
    shape are read-only.
    """

    center: np.ndarray
    shape: np.ndarray
    _w: np.ndarray = field(init=False, repr=False)
    _sigma: np.ndarray = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        center = linalg.as_vector(self.center).copy()
        shape = linalg.as_square_matrix(self.shape).copy()
        if shape.shape[0] != center.shape[0]:
            raise ShapeError(
                f"shape matrix {shape.shape} does not match center length {center.shape[0]}"
            )
        self._own(center, shape)

    def _own(self, center: np.ndarray, shape: np.ndarray) -> None:
        """Take a finite complex128 center and square shape of its length,
        held by no one else, as this ellipsoid's: they become read-only and
        the SVD of shape is taken."""
        center.flags.writeable = False
        shape.flags.writeable = False
        w, sigma, v = linalg.svd(shape)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_v", v)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def polar_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The left polar factors (p, u) of shape = p @ u, read off the SVD
        held here by linalg.polar_from_svd."""
        return linalg.polar_from_svd(self._w, self._sigma, self._v)


def image_ellipsoid(phi: LFMap) -> EllipsoidImage:
    """Exact image of the open unit ball under a pole-free map.

    After rescaling the map so its denominator is <z, c'> + 1 (divide a
    and b by d and replace c by c / conj(d)), the image of the ball is
    the ellipsoid with

        center = (b' - a' c') / (1 - |c'|^2)
        shape  = (b' c'* - a' (s I + (1 - s) c' c'* / |c'|^2)) / (1 - |c'|^2)
               = ((b' - a' c' / (1 + s)) c'* - s a') / (1 - |c'|^2)

    where s = sqrt(1 - |c'|^2) and (1 - s) / |c'|^2 = 1 / (1 + s); a' c' is
    formed once for both.  A map with c = 0 is affine and the image is
    {b' + a' v}.  A pole within rounding of the sphere, where 1 - |c'|^2
    rounds to 0 or below, raises PoleError like a pole on the ball, and a
    |d| below the smallest normal double ContractViolation (1/d overflows).
    Else a checked map gives finite arrays, built without linalg's gate.
    The degeneracy test reads the ellipsoid's own SVD.
    """
    if not phi.pole_free_on_ball:
        raise PoleError("map has poles on the closed unit ball")
    d = phi.d
    if abs(d) < sys.float_info.min:
        raise ContractViolation(
            "image ellipsoid: it divides by d, where |d| is below the smallest "
            "normal double; multiply the coefficients by a common factor"
        )
    a = phi.a / d
    b = phi.b / d
    c = phi.c / d.conjugate()
    cnorm2 = float(np.vdot(c, c).real)
    if cnorm2 == 0.0:
        center, shape = b, a
    else:
        room = 1.0 - cnorm2
        if room <= 0.0:
            raise PoleError("map has poles on the closed unit ball to working precision")
        s = math.sqrt(room)
        ac = a @ c
        center = (b - ac) / room
        shape = (np.outer(b - ac / (1.0 + s), c.conj()) - s * a) / room
    ell = object.__new__(EllipsoidImage)
    ell._own(center, shape)
    if ell._sigma[0] == 0.0 or ell._sigma[-1] <= 1e-14 * ell._sigma[0]:
        raise DegenerateMapError("image ellipsoid is numerically degenerate")
    return ell


def _secular_sum(gap: float, diffs: list, weights: list) -> tuple[float, float]:
    """(h, k) = (sum w / (d + gap)^2, sum w / (d + gap)^3) over the terms.

    h is the secular function at lam = sigma_max^2 + gap and -2 k its
    derivative.  Working in the distance above sigma_max^2 keeps the pole
    distances exact when the root sits within rounding range of the pole,
    which happens for nearly centered ellipsoids.  Scalar Python: there
    are at most N <= ~8 terms, too few to pay numpy's per-call cost.
    """
    h = k = 0.0
    for d, w in zip(diffs, weights):
        pole = d + gap
        t = w / (pole * pole)
        h += t
        k += t / pole
    return h, k


def ellipsoid_sup_norm(ell: EllipsoidImage) -> float:
    """sup {|center + shape @ v| : |v| <= 1}.

    With the ellipsoid's own SVD shape = w diag(sigma) v* (read, not
    recomputed) and coordinates rotated by w, the problem reduces to
    maximizing |m + diag(sigma) x| over the real nonnegative unit ball,
    whose stationary condition is the secular equation h = sum_i sigma_i^2
    m_i^2 / (lam - sigma_i^2)^2 = 1 with lam > sigma_max^2.  When every component of m along the top singular
    directions vanishes the root may not exist and the leftover mass sits
    on a top direction instead (the hard case).  Otherwise the root is
    found by Newton's method on 1 / sqrt(h) - 1 in gap = lam - sigma_max^2,
    started left of the root: that function is increasing and concave in
    the gap (Moré and Sorensen 1983), so the iterates rise monotonically
    to the root, in one step when a single pole dominates.  A step that
    rounding pushes out of the bracket falls back to its geometric midpoint.

    The solve runs on sigma and m divided by the power of two 2^e that
    brings max(sigma_max, max m_i) into [1/2, 1).  That division is exact,
    so the thresholds of the solve are relative to the ellipsoid's size
    and the result is homogeneous: bit for bit, as long as the SVD itself
    scales exactly.  After the one product w* center the solve is scalar
    Python over at most N terms; |m| and the final sums keep numpy's own
    reductions, whose order fixes their last bit.
    """
    m = np.abs(ell._w.conj().T @ ell.center)
    sigma = ell._sigma.tolist()
    # max m_i, not |m|: |m|^2 underflows for tiny ellipsoids.
    e = math.frexp(max(sigma[0], m.max()))[1]
    m = np.ldexp(m, -e)
    mnorm = math.sqrt(m.dot(m))  # np.linalg.norm(m), without its overhead
    sigma = [math.ldexp(s, -e) for s in sigma]
    return math.ldexp(_unit_sup_norm(sigma, m.tolist(), mnorm), e)


def _sum(terms: list) -> float:
    """np.sum of the terms: numpy's pairwise order, not left to right."""
    return float(np.add.reduce(terms))


def _unit_sup_norm(sigma: list, m: list, mnorm: float) -> float:
    """The sup norm of ellipsoid_sup_norm, for max(sigma_max, max m_i) < 1,
    with mnorm = |m|."""
    smax = sigma[0]
    if mnorm <= 1e-15:
        return smax
    if smax <= 1e-15 * mnorm:
        return mnorm
    ctol = 1e-14 * max(1.0, mnorm)
    active = [(s, mi) for s, mi in zip(sigma, m) if mi > ctol]
    if not active:
        return smax
    smax2 = smax**2
    diffs = [smax2 - s * s for s, _ in active]
    weights = [(s * s) * (mi * mi) for s, mi in active]
    gap_lo = 1e-30 * max(smax2, mnorm**2)
    gap_hi = (smax + mnorm) ** 2
    h, k = _secular_sum(gap_lo, diffs, weights)
    if h <= 1.0:
        # Hard case: the active directions cannot absorb all the mass, so
        # the rest rides a top singular direction at lam = sigma_max^2.
        lam = smax2
        # (x, y) = (sigma m / d, m lam / d) for the directions below the top.
        safe = [(s * mi / d, mi * lam / d) for (s, mi), d in zip(active, diffs) if d > 0.0]
        rest = max(0.0, 1.0 - _sum([x * x for x, _ in safe]))
        sup2 = (
            _sum([y * y for _, y in safe])
            + _sum([mi * mi for (_, mi), d in zip(active, diffs) if not d > 0.0])
            + lam * rest
        )
        return math.sqrt(sup2)
    # Stop when h is 1 to rounding, or when the step is below the rounding
    # of the nearest pole distance d + gap.  sup^2 moves by 2 lam k per unit
    # of gap, and k (gap + min d) <= h, so either test leaves sup^2 within
    # about 2e-15 relative of its value at the root, even where rounding
    # fixes the gap itself only loosely: no top direction active, or a tied
    # top one with a tiny component.  The last step is still taken when it
    # stays in the bracket: it costs no evaluation.
    dmin = min(diffs)
    lo, hi, gap = gap_lo, gap_hi, gap_lo
    while True:
        if h > 1.0:
            lo = gap
        else:
            hi = gap
        step = (h**1.5 - h) / k
        done = abs(h - 1.0) <= 1e-15 or abs(step) <= 1e-15 * (gap + dmin)
        if lo < gap + step < hi:
            gap += step
        elif not done:
            gap = math.sqrt(lo) * math.sqrt(hi)
            done = not lo < gap < hi
        if done:
            break
        h, k = _secular_sum(gap, diffs, weights)
    lam = smax2 + gap
    sup2 = lam * lam * _sum([mi * mi / ((d + gap) * (d + gap)) for (_, mi), d in zip(active, diffs)])
    return math.sqrt(sup2)
