"""Self-map tests for linear fractional maps of the unit ball.

Three routes are implemented side by side rather than collapsed into one:

* a per-row inequality on the image ellipsoid (fast, neither necessary
  nor sufficient),
* an exact oracle comparing the ellipsoid sup norm against 1,
* a Krein-space contraction test, exact and scale-invariant, for a scale t
  with J - t^2 m* J m positive semidefinite, J = diag(I, -1).

discrepancy_flag measures whether the row test agrees with the oracle;
the Krein route is compared with neither.  Classification of verified
self-maps reads the fixed point off the eigenstructure of the associated
matrix m: a fixed point p in the closed ball is an eigenvector (p, 1) of
m with J-form |p|^2 - 1 <= 0, for the eigenvalue of largest modulus.
The Denjoy-Wolff point of a map with no interior fixed point is the
isotropic one (Cowen and MacCluer 2000; Bisi and Bracci 2002).

Each route factors the one small matrix as few times as it can.  m / max|m|,
that scale, J, its sign vector and H = m* J m are formed in one place,
_pencil, which krein_check and classify_fixed_point both call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation
from .geometry import (
    BallAutomorphism,
    EllipsoidImage,
    automorphism_to_lfmap,
    ellipsoid_sup_norm,
    image_ellipsoid,
)
from .lfm import LFMap, evaluate_batch, from_associated_matrix

ROW_REL_TOL = 1e-10
ORACLE_TOL = 1e-9
KREIN_PSD_TOL = 1e-10
# krein_check takes mu with |Im mu| <= _KREIN_CLUSTER_RTOL |mu| as real and
# sorted candidates within _KREIN_CLUSTER_RTOL (relative) of each other as
# one repeated zero, both split by rounding (check-mixed seeds 1-60 and the
# tests' Siegel maps: at most 3e-7 at contact, at least 1.3e-4 elsewhere).
# A Newton step ends the search at its target if it is at most
# _KREIN_ARGMAX_RTOL / 4, or at most _KREIN_QUADRATIC_RTOL and
# _KREIN_QUADRATIC_RATIO of the step before (quadratic convergence then
# leaves about ratio^2 times the step, 1e-13 s); else the bracket narrows to
# _KREIN_ARGMAX_RTOL.  s doubles at most _KREIN_MAX_DOUBLINGS times.
_KREIN_CLUSTER_RTOL = 1e-5
_KREIN_ARGMAX_RTOL = 1e-11
_KREIN_QUADRATIC_RTOL = 1e-7
_KREIN_QUADRATIC_RATIO = 1e-3
_KREIN_MAX_DOUBLINGS = 64
SAMPLE_CHUNK = 4096
# classify_fixed_point, for unit vectors: a J-form above _FORM_TOL lies
# clearly outside the ball; eigenvalues within _CLUSTER_RTOL (relative) of
# each other whose eigenvectors are within _PARALLEL_TOL of parallel
# (1 - |cos|) share a defective eigenvalue if their mean leaves m - lam I
# singular to _MEAN_RTOL (relative); singular values below _NULL_RTOL
# (relative) span a null space; a J-form within _ISOTROPIC_TOL of 0 is a
# boundary point's (rounding moves an eigenvector as eigenvalues near).
_FORM_TOL = 1e-3
_CLUSTER_RTOL = 1e-4
_PARALLEL_TOL = 1e-3
_NULL_RTOL = 1e-8
_MEAN_RTOL = 1e-12
_ISOTROPIC_TOL = 1e-6

CLASS_INTERIOR = "interior_fixed_point"
CLASS_BOUNDARY = "boundary_denjoy_wolff"
CLASS_NOT_SELFMAP = "not_selfmap"


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of all self-map tests on one map.

    row_lhs and rhs are stated at the scale of the unnormalized
    coefficients, where rhs = (|d|^2 - |c|^2)^2.  classification is one
    of interior_fixed_point, boundary_denjoy_wolff, not_selfmap, and
    fixed_point carries the interior fixed point or the Denjoy-Wolff
    point of a self-map (None otherwise).
    discrepancy_flag records row-test vs oracle disagreement.
    """

    row_lhs: tuple[float, ...]
    rhs: float
    row_verdict: tuple[bool, ...]
    criterion_selfmap: bool
    oracle_sup: float
    oracle_selfmap: bool
    krein_t: float | None
    classification: str
    fixed_point: tuple[complex, ...] | None
    discrepancy_flag: bool


def krein_metric(n: int) -> np.ndarray:
    j = np.eye(n + 1, dtype=np.complex128)
    j[n, n] = -1.0
    return j


def row_criterion(phi: LFMap) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-row ellipsoid test.

    Row i compares |center|^2 + sum_k |shape_ik|^2 - 2 Re (shape center)_i
    of the image ellipsoid against 1, both sides rescaled by
    (|d|^2 - |c|^2)^2.  Returns (row_lhs, rhs, verdicts); the verdict
    allows ROW_REL_TOL of slack relative to rhs.  The rows are neither
    necessary nor sufficient for the map to send the ball into itself:
    a map can pass every row and leave the ball, and a self-map can
    exceed a row (A = [[-1/2, -1/2], [-1/4, 1/4]], B = (0, 1/2), C = 0,
    D = 1 has sup sqrt(5/6) but row 1 at 1.25).  The sup oracle decides.
    """
    return _ellipsoid_rows(phi, image_ellipsoid(phi))


def _ellipsoid_rows(phi: LFMap, ell: EllipsoidImage):
    """row_criterion on the given image ellipsoid of phi, which check()
    shares with the oracle.  For an affine map (c = 0) the ellipsoid has
    center b/d and shape a/d, and rhs = |d|^4.

    Both sides are stated at the coefficients' own scale, so coefficients
    too large for that (about 1e77 and up) raise ContractViolation, and so
    do coefficients so small (about 1e-78 and below) that the scale is not
    a normal double.
    """
    center, shape = ell.center, ell.shape
    c2 = float(np.vdot(center, center).real)
    lhs = c2 + (shape.real**2 + shape.imag**2).sum(axis=1) - 2.0 * (shape @ center).real
    verdicts = lhs <= 1.0 + ROW_REL_TOL
    cr, ci = phi.c.real, phi.c.imag
    try:
        # The square root is np.linalg.norm(phi.c) without its overhead.  It
        # comes after |d|^2, whose OverflowError spares numpy's overflow in
        # dot for a pole-free map.
        scale = (abs(phi.d) ** 2 - math.sqrt(cr.dot(cr) + ci.dot(ci)) ** 2) ** 2
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale * max(1.0, float(lhs.max()))):
        raise ContractViolation(
            "row test: its rows are stated at the coefficients' scale, where "
            "(|d|^2 - |c|^2)^2 times them overflows; divide the coefficients "
            "by a common factor"
        )
    if scale < sys.float_info.min:
        raise ContractViolation(
            "row test: its rows are stated at the coefficients' scale, where "
            "(|d|^2 - |c|^2)^2 is below the smallest normal double; multiply "
            "the coefficients by a common factor"
        )
    return lhs * scale, float(scale), verdicts


def _pencil(phi: LFMap):
    """(m / max|m|, max|m|, J = krein_metric(N), J's sign vector, H = m* J m
    symmetrised); a subnormal max|m| raises ContractViolation."""
    scale = float(np.max(np.abs(phi._m)))
    if scale < sys.float_info.min:
        raise ContractViolation(
            "Krein pencil: m is divided by max|m|, which is below the smallest "
            "normal double; multiply the coefficients by a common factor"
        )
    m = phi._m / scale
    j = krein_metric(phi.dim)
    jd = j.diagonal().real
    h = (m.conj().T * jd) @ m
    return m, scale, j, jd, (h + h.conj().T) / 2.0


class _PencilPoint(NamedTuple):
    """lambda_min(J - s H) at s with its first two derivatives in s; the
    curvature is nan at the interval ends read off eig(J H)."""

    s: float
    value: float
    slope: float
    curvature: float


def _pencil_point(j: np.ndarray, h: np.ndarray, s: float) -> _PencilPoint:
    """One eigh of J - s H.

    The slope is -v0* H v0 for the bottom eigenvector v0, a supergradient
    of the concave lambda_min even where eigenvalues cross.  The curvature
    is the second-order perturbation sum 2 sum_k |v_k* H v0|^2 /
    (lam_0 - lam_k) where the bottom eigenvalue is simple, and -inf where
    it is multiple (no second derivative there).
    """
    lam, vec = np.linalg.eigh(j - s * h)
    w = vec.conj().T @ (h @ vec[:, 0])
    curvature = -np.inf
    if lam[1] > lam[0]:
        curvature = -2.0 * float(np.sum(np.abs(w[1:]) ** 2 / (lam[1:] - lam[0])))
    return _PencilPoint(s, float(lam[0]), -float(w[0].real), curvature)


def _narrow(lo: _PencilPoint, hi: _PencilPoint | None, x: _PencilPoint):
    """The bracket (lo, hi) of the maximiser of f after evaluating x in it.

    A concave f rises where its slope is positive; a zero slope makes x
    the maximiser, returned as both ends.
    """
    if x.slope > 0.0:
        return x, hi
    if x.slope < 0.0:
        return lo, x
    return x, x


def _contact_point(j: np.ndarray, h: np.ndarray, c: list, last: int) -> float | None:
    """The maximiser s of f(s) = lambda_min(J - s H) at boundary contact, or None.

    There f <= 0 touches 0 at a repeated zero of det(J - s H), which
    rounding splits into a run of the sorted candidates c.  Each run that
    begins at index last or before costs one eigh at its mean s, accepted
    when f(s) is 0 to KREIN_PSD_TOL and s times the slopes -V* H V on the
    kernel V take both signs: 0 is then a supergradient (Lewis and
    Overton, "Eigenvalue optimization", Acta Numerica 1996).  A repeated
    zero at an end of a feasible interval has slopes of one sign: z -> a z
    on B^N, N >= 2, at s = 1/a^2, where s times each slope is -1.
    """
    first = 0
    for k in range(1, len(c) + 1):
        if k < len(c) and c[k] - c[k - 1] <= _KREIN_CLUSTER_RTOL * c[k]:
            continue
        if first > last:
            break
        run, first = c[first:k], k
        if len(run) < 2:
            continue
        s = sum(run) / len(run)
        lam, vec = np.linalg.eigh(j - s * h)
        if abs(lam[0]) > KREIN_PSD_TOL:
            continue
        kernel = vec[:, lam <= KREIN_PSD_TOL]
        slopes = np.linalg.eigvalsh(-(kernel.conj().T @ h @ kernel))
        if s * slopes[0] <= KREIN_PSD_TOL and s * slopes[-1] >= -KREIN_PSD_TOL:
            return s
    return None


def krein_check(phi: LFMap) -> float | None:
    """The t > 0 maximising lambda_min(J - t^2 m* J m), or None if infeasible.

    With m normalised by max|m| and s = t^2 max|m|^2 the matrix is J - s H,
    H = m* J m (_pencil), so nothing here depends on the coefficients' scale.
    f(s) = lambda_min(J - s H) is concave with f(0) = -1.  One eig of J H
    gives the zeros s = 1/mu of det(J - s H), mu > 0 real, and the J-form
    x* J x of each unit eigenvector x: the eigenvalue of J - s H crossing
    0 there has slope -x* H x = -mu x* J x.  These signs, the sign
    characteristic of the pencil (Gohberg, Lancaster and Rodman,
    "Indefinite Linear Algebra and Its Applications", 2005), count the
    negative eigenvalues of J - s H up from 1 at s = 0+; a non-real mu has
    a J-neutral eigenvector and crosses nothing.  The feasible interval
    [s1, s2] opens where the count reaches 0 and closes at the next
    candidate; if the count never reaches 0, no eigh is needed to say
    None.  J H is selfadjoint in the form of J, which has one negative
    square, so in exact arithmetic the map is feasible exactly when the
    largest real mu > 0 has negative type.

    At boundary contact f only touches 0, at a repeated candidate with
    rounding-sized forms, so the runs up to s1 go first (_contact_point).
    Else f is 0 at both ends of [s1, s2] with known slopes, and the polish
    starts, with no eigh, where their tangents meet.  Each later point is
    a Newton step on f' from the end with the flatter slope, if its bottom
    eigenvalue is simple and the step stays in the bracket and at most
    halves the last one; else the tangents' intersection (exact at a
    kink), or bisection when the bracket has not halved in two steps.
    Rounding of H can lose s2 near the sphere; then s doubles from s1
    until f turns.  Feasible means max f >= -KREIN_PSD_TOL.
    """
    _, scale, j, jd, h = _pencil(phi)
    mu, vec = np.linalg.eig(jd[:, None] * h)
    # s = 1/mu and the slope -mu x* J x of the eigenvalue crossing 0 there
    crossings = sorted(
        (1.0 / z.real, -z.real * form)
        for z, form in zip(mu.tolist(), (jd @ np.abs(vec) ** 2).tolist())
        if z.real > 0.0 and abs(z.imag) <= _KREIN_CLUSTER_RTOL * abs(z)
    )
    # The count of negative eigenvalues of J - s H, 1 just above s = 0: an
    # eigenvalue rising through 0 (a negative form) leaves it.
    counts = list(accumulate(((g < 0.0) - (g > 0.0) for _, g in crossings), initial=1))
    k = counts.index(0) - 1 if 0 in counts else len(crossings)
    s_contact = _contact_point(j, h, [s for s, _ in crossings], k)
    if s_contact is not None:
        return float(np.sqrt(s_contact) / scale)
    if k == len(crossings):
        return None
    # f is 0 at both ends, with the slope of the eigenvalue crossing there
    ends = [_PencilPoint(s, 0.0, g, np.nan) for s, g in crossings[k : k + 2]]
    lo, hi = ends[0], ends[1] if len(ends) == 2 else None
    # With s2 lost, f can rise past s1 only by rounding: H is exact to about
    # (N + 1) eps.  Double s while the slope stands above that.
    for _ in range(_KREIN_MAX_DOUBLINGS):
        if hi is not None or lo.slope <= (phi.dim + 1) * np.finfo(float).eps:
            break
        lo, hi = _narrow(lo, hi, _pencil_point(j, h, 2.0 * lo.s))
    if hi is None:
        hi = lo
    widths = [np.inf, np.inf, hi.s - lo.s]
    step = hi.s - lo.s
    best = None
    while hi.s - lo.s > _KREIN_ARGMAX_RTOL * hi.s:
        s_tan = (hi.value - lo.value + lo.slope * lo.s - hi.slope * hi.s) / (lo.slope - hi.slope)
        base = lo if lo.slope <= -hi.slope else hi
        # A multiple bottom eigenvalue (-inf) or an interval end (nan) has no
        # curvature: f may turn there, so no Newton step, and above all no
        # converged stop.
        smooth = -np.inf < base.curvature < 0.0
        s_new = base.s - base.slope / base.curvature if smooth else np.nan
        newton = abs(s_new - base.s)
        if lo.s <= s_new <= hi.s and newton <= 0.5 * step:
            if newton <= 0.25 * _KREIN_ARGMAX_RTOL * s_new or (
                newton <= _KREIN_QUADRATIC_RTOL * s_new
                and newton <= _KREIN_QUADRATIC_RATIO * step
            ):
                # Converged: f at s_new exceeds f at base by O(step^2).
                best = base._replace(s=s_new)
                break
        else:
            s_new = s_tan
            if not (lo.s <= s_new <= hi.s and widths[-1] <= 0.5 * widths[-3]):
                s_new = 0.5 * (lo.s + hi.s)
        # Stay clear of the ends, so that a converged step lands across the
        # maximiser and closes the bracket (relative to s_new: s2 may be far).
        margin = 0.25 * _KREIN_ARGMAX_RTOL * s_new
        s_new = min(max(s_new, lo.s + margin), hi.s - margin)
        step = abs(s_new - base.s)
        lo, hi = _narrow(lo, hi, _pencil_point(j, h, s_new))
        widths.append(hi.s - lo.s)
    if best is None:
        best = lo if lo.value >= hi.value else hi
    if best.value < -KREIN_PSD_TOL:
        return None
    return float(np.sqrt(best.s) / scale)


def oracle_is_selfmap(phi: LFMap) -> tuple[float, bool]:
    """Exact verdict: the ellipsoid sup norm compared against 1."""
    return _oracle(image_ellipsoid(phi))


def _oracle(ell: EllipsoidImage) -> tuple[float, bool]:
    sup = ellipsoid_sup_norm(ell)
    return sup, bool(sup <= 1.0 + ORACLE_TOL)


def _sphere_chunks(count: int, dim: int, seed: int):
    """Uniform points on the unit sphere of C^dim, SAMPLE_CHUNK at a time.

    Each chunk comes from its own seeded substream, so the points do not
    depend on how the chunks are consumed.
    """
    base = int(seed) % 2**63
    for chunk_index, done in enumerate(range(0, count, SAMPLE_CHUNK)):
        rng = np.random.default_rng([base, chunk_index])
        g = rng.standard_normal((min(SAMPLE_CHUNK, count - done), 2 * dim))
        z = g[:, ::2] + 1j * g[:, 1::2]
        z /= np.linalg.norm(z, axis=1)[:, None]
        yield z


def sphere_points(count: int, dim: int, seed: int) -> np.ndarray:
    """Uniform points on the unit sphere of C^dim, deterministic per seed;
    a negative count or a dim below 1 raises ContractViolation."""
    if count < 0:
        raise ContractViolation(f"sample count must be at least 0, got {count}")
    if dim < 1:
        raise ContractViolation(f"dimension must be at least 1, got {dim}")
    out = np.empty((count, dim), dtype=np.complex128)
    for k, z in enumerate(_sphere_chunks(count, dim, seed)):
        out[k * SAMPLE_CHUNK : k * SAMPLE_CHUNK + len(z)] = z
    return out


def monte_carlo_sup(phi: LFMap, count: int, seed: int) -> float:
    """Largest |phi(z)| over the points of sphere_points(count, N, seed),
    evaluated a chunk at a time.  A count below 1 raises ContractViolation."""
    if count < 1:
        raise ContractViolation(f"sample count must be at least 1, got {count}")
    best = 0.0
    for z in _sphere_chunks(count, phi.dim, seed):
        images = evaluate_batch(phi, z)
        best = max(best, float(np.max(np.linalg.norm(images, axis=1))))
    return best


def _origin_orbit(phi: LFMap):
    """No caller: benchmark/tracer.py counts calls to this name, and
    tests/test_benchmark_tracer.py requires each name it counts to exist."""
    raise NotImplementedError("criterion._origin_orbit has no body")


def _least_form(basis: np.ndarray) -> tuple[float, np.ndarray]:
    """The least J-form x* J x over unit x in the span of orthonormal
    columns B, and the x attaining it.

    With r = B* e_{N+1}, the conjugate of B's last row, B* J B = I - 2 r r*,
    so the least form is 1 - 2|r|^2 at x = -B r / |r|, or at B[:, 0] when
    B has one column or r = 0.  The sign is free; this one gives x the last
    coordinate -|r|, as eig and eigh happen to for the README's worked map,
    whose printed fixed point keeps its signed zeros.
    """
    r = basis[-1].conj()
    r2 = float(np.vdot(r, r).real)
    if basis.shape[1] == 1 or r2 == 0.0:
        return 1.0 - 2.0 * r2, basis[:, 0]
    return 1.0 - 2.0 * r2, basis @ (r / -math.sqrt(r2))


def _nonpositive_eigenvector(m: np.ndarray, jd: np.ndarray):
    """(form, x, lam): the unit x of least J-form in the eigenspace (the
    near-null space of m - lam I) of the first eigenvalue lam to reach
    form <= _ISOTROPIC_TOL, else of least form.  Eigenvalues with a
    computed eigenvector of form <= _FORM_TOL go first, each group by
    decreasing modulus (a later isotropic one is a repelling point).

    An eigenvalue with no other within _CLUSTER_RTOL (relative) is simple:
    its eigenvector and form are eig's own, and no SVD is made.  A cluster
    takes the null space of m - lam I.  A defective eigenvalue splits into
    close computed ones with nearly parallel eigenvectors, whose mean is
    exact to rounding.  Distinct eigenvalues can look alike (an attracting
    point near the sphere and its repelling mirror image); their mean
    leaves m - lam I nonsingular, and each is taken on its own."""
    w, vec = np.linalg.eig(m)
    form = jd @ np.abs(vec) ** 2
    best = None
    for i in np.lexsort((-np.abs(w), form > _FORM_TOL)):
        near = np.abs(w - w[i]) <= _CLUSTER_RTOL * np.abs(w[i])
        if np.count_nonzero(near) == 1:
            least, x, lam = float(form[i]), vec[:, i], complex(w[i])
        else:
            group = near & (np.abs(vec.conj().T @ vec[:, i]) >= 1.0 - _PARALLEL_TOL)
            eye = np.eye(len(w))
            lam = complex(np.mean(w[group]))
            _, sing, vh = np.linalg.svd(m - lam * eye)
            if np.count_nonzero(group) > 1 and sing[-1] > _MEAN_RTOL * sing[0]:
                lam = complex(w[i])
                _, sing, vh = np.linalg.svd(m - lam * eye)
            least, x = _least_form(vh[sing <= max(_NULL_RTOL * sing[0], sing[-1])].conj().T)
        if best is None or least < best[0]:
            best = (least, x, lam)
        if least <= _ISOTROPIC_TOL:
            break
    return best


def classify_fixed_point(phi: LFMap, oracle_sup: float) -> tuple[str, np.ndarray | None]:
    """Classify a verified self-map and locate the relevant fixed point.

    The fixed point (p, 1) is the eigenvector of the associated matrix m
    (normalised by max|m|) with J-form |p|^2 - 1 <= 0 for the eigenvalue
    lam of largest modulus, of least norm in the eigenspace.  A sup norm
    strictly below 1 keeps the image compactly inside the ball, so the
    point is interior whatever the rounding of its form (|p|^2 may lie
    within _ISOTROPIC_TOL of 1).  At boundary contact it is interior if
    its form is below -_ISOTROPIC_TOL (z -> (z1, z2/2) fixes a disc), else
    it is the isotropic Denjoy-Wolff point.  When J - H / |lam|^2,
    H = m* J m, is positive semidefinite (parabolic maps other than
    automorphisms), the point is read off its kernel, which stays well
    apart from the rest of the spectrum even where an eigenvalue of m lies
    close to lam.
    """
    if oracle_sup > 1.0 + ORACLE_TOL:
        return CLASS_NOT_SELFMAP, None
    m, _, j, jd, h = _pencil(phi)
    least, x, lam = _nonpositive_eigenvector(m, jd)
    if oracle_sup < 1.0 - ORACLE_TOL or least < -_ISOTROPIC_TOL:
        return CLASS_INTERIOR, x[:-1] / x[-1]
    vals, vecs = np.linalg.eigh(j - h / abs(lam) ** 2)
    floor = _NULL_RTOL * max(1.0, float(vals[-1]))
    kernel = vals <= floor
    if vals[0] >= -floor and not np.all(kernel):
        # Two isotropic vectors here (a nearly parabolic hyperbolic map)
        # would give a negative least form; keep the eigenvector then.
        least, y = _least_form(vecs[:, kernel])
        if least >= -_ISOTROPIC_TOL:
            x = y
    return CLASS_BOUNDARY, x[:-1] / x[-1]


def check(phi: LFMap) -> CriterionReport:
    """Run every self-map test on one pole-free map and bundle the results."""
    ell = image_ellipsoid(phi)  # shared by the row test and the oracle
    row_lhs, rhs, row_ok = _ellipsoid_rows(phi, ell)
    criterion_selfmap = bool(np.all(row_ok))
    oracle_sup, oracle_ok = _oracle(ell)
    krein_t = krein_check(phi)
    classification, point = classify_fixed_point(phi, oracle_sup)
    return CriterionReport(
        row_lhs=tuple(float(x) for x in row_lhs),
        rhs=float(rhs),
        row_verdict=tuple(bool(v) for v in row_ok),
        criterion_selfmap=criterion_selfmap,
        oracle_sup=float(oracle_sup),
        oracle_selfmap=bool(oracle_ok),
        krein_t=krein_t,
        classification=classification,
        fixed_point=None if point is None else tuple(complex(x) for x in point),
        discrepancy_flag=bool(criterion_selfmap != oracle_ok),
    )


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def random_selfmap_shaped(
    n: int, rng: np.random.Generator, target_sup: float
) -> LFMap:
    """A map built as an ellipsoid placement after a ball automorphism.

    Scaling the placement makes the image sup norm land on target_sup
    exactly, so both self-maps and near-misses can be manufactured with
    a controlled margin.
    """
    g = rng.standard_normal(2 * n)
    alpha = (g[::2] + 1j * g[1::2])
    alpha *= 0.7 * rng.uniform(0.1, 1.0) / np.linalg.norm(alpha)
    shape = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shape /= np.linalg.svd(shape, compute_uv=False)[0]
    shape *= rng.uniform(0.4, 1.0)
    center = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    inv_m = automorphism_to_lfmap(BallAutomorphism(alpha, np.eye(n)))._m

    def build(sh, ce):
        place = np.eye(n + 1, dtype=np.complex128)
        place[:n, :n] = sh
        place[:n, n] = ce
        return from_associated_matrix(place @ inv_m)

    phi = build(shape, center)
    current = ellipsoid_sup_norm(image_ellipsoid(phi))
    factor = target_sup / current
    return build(shape * factor, center * factor)


def random_pole_free_map(n: int, rng: np.random.Generator) -> LFMap:
    """A random map whose poles avoid the closed ball, O(1) coefficients."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = 0.7 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    c = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    d = (np.linalg.norm(c) + 0.3 + 0.5 * abs(rng.standard_normal())) * np.exp(
        2j * np.pi * rng.uniform()
    )
    return LFMap(a, b, c, d)


def agreement_table(count: int, seed: int) -> dict:
    """Measured row-test vs oracle agreement over a random map ensemble.

    Rows alternate between shaped maps with a prescribed sup norm on
    either side of 1 and raw pole-free maps, N = 1, 2, 3, 4 in turn.
    Returns a dict with one row per map and summary counts; fully
    deterministic per seed.
    """
    base = int(seed) % 2**63
    rows = []
    for idx in range(count):
        n = 1 + idx % 4
        rng = np.random.default_rng([base, 7, idx])
        if idx % 2 == 0:
            target = rng.uniform(0.5, 1.5)
            while abs(target - 1.0) < 1e-4:
                target = rng.uniform(0.5, 1.5)
            phi = random_selfmap_shaped(n, rng, target)
        else:
            phi = random_pole_free_map(n, rng)
        ell = image_ellipsoid(phi)  # shared by the row test and the oracle
        lhs, rhs, ok = _ellipsoid_rows(phi, ell)
        crit = bool(np.all(ok))
        sup, oracle_ok = _oracle(ell)
        rows.append(
            {
                "index": idx,
                "dim": n,
                "criterion_selfmap": crit,
                "oracle_selfmap": oracle_ok,
                "oracle_sup": float(sup),
                "max_row_excess": float(np.max(lhs / rhs)),
                "agree": crit == oracle_ok,
            }
        )
    pairs = [(r["criterion_selfmap"], r["oracle_selfmap"]) for r in rows]
    agree = sum(r["agree"] for r in rows)
    return {
        "count": count,
        "seed": int(seed),
        "rows": rows,
        "summary": {
            "agree": agree,
            "disagree": count - agree,
            "both_true": pairs.count((True, True)),
            "both_false": pairs.count((False, False)),
            "criterion_only": pairs.count((True, False)),
            "oracle_only": pairs.count((False, True)),
        },
    }
