"""References computed apart from the program: mpmath and numpy only.

* ``ellipsoid``: the image of the ball under a map, from its coefficients,
  by the image-ellipsoid formula in high precision.
* ``sup_norm``: the exact sup of |center + shape v| over |v| <= 1, from the
  secular equation sum_i s_i m_i^2 / (lam - s_i)^2 = 1 (s_i the eigenvalues
  of shape shape*), solved by bisection on log(lam - s_max) in high precision,
  with the hard case (no root above s_max) handled in closed form.
* ``rows``: the per-row quantities of the row test at the scale of the given
  coefficients.
* ``disk``: the classical disk formula for N = 1, in floating point.
* ``dw_point``: the boundary fixed point as the eigenvector (p, 1) of the
  associated matrix, for an eigenvalue of largest modulus, with |p| = 1.

``self_check`` tests these references on maps whose answers are known.
"""

from __future__ import annotations

import mpmath
import numpy as np
from mpmath import mp

import gen

DPS = 40
mp.dps = DPS


def _mpc(z) -> mpmath.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def coefficients(m: np.ndarray):
    """(A, B, C, D) as mpmath objects from an associated matrix."""
    n = m.shape[0] - 1
    a = mp.matrix(n, n)
    b = mp.matrix(n, 1)
    c = mp.matrix(n, 1)
    for i in range(n):
        for j in range(n):
            a[i, j] = _mpc(m[i, j])
        b[i] = _mpc(m[i, n])
        c[i] = mp.conj(_mpc(m[n, i]))
    return a, b, c, _mpc(m[n, n])


def ellipsoid(m: np.ndarray):
    """(center, shape) of the image of the unit ball, in high precision."""
    a, b, c, d = coefficients(m)
    n = a.rows
    a = a / d
    b = b / d
    c = c / mp.conj(d)
    cn2 = mp.re(sum(abs(c[i]) ** 2 for i in range(n)))
    if cn2 >= 1:
        raise ValueError("map has a pole on the closed ball")
    if cn2 == 0:
        return b, a
    s = mp.sqrt(1 - cn2)
    ch = c.H
    mid = mp.eye(n) * s + (c * ch) * ((1 - s) / cn2)
    center = (b - a * c) / (1 - cn2)
    shape = (b * ch - a * mid) / (1 - cn2)
    return center, shape


def sup_norm(center, shape) -> mpmath.mpf:
    """sup |center + shape v| over |v| <= 1 (see module docstring)."""
    n = shape.rows
    evals, evecs = mp.eighe(shape * shape.H)
    s = [max(mp.re(x), mp.mpf(0)) for x in evals]
    m2 = [abs(sum(mp.conj(evecs[r, i]) * center[r] for r in range(n))) ** 2 for i in range(n)]
    top = max(s)
    cnorm2 = sum(m2)
    scale = max(top, cnorm2, mp.mpf(1))
    tied = [top - x <= mp.mpf(10) ** (-30) * scale for x in s]
    rest = [i for i in range(n) if not tied[i]]
    m2_top = sum(m2[i] for i in range(n) if tied[i])
    h_rest = sum(s[i] * m2[i] / (top - s[i]) ** 2 for i in rest)
    if m2_top <= mp.mpf(10) ** (-80) * scale and h_rest <= 1:
        sup2 = sum(m2[i] * top**2 / (top - s[i]) ** 2 for i in rest) + top * (1 - h_rest)
        return mp.sqrt(sup2)

    def h(gap):
        return sum(s[i] * m2[i] / (top - s[i] + gap) ** 2 for i in range(n))

    lo = mp.log(mp.mpf(10) ** (-100) * scale)
    hi = mp.log(4 * (mp.sqrt(top) + mp.sqrt(cnorm2)) ** 2 + 1)
    for _ in range(400):
        mid = (lo + hi) / 2
        if h(mp.exp(mid)) > 1:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf(10) ** (-(DPS - 5)):
            break
    lam = top + mp.exp((lo + hi) / 2)
    return lam * mp.sqrt(sum(m2[i] / (lam - s[i]) ** 2 for i in range(n)))


def map_sup(m: np.ndarray) -> float:
    return float(sup_norm(*ellipsoid(m)))


def rows(m: np.ndarray):
    """(row_lhs, rhs) of the row test at the scale of the given coefficients:
    row i is |center - conj(shape row i)|^2 times rhs = (|D|^2 - |C|^2)^2."""
    _, _, c, d = coefficients(m)
    center, shape = ellipsoid(m)
    n = shape.rows
    rhs = (abs(d) ** 2 - sum(abs(c[i]) ** 2 for i in range(n))) ** 2
    c2 = sum(abs(center[k]) ** 2 for k in range(n))
    lhs = []
    for i in range(n):
        r2 = sum(abs(shape[i, k]) ** 2 for k in range(n))
        cross = mp.re(sum(shape[i, k] * center[k] for k in range(n)))
        lhs.append(float((c2 + r2 - 2 * cross) * rhs))
    return lhs, float(rhs)


def disk(m: np.ndarray):
    """Classical N = 1 formula for phi(z) = (a z + b) / (c z + d) with the
    literal denominator coefficient c: the image of the disk is the disk of
    center (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) and radius
    |a d - b c| / (|d|^2 - |c|^2).  Returns (sup, is_selfmap)."""
    a, b, c, d = (complex(x) for x in (m[0, 0], m[0, 1], m[1, 0], m[1, 1]))
    den = abs(d) ** 2 - abs(c) ** 2
    lhs = abs(b * d.conjugate() - a * c.conjugate()) + abs(a * d - b * c)
    return lhs / den, lhs <= den


def dw_point(m: np.ndarray) -> np.ndarray:
    """Boundary fixed point from the eigenvectors of m for eigenvalues of
    largest modulus: the one whose point p = v[:n] / v[n] has |p| nearest 1."""
    n = m.shape[0] - 1
    evals, evecs = mp.eig(mp.matrix(m.tolist()))
    radius = max(abs(x) for x in evals)
    best, best_gap = None, None
    for k, lam in enumerate(evals):
        if abs(lam) < radius * (1 - mp.mpf(10) ** -12):
            continue
        last = evecs[n, k]
        if abs(last) == 0:
            continue
        p = [evecs[i, k] / last for i in range(n)]
        gap = abs(mp.sqrt(sum(abs(x) ** 2 for x in p)) - 1)
        if best is None or gap < best_gap:
            best, best_gap = p, gap
    if best is None or best_gap > 1e-9:
        raise ValueError("no boundary eigenvector of largest modulus")
    return np.array([complex(x) for x in best])


def krein_min_eig(m: np.ndarray, t: float) -> float:
    """Smallest eigenvalue of J - t^2 m* J m, J = diag(I, -1)."""
    j = np.eye(m.shape[0])
    j[-1, -1] = -1.0
    pencil = j - (t * t) * (m.conj().T @ j @ m)
    return float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2.0)[0])


def quadric_value(s: np.ndarray, b: np.ndarray, c: float, z: np.ndarray) -> float:
    x = np.empty(2 * z.shape[0])
    x[0::2] = z.real
    x[1::2] = z.imag
    return float(x @ s @ x + b @ x + c)


def self_check(n1_maps) -> list[str]:
    """Test the references themselves; returns a list of failures.

    On the worked map phi(z) = ((z1 + 1)/(3 - z1), 2 z2/(3 - z1)): rows 64
    and 48 against rhs 64, sup 1 and Denjoy-Wolff point (1, 0).  On every
    N = 1 map given: sup and verdict equal to the classical disk formula.
    """
    bad = []
    worked = gen.WORKED
    lhs, rhs = rows(worked)
    if max(abs(lhs[0] - 64), abs(lhs[1] - 48), abs(rhs - 64)) > 1e-12:
        bad.append(f"reference rows on the worked map: {lhs} vs rhs {rhs}")
    sup = map_sup(worked)
    if abs(sup - 1.0) > 1e-15:
        bad.append(f"reference sup on the worked map: {sup!r}")
    p = dw_point(worked)
    if np.linalg.norm(p - np.array([1.0, 0.0])) > 1e-12:
        bad.append(f"reference Denjoy-Wolff point on the worked map: {p}")
    # The Siegel translation w1 -> w1 + i, read back through the Cayley
    # transform, is the worked map up to a scalar.
    m = gen.from_siegel(gen.translation(2, 1j))
    spread = float(np.max(np.abs(m * (worked[2, 2] / m[2, 2]) - worked)))
    if spread > 1e-12:
        bad.append(f"parabolic construction misses the worked map by {spread:.3e}")
    for m in n1_maps:
        want_sup, want_ok = disk(m)
        got = map_sup(m)
        decided = abs(want_sup - 1.0) > 1e-12
        if abs(got - want_sup) > 1e-12 * max(1.0, want_sup) or (decided and (got <= 1.0) != want_ok):
            bad.append(f"reference sup {got!r} vs disk formula {want_sup!r} on {m.tolist()}")
    return bad
