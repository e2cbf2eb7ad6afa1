"""Seeded inputs for the benchmark workloads, built with numpy alone.

Every map is returned as its associated matrix m = [[A, B], [conj(C), D]]
(so the program's coefficients are A = m[:n, :n], B = m[:n, n],
C = conj(m[n, :n]), D = m[n, n]) together with what is known about it by
construction: its kind, the class the program must report and, for self-maps,
the fixed point the program must find.  Nothing here imports the program.

Constructions:

* ``psi(alpha)`` is the involutive ball automorphism exchanging 0 and alpha,
  ``aut`` a random automorphism (unitary after an involution).
* ``interior``: psi_a o L o psi_a with a linear strict contraction L; the only
  fixed point is a.
* ``parabolic`` / ``hyperbolic``: in the Siegel half-space Im w1 > |w'|^2,
  reached through the Cayley transform, a translation w1 -> w1 + a + i s or a
  dilation w1 -> lam w1, each followed by a linear map of w'.  Conjugated by a
  random automorphism A, the Denjoy-Wolff point is A(e1).
* ``nonself``: psi_a o L o psi_a with ||L|| > 1.
* adversarial ellipsoids: an affine placement z -> c0 + R z of the ball, with
  R = W diag(sigma) V*, optionally pre-composed with a ball automorphism so
  that the map has C != 0 while its image stays the designed ellipsoid.
"""

from __future__ import annotations

import numpy as np

DIMS = tuple(range(1, 9))
INTERIOR = "interior_fixed_point"
BOUNDARY = "boundary_denjoy_wolff"
NOT_SELFMAP = "not_selfmap"

# Base maps of the scaled copies and the pure first-coordinate translations
# come from this constant seed: those inputs fail on every run (see README),
# so they must not depend on --seed.
FIXED_SEED = 20260822
SCALES = (1e8, 1e-8)
TRANSLATION_DIMS = (2, 5, 8)
WORKED = np.array([[1, 0, 1], [0, 2, 0], [-1, 0, 3]], dtype=np.complex128)

# Rotation angles of w' in seeded parabolic maps stay this far from 0.  A
# rotation eigenvalue within ~1e-3 of the Denjoy-Wolff eigenvalue loses that
# point's accuracy (README, "Known faults"); the fixed inputs show that case.
MIN_ROTATION_ANGLE = 0.05


def unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ball_point(n: int, rng: np.random.Generator, radius: float) -> np.ndarray:
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return g * (radius / np.linalg.norm(g))


def psi(alpha: np.ndarray) -> np.ndarray:
    """Associated matrix of the involution exchanging 0 and alpha (|alpha| < 1)."""
    n = alpha.shape[0]
    a2 = float(np.vdot(alpha, alpha).real)
    m = np.zeros((n + 1, n + 1), dtype=np.complex128)
    m[n, n] = 1.0
    if a2 == 0.0:
        m[:n, :n] = -np.eye(n)
        return m
    beta = np.outer(alpha, alpha.conj()) / a2
    s = np.sqrt(1.0 - a2)
    m[:n, :n] = -beta - s * (np.eye(n) - beta)
    m[:n, n] = alpha
    m[n, :n] = -alpha.conj()
    return m


def block(top: np.ndarray) -> np.ndarray:
    n = top.shape[0]
    m = np.eye(n + 1, dtype=np.complex128)
    m[:n, :n] = top
    return m


def aut(n: int, rng: np.random.Generator) -> np.ndarray:
    return block(unitary(n, rng)) @ psi(ball_point(n, rng, rng.uniform(0.1, 0.8)))


def cayley(n: int) -> np.ndarray:
    """Homogeneous Cayley transform: w1 = i(1 + z1)/(1 - z1), w' = z'/(1 - z1)."""
    c = np.eye(n + 1, dtype=np.complex128)
    c[0, 0] = 1j
    c[0, n] = 1j
    c[n, 0] = -1.0
    return c


def apply(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    v = m @ np.append(p, 1.0)
    return v[:n] / v[n]


def normalized(m: np.ndarray) -> np.ndarray:
    return m / m[-1, -1]


def rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary with every eigen-angle at least MIN_ROTATION_ANGLE from 0."""
    angles = rng.uniform(MIN_ROTATION_ANGLE, 2 * np.pi - MIN_ROTATION_ANGLE, n)
    u = unitary(n, rng)
    return (u * np.exp(1j * angles)) @ u.conj().T


def interior(n: int, rng: np.random.Generator):
    alpha = ball_point(n, rng, rng.uniform(0.05, 0.85))
    sv = rng.uniform(0.1, 0.9, n)
    lin = unitary(n, rng) @ np.diag(sv) @ unitary(n, rng)
    return normalized(psi(alpha) @ block(lin) @ psi(alpha)), alpha


def nonself(n: int, rng: np.random.Generator):
    alpha = ball_point(n, rng, rng.uniform(0.05, 0.5))
    sv = rng.uniform(0.2, 0.9, n)
    sv[rng.integers(n)] = rng.uniform(1.1, 1.6)
    lin = unitary(n, rng) @ np.diag(sv) @ unitary(n, rng)
    return normalized(psi(alpha) @ block(lin) @ psi(alpha))


def from_siegel(t: np.ndarray) -> np.ndarray:
    """Ball map conjugate to the Siegel half-space map t by the Cayley transform."""
    c = cayley(t.shape[0] - 1)
    return np.linalg.solve(c, t @ c)


def translation(n: int, shift: complex) -> np.ndarray:
    t = np.eye(n + 1, dtype=np.complex128)
    t[0, n] = shift
    return t


def boundary(n: int, rng: np.random.Generator, kind: str, rotate: bool = True):
    """Parabolic or hyperbolic self-map with Denjoy-Wolff point A(e1)."""
    if kind == "parabolic":
        t = translation(n, rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.2, 2.0))
        if n > 1 and rotate:
            t[1:n, 1:n] = rotation(n - 1, rng)
    else:
        lam = rng.uniform(1.3, 4.0)
        t = np.eye(n + 1, dtype=np.complex128)
        t[0, 0] = lam
        if n > 1:
            t[1:n, 1:n] = unitary(n - 1, rng) * (np.sqrt(lam) * rng.uniform(0.3, 0.9))
    a = aut(n, rng)
    m = a @ from_siegel(t) @ np.linalg.inv(a)
    e1 = np.zeros(n, dtype=np.complex128)
    e1[0] = 1.0
    return normalized(m), apply(a, e1)


def _entry(m, kind, expect, point=None, group="seeded", base=None, scale=None):
    return {
        "m": np.ascontiguousarray(m),
        "kind": kind,
        "expect": expect,
        "point": point,
        "group": group,
        "base": base,
        "scale": scale,
        "n": m.shape[0] - 1,
    }


def fixed_check_entries(offset: int) -> list[dict]:
    """Seed-independent part of check-mixed, to be placed after `offset`
    other entries (a scaled copy's "base" is the index of its base map in
    the whole list).

    Two base self-maps, the worked map and an interior map (N = 8), each also
    scaled by every factor in SCALES, and the pure first-coordinate
    translations for N in TRANSLATION_DIMS conjugated by automorphisms.
    """
    rng = np.random.default_rng([FIXED_SEED, 1])
    bases = [(WORKED, "parabolic", np.array([1.0, 0.0], dtype=np.complex128))]
    m, p = interior(8, rng)
    bases.append((m, "interior", p))
    out = []
    for m, kind, p in bases:
        expect = INTERIOR if kind == "interior" else BOUNDARY
        base = offset + len(out)
        out.append(_entry(m, kind, expect, p, group="fixed_base"))
        for scale in SCALES:
            out.append(_entry(m * scale, kind, expect, p, group="scaled", base=base, scale=scale))
    for n in TRANSLATION_DIMS:
        m, p = boundary(n, rng, "parabolic", rotate=False)
        out.append(_entry(m, "parabolic", BOUNDARY, p, group="pure_translation"))
    return out


def check_mixed(seed: int) -> list[dict]:
    """Per N = 1..8: one interior, one parabolic, one hyperbolic and one
    non-self-map from --seed, then the fixed part.  A short round repeats
    each operation often: see "End-to-end metrics" in README.md."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for n in DIMS:
        m, p = interior(n, rng)
        out.append(_entry(m, "interior", INTERIOR, p))
        m, p = boundary(n, rng, "parabolic")
        out.append(_entry(m, "parabolic", BOUNDARY, p))
        m, p = boundary(n, rng, "hyperbolic")
        out.append(_entry(m, "hyperbolic", BOUNDARY, p))
        out.append(_entry(nonself(n, rng), "nonself", NOT_SELFMAP))
    return out + fixed_check_entries(len(out))


ELLIPSOID_KINDS = ("hard", "near_hard", "repeated_top", "nearly_centred", "boundary_contact", "generic")


def ellipsoid(n: int, rng: np.random.Generator, kind: str):
    """Adversarial (center, shape) for the sup-norm solver, plus the designed
    sup where it has a closed form (else None)."""
    w = unitary(n, rng)
    v = unitary(n, rng)
    sigma = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    m = np.zeros(n)
    known = None
    if kind in ("hard", "near_hard"):
        if n > 1:
            sigma[0] = sigma[1] * rng.uniform(1.1, 1.4)
            gap = (sigma[0] ** 2 - sigma[1:] ** 2) / sigma[1:]
            m[1:] = 0.3 * gap * rng.uniform(0.2, 1.0, n - 1) / np.sqrt(n)
        if kind == "near_hard":
            m[0] = 1e-7 * sigma[0]
    elif kind == "repeated_top":
        k = min(n, 3)
        sigma[:k] = sigma[0]
        m = rng.uniform(0.0, 0.5, n)
    elif kind == "nearly_centred":
        m = rng.uniform(0.1, 1.0, n) * sigma[0] * 10.0 ** rng.uniform(-12, -9)
    elif kind == "boundary_contact":
        sigma *= rng.uniform(0.3, 0.8) / sigma[0]
        m[0] = 1.0 - sigma[0]
        known = 1.0
    else:
        sigma = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        m = rng.uniform(0.0, 0.6, n)
    center = w @ (m * phases)
    shape = (w * sigma) @ v.conj().T
    return center, shape, known


def oracle_sweep(seed: int) -> list[dict]:
    """Per N = 1..8 and per ellipsoid kind: one affine placement and one
    placement pre-composed with a ball automorphism."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for n in DIMS:
        for kind in ELLIPSOID_KINDS:
            for with_aut in (False, True):
                center, shape, known = ellipsoid(n, rng, kind)
                place = np.eye(n + 1, dtype=np.complex128)
                place[:n, :n] = shape
                place[:n, n] = center
                m = place @ aut(n, rng) if with_aut else place
                entry = _entry(normalized(m), kind, None)
                entry["designed_sup"] = known
                entry["with_aut"] = with_aut
                out.append(entry)
    return out


def hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def real_form(h: np.ndarray):
    """Real (S, b, c) of the quadric Z* h Z, Z = (z, 1), in the interleaved
    coordinates x = (Re z_0, Im z_0, Re z_1, ...)."""
    n = h.shape[0] - 1
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = h[:n, :n].real
    s[1::2, 1::2] = h[:n, :n].real
    s[1::2, 0::2] = h[:n, :n].imag
    s[0::2, 1::2] = -h[:n, :n].imag
    b = np.empty(2 * n)
    b[0::2] = 2.0 * h[:n, n].real
    b[1::2] = 2.0 * h[:n, n].imag
    return s, b, float(h[n, n].real)



def cycle_type_permutation(cycles: list[int], rng: np.random.Generator) -> tuple[int, ...]:
    """A random permutation with the given cycle lengths (their sum is its size)."""
    order = rng.permutation(sum(cycles))
    perm = list(range(len(order)))
    start = 0
    for length in cycles:
        members = order[start : start + length]
        for a, b in zip(members, np.roll(members, -1)):
            perm[a] = int(b)
        start += length
    return tuple(perm)


def factor_pullback(seed: int) -> list[dict]:
    """Per N = 1..8: two generic matrices (Bruhat permutation is the
    reversal) and four products U1 P D U2 with a random permutation P, so that
    zero pivots force that permutation; each with a seeded Hermitian quadric.

    The number of elementary factors follows from the permutation's cycle
    type, so each of the four slots has a fixed cycle type (one (N+1)-cycle,
    another, disjoint transpositions, a single transposition) and the work of
    an operation does not depend on the seed."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for n in DIMS:
        k = n + 1
        slots = [None, None, [k], [k], [2] * (k // 2) + [1] * (k % 2), [2] + [1] * (k - 2)]
        for cycles in slots:
            if cycles is None:
                m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                perm = tuple(range(k - 1, -1, -1))
            else:
                perm = cycle_type_permutation(cycles, rng)
                p = np.zeros((k, k), dtype=np.complex128)
                p[list(perm), list(range(k))] = 1.0
                u1, u2 = (
                    np.eye(k) + np.triu(0.5 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))), 1)
                    for _ in range(2)
                )
                d = rng.uniform(0.5, 2.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
                m = u1 @ p @ np.diag(d) @ u2
            entry = _entry(m, "generic" if cycles is None else "structured", None)
            entry["perm"] = perm
            entry["quadric"] = hermitian(k, rng)
            entry["points"] = np.array([ball_point(n, rng, rng.uniform(0.0, 0.9)) for _ in range(8)])
            out.append(entry)
    return out


SAMPLE_N = 100_000


def cli_process(seed: int) -> dict:
    """Three map files, one per command: check on a parabolic map (N = 4, the
    slowest classification path), decompose on an interior map (N = 8) and
    sample on a non-self-map (N = 6).  A round is these three processes, so
    each is repeated often within one run."""
    rng = np.random.default_rng([seed, 4])
    m, p = boundary(4, rng, "parabolic")
    maps = [_entry(m, "parabolic", BOUNDARY, p)]
    m, p = interior(8, rng)
    maps.append(_entry(m, "interior", INTERIOR, p))
    maps.append(_entry(nonself(6, rng), "nonself", NOT_SELFMAP))
    ops = [
        {"map": 0, "command": "check"},
        {"map": 1, "command": "decompose"},
        {"map": 2, "command": "sample", "n": SAMPLE_N, "sample_seed": int(rng.integers(2**31))},
    ]
    return {"maps": maps, "ops": ops}


def mapfile(m: np.ndarray) -> dict:
    """Map-file document (every complex number as [re, im])."""
    n = m.shape[0] - 1

    def pair(z):
        return [float(z.real), float(z.imag)]

    return {
        "N": n,
        "A": [[pair(z) for z in row] for row in m[:n, :n]],
        "B": [pair(z) for z in m[:n, n]],
        "C": [pair(np.conj(z)) for z in m[n, :n]],
        "D": pair(m[n, n]),
    }
