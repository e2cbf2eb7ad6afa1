"""Ball automorphisms, image ellipsoids, and the ellipsoid sup norm."""

import sys
import warnings

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    ContractViolation,
    DegenerateMapError,
    EllipsoidImage,
    LFMap,
    PoleError,
    ShapeError,
    automorphism_to_lfmap,
    ball_involution,
    check,
    ellipsoid_sup_norm,
    geometry,
    image_ellipsoid,
    involution_matrix,
    involution_matrix_inverse,
    oracle_is_selfmap,
    row_criterion,
)
from ballmaps.criterion import random_pole_free_map

from conftest import exact_multiples, gen_map, load_gen, random_ball_point, random_unitary

# |c| by hypot is 0.9999999999999999, so the map is pole free, but |c|^2 by
# vdot rounds to 1.0: the pole lies within rounding of the sphere.
POLE_WITHIN_ROUNDING_C = [
    -0.8127472588738811 - 0.05239285356282385j,
    -0.5662848868512798 - 0.12656345844030256j,
]

ALPHA = np.array([0.5, 0.0], dtype=np.complex128)


def random_alpha(rng, n, lo=0.05, hi=0.9):
    g = rng.standard_normal(2 * n)
    a = g[::2] + 1j * g[1::2]
    return a * (rng.uniform(lo, hi) / np.linalg.norm(a))


def test_ball_involution_swaps_zero_and_alpha():
    np.testing.assert_allclose(ball_involution(ALPHA, np.zeros(2)), ALPHA, atol=1e-15)
    np.testing.assert_allclose(ball_involution(ALPHA, ALPHA), np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(
        ball_involution([0.0, 0.0], [0.1, 0.2]), [-0.1, -0.2], atol=1e-15
    )


def test_ball_involution_is_involutive_and_isometric_on_sphere():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        alpha = random_alpha(rng, n)
        z = random_ball_point(rng, n)
        np.testing.assert_allclose(
            ball_involution(alpha, ball_involution(alpha, z)), z, atol=1e-12
        )
        zeta = z / np.linalg.norm(z)
        assert abs(np.linalg.norm(ball_involution(alpha, zeta)) - 1.0) < 1e-12


def test_ball_involution_guards():
    with pytest.raises(ContractViolation):
        ball_involution([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(PoleError):
        ball_involution(ALPHA, [2.0, 0.0])


def test_involution_matrix_frozen():
    s = np.sqrt(3.0) / 2.0
    np.testing.assert_allclose(involution_matrix(ALPHA), np.diag([-1.0, -s]), atol=1e-15)
    np.testing.assert_allclose(
        involution_matrix_inverse(ALPHA), np.diag([-1.0, -2.0 / np.sqrt(3.0)]), atol=1e-15
    )


def test_involution_matrix_inverse_is_inverse():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        alpha = random_alpha(rng, n)
        prod = involution_matrix(alpha) @ involution_matrix_inverse(alpha)
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-12)
    for bad in ([0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(ContractViolation):
            involution_matrix(bad)
        with pytest.raises(ContractViolation):
            involution_matrix_inverse(bad)


def test_automorphism_validation():
    with pytest.raises(ContractViolation):
        BallAutomorphism(np.array([1.2, 0.0]), np.eye(2))
    with pytest.raises(ContractViolation):
        BallAutomorphism(ALPHA, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        BallAutomorphism(ALPHA, np.eye(3))


def test_automorphism_evaluates_its_lfmap_bit_for_bit():
    # One path: the automorphism, ball_involution and automorphism_to_lfmap
    # give the same bits, for alpha = 0 too, and they agree with the
    # paper's formula rotation @ (M z + alpha) / (1 - <z, alpha>).
    rng = np.random.default_rng(34)
    for n in (1, 2, 3, 5):
        for alpha in (random_alpha(rng, n), np.zeros(n)):
            aut = BallAutomorphism(alpha, random_unitary(n, rng))
            phi = automorphism_to_lfmap(aut)
            involution = BallAutomorphism(alpha, np.eye(n))
            for _ in range(5):
                z = random_ball_point(rng, n)
                assert aut(z).tobytes() == phi(z).tobytes()
                assert ball_involution(alpha, z).tobytes() == involution(z).tobytes()
                if np.any(alpha):
                    m = involution_matrix(alpha)
                    expected = aut.rotation @ (m @ z + alpha) / (1.0 - np.vdot(alpha, z))
                else:
                    expected = -(aut.rotation @ z)
                assert np.linalg.norm(aut(z) - expected) <= 1e-14 * np.linalg.norm(expected)
            with pytest.raises(ShapeError, match="points have shape"):
                aut(np.zeros(n + 1))


def test_automorphism_near_the_sphere_follows_lfmap_acceptance():
    # The condition number (1 + |alpha|) / (1 - |alpha|) of the associated
    # matrix passes LFMap's limit 1 / ((N + 1) eps) about 1e-15 from the sphere.
    BallAutomorphism([1.0 - 1e-14, 0.0], np.eye(2))
    with pytest.raises(DegenerateMapError):
        BallAutomorphism([1.0 - 1e-15, 0.0], np.eye(2))


def test_automorphism_and_ellipsoid_own_their_arrays():
    # complex128 input is not coerced, so without a copy the object would
    # freeze the caller's own arrays
    alpha = np.array([0.3, 0.1], dtype=complex)
    rotation = np.eye(2, dtype=complex)
    aut = BallAutomorphism(alpha, rotation)
    center = np.array([0.1, 0.2], dtype=complex)
    shape = 0.5 * np.eye(2, dtype=complex)
    ell = EllipsoidImage(center, shape)
    for given in (alpha, rotation, center, shape):
        assert given.flags.writeable
        given[0] = 0.2
    np.testing.assert_array_equal(aut.alpha, [0.3, 0.1])
    np.testing.assert_array_equal(aut.rotation, np.eye(2))
    np.testing.assert_array_equal(ell.center, [0.1, 0.2])
    np.testing.assert_array_equal(ell.shape, 0.5 * np.eye(2))
    for own in (aut.alpha, aut.rotation, ell.center, ell.shape):
        assert not own.flags.writeable
        with pytest.raises(ValueError):
            own[0] = 1.0


def test_automorphism_to_lfmap_matches_direct_eval():
    rng = np.random.default_rng(34)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        alpha = random_alpha(rng, n) if rng.uniform() > 0.2 else np.zeros(n)
        aut = BallAutomorphism(alpha, random_unitary(n, rng))
        phi = automorphism_to_lfmap(aut)
        for _ in range(4):
            z = random_ball_point(rng, n)
            np.testing.assert_allclose(phi(z), aut(z), atol=1e-12)


def test_image_ellipsoid_worked_golden(worked_map):
    ell = image_ellipsoid(worked_map)
    np.testing.assert_allclose(ell.center, [0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(
        ell.shape, np.diag([-0.5, -np.sqrt(2.0) / 2.0]), atol=1e-14
    )


def test_image_ellipsoid_affine_branch():
    phi = LFMap(np.diag([1.0, 2.0]), [0.1, 0.0], [0.0, 0.0], 2.0)
    ell = image_ellipsoid(phi)
    np.testing.assert_allclose(ell.center, [0.05, 0.0], atol=1e-15)
    np.testing.assert_allclose(ell.shape, np.diag([0.5, 1.0]), atol=1e-15)


def test_image_ellipsoid_requires_pole_free():
    with pytest.raises(PoleError):
        image_ellipsoid(LFMap(np.eye(1), [0.0], [2.0], 1.0))


def test_image_ellipsoid_refuses_a_pole_within_rounding_of_the_sphere():
    # The suite turns RuntimeWarning into an error, so a division by
    # 1 - |c'|^2 = 0 would fail here before any typed error.
    phi = LFMap(0.5 * np.eye(2), np.zeros(2), POLE_WITHIN_ROUNDING_C, 1.0)
    assert phi.pole_free_on_ball
    for route in (image_ellipsoid, row_criterion, oracle_is_selfmap, check):
        with pytest.raises(PoleError, match="working precision"):
            route(phi)


def test_image_ellipsoid_at_power_of_two_scales(worked_map):
    # A map and its exact multiples by 2^+-500 and 2^-1000 have one
    # ellipsoid, bit for bit, with no numpy warning.  Where |d| is subnormal
    # (the README's map at 2^-1040), a, b and c are divided through
    # lfm._divide, whose power of two keeps 1/d in range.
    gen = load_gen()
    maps = [gen_map(entry) for entry in gen.check_mixed(1) + gen.oracle_sweep(1)] + [worked_map]
    subnormal_d = 0
    for phi in maps:
        ell = image_ellipsoid(phi)
        ks = (500, -500, -1000) + ((-1040,) if phi is worked_map else ())
        for k, mk in exact_multiples(phi.associated_matrix(), ks):
            scaled = gen_map({"m": mk, "n": phi.dim})
            subnormal_d += abs(scaled.d) < sys.float_info.min
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = image_ellipsoid(scaled)
            assert got.center.tobytes() == ell.center.tobytes(), k
            assert got.shape.tobytes() == ell.shape.tobytes(), k
    assert subnormal_d == 1


def test_image_ellipsoid_rebuilds_bit_for_bit_through_the_public_constructor(worked_map):
    gen = load_gen()
    maps = [worked_map, LFMap(np.diag([1.0, 2.0j]), [0.1, 0.2j], [0.0, 0.0], 2.0)]
    maps += [gen_map(e) for seed in (1, 2, 3) for e in gen.oracle_sweep(seed)]
    for phi in maps:
        ell = image_ellipsoid(phi)
        assert not (ell.center.flags.writeable or ell.shape.flags.writeable)
        again = EllipsoidImage(ell.center, ell.shape)
        for name in ("center", "shape", "_w", "_sigma", "_v"):
            assert getattr(again, name).tobytes() == getattr(ell, name).tobytes(), name
        assert ellipsoid_sup_norm(again).hex() == ellipsoid_sup_norm(ell).hex()


def test_image_ellipsoid_boundary_membership():
    # sphere points must land exactly on the ellipsoid boundary
    rng = np.random.default_rng(35)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        phi = LFMap(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            2.0 + rng.uniform(),
        )
        ell = image_ellipsoid(phi)
        inv_shape = np.linalg.inv(ell.shape)
        for _ in range(6):
            z = random_ball_point(rng, n)
            zeta = z / np.linalg.norm(z)
            v = inv_shape @ (phi(zeta) - ell.center)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9, "boundary must map to boundary"
            w = inv_shape @ (phi(z) - ell.center)
            assert np.linalg.norm(w) < 1.0, "interior must map to interior"


def test_image_ellipsoid_automorphism_is_centered_unitary():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        aut = BallAutomorphism(random_alpha(rng, n), random_unitary(n, rng))
        ell = image_ellipsoid(automorphism_to_lfmap(aut))
        assert np.linalg.norm(ell.center) < 1e-10
        defect = ell.shape.conj().T @ ell.shape - np.eye(n)
        assert np.max(np.abs(defect)) < 1e-10


def _ellipsoid_maps():
    """Random pole-free maps, N = 1..8, each also with its c replaced by
    one of the same direction at |c'| = 1e-12 and at 1 - |c'|^2 = 1e-10
    (c' = c / conj(d))."""
    rng = np.random.default_rng(39)
    out = []
    for n in range(1, 9):
        phi = random_pole_free_map(n, rng)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        out.append((f"random/N={n}", phi))
        for label, r in (("tiny_c", 1e-12), ("near_sphere", np.sqrt(1.0 - 1e-10))):
            out.append((f"{label}/N={n}", LFMap(phi.a, phi.b, u * r * np.conj(phi.d), phi.d)))
    return out


ELLIPSOID_MAPS = _ellipsoid_maps()


def _mp_complex(mp, z):
    return mp.mpc(float(z.real), float(z.imag))


@pytest.mark.parametrize("label,phi", ELLIPSOID_MAPS, ids=[label for label, _ in ELLIPSOID_MAPS])
def test_image_ellipsoid_matches_50_digit_formula(label, phi):
    # The docstring formula in 50 digits, the coefficients taken as exact.
    # 1 - |c'|^2 is formed from the rounded |c'|^2, so both results carry a
    # relative error of a few eps / (1 - |c'|^2).
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    n = phi.dim
    with mpmath.workdps(50):
        d = _mp_complex(mp, phi.d)
        a = mp.matrix([[_mp_complex(mp, x) / d for x in row] for row in phi.a])
        b = mp.matrix([_mp_complex(mp, x) / d for x in phi.b])
        c = mp.matrix([_mp_complex(mp, x) / mp.conj(d) for x in phi.c])
        c2 = sum(abs(x) ** 2 for x in c)
        s = mp.sqrt(1 - c2)
        center = (b - a * c) / (1 - c2)
        shape = (b * c.H - a * (s * mp.eye(n) + (1 - s) * (c * c.H) / c2)) / (1 - c2)
        want_center = np.array([complex(x) for x in center])
        want_shape = np.array([[complex(shape[i, j]) for j in range(n)] for i in range(n)])
        gap = float(1 - c2)
    ell = image_ellipsoid(phi)
    for got, want in ((ell.center, want_center), (ell.shape, want_shape)):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err * gap <= 2e-15, f"{label}: relative error {err:.2e}"


@pytest.mark.parametrize("label,phi", ELLIPSOID_MAPS, ids=[label for label, _ in ELLIPSOID_MAPS])
def test_row_criterion_matches_50_digit_rows(label, phi):
    # Row i of the image ellipsoid, |center|^2 + |shape_i|^2 - 2 Re (shape
    # center)_i, in 50 digits and times the reported rhs, relative to
    # (|center|^2 + |shape_i|^2) rhs: the rows cancel where center is near
    # the conjugate of a row.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    ell = image_ellipsoid(phi)
    lhs, rhs, _ = row_criterion(phi)
    with mpmath.workdps(50):
        center = [_mp_complex(mp, x) for x in ell.center]
        c2 = sum(abs(x) ** 2 for x in center)
        for i, got in enumerate(lhs):
            row = [_mp_complex(mp, x) for x in ell.shape[i]]
            r2 = sum(abs(x) ** 2 for x in row)
            want = (c2 + r2 - 2 * mp.re(sum(x * y for x, y in zip(row, center)))) * rhs
            err = float(abs(got - want) / ((c2 + r2) * rhs))
            assert err <= 2e-15, f"{label}, row {i}: relative error {err:.2e}"


def test_sup_norm_frozen_cases():
    cases = [
        (EllipsoidImage([0.0, 0.0], np.diag([2.0, 1.0])), 2.0),
        (EllipsoidImage([0.75], np.eye(1) / 2), 1.25),
        (EllipsoidImage([0.0, 5.0], np.diag([2.0, 1.0])), 6.0),
        (EllipsoidImage([3.0, 0.0], np.diag([2.0, 1.0])), 5.0),
        (EllipsoidImage([0.0, 5.0], np.diag([2.0, 0.0])), np.sqrt(29.0)),
        (EllipsoidImage([0.0, 0.1], np.diag([2.0, 1.0])), np.sqrt(903.0) / 15.0),
    ]
    for ell, expected in cases:
        got = ellipsoid_sup_norm(ell)
        assert abs(got - expected) < 1e-12, f"sup {got} != {expected}"


def test_sup_norm_worked_map(worked_map):
    sup = ellipsoid_sup_norm(image_ellipsoid(worked_map))
    assert abs(sup - 1.0) < 1e-12


def test_sup_norm_near_centered():
    ell = EllipsoidImage([1e-9, 0.0], np.diag([1.0, 0.5]))
    sup = ellipsoid_sup_norm(ell)
    assert abs(sup - (1.0 + 1e-9)) < 1e-13


def _ascent_sup(ell: EllipsoidImage, iters: int = 300) -> float:
    """Fixed-point ascent lower bound for the sup norm."""
    s = ell.shape
    best = float(np.linalg.norm(ell.center))
    rng = np.random.default_rng(0)
    n = ell.dim
    starts = [s.conj().T @ ell.center] + [
        rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(4)
    ]
    for v in starts:
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        for _ in range(iters):
            w = s.conj().T @ (ell.center + s @ v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
        best = max(best, float(np.linalg.norm(ell.center + s @ v)))
    return best


def test_sup_norm_brackets_random():
    rng = np.random.default_rng(37)
    for i in range(40):
        n = int(rng.integers(1, 5))
        shape = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if i % 7 == 0:
            center = 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        else:
            center = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ell = EllipsoidImage(center, shape)
        sup = ellipsoid_sup_norm(ell)
        smax = np.linalg.svd(shape, compute_uv=False)[0]
        cnorm = float(np.linalg.norm(center))
        assert sup <= cnorm + smax + 1e-10, "triangle upper bound violated"
        assert sup >= max(cnorm, smax) - 1e-10, "trivial lower bound violated"
        assert sup >= _ascent_sup(ell) - 1e-8, "below an achievable value"


def _reference_sup(center, shape, dps=50):
    """sup |center + shape v| over |v| <= 1 in 50-digit arithmetic.

    The double inputs are taken as exact.  With s_i the eigenvalues of
    shape shape* and m_i the components of center along its eigenvectors,
    the sup is lam * sqrt(sum m_i^2 / (lam - s_i)^2) at the root lam > s_max
    of sum s_i m_i^2 / (lam - s_i)^2 = 1, found by bisection in
    log(lam - s_max).  When center has no component along the top
    eigenvalue and the other terms sum to <= 1 at lam = s_max (the hard
    case), the root does not exist and the closed form below holds.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(dps):
        n = len(center)
        a = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in shape])
        c = [mp.mpc(z.real, z.imag) for z in center]
        evals, evecs = mp.eighe(a * a.H)
        s = [max(mp.re(x), mp.mpf(0)) for x in evals]
        m2 = [abs(sum(mp.conj(evecs[r, i]) * c[r] for r in range(n))) ** 2 for i in range(n)]
        top = max(s)
        scale = max(top, sum(m2), mp.mpf(1))
        tied = [top - x <= mp.mpf(10) ** (-(dps - 15)) * scale for x in s]
        rest = [i for i in range(n) if not tied[i]]
        m2_top = sum(m2[i] for i in range(n) if tied[i])
        h_rest = sum(s[i] * m2[i] / (top - s[i]) ** 2 for i in rest)
        if m2_top <= mp.mpf(10) ** (-2 * dps) * scale and h_rest <= 1:
            sup2 = sum(m2[i] * top**2 / (top - s[i]) ** 2 for i in rest) + top * (1 - h_rest)
            return float(mp.sqrt(sup2))

        def h(gap):
            return sum(s[i] * m2[i] / (top - s[i] + gap) ** 2 for i in range(n))

        lo = mp.log(mp.mpf(10) ** (-2 * dps) * scale)
        hi = mp.log(4 * scale)
        while hi - lo > mp.mpf(10) ** (-(dps - 20)):
            mid = (lo + hi) / 2
            if h(mp.exp(mid)) > 1:
                lo = mid
            else:
                hi = mid
        lam = top + mp.exp((lo + hi) / 2)
        return float(lam * mp.sqrt(sum(m2[i] / (lam - s[i]) ** 2 for i in range(n))))


def _sup_ensemble():
    """Adversarial ellipsoids for the sup-norm solver, N = 1..8.

    center = w (m * phases) and shape = w diag(sigma) v* for random
    unitaries w, v, so m holds the center's components along the singular
    directions.  "hard" has m_0 = 0 along the top direction and the rest
    small enough that no root exists; the "hard_1e-k" family moves m_0
    from 0.1 sigma_0 down to 0 across that switch.  "past_switch_1e-k"
    scales the rest to just past it, where the other terms sum to 1 + 1e-k
    at sigma_max^2, and puts a rounding-sized m_0 on the top direction, as
    boundary-contact maps do.
    """
    rng = np.random.default_rng(38)
    out = []
    for n in range(1, 9):

        def make(label, sigma, m):
            w = random_unitary(n, rng)
            v = random_unitary(n, rng)
            phases = np.exp(2j * np.pi * rng.uniform(size=n))
            ell = EllipsoidImage(w @ (m * phases), (w * sigma) @ v.conj().T)
            out.append((f"{label}/N={n}", ell))

        sigma = np.sort(rng.uniform(0.2, 0.9, n))[::-1]
        hard = np.zeros(n)
        if n > 1:
            sigma[0] = 1.25 * sigma[1]
            gap = (sigma[0] ** 2 - sigma[1:] ** 2) / sigma[1:]
            hard[1:] = 0.3 * gap * rng.uniform(0.2, 1.0, n - 1) / np.sqrt(n)
        make("hard", sigma, hard)
        for k in [None] + list(range(1, 17)):
            m = hard.copy()
            m[0] = 0.0 if k is None else 10.0**-k * sigma[0]
            make("hard_0" if k is None else f"hard_1e-{k}", sigma, m)
        make("near_hard", sigma, np.where(np.arange(n) == 0, 1e-7 * sigma[0], hard))
        if n > 1:
            h_rest = np.sum((sigma[1:] * hard[1:] / (sigma[0] ** 2 - sigma[1:] ** 2)) ** 2)
            for k in (2, 5, 8, 11):
                m = hard * np.sqrt((1.0 + 10.0**-k) / h_rest)
                m[0] = 1e-13 * sigma[0]
                make(f"past_switch_1e-{k}", sigma, m)

        tied = sigma.copy()
        tied[: min(n, 3)] = tied[0]
        make("repeated_top", tied, rng.uniform(0.0, 0.5, n))
        m = np.zeros(n)
        m[min(n, 3) :] = 0.1 * rng.uniform(0.2, 1.0, n - min(n, 3)) * (tied[0] - tied[min(n, 3) :])
        m[0] = 1e-14
        make("tied_top_1e-14", tied, m)

        make("nearly_centred", sigma, 1e-12 * sigma[0] * rng.uniform(0.5, 1.0, n) / np.sqrt(n))

        contact = sigma * rng.uniform(0.3, 0.8) / sigma[0]
        make("boundary_contact", contact, np.where(np.arange(n) == 0, 1.0 - contact[0], 0.0))

        make("generic", np.sort(rng.uniform(0.1, 1.0, n))[::-1], rng.uniform(0.0, 0.6, n))
    return out


SUP_ENSEMBLE = _sup_ensemble()


@pytest.mark.parametrize("label,ell", SUP_ENSEMBLE, ids=[label for label, _ in SUP_ENSEMBLE])
def test_sup_norm_matches_50_digit_reference(label, ell):
    want = _reference_sup(ell.center, ell.shape)
    got = ellipsoid_sup_norm(ell)
    assert abs(got - want) <= 1e-12 * want, f"{label}: sup {got!r}, reference {want!r}"
    if label.startswith("boundary_contact"):
        assert abs(want - 1.0) <= 1e-14


def test_sup_norm_is_homogeneous():
    # The solve runs at a power-of-two scale, so scaling an ellipsoid by 2^k
    # scales its sup by 2^k bit for bit while the SVD's own singular values
    # scale exactly.  From about 2^-446 LAPACK's singular values of some of
    # these ellipsoids move in the last bit, and past about 2^+-459 LAPACK
    # rescales its input.
    for label, ell in SUP_ENSEMBLE:
        want = ellipsoid_sup_norm(ell)
        for k in range(-960, 961, 40):
            got = ellipsoid_sup_norm(EllipsoidImage(ell.center * 2.0**k, ell.shape * 2.0**k))
            if abs(k) <= 400:
                assert got == want * 2.0**k, f"{label}, 2^{k}: {got!r}"
            else:
                assert abs(got - want * 2.0**k) <= 1e-14 * want * 2.0**k, f"{label}, 2^{k}: {got!r}"


def test_sup_norm_keeps_a_centre_below_the_old_absolute_threshold():
    # sigma = 1e-8 with a centre of 1e-21 along the top singular direction
    ell = EllipsoidImage([1e-21, 0.0], np.diag([1e-8, 0.5e-8]))
    assert abs(ellipsoid_sup_norm(ell) - (1e-8 + 1e-21)) <= 1e-15 * 1e-8


def test_sup_norm_of_a_negligible_shape_is_the_centre_norm():
    # sigma_max at most 1e-15 |centre| is dropped: the sup is |centre| exactly
    assert ellipsoid_sup_norm(EllipsoidImage([0.6, 0], 1e-20 * np.eye(2))) == 0.6


def test_sup_norm_secular_evaluations(monkeypatch):
    # Count evaluations through the module global, as the benchmark tracer
    # does: a solver that stops calling it also fails here.
    original = geometry._secular_sum
    calls = []

    def counting(*args):
        calls[-1] += 1
        return original(*args)

    monkeypatch.setattr(geometry, "_secular_sum", counting)
    for _, ell in SUP_ENSEMBLE:
        calls.append(0)
        ellipsoid_sup_norm(ell)
    past = [c for (label, _), c in zip(SUP_ENSEMBLE, calls) if label.startswith("past_switch")]
    rest = [c for (label, _), c in zip(SUP_ENSEMBLE, calls) if not label.startswith("past_switch")]
    assert max(rest) <= 16, f"worst solve took {max(rest)} evaluations"
    assert np.mean(rest) <= 6.0, f"mean {np.mean(rest):.2f} evaluations per solve"
    # Just past the switch Newton converges only linearly, by about 1.5x in
    # the gap per step, until the gap passes the point where the tiny top
    # term stops dominating h - 1.
    assert max(past) <= 32, f"worst solve past the switch took {max(past)} evaluations"
