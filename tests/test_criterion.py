"""Row criterion, sup-norm oracle, indefinite-metric check, classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    ContractViolation,
    DegenerateMapError,
    LFMap,
    PoleError,
    agreement_table,
    automorphism_to_lfmap,
    check,
    compose,
    ellipsoid_sup_norm,
    image_ellipsoid,
    krein_check,
    krein_metric,
    monte_carlo_sup,
    oracle_is_selfmap,
    row_criterion,
    sphere_points,
)
from ballmaps.criterion import (
    CLASS_BOUNDARY,
    CLASS_INTERIOR,
    CLASS_NOT_SELFMAP,
    _least_form,
    _narrow,
    _PencilPoint,
    classify_fixed_point,
    random_pole_free_map,
    random_selfmap_shaped,
    random_unitary,
)

from conftest import gen_map, load_gen, near_sphere_contraction


def involution_map(alpha):
    return automorphism_to_lfmap(BallAutomorphism(alpha, np.eye(len(alpha))))


def coefficient_map(m):
    """The map with associated matrix m, coefficients taken as they are."""
    n = m.shape[0] - 1
    return LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])


def krein_min_eig(phi, t):
    """Smallest eigenvalue of J - t^2 m* J m at the map's own coefficients."""
    m = phi.associated_matrix()
    j = krein_metric(phi.dim)
    pencil = j - t * t * (m.conj().T @ j @ m)
    return float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2.0)[0])


def exact_disc_krein_min_eig(phi, t):
    """krein_min_eig for a real map of the disc, with J - t^2 m* J m formed
    in exact rational arithmetic from the double coefficients and t: near
    the sphere the double m* J m loses about twelve digits."""
    m = phi.associated_matrix()
    assert m.shape == (2, 2) and not np.any(m.imag)
    (a, b), (c, d) = [[Fraction(float(v)) for v in row] for row in m.real]
    t2 = Fraction(float(t)) ** 2
    x, y, z = 1 - t2 * (a * a - c * c), -t2 * (a * b - c * d), -1 - t2 * (b * b - d * d)
    trace, det = x + z, x * z - y * y
    # the smaller root of lam^2 - trace lam + det, without cancellation
    return 2.0 * float(det) / (float(trace) + math.sqrt(float(trace * trace - 4 * det)))


def ball_point(n, rng, low, high):
    """A point of the ball with norm drawn uniformly from [low, high]."""
    g = rng.standard_normal(2 * n)
    alpha = g[::2] + 1j * g[1::2]
    return alpha * (rng.uniform(low, high) / np.linalg.norm(alpha))


def random_automorphism_matrix(n, rng):
    """Associated matrix of a unitary after the involution exchanging 0 and alpha."""
    aut = BallAutomorphism(ball_point(n, rng, 0.1, 0.8), random_unitary(n, rng))
    return automorphism_to_lfmap(aut).associated_matrix()


def siegel_conjugate(t, rng):
    """A ball map conjugate, by the Cayley transform and then a random ball
    automorphism A, to the Siegel half-space map Im w1 > |w'|^2 with matrix t.

    Returns the map and A(e1), the image of the point at infinity of the
    half-space: the Denjoy-Wolff point when t fixes infinity and attracts.
    """
    n = t.shape[0] - 1
    cayley = np.eye(n + 1, dtype=np.complex128)
    cayley[0, 0] = cayley[0, n] = 1j
    cayley[n, 0] = -1.0
    aut = random_automorphism_matrix(n, rng)
    phi = coefficient_map(aut @ np.linalg.solve(cayley, t @ cayley) @ np.linalg.inv(aut))
    e1 = aut[:, 0] + aut[:, n]
    return phi, e1[:n] / e1[n]


def interior_selfmap(n, rng):
    """psi o L o psi with psi a ball involution and L a linear strict contraction."""
    psi = involution_map(ball_point(n, rng, 0.05, 0.85))
    lin = random_unitary(n, rng) @ np.diag(rng.uniform(0.1, 0.9, n)) @ random_unitary(n, rng)
    return compose(psi, compose(LFMap(lin, np.zeros(n), np.zeros(n), 1.0), psi))


def test_worked_rows(worked_map):
    lhs, rhs, ok = row_criterion(worked_map)
    assert abs(rhs - 64.0) < 1e-9
    np.testing.assert_allclose(lhs, [64.0, 48.0], atol=1e-9)
    assert ok.tolist() == [True, True]


def test_rows_are_stated_at_the_coefficients_scale(worked_map):
    # rows and rhs scale as |d|^4: at 1e40 they are 1e160 times the
    # unit-scale ones, at 1e80 they would pass 1e308 and the test refuses;
    # at 1e-80 they would be subnormal (6.4e-319) and it refuses too
    def scaled(s):
        return LFMap(worked_map.a * s, worked_map.b * s, worked_map.c * s, worked_map.d * s)

    for s in (1e40, 1e-40):
        lhs, rhs, ok = row_criterion(scaled(s))
        np.testing.assert_allclose(lhs, np.array([64.0, 48.0]) * s**4, rtol=1e-15)
        assert abs(rhs - 64.0 * s**4) <= 1e-15 * 64.0 * s**4
        assert ok.tolist() == [True, True]
    for s in (1e77, 1e80, 1e160, 1e-78, 1e-80, 1e-170):
        with pytest.raises(ContractViolation):
            row_criterion(scaled(s))
        with pytest.raises(ContractViolation):
            check(scaled(s))
        sup, verdict = oracle_is_selfmap(scaled(s))
        assert abs(sup - 1.0) <= 4e-16 and verdict


def test_automorphism_rows_sit_on_the_bound():
    rng = np.random.default_rng(51)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        g = rng.standard_normal(2 * n)
        alpha = (g[::2] + 1j * g[1::2])
        alpha *= rng.uniform(0.1, 0.8) / np.linalg.norm(alpha)
        phi = automorphism_to_lfmap(BallAutomorphism(alpha, random_unitary(n, rng)))
        lhs, rhs, ok = row_criterion(phi)
        np.testing.assert_allclose(lhs / rhs, np.ones(n), atol=1e-9)
        assert bool(np.all(ok))


def test_row_criterion_affine_frozen():
    # affine maps with d = 1 have rhs = 1: the rows are the plain values
    lhs, rhs, ok = row_criterion(LFMap.identity(1))
    assert rhs == 1.0
    np.testing.assert_allclose(lhs, [1.0], atol=1e-15)
    assert ok.tolist() == [True]

    lhs, rhs, ok = row_criterion(LFMap(np.eye(2) / 2, [0.0, 0.0], [0.0, 0.0], 1.0))
    assert rhs == 1.0
    np.testing.assert_allclose(lhs, [0.25, 0.25], atol=1e-15)
    assert ok.tolist() == [True, True]

    translate = LFMap(np.eye(2), [1.0, 0.0], [0.0, 0.0], 1.0)
    lhs, rhs, ok = row_criterion(translate)
    assert rhs == 1.0
    np.testing.assert_allclose(lhs, [0.0, 2.0], atol=1e-15)
    assert ok.tolist() == [True, False]


def test_row_criterion_rejects_degenerate_affine_image():
    # a genuine strict self-map that LFMap accepts (every pivot is O(1)),
    # but its image ellipsoid a / d has condition number 1e14; the row
    # test shares the ellipsoid with the oracle and check(), and refuses it
    # as they do
    phi = LFMap([[1.0, 1e7], [0.0, 1.0]], [0.0, 0.0], [0.0, 0.0], 1e8)
    for route in (row_criterion, oracle_is_selfmap, check):
        with pytest.raises(DegenerateMapError):
            route(phi)


def test_row_criterion_routes_affine_maps():
    phi = LFMap(np.eye(2), [0.0, 0.0], [0.0, 0.0], 2.0)
    lhs, rhs, ok = row_criterion(phi)
    assert abs(rhs - 16.0) < 1e-15
    np.testing.assert_allclose(lhs, [4.0, 4.0], atol=1e-12)
    assert ok.tolist() == [True, True]


def test_row_criterion_requires_pole_free():
    with pytest.raises(PoleError):
        row_criterion(LFMap(np.eye(1), [0.0], [2.0], 1.0))


def test_row_test_is_one_sided():
    # diagonal translation passes every row yet leaves the ball
    b = 0.9 / np.sqrt(2.0)
    phi = LFMap(np.eye(2), [b, b], [0.0, 0.0], 1.0)
    report = check(phi)
    assert report.criterion_selfmap
    assert not report.oracle_selfmap
    assert abs(report.oracle_sup - 1.9) < 1e-12
    assert report.discrepancy_flag
    assert report.classification == CLASS_NOT_SELFMAP


def test_row_test_rejects_a_true_selfmap():
    # an affine self-map (sup sqrt(5/6)) whose first row exceeds the bound:
    # the row test is not a necessary condition either
    phi = LFMap([[-0.5, -0.5], [-0.25, 0.25]], [0.0, 0.5], [0.0, 0.0], 1.0)
    sup, ok = oracle_is_selfmap(phi)
    assert abs(sup - np.sqrt(5.0 / 6.0)) < 1e-12 and ok
    lhs, rhs, verdicts = row_criterion(phi)
    assert abs(lhs[0] / rhs - 1.25) < 1e-12
    assert verdicts.tolist() == [False, True]
    report = check(phi)
    assert not report.criterion_selfmap and report.oracle_selfmap
    assert report.discrepancy_flag
    assert report.krein_t is not None


def test_axis_translation_is_rejected_by_one_row():
    phi = LFMap(np.eye(2), [1.0, 0.0], [0.0, 0.0], 1.0)
    report = check(phi)
    np.testing.assert_allclose(report.row_lhs, [0.0, 2.0], atol=1e-12)
    assert report.row_verdict == (True, False)
    assert not report.criterion_selfmap
    assert abs(report.oracle_sup - 2.0) < 1e-12
    assert not report.discrepancy_flag


def test_krein_and_classifier_are_equivariant_under_powers_of_two():
    # m and 2^k m share one pencil (_pencil divides by max|m|): t scales by
    # 2^-k, and the class and the fixed point keep every bit.
    for entry in load_gen().check_mixed(1):
        phi = gen_map(entry)
        t = krein_check(phi)
        kind, point = classify_fixed_point(phi, oracle_is_selfmap(phi)[0])
        for k in (1, 40, 500, -1, -40, -500):
            scaled = gen_map({**entry, "m": entry["m"] * 2.0**k})
            t_k = krein_check(scaled)
            assert (t_k is None) == (t is None), (entry["kind"], k)
            assert t is None or math.ldexp(t_k, k) == t, (entry["kind"], k)
            kind_k, point_k = classify_fixed_point(scaled, oracle_is_selfmap(scaled)[0])
            assert kind_k == kind, (entry["kind"], k)
            assert (point_k is None) == (point is None), (entry["kind"], k)
            assert point is None or point_k.tobytes() == point.tobytes(), (entry["kind"], k)


def test_krein_metric_layout():
    np.testing.assert_array_equal(krein_metric(2), np.diag([1.0, 1.0, -1.0]))


def test_krein_frozen_cases():
    t = krein_check(LFMap.identity(2))
    assert t is not None and abs(t - 1.0) < 1e-6

    assert krein_check(LFMap(2 * np.eye(1), [0.0], [0.0], 1.0)) is None

    t = krein_check(LFMap(np.eye(1) / 2, [0.0], [0.0], 1.0))
    assert t is not None and abs(t - np.sqrt(1.6)) < 1e-6


def test_krein_certificate_is_psd(worked_map):
    t = krein_check(worked_map)
    assert t is not None
    m = worked_map.associated_matrix()
    j = krein_metric(2)
    pencil = j - t * t * (m.conj().T @ j @ m)
    worst = np.linalg.eigvalsh((pencil + pencil.conj().T) / 2.0)[0]
    assert worst >= -1e-8


@pytest.mark.parametrize("base", ["worked", "interior"])
def test_krein_is_scale_invariant(base, worked_map):
    # a map and any multiple of its coefficients are the same map
    if base == "worked":
        phi = worked_map
    else:
        phi = interior_selfmap(8, np.random.default_rng(54))
    m = phi.associated_matrix()
    verdicts, scaled_t, points = set(), [], []
    for scale in (1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12):
        scaled = coefficient_map(m * scale)
        report = check(scaled)
        verdicts.add(
            (
                report.criterion_selfmap,
                report.oracle_selfmap,
                report.classification,
                report.krein_t is not None,
            )
        )
        assert report.krein_t is not None
        assert krein_min_eig(scaled, report.krein_t) >= -1e-9
        scaled_t.append(report.krein_t * scale)
        points.append(report.fixed_point)
    assert len(verdicts) == 1
    np.testing.assert_allclose(scaled_t, scaled_t[3], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(points, [points[3]] * len(points), rtol=0.0, atol=1e-9)
    if base == "worked":
        np.testing.assert_allclose(points[3], [1.0, 0.0], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "delta, r, t_low, t_high, exact",
    [(1e-6, 0.5, 7.07e5 / 2.0, 7.07e5 * 2.0, False), (10**-5.25, 0.1, 0.0, 2.81e5, True)],
    ids=["1e-6", "1e-5.25"],
)
def test_krein_near_sphere_contraction_is_finite(delta, r, t_low, t_high, exact):
    # m* J m has a positive eigenvalue (5e-18 at 1e-6) that rounding loses,
    # so f(s) keeps rising past the last candidate; in 50-digit arithmetic
    # the maximisers are t = 7.07e5 and 2.81e5.  The second map doubles s
    # past that candidate: stopping there gives t = 8.6e4, infeasible by
    # 4.4e-7 in exact arithmetic, where the doubling reaches t = 1.21e5.
    # The first t is feasible only to the rounding of H (-7.5e-7 exactly,
    # ROADMAP item 2), so it is not checked exactly.
    phi, _ = near_sphere_contraction(delta, r)
    t = krein_check(phi)
    assert t is not None and t_low < t < t_high
    scale = float(np.max(np.abs(phi.associated_matrix())))
    assert krein_min_eig(coefficient_map(phi.associated_matrix() / scale), t * scale) >= -1e-9
    if exact:
        assert exact_disc_krein_min_eig(phi, t) >= -1e-9
    report = check(phi)
    assert report.krein_t == t and report.classification == CLASS_INTERIOR


def krein_contact_maps(n, rng):
    """Three Siegel translations and three Siegel dilations conjugated to
    the ball, each with its Krein maximiser t* = |lam_a lam_r|^(-1/2).

    lam_a and lam_r are the eigenvalues of m at the attracting and the
    repelling isotropic eigenvector: 1 and 1 for a translation, lam and 1
    for a dilation w1 -> lam w1.  siegel_conjugate keeps the eigenvalues
    of the Siegel matrix, and coefficient_map takes m with factor 1.
    """
    maps = []
    for _ in range(3):
        translate = np.eye(n + 1, dtype=np.complex128)
        translate[0, n] = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.0, 2.0)
        maps.append((siegel_conjugate(translate, rng)[0], 1.0))
        lam = rng.uniform(1.3, 4.0)
        dilate = np.eye(n + 1, dtype=np.complex128)
        dilate[0, 0] = lam
        dilate[1:n, 1:n] = random_unitary(n - 1, rng) * (np.sqrt(lam) * rng.uniform(0.3, 1.0))
        maps.append((siegel_conjugate(dilate, rng)[0], 1.0 / np.sqrt(lam)))
    return maps


@pytest.mark.parametrize("n", range(1, 9))
def test_krein_certificate_at_boundary_contact(n):
    # the feasible set shrinks to one point; mu is defective when parabolic
    rng = np.random.default_rng([55, n])
    for phi, t_star in krein_contact_maps(n, rng):
        sup, ok = oracle_is_selfmap(phi)
        assert abs(sup - 1.0) < 1e-9 and ok
        t = krein_check(phi)
        assert t is not None
        assert krein_min_eig(phi, t) >= -1e-9
        assert abs(t / t_star - 1.0) <= 1e-12
    for _ in range(3):
        phi = interior_selfmap(n, rng)
        t = krein_check(phi)
        assert t is not None
        worst = krein_min_eig(phi, t)
        assert worst >= -1e-9
        assert worst >= krein_min_eig(phi, t * (1.0 + 1e-4))
        assert worst >= krein_min_eig(phi, t * (1.0 - 1e-4))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_krein_passes_over_a_repeated_end_of_the_feasible_interval(n):
    # z -> a z: f(s) = min(1 - a^2 s, s - 1) is 0 at s = 1/a^2, a candidate
    # repeated n times but the far end of the feasible interval [1, 1/a^2]:
    # its kernel slopes are all -a^2, so s times each is -1 for every a.
    # The maximiser s = 2 / (1 + a^2) is a kink, which the search brackets
    # to 1e-11 in s (5e-12 in t); z/2 is held to 1e-12.  At a = 1e-3 the
    # bottom eigenvalue of J - s H is multiple at the upper end of the
    # bracket, where no Newton step may stop the search.  The identity is
    # feasible at s = 1 alone.
    u = random_unitary(n, np.random.default_rng([59, n]))
    for a, tol in ((0.5, 1e-12), (1e-3, 5e-12), (1e-6, 5e-12)):
        for lin in (np.eye(n) * a, u * a):
            t = krein_check(LFMap(lin, np.zeros(n), np.zeros(n), 1.0))
            assert abs(t / np.sqrt(2.0 / (1.0 + a * a)) - 1.0) <= tol
    assert abs(krein_check(LFMap.identity(n)) - 1.0) <= 1e-12


def nonself_map(n, rng):
    """psi o L o psi with psi a ball involution and ||L|| in [1.1, 1.6]."""
    psi = involution_map(ball_point(n, rng, 0.05, 0.5))
    sv = rng.uniform(0.2, 0.9, n)
    sv[rng.integers(n)] = rng.uniform(1.1, 1.6)
    lin = random_unitary(n, rng) @ np.diag(sv) @ random_unitary(n, rng)
    return compose(psi, compose(LFMap(lin, np.zeros(n), np.zeros(n), 1.0), psi))


@pytest.fixture
def count_eigh(monkeypatch):
    """krein_check on a map, with the number of eigh calls it made."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def run(phi):
        calls.clear()
        t = krein_check(phi)
        return t, len(calls)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return run


def test_krein_eigh_count(count_eigh, worked_map):
    # one eigh of J - s H certifies a map at boundary contact; an interior
    # maximiser takes the polish inside the interval read off eig(J H); a
    # non-self-map is known infeasible from that eig alone
    contact, interior = [count_eigh(worked_map)], []
    for n in range(1, 9):
        rng = np.random.default_rng([55, n])
        contact += [count_eigh(phi) for phi, _ in krein_contact_maps(n, rng)]
        interior += [count_eigh(interior_selfmap(n, rng)) for _ in range(3)]
        assert count_eigh(nonself_map(n, np.random.default_rng([61, n]))) == (None, 0)
    assert all(t is not None for t, _ in contact + interior)
    assert max(calls for _, calls in contact) <= 1
    assert np.mean([calls for _, calls in interior]) <= 4.0


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_krein_skips_a_repeated_candidate_past_the_interval(count_eigh, n):
    # z -> z/2 has its candidate s = 4 repeated n times, the far end of the
    # feasible interval [1, 4] that the walk has opened at s = 1: no eigh
    # is spent on it, so z/2 costs what a simple candidate there costs
    half = count_eigh(LFMap(np.eye(n) / 2, np.zeros(n), np.zeros(n), 1.0))
    u = random_unitary(n, np.random.default_rng([62, n]))
    small = count_eigh(LFMap(1e-3 * u, np.zeros(n), np.zeros(n), 1.0))
    assert half[0] is not None and small[0] is not None
    assert half[1] == small[1]


def test_krein_non_real_eigenvalues_are_not_crossings():
    # J H has a complex pair with Re mu > 0 whose eigenvectors have J-forms
    # of rounding size and either sign; counted as crossings, they would
    # open a feasible interval for this map with sup 1.17
    phi = random_selfmap_shaped(2, np.random.default_rng([99, 21]), 1.1719982717223183)
    assert not oracle_is_selfmap(phi)[1]
    m = phi.associated_matrix()
    m = m / np.max(np.abs(m))
    h = m.conj().T @ krein_metric(2) @ m
    mu = np.linalg.eigvals(krein_metric(2) @ h)
    assert np.sum((mu.real > 0.0) & (np.abs(mu.imag) > 1e-3)) == 2
    assert krein_check(phi) is None


def krein_reference_t(phi, dps=50):
    """The t maximising lambda_min(J - t^2 m* J m), by golden section on
    s = t^2 in dps-digit arithmetic, with the double coefficients taken as
    exact.  A golden section in double precision over [0, 2 / max eig H],
    where f falls below f(0) = -1, lands within 5e-7 (relative) of the
    maximiser on the maps below; the dps-digit section then runs on that
    point +- 1e-5 and must end inside it.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def golden_max(f, lo, hi, steps, ratio):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        f1, f2 = f(x1), f(x2)
        for _ in range(steps):
            if f1 >= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - ratio * (hi - lo)
                f1 = f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + ratio * (hi - lo)
                f2 = f(x2)
        return lo, hi

    m = phi.associated_matrix()
    j = krein_metric(phi.dim)
    h = m.conj().T @ j @ m
    h = (h + h.conj().T) / 2.0
    lo, hi = golden_max(
        lambda s: np.linalg.eigvalsh(j - s * h)[0],
        0.0,
        2.0 / np.linalg.eigvalsh(h)[-1],
        200,
        (np.sqrt(5.0) - 1.0) / 2.0,
    )
    with mpmath.workdps(dps):
        mm = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in m])
        jm = mp.diag([1] * phi.dim + [-1])
        hm = mm.H * jm * mm
        s0 = mp.mpf(0.5 * (lo + hi))
        width = mp.mpf("1e-5") * s0
        lo, hi = golden_max(
            lambda s: min(mp.eighe(jm - s * hm, eigvals_only=True)),
            s0 - width,
            s0 + width,
            40,
            (mp.sqrt(5) - 1) / 2,
        )
        assert s0 - width < lo and hi < s0 + width
        return float(mp.sqrt((lo + hi) / 2))


@pytest.mark.parametrize(
    "case", [f"interior_{n}" for n in range(1, 9)] + ["near_sphere_1e-1", "near_sphere_1e-2"]
)
def test_krein_matches_50_digit_maximiser(case):
    # nearer the sphere the rounding of H = m* J m itself moves the
    # maximiser (1e-9 relative at 1 - p = 1e-3)
    kind, _, arg = case.rpartition("_")
    if kind == "interior":
        phi = interior_selfmap(int(arg), np.random.default_rng([58, int(arg)]))
    else:
        phi, _ = near_sphere_contraction(float(arg))
    assert abs(krein_check(phi) / krein_reference_t(phi) - 1.0) <= 1e-11


def test_oracle_frozen_cases(worked_map):
    sup, ok = oracle_is_selfmap(LFMap.identity(2))
    assert abs(sup - 1.0) < 1e-12 and ok
    sup, ok = oracle_is_selfmap(worked_map)
    assert abs(sup - 1.0) < 1e-9 and ok
    sup, ok = oracle_is_selfmap(LFMap(2 * np.eye(1), [0.0], [0.0], 1.0))
    assert abs(sup - 2.0) < 1e-12 and not ok
    sup, ok = oracle_is_selfmap(LFMap(np.eye(1) / 2, [0.75], [0.0], 1.0))
    assert abs(sup - 1.25) < 1e-12 and not ok
    with pytest.raises(PoleError):
        oracle_is_selfmap(LFMap(np.eye(1), [0.0], [2.0], 1.0))


def test_sphere_points_contract():
    pts = sphere_points(300, 3, seed=9)
    assert pts.shape == (300, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pts, sphere_points(300, 3, seed=9))
    # chunked substreams: a longer draw extends a shorter one, within a
    # chunk too
    long = sphere_points(5000, 2, seed=9)
    np.testing.assert_array_equal(long[:4096], sphere_points(4096, 2, seed=9))
    for count in (1, 17, 4095):
        np.testing.assert_array_equal(sphere_points(count, 2, seed=9), long[:count])


def test_monte_carlo_sup(worked_map):
    assert abs(monte_carlo_sup(LFMap.identity(2), 500, seed=1) - 1.0) < 1e-12
    a = monte_carlo_sup(worked_map, 10_000, seed=3)
    assert 0.98 < a <= 1.0 + 1e-9
    assert a == monte_carlo_sup(worked_map, 10_000, seed=3)


def test_sample_counts_are_checked(worked_map):
    # a sup over no points is no answer; an empty draw is
    for count in (0, -3):
        with pytest.raises(ContractViolation):
            monte_carlo_sup(worked_map, count, seed=1)
    with pytest.raises(ContractViolation):
        sphere_points(-1, 2, seed=1)
    assert sphere_points(0, 2, seed=1).shape == (0, 2)


def test_monte_carlo_sup_is_max_over_sphere_points(worked_map):
    # 5000 points take two chunks of the shared sampler
    pts = sphere_points(5000, 2, seed=4)
    expected = max(float(np.linalg.norm(worked_map(z))) for z in pts)
    assert monte_carlo_sup(worked_map, 5000, seed=4) == expected


def test_monte_carlo_never_exceeds_oracle():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        phi = random_pole_free_map(n, rng)
        sup = ellipsoid_sup_norm(image_ellipsoid(phi))
        assert monte_carlo_sup(phi, 2000, seed=5) <= sup + 1e-9


def test_classify_boundary_contact(worked_map):
    report = check(worked_map)
    assert report.classification == CLASS_BOUNDARY
    assert report.fixed_point is not None
    np.testing.assert_allclose(report.fixed_point, [1.0, 0.0], atol=1e-9)


def test_classify_strict_contraction():
    report = check(LFMap(np.eye(2) / 2, [0.0, 0.0], [0.0, 0.0], 1.0))
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, [0.0, 0.0], atol=1e-12)

    # z -> p + (z - p) / 2 with |p|^2 = 1 - 2e-8: sup 1 - 5e-9 < 1 - ORACLE_TOL,
    # so the fixed point is interior although its J-form rounds to 0
    p = np.array([0.6, 0.8j]) * (1.0 - 1e-8)
    phi = LFMap(np.eye(2) / 2, p / 2, [0.0, 0.0], 1.0)
    report = check(phi)
    assert report.oracle_sup < 1.0 - 1e-9
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, p, rtol=0.0, atol=1e-12)


# r = 1 - 5e-5 at p = 0.96: eigenvalues 5e-5 apart with eigenvectors
# within 1e-3 of parallel, which are distinct and must not be averaged
@pytest.mark.parametrize(
    "delta, r",
    [(1e-2, 0.5), (1e-3, 0.5), (1e-4, 0.5), (1e-5, 0.5), (1e-6, 0.5), (0.04, 1.0 - 5e-5)],
)
def test_classify_strict_contraction_near_the_sphere(delta, r):
    phi, p = near_sphere_contraction(delta, r)
    report = check(phi)
    assert report.oracle_sup < 1.0
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, [p], rtol=0.0, atol=1e-9)


def test_check_an_ill_conditioned_contraction_near_the_sphere():
    # At 1 - p = 1e-7 the associated matrix has sigma_min / sigma_max = 2e-14,
    # above rounding: the map is accepted and every route but Krein's is
    # checked against the construction (krein_check misses this map).
    phi, p = near_sphere_contraction(1e-7)
    report = check(phi)
    assert report.oracle_selfmap
    assert abs(report.oracle_sup - (p + 0.5) / (1.0 + p / 2.0)) <= 1e-9
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, [p], rtol=0.0, atol=1e-8)


def test_classify_involution_interior_point():
    # the periodic orbit of 0 stalls at non-fixed points; the fixed point
    # alpha / (1 + sqrt(1 - |alpha|^2)) must still be found
    report = check(involution_map(np.array([0.5, 0.0])))
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, [2.0 - np.sqrt(3.0), 0.0], atol=1e-9)


def test_classify_hyperbolic_boundary_attractor():
    # disk automorphism with attracting fixed point at -1
    report = check(LFMap(np.eye(1), [-0.5], [-0.5], 1.0))
    assert report.classification == CLASS_BOUNDARY
    np.testing.assert_allclose(report.fixed_point, [-1.0], atol=1e-9)


def siegel_translation(n, shift):
    t = np.eye(n + 1, dtype=np.complex128)
    t[0, n] = shift
    return t


def rotation_with_angle(k, rng, angle):
    """A unitary of C^k with eigen-angle `angle` and k - 1 random others."""
    angles = rng.uniform(0.05, 2.0 * np.pi - 0.05, k)
    angles[0] = angle
    u = random_unitary(k, rng)
    return (u * np.exp(1j * angles)) @ u.conj().T


def siegel_boundary_map(kind, n, rng):
    """Matrix of a Siegel half-space self-map that fixes infinity and
    attracts to it, so that its ball conjugate has Denjoy-Wolff point A(e1).

    Parabolic maps translate w1 by a + i s, s > 0 (an automorphism when
    s = 0), then rotate w'; "rotation_<angle>" gives that rotation an
    eigen-angle close to 0, so an eigenvalue of m close to the Denjoy-Wolff
    one.  A Heisenberg translation (w1 + 2i<w', a> + i|a|^2 + i s, w' + a)
    makes the Denjoy-Wolff eigenvalue a Jordan block of size 3.  Hyperbolic
    maps dilate w1 by lam > 1 and w' by at most sqrt(lam), exactly
    sqrt(lam) for an automorphism.
    """
    shift = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.2, 2.0)
    t = siegel_translation(n, shift)
    if kind == "pure_translation":
        return t
    if kind.startswith("rotation_"):
        t[1:n, 1:n] = rotation_with_angle(n - 1, rng, float(kind.split("_")[1]))
        return t
    if kind == "parabolic_automorphism":
        t[0, n] = shift.real
        t[1:n, 1:n] = random_unitary(n - 1, rng)
        return t
    if kind == "heisenberg":
        a = ball_point(n - 1, rng, 0.2, 1.0)
        t[0, 1:n] = 2j * a.conj()
        t[0, n] += 1j * float(np.vdot(a, a).real)
        t[1:n, n] = a
        return t
    lam = rng.uniform(1.3, 4.0)
    t = np.eye(n + 1, dtype=np.complex128)
    t[0, 0] = lam
    stretch = 1.0 if kind == "hyperbolic_automorphism" else rng.uniform(0.3, 0.9)
    t[1:n, 1:n] = random_unitary(n - 1, rng) * (np.sqrt(lam) * stretch)
    return t


@pytest.mark.parametrize(
    "kind",
    [
        "pure_translation",
        "rotation_1e-2",
        "rotation_1e-4",
        "rotation_1e-7",
        "heisenberg",
        "hyperbolic",
        "parabolic_automorphism",
        "hyperbolic_automorphism",
    ],
)
@pytest.mark.parametrize("n", range(2, 9))
def test_denjoy_wolff_point_matches_construction(kind, n):
    rng = np.random.default_rng([57, n, len(kind)])
    for _ in range(2):
        phi, expected = siegel_conjugate(siegel_boundary_map(kind, n, rng), rng)
        report = check(phi)
        assert report.classification == CLASS_BOUNDARY
        np.testing.assert_allclose(report.fixed_point, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("ratio", [0.5, 1.0 - 5e-5])
@pytest.mark.parametrize("theta", [1.0, 0.1, 0.03, 0.01, 1e-3, 1e-4])
def test_denjoy_wolff_point_with_nearly_parallel_eigenvectors(theta, ratio):
    # m = T diag(ratio, 1) T^-1, T = [[e^(i theta), 1], [1, 1]]: a disc
    # automorphism attracted to 1 and repelled from e^(i theta); the two
    # eigenvectors are nearly parallel, and the eigenvalues distinct even
    # where they lie within 1e-4 of each other
    t = np.array([[np.exp(1j * theta), 1.0], [1.0, 1.0]])
    report = check(coefficient_map(t @ np.diag([ratio, 1.0]) @ np.linalg.inv(t)))
    assert report.classification == CLASS_BOUNDARY
    np.testing.assert_allclose(report.fixed_point, [1.0], rtol=0.0, atol=1e-9)


def test_classify_map_fixing_a_disc():
    report = check(LFMap(np.diag([1.0, 0.5]), [0.0, 0.0], [0.0, 0.0], 1.0))
    assert abs(report.oracle_sup - 1.0) < 1e-12
    assert report.classification == CLASS_INTERIOR
    np.testing.assert_allclose(report.fixed_point, [0.0, 0.0], atol=1e-12)


def test_classify_conjugated_maps_with_interior_fixed_points_at_contact():
    # conjugates of z -> (z1, z2/2, ...) (a fixed disc) and of rotations
    # fixing 0 and e1: sup 1, and eigenvectors that eig may return for the
    # repeated eigenvalue can all lie outside the ball
    rng = np.random.default_rng(58)
    for k in range(24):
        n = 2 + k % 4
        aut = random_automorphism_matrix(n, rng)
        diag = np.ones(n + 1, dtype=np.complex128)
        if k % 2:
            diag[1:n] = rng.uniform(0.1, 0.9, n - 1)
        else:
            diag[1:n] = np.exp(1j * rng.uniform(0.1, 6.0, n - 1))
        phi = coefficient_map(aut @ np.diag(diag) @ np.linalg.inv(aut))
        report = check(phi)
        assert report.classification == CLASS_INTERIOR
        p = np.array(report.fixed_point)
        assert np.linalg.norm(p) < 1.0
        np.testing.assert_allclose(phi(p), p, rtol=0.0, atol=1e-9)


def test_classify_expansion():
    report = check(LFMap(2 * np.eye(1), [0.0], [0.0], 1.0))
    assert report.classification == CLASS_NOT_SELFMAP
    assert report.fixed_point is None


@pytest.mark.parametrize("k", range(1, 10))
def test_least_form_matches_eigh_of_the_gram_matrix(k):
    # B* J B = I - 2 r r* for orthonormal columns B, r the conjugate of B's
    # last row: the closed form against eigh, also for a B whose last row
    # is 0 (then every unit x in the span has form 1).
    rng = np.random.default_rng([59, k])
    jd = np.ones(10)
    jd[-1] = -1.0
    g = rng.standard_normal((10, k)) + 1j * rng.standard_normal((10, k))
    flat = g.copy()
    flat[-1] = 0.0
    for basis in (np.linalg.qr(g)[0], np.linalg.qr(flat)[0]):
        least, x = _least_form(basis)
        gram = basis.conj().T @ (jd[:, None] * basis)
        expected = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)[0]
        assert abs(least - expected) <= 1e-14
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert abs(float(jd @ np.abs(x) ** 2) - least) <= 1e-14
        np.testing.assert_allclose(basis @ (basis.conj().T @ x), x, rtol=0.0, atol=1e-14)
    assert least == 1.0


def test_fixed_point_of_a_simple_eigenvalue_matches_the_svd_null_vector():
    # Interior and hyperbolic fixed points belong to simple eigenvalues,
    # read off eig with no SVD: they match the null vector of m - lam I.
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.check_mixed(seed):
            if entry["kind"] not in ("interior", "hyperbolic"):
                continue
            phi = gen_map(entry)
            n = phi.dim
            p = np.array(check(phi).fixed_point)
            m = phi.associated_matrix()
            m = m / np.max(np.abs(m))
            x = np.append(p, 1.0)
            w = np.linalg.eigvals(m)
            lam = w[np.argmin(np.abs(w - np.vdot(x, m @ x) / np.vdot(x, x)))]
            null = np.linalg.svd(m - lam * np.eye(n + 1))[2][-1].conj()
            np.testing.assert_allclose(p, null[:n] / null[n], rtol=0.0, atol=1e-13)


def test_nearly_parabolic_hyperbolic_map_takes_the_svd_path(monkeypatch):
    # A Siegel dilation w1 -> (1 + eps) w1, w' -> sqrt(1 + eps) w' / 2 has
    # the eigenvalues 1 + eps and 1 of m within _CLUSTER_RTOL of each
    # other: a cluster, whose eigenspace comes from the SVD of m - lam I.
    eps, n = 1e-6, 3
    rng = np.random.default_rng(60)
    t = np.eye(n + 1, dtype=np.complex128)
    t[0, 0] = 1.0 + eps
    t[1:n, 1:n] *= 0.5 * np.sqrt(1.0 + eps)
    cases = [siegel_conjugate(t, rng) for _ in range(4)]
    sups = [oracle_is_selfmap(phi)[0] for phi, _ in cases]
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for (phi, expected), sup in zip(cases, sups):
        calls.clear()
        classification, point = classify_fixed_point(phi, sup)
        assert calls
        assert classification == CLASS_BOUNDARY
        bound = 100.0 * np.finfo(float).eps / eps
        np.testing.assert_allclose(point, expected, rtol=0.0, atol=bound)


def test_check_report_worked(worked_map):
    report = check(worked_map)
    assert report.criterion_selfmap and report.oracle_selfmap
    assert not report.discrepancy_flag
    assert report.krein_t is not None
    assert report.row_verdict == (True, True)
    assert abs(report.rhs - 64.0) < 1e-9


def test_shaped_ensemble_hits_target_sup():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        target = rng.uniform(0.4, 1.8)
        phi = random_selfmap_shaped(n, rng, target)
        sup = ellipsoid_sup_norm(image_ellipsoid(phi))
        assert abs(sup - target) < 1e-9 * max(1.0, target)


def test_narrow_keeps_the_side_the_slope_points_to():
    lo, hi = _PencilPoint(1.0, 0.0, 2.0, np.nan), _PencilPoint(3.0, 0.0, -2.0, np.nan)
    rising, falling, flat = (_PencilPoint(2.0, 0.5, g, -1.0) for g in (1.0, -1.0, 0.0))
    assert _narrow(lo, hi, rising) == (rising, hi)
    assert _narrow(lo, hi, falling) == (lo, falling)
    # a zero slope makes the point the maximiser of the concave f
    assert _narrow(lo, hi, flat) == (flat, flat)


def test_agreement_table_redraws_a_target_next_to_one():
    # Seed 8461 first draws a target of 1.0000382 for row 0, too close to
    # the threshold for either verdict to be meaningful, so it is redrawn.
    row = agreement_table(1, 8461)["rows"][0]
    assert abs(row["oracle_sup"] - 1.0) >= 1e-4


def test_agreement_table_deterministic_and_sound():
    table = agreement_table(40, seed=20260822)
    again = agreement_table(40, seed=20260822)
    assert table == again
    assert table["count"] == 40 and len(table["rows"]) == 40
    s = table["summary"]
    assert s["agree"] + s["disagree"] == 40
    assert s["both_true"] + s["both_false"] + s["criterion_only"] + s["oracle_only"] == 40
    # no map of this ensemble passes the oracle and fails a row
    assert s["oracle_only"] == 0
    assert [r["dim"] for r in table["rows"][:4]] == [1, 2, 3, 4]
    for r in table["rows"]:
        assert r["agree"] == (r["criterion_selfmap"] == r["oracle_selfmap"])
