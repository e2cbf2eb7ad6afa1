"""Real quadrics on C^N and exact pullbacks under factor maps."""

import warnings

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    LFMap,
    Quadric,
    ShapeError,
    bruhat_factorize,
    compose,
    factors_to_maps,
    from_standard_form,
    pullback_affine,
    pullback_chain,
    pullback_map,
    pullback_reflection,
    pullback_swap,
)
from ballmaps.quadric import (
    evaluate,
    evaluate_batch,
    from_hermitian,
    normalized,
    residual,
    to_hermitian,
)

from conftest import coefficient_map, gen_map, load_gen, random_unitary


def unit_sphere(n):
    return from_standard_form(np.ones(n), np.zeros(n), np.zeros(n), -1.0)


def random_hermitian_quadric(rng, n):
    g = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
    return from_hermitian(g + g.conj().T)


def random_points(rng, n, count, radius=2.0, floor_last=0.0):
    pts = radius * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
    if floor_last > 0.0:
        small = np.abs(pts[:, -1]) < floor_last
        pts[small, -1] += 2.0 * floor_last
    return pts


def reflection_den(pts):
    return np.abs(pts[:, -1]) ** 2


def test_standard_form_layout():
    q = from_standard_form([1.0, -2.0], [0.5, 0.0], [0.0, 3.0], 4.0)
    np.testing.assert_array_equal(q.s, np.diag([1.0, 1.0, -2.0, -2.0]))
    np.testing.assert_array_equal(q.b, [0.5, 0.0, 0.0, 3.0])
    assert q.c == 4.0 and q.dim == 2
    # value at z = (1, i): 1 - 2 + 0.5 + 3 + 4
    assert abs(evaluate(q, [1.0, 1j]) - 6.5) < 1e-14


def test_quadric_validation():
    with pytest.raises(ContractViolation):
        Quadric(np.zeros((2, 2)), np.zeros(2), 0.0)
    with pytest.raises(ShapeError):
        Quadric(np.zeros((3, 3)), np.zeros(3), 1.0)
    with pytest.raises(ShapeError):
        Quadric(np.zeros((2, 2)), np.zeros(3), 1.0)
    with pytest.raises(ContractViolation):
        Quadric(np.full((2, 2), np.nan), np.zeros(2), 1.0)


def test_evaluate_batch_and_residual():
    q = unit_sphere(2)
    rng = np.random.default_rng(61)
    pts = random_points(rng, 2, 50)
    vals = evaluate_batch(q, pts)
    for k in range(50):
        assert abs(vals[k] - evaluate(q, pts[k])) < 1e-12
    on_sphere = pts / np.linalg.norm(pts, axis=1)[:, None]
    assert residual(q, on_sphere) < 1e-12
    assert residual(q, np.empty((0, 2))) == 0.0


def test_normalized_fixes_scale_and_sign():
    q = from_standard_form([2.0, 0.0], [0.0, 0.0], [0.0, 0.0], -8.0)
    r = normalized(q)
    assert abs(r.c + 1.0) < 1e-15 and abs(r.s[0, 0] - 0.25) < 1e-15
    flipped = normalized(Quadric(-q.s, -q.b, -q.c))
    np.testing.assert_array_equal(r.s, flipped.s)
    assert r.c == flipped.c


def test_reflection_of_unit_sphere_frozen():
    q2 = pullback_reflection(unit_sphere(2))
    np.testing.assert_array_equal(q2.s, np.diag([1.0, 1.0, -1.0, -1.0]))
    np.testing.assert_array_equal(q2.b, np.zeros(4))
    assert q2.c == 1.0


def test_reflection_identity_and_involution():
    rng = np.random.default_rng(62)
    for n in (1, 2, 3):
        q = random_hermitian_quadric(rng, n)
        qr = pullback_reflection(q)
        pts = random_points(rng, n, 1000, floor_last=0.1)
        f_pts = pts.copy()
        f_pts[:, :-1] = pts[:, :-1] / pts[:, -1][:, None]
        f_pts[:, -1] = 1.0 / pts[:, -1]
        direct = evaluate_batch(q, f_pts) * reflection_den(pts)
        assert np.max(np.abs(evaluate_batch(qr, pts) - direct)) < 1e-10
        back = pullback_reflection(qr)
        np.testing.assert_array_equal(back.s, q.s)
        np.testing.assert_array_equal(back.b, q.b)
        assert back.c == q.c


def test_reflection_fixed_quadric_through_origin():
    # |z1|^2 - Re z2 is invariant under the canonical reflection of C^2
    q = from_standard_form([1.0, 0.0], [0.0, -1.0], [0.0, 0.0], 0.0)
    r = pullback_reflection(q)
    np.testing.assert_array_equal(r.s, q.s)
    np.testing.assert_array_equal(r.b, q.b)
    assert r.c == q.c


def test_pullback_swap_range_check():
    with pytest.raises(ContractViolation):
        pullback_swap(unit_sphere(2), 1, 3)


def test_pullback_swap_is_an_index_permutation_bit_for_bit():
    # The congruence by a permutation matrix only moves coefficients: the
    # result is to_hermitian(q) with rows and columns i and j exchanged.
    rng = np.random.default_rng(67)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        q = random_hermitian_quadric(rng, n)
        i, j = sorted(int(k) for k in rng.choice(n + 1, 2, replace=False))
        order = np.arange(n + 1)
        order[[i, j]] = order[[j, i]]
        want = from_hermitian(to_hermitian(q)[np.ix_(order, order)])
        got = pullback_swap(q, i, j)
        assert got.s.tobytes() == want.s.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
        assert np.float64(got.c).tobytes() == np.float64(want.c).tobytes()


def test_non_hermitian_quadric_pulls_back_through_an_affine_swap():
    # Re(z1^2) + |z2|^2 = 1 has a z_i z_j term; swapping z1 and z2 (j < N)
    # is affine, so its pullback is a real substitution.
    q = Quadric(np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros(4), -1.0)
    got = pullback_swap(q, 0, 1)
    np.testing.assert_array_equal(got.s, np.diag([1.0, 1.0, 1.0, -1.0]))
    np.testing.assert_array_equal(got.b, np.zeros(4))
    assert got.c == -1.0
    pts = random_points(np.random.default_rng(68), 2, 50)
    np.testing.assert_allclose(evaluate_batch(got, pts), evaluate_batch(q, pts[:, ::-1]), atol=1e-12)


def test_affine_translation_frozen():
    shift = LFMap(np.eye(2), [0.3, 0.4j], [0.0, 0.0], 1.0)
    q = pullback_affine(unit_sphere(2), shift)
    np.testing.assert_allclose(q.s, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(q.b, [0.6, 0.0, 0.0, 0.8], atol=1e-15)
    assert abs(q.c + 0.75) < 1e-15


def test_affine_identity_random():
    rng = np.random.default_rng(63)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        q = random_hermitian_quadric(rng, n)
        phi = LFMap(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            np.zeros(n),
            1.0 + rng.uniform(),
        )
        pts = random_points(rng, n, 1000)
        images = np.stack([phi(z) for z in pts])
        got = evaluate_batch(pullback_affine(q, phi), pts)
        assert np.max(np.abs(got - evaluate_batch(q, images))) < 1e-9


def test_affine_rejects_fractional():
    phi = LFMap(np.eye(1), [0.0], [0.5], 1.0)
    with pytest.raises(ContractViolation):
        pullback_affine(unit_sphere(1), phi)


def test_pullback_map_worked_frozen(worked_map):
    q = pullback_map(unit_sphere(2), worked_map)
    np.testing.assert_allclose(q.s, np.diag([0.0, 0.0, 4.0, 4.0]), atol=1e-14)
    np.testing.assert_allclose(q.b, [8.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert abs(q.c + 8.0) < 1e-14
    # identity q'(z) = q(phi(z)) |<z,C> + D|^2 at sample points
    rng = np.random.default_rng(64)
    pts = 0.8 * random_points(rng, 2, 200, radius=1.0)
    den = np.abs(pts @ np.conj(worked_map.c) + worked_map.d) ** 2
    images = np.stack([worked_map(z) for z in pts])
    direct = evaluate_batch(unit_sphere(2), images) * den
    assert np.max(np.abs(evaluate_batch(q, pts) - direct)) < 1e-10


def test_pullback_map_automorphism_preserves_sphere():
    from ballmaps import BallAutomorphism, automorphism_to_lfmap

    rng = np.random.default_rng(65)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = rng.standard_normal(2 * n)
        alpha = (g[::2] + 1j * g[1::2])
        alpha *= rng.uniform(0.1, 0.8) / np.linalg.norm(alpha)
        phi = automorphism_to_lfmap(BallAutomorphism(alpha, random_unitary(n, rng)))
        got = normalized(pullback_map(unit_sphere(n), phi))
        want = normalized(unit_sphere(n))
        np.testing.assert_allclose(got.s, want.s, atol=1e-12)
        np.testing.assert_allclose(got.b, want.b, atol=1e-12)
        assert abs(got.c - want.c) < 1e-12


def test_chain_matches_whole_map(worked_map):
    maps = factors_to_maps(bruhat_factorize(worked_map.associated_matrix()))
    chained = normalized(pullback_chain(unit_sphere(2), maps))
    whole = normalized(pullback_map(unit_sphere(2), worked_map))
    np.testing.assert_allclose(chained.s, whole.s, atol=1e-12)
    np.testing.assert_allclose(chained.b, whole.b, atol=1e-12)
    assert abs(chained.c - whole.c) < 1e-12


def test_pullback_functoriality():
    rng = np.random.default_rng(66)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        q = random_hermitian_quadric(rng, n)
        f = LFMap(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            2.0 + rng.uniform(),
        )
        g = LFMap(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            2.0 + rng.uniform(),
        )
        lhs = normalized(pullback_map(q, compose(f, g)))
        rhs = normalized(pullback_map(pullback_map(q, f), g))
        np.testing.assert_allclose(lhs.s, rhs.s, atol=1e-10)
        np.testing.assert_allclose(lhs.b, rhs.b, atol=1e-10)
        assert abs(lhs.c - rhs.c) < 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
def test_affine_pullback_tests_c_exactly_at_any_scale(scale):
    # z / (z1/2 + 1) is not affine at any scale, though |c|^2 underflows to
    # 0 at 1e-170 and overflows at 1e200.
    phi = LFMap(scale * np.eye(2), np.zeros(2), scale * np.array([0.5, 0.0]), scale)
    not_hermitian = Quadric(np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros(4), -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match="c = 0"):
            pullback_affine(unit_sphere(2), phi)
        with pytest.raises(ContractViolation, match="Hermitian type"):
            pullback_map(not_hermitian, phi)


def test_affine_pullback_divides_by_a_subnormal_d():
    # a / d = 1/2 exactly, though numpy's complex division by the subnormal
    # d overflows forming 1/d; the answer is the pullback through z / 2.
    phi = LFMap([[2.0**-1040]], [0.0], [0.0], 2.0**-1039)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pulled = pullback_affine(unit_sphere(1), phi)
    expected = pullback_affine(unit_sphere(1), LFMap([[0.5]], [0.0], [0.0], 1.0))
    np.testing.assert_array_equal(pulled.s, np.diag([0.25, 0.25]))
    assert pulled.s.tobytes() == expected.s.tobytes()
    assert pulled.b.tobytes() == expected.b.tobytes() == np.zeros(2).tobytes()
    assert pulled.c == expected.c == -1.0


def test_non_hermitian_quadric_paths():
    # Re(z1^2) = x^2 - y^2 has a z_i z_j term: no Hermitian description
    q = Quadric(np.diag([1.0, -1.0]), np.zeros(2), -1.0)
    with pytest.raises(ContractViolation):
        to_hermitian(q)
    with pytest.raises(ContractViolation):
        pullback_reflection(q)

    double = LFMap(2 * np.eye(1), [0.0], [0.0], 1.0)
    scaled = pullback_map(q, double)
    np.testing.assert_array_equal(scaled.s, np.diag([4.0, -4.0]))
    assert scaled.c == -1.0

    fractional = LFMap(np.eye(1), [0.0], [0.5], 1.0)
    with pytest.raises(ContractViolation):
        pullback_map(q, fractional)


def test_pullback_rebuilds_byte_identical_through_the_public_constructor(worked_map):
    # pullback_map builds its result without the public gate; the public
    # Quadric makes the very same bytes of it, signed zeros included.
    gen = load_gen()
    cases = [(worked_map, unit_sphere(2))]
    for seed in (1, 2, 3):
        cases += [(gen_map(e), Quadric(*gen.real_form(e["quadric"]))) for e in gen.factor_pullback(seed)]
    for phi, q in cases:
        pulled = pullback_map(q, phi)
        again = Quadric(pulled.s, pulled.b, pulled.c)
        assert again.s.tobytes() == pulled.s.tobytes()
        assert again.b.tobytes() == pulled.b.tobytes()
        assert type(pulled.c) is float and np.float64(again.c).tobytes() == np.float64(pulled.c).tobytes()
        assert not (pulled.s.flags.writeable or pulled.b.flags.writeable)


def test_pullback_is_stated_at_the_maps_scale():
    # The pullback has degree 2 in the map's coefficients: 2^k times them
    # gives 2^(2k) times the quadric, bit for bit, at 2^+-500.  At 2^-1000
    # the exact quadric lies below the smallest double and the congruence
    # underflows to the all-zero quadric; at 2^1000 it passes the largest
    # double.  Both are refused, on every factor-pullback map.
    gen = load_gen()
    for seed in (1, 2):
        for entry in gen.factor_pullback(seed):
            q = Quadric(*gen.real_form(entry["quadric"]))
            unit = pullback_map(q, gen_map(entry))
            for k in (500, -500, 1000, -1000):
                scaled = coefficient_map(entry["m"] * 2.0**k)
                if abs(k) == 1000:
                    match = "all-zero quadric" if k < 0 else "must be finite"
                    with pytest.raises(ContractViolation, match=match):
                        pullback_map(q, scaled)
                    continue
                out = pullback_map(q, scaled)
                assert out.s.tobytes() == np.ldexp(unit.s, 2 * k).tobytes(), (seed, k)
                assert out.b.tobytes() == np.ldexp(unit.b, 2 * k).tobytes(), (seed, k)
                assert out.c == np.ldexp(unit.c, 2 * k), (seed, k)


def test_overflowing_congruence_raises():
    # m* Q m overflows for a well-conditioned map with entries of 1e200,
    # and so does the affine substitution of a sphere of scale 1e300.
    phi = LFMap(1e200 * np.eye(2), np.zeros(2), np.zeros(2), 1e200)
    with pytest.raises(ContractViolation, match="finite"):
        pullback_map(unit_sphere(2), phi)
    big = from_standard_form(np.full(2, 1e300), np.zeros(2), np.zeros(2), -1.0)
    with pytest.raises(ContractViolation, match="finite"):
        pullback_affine(big, LFMap(1e10 * np.eye(2), np.zeros(2), np.zeros(2), 1.0))


def test_overflowing_symmetrisation_raises():
    # (s + s^T) / 2 overflows in its sum for off-diagonal entries near the
    # largest double, though each entry is finite.
    s = np.eye(4)
    s[0, 1] = s[1, 0] = 1.7e308
    with pytest.raises(ContractViolation, match="finite"):
        Quadric(s, np.zeros(4), 1.0)
