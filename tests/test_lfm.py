"""Linear fractional maps and the associated-matrix calculus."""

import warnings

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    DegenerateMapError,
    LFMap,
    PoleError,
    ShapeError,
    classical_disk_criterion,
    compose,
    evaluate,
    evaluate_batch,
    from_associated_matrix,
    from_standard_form,
    image_ellipsoid,
    invert,
    oracle_is_selfmap,
)

from conftest import near_sphere_contraction, random_ball_point, random_complex_matrix


def test_worked_map_values(worked_map):
    np.testing.assert_allclose(worked_map([0.0, 0.0]), [1.0 / 3.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(worked_map([1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(worked_map([1j, 0.0]), [0.2 + 0.4j, 0.0], atol=1e-15)


def test_associated_matrix_layout(worked_map):
    m = worked_map.associated_matrix()
    expected = np.array(
        [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 3.0]], dtype=np.complex128
    )
    np.testing.assert_array_equal(m, expected)


def test_constructor_validates_shapes():
    with pytest.raises(ShapeError):
        LFMap(np.eye(2), [1.0], [0.0, 0.0], 1.0)
    with pytest.raises(ShapeError):
        LFMap(np.eye(2), [0.0, 0.0], [0.0, 0.0, 0.0], 1.0)
    with pytest.raises(ShapeError):
        LFMap(np.ones((2, 3)), [0.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(ShapeError):
        LFMap([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], 1.0)
    with pytest.raises(ShapeError):
        from_associated_matrix(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        from_associated_matrix(np.ones(3))
    with pytest.raises(ContractViolation):
        LFMap(np.eye(1), [0.0], [0.0], complex(np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("block", ["a", "b", "c", "d"])
def test_constructor_rejects_non_finite_coefficients(worked_map, block, bad):
    coeffs = {k: np.array(getattr(worked_map, k)) for k in "abcd"}
    if block == "d":
        coeffs["d"] = bad
    else:
        coeffs[block].flat[-1] = bad
    with pytest.raises(ContractViolation):
        LFMap(coeffs["a"], coeffs["b"], coeffs["c"], coeffs["d"])
    m = worked_map.associated_matrix()
    m[{"a": (0, 0), "b": (0, 2), "c": (2, 1), "d": (2, 2)}[block]] = bad
    with pytest.raises(ContractViolation):
        from_associated_matrix(m)


def test_associated_matrix_is_the_block_matrix():
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        for _ in range(10):
            a = random_complex_matrix(rng, n)
            b, c = random_complex_matrix(rng, 2 * n)[0].reshape(2, n)
            d = complex(rng.standard_normal(), rng.standard_normal())
            m = np.block([[a, b[:, None]], [np.conj(c)[None, :], np.array([[d]])]])
            assert LFMap(a, b, c, d).associated_matrix().tobytes() == m.tobytes()
            phi = from_associated_matrix(m)
            expected = m / m[n, n]
            assert phi.a.tobytes() == expected[:n, :n].tobytes()
            assert phi.b.tobytes() == expected[:n, n].tobytes()
            assert phi.c.tobytes() == np.conj(expected[n, :n]).tobytes()
            assert phi.d == expected[n, n]
            assert phi.associated_matrix().tobytes() == expected.tobytes()


def test_map_owns_its_coefficients():
    a = np.eye(2, dtype=complex)
    b = np.zeros(2, dtype=complex)
    c = np.array([0.5, 0.0], dtype=complex)
    phi = LFMap(a, b, c, 1.0)
    before = phi.associated_matrix()
    a[0, 0] = 5.0
    b[1] = 2.0
    c[0] = 3.0
    phi.associated_matrix()[0, 0] = 7.0
    assert phi.associated_matrix().tobytes() == before.tobytes()
    for block in (phi.a, phi.b, phi.c):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = 1.0
    m = before.copy()
    psi = from_associated_matrix(m)
    m[0, 1] = 9.0
    assert psi.associated_matrix().tobytes() == before.tobytes()


def test_constructor_rejects_singular_matrix():
    # b = a e1 and d = conj(c1) make the last column a multiple of the first
    with pytest.raises(DegenerateMapError):
        LFMap(np.eye(2), [1.0, 0.0], [1.0, 0.0], 1.0)


def test_constructor_accepts_an_ill_conditioned_map():
    # psi_p o (z/2) o psi_p at 1 - p = 1e-7: sigma_min / sigma_max = 2e-14,
    # about 90 eps, though its elimination pivot is 4e-14
    phi, p = near_sphere_contraction(1e-7)
    np.testing.assert_allclose(phi([p]), [p], rtol=0.0, atol=1e-8)


def test_constructor_rejects_matrices_singular_to_rounding():
    # at 1 - p = 1e-8 the ratio is 1.9e-16, below (N + 1) eps
    with pytest.raises(DegenerateMapError):
        near_sphere_contraction(1e-8)
    # the last column is m @ [x, 0], so m [x, -1] = 0 up to rounding
    rng = np.random.default_rng(24)
    for n in range(1, 9):
        for _ in range(25):
            a = random_complex_matrix(rng, n)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            with pytest.raises(DegenerateMapError):
                LFMap(a, a @ x, c, np.conj(c) @ x)


@pytest.mark.parametrize("k", range(-150, 151, 50))
def test_constructor_is_scale_invariant(worked_map, k):
    scale = 10.0**k
    phi = LFMap(worked_map.a * scale, worked_map.b * scale, worked_map.c * scale, worked_map.d * scale)
    np.testing.assert_allclose(phi([0.0, 0.0]), [1.0 / 3.0, 0.0], atol=1e-15)


def test_identity_and_make():
    phi = LFMap.identity(3)
    z = np.array([0.1, 0.2j, -0.3])
    np.testing.assert_array_equal(phi(z), z)
    psi = LFMap(np.eye(2), [0.0, 0.0], [0.0, 0.0], 2.0)
    np.testing.assert_allclose(psi([0.4, 0.0]), [0.2, 0.0], atol=1e-15)


def test_pole_free_on_ball(worked_map):
    assert worked_map.pole_free_on_ball
    assert not LFMap(np.eye(1), [0.0], [2.0], 1.0).pole_free_on_ball


def test_pole_free_on_ball_at_any_scale(worked_map):
    # the test squares nothing, so it neither overflows nor underflows
    for k in range(-300, 301, 10):
        s = 10.0**k
        phi = LFMap(worked_map.a * s, worked_map.b * s, worked_map.c * s, worked_map.d * s)
        assert phi.pole_free_on_ball, k
        sup, verdict = oracle_is_selfmap(phi)
        assert abs(sup - 1.0) <= 4e-16 and verdict, (k, sup)
        # |c| = |d| puts a pole on the sphere, |c| = 2 |d| one inside
        assert not LFMap(np.eye(1) * s, [0.0], [s], s).pole_free_on_ball, k
        assert not LFMap(np.eye(1) * s, [0.0], [2.0 * s], s).pole_free_on_ball, k


def test_evaluate_at_any_scale(worked_map):
    # the pole floor takes |c| as pole_free_on_ball does, so it does not
    # overflow where the squared entries would (from about 1e154)
    z = [0.1, 0.2]
    unit = evaluate(worked_map, z)
    for k in range(-300, 301, 20):
        s = 10.0**k
        phi = LFMap(worked_map.a * s, worked_map.b * s, worked_map.c * s, worked_map.d * s)
        np.testing.assert_allclose(evaluate(phi, z), unit, rtol=1e-14, atol=0, err_msg=f"k = {k}")
        np.testing.assert_allclose(evaluate_batch(phi, [z])[0], unit, rtol=1e-14, atol=0, err_msg=f"k = {k}")


def test_evaluate_where_the_squared_norm_overflows():
    # |z|^2 passes the largest double at z = 1e308 and 1e200; the pole floor takes
    # |z| by hypot then, so the value comes out and a pole there is found.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(LFMap([[1.0]], [0.0], [0.5], 1.0), [1e308])
        with pytest.raises(PoleError):
            evaluate(LFMap([[1.0]], [0.0], [1e-200], -1.0), [1e200])
    np.testing.assert_allclose(got, [2.0], rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LFMap(np.diag([1.0, 2.0]), [1.0, 0.0], [-1.0, 0.0], 3.0),
        lambda: image_ellipsoid(LFMap(np.diag([1.0, 2.0]), [1.0, 0.0], [-1.0, 0.0], 3.0)),
        lambda: from_standard_form([1, 1], [0, 0], [0, 0], -1),
    ],
    ids=["map", "ellipsoid", "quadric"],
)
def test_array_holders_compare_by_identity(build):
    # equality over numpy arrays has no truth value, so these objects are
    # equal only to themselves, and hashable
    first, second = build(), build()
    assert first == first and first != second
    assert first in [first] and second not in [first]
    assert len({first, second}) == 2 and hash(first) == hash(first)


def test_evaluate_raises_at_pole():
    phi = LFMap(np.eye(1), [0.0], [2.0], 1.0)
    with pytest.raises(PoleError) as err:
        evaluate(phi, [-0.5])
    np.testing.assert_allclose(err.value.point, [-0.5], atol=1e-15)


def test_evaluate_batch_matches_evaluate(worked_map):
    rng = np.random.default_rng(21)
    pts = np.stack([random_ball_point(rng, 2) for _ in range(40)])
    batch = evaluate_batch(worked_map, pts)
    for k in range(len(pts)):
        np.testing.assert_allclose(batch[k], evaluate(worked_map, pts[k]), atol=1e-13)


def test_evaluate_batch_flags_offending_sample(worked_map):
    pts = np.zeros((3, 1), dtype=np.complex128)
    pts[1, 0] = -0.5
    phi = LFMap(np.eye(1), [0.0], [2.0], 1.0)
    with pytest.raises(PoleError) as err:
        evaluate_batch(phi, pts)
    np.testing.assert_allclose(err.value.point, [-0.5], atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_batch_refuses_non_finite_points(worked_map, bad):
    # refused before any arithmetic, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation):
            evaluate_batch(worked_map, [[bad, 0.0]])


def test_from_associated_matrix_normalizes_scale(worked_map):
    m = worked_map.associated_matrix()
    phi = from_associated_matrix(5.0 * m)
    psi = from_associated_matrix(m)
    np.testing.assert_allclose(phi.a, psi.a, atol=1e-15)
    np.testing.assert_allclose(phi.b, psi.b, atol=1e-15)
    np.testing.assert_allclose(phi.c, psi.c, atol=1e-15)
    assert abs(phi.d - 1.0) < 1e-15


def test_from_associated_matrix_zero_corner():
    # lower-right entry zero: the scale is kept and the map is z -> 1/z
    phi = from_associated_matrix([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(phi([0.5]), [2.0], atol=1e-15)
    # nothing is divided, yet the map owns a copy of the caller's array
    m = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=np.complex128)
    psi = from_associated_matrix(m)
    assert m.flags.writeable
    m[0, 1] = 7.0
    np.testing.assert_array_equal(psi.associated_matrix(), [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(psi([0.5]), [2.0], atol=1e-15)


def test_compose_is_matrix_product():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        mf = random_complex_matrix(rng, n + 1)
        mg = random_complex_matrix(rng, n + 1)
        f = from_associated_matrix(mf)
        g = from_associated_matrix(mg)
        h = compose(f, g)
        prod = mf @ mg
        # proportional up to the normalizing scalar
        ratio = prod[np.abs(prod) > 1e-9] / h.associated_matrix()[np.abs(prod) > 1e-9]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10 * np.max(np.abs(ratio))
        for _ in range(5):
            z = random_ball_point(rng, n, radius=0.5)
            try:
                expected = f(g(z))
            except PoleError:
                continue
            np.testing.assert_allclose(h(z), expected, atol=1e-9)


def test_compose_divides_by_a_subnormal_corner():
    # The square of this matrix has a corner of about 3e-322; numpy's
    # complex division forms its reciprocal and overflows, though the
    # quotient is O(1).  Scaling by a power of two is exact.
    m = np.array([
        [5.8e-247 - 1.1e-246j, -1.2e-154 - 1.3e-154j],
        [-2.7e-168 + 4.1e-168j, 3.5e-251 - 1.1e-251j],
    ])
    phi = from_associated_matrix(m)
    p = phi.associated_matrix() @ phi.associated_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        square = compose(phi, phi)
    expected = (p * 2.0**1000) / (p[1, 1] * 2.0**1000)
    assert square.associated_matrix().tobytes() == expected.tobytes()


def test_compose_dimension_mismatch(worked_map):
    with pytest.raises(ShapeError):
        compose(worked_map, LFMap.identity(3))


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_invert_accepts_every_map_the_constructor_accepts(delta):
    # invert has no conditioning test of its own: LAPACK is backward
    # stable, so the recomposition is off by about eps cond(m)
    phi, _ = near_sphere_contraction(delta)
    m = phi.associated_matrix()
    both = compose(phi, invert(phi)).associated_matrix()
    residual = np.linalg.norm(both / both[-1, -1] - np.eye(2), 2)
    assert residual <= 4 * (phi.dim + 1) * np.finfo(float).eps * np.linalg.cond(m)


def test_invert_round_trip(worked_map):
    inv = invert(worked_map)
    rng = np.random.default_rng(23)
    for _ in range(20):
        z = random_ball_point(rng, 2)
        np.testing.assert_allclose(inv(worked_map(z)), z, atol=1e-12)
    both = compose(inv, worked_map)
    np.testing.assert_allclose(both.associated_matrix(), np.eye(3), atol=1e-12)


def test_classical_disk_criterion_frozen():
    half = LFMap(np.eye(1) / 2, [0.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(half)
    assert verdict and abs(margin - 0.5) < 1e-15

    double = LFMap(2 * np.eye(1), [0.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(double)
    assert not verdict and abs(margin + 1.0) < 1e-15

    # disk automorphism (z - 1/2) / (1 - z/2) sits exactly on the margin
    aut = LFMap(np.eye(1), [-0.5], [-0.5], 1.0)
    verdict, margin = classical_disk_criterion(aut)
    assert verdict and abs(margin) < 1e-15

    translate = LFMap(np.eye(1), [1.0], [0.0], 1.0)
    verdict, margin = classical_disk_criterion(translate)
    assert not verdict and abs(margin + 1.0) < 1e-15


def test_classical_disk_criterion_needs_dimension_one(worked_map):
    with pytest.raises(ContractViolation):
        classical_disk_criterion(worked_map)
