"""Shape-checked linear algebra wrappers, and the door to LAPACK."""

import functools
import warnings

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    DegenerateMapError,
    ShapeError,
    bruhat_factorize,
    check,
    compose,
    compose_factor_maps,
    factors_to_maps,
    invert,
    linalg,
    oracle_is_selfmap,
    pullback_map,
    row_criterion,
)
from ballmaps.linalg import (
    as_matrix,
    as_square_matrix,
    as_vector,
    inverse,
    polar_from_svd,
    svd,
)
from ballmaps.quadric import Quadric

from conftest import DOOR, gen_map, lapack_calls, load_gen, random_complex_matrix


def numpy_svd(a):
    """numpy.linalg.svd, with v = vh* returned as linalg.svd returns it."""
    w, s, vh = np.linalg.svd(a)
    return w, s, vh.conj().T


# Each door function against the numpy.linalg call it stands in for.
NUMPY = {
    "eig": np.linalg.eig,
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "svd": numpy_svd,
    "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    "inverse": np.linalg.inv,
}


def test_as_vector_coerces_and_validates():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.complex128
    assert v.shape == (2,)
    with pytest.raises(ShapeError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ContractViolation):
        as_vector([1.0, np.nan])


def test_as_vector_accepts_noncontiguous_slice():
    m = np.arange(9, dtype=np.complex128).reshape(3, 3)
    v = as_vector(m[:2, 2])
    np.testing.assert_array_equal(v, [2.0, 5.0])


def test_as_matrix_coerces_and_validates():
    a = as_matrix(np.eye(3))
    assert a.dtype == np.complex128
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ContractViolation):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ShapeError):
        as_square_matrix(np.ones((2, 3)))


def test_inverse_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            a = random_complex_matrix(rng, n)
            inv = inverse(a)
            np.testing.assert_allclose(a @ inv, np.eye(n), atol=1e-10)
            np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-10)


def test_inverse_is_lapack():
    # inverse adds only coercion and the typed error to numpy's LU inverse
    rng = np.random.default_rng(14)
    for n in range(1, 10):
        for _ in range(30):
            a = random_complex_matrix(rng, n)
            assert inverse(a).tobytes() == np.linalg.inv(a).tobytes()


def test_inverse_repeated_row_is_singular():
    # LAPACK flags only an exactly zero pivot.  The power-of-two pivot in
    # the repeated row makes the multiplier of its copy exactly 1, so the
    # copy is eliminated to an exactly zero row.
    rng = np.random.default_rng(15)
    for n in range(2, 10):
        a = random_complex_matrix(rng, n)
        a[0, 0] = 64.0
        a[-1] = a[0]
        with pytest.raises(DegenerateMapError):
            inverse(a)


def test_inverse_singular_is_degenerate():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
    with pytest.raises(DegenerateMapError):
        inverse(a)


def test_svd_reconstructs():
    rng = np.random.default_rng(12)
    a = random_complex_matrix(rng, 4)
    w, s, v = svd(a)
    np.testing.assert_allclose(w @ np.diag(s) @ v.conj().T, a, atol=1e-10)
    assert np.all(np.diff(s) <= 0), "singular values must be descending"
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)


def _reference_polar(a):
    """p = (a a*)^(1/2) by eigh and u = p^-1 a, sharing no code with
    polar_from_svd; a must be invertible."""
    lam, q = np.linalg.eigh(a @ a.conj().T)
    p = (q * np.sqrt(lam)) @ q.conj().T
    return p, np.linalg.solve(p, a)


def test_polar_decompose_frozen():
    # a = p @ u with p = diag(2, 1) psd and u the swap, by hand
    a = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=np.complex128)
    p, u = polar_from_svd(*svd(a))
    np.testing.assert_allclose(p, np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    p_ref, u_ref = _reference_polar(a)
    np.testing.assert_allclose(p, p_ref, atol=1e-12)
    np.testing.assert_allclose(u, u_ref, atol=1e-12)


def test_polar_decompose_properties():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_complex_matrix(rng, 3)
        p, u = polar_from_svd(*svd(a))
        np.testing.assert_allclose(p @ u, a, atol=1e-9)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
        p_ref, u_ref = _reference_polar(a)
        np.testing.assert_allclose(p, p_ref, atol=1e-9)
        np.testing.assert_allclose(u, u_ref, atol=1e-9)


@functools.cache
def factored_matrices():
    """(door function, matrix) of every LAPACK call that check(), the row
    test and the oracle, and the calculus (factor, fold, invert, compose,
    pull back) make on the benchmark's check-mixed, oracle-sweep and
    factor-pullback maps, seeds 1-3."""
    gen = load_gen()
    seeds = (1, 2, 3)
    checked = [gen_map(e) for seed in seeds for e in gen.check_mixed(seed)]
    swept = [gen_map(e) for seed in seeds for e in gen.oracle_sweep(seed)]
    calculus = [
        (gen_map(e), Quadric(*gen.real_form(e["quadric"])))
        for seed in seeds
        for e in gen.factor_pullback(seed)
    ]
    record = []
    with lapack_calls(record):
        for phi in checked:
            check(phi)
        for phi in swept:
            row_criterion(phi)
            oracle_is_selfmap(phi)
        for phi, q in calculus:
            compose_factor_maps(factors_to_maps(bruhat_factorize(phi.associated_matrix())))
            compose(phi, invert(phi))
            pullback_map(q, phi)
    return record


def same_bits(x, y) -> bool:
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(same_bits, x, y))
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", sorted(DOOR))
def test_door_is_numpy_linalg_bit_for_bit(name):
    # The door calls numpy.linalg's own gufuncs with numpy.linalg's
    # signatures: a numpy release that changes either fails here.
    matrices = [a for called, a in factored_matrices() if called == name]
    assert matrices, name
    door = getattr(linalg, name)
    for a in matrices:
        assert same_bits(door(a), NUMPY[name](a)), (name, a)


@pytest.mark.parametrize("name", ["eig", "eigh", "eigvalsh", "svd", "svdvals"])
def test_door_raises_linalgerror_on_nan_with_no_warning(name):
    # A NaN is outside the door's precondition; LAPACK's failure flag still
    # raises numpy's LinAlgError, and no numpy warning gets out.
    a = random_complex_matrix(np.random.default_rng(16), 4)
    a[1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            getattr(linalg, name)(a)


def test_inverse_of_a_nan_matrix_is_numpys():
    # No LU pivot is exactly zero, so LAPACK reports nothing: NaNs, as from
    # numpy.linalg.inv, with no warning.
    a = random_complex_matrix(np.random.default_rng(17), 4)
    a[1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(inverse(a), np.linalg.inv(a))
    assert np.isnan(inverse(a)).all()
