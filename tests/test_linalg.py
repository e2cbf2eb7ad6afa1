"""Shape-checked linear algebra wrappers, and the door to LAPACK."""

import ast
import functools
import warnings
from pathlib import Path

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


@pytest.mark.parametrize("name", ["eig", "eigh", "svd", "svdvals"])
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


# numpy.linalg's factorizations, which only ballmaps.linalg may reach;
# np.linalg.norm factors nothing and stays allowed everywhere.
FACTORIZATIONS = {
    "eig", "eigvals", "eigh", "eigvalsh", "svd", "inv", "qr", "solve",
    "lstsq", "cholesky", "det", "pinv", "matrix_rank",
}
SRC = Path(linalg.__file__).resolve().parent


def round_the_door(tree) -> list[str]:
    """The nodes of a module's AST that reach LAPACK round ballmaps.linalg:
    a numpy.linalg factorization, however numpy or numpy.linalg is
    imported, and any use of numpy's _umath_linalg."""
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg":
                    (linalg_names if alias.asname else numpy_names).add(alias.asname or "numpy")
                if "_umath_linalg" in alias.name:
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                if "_umath_linalg" in node.module or alias.name == "_umath_linalg" or (
                    node.module == "numpy.linalg" and alias.name in FACTORIZATIONS
                ):
                    found.append(f"from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_umath_linalg":
            found.append(f"line {node.lineno}: _umath_linalg")
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "_umath_linalg":
            found.append(f"line {node.lineno}: ._umath_linalg")
        if node.attr not in FACTORIZATIONS:
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id in linalg_names) or (
            isinstance(base, ast.Attribute)
            and base.attr == "linalg"
            and isinstance(base.value, ast.Name)
            and base.value.id in numpy_names
        ):
            found.append(f"line {node.lineno}: numpy.linalg.{node.attr}")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.eigvalsh(a)",
        "import numpy\nnumpy.linalg.qr(a)",
        "import numpy.linalg\nnumpy.linalg.solve(a, b)",
        "import numpy.linalg as la\nla.det(a)",
        "from numpy import linalg as la\nla.pinv(a)",
        "from numpy.linalg import cholesky",
        "from numpy.linalg import _umath_linalg",
        "import numpy as np\nnp.linalg._umath_linalg.eig(a)",
    ],
)
def test_round_the_door_finds_each_way_round(source):
    assert round_the_door(ast.parse(source))
    assert not round_the_door(ast.parse("import numpy as np\nnp.linalg.norm(a)"))


def test_no_module_goes_round_the_door():
    # A static scan of every module but the door itself: one that calls
    # numpy.linalg's factorizations or its gufuncs directly escapes the
    # door's error policy and lapack_calls' counts, even on a path the
    # tests never run.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    for path in modules:
        assert round_the_door(ast.parse(path.read_text())) == [], path.name


def test_every_door_function_has_a_caller():
    # The door functions are those of linalg.py that call LAPACK through
    # _lapack, exactly conftest's DOOR; each has a caller in another module
    # of the package, so none is kept for nobody.
    tree = ast.parse((SRC / "linalg.py").read_text())
    door = {
        f.name
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_lapack" for n in ast.walk(f))
        and f.name != "_lapack"
    }
    assert door == set(DOOR)
    called = set()
    for path in SRC.glob("*.py"):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "linalg":
                    called.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "linalg" and node.level:
                called.update(alias.name for alias in node.names)
    assert door <= called, door - called
