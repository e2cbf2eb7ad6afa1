import collections
import contextlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ballmaps import LFMap, lfm, linalg

GEN = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"


def load_gen():
    """benchmark/gen.py as a module: the benchmark's own seeded maps."""
    spec = importlib.util.spec_from_file_location("benchmark_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coefficient_map(m) -> LFMap:
    """The map with associated matrix m, coefficients taken as they are."""
    n = m.shape[0] - 1
    return LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])


def gen_map(entry) -> LFMap:
    """The map of a benchmark/gen.py entry, from its associated matrix."""
    return coefficient_map(entry["m"])


# ballmaps.linalg's door to LAPACK, each function by the kind of call it
# counts as, and the numpy.linalg functions that the door stands in for.
DOOR = {
    "eig": "eig",
    "eigh": "eigh",
    "svd": "svd",
    "svdvals": "svd",
    "inverse": "inverse",
}
BYPASSED = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "inv")


@contextlib.contextmanager
def lapack_calls(record=None):
    """Count the LAPACK calls made inside the block through ballmaps.linalg,
    by kind (DOOR), and append (function name, a copy of its matrix) of each
    to record.  Inside the block numpy.linalg's BYPASSED functions fail the
    test, so a call that goes round the door is never left uncounted."""
    calls = collections.Counter()

    def counting(name, original):
        def call(a):
            calls[DOOR[name]] += 1
            if record is not None:
                record.append((name, a.copy()))
            return original(a)

        return call

    def bypass(name):
        def call(*args, **kwargs):
            pytest.fail(f"numpy.linalg.{name} called round ballmaps.linalg")

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in DOOR:
            mp.setattr(linalg, name, counting(name, getattr(linalg, name)))
        for name in BYPASSED:
            mp.setattr(np.linalg, name, bypass(name))
        yield calls


@pytest.fixture
def worked_map() -> LFMap:
    """Self-map of B^2 with boundary contact at (1, 0), used throughout.

    A = diag(1, 2), B = e1, C = -e1, D = 3; the image ellipsoid has
    center (1/2, 0) and shape diag(-1/2, -sqrt(2)/2).
    """
    return LFMap(np.diag([1.0, 2.0]), [1.0, 0.0], [-1.0, 0.0], 3.0)


def random_ball_point(rng: np.random.Generator, n: int, radius: float = 0.9) -> np.ndarray:
    g = rng.standard_normal(2 * n)
    z = g[::2] + 1j * g[1::2]
    return z * (radius * rng.uniform() ** (1.0 / (2 * n)) / np.linalg.norm(z))


def exact_multiples(m, ks):
    """(k, m times 2^k) for each k where that scaling is exact: no entry
    loses a bit in the subnormal range.  Another multiple is another map."""
    scaled = [(k, m * 2.0**k) for k in ks]
    return [(k, mk) for k, mk in scaled if np.array_equal(lfm._ldexp(mk, -k), m)]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed n x n unitary matrix: the QR factor of a complex
    Gaussian matrix, its columns' phases fixed by R's diagonal."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def random_complex_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def near_sphere_contraction(delta, r=0.5):
    """psi_p o (r z) o psi_p for the disc involution psi_p(z) = (p - z) /
    (1 - p z), p = 1 - delta: a strict self-map fixing p."""
    p = 1.0 - delta
    return LFMap([[r - p * p]], [p * (1.0 - r)], [-p * (1.0 - r)], 1.0 - p * p * r), p
