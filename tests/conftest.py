import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ballmaps import LFMap

GEN = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"


def load_gen():
    """benchmark/gen.py as a module: the benchmark's own seeded maps."""
    spec = importlib.util.spec_from_file_location("benchmark_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gen_map(entry) -> LFMap:
    """The map of a benchmark/gen.py entry, from its associated matrix."""
    m, n = entry["m"], entry["n"]
    return LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])


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


def random_complex_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def near_sphere_contraction(delta, r=0.5):
    """psi_p o (r z) o psi_p for the disc involution psi_p(z) = (p - z) /
    (1 - p z), p = 1 - delta: a strict self-map fixing p."""
    p = 1.0 - delta
    return LFMap([[r - p * p]], [p * (1.0 - r)], [-p * (1.0 - r)], 1.0 - p * p * r), p
