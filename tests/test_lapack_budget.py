"""LAPACK calls per check() on the benchmark's own check-mixed maps.

The benchmark times check() on these maps, so a change that adds
eigendecompositions to it (a search brought back beside the Krein walk,
say) shows up in the benchmark's throughput.  This test catches it in the
unit tests already: it counts the numpy.linalg decompositions that one
check() makes, by kind of map, against ceilings about 10 % above the
counts of the current code.  It only reads benchmark/gen.py.
"""

import collections
import importlib.util
from pathlib import Path

import numpy as np

from ballmaps import LFMap, check

GEN = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"
COUNTED = ("eigh", "eig", "eigvals", "eigvalsh", "svd")
# Mean calls per check() over seeds 1-3; the current code makes interior
# 8.7, parabolic 9.4 (the worked map and its scaled copies, and the pure
# translations, included), hyperbolic 8.0 and non-self-map 3.0.
CEILING = {"interior": 9.5, "parabolic": 10.3, "hyperbolic": 8.8, "nonself": 3.3}


def load_gen():
    spec = importlib.util.spec_from_file_location("benchmark_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_lapack_calls_per_kind(monkeypatch):
    calls = collections.Counter()
    for name in COUNTED:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    gen = load_gen()
    per_kind = collections.defaultdict(list)
    for seed in (1, 2, 3):
        for entry in gen.check_mixed(seed):
            m, n = entry["m"], entry["n"]
            phi = LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])
            calls.clear()
            report = check(phi)
            per_kind[entry["kind"]].append(sum(calls.values()))
            assert (report.krein_t is None) == (entry["kind"] == "nonself"), entry
    assert set(per_kind) == set(CEILING)
    for kind, counts in per_kind.items():
        assert np.mean(counts) <= CEILING[kind], (kind, np.mean(counts))

