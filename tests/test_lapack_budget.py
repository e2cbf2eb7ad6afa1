"""LAPACK calls on the benchmark's own check-mixed, oracle-sweep and
factor-pullback maps.

The benchmark times check(), the row test and the oracle, and the
composition calculus on these maps, so a change that adds decompositions
to them (a search brought back beside the Krein walk, or a fold that
checks every partial product, say) shows up in the benchmark's
throughput.  These tests catch it in the unit tests already: they count
the numpy.linalg decompositions that one operation makes against
ceilings a little above the counts of the current code.  They only read
benchmark/gen.py.
"""

import collections
import importlib.util
from pathlib import Path

import numpy as np

from ballmaps import (
    LFMap,
    bruhat_factorize,
    check,
    compose,
    compose_factor_maps,
    factors_to_maps,
    invert,
    oracle_is_selfmap,
    row_criterion,
)

GEN = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"
COUNTED = ("eigh", "eig", "eigvals", "eigvalsh", "svd")
# Mean calls per check() over seeds 1-3; the current code makes interior
# 7.7, parabolic 8.4 (the worked map and its scaled copies, and the pure
# translations, included), hyperbolic 7.0 and non-self-map 2.0.
CEILING = {"interior": 8.5, "parabolic": 9.3, "hyperbolic": 7.8, "nonself": 2.3}


def load_gen():
    spec = importlib.util.spec_from_file_location("benchmark_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch) -> collections.Counter:
    """Count calls to the COUNTED numpy.linalg functions from now on."""
    calls = collections.Counter()
    for name in COUNTED:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def as_map(entry) -> LFMap:
    m, n = entry["m"], entry["n"]
    return LFMap(m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])


def test_check_lapack_calls_per_kind(monkeypatch):
    calls = count_calls(monkeypatch)
    gen = load_gen()
    per_kind = collections.defaultdict(list)
    for seed in (1, 2, 3):
        for entry in gen.check_mixed(seed):
            phi = as_map(entry)
            calls.clear()
            report = check(phi)
            per_kind[entry["kind"]].append(sum(calls.values()))
            assert (report.krein_t is None) == (entry["kind"] == "nonself"), entry
    assert set(per_kind) == set(CEILING)
    for kind, counts in per_kind.items():
        assert np.mean(counts) <= CEILING[kind], (kind, np.mean(counts))


def test_oracle_sweep_factors_each_ellipsoid_once(monkeypatch):
    # The image ellipsoid carries its one SVD: the degeneracy test and the
    # sup-norm solve both read it.
    calls = count_calls(monkeypatch)
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.oracle_sweep(seed):
            phi = as_map(entry)
            for route in (row_criterion, oracle_is_selfmap):
                calls.clear()
                route(phi)
                assert dict(calls) == {"svd": 1}, (seed, entry["kind"], route.__name__, calls)


def test_composition_calculus_svd_calls(monkeypatch):
    # Each map the calculus returns is checked by one SVD: one per factor,
    # one for the fold, the inverse and the composition phi o phi^-1.  A
    # fold that builds a map for every partial product makes
    # 2 len(pieces) + 1.
    calls = count_calls(monkeypatch)
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.factor_pullback(seed):
            phi = as_map(entry)
            calls.clear()
            pieces = factors_to_maps(bruhat_factorize(phi.associated_matrix()))
            compose_factor_maps(pieces)
            compose(phi, invert(phi))
            assert calls["svd"] <= len(pieces) + 3, (seed, entry["n"], len(pieces), calls["svd"])
