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

import numpy as np

from ballmaps import (
    bruhat_factorize,
    check,
    classify_fixed_point,
    compose,
    compose_factor_maps,
    factors_to_maps,
    invert,
    oracle_is_selfmap,
    row_criterion,
)

from conftest import gen_map, load_gen

COUNTED = ("eigh", "eig", "eigvals", "eigvalsh", "svd")
# Mean calls per check() over seeds 1-3; the current code makes interior
# 6.7, parabolic 7.0 (the worked map and its scaled copies, and the pure
# translations, included), hyperbolic 6.0 and non-self-map 2.0.
CEILING = {"interior": 6.9, "parabolic": 7.2, "hyperbolic": 6.2, "nonself": 2.2}


def count_calls(monkeypatch, eigh_shapes=None) -> collections.Counter:
    """Count calls to the COUNTED numpy.linalg functions from now on, and
    append the shape of each matrix given to eigh to eigh_shapes."""
    calls = collections.Counter()
    for name in COUNTED:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "eigh" and eigh_shapes is not None:
                eigh_shapes.append(np.shape(args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_check_lapack_calls_per_kind(monkeypatch):
    eigh_shapes = []
    calls = count_calls(monkeypatch, eigh_shapes)
    gen = load_gen()
    per_kind = collections.defaultdict(list)
    for seed in (1, 2, 3):
        for entry in gen.check_mixed(seed):
            phi = gen_map(entry)
            calls.clear()
            eigh_shapes.clear()
            report = check(phi)
            per_kind[entry["kind"]].append(sum(calls.values()))
            assert (report.krein_t is None) == (entry["kind"] == "nonself"), entry
            # Every eigh is of an (N+1)-square pencil; the least J-form on an
            # eigenspace is in closed form, with no eigh of a Gram matrix.
            size = (phi.dim + 1, phi.dim + 1)
            assert all(shape == size for shape in eigh_shapes), (seed, entry["kind"], eigh_shapes)
    assert set(per_kind) == set(CEILING)
    for kind, counts in per_kind.items():
        assert np.mean(counts) <= CEILING[kind], (kind, np.mean(counts))


def test_classify_takes_no_svd_for_simple_eigenvalues(monkeypatch):
    # The fixed point of an interior or hyperbolic map belongs to a simple
    # eigenvalue of m: eig's own eigenvector serves, with no SVD.
    calls = count_calls(monkeypatch)
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.check_mixed(seed):
            if entry["kind"] not in ("interior", "hyperbolic"):
                continue
            phi = gen_map(entry)
            sup, _ = oracle_is_selfmap(phi)
            calls.clear()
            classify_fixed_point(phi, sup)
            assert calls["svd"] == 0, (seed, entry["kind"], entry["n"], calls)


def test_oracle_sweep_factors_each_ellipsoid_once(monkeypatch):
    # The image ellipsoid carries its one SVD: the degeneracy test and the
    # sup-norm solve both read it.
    calls = count_calls(monkeypatch)
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.oracle_sweep(seed):
            phi = gen_map(entry)
            for route in (row_criterion, oracle_is_selfmap):
                calls.clear()
                route(phi)
                assert dict(calls) == {"svd": 1}, (seed, entry["kind"], route.__name__, calls)


def test_composition_calculus_svd_calls(monkeypatch):
    # Each map the calculus builds is checked by one SVD: one per multilinear
    # factor, one for the fold, the inverse and the composition phi o phi^-1.
    # A reflection is built and checked once per (size, swap) and then
    # shared, so after a warm-up factorization of the same map it costs
    # none.  A fold that builds a map for every partial product makes
    # 2 len(pieces) + 1.
    calls = count_calls(monkeypatch)
    gen = load_gen()
    for seed in (1, 2, 3):
        for entry in gen.factor_pullback(seed):
            phi = gen_map(entry)
            factors_to_maps(bruhat_factorize(phi.associated_matrix()))
            calls.clear()
            pieces = factors_to_maps(bruhat_factorize(phi.associated_matrix()))
            compose_factor_maps(pieces)
            compose(phi, invert(phi))
            multilinear = sum(f.kind == "multilinear" for f in pieces)
            assert calls["svd"] == multilinear + 3, (seed, entry["n"], len(pieces), calls["svd"])
