"""LAPACK calls on the benchmark's own check-mixed, oracle-sweep and
factor-pullback maps.

The benchmark times check(), the row test and the oracle, and the
composition calculus on these maps, so a change that adds decompositions
to them (a search brought back beside the Krein test, or a fold that
checks every partial product, say) shows up in the benchmark's
throughput.  These tests catch it in the unit tests already: they count
the decompositions that one operation makes through ballmaps.linalg, the
package's one door to LAPACK, against ceilings a little above the counts
of the current code; numpy.linalg's own functions fail the test while an
operation is counted.  They only read benchmark/gen.py.
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

from conftest import gen_map, lapack_calls, load_gen

# Mean calls per check() over seeds 1-3; the current code makes interior
# 6.7, parabolic 6.0 (the worked map and its scaled copies, and the pure
# translations, included), hyperbolic 5.0 and non-self-map 2.0.
CEILING = {"interior": 6.9, "parabolic": 6.2, "hyperbolic": 5.2, "nonself": 2.2}


def entries(workload):
    """(seed, entry, map) for seeds 1-3 of a benchmark/gen.py workload."""
    gen = load_gen()
    return [(seed, e, gen_map(e)) for seed in (1, 2, 3) for e in getattr(gen, workload)(seed)]


def test_check_lapack_calls_per_kind():
    per_kind = collections.defaultdict(list)
    for seed, entry, phi in entries("check_mixed"):
        record = []
        with lapack_calls(record) as calls:
            report = check(phi)
        per_kind[entry["kind"]].append(sum(calls.values()))
        assert (report.krein_t is None) == (entry["kind"] == "nonself"), entry
        # Every eigh is of an (N+1)-square pencil; the least J-form on an
        # eigenspace is in closed form, with no eigh of a Gram matrix.
        eigh_shapes = [a.shape for name, a in record if name == "eigh"]
        size = (phi.dim + 1, phi.dim + 1)
        assert all(shape == size for shape in eigh_shapes), (seed, entry["kind"], eigh_shapes)
    assert set(per_kind) == set(CEILING)
    for kind, counts in per_kind.items():
        assert np.mean(counts) <= CEILING[kind], (kind, np.mean(counts))


def test_classify_takes_no_svd_for_simple_eigenvalues():
    # The fixed point of an interior or hyperbolic map belongs to a simple
    # eigenvalue of m: eig's own eigenvector serves, with no SVD.
    for seed, entry, phi in entries("check_mixed"):
        if entry["kind"] not in ("interior", "hyperbolic"):
            continue
        sup, _ = oracle_is_selfmap(phi)
        with lapack_calls() as calls:
            classify_fixed_point(phi, sup)
        assert calls["eig"] == 1 and calls["svd"] == 0, (seed, entry["kind"], entry["n"], calls)


def test_oracle_sweep_factors_each_ellipsoid_once():
    # The image ellipsoid carries its one SVD: the degeneracy test and the
    # sup-norm solve both read it.
    for seed, entry, phi in entries("oracle_sweep"):
        for route in (row_criterion, oracle_is_selfmap):
            with lapack_calls() as calls:
                route(phi)
            assert dict(calls) == {"svd": 1}, (seed, entry["kind"], route.__name__, calls)


def test_composition_calculus_svd_calls():
    # Each map the calculus builds is checked by one SVD: one per multilinear
    # factor, one for the fold, the inverse and the composition phi o phi^-1.
    # A reflection is built and checked once per (size, swap) and then
    # shared, so after a warm-up factorization of the same map it costs
    # none.  A fold that builds a map for every partial product makes
    # 2 len(pieces) + 1.
    for seed, entry, phi in entries("factor_pullback"):
        factors_to_maps(bruhat_factorize(phi.associated_matrix()))
        with lapack_calls() as calls:
            pieces = factors_to_maps(bruhat_factorize(phi.associated_matrix()))
            compose_factor_maps(pieces)
            compose(phi, invert(phi))
        multilinear = sum(f.kind == "multilinear" for f in pieces)
        assert calls["svd"] == multilinear + 3, (seed, entry["n"], len(pieces), calls["svd"])
