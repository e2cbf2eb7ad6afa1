"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single pass line on success; pytest reports the same
per-test verdict.  Random ensembles are seeded, so every run checks the
same maps.
"""

import contextlib
import io
import json
import time

import numpy as np

from ballmaps import (
    LFMap,
    ball_involution,
    bruhat_factorize,
    check,
    classical_disk_criterion,
    compose,
    compose_factor_maps,
    ellipsoid_sup_norm,
    factors_to_maps,
    from_associated_matrix,
    image_ellipsoid,
    involution_matrix,
    involution_matrix_inverse,
    krein_check,
    monte_carlo_sup,
    oracle_is_selfmap,
    row_criterion,
    transposition_matrix,
)
from ballmaps.cli import main as cli_main
from ballmaps.criterion import random_selfmap_shaped
from ballmaps.lfm import PoleError
from ballmaps.quadric import (
    evaluate_batch as quadric_evaluate_batch,
    from_standard_form,
    pullback_affine,
    pullback_reflection,
)

from conftest import random_unitary

WORKED = LFMap(np.diag([1.0, 2.0]), [1.0, 0.0], [-1.0, 0.0], 3.0)


def ball_points(rng, n, count, radius=0.5):
    g = rng.standard_normal((count, 2 * n))
    z = g[:, ::2] + 1j * g[:, 1::2]
    r = radius * rng.uniform(size=count) ** (1.0 / (2 * n))
    return z * (r / np.linalg.norm(z, axis=1))[:, None]


def proportionality_spread(got, want):
    """max relative deviation of entrywise ratios from the dominant one."""
    k = int(np.argmax(np.abs(want)))
    ratio = got.ravel()[k] / want.ravel()[k]
    return float(np.max(np.abs(got - ratio * want)) / (abs(ratio) * np.max(np.abs(want))))


def test_criterion_01_worked_example_rows():
    start = time.perf_counter()
    lhs, rhs, ok = row_criterion(WORKED)
    assert abs(lhs[0] - 64.0) <= 1e-9 * 64.0, f"row 1 = {lhs[0]}"
    assert abs(rhs - 64.0) <= 1e-9 * 64.0, f"rhs = {rhs}"
    assert abs(lhs[1] - 48.0) <= 1e-9 * 64.0, f"row 2 = {lhs[1]}"
    assert lhs[1] < lhs[0]
    assert bool(np.all(ok)), "worked example must pass the row test"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    print("criterion 1 (worked-example rows 64 and 48, self-map verdict): PASS")


def test_criterion_02_worked_example_oracle_and_classification():
    start = time.perf_counter()
    sup = ellipsoid_sup_norm(image_ellipsoid(WORKED))
    assert abs(sup - 1.0) <= 1e-9, f"sup = {sup}"
    mc = monte_carlo_sup(WORKED, 100_000, seed=20260822)
    assert 0.99 <= mc <= 1.0 + 1e-9, f"monte carlo sup = {mc}"
    report = check(WORKED)
    assert report.classification == "boundary_denjoy_wolff"
    np.testing.assert_allclose(report.fixed_point, [1.0, 0.0], atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f} s"
    print("criterion 2 (oracle sup 1, sampled sup in band, boundary point (1,0)): PASS")


def test_criterion_03_disk_criterion_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260803)
    collected = 0
    while collected < 2000:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = 0.7 * (rng.standard_normal() + 1j * rng.standard_normal())
        c = 0.6 * (rng.standard_normal() + 1j * rng.standard_normal())
        d = (abs(c) + 0.2 + abs(rng.standard_normal())) * np.exp(2j * np.pi * rng.uniform())
        phi = LFMap(np.array([[a]]), [b], [c], d)
        verdict, margin = classical_disk_criterion(phi)
        if abs(margin) <= 1e-6:
            continue
        collected += 1
        _, oracle = oracle_is_selfmap(phi)
        assert verdict == oracle, (
            f"classical and oracle disagree: margin {margin}, map {phi}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f} s"
    print("criterion 3 (2000 disk maps, classical verdict = oracle verdict): PASS")


def test_criterion_04_composition_homomorphism():
    rng = np.random.default_rng(20260804)
    checked_points = 0
    for i in range(500):
        n = 1 + i % 4
        mf = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        mg = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        f = from_associated_matrix(mf)
        g = from_associated_matrix(mg)
        h = compose(f, g)
        spread = proportionality_spread(h.associated_matrix(), mf @ mg)
        assert spread <= 1e-10, f"pair {i}: entry-ratio spread {spread:.3e}"
        for z in ball_points(rng, n, 50):
            try:
                inner = g(z)
                if np.linalg.norm(inner) > 100.0:
                    continue
                expected = f(inner)
            except PoleError:
                continue
            err = float(np.linalg.norm(h(z) - expected))
            assert err <= 1e-10, f"pair {i}: pointwise error {err:.3e}"
            checked_points += 1
    assert checked_points >= 22_000, f"only {checked_points} points were pole-safe"
    print("criterion 4 (500 composition pairs, matrices and values agree): PASS")


def test_criterion_05_factorization_suite():
    rng = np.random.default_rng(20260805)
    for i in range(100):
        n = 1 + i % 4
        m = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        phi = from_associated_matrix(m)
        maps = factors_to_maps(bruhat_factorize(m))
        for f in maps:
            am = f.map.associated_matrix()
            if f.kind == "reflection":
                assert np.array_equal(am, transposition_matrix(n + 1, *f.swap))
            else:
                assert f.kind == "multilinear"
                assert np.max(np.abs(np.tril(am, -1))) == 0.0
        rebuilt = compose_factor_maps(maps)
        spread = proportionality_spread(rebuilt.associated_matrix(), m)
        assert spread <= 1e-9, f"matrix {i}: recomposition spread {spread:.3e}"
        for z in ball_points(rng, n, 5):
            try:
                expected = phi(z)
            except PoleError:
                continue
            err = float(np.linalg.norm(rebuilt(z) - expected))
            assert err <= 1e-8, f"matrix {i}: evaluation error {err:.3e}"
    print("criterion 5 (100 factorizations recompose, factors are elementary): PASS")


def test_criterion_06_automorphism_suite():
    rng = np.random.default_rng(20260806)
    from ballmaps import BallAutomorphism, automorphism_to_lfmap

    for i in range(100):
        n = 1 + i % 4
        g = rng.standard_normal(2 * n)
        alpha = (g[::2] + 1j * g[1::2])
        alpha *= rng.uniform(0.05, 0.9) / np.linalg.norm(alpha)
        np.testing.assert_allclose(ball_involution(alpha, np.zeros(n)), alpha, atol=1e-12)
        np.testing.assert_allclose(ball_involution(alpha, alpha), np.zeros(n), atol=1e-12)
        phi = automorphism_to_lfmap(BallAutomorphism(alpha, random_unitary(n, rng)))
        for z in ball_points(rng, n, 5, radius=0.9):
            np.testing.assert_allclose(
                ball_involution(alpha, ball_involution(alpha, z)), z, atol=1e-12
            )
            zeta = z / np.linalg.norm(z)
            assert abs(np.linalg.norm(phi(zeta)) - 1.0) <= 1e-12
        ell = image_ellipsoid(phi)
        assert np.linalg.norm(ell.center) <= 1e-10, "automorphism image must be centered"
        defect = np.max(np.abs(ell.shape.conj().T @ ell.shape - np.eye(n)))
        assert defect <= 1e-10, f"shape not unitary: defect {defect:.3e}"
    print("criterion 6 (100 automorphisms: involution, sphere, centered unitary image): PASS")


def test_criterion_07_involution_matrix_inverse():
    rng = np.random.default_rng(20260807)
    for n in range(2, 7):
        for _ in range(50):
            g = rng.standard_normal(2 * n)
            alpha = (g[::2] + 1j * g[1::2])
            alpha *= rng.uniform(0.05, 0.95) / np.linalg.norm(alpha)
            prod = involution_matrix(alpha) @ involution_matrix_inverse(alpha)
            defect = float(np.max(np.abs(prod - np.eye(n))))
            assert defect <= 1e-12, f"N={n}: inverse defect {defect:.3e}"
    print("criterion 7 (closed-form involution-matrix inverse, N = 2..6): PASS")


def test_criterion_08_quadric_pullback_suite():
    rng = np.random.default_rng(20260808)
    for i in range(50):
        n = 1 + i % 4
        q = from_standard_form(
            rng.uniform(0.5, 2.0, size=n),
            0.5 * rng.standard_normal(n),
            0.5 * rng.standard_normal(n),
            -rng.uniform(0.5, 2.0),
        )
        pts = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
        small = np.abs(pts[:, -1]) < 0.1
        pts[small, -1] += 0.2

        qr = pullback_reflection(q)
        f_pts = pts.copy()
        f_pts[:, :-1] = pts[:, :-1] / pts[:, -1][:, None]
        f_pts[:, -1] = 1.0 / pts[:, -1]
        direct = quadric_evaluate_batch(q, f_pts) * np.abs(pts[:, -1]) ** 2
        resid = float(np.max(np.abs(quadric_evaluate_batch(qr, pts) - direct)))
        assert resid <= 1e-9, f"quadric {i}: reflection residual {resid:.3e}"

        for k in range(20):
            phi = LFMap(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                rng.standard_normal(n) + 1j * rng.standard_normal(n),
                np.zeros(n),
                1.0 + rng.uniform(),
            )
            qa = pullback_affine(q, phi)
            images = (pts @ phi.a.T + phi.b) / phi.d
            resid = float(
                np.max(
                    np.abs(quadric_evaluate_batch(qa, pts) - quadric_evaluate_batch(q, images))
                )
            )
            assert resid <= 1e-9, f"quadric {i}, map {k}: affine residual {resid:.3e}"
    print("criterion 8 (50 quadrics x 21 factor maps, pullback residual <= 1e-9): PASS")


def test_criterion_09_krein_soundness():
    rng_targets = np.random.default_rng(20260809)
    for i in range(500):
        n = 1 + i % 4
        rng = np.random.default_rng([99, i])
        if i % 2 == 0:
            target = rng_targets.uniform(0.4, 0.999)
        else:
            target = rng_targets.uniform(1.01, 2.0)
        phi = random_selfmap_shaped(n, rng, target)
        sup, oracle = oracle_is_selfmap(phi)
        if abs(sup - 1.0) <= 1e-6:
            continue
        feasible = krein_check(phi) is not None
        assert feasible == oracle, (
            f"map {i}: krein {'feasible' if feasible else 'infeasible'} "
            f"but oracle sup = {sup}"
        )
    print("criterion 9 (500 mixed maps, indefinite-metric test matches oracle): PASS")


def test_criterion_10_agreement_report():
    start = time.perf_counter()
    argv = ["agreement", "--count", "1000", "--seed", "20260822"]
    first = io.StringIO()
    with contextlib.redirect_stdout(first):
        assert cli_main(argv) == 0
    second = io.StringIO()
    with contextlib.redirect_stdout(second):
        assert cli_main(argv) == 0
    assert first.getvalue() == second.getvalue(), "report must be byte-deterministic"
    doc = json.loads(first.getvalue())
    assert doc["count"] == 1000 and len(doc["rows"]) == 1000
    s = doc["summary"]
    assert s["agree"] + s["disagree"] == 1000
    assert s["both_true"] + s["both_false"] + s["criterion_only"] + s["oracle_only"] == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f} s"
    print("criterion 10 (1000-map agreement table, deterministic, on time): PASS")
