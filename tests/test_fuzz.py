"""A seeded fuzz of the public API and the command line, and the scale rule
checked on its outputs.

Every public function and every CLI command (in process, through cli.main)
is called on the benchmark's check-mixed maps and on random pole-free,
pole-bearing, singular, non-finite and misshapen inputs, all drawn from
numpy's generator with fixed seeds.  Only BallmapsError subclasses may come
out; pytest turns any warning into an error, so a numpy warning fails too.

A multiple of a map is the same map (lfm's scale rule): at 2^k times the
coefficients every scale-free output keeps its bits, and each output stated
at the coefficients' scale is the unit one times 2^(degree k), exactly.
Past the range of doubles (k = +-500) such an output may instead underflow
towards 0 or be refused with _stated's ContractViolation.
"""

import inspect
import json
import math
import struct
import sys

import numpy as np

import ballmaps
from ballmaps import BallmapsError, ContractViolation, LFMap, cli
from ballmaps.criterion import random_pole_free_map

from conftest import coefficient_map, exact_multiples, gen_map, load_gen, random_unitary

SEED = 20261022
SPHERE = {"alphas": [1.0, 1.0], "betas": [0.0, 0.0], "gammas": [0.0, 0.0], "delta": -1.0}


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pole_bearing_map(rng, n):
    """A random map with |d| <= |c| = 1: a pole on or inside the closed ball."""
    phi = random_pole_free_map(n, rng)
    d = rng.choice([1.0, rng.uniform(0.0, 1.0)]) * np.exp(2j * np.pi * rng.uniform())
    return LFMap(phi.a, phi.b, phi.c / np.linalg.norm(phi.c), d)


def singular_matrix(rng, n):
    """An (n+1)-square matrix of rank n, or singular to working precision."""
    u, v = random_unitary(n + 1, rng), random_unitary(n + 1, rng)
    sigma = rng.uniform(0.5, 2.0, n + 1)
    sigma[-1] = rng.choice([0.0, 1e-18])
    return (u * sigma) @ v.conj().T


class Fuzz:
    """Calls public functions by name and keeps the names it called.

    A BallmapsError is returned, not raised; anything else fails the test."""

    def __init__(self):
        self.called = set()

    def __call__(self, name, *args, **kwargs):
        self.called.add(name)
        try:
            return getattr(ballmaps, name)(*args, **kwargs)
        except BallmapsError as exc:
            return exc


def ok(value):
    return not isinstance(value, BallmapsError)


def exercise_map(call, phi, rng):
    """Every route that takes a map, on phi."""
    n = phi.dim
    points = complex_normal(rng, 5, n) * rng.choice([0.3, 1.0, 3.0])
    report = call("check", phi)
    sup = call("oracle_is_selfmap", phi)
    call("row_criterion", phi)
    call("krein_check", phi)
    call("classify_fixed_point", phi, sup[0] if ok(sup) else rng.uniform(0.5, 1.5))
    ell = call("image_ellipsoid", phi)
    if ok(ell):
        call("ellipsoid_sup_norm", ell)
        call("EllipsoidImage", ell.center, ell.shape)
    call("evaluate", phi, points[0])
    call("evaluate_batch", phi, points)
    call("monte_carlo_sup", phi, 16, int(rng.integers(2**31)))
    call("classical_disk_criterion", phi)
    call("compose", phi, phi)
    call("invert", phi)
    m = phi.associated_matrix()
    call("from_associated_matrix", m)
    factors = call("bruhat_factorize", m)
    q = ballmaps.from_standard_form(*(rng.standard_normal(n) for _ in range(3)), rng.standard_normal())
    if ok(factors):
        pieces = call("factors_to_maps", factors)
        call("compose_factor_maps", pieces)
        call("permutation_to_transpositions", factors.perm)
        call("pullback_chain", q, pieces)
    call("pullback_map", q, phi)
    call("pullback_affine", q, phi)
    call("pullback_swap", q, *sorted(rng.choice(n + 1, 2, replace=False).tolist()))
    call("pullback_reflection", q)
    call("residual", q, points)
    return report


def maps_to_fuzz(rng):
    """The check-mixed maps of one seed, then random pole-free,
    pole-bearing and ill-conditioned maps of every dimension."""
    maps = [gen_map(e) for e in load_gen().check_mixed(SEED % 1000)]
    for n in range(1, 9):
        maps.append(random_pole_free_map(n, rng))
        maps.append(pole_bearing_map(rng, n))
        ill = singular_matrix(rng, n)
        ill += 1e-13 * complex_normal(rng, n + 1, n + 1)
        maps.append(ballmaps.from_associated_matrix(ill))
    return maps


def test_fuzz_raises_only_ballmaps_errors():
    rng = np.random.default_rng(SEED)
    call = Fuzz()
    maps = maps_to_fuzz(rng)
    reports = [exercise_map(call, phi, rng) for phi in maps]
    assert sum(ok(r) for r in reports) > len(maps) // 2
    assert any(isinstance(r, ballmaps.PoleError) for r in reports)
    for n in range(1, 9):
        phi = random_pole_free_map(n, rng)
        a, b, c, d = phi.associated_matrix()[:n, :n], phi.b.copy(), phi.c.copy(), phi.d
        # singular maps, exactly or to working precision
        for m in (singular_matrix(rng, n), np.zeros((n + 1, n + 1))):
            singular = call("LFMap", m[:n, :n], m[:n, n], np.conj(m[n, :n]), m[n, n])
            call("from_associated_matrix", m)
            call("bruhat_factorize", m)
        assert isinstance(singular, ballmaps.DegenerateMapError)
        # non-finite entries, one coefficient at a time
        for bad in (np.nan, np.inf, -np.inf, complex(np.nan, 1.0)):
            args = [a.copy(), b.copy(), c.copy(), d]
            which = int(rng.integers(4))
            if which == 3:
                args[3] = bad
            else:
                args[which].flat[int(rng.integers(args[which].size))] = bad
            assert isinstance(call("LFMap", *args), ContractViolation)
            m = np.eye(n + 1, dtype=complex)
            m[int(rng.integers(n + 1)), int(rng.integers(n + 1))] = bad
            for name in ("from_associated_matrix", "bruhat_factorize"):
                assert isinstance(call(name, m), ContractViolation), name
            point = complex_normal(rng, n)
            point[0] = bad
            for name, args in (
                ("evaluate", (phi, point)),
                ("ball_involution", (np.full(n, bad), point.real)),
                ("Quadric", (np.eye(2 * n), np.full(2 * n, bad.real), -1.0)),
                ("from_standard_form", (np.ones(n), np.zeros(n), np.zeros(n), bad.real)),
                ("EllipsoidImage", (np.full(n, bad), np.eye(n))),
            ):
                assert isinstance(call(name, *args), ContractViolation), name
        # misshapen inputs
        other = random_pole_free_map(n + 1, rng)
        wide = ballmaps.from_standard_form(np.ones(n + 1), np.zeros(n + 1), np.zeros(n + 1), -1.0)
        for args in ((a, b[:-1], c, d), (a[:, :-1], b, c, d), (a, b, c, [d, d]), (a[None], b, c, d)):
            assert not ok(call("LFMap", *args))
        for name, args in (
            ("compose", (phi, other)),
            ("evaluate_batch", (phi, complex_normal(rng, 3, n + 1))),
            ("evaluate", (phi, np.zeros((n, n)))),
            ("from_associated_matrix", (complex_normal(rng, n + 1, n + 2),)),
            ("bruhat_factorize", (complex_normal(rng, n, n + 1),)),
            ("pullback_map", (wide, phi)),
            ("BallAutomorphism", (np.zeros(n + 1), np.eye(n))),
            ("EllipsoidImage", (np.zeros(n), np.eye(n + 1))),
            ("sphere_points", (4, 0, 1)),
        ):
            assert not ok(call(name, *args)), name
        # points of the ball, its sphere and beyond, and alpha = 0
        for radius in (0.0, 0.5, 1.0, 1.5):
            alpha = radius * np.exp(2j * np.pi * rng.uniform()) * np.eye(n)[0]
            u = random_unitary(n, rng)
            aut = call("BallAutomorphism", alpha, u)
            if ok(aut):
                call("automorphism_to_lfmap", aut)
            call("BallAutomorphism", alpha, 2.0 * u)
            call("ball_involution", alpha, complex_normal(rng, n))
            call("involution_matrix", alpha)
            call("involution_matrix_inverse", alpha)
        call("krein_metric", n)
        call("transposition_matrix", n + 1, *rng.integers(-1, n + 3, 2).tolist())
        call("permutation_to_transpositions", rng.permutation(n + 1).tolist())
        call("permutation_to_transpositions", rng.integers(0, n + 1, n + 1).tolist())
        call("sphere_points", int(rng.integers(-2, 20)), n, int(rng.integers(2**31)))
        call("monte_carlo_sup", phi, int(rng.integers(-2, 2)), 1)
    call("agreement_table", 4, SEED)
    public = {
        name
        for name in ballmaps.__all__
        if inspect.isfunction(getattr(ballmaps, name))
    } | {"LFMap", "Quadric", "BallAutomorphism", "EllipsoidImage"}
    assert public <= call.called, public - call.called


def write(path, doc):
    path.write_text(doc if isinstance(doc, str) else cli.serialize(doc))
    return str(path)


def test_fuzz_cli_exits_with_its_codes(tmp_path, capsys):
    # Each command on good, pole-bearing, singular, non-finite and misshapen
    # map files: exit 0 with one JSON document on stdout, or exit 2 or 3
    # with one JSON line on stderr.
    rng = np.random.default_rng(SEED + 1)
    mixed = load_gen().check_mixed(SEED % 1000)
    files = [
        write(tmp_path / f"mixed{i}.json", cli.dump_mapfile(gen_map(e)))
        for i, e in enumerate(mixed[1::5])
    ]
    n = 2
    good = cli.dump_mapfile(random_pole_free_map(n, rng))
    files.append(write(tmp_path / "poles.json", cli.dump_mapfile(pole_bearing_map(rng, n))))
    m = singular_matrix(rng, n)
    singular = {"N": n, "A": m[:n, :n], "B": m[:n, n], "C": np.conj(m[n, :n]), "D": m[n, n]}
    files.append(write(tmp_path / "singular.json", singular))
    text = cli.serialize(good)
    head = text.rsplit('"D": ', 1)[0]
    for name, value in (("nan", "[NaN, 0]"), ("inf", "[0, -Infinity]"), ("big", "[1e999999, 0]")):
        files.append(write(tmp_path / f"{name}.json", head + f'"D": {value}}}'))
    files.append(write(tmp_path / "shape.json", {**good, "N": n + 1}))
    files.append(write(tmp_path / "missing.json", {k: v for k, v in good.items() if k != "C"}))
    files.append(write(tmp_path / "broken.json", text[:-3]))
    files.append(str(tmp_path / "absent.json"))
    quadrics = [
        write(tmp_path / "sphere.json", SPHERE),
        write(tmp_path / "quadric_nan.json", json.dumps({**SPHERE, "delta": math.nan})),
        write(tmp_path / "quadric_raw.json", {"S": np.eye(2 * n), "b": np.zeros(2 * n), "c": -1.0}),
    ]
    commands = set()
    codes = []
    for path in files:
        for name, _, positionals, _ in cli._COMMANDS:
            commands.add(name)
            argv = [name] + [path] * len(positionals)
            if name == "sample":
                argv += ["--n", "16", "--seed", str(int(rng.integers(2**31)))]
            elif name == "quadric":
                argv += ["--quadric", quadrics[int(rng.integers(len(quadrics)))]]
            elif name == "agreement":
                count, seed = rng.integers(0, 3), rng.integers(2**31)
                argv += ["--count", str(int(count)), "--seed", str(int(seed))]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            codes.append(code)
            assert code in (0, 2, 3), argv
            if code == 0:
                assert err == "" and out.endswith("\n") and out.count("\n") == 1, argv
                json.loads(out)
            else:
                assert out == "" and err.count("\n") == 1, argv
                assert json.loads(err)["error"] in ("malformed_input", "pole_on_ball", "degenerate_map")
    assert commands == {name for name, *_ in cli._COMMANDS}
    assert {0, 2, 3} <= set(codes)


def bits(x):
    """The bytes of an output, type for type: arrays with dtype and shape,
    floats and complex numbers by their IEEE bits."""
    if x is None or isinstance(x, (bool, str, int)):
        return (type(x).__name__, x)
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, complex):
        return ("complex", struct.pack("<dd", x.real, x.imag))
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(bits(y) for y in x))
    if isinstance(x, LFMap):
        return ("map", bits(x._m))
    if isinstance(x, ballmaps.FactorMap):
        return ("factor", x.kind, x.swap, bits(x.map))
    raise TypeError(type(x))


def real_parts(x) -> list:
    """The floats of a float or an array, complex entries as two each."""
    x = np.ascontiguousarray(x)
    return (x.view(np.float64) if np.iscomplexobj(x) else x).ravel().tolist()


def stated(scaled, unit, degree, k):
    """An output stated at the coefficients' scale, at 2^k times them:
    unit times 2^(degree k) exactly, or towards 0 where that is below the
    smallest normal double.  scaled is a float, an array or the
    ContractViolation raised for it; a refusal must be _stated's, and only
    where the exact value passes the largest double."""
    try:
        exact = [math.ldexp(x, degree * k) for x in real_parts(unit)]
    except OverflowError:
        assert isinstance(scaled, ContractViolation), (k, degree, unit)
        assert "passes the largest double" in str(scaled)
        return
    assert ok(scaled), (k, degree, scaled)
    got = real_parts(scaled)
    assert len(got) == len(exact)
    for x, y in zip(got, exact):
        assert x == y or (abs(y) < sys.float_info.min and abs(x) <= sys.float_info.min), (k, x, y)


def scale_maps():
    """check-mixed maps of one seed and random pole-free maps."""
    rng = np.random.default_rng(SEED + 2)
    maps = [gen_map(e) for e in load_gen().check_mixed(SEED % 1000 + 1)]
    return maps + [random_pole_free_map(n, rng) for n in range(1, 9) for _ in range(2)]


def test_fuzz_outputs_follow_the_scale_rule():
    call = Fuzz()
    for phi in scale_maps():
        m = phi.associated_matrix()
        report = call("check", phi)
        sup = call("oracle_is_selfmap", phi)
        rows = call("row_criterion", phi)
        t = call("krein_check", phi)
        kind = call("classify_fixed_point", phi, sup[0])
        ell = call("image_ellipsoid", phi)
        maps = [call("compose", phi, phi), call("invert", phi)]
        factors = call("bruhat_factorize", m)
        disc = call("classical_disk_criterion", phi) if phi.dim == 1 else None
        assert ok(report) and ok(rows) and ok(kind) and ok(ell) and ok(factors)
        scale_free = (
            [report.row_verdict, report.criterion_selfmap, report.oracle_sup]
            + [report.oracle_selfmap, report.classification, report.fixed_point]
            + [report.discrepancy_flag, sup, rows[2], kind, ell.center, ell.shape, maps]
            + [factors.left_unipotent, factors.perm, factors.right_unipotent]
            + [call("factors_to_maps", factors)]
        )
        for k, mk in exact_multiples(m, (1, -1, 40, -40, 500, -500)):
            scaled = coefficient_map(mk)
            sup_k = call("oracle_is_selfmap", scaled)
            report_k = call("check", scaled)
            rows_k = call("row_criterion", scaled)
            kind_k = call("classify_fixed_point", scaled, sup_k[0])
            ell_k = call("image_ellipsoid", scaled)
            factors_k = call("bruhat_factorize", mk)
            t_k = call("krein_check", scaled)
            maps_k = [
                call("compose", scaled, scaled),
                call("invert", scaled),
                call("compose", scaled, phi),
                call("compose", phi, scaled),
            ]
            assert bits(maps_k[0]) == bits(maps_k[2]) == bits(maps_k[3]), k
            if abs(k) < 500:
                # in range: every output, stated ones included, exactly
                assert ok(report_k) and ok(rows_k), k
                rescaled = [
                    report_k.row_lhs, report_k.rhs, report_k.krein_t, rows_k[0], rows_k[1],
                    t_k, factors_k.diag,
                ]
                expected = [
                    tuple(math.ldexp(x, 4 * k) for x in report.row_lhs), math.ldexp(report.rhs, 4 * k),
                    None if t is None else math.ldexp(t, -k), rows[0] * 2.0 ** (4 * k),
                    math.ldexp(rows[1], 4 * k), None if t is None else math.ldexp(t, -k),
                    factors.diag * 2.0**k,
                ]
                assert bits(rescaled) == bits(expected), k
            else:
                # stated outputs rescale, underflow or are refused
                stated(rows_k[0] if ok(rows_k) else rows_k, rows[0], 4, k)
                stated(rows_k[1] if ok(rows_k) else rows_k, rows[1], 4, k)
                if t is None:
                    assert t_k is None, k
                else:
                    stated(t_k, t, -1, k)
                stated(factors_k.diag, factors.diag, 1, k)
                if disc is not None:
                    disc_k = call("classical_disk_criterion", scaled)
                    assert disc_k[0] == disc[0], k
                    stated(disc_k[1], disc[1], 2, k)
                assert ok(report_k) == ok(rows_k), k
            if ok(report_k):
                report_fields = [
                    report_k.row_verdict, report_k.criterion_selfmap, report_k.oracle_sup,
                    report_k.oracle_selfmap, report_k.classification, report_k.fixed_point,
                    report_k.discrepancy_flag,
                ]
            else:
                report_fields = scale_free[:7]
            scale_free_k = report_fields + [
                sup_k, rows_k[2] if ok(rows_k) else rows[2], kind_k, ell_k.center, ell_k.shape,
                maps_k[:2], factors_k.left_unipotent, factors_k.perm, factors_k.right_unipotent,
                call("factors_to_maps", factors_k),
            ]
            assert bits(scale_free_k) == bits(scale_free), k
