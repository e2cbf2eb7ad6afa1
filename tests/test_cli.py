"""JSON command-line interface: output format, determinism, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ballmaps import (
    ContractViolation,
    __version__,
    bruhat,
    compose,
    criterion,
    geometry,
    invert,
    quadric,
)
from ballmaps.cli import dump_mapfile, load_mapfile, main, serialize

from conftest import random_ball_point

WORKED = {
    "N": 2,
    "A": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
    "B": [[1, 0], [0, 0]],
    "C": [[-1, 0], [0, 0]],
    "D": [3, 0],
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_serialize_is_deterministic_json():
    doc = {"x": 1.0 / 3.0, "z": complex(1, -2), "flag": True, "none": None, "v": [1, 2]}
    text = serialize(doc)
    assert text == serialize(doc)
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0 and parsed["z"] == [1.0, -2.0]
    assert parsed["flag"] is True and parsed["none"] is None


@pytest.mark.parametrize("value", [float("nan"), {"x": [complex(1.0, float("inf"))]}, object()])
def test_serialize_refuses_what_json_cannot_hold(value):
    with pytest.raises(ContractViolation):
        serialize(value)


def test_check_command(capsys, worked_file):
    code, out, err = run_cli(capsys, ["check", worked_file])
    assert code == 0 and err == ""
    doc = json.loads(out)
    np.testing.assert_allclose(doc["row_lhs"], [64.0, 48.0], atol=1e-9)
    assert abs(doc["rhs"] - 64.0) < 1e-9
    assert doc["row_verdict"] == [True, True]
    assert doc["criterion_selfmap"] and doc["oracle_selfmap"]
    assert abs(doc["oracle_sup"] - 1.0) < 1e-9
    assert doc["classification"] == "boundary_denjoy_wolff"
    np.testing.assert_allclose(doc["fixed_point"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert not doc["discrepancy_flag"]
    assert doc["meta"]["tool"] == "ballmaps"
    assert doc["meta"]["tolerances"]["row_tol"] == 1e-10


@pytest.mark.parametrize(
    "argv, tolerances",
    [
        (["check", None], {"row_tol": 1e-10, "oracle_tol": 1e-9, "krein_tol": 1e-10}),
        (["krein", None], {"krein_tol": 1e-10}),
        (["decompose", None], {"pivot_tol": 1e-12}),
        (["agreement", "--count", "2"], {"row_tol": 1e-10, "oracle_tol": 1e-9}),
    ],
)
def test_meta_echoes_the_module_tolerances(capsys, worked_file, argv, tolerances):
    # literal values, so a change to a tolerance constant fails here
    argv = [worked_file if a is None else a for a in argv]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["meta"]["tolerances"] == tolerances
    constants = {
        "row_tol": criterion.ROW_REL_TOL,
        "oracle_tol": criterion.ORACLE_TOL,
        "krein_tol": criterion.KREIN_PSD_TOL,
        "pivot_tol": bruhat.PIVOT_TOL,
    }
    assert tolerances == {k: constants[k] for k in tolerances}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", "--row-tol"),
        ("check", "--oracle-tol"),
        ("check", "--krein-tol"),
        ("krein", "--krein-tol"),
        ("decompose", "--pivot-tol"),
    ],
)
def test_tolerance_flags_are_rejected(capsys, worked_file, command, flag):
    # tolerances are fixed by the program, not set per call
    with pytest.raises(SystemExit) as exc:
        main([command, worked_file, flag, "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_output_byte_identical(capsys, worked_file):
    _, first, _ = run_cli(capsys, ["check", worked_file])
    _, second, _ = run_cli(capsys, ["check", worked_file])
    assert first == second


def _meta(tolerances, seed=None):
    return {"tool": "ballmaps", "version": __version__, "seed": seed, "tolerances": tolerances}


def _map_layout(phi):
    return {
        "N": phi.dim,
        "A": [[complex(v) for v in row] for row in phi.a],
        "B": [complex(v) for v in phi.b],
        "C": [complex(v) for v in phi.c],
        "D": complex(phi.d),
    }


def _expected_documents(phi):
    """Each command's document, built from library calls in the CLI's
    layout: key order, nested lists and meta."""
    report = criterion.check(phi)
    ell = geometry.image_ellipsoid(phi)
    psd, unitary = ell.polar_factors()
    factors = bruhat.factors_to_maps(bruhat.bruhat_factorize(phi.associated_matrix()))
    recomposed = bruhat.compose_factor_maps(factors).associated_matrix()
    original = phi.associated_matrix()
    k = int(np.argmax(np.abs(original)))
    ratio = recomposed.ravel()[k] / original.ravel()[k]
    sphere = quadric.from_standard_form([1, 1], [0, 0], [0, 0], -1)
    pulled = quadric.pullback_map(sphere, phi)
    table = criterion.agreement_table(4, 20260822)
    rows = table["rows"]
    keys = ["index", "dim", "criterion_selfmap", "oracle_selfmap", "oracle_sup", "max_row_excess", "agree"]
    crit = [r["criterion_selfmap"] for r in rows]
    orc = [r["oracle_selfmap"] for r in rows]
    return {
        "check": {
            "row_lhs": list(report.row_lhs),
            "rhs": report.rhs,
            "row_verdict": list(report.row_verdict),
            "criterion_selfmap": report.criterion_selfmap,
            "oracle_sup": report.oracle_sup,
            "oracle_selfmap": report.oracle_selfmap,
            "krein_t": report.krein_t,
            "classification": report.classification,
            "fixed_point": list(report.fixed_point),
            "discrepancy_flag": report.discrepancy_flag,
            "meta": _meta({"row_tol": 1e-10, "oracle_tol": 1e-9, "krein_tol": 1e-10}),
        },
        "image": {
            "center": [complex(v) for v in ell.center],
            "shape": [[complex(v) for v in row] for row in ell.shape],
            "polar_psd": [[complex(v) for v in row] for row in psd],
            "polar_unitary": [[complex(v) for v in row] for row in unitary],
            "meta": _meta({}),
        },
        "supnorm": {"sup": geometry.ellipsoid_sup_norm(ell), "meta": _meta({})},
        "decompose": {
            "factors": [
                {
                    "kind": f.kind,
                    "swap": None if f.swap is None else list(f.swap),
                    "map": _map_layout(f.map),
                }
                for f in factors
            ],
            "recomposition_residual": float(np.max(np.abs(recomposed / ratio - original))),
            "meta": _meta({"pivot_tol": 1e-12}),
        },
        "compose": _map_layout(compose(phi, phi)),
        "invert": _map_layout(invert(phi)),
        "krein": {"t": criterion.krein_check(phi), "meta": _meta({"krein_tol": 1e-10})},
        "sample": {
            "monte_carlo_sup": criterion.monte_carlo_sup(phi, 1000, 7),
            "n": 1000,
            "meta": _meta({}, seed=7),
        },
        "quadric": {
            "S": [[float(v) for v in row] for row in pulled.s],
            "b": [float(v) for v in pulled.b],
            "c": pulled.c,
            "meta": _meta({}),
        },
        "agreement": {
            "count": 4,
            "seed": 20260822,
            "rows": [{key: r[key] for key in keys} for r in rows],
            "summary": {
                "agree": sum(a == b for a, b in zip(crit, orc)),
                "disagree": sum(a != b for a, b in zip(crit, orc)),
                "both_true": sum(a and b for a, b in zip(crit, orc)),
                "both_false": sum(not a and not b for a, b in zip(crit, orc)),
                "criterion_only": sum(a and not b for a, b in zip(crit, orc)),
                "oracle_only": sum(b and not a for a, b in zip(crit, orc)),
            },
            "meta": _meta({"row_tol": 1e-10, "oracle_tol": 1e-9}, seed=20260822),
        },
    }


def test_each_command_prints_its_documented_layout(capsys, tmp_path, worked_file):
    sphere = tmp_path / "sphere.json"
    sphere.write_text(
        json.dumps({"alphas": [1, 1], "betas": [0, 0], "gammas": [0, 0], "delta": -1})
    )
    argv = {
        "check": ["check", worked_file],
        "image": ["image", worked_file],
        "supnorm": ["supnorm", worked_file],
        "decompose": ["decompose", worked_file],
        "compose": ["compose", worked_file, worked_file],
        "invert": ["invert", worked_file],
        "krein": ["krein", worked_file],
        "sample": ["sample", worked_file, "--n", "1000", "--seed", "7"],
        "quadric": ["quadric", worked_file, "--quadric", str(sphere)],
        "agreement": ["agreement", "--count", "4"],
    }
    expected = _expected_documents(load_mapfile(worked_file))
    assert expected.keys() == argv.keys()
    for command, args in argv.items():
        code, out, err = run_cli(capsys, args)
        assert (code, err) == (0, ""), command
        assert out == serialize(expected[command]) + "\n", command


def test_image_command(capsys, worked_file):
    code, out, _ = run_cli(capsys, ["image", worked_file])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["center"], [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)
    shape = np.array(doc["shape"])[:, :, 0]
    np.testing.assert_allclose(shape, np.diag([-0.5, -np.sqrt(2.0) / 2]), atol=1e-12)
    psd = np.array(doc["polar_psd"])[:, :, 0]
    np.testing.assert_allclose(psd, np.diag([0.5, np.sqrt(2.0) / 2]), atol=1e-12)
    unitary = np.array(doc["polar_unitary"])[:, :, 0]
    np.testing.assert_allclose(unitary, -np.eye(2), atol=1e-12)


def test_supnorm_command(capsys, worked_file):
    code, out, _ = run_cli(capsys, ["supnorm", worked_file])
    assert code == 0
    assert abs(json.loads(out)["sup"] - 1.0) < 1e-9


def test_check_refuses_coefficients_too_large_for_its_rows(capsys, tmp_path):
    # the rows are stated at the coefficients' scale, which passes 1e308
    # at 1e80; the exact sup needs no such scale
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({k: np.multiply(v, 1e80).tolist() if k != "N" else v for k, v in WORKED.items()})
    )
    code, out, err = run_cli(capsys, ["check", str(big)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "malformed_input"
    code, out, _ = run_cli(capsys, ["supnorm", str(big)])
    assert code == 0
    assert abs(json.loads(out)["sup"] - 1.0) < 1e-9


def test_decompose_command(capsys, tmp_path, worked_file):
    code, out, _ = run_cli(capsys, ["decompose", worked_file])
    assert code == 0
    doc = json.loads(out)
    kinds = [f["kind"] for f in doc["factors"]]
    assert kinds == ["multilinear", "reflection", "multilinear", "multilinear"]
    assert doc["factors"][1]["swap"] == [0, 2]
    assert doc["recomposition_residual"] <= 1e-9
    # each emitted factor is itself a loadable map file
    for k, f in enumerate(doc["factors"]):
        sub = tmp_path / f"factor{k}.json"
        sub.write_text(json.dumps(f["map"]))
        load_mapfile(str(sub))


def test_compose_and_invert_round_trip(capsys, tmp_path, worked_file):
    code, out, _ = run_cli(capsys, ["invert", worked_file])
    assert code == 0
    inv_file = tmp_path / "inv.json"
    inv_file.write_text(out)

    code, out, _ = run_cli(capsys, ["compose", str(inv_file), worked_file])
    assert code == 0
    both_file = tmp_path / "both.json"
    both_file.write_text(out)
    both = load_mapfile(str(both_file))
    rng = np.random.default_rng(71)
    for _ in range(10):
        z = random_ball_point(rng, 2)
        np.testing.assert_allclose(both(z), z, atol=1e-10)

    phi = load_mapfile(worked_file)
    direct = invert(phi)
    emitted = load_mapfile(str(inv_file))
    np.testing.assert_allclose(
        emitted.associated_matrix(), direct.associated_matrix(), atol=1e-12
    )
    identity = compose(emitted, phi)
    np.testing.assert_allclose(identity.associated_matrix(), np.eye(3), atol=1e-12)


def test_krein_command(capsys, tmp_path, worked_file):
    code, out, _ = run_cli(capsys, ["krein", worked_file])
    assert code == 0
    t = json.loads(out)["t"]
    assert t is not None and 0.3 < t < 0.7

    double = tmp_path / "double.json"
    double.write_text(
        json.dumps({"N": 1, "A": [[[2, 0]]], "B": [[0, 0]], "C": [[0, 0]], "D": [1, 0]})
    )
    code, out, _ = run_cli(capsys, ["krein", str(double)])
    assert code == 0
    assert json.loads(out)["t"] is None


def test_check_and_krein_on_a_near_sphere_contraction(capsys, tmp_path):
    # psi_p o (z / 2) o psi_p with p = 1 - 1e-6: a finite Krein scale
    near = tmp_path / "near.json"
    near.write_text(
        json.dumps(
            {
                "N": 1,
                "A": [[[-0.4999980000009999, 0]]],
                "B": [[0.4999995, 0]],
                "C": [[-0.4999995, 0]],
                "D": [0.5000009999995001, 0],
            }
        )
    )
    code, out, err = run_cli(capsys, ["check", str(near)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["classification"] == "interior_fixed_point"
    assert doc["krein_t"] is not None
    code, out, err = run_cli(capsys, ["krein", str(near)])
    assert code == 0 and err == ""
    assert json.loads(out)["t"] == doc["krein_t"]


def test_sample_command_deterministic(capsys, worked_file):
    argv = ["sample", worked_file, "--n", "20000", "--seed", "20260822"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(first)
    assert 0.9 < doc["monte_carlo_sup"] <= 1.0 + 1e-9
    assert doc["n"] == 20000
    assert doc["meta"]["seed"] == 20260822
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_sample_needs_at_least_one_point(capsys, worked_file):
    code, out, err = run_cli(capsys, ["sample", worked_file, "--n", "0", "--seed", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"


def test_sample_requires_seed(capsys, worked_file):
    with pytest.raises(SystemExit):
        main(["sample", worked_file, "--n", "10"])
    capsys.readouterr()


def test_quadric_command(capsys, tmp_path, worked_file):
    qfile = tmp_path / "sphere.json"
    qfile.write_text(
        json.dumps({"alphas": [1, 1], "betas": [0, 0], "gammas": [0, 0], "delta": -1})
    )
    code, out, _ = run_cli(capsys, ["quadric", worked_file, "--quadric", str(qfile)])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["S"], np.diag([0.0, 0.0, 4.0, 4.0]), atol=1e-12)
    np.testing.assert_allclose(doc["b"], [8.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert abs(doc["c"] + 8.0) < 1e-12

    # raw S, b, c input form round trips through the same command
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"S": doc["S"], "b": doc["b"], "c": doc["c"]}))
    code, out, _ = run_cli(capsys, ["quadric", worked_file, "--quadric", str(raw)])
    assert code == 0


def test_agreement_command(capsys):
    argv = ["agreement", "--count", "12", "--seed", "3"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(first)
    assert doc["count"] == 12 and len(doc["rows"]) == 12
    s = doc["summary"]
    assert s["agree"] + s["disagree"] == 12
    assert s["oracle_only"] == 0
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_malformed_input_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 2 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "malformed_input" and "detail" in msg

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["check", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({**WORKED, "N": 0}))
    code, _, err = run_cli(capsys, ["check", str(wrong)])
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


# One case per input check of the map and quadric readers: (what the file
# holds, or None for no file, the argv after the file names, the detail
# printed, with {path} for the file).
INPUT_CHECKS = {
    "entry_not_a_pair": (
        {**WORKED, "D": [3]},
        ["check", "{path}"],
        "D must be an [re, im] pair, got [3]",
    ),
    "row_of_wrong_length": (
        {**WORKED, "A": [[[1, 0]], [[0, 0], [2, 0]]]},
        ["check", "{path}"],
        "A row must be a list of 2 [re, im] pairs",
    ),
    "top_level_not_an_object": ([WORKED], ["check", "{path}"], "{path}: top level must be an object"),
    "map_missing_keys": (
        {"N": 2, "A": WORKED["A"]},
        ["check", "{path}"],
        "{path}: missing keys ['B', 'C', 'D']",
    ),
    "quadric_missing_keys": (
        {"alphas": [1, 1]},
        ["quadric", "{worked}", "--quadric", "{path}"],
        "{path}: missing keys ['betas', 'delta', 'gammas']",
    ),
    "a_with_wrong_row_count": (
        {**WORKED, "A": WORKED["A"][:1]},
        ["check", "{path}"],
        "{path}: A must be a list of 2 rows of 2 [re, im] pairs",
    ),
    "quadric_refused": (
        {"S": [[1, 0]], "b": [0, 0], "c": -1},
        ["quadric", "{worked}", "--quadric", "{path}"],
        "{path}: quadratic part must be square of even size, got (1, 2)",
    ),
    "agreement_count_0": (None, ["agreement", "--count", "0"], "--count must be at least 1"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_each_input_check_exits_2(capsys, tmp_path, worked_file, case):
    doc, argv, detail = INPUT_CHECKS[case]
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    names = {"path": str(path), "worked": worked_file}
    code, out, err = run_cli(capsys, [arg.format(**names) for arg in argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed_input", "detail": detail.format(**names)}


def test_coefficients_past_the_largest_double_exit_2(capsys, tmp_path):
    # An entry whose modulus overflows raised a bare OverflowError (exit 1),
    # and a norm that overflows read as a singular matrix (exit 3).
    docs = {
        "entry": {"N": 1, "A": [[[1e308, 0]]], "B": [[0, 0]], "C": [[0, 0]], "D": [1.5e308, 1.5e308]},
        "norm": {"N": 1, "A": [[[1.7e308, 0]]], "B": [[1.7e308, 0]], "C": [[0, 0]], "D": [1.7e308, 0]},
    }
    for kind, doc in docs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "krein"):
            code, out, err = run_cli(capsys, [command, str(path)])
            assert (code, out) == (2, ""), (kind, command)
            assert json.loads(err) == {
                "error": "malformed_input",
                "detail": f"{path}: associated matrix: its largest singular value is not a "
                "finite double; divide the coefficients by a common factor",
            }


def test_pole_and_degenerate_exit_3(capsys, tmp_path):
    pole = tmp_path / "pole.json"
    pole.write_text(
        json.dumps({"N": 1, "A": [[[1, 0]]], "B": [[0, 0]], "C": [[2, 0]], "D": [1, 0]})
    )
    code, _, err = run_cli(capsys, ["check", str(pole)])
    assert code == 3
    assert json.loads(err) == {
        "error": "pole_on_ball",
        "detail": "map has poles on the closed unit ball",
    }

    singular = tmp_path / "singular.json"
    singular.write_text(
        json.dumps(
            {
                "N": 2,
                "A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "B": [[1, 0], [0, 0]],
                "C": [[1, 0], [0, 0]],
                "D": [1, 0],
            }
        )
    )
    code, _, err = run_cli(capsys, ["supnorm", str(singular)])
    assert code == 3
    assert json.loads(err) == {
        "error": "degenerate_map",
        "detail": "associated matrix is singular to working precision",
    }


def test_subnormal_scale_exits_2(capsys, tmp_path):
    # max|m| and |d| are below the smallest normal double: malformed input,
    # not numpy's LinAlgError and a traceback.
    path = tmp_path / "subnormal.json"
    path.write_text(
        json.dumps({"N": 1, "A": [[[1e-313, 0]]], "B": [[5e-314, 0]], "C": [[2.5e-314, 0]], "D": [1e-313, 0]})
    )
    for command in ("krein", "check", "image", "supnorm"):
        code, out, err = run_cli(capsys, [command, str(path)])
        assert (code, out) == (2, ""), command
        msg = json.loads(err)
        assert msg["error"] == "malformed_input", command
        assert "below the smallest normal double" in msg["detail"], command


def test_sample_at_a_subnormal_scale_exits_0(capsys, tmp_path):
    # z -> z/2 with coefficients 2^-1040 and 2^-1039: numpy's division by the
    # subnormal denominator overflowed, and sample exited 2.  It now reads the
    # unit map's sup.
    sups = []
    for name, scale in (("unit", 1.0), ("subnormal", 2.0**-1039)):
        path = tmp_path / f"{name}.json"
        path.write_text(
            json.dumps({"N": 1, "A": [[[0.5 * scale, 0]]], "B": [[0, 0]], "C": [[0, 0]], "D": [scale, 0]})
        )
        code, out, err = run_cli(capsys, ["sample", str(path), "--n", "1000", "--seed", "7"])
        assert (code, err) == (0, ""), name
        sups.append(json.loads(out)["monte_carlo_sup"])
    assert sups[0] == sups[1]


def test_readme_check_excerpt_is_printed_byte_for_byte(capsys, worked_file):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    excerpt = readme.split("`ballmaps check worked.json` reports", 1)[1].split("\n\n")[1]
    # Split before each key: no value holds a comma followed by a quote.
    pairs = re.split(r", (?=\")", " ".join(line.strip() for line in excerpt.splitlines()))
    assert len(pairs) == 6 and all(re.match(r'"\w+": ', pair) for pair in pairs), pairs
    code, out, _ = run_cli(capsys, ["check", worked_file])
    assert code == 0
    for pair in pairs:
        assert pair in out, pair


def test_pole_within_rounding_of_the_sphere_exits_3(capsys, tmp_path):
    # |c| < |d| holds, but |c|^2 rounds to 1: a pole, not malformed input.
    c = [[-0.8127472588738811, -0.05239285356282385], [-0.5662848868512798, -0.12656345844030256]]
    path = tmp_path / "near_pole.json"
    path.write_text(
        json.dumps(
            {"N": 2, "A": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "B": [[0, 0], [0, 0]], "C": c, "D": [1, 0]}
        )
    )
    for command in ("check", "image", "supnorm"):
        code, out, err = run_cli(capsys, [command, str(path)])
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "pole_on_ball",
            "detail": "map has poles on the closed unit ball to working precision",
        }


COMMANDS = [
    ("check", "run all self-map tests on one map"),
    ("image", "image ellipsoid center, shape, polar factors"),
    ("supnorm", "exact sup of |phi| over the closed ball"),
    ("decompose", "factor into reflections and affine maps"),
    ("compose", "composition first(second(z)) as a map file"),
    ("invert", "inverse map as a map file"),
    ("krein", "search for a feasible indefinite-contraction scale"),
    ("sample", "Monte Carlo sup over random boundary points"),
    ("quadric", "pull a quadric back through the map"),
    ("agreement", "row-test vs oracle table over random maps"),
]


def _help_text(capsys, monkeypatch, argv):
    # a fixed width, so argparse wraps the same way on every terminal
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_the_commands_in_order(capsys, monkeypatch):
    out = _help_text(capsys, monkeypatch, [])
    listed = [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")]
    assert [(name, help_.strip()) for name, help_ in listed] == COMMANDS


@pytest.mark.parametrize(
    "command, usage",
    [
        ("check", "usage: ballmaps check [-h] mapfile"),
        ("image", "usage: ballmaps image [-h] mapfile"),
        ("supnorm", "usage: ballmaps supnorm [-h] mapfile"),
        ("decompose", "usage: ballmaps decompose [-h] mapfile"),
        ("compose", "usage: ballmaps compose [-h] first second"),
        ("invert", "usage: ballmaps invert [-h] mapfile"),
        ("krein", "usage: ballmaps krein [-h] mapfile"),
        ("sample", "usage: ballmaps sample [-h] --n N --seed SEED mapfile"),
        ("quadric", "usage: ballmaps quadric [-h] --quadric QUADRIC mapfile"),
        ("agreement", "usage: ballmaps agreement [-h] [--count COUNT] [--seed SEED]"),
    ],
)
def test_command_usage_lines(capsys, monkeypatch, command, usage):
    assert _help_text(capsys, monkeypatch, [command]).splitlines()[0] == usage


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ballmaps" in capsys.readouterr().out


def test_dump_load_round_trip(tmp_path, worked_map):
    path = tmp_path / "dumped.json"
    path.write_text(serialize(dump_mapfile(worked_map)))
    again = load_mapfile(str(path))
    np.testing.assert_array_equal(again.associated_matrix(), worked_map.associated_matrix())


def test_module_entry_point(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    proc = subprocess.run(
        [sys.executable, "-m", "ballmaps", "supnorm", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["sup"] - 1.0) < 1e-9
