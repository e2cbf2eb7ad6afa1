"""JSON command-line interface: output format, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ballmaps import bruhat, compose, criterion, invert
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
