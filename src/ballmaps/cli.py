"""Command-line front end with JSON input and output.

Map files are JSON objects {"N": n, "A": [[..]], "B": [..], "C": [..],
"D": [re, im]} with every complex number written as an [re, im] pair.
Output is a single JSON document on stdout, serialized with 17
significant digits so identical inputs produce byte-identical bytes.
Exit codes: 0 success, 2 malformed input, 3 degenerate or
pole-violating map; failures print one machine-parsable JSON line on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, bruhat, criterion, geometry, lfm, linalg, quadric
from .errors import (
    ContractViolation,
    DegenerateMapError,
    PoleError,
    ShapeError,
    SingularMatrixError,
)


class InputError(ValueError):
    """Malformed input file or value; mapped to exit code 2."""


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ContractViolation("non-finite value in report")
    return "%.17g" % v


def serialize(value) -> str:
    """Deterministic JSON with 17-significant-digit reals.

    Complex numbers become [re, im]; numpy values are converted; dict
    keys keep insertion order.
    """
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if bool(value) else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return "[%s, %s]" % (_fmt_float(z.real), _fmt_float(z.imag))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return serialize(value.tolist())
    if isinstance(value, dict):
        parts = ("%s: %s" % (json.dumps(str(k)), serialize(v)) for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(serialize(v) for v in value) + "]"
    raise ContractViolation(f"unserializable value of type {type(value).__name__}")


def _pair(value, what: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value)
    ):
        raise InputError(f"{what} must be an [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _pair_vector(value, n: int, what: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise InputError(f"{what} must be a list of {n} [re, im] pairs")
    return np.array([_pair(v, what) for v in value], dtype=np.complex128)


def load_mapfile(path: str) -> lfm.LFMap:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    missing = {"N", "A", "B", "C", "D"} - doc.keys()
    if missing:
        raise InputError(f"{path}: missing keys {sorted(missing)}")
    n = doc["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"{path}: N must be a positive integer")
    if not isinstance(doc["A"], list) or len(doc["A"]) != n:
        raise InputError(f"{path}: A must be an {n}x{n} array of [re, im] pairs")
    a = np.array(
        [_pair_vector(row, n, "A row") for row in doc["A"]], dtype=np.complex128
    )
    b = _pair_vector(doc["B"], n, "B")
    c = _pair_vector(doc["C"], n, "C")
    d = _pair(doc["D"], "D")
    try:
        return lfm.LFMap(a, b, c, d)
    except (ShapeError, ContractViolation) as exc:
        raise InputError(f"{path}: {exc}") from exc


def dump_mapfile(phi: lfm.LFMap) -> dict:
    return {
        "N": phi.dim,
        "A": [[complex(v) for v in row] for row in phi.a],
        "B": [complex(v) for v in phi.b],
        "C": [complex(v) for v in phi.c],
        "D": complex(phi.d),
    }


def load_quadric(path: str) -> quadric.Quadric:
    """Quadric from JSON: either standard-form coefficients or raw S, b, c."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    try:
        if "alphas" in doc:
            missing = {"alphas", "betas", "gammas", "delta"} - doc.keys()
            if missing:
                raise InputError(f"{path}: missing keys {sorted(missing)}")
            return quadric.from_standard_form(
                doc["alphas"], doc["betas"], doc["gammas"], doc["delta"]
            )
        missing = {"S", "b", "c"} - doc.keys()
        if missing:
            raise InputError(f"{path}: missing keys {sorted(missing)}")
        return quadric.Quadric(np.array(doc["S"], dtype=float), np.array(doc["b"], dtype=float), doc["c"])
    except (ShapeError, ContractViolation, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{path}: {exc}") from exc


def _meta(args, tolerances: dict) -> dict:
    return {
        "tool": "ballmaps",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
    }


def _emit(doc) -> None:
    sys.stdout.write(serialize(doc) + "\n")


def _cmd_check(args) -> int:
    phi = load_mapfile(args.mapfile)
    report = criterion.check(
        phi,
        row_rel_tol=args.row_tol,
        oracle_tol=args.oracle_tol,
        krein_psd_tol=args.krein_tol,
    )
    doc = {
        "row_lhs": list(report.row_lhs),
        "rhs": report.rhs,
        "row_verdict": list(report.row_verdict),
        "criterion_selfmap": report.criterion_selfmap,
        "oracle_sup": report.oracle_sup,
        "oracle_selfmap": report.oracle_selfmap,
        "krein_t": report.krein_t,
        "classification": report.classification,
        "fixed_point": None if report.fixed_point is None else list(report.fixed_point),
        "discrepancy_flag": report.discrepancy_flag,
        "meta": _meta(
            args,
            {
                "row_tol": args.row_tol,
                "oracle_tol": args.oracle_tol,
                "krein_tol": args.krein_tol,
            },
        ),
    }
    _emit(doc)
    return 0


def _cmd_image(args) -> int:
    phi = load_mapfile(args.mapfile)
    ell = geometry.image_ellipsoid(phi)
    psd, unitary = linalg.polar_decompose(ell.shape)
    _emit(
        {
            "center": list(ell.center),
            "shape": [list(row) for row in ell.shape],
            "polar_psd": [list(row) for row in psd],
            "polar_unitary": [list(row) for row in unitary],
            "meta": _meta(args, {}),
        }
    )
    return 0


def _cmd_supnorm(args) -> int:
    phi = load_mapfile(args.mapfile)
    sup = geometry.ellipsoid_sup_norm(geometry.image_ellipsoid(phi))
    _emit({"sup": sup, "meta": _meta(args, {})})
    return 0


def _cmd_decompose(args) -> int:
    phi = load_mapfile(args.mapfile)
    factors = bruhat.factors_to_maps(
        bruhat.bruhat_factorize(phi.associated_matrix(), pivot_tol=args.pivot_tol)
    )
    recomposed = bruhat.compose_factor_maps(factors).associated_matrix()
    original = phi.associated_matrix()
    k = int(np.argmax(np.abs(original)))
    ratio = recomposed.ravel()[k] / original.ravel()[k]
    resid = float(np.max(np.abs(recomposed / ratio - original)))
    _emit(
        {
            "factors": [
                {
                    "kind": f.kind,
                    "swap": None if f.swap is None else list(f.swap),
                    "map": dump_mapfile(f.map),
                }
                for f in factors
            ],
            "recomposition_residual": resid,
            "meta": _meta(args, {"pivot_tol": args.pivot_tol}),
        }
    )
    return 0


def _cmd_compose(args) -> int:
    f = load_mapfile(args.first)
    g = load_mapfile(args.second)
    _emit(dump_mapfile(lfm.compose(f, g)))
    return 0


def _cmd_invert(args) -> int:
    phi = load_mapfile(args.mapfile)
    _emit(dump_mapfile(lfm.invert(phi)))
    return 0


def _cmd_krein(args) -> int:
    phi = load_mapfile(args.mapfile)
    t = criterion.krein_check(phi, psd_tol=args.krein_tol)
    _emit({"t": t, "meta": _meta(args, {"krein_tol": args.krein_tol})})
    return 0


def _cmd_sample(args) -> int:
    phi = load_mapfile(args.mapfile)
    if args.n < 1:
        raise InputError("--n must be at least 1")
    value = criterion.monte_carlo_sup(phi, args.n, args.seed)
    _emit({"monte_carlo_sup": value, "n": args.n, "meta": _meta(args, {})})
    return 0


def _cmd_quadric(args) -> int:
    phi = load_mapfile(args.mapfile)
    q = load_quadric(args.quadric)
    try:
        out = quadric.pullback_map(q, phi)
    except ShapeError as exc:
        raise InputError(str(exc)) from exc
    _emit(
        {
            "S": [list(row) for row in out.s],
            "b": list(out.b),
            "c": out.c,
            "meta": _meta(args, {}),
        }
    )
    return 0


def _cmd_agreement(args) -> int:
    if args.count < 1:
        raise InputError("--count must be at least 1")
    table = criterion.agreement_table(args.count, args.seed)
    table["meta"] = _meta(args, {"row_tol": criterion.ROW_REL_TOL, "oracle_tol": criterion.ORACLE_TOL})
    _emit(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmaps",
        description="Linear fractional self-maps of the complex unit ball.",
    )
    parser.add_argument("--version", action="version", version="ballmaps " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run all self-map tests on one map")
    p.add_argument("mapfile")
    p.add_argument("--row-tol", type=float, default=criterion.ROW_REL_TOL)
    p.add_argument("--oracle-tol", type=float, default=criterion.ORACLE_TOL)
    p.add_argument("--krein-tol", type=float, default=criterion.KREIN_PSD_TOL)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("image", help="image ellipsoid center, shape, polar factors")
    p.add_argument("mapfile")
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("supnorm", help="exact sup of |phi| over the closed ball")
    p.add_argument("mapfile")
    p.set_defaults(func=_cmd_supnorm)

    p = sub.add_parser("decompose", help="factor into reflections and affine maps")
    p.add_argument("mapfile")
    p.add_argument("--pivot-tol", type=float, default=bruhat.PIVOT_TOL)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", help="composition first(second(z)) as a map file")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("invert", help="inverse map as a map file")
    p.add_argument("mapfile")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("krein", help="search for a feasible indefinite-contraction scale")
    p.add_argument("mapfile")
    p.add_argument("--krein-tol", type=float, default=criterion.KREIN_PSD_TOL)
    p.set_defaults(func=_cmd_krein)

    p = sub.add_parser("sample", help="Monte Carlo sup over random boundary points")
    p.add_argument("mapfile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("quadric", help="pull a quadric back through the map")
    p.add_argument("mapfile")
    p.add_argument("--quadric", required=True)
    p.set_defaults(func=_cmd_quadric)

    p = sub.add_parser("agreement", help="row-test vs oracle table over random maps")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20260822)
    p.set_defaults(func=_cmd_agreement)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ShapeError, ContractViolation) as exc:
        sys.stderr.write(serialize({"error": "malformed_input", "detail": str(exc)}) + "\n")
        return 2
    except PoleError as exc:
        sys.stderr.write(serialize({"error": "pole_on_ball", "detail": str(exc)}) + "\n")
        return 3
    except (DegenerateMapError, SingularMatrixError) as exc:
        sys.stderr.write(serialize({"error": "degenerate_map", "detail": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
