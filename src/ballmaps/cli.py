"""Command-line front end with JSON input and output.

Map files are JSON objects {"N": n, "A": [[..]], "B": [..], "C": [..],
"D": [re, im]} with every complex number written as an [re, im] pair.
Output is a single JSON document on stdout, serialized with 17
significant digits so identical inputs produce byte-identical bytes.
Exit codes: 0 success, 2 malformed input, 3 for a map whose associated
matrix is singular to working precision or whose poles meet the closed
ball; failures print one machine-parsable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, bruhat, criterion, geometry, lfm, quadric
from .errors import ContractViolation, DegenerateMapError, PoleError, ShapeError


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ContractViolation("non-finite value in report")
    return "%.17g" % v


def serialize(value) -> str:
    """Deterministic JSON with 17-significant-digit reals.

    Complex numbers become [re, im], tuples and numpy arrays become
    lists, numpy scalars are converted; dict keys keep insertion order.
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
        raise ContractViolation(f"{what} must be an [re, im] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError as exc:  # an integer past the largest double
        raise ContractViolation(f"{what} entries must be doubles: {exc}") from None


def _pair_vector(value, n: int, what: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ContractViolation(f"{what} must be a list of {n} [re, im] pairs")
    return np.array([_pair(v, what) for v in value], dtype=np.complex128)


def _read_object(path: str) -> dict:
    """The JSON object in the file at path; ContractViolation if there is none."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ContractViolation(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractViolation(f"{path}: top level must be an object")
    return doc


def load_mapfile(path: str) -> lfm.LFMap:
    doc = _read_object(path)
    missing = {"N", "A", "B", "C", "D"} - doc.keys()
    if missing:
        raise ContractViolation(f"{path}: missing keys {sorted(missing)}")
    n = doc["N"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ContractViolation(f"{path}: N must be a positive integer")
    if not isinstance(doc["A"], list) or len(doc["A"]) != n:
        raise ContractViolation(f"{path}: A must be a list of {n} rows of {n} [re, im] pairs")
    a = np.array(
        [_pair_vector(row, n, "A row") for row in doc["A"]], dtype=np.complex128
    )
    b = _pair_vector(doc["B"], n, "B")
    c = _pair_vector(doc["C"], n, "C")
    d = _pair(doc["D"], "D")
    try:
        return lfm.LFMap(a, b, c, d)
    except (ShapeError, ContractViolation) as exc:
        raise ContractViolation(f"{path}: {exc}") from exc


def dump_mapfile(phi: lfm.LFMap) -> dict:
    return {"N": phi.dim, "A": phi.a, "B": phi.b, "C": phi.c, "D": phi.d}


def load_quadric(path: str) -> quadric.Quadric:
    """Quadric from JSON: either standard-form coefficients or raw S, b, c."""
    doc = _read_object(path)
    standard = "alphas" in doc
    required = {"alphas", "betas", "gammas", "delta"} if standard else {"S", "b", "c"}
    missing = required - doc.keys()
    if missing:
        raise ContractViolation(f"{path}: missing keys {sorted(missing)}")
    try:
        if standard:
            return quadric.from_standard_form(
                doc["alphas"], doc["betas"], doc["gammas"], doc["delta"]
            )
        return quadric.Quadric(doc["S"], doc["b"], doc["c"])
    except (ShapeError, ContractViolation) as exc:
        raise ContractViolation(f"{path}: {exc}") from exc


def _meta(args, tolerances: dict) -> dict:
    return {
        "tool": "ballmaps",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
    }


def _cmd_check(args) -> dict:
    report = criterion.check(load_mapfile(args.mapfile))
    tolerances = {
        "row_tol": criterion.ROW_REL_TOL,
        "oracle_tol": criterion.ORACLE_TOL,
        "krein_tol": criterion.KREIN_PSD_TOL,
    }
    return {**dataclasses.asdict(report), "meta": _meta(args, tolerances)}


def _cmd_image(args) -> dict:
    ell = geometry.image_ellipsoid(load_mapfile(args.mapfile))
    psd, unitary = ell.polar_factors()
    return {
        "center": ell.center,
        "shape": ell.shape,
        "polar_psd": psd,
        "polar_unitary": unitary,
        "meta": _meta(args, {}),
    }


def _cmd_supnorm(args) -> dict:
    sup = geometry.ellipsoid_sup_norm(geometry.image_ellipsoid(load_mapfile(args.mapfile)))
    return {"sup": sup, "meta": _meta(args, {})}


def _cmd_decompose(args) -> dict:
    phi = load_mapfile(args.mapfile)
    factors = bruhat.factors_to_maps(
        bruhat.bruhat_factorize(phi.associated_matrix())
    )
    # Both matrices at unit scale, where the ratio stays in range; the
    # residual is stated at the map's own scale (lfm's scale rule).
    recomposed, _ = lfm._unit(bruhat.compose_factor_maps(factors).associated_matrix())
    original, e = lfm._unit(phi.associated_matrix())
    k = int(np.argmax(np.abs(original)))
    ratio = recomposed.ravel()[k] / original.ravel()[k]
    resid = float(np.max(np.abs(recomposed / ratio - original)))
    resid = lfm._stated(resid, e, 1, "decompose: its residual")
    return {
        "factors": [
            {
                "kind": f.kind,
                "swap": f.swap,
                "map": dump_mapfile(f.map),
            }
            for f in factors
        ],
        "recomposition_residual": resid,
        "meta": _meta(args, {"pivot_tol": bruhat.PIVOT_TOL}),
    }


def _cmd_compose(args) -> dict:
    return dump_mapfile(lfm.compose(load_mapfile(args.first), load_mapfile(args.second)))


def _cmd_invert(args) -> dict:
    return dump_mapfile(lfm.invert(load_mapfile(args.mapfile)))


def _cmd_krein(args) -> dict:
    t = criterion.krein_check(load_mapfile(args.mapfile))
    return {"t": t, "meta": _meta(args, {"krein_tol": criterion.KREIN_PSD_TOL})}


def _cmd_sample(args) -> dict:
    value = criterion.monte_carlo_sup(load_mapfile(args.mapfile), args.n, args.seed)
    return {"monte_carlo_sup": value, "n": args.n, "meta": _meta(args, {})}


def _cmd_quadric(args) -> dict:
    phi = load_mapfile(args.mapfile)
    out = quadric.pullback_map(load_quadric(args.quadric), phi)
    return {"S": out.s, "b": out.b, "c": out.c, "meta": _meta(args, {})}


def _cmd_agreement(args) -> dict:
    if args.count < 1:
        raise ContractViolation("--count must be at least 1")
    table = criterion.agreement_table(args.count, args.seed)
    table["meta"] = _meta(args, {"row_tol": criterion.ROW_REL_TOL, "oracle_tol": criterion.ORACLE_TOL})
    return table


# (name, help, positional arguments, handler) of each subcommand, in the
# order that --help lists them; build_parser adds the options.
_COMMANDS = (
    ("check", "run all self-map tests on one map", ("mapfile",), _cmd_check),
    ("image", "image ellipsoid center, shape, polar factors", ("mapfile",), _cmd_image),
    ("supnorm", "exact sup of |phi| over the closed ball", ("mapfile",), _cmd_supnorm),
    ("decompose", "factor into reflections and affine maps", ("mapfile",), _cmd_decompose),
    ("compose", "composition first(second(z)) as a map file", ("first", "second"), _cmd_compose),
    ("invert", "inverse map as a map file", ("mapfile",), _cmd_invert),
    ("krein", "search for a feasible indefinite-contraction scale", ("mapfile",), _cmd_krein),
    ("sample", "Monte Carlo sup over random boundary points", ("mapfile",), _cmd_sample),
    ("quadric", "pull a quadric back through the map", ("mapfile",), _cmd_quadric),
    ("agreement", "row-test vs oracle table over random maps", (), _cmd_agreement),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballmaps",
        description="Linear fractional self-maps of the complex unit ball.",
    )
    parser.add_argument("--version", action="version", version="ballmaps " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, positionals, handler in _COMMANDS:
        p = commands[name] = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=handler)
    commands["sample"].add_argument("--n", type=int, required=True)
    commands["sample"].add_argument("--seed", type=int, required=True)
    commands["quadric"].add_argument("--quadric", required=True)
    commands["agreement"].add_argument("--count", type=int, default=1000)
    commands["agreement"].add_argument("--seed", type=int, default=20260822)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = serialize(args.func(args))
    except (ShapeError, ContractViolation) as exc:
        sys.stderr.write(serialize({"error": "malformed_input", "detail": str(exc)}) + "\n")
        return 2
    except PoleError as exc:
        sys.stderr.write(serialize({"error": "pole_on_ball", "detail": str(exc)}) + "\n")
        return 3
    except DegenerateMapError as exc:
        sys.stderr.write(serialize({"error": "degenerate_map", "detail": str(exc)}) + "\n")
        return 3
    sys.stdout.write(text + "\n")
    return 0
