"""Checks of the program's outputs against the references.

Each ``check_*`` function takes the generated entries and the outputs of one
round and returns (failed, problems): ``failed`` maps the index of every
operation whose output is wrong to the reasons, ``problems`` lists faults of
the benchmark's own data or references.  Tolerances are fixed here.
"""

from __future__ import annotations

import json

import numpy as np

import gen
import reference as ref

SUP_RTOL = 1e-12  # oracle sup against the high-precision reference
ROW_RTOL = 1e-9  # row quantities, relative to rhs
POINT_TOL = 1e-9  # fixed points against the construction (acceptance criterion 2)
KREIN_TOL = 1e-9  # smallest eigenvalue of J - t^2 m* J m at the returned t
SPREAD_TOL = 1e-9  # proportionality of associated matrices (acceptance criterion 5)
QUADRIC_TOL = 1e-10  # pullback residual, relative to |Q| |m|^2 (1 + |z|)^2
ORACLE_TOL = 1e-9  # the program's default verdict slack on the sup
ROW_SLACK = 1e-10  # the program's default verdict slack on the rows
AMBIGUOUS = 1e-12  # a value this close to a verdict bound may go either way

# Known faults (README): the only reasons for which an operation of these
# groups may fail without making the run incorrect.
KREIN_NONE = "krein_t None for a self-map"
KREIN_DIFFERS = "Krein verdict differs from the unscaled map's"
POINT_OFF = "fixed point off by "
CLUSTER_POINT_TOL = 1e-4  # how far the clustered Denjoy-Wolff fault moves the point


def verdict_ok(got, value, bound) -> bool:
    if abs(value - bound) <= AMBIGUOUS * max(1.0, abs(bound)):
        return True
    return bool(got) == bool(value <= bound)


def map_refs(m: np.ndarray) -> dict:
    rows, rhs = ref.rows(m)
    return {"rows": np.array(rows), "rhs": rhs, "sup": ref.map_sup(m)}


def rows_and_oracle(out: dict, rf: dict) -> list[str]:
    bad = []
    rhs = rf["rhs"]
    if abs(out["rhs"] - rhs) > ROW_RTOL * rhs:
        bad.append(f"rhs {out['rhs']!r} vs {rhs!r}")
    lhs = np.asarray(out["row_lhs"], dtype=float)
    if lhs.shape != rf["rows"].shape or np.max(np.abs(lhs - rf["rows"])) > ROW_RTOL * rhs:
        bad.append(f"row_lhs {lhs.tolist()} vs {rf['rows'].tolist()}")
    elif not all(verdict_ok(g, w, rhs * (1 + ROW_SLACK)) for g, w in zip(out["row_verdict"], rf["rows"])):
        bad.append(f"row_verdict {list(out['row_verdict'])}")
    sup = rf["sup"]
    if abs(out["oracle_sup"] - sup) > SUP_RTOL * sup:
        bad.append(f"oracle_sup {out['oracle_sup']!r} vs {sup!r}")
    if not verdict_ok(out["oracle_selfmap"], sup, 1 + ORACLE_TOL):
        bad.append(f"oracle_selfmap {out['oracle_selfmap']} with sup {sup!r}")
    return bad


def construction_problems(entries) -> list[str]:
    """Known fixed points must be fixed, and on the sphere for boundary maps."""
    bad = []
    for i, e in enumerate(entries):
        p = e.get("point")
        if p is None:
            continue
        m = e["m"]
        resid = float(np.linalg.norm(gen.apply(m, p) - p))
        norm = float(np.linalg.norm(p))
        on_sphere = e["expect"] == gen.BOUNDARY
        if resid > 1e-10 or (on_sphere and abs(norm - 1) > 1e-12) or (not on_sphere and norm >= 1):
            bad.append(f"entry {i}: constructed point is off (residual {resid:.2e}, |p| = {norm!r})")
    return bad


def n1_maps(entries) -> list[np.ndarray]:
    return [e["m"] for e in entries if e["n"] == 1 and e.get("group") != "scaled"]


def report_failures(r: dict, e: dict, rf: dict) -> list[str]:
    """A check() report against references and the construction."""
    bad = rows_and_oracle(r, rf)
    if r["criterion_selfmap"] != all(r["row_verdict"]):
        bad.append("criterion_selfmap is not the conjunction of the rows")
    if r["discrepancy_flag"] != (r["criterion_selfmap"] != r["oracle_selfmap"]):
        bad.append("discrepancy_flag")
    if r["classification"] != e["expect"]:
        bad.append(f"classification {r['classification']} vs {e['expect']}")
    if e["expect"] == gen.NOT_SELFMAP:
        if r["fixed_point"] is not None:
            bad.append("fixed point reported for a non-self-map")
        if r["krein_t"] is not None:
            bad.append(f"krein_t {r['krein_t']!r} for a non-self-map")
        return bad
    if r["fixed_point"] is None:
        bad.append("no fixed point")
    else:
        err = float(np.linalg.norm(np.array(r["fixed_point"]) - e["point"]))
        if err > POINT_TOL:
            bad.append(f"{POINT_OFF}{err:.2e}")
    if r["krein_t"] is None:
        bad.append(KREIN_NONE)
    elif ref.krein_min_eig(e["m"], r["krein_t"]) < -KREIN_TOL:
        bad.append(f"krein_t {r['krein_t']!r} is no certificate")
    return bad


def verdicts(r: dict):
    return (r["criterion_selfmap"], r["oracle_selfmap"], r["classification"])


def scaled_problems(entries) -> list[str]:
    """A scaled copy must point at its base map and be that map times its scale."""
    bad = []
    for i, e in enumerate(entries):
        if e["group"] != "scaled":
            continue
        base = entries[e["base"]]
        same = base["group"] == "fixed_base" and base["m"].shape == e["m"].shape
        if not same or np.max(np.abs(e["m"] / e["scale"] - base["m"])) > 1e-15 * np.max(np.abs(base["m"])):
            bad.append(f"entry {i}: not its base map {e['base']} times {e['scale']}")
    return bad


def excused(e: dict, reasons: list[str]) -> bool:
    """Whether every reason an operation failed for is its group's known fault."""
    if e.get("group") == "scaled":
        return all(r in (KREIN_NONE, KREIN_DIFFERS) for r in reasons)
    if e.get("group") == "pure_translation":
        return all(r.startswith(POINT_OFF) and float(r[len(POINT_OFF):]) < CLUSTER_POINT_TOL for r in reasons)
    return False


def check_mixed(entries, outputs):
    problems = construction_problems(entries) + scaled_problems(entries) + ref.self_check(n1_maps(entries))
    failed = {}
    for i, (e, r) in enumerate(zip(entries, outputs)):
        if "error" in r:
            failed[i] = [r["error"]]
            continue
        bad = report_failures(r, e, map_refs(e["m"]))
        if e["group"] == "scaled":
            base = outputs[e["base"]]
            if "error" in base or verdicts(r) != verdicts(base):
                bad.append(f"verdicts {verdicts(r)} differ from the unscaled map's")
            elif (r["krein_t"] is None) != (base["krein_t"] is None):
                bad.append(KREIN_DIFFERS)
        if bad:
            failed[i] = bad
    return failed, problems


def oracle_sweep(entries, outputs):
    problems = ref.self_check(n1_maps(entries))
    failed = {}
    for i, (e, out) in enumerate(zip(entries, outputs)):
        if "error" in out:
            failed[i] = [out["error"]]
            continue
        rf = map_refs(e["m"])
        if e["designed_sup"] is not None and abs(rf["sup"] - e["designed_sup"]) > 1e-13:
            problems.append(f"entry {i}: reference sup {rf['sup']!r} vs designed {e['designed_sup']!r}")
        bad = rows_and_oracle(out, rf)
        if bad:
            failed[i] = bad
    return failed, problems


def spread(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation of got from the multiple of want that matches it at
    want's largest entry, relative to that multiple of want."""
    k = int(np.argmax(np.abs(want)))
    ratio = got.ravel()[k] / want.ravel()[k]
    return float(np.max(np.abs(got - ratio * want)) / (abs(ratio) * np.max(np.abs(want))))


def unit_upper(u: np.ndarray) -> bool:
    return bool(np.all(np.tril(u, -1) == 0) and np.all(np.diag(u) == 1))


def factor_failures(out: dict, e: dict) -> list[str]:
    m = e["m"]
    k = m.shape[0]
    bad = []
    if out["perm"] != e["perm"]:
        bad.append(f"permutation {out['perm']} vs {e['perm']}")
    d = out["diag"]
    if not (unit_upper(out["u1"]) and unit_upper(out["u2"])):
        bad.append("triangular factors are not unipotent upper triangular")
    if np.any(d - np.diag(np.diag(d))) or np.any(np.diag(d) == 0):
        bad.append("middle factor is not an invertible diagonal")
    p = np.zeros((k, k))
    p[list(out["perm"]), list(range(k))] = 1.0
    err = np.max(np.abs(out["u1"] @ p @ d @ out["u2"] - m)) / np.max(np.abs(m))
    if err > SPREAD_TOL:
        bad.append(f"u1 P D u2 misses m by {err:.2e}")
    for kind, swap, am in out["factors"]:
        if kind == "reflection":
            t = np.eye(k)
            t[list(swap)] = t[list(swap[::-1])]
            if not np.array_equal(am, t):
                bad.append(f"reflection {swap} is not a transposition matrix")
        elif kind != "multilinear" or np.any(np.tril(am, -1)):
            bad.append(f"factor of kind {kind} is not upper triangular")
    for name, got, want in (
        ("recomposed factors", out["folded"], m),
        ("inverse times m", out["inverse"] @ m, np.eye(k)),
        ("compose(phi, invert(phi))", out["identity"], np.eye(k)),
    ):
        s = spread(got, want)
        if s > SPREAD_TOL:
            bad.append(f"{name}: spread {s:.2e}")
    s2, b2, c2 = out["pullback"]
    s1, b1, c1 = e["quadric_real"]
    n = k - 1
    for z in e["points"]:
        w = m @ np.append(z, 1.0)
        den = w[n]
        direct = ref.quadric_value(s1, b1, c1, w[:n] / den) * abs(den) ** 2
        got = ref.quadric_value(s2, b2, c2, z)
        scale = np.max(np.abs(e["quadric"])) * np.max(np.abs(m)) ** 2 * (1 + np.linalg.norm(z)) ** 2
        if abs(got - direct) > QUADRIC_TOL * scale:
            bad.append(f"pullback residual {abs(got - direct):.2e} at {z.tolist()}")
            break
    return bad


def factor_pullback(entries, outputs):
    failed = {}
    for i, (e, out) in enumerate(zip(entries, outputs)):
        bad = [out["error"]] if "error" in out else factor_failures(out, e)
        if bad:
            failed[i] = bad
    return failed, []


def cli_process(spec, outputs):
    """spec is gen.cli_process(seed); outputs are the first round's
    {"returncode", "stdout", "stderr"} per op."""
    maps = spec["maps"]
    problems = construction_problems(maps)
    refs = {i: map_refs(e["m"]) for i, e in enumerate(maps)}
    failed = {}
    for i, (op, out) in enumerate(zip(spec["ops"], outputs)):
        e = maps[op["map"]]
        rf = refs[op["map"]]
        if "error" in out:
            failed[i] = [out["error"]]
            continue
        if out["returncode"] != 0:
            failed[i] = [f"exit code {out['returncode']}: {out['stderr'][-300:]!r}"]
            continue
        doc = json.loads(out["stdout"])
        if op["command"] == "check":
            report = dict(doc)
            fp = report["fixed_point"]
            report["fixed_point"] = None if fp is None else [complex(*z) for z in fp]
            bad = report_failures(report, e, rf)
        elif op["command"] == "decompose":
            bad = []
            m = e["m"]
            prod = np.eye(m.shape[0], dtype=np.complex128)
            for f in doc["factors"]:
                prod = prod @ mapfile_matrix(f["map"])
            s = spread(prod, m)
            if s > SPREAD_TOL:
                bad.append(f"factor product: spread {s:.2e}")
            if not 0 <= doc["recomposition_residual"] <= SPREAD_TOL * np.max(np.abs(m)):
                bad.append(f"recomposition_residual {doc['recomposition_residual']!r}")
        else:
            bad = []
            value = doc["monte_carlo_sup"]
            if not 0 < value <= rf["sup"] * (1 + SUP_RTOL) or doc["n"] != op["n"]:
                bad.append(f"monte_carlo_sup {value!r} vs sup {rf['sup']!r}")
        if bad:
            failed[i] = bad
    return failed, problems


def mapfile_matrix(doc: dict) -> np.ndarray:
    n = doc["N"]
    m = np.empty((n + 1, n + 1), dtype=np.complex128)
    m[:n, :n] = [[complex(*z) for z in row] for row in doc["A"]]
    m[:n, n] = [complex(*z) for z in doc["B"]]
    m[n, :n] = [complex(*z).conjugate() for z in doc["C"]]
    m[n, n] = complex(*doc["D"])
    return m
