"""One workload in a fresh interpreter: set up, then run whole rounds of
operations.

    python3 benchmark/worker.py <workdir> <workload> setup|timed|traced <seconds>

Reads <workdir>/inputs.pkl (inputs.json for cli-process).  ``setup`` only
sets up and prints the time it took as JSON.  ``timed`` runs one untimed
warm-up round, then rounds until <seconds> have passed; ``traced`` does the
same with untraced and traced rounds in turn.  Both write
<workdir>/result.pkl.  Outputs of the first round are kept for checking;
every later round must reproduce them exactly.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def cli_argv(op: dict, mapdir: str) -> list[str]:
    path = os.path.join(mapdir, f"map{op['map']}.json")
    if op["command"] == "sample":
        return ["sample", path, "--n", str(op["n"]), "--seed", str(op["sample_seed"])]
    return [op["command"], path]


def setup_inprocess(workdir: str, workload: str):
    """Import the program and build its inputs; returns (ops, kinds, to_plain)."""
    sys.path.insert(0, os.path.abspath("src"))
    from ballmaps import bruhat, criterion, lfm, quadric

    with open(os.path.join(workdir, "inputs.pkl"), "rb") as fh:
        entries = pickle.load(fh)

    def lfmap(m):
        n = m.shape[0] - 1
        return lfm.LFMap(m[:n, :n], m[:n, n], m[n, :n].conj(), m[n, n])

    maps = [lfmap(e["m"]) for e in entries]
    kinds = [e["kind"] for e in entries]
    if workload == "check-mixed":
        ops = [lambda phi=phi: criterion.check(phi) for phi in maps]

        def to_plain(report):
            return {k: getattr(report, k) for k in report.__dataclass_fields__}

    elif workload == "oracle-sweep":
        ops = [
            lambda phi=phi: (criterion.row_criterion(phi), criterion.oracle_is_selfmap(phi))
            for phi in maps
        ]

        def to_plain(out):
            (lhs, rhs, ok), (sup, verdict) = out
            return {"row_lhs": lhs.copy(), "rhs": rhs, "row_verdict": ok.copy(), "oracle_sup": sup, "oracle_selfmap": verdict}

    else:
        quadrics = [quadric.Quadric(*e["quadric_real"]) for e in entries]

        def factor_op(phi, q):
            factors = bruhat.bruhat_factorize(phi.associated_matrix())
            pieces = bruhat.factors_to_maps(factors)
            folded = bruhat.compose_factor_maps(pieces)
            inverse = lfm.invert(phi)
            identity = lfm.compose(phi, inverse)
            return factors, pieces, folded, inverse, identity, quadric.pullback_map(q, phi)

        ops = [lambda phi=phi, q=q: factor_op(phi, q) for phi, q in zip(maps, quadrics)]

        def to_plain(out):
            factors, pieces, folded, inverse, identity, pulled = out
            return {
                "u1": factors.left_unipotent.copy(),
                "perm": tuple(factors.perm),
                "diag": factors.diag.copy(),
                "u2": factors.right_unipotent.copy(),
                "factors": [(f.kind, f.swap, f.map.associated_matrix()) for f in pieces],
                "folded": folded.associated_matrix(),
                "inverse": inverse.associated_matrix(),
                "identity": identity.associated_matrix(),
                "pullback": (pulled.s.copy(), pulled.b.copy(), pulled.c),
            }

    return ops, kinds, to_plain


def write_maps(mapdir: str, spec: dict):
    os.makedirs(mapdir, exist_ok=True)
    for i, doc in enumerate(spec["maps"]):
        with open(os.path.join(mapdir, f"map{i}.json"), "w") as fh:
            json.dump(doc, fh)


def setup_cli(mapdir: str, spec: dict, env: dict):
    """Write the map files and finish one warm-up process."""
    write_maps(mapdir, spec)
    warm = subprocess.run([sys.executable, "-m", "ballmaps", *cli_argv(spec["ops"][0], mapdir)], env=env, capture_output=True)
    if warm.returncode != 0:
        raise RuntimeError(f"warm-up process failed: {warm.stderr.decode()!r}")


def subprocess_op(argv, env):
    def op():
        proc = subprocess.run([sys.executable, "-m", "ballmaps", *argv], env=env, capture_output=True)
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    return op


def inprocess_cli_op(argv):
    from ballmaps import cli

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"returncode": code, "stdout": buf.getvalue().encode(), "stderr": b""}

    return op


class Rounds:
    """Runs whole rounds of the same operations and keeps what is checked."""

    def __init__(self, ops, kinds, to_plain):
        self.ops, self.kinds, self.to_plain = ops, kinds, to_plain
        self.tracer = None
        self.outputs = [None] * len(ops)
        self.digests = [None] * len(ops)
        self.mismatches = []
        self.times = []
        self.per_op = [[] for _ in ops]
        self.rounds = 0
        self.gc_s = 0.0
        self._gc_start = None
        self._in_op = False

    def _gc_clock(self, phase, info):
        # Only collections that an operation set off count, not those of
        # the checks between operations.
        if phase == "start" and self._in_op:
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def one(self, i, keep_times=True):
        op = self.ops[i]
        if self.tracer is not None:
            self.tracer.kind = self.kinds[i]
        self._in_op = True
        start = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that raises is a failed operation
            out = exc
        elapsed = time.perf_counter() - start
        self._in_op = False
        plain = {"error": repr(out)} if isinstance(out, Exception) else self.to_plain(out)
        digest = hashlib.sha256(pickle.dumps(plain, protocol=4)).digest()
        if self.digests[i] is None:
            self.outputs[i], self.digests[i] = plain, digest
        elif digest != self.digests[i]:
            self.mismatches.append(i)
        if keep_times:
            self.times.append(elapsed)
            self.per_op[i].append(elapsed)

    def run(self, seconds: float, keep_times=True) -> int:
        """Whole rounds until `seconds` of wall time have passed; returns ops
        run.  Garbage-collector time is clocked while times are kept."""
        gc.collect()
        if keep_times:
            gc.callbacks.append(self._gc_clock)
        start = time.perf_counter()
        done = 0
        try:
            while True:
                for i in range(len(self.ops)):
                    self.one(i, keep_times)
                done += len(self.ops)
                self.rounds += keep_times
                if time.perf_counter() - start >= seconds:
                    return done
        finally:
            if keep_times:
                gc.callbacks.remove(self._gc_clock)


def summary(rounds: Rounds, typical=min) -> dict:
    """End-to-end figures of the rounds run so far.

    Each operation's time is the `typical` one of its repetitions: the
    fastest for operations run in this process, which repeat hundreds of
    times a run, since other tenants of the machine slow it in bursts that
    only ever add time and every repetition runs the same code on the same
    input; the median for whole processes, which repeat tens of times and
    whose start-up varies by itself.  What the fastest repetition leaves out
    is put back where it can be measured: ops_per_s is the round size over
    the sum of the operation times plus the garbage collector's time per
    round.  op_p50_ms is the median of the operation times.  The mean_* and
    pooled_* figures use every repetition as it came and go to the run
    report.
    """
    best = [typical(t) for t in rounds.per_op]
    gc_per_round = rounds.gc_s / rounds.rounds
    return {
        "ops": len(rounds.times),
        "ops_per_s": len(best) / (sum(best) + gc_per_round),
        "op_p50_ms": 1e3 * statistics.median(best),
        "gc_ms_per_op": 1e3 * gc_per_round / len(best),
        "mean_ops_per_s": len(rounds.times) / sum(rounds.times),
        "pooled_op_p50_ms": 1e3 * statistics.median(rounds.times),
    }


def same(out):
    return out


def traced_rounds(ops, kinds, to_plain, seconds: float, result: dict) -> Rounds:
    """Untraced and traced rounds in turn, so that a slow spell of the
    machine falls on both alike; returns the untraced ones."""
    sys.path.insert(0, HERE)
    from tracer import Tracer

    rounds = Rounds(ops, kinds, to_plain)
    rounds.run(0.0, keep_times=False)
    traced = Rounds(ops, kinds, to_plain)
    # Both must reproduce the first round's outputs.
    traced.outputs, traced.digests, traced.mismatches = rounds.outputs, rounds.digests, rounds.mismatches
    traced.tracer = tracer = Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds.run(0.0)
        tracer.install()
        try:
            traced.run(0.0)
        finally:
            tracer.uninstall()
    result["untraced"], result["traced"] = summary(rounds), summary(traced)
    result["cli_main_ms"] = {
        cmd: 1e3 * statistics.median(t for i, times in enumerate(rounds.per_op) if kinds[i] == cmd for t in times)
        for cmd in ("check", "decompose", "sample")
        if cmd in kinds
    }
    traced_ops = len(traced.times)
    per_round = traced_ops // len(ops)
    by_kind = {}
    for kind in kinds:
        by_kind[kind] = by_kind.get(kind, 0) + per_round
    result["layers"] = tracer.metrics(traced_ops, by_kind)
    result["ops"] = result["untraced"]["ops"] + traced_ops
    return rounds


def main() -> int:
    workdir, workload, mode, seconds = sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4])
    result = {}
    cli = workload == "cli-process"
    if cli:
        with open(os.path.join(workdir, "inputs.json")) as fh:
            spec = json.load(fh)
        env = cli_env()
        mapdir = os.path.join(workdir, "maps")
        if mode == "setup":
            start = time.perf_counter()
            setup_cli(mapdir, spec, env)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0
        write_maps(mapdir, spec)
        argvs = [cli_argv(op, mapdir) for op in spec["ops"]]
        kinds = [op["command"] for op in spec["ops"]]
        to_plain = same
        if mode == "timed":
            ops = [subprocess_op(a, env) for a in argvs]
        else:
            sys.path.insert(0, os.path.abspath("src"))
            ops = [inprocess_cli_op(a) for a in argvs]
    else:
        start = time.perf_counter()
        ops, kinds, to_plain = setup_inprocess(workdir, workload)
        if mode == "setup":
            print(json.dumps({"setup_s": time.perf_counter() - start}))
            return 0

    if mode == "timed":
        rounds = Rounds(ops, kinds, to_plain)
        if not cli:  # a CLI process has nothing to warm in this process
            rounds.run(0.0, keep_times=False)
        rounds.run(seconds)
        result.update(summary(rounds, statistics.median if cli else min))
    else:
        rounds = traced_rounds(ops, kinds, to_plain, seconds, result)
    # A CLI run's memory is that of its largest child process.
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli and mode == "timed" else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["round"] = len(rounds.ops)
    result["op_times_s"] = rounds.per_op
    result["outputs"] = rounds.outputs
    result["mismatches"] = sorted(set(rounds.mismatches))
    with open(os.path.join(workdir, "result.pkl"), "wb") as fh:
        pickle.dump(result, fh, protocol=4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
