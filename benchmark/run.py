"""Benchmark of ballmaps: four seeded workloads, outputs checked against
references computed apart from the program.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a separate traced run.  Run
reports and generated files go to .bench_out/.  See benchmark/README.md.
"""

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One computing thread everywhere: numpy here (imported later, by gen and
# verify) and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("check-mixed", "oracle-sweep", "factor-pullback", "cli-process")
SETUP_REPEATS = (3, 4)  # set-ups for setup_s (median) before and after the measured run
IMPORT_REPEATS = 5  # fresh processes per run for cli.import_s and its floor
OUT_DIR = ".bench_out"


def fail(message: str) -> int:
    sys.stderr.write(f"benchmark: {message}\n")
    return 2


def worker(workdir, workload, mode, seconds):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workdir, workload, mode, str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2 * seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def fresh_process_s(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def import_times() -> dict:
    cli, floor = [], []
    for _ in range(IMPORT_REPEATS):
        cli.append(fresh_process_s("import ballmaps.cli"))
        floor.append(fresh_process_s("import numpy"))
    return {"cli.import_s": statistics.median(cli), "cli.floor_import_numpy_s": statistics.median(floor)}


def generate(workload: str, seed: int, workdir: str):
    """Write the worker's inputs; returns what the checks need."""
    import gen

    if workload == "cli-process":
        spec = gen.cli_process(seed)
        doc = {"maps": [gen.mapfile(e["m"]) for e in spec["maps"]], "ops": spec["ops"]}
        with open(os.path.join(workdir, "inputs.json"), "w") as fh:
            json.dump(doc, fh)
        return spec
    entries = {"check-mixed": gen.check_mixed, "oracle-sweep": gen.oracle_sweep, "factor-pullback": gen.factor_pullback}[workload](seed)
    if workload == "factor-pullback":
        for e in entries:
            e["quadric_real"] = gen.real_form(e["quadric"])
    with open(os.path.join(workdir, "inputs.pkl"), "wb") as fh:
        pickle.dump([{"m": e["m"], "kind": e["kind"], "quadric_real": e.get("quadric_real")} for e in entries], fh, protocol=4)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ballmaps", "__init__.py")):
        return fail("src/ballmaps not found: run from the root of a ballmaps checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    import verify

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    data = generate(args.workload, args.seed, workdir)

    # Set-up samples (timed runs only) are spread before and after the
    # measured run, so that a slow spell of the machine does not hit all of
    # them.  Each is a fresh worker process.
    def setup_samples(count):
        if args.trace:
            return []
        return [json.loads(worker(workdir, args.workload, "setup", 0))["setup_s"] for _ in range(count)]

    setups = setup_samples(SETUP_REPEATS[0])
    worker(workdir, args.workload, "traced" if args.trace else "timed", args.seconds)
    with open(os.path.join(workdir, "result.pkl"), "rb") as fh:
        result = pickle.load(fh)
    setups += setup_samples(SETUP_REPEATS[1])

    check = {"check-mixed": verify.check_mixed, "oracle-sweep": verify.oracle_sweep, "factor-pullback": verify.factor_pullback, "cli-process": verify.cli_process}[args.workload]
    failed, problems = check(data, result["outputs"])
    if result["mismatches"]:
        problems.append(f"outputs changed between rounds at ops {result['mismatches']}")
    unexpected = {
        i: why for i, why in failed.items()
        if args.workload != "check-mixed" or not verify.excused(data[i], why)
    }
    rounds = result["ops"] // result["round"]
    correct = not problems and not unexpected

    if args.trace:
        layers = dict(result["layers"])
        # Commands a workload does not run in-process read 0 ms.
        for cmd in ("check", "decompose", "sample"):
            layers[f"cli.main.{cmd}.ms"] = result["cli_main_ms"].get(cmd, 0.0)
        layers.update(import_times())
        untraced, traced = result["untraced"]["ops_per_s"], result["traced"]["ops_per_s"]
        layers["trace.untraced_ops_per_s"] = untraced
        # The untraced rounds' figures over every repetition, and the
        # garbage collector's share, which the fastest repetition leaves out.
        layers["timing.mean_ops_per_s"] = result["untraced"]["mean_ops_per_s"]
        layers["timing.gc_ms_per_op"] = result["untraced"]["gc_ms_per_op"]
        layers["trace.traced_ops_per_s"] = traced
        layers["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
        with open("BENCHMARK.json") as fh:
            per_layer = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": float(layers[m["name"]]), "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    report = {
        "correct": correct,
        "attempted": result["ops"],
        "failed": rounds * len(failed),
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round": result["round"],
        "rounds": rounds,
        "failed_in_round": {str(i): why for i, why in sorted(failed.items())},
        "unexpected_failures": {str(i): why for i, why in sorted(unexpected.items())},
        "problems": problems,
        "setup_samples_s": setups,
        "timing": {k: v for k, v in result.items() if k.startswith(("mean_", "pooled_", "gc_")) or k in ("untraced", "traced")},
        **report,
    }
    with open(os.path.join(workdir, "report.json"), "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if not correct:
        sys.stderr.write(json.dumps({"problems": problems, "unexpected_failures": detail["unexpected_failures"]}, default=str)[:4000] + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
