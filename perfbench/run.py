"""momentflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
processes (perfbench/child.py) started with one BLAS/OpenMP thread and a
fixed PYTHONHASHSEED, as a closed loop with one client: one operation at
a time, each checked right after it, outside its timer.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms and
peak_rss_mb of one timed process, and setup_s, the median over SETUP_RUNS
processes of the time from process start to the first timed operation.
--trace 1 runs the workload once untraced and once with every layer
wrapped in spans (perfbench/spans.py), and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is the result
object; a copy with the machine description goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
WORKLOADS = ("simulate", "derive", "oracle-check", "rho-quadrature")
SETUP_RUNS = 4  # the timed process plus SETUP_RUNS - 1 set-up-only ones
DEADLINE_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("MOMENTFLOW_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, deadline, setup_only=False, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before a workload process could start")
    t0 = time.monotonic()
    # subprocess.run kills and waits for the child when the timeout expires
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "threads": THREAD_ENV,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "commit": commit(),
    }


def declared(kind):
    """(name, unit) of each metric BENCHMARK.json declares under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def with_units(values, kind):
    return {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}


def measure(args, deadline):
    setups = [run_child(args, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    rep = run_child(args, deadline)
    setups.append(rep["setup_s"])
    rep["setup_samples_s"] = setups
    return rep, with_units({
        "ops_per_s": rep["ops"] / rep["op_s"],
        "op_p50_ms": rep["op_p50_s"] * 1e3,
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }, "end_to_end")


def measure_traced(args, deadline):
    plain = run_child(args, deadline)
    rep = run_child(args, deadline, trace=1)
    layers = dict(rep.pop("layers"))
    layers["bench.trace_overhead_pct"] = 100.0 * (rep["op_p50_s"] / plain["op_p50_s"] - 1.0)
    rep["untraced"] = plain
    # both processes ran operations: every one counts and is checked
    rep["correct"] = rep["correct"] and plain["correct"]
    rep["attempted"] += plain["attempted"]
    rep["failed"] += plain["failed"]
    rep["errors"] += plain["errors"]
    rep["spans_file"] = os.path.relpath(rep["spans_file"], ROOT)
    return rep, with_units(layers, "per_layer")


def main():
    ap = argparse.ArgumentParser(description="momentflow benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "momentflow", "__init__.py")):
        sys.stderr.write("benchmark: run from the root of a momentflow checkout "
                         "(src/momentflow not found)\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    rep, metrics = (measure_traced if args.trace else measure)(args, deadline)
    env = environment(args)
    env.update(rep.pop("libraries"))
    print("# environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bool(rep["correct"]),
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }
    for err in rep.get("errors", []):
        print("# error " + err)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"result": result, "environment": env, "detail": rep}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
