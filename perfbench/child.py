"""One workload process: set up, warm up, run the timed loop, report.

Started by run.py with the thread and hash-seed variables already in its
environment.  ``--t0`` is the parent's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so
``ready - t0`` is the set-up time including interpreter start.  The last
line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import numpy as np

    import momentflow  # noqa: F401  (imports every module of the package)
    import workloads
    import_s = time.perf_counter() - t_import

    make_inputs, run_op, check_op, check_run = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops, warm = make_inputs(np.random.default_rng(args.seed), workdir)
        try:
            check_op(warm, run_op(warm))
            warm_error = None
        except workloads.CheckError as exc:
            warm_error = f"warm-up: {exc}"
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_s": ready - args.t0}))
            return 0
        report = timed_loop(args, ops, run_op, check_op, check_run, import_s)
        report["setup_s"] = ready - args.t0
        if warm_error is not None:
            report["correct"] = False
            report["errors"].insert(0, warm_error)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["libraries"] = libraries()
    print(json.dumps(report))
    return 0


def libraries():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def timed_loop(args, ops, run_op, check_op, check_run, import_s):
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    op_times = []
    attempted = failed = 0
    correct = True
    errors = []
    last_outs = [None] * len(ops)
    start = time.perf_counter()
    # whole passes only, so every run attempts the same mix of operations
    while time.perf_counter() - start < args.seconds:
        for k, op in enumerate(ops):
            attempted += 1
            if tracer is not None:
                tracer.op = attempted - 1
            t = time.perf_counter()
            try:
                out = run_op(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"op {k}: {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = time.perf_counter() - t
                if tracer is not None:
                    tracer.op = None
            op_times.append(dt)
            last_outs[k] = out
            try:
                check_op(op, out)
            except workloads.CheckError as exc:
                correct = False
                errors.append(f"op {k}: {exc}")
    if all(out is not None for out in last_outs):
        try:
            check_run(ops, last_outs)
        except workloads.CheckError as exc:
            correct = False
            errors.append(f"run: {exc}")

    report = {
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors[:10],
        "passes": attempted // len(ops),
        "op_s": sum(op_times),
        "op_p50_s": statistics.median(op_times) if op_times else None,
        "op_p90_s": statistics.quantiles(op_times, n=10)[-1] if len(op_times) > 1 else None,
        "ops": len(op_times),
        "op_ms": [round(t * 1e3, 3) for t in op_times],
        "import_s": import_s,
    }
    if tracer is not None:
        import spans

        report["layers"] = spans.layer_metrics(tracer, len(op_times), sum(op_times), import_s)
        report["spans_file"] = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(report["spans_file"])
    return report


if __name__ == "__main__":
    sys.exit(main())
