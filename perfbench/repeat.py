"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seconds 20 --seeds 1 2 3 4 5 6 7 8 9 10

Runs run.py once per (workload, seed), one process at a time, and prints
for each end-to-end metric of each workload the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, plus the shares of failed operations.  Every run's result
stays in perfbench/out/result-<workload>-<seed>-trace0.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()

    for wl in WORKLOADS:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(wl, seed, json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()}),
                  res["attempted"], res["failed"], res["correct"], flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        print(f"{wl:15s} failed shares {sorted({r['failed'] / r['attempted'] for r in runs})}  "
              f"all correct {all(r['correct'] for r in runs)}", flush=True)
        for name, s in summary.items():
            print(f"{wl:15s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
