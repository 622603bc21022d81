"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selftest.py

For each workload, runs some of its operations, confirms that their checks
pass, then corrupts one output at a time and confirms that the check
fails.  Exits 1 if any check misses its corruption.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

import workloads as wl


def _scaled(out, label_of, factor):
    """out with the compiled RHS component chosen by label_of(labels, f)
    multiplied by factor."""

    def rhs(y):
        f = out["rhs"](y)
        f[out["labels"].index(label_of(out["labels"], f))] *= factor
        return f

    return {**out, "rhs": rhs}


def _largest_of_order(n):
    def pick(labels, f):
        return max((label for label in labels if wl._order(label) == n),
                   key=lambda label: abs(f[labels.index(label)]))
    return pick


def corrupt_simulate(ops):
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op)
    centre = by_kind["simulate"][0]
    hardest = max(by_kind["simulate"], key=lambda op: op["t"])
    adiabatic, compare = by_kind["adiabatic"][0], by_kind["compare"][0]
    for op in (centre, hardest, adiabatic, compare):
        wl.simulate_check(op, wl.simulate_run(op))
    wl.simulate_check_run([hardest], [os.path.join(hardest["out"], "trajectory.csv")])

    cols = wl.read_csv(os.path.join(centre["out"], "trajectory.csv"))
    cols["G_0_2"] = cols["G_0_2"].copy()
    cols["G_0_2"][100] += 1e-6
    yield "H_Q drift", wl.simulate_check, centre, cols
    cols = wl.read_csv(os.path.join(hardest["out"], "trajectory.csv"))
    yield "exact <q>", lambda op, c: wl.simulate_check_run([op], [c]), hardest, \
        {**cols, "q": cols["q"] + 0.01}
    cols = wl.read_csv(os.path.join(adiabatic["out"], "adiabatic.csv"))
    q = cols["q"].copy()
    q[1:] += 0.05
    yield "adiabatic <q>", wl.simulate_check, adiabatic, {**cols, "q": q}
    with open(os.path.join(compare["out"], "compare.json")) as fh:
        report = json.load(fh)
    report["errors"]["q"]["max"] += 1e-6
    yield "compare error table", wl.simulate_check, compare, report


def corrupt_derive(ops):
    op = max(ops, key=lambda op: op["n_max"])
    out = wl.derive_run(op)
    wl.derive_check(op, out)
    n = op["n_max"]
    yield f"rhs of order {n - 2}", wl.derive_check, op, \
        _scaled(out, _largest_of_order(n - 2), 1 + 1e-6)
    yield f"rhs of order {n} (closed)", wl.derive_check, op, \
        _scaled(out, _largest_of_order(n), 1 + 1e-6)
    # a fault in the derivation itself: compiled and symbolic RHS agree
    yield "derivation (delta off by 1e-6)", wl.derive_check, op, \
        wl.derive_run({**op, "delta": op["delta"] * (1 + 1e-6)})


def corrupt_oracle(ops):
    op = ops[0]
    out = wl.oracle_run(op)
    wl.oracle_check(op, out)
    bad = list(out)
    algebra, exact = bad[len(bad) // 2]
    bad[len(bad) // 2] = (algebra + 1e-6 * max(1.0, abs(exact)), exact)
    yield "bracket vs oracle", wl.oracle_check, op, bad


def corrupt_rho(ops):
    op = ops[0]
    out = wl.rho_run(op)
    wl.rho_check(op, out)
    yield "purity", wl.rho_check, op, {**out, "purity": out["purity"] + 1e-4}


CORRUPTIONS = {
    "simulate": corrupt_simulate,
    "derive": corrupt_derive,
    "oracle-check": corrupt_oracle,
    "rho-quadrature": corrupt_rho,
}


def main():
    missed = 0
    workdir = tempfile.mkdtemp(dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        for name, (inputs, *_) in wl.WORKLOADS.items():
            ops, _ = inputs(np.random.default_rng(0), workdir)
            for what, check, op, bad in CORRUPTIONS[name](ops):
                try:
                    check(op, bad)
                except wl.CheckError as exc:
                    print(f"{name}: corrupted {what} caught ({exc})")
                else:
                    print(f"{name}: corrupted {what} NOT caught")
                    missed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
