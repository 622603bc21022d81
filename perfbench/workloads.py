"""The four benchmark workloads: seeded inputs, one operation, its check.

Calls into momentflow go through module attributes (``oracle.moments_of``,
not a name imported from it) so that the traced run's patches see them.

Every workload has the same shape.  ``inputs(rng, workdir)`` returns the
fixed list of operations that makes one pass, plus a warm-up operation
whose cost does not depend on the seed.  ``run(op)`` is the timed call
into momentflow.  ``check(op, out)`` raises :class:`CheckError` when an
output is wrong; it runs outside the timer, as does ``check_run``, which
gets the operations of one pass and their last outputs once at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import reference

from momentflow import cli, moment_algebra, oracle, states
from momentflow import hamiltonian as ham
from momentflow.moment_algebra import moment_indices


class CheckError(AssertionError):
    """An output of the program disagrees with its independent check."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# simulate: `momentflow simulate` on the quartic oscillator, in process, plus
# `momentflow adiabatic` and `momentflow compare` at the centre of the box

SIM_DELTA = (0.05, 0.2)
SIM_Q0 = (0.5, 1.5)
SIM_P0 = (-0.5, 0.5)
SIM_T1 = 4 * math.pi  # two periods of the omega = 1 oscillator
SIM_DRIFT_TOL = 1e-8
# worst seen over the corners of the input box: 1.3e-3 and 2.7e-2
SIM_EXACT_Q_TOL = 4e-3
SIM_EXACT_G02_TOL = 8e-2
# the adiabatic approximation at the centre is off by 9.1e-3 and 8.9e-2
ADI_Q_TOL = 3e-2
ADI_G02_TOL = 0.3
# compare's error table against the benchmark's own; seen to agree to 1e-13
COMPARE_TOL = 1e-8
SIM_OUTPUT = {"simulate": "trajectory.csv", "adiabatic": "adiabatic.csv",
              "compare": "compare.json"}


def _sim_op(t, p0, workdir, name, kind="simulate"):
    """Operation at position t in [0, 1] along the (delta, q0) diagonal,
    from the mildest corner (few RHS calls) to the hardest."""
    delta = SIM_DELTA[0] + t * (SIM_DELTA[1] - SIM_DELTA[0])
    q0 = SIM_Q0[0] + t * (SIM_Q0[1] - SIM_Q0[0])
    cfg = {
        "model": "quartic", "n_max": 8, "delta": delta, "t1": SIM_T1,
        "initial": {"kind": "coherent", "q0": q0, "p0": p0},
    }
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return {"kind": kind, "t": t, "delta": delta, "q0": q0, "p0": p0, "config": path,
            "out": os.path.join(workdir, name)}


def simulate_inputs(rng, workdir):
    # One pass is the centre of the box and two points of the lower half of
    # the diagonal, t = u/4 and 1/2 - u/4 for a seeded u, each with its
    # mirror image 1 - t.  The op cost rises monotonically and convexly
    # along the diagonal, and the antithetic choice of the two points (one
    # near an end when the other is near the centre) keeps the mean cost of
    # a pass nearly seed-independent.  An adiabatic run (about 0.1 s) and a
    # compare run (about 3 s) at the centre close the pass; one is cheaper
    # and one dearer than every simulate run, so the median op is the
    # centre simulate run on every seed.
    u = rng.uniform()
    centre = _sim_op(0.5, 0.0, workdir, "centre")
    ops = [centre]
    for i, t in enumerate((u / 4, 0.5 - u / 4)):
        p0 = rng.uniform(*SIM_P0)
        ops.append(_sim_op(t, p0, workdir, f"low{i}"))
        ops.append(_sim_op(1.0 - t, -p0, workdir, f"high{i}"))
    ops.append(_sim_op(0.5, 0.0, workdir, "adiabatic", kind="adiabatic"))
    ops.append({**_sim_op(0.5, 0.0, workdir, "compare", kind="compare"),
                "centre_csv": os.path.join(centre["out"], SIM_OUTPUT["simulate"])})
    return ops, ops[0]


def simulate_run(op):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([op["kind"], "--config", op["config"], "--out", op["out"]])
    if code != 0:
        raise RuntimeError(f"momentflow {op['kind']} exited {code}")
    return os.path.join(op["out"], SIM_OUTPUT[op["kind"]])


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {label: data[:, i] for i, label in enumerate(header)}


def _exact_errors(op, cols):
    """Largest and rms distance of <q> and G_0_2 in cols from the exact
    evolution of op's initial state."""
    mean_q, g02, tail = reference.exact_quartic_q_and_g02(
        op["delta"], op["q0"], op["p0"], cols["t"])
    _require(tail < 1e-12, f"exact evolution leaks to the basis edge ({tail:.1e})")
    dq = np.abs(mean_q - cols["q"])
    dg = np.abs(g02 - cols["G_0_2"])
    return {"q": (float(np.max(dq)), float(np.sqrt(np.mean(dq**2)))),
            "G_0_2": (float(np.max(dg)), float(np.sqrt(np.mean(dg**2))))}


def _check_samples(op, cols):
    _require(len(cols["t"]) == 201 and abs(cols["t"][-1] - SIM_T1) < 1e-12,
             "trajectory does not reach t1 in 201 samples")
    _require(abs(cols["q"][0] - op["q0"]) < 1e-12, "trajectory does not start at q0")


def simulate_check(op, out):
    if op["kind"] == "compare":
        return _compare_check(op, out)
    cols = out if isinstance(out, dict) else read_csv(out)
    _check_samples(op, cols)
    if op["kind"] == "adiabatic":
        _require(abs(cols["qdot"][0] - op["p0"]) < 1e-12, "trajectory does not start at p0")
        err = _exact_errors(op, cols)
        _require(err["q"][0] <= ADI_Q_TOL and err["G_0_2"][0] <= ADI_G02_TOL,
                 f"adiabatic run differs from exact evolution by {err}")
        return
    _require(abs(cols["p"][0] - op["p0"]) < 1e-12, "trajectory does not start at p0")
    hq = reference.quartic_hq(op["delta"], cols["q"], cols["p"], cols["G_2_2"],
                              cols["G_0_2"], cols["G_0_3"], cols["G_0_4"])
    drift = float(np.max(np.abs(hq - hq[0])))
    _require(drift <= SIM_DRIFT_TOL * max(1.0, abs(hq[0])),
             f"H_Q drift {drift:.3e} along the trajectory")


def _compare_check(op, out):
    """compare's error table must be the distance of the moment dynamics
    (the centre simulate run, same input) from the exact evolution."""
    if isinstance(out, dict):
        report = out
    else:
        with open(out) as fh:
            report = json.load(fh)
    _require(report["n_max"] == 8, "compare ran at another n_max")
    err = _exact_errors(op, read_csv(op["centre_csv"]))
    for label, (worst, rms) in err.items():
        got = report["errors"][label]
        _require(abs(got["max"] - worst) <= COMPARE_TOL and abs(got["rms"] - rms) <= COMPARE_TOL,
                 f"compare reports {label} error {got}, the exact evolution gives "
                 f"max {worst!r}, rms {rms!r}")


def simulate_check_run(ops, outs):
    """Compare the hardest simulate op of the pass with an exact evolution."""
    k = max((i for i in range(len(ops)) if ops[i]["kind"] == "simulate"),
            key=lambda i: ops[i]["t"])
    cols = outs[k] if isinstance(outs[k], dict) else read_csv(outs[k])
    err = _exact_errors(ops[k], cols)
    _require(err["q"][0] <= SIM_EXACT_Q_TOL,
             f"<q> differs from exact evolution by {err['q'][0]:.3e}")
    _require(err["G_0_2"][0] <= SIM_EXACT_G02_TOL,
             f"G_0_2 differs from exact evolution by {err['G_0_2'][0]:.3e}")


# ---------------------------------------------------------------------------
# derive: H -> H_Q -> EOM -> compiled RHS -> JSON listing, no integration

DERIVE_NMAX = (8, 10, 12)
DERIVE_CLOSURES = ("zero", "gaussian-factorize")
DERIVE_SUPPORT = 6  # levels of the random Fock state the check evaluates at
DERIVE_TOL = 1e-12  # grad H_Q . rhs, relative to its terms; seen below 1e-16
DERIVE_EXACT_TOL = 1e-9  # rhs vs exact rates, relative to the order; seen 7e-13
DERIVE_EVAL_TOL = 1e-10  # compiled vs symbolic rhs, relative; seen 1e-14


def derive_inputs(rng, workdir):
    ops = []
    for n_max in DERIVE_NMAX:
        for closure in DERIVE_CLOSURES:
            ops.append({
                "n_max": n_max, "closure": closure,
                "delta": float(rng.uniform(*SIM_DELTA)),
                "check_seed": int(rng.integers(2**31)),
            })
    return ops, ops[0]


def derive_run(op):
    model = ham.ClassicalHamiltonian(potential=ham.PotentialSpec.quartic(op["delta"]))
    hq = ham.expand_quantum_hamiltonian(model, op["n_max"])
    system = ham.generate_eom(hq, closure=op["closure"])
    rhs = system.compile(1.0)
    listing = system.listing_json()
    return {"system": system, "labels": system.labels(), "rhs": rhs, "listing": listing}


def _order(label):
    return 1 if label in ("q", "p") else int(label.rsplit("_", 1)[1])


def _compare_by_order(labels, got, want, tol, what):
    """|got - want| <= tol * max(1, largest |want| of the same order)."""
    scale = {}
    for label, w in zip(labels, want):
        scale[_order(label)] = max(scale.get(_order(label), 1.0), abs(w))
    for label, g, w in zip(labels, got, want):
        _require(abs(g - w) <= tol * scale[_order(label)],
                 f"rhs[{label}] = {float(g)!r}, {what} {float(w)!r}")


def derive_check(op, out):
    labels = out["labels"]
    listing = json.loads(out["listing"])
    _require(len(listing["equations"]) == len(labels)
             and listing["meta"]["n_max"] == op["n_max"]
             and listing["meta"]["closure"] == op["closure"],
             "listing does not describe the derived system")
    # a random Fock state; its moments and their exact rates come from the
    # benchmark's own ladder matrices
    rng = np.random.default_rng(op["check_seed"])
    n_max = op["n_max"]
    psi = np.zeros(DERIVE_SUPPORT + n_max + 8, dtype=complex)
    psi[:DERIVE_SUPPORT] = rng.normal(size=DERIVE_SUPPORT) + 1j * rng.normal(size=DERIVE_SUPPORT)
    values, rates = reference.quartic_moment_rates(op["delta"], psi / np.linalg.norm(psi), n_max)
    _require(set(labels) == set(values), "derived variables are not q, p and G_a_n up to n_max")
    y = np.array([values[label] for label in labels])
    f = out["rhs"](y)
    # the equations of order n_max - 2 and below need no moment above n_max,
    # so they are exact whatever the closure
    exact = [i for i, label in enumerate(labels) if _order(label) <= n_max - 2]
    _compare_by_order([labels[i] for i in exact], f[exact], [rates[labels[i]] for i in exact],
                      DERIVE_EXACT_TOL, "exact rate")
    # every equation, the closed top orders too: the compiled RHS must agree
    # with the symbolic RHS it was lowered from
    system = out["system"]
    state = system.unpack(y, 1.0)
    symbolic = [system.rhs[var].evaluate(state) for var in system.variables]
    _compare_by_order(labels, f, symbolic, DERIVE_EVAL_TOL, "symbolic")
    # H_Q is conserved by its own flow: grad H_Q . rhs = {H_Q, H_Q} = 0
    col = {label: i for i, label in enumerate(labels)}
    grad = reference.quartic_hq_gradient(op["delta"], y[col["q"]], y[col["p"]],
                                         y[col["G_0_2"]], y[col["G_0_3"]])
    parts = [g * f[col[label]] for label, g in grad.items()]
    scale = sum(abs(v) for v in parts)
    _require(scale > 0 and abs(sum(parts)) <= DERIVE_TOL * scale,
             f"grad H_Q . rhs = {sum(parts):.3e} (scale {scale:.3e})")


# ---------------------------------------------------------------------------
# oracle-check: bracket_moments against the Fock-basis commutator oracle

ORACLE_STATES = 3
IDX1 = [i for n in (2, 3, 4) for i in moment_indices(n, 1)]
IDX2 = [i for n in (2, 3) for i in moment_indices(n, 2)]


def oracle_inputs(rng, workdir):
    ops = []
    for _ in range(ORACLE_STATES):
        psi1 = oracle.random_state(rng, 60, support=20)
        parts = [oracle.random_state(rng, 16, support=7) for _ in range(4)]
        psi2 = np.kron(parts[0], parts[1]) + 0.5 * np.kron(parts[2], parts[3])
        ops.append({"psi1": psi1, "psi2": psi2 / np.linalg.norm(psi2)})
    return ops, ops[0]


def _pairs(space, psi, idxs, order):
    st = oracle.moments_of(psi, space, order)
    out = []
    for a in range(len(idxs)):
        for b in range(a, len(idxs)):
            out.append((moment_algebra.bracket_moments(idxs[a], idxs[b]).evaluate(st),
                        oracle.bracket_oracle(idxs[a], idxs[b], psi, space)))
    return out


def oracle_run(op):
    space1 = oracle.FockSpace(60, 1.0, 1.0, 1.0)
    space2 = oracle.FockSpace(16, 1.0, 1.0, 1.0, dof=2)
    return _pairs(space1, op["psi1"], IDX1, 6) + _pairs(space2, op["psi2"], IDX2, 4)


def oracle_check(op, out):
    n1 = len(IDX1) * (len(IDX1) + 1) // 2
    n2 = len(IDX2) * (len(IDX2) + 1) // 2
    _require(len(out) == n1 + n2, "wrong number of bracket pairs")
    for algebra, exact in out:
        tol = 1e-10 + 1e-8 * abs(exact) if abs(exact) > 1e-6 else 1e-10
        _require(abs(algebra - exact) < tol,
                 f"bracket {algebra!r} vs oracle {exact!r}")


# ---------------------------------------------------------------------------
# rho-quadrature: dense coherent-basis density matrix, trace and purity

RHO_SIDE = 41
RHO_HALF_WIDTH = 6.0
RHO_STATES = 2


def rho_inputs(rng, workdir):
    ops = []
    for _ in range(RHO_STATES):
        g = rng.uniform(-0.3, 0.3, (2, 2))
        g = (g + g.T) / 2
        x = rng.uniform(-0.5, 0.5, 2)
        qs = np.linspace(x[0] - RHO_HALF_WIDTH, x[0] + RHO_HALF_WIDTH, RHO_SIDE)
        ps = np.linspace(x[1] - RHO_HALF_WIDTH, x[1] + RHO_HALF_WIDTH, RHO_SIDE)
        points = np.stack(np.meshgrid(qs, ps, indexing="ij"), axis=-1).reshape(-1, 2)
        weight = (qs[1] - qs[0]) * (ps[1] - ps[0]) / (2 * math.pi)
        ops.append({"g": g, "x": x, "points": points, "weight": weight})
    return ops, ops[0]


def rho_run(op):
    cov = states.SqueezeMatrix(op["g"]).covariance(1.0)
    rho = states.rho_matrix(op["points"], op["x"], cov, 1.0)
    w = op["weight"]
    trace = float(np.sum(np.diag(rho)).real * w)
    purity = float(np.einsum("ab,ba->", rho, rho).real * w**2)
    return {"trace": trace, "purity": purity}


def rho_check(op, out):
    # a pure Gaussian state: both are 1 up to the quadrature error
    _require(abs(out["trace"] - 1.0) < 1e-6, f"trace {out['trace']!r}")
    _require(abs(out["purity"] - 1.0) < 1e-5, f"purity {out['purity']!r}")


# ---------------------------------------------------------------------------


def _no_run_check(ops, outs):
    pass


WORKLOADS = {
    "simulate": (simulate_inputs, simulate_run, simulate_check, simulate_check_run),
    "derive": (derive_inputs, derive_run, derive_check, _no_run_check),
    "oracle-check": (oracle_inputs, oracle_run, oracle_check, _no_run_check),
    "rho-quadrature": (rho_inputs, rho_run, rho_check, _no_run_check),
}
