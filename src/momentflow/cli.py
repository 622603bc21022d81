"""Command-line entry point: configure a model, run simulations,
oracle comparisons, and diagnostics, and emit CSV/JSON artifacts.

Exit codes: 0 ok, 2 domain error, 3 config error, 4 capacity, 5 internal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import metadata

import numpy as np

from .adiabatic import AdiabaticConfig, AdiabaticEmbedding, solve_effective
from .dynamics import (
    CosmologyParams,
    FreeConstantEmbedding,
    HarmonicCoherentEmbedding,
    coherent_free_constants,
    coherent_tilde_moment,
    cosmology_moments,
    free_particle_moments,
    integrate,
    order_check,
)
from .errors import (
    AdiabaticBreakdownError,
    CapacityError,
    ConfigError,
    DomainError,
    MomentflowError,
    StateError,
    StiffnessError,
)
from .hamiltonian import (
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    from_dimensionless,
    generate_eom,
)
from .moment_algebra import (
    MomentIndex,
    SemiclassicalState,
    bracket_moments,
    check_uncertainty_order2,
    moment_indices,
)
from .states import squeezed_moment

try:
    VERSION = metadata.version("momentflow")
except metadata.PackageNotFoundError:  # running from a checkout
    VERSION = "0.1.0"

MODELS = ("harmonic", "free", "quartic", "cosmology")

DEFAULTS = {
    "model": "harmonic",
    "m": 1.0,
    "omega": 1.0,
    "delta": 0.1,
    "hbar": 1.0,
    "gamma": 1.0,
    "kappa": 1.0,
    "E": 1.0,
    "ell": None,
    "g0": 1.0,
    "g32": 0.0,
    "g3": 1.0,
    "n_max": 3,
    "dof": 1,
    "closure": "zero",
    "rtol": 1e-8,
    "atol": 1e-10,
    "initial": {"kind": "coherent", "q0": 1.0, "p0": 0.0},
    "t0": 0.0,
    "t1": 2 * math.pi,
    "samples": 201,
    "oracle_dim": 120,
    "out": ".",
    "format": "csv",
    "seed": 0,
}

#: keys that take a finite real number (``ell`` may also be null)
REAL_KEYS = ("m", "omega", "delta", "hbar", "gamma", "kappa", "E", "g0", "g32", "g3",
             "t0", "t1", "rtol", "atol")

INITIAL_KEYS = {
    "coherent": {"kind", "q0", "p0"},
    "squeezed": {"kind", "q0", "p0", "g"},
    "moments": {"kind", "q0", "p0", "values"},
}


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg["initial"] = dict(DEFAULTS["initial"])
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(data)
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    if cfg["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg['model']!r}")
    init = cfg["initial"]
    if not isinstance(init, dict) or "kind" not in init:
        raise ConfigError("initial must be an object with a 'kind' field")
    if init["kind"] not in INITIAL_KEYS:
        raise ConfigError(f"initial.kind must be one of {sorted(INITIAL_KEYS)}")
    unknown = set(init) - INITIAL_KEYS[init["kind"]]
    if unknown:
        raise ConfigError(f"unknown initial keys: {sorted(unknown)}")
    for key in REAL_KEYS + ("ell",):
        if not (_is_number(cfg[key]) or (key == "ell" and cfg[key] is None)):
            raise ConfigError(f"{key} must be a finite number, got {cfg[key]!r}")
    for key in ("m", "omega"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be non-negative, got {cfg[key]!r}")
    for key in ("hbar", "rtol", "atol"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
    for key in ("q0", "p0"):
        if key in init and not _is_number(init[key]):
            raise ConfigError(f"initial.{key} must be a finite number, got {init[key]!r}")
    for key in ("n_max", "samples"):
        if not _is_int(cfg[key]) or cfg[key] < 2:
            raise ConfigError(f"{key} must be an integer of at least 2, got {cfg[key]!r}")
    if not _is_int(cfg["oracle_dim"]):
        raise ConfigError(f"oracle_dim must be an integer, got {cfg['oracle_dim']!r}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


# ---------------------------------------------------------------------------
# model and state construction


def build_model(cfg: dict) -> ClassicalHamiltonian:
    model = cfg["model"]
    if model == "harmonic":
        return ClassicalHamiltonian(m=cfg["m"], omega=cfg["omega"], potential=PotentialSpec.zero())
    if model == "quartic":
        return ClassicalHamiltonian(
            m=cfg["m"], omega=cfg["omega"], potential=PotentialSpec.quartic(cfg["delta"])
        )
    if model == "free":
        return ClassicalHamiltonian(m=cfg["m"], omega=0.0, potential=PotentialSpec.zero())
    return ClassicalHamiltonian(
        kind="cosmology", gamma=cfg["gamma"], kappa=cfg["kappa"], E=cfg["E"]
    )


def _reference_omega(cfg: dict) -> float:
    # free model has no frequency; the initial Gaussian width still needs one
    return cfg["omega"] if cfg["omega"] > 0 else 1.0


def _parse_label(label: str) -> MomentIndex:
    parts = label.split("_")
    if len(parts) != 3 or parts[0] != "G":
        raise ConfigError(f"bad moment label {label!r}, expected G_a_n")
    return MomentIndex.single(int(parts[1]), int(parts[2]))


def initial_state(cfg: dict, model: ClassicalHamiltonian) -> SemiclassicalState:
    hbar = cfg["hbar"]
    init = cfg["initial"]
    n_max = cfg["n_max"]
    q0 = float(init.get("q0", 1.0))
    p0 = float(init.get("p0", 0.0))

    if model.kind == "cosmology":
        params = CosmologyParams(
            gamma=cfg["gamma"], kappa=cfg["kappa"], E=cfg["E"], hbar=hbar,
            ell=cfg["ell"], g0=cfg["g0"], g32=cfg["g32"], g3=cfg["g3"],
        )
        moments = dict(cosmology_moments(params, q0, p0))
        for n in range(3, n_max + 1):
            for idx in moment_indices(n, 1):
                moments.setdefault(idx, 0.0)
        return SemiclassicalState(hbar, {"c": q0, "p": p0}, moments, n_max)

    m, w = cfg["m"], _reference_omega(cfg)
    moments: dict[MomentIndex, float] = {}
    if init["kind"] == "coherent":
        for n in range(2, n_max + 1):
            for idx in moment_indices(n, 1):
                moments[idx] = from_dimensionless(
                    coherent_tilde_moment(idx.p_power, n), idx.p_power, n, m, w, hbar
                )
    elif init["kind"] == "squeezed":
        g = np.asarray(init["g"], dtype=float)
        for n in range(2, n_max + 1):
            for idx in moment_indices(n, 1):
                a = idx.p_power
                # states module works in m w = 1 units
                moments[idx] = (m * w) ** (a - n / 2) * squeezed_moment(g, idx, hbar)
    else:
        values = init.get("values", {})
        if not isinstance(values, dict):
            raise ConfigError("initial.values must be a label -> value object")
        for n in range(2, n_max + 1):
            for idx in moment_indices(n, 1):
                moments[idx] = 0.0
        for label, val in values.items():
            idx = _parse_label(label)
            if idx.order > n_max:
                raise ConfigError(f"moment {label} exceeds n_max={n_max}")
            moments[idx] = float(val)
    pot = model.potential if model.kind == "oscillator" else None
    return SemiclassicalState(hbar, {"q": q0, "p": p0}, moments, n_max, pot)


def _write_trajectory(traj, cfg: dict, stem: str) -> list[str]:
    os.makedirs(cfg["out"], exist_ok=True)
    traj.meta["config"] = _json_safe(cfg)
    traj.meta["version"] = VERSION
    paths = []
    if cfg["format"] == "csv":
        path = os.path.join(cfg["out"], stem + ".csv")
        traj.to_csv(path)
        paths.append(path)
        meta_path = os.path.join(cfg["out"], stem + ".meta.json")
        with open(meta_path, "w") as fh:
            json.dump(
                {"labels": traj.labels, "complete": traj.complete, "stats": traj.stats,
                 "meta": traj.meta},
                fh, indent=2, sort_keys=True,
            )
        paths.append(meta_path)
    else:
        path = os.path.join(cfg["out"], stem + ".json")
        traj.to_json(path)
        paths.append(path)
    return paths


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict) -> int:
    model = build_model(cfg)
    HQ = expand_quantum_hamiltonian(model, cfg["n_max"])
    system = generate_eom(HQ, closure=cfg["closure"])
    s0 = initial_state(cfg, model)
    failure = None
    try:
        traj = integrate(
            system, s0, (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
            rtol=cfg["rtol"], atol=cfg["atol"],
        )
    except (StiffnessError, DomainError) as exc:
        # salvage the part of the run before the failure time so the user
        # still gets a flagged partial trajectory
        t_fail = getattr(exc, "t", None)
        if t_fail is None or t_fail <= cfg["t0"]:
            raise
        failure = str(exc)
        traj = integrate(
            system, s0, (cfg["t0"], cfg["t0"] + 0.9 * (t_fail - cfg["t0"])),
            n_samples=cfg["samples"], rtol=cfg["rtol"], atol=cfg["atol"],
        )
        traj.complete = False
        traj.meta["failure"] = failure
    for path in _write_trajectory(traj, cfg, "trajectory"):
        print(path)
    if not traj.complete:
        print(f"trajectory incomplete: {failure or 'domain guard triggered'}",
              file=sys.stderr)
        return 2
    return 0


def cmd_adiabatic(cfg: dict) -> int:
    model = build_model(cfg)
    if model.kind != "oscillator" or model.omega <= 0:
        raise ConfigError("adiabatic solver needs an oscillator model with omega > 0")
    init = cfg["initial"]
    q0 = float(init.get("q0", 1.0))
    qdot0 = float(init.get("p0", 0.0)) / model.m
    traj = solve_effective(
        AdiabaticConfig(), model, cfg["hbar"], q0, qdot0,
        (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
    )
    for path in _write_trajectory(traj, cfg, "adiabatic"):
        print(path)
    return 0 if traj.complete else 2


def _oracle_setup(cfg: dict, model: ClassicalHamiltonian):
    from . import oracle as orc

    D = cfg["oracle_dim"]
    if D > 600:
        raise CapacityError(f"oracle dimension {D} exceeds the supported cap 600")
    m, w = cfg["m"], _reference_omega(cfg)
    space = orc.FockSpace(D, m, w, cfg["hbar"])
    Hop = space.p1 @ space.p1 / (2 * m)
    if model.omega > 0:
        Hop = Hop + 0.5 * m * model.omega**2 * space.q1 @ space.q1
    if model.potential.coefficients:
        for k, ck in enumerate(model.potential.coefficients):
            if ck:
                Hop = Hop + ck * np.linalg.matrix_power(space.q1, k)
    return space, Hop


def cmd_compare(cfg: dict) -> int:
    from . import oracle as orc

    model = build_model(cfg)
    if model.kind != "oscillator":
        raise ConfigError("compare needs a model within oracle coverage (not cosmology)")
    if cfg["initial"]["kind"] != "coherent":
        raise ConfigError("compare supports coherent initial states")
    space, Hop = _oracle_setup(cfg, model)
    q0 = float(cfg["initial"].get("q0", 1.0))
    p0 = float(cfg["initial"].get("p0", 0.0))
    vac = np.zeros(space.D, dtype=complex)
    vac[0] = 1.0
    psi0 = orc.displacement((q0, p0), space) @ vac
    prop = orc.Propagator(Hop, cfg["hbar"])
    ts = np.linspace(cfg["t0"], cfg["t1"], cfg["samples"])

    ref: dict[str, list[float]] = {}
    tail_warned = False
    for t in ts:
        psi = prop(psi0, t)
        tail = float(np.sum(np.abs(psi[-max(2, space.D // 10):]) ** 2))
        if tail > 1e-8 and not tail_warned:
            print(f"warning: oracle truncation tail {tail:.2e} at t={t:.3g}; "
                  "errors beyond this time are unreliable", file=sys.stderr)
            tail_warned = True
        # second moments from q psi and p psi; the Weyl-ordered qp is Re <q psi, p psi>
        qpsi, ppsi = space.q1 @ psi, space.p1 @ psi
        q, p = np.vdot(psi, qpsi).real, np.vdot(psi, ppsi).real
        for lbl, val in [("q", q), ("p", p), ("G_0_2", np.vdot(qpsi, qpsi).real - q * q),
                         ("G_1_2", np.vdot(qpsi, ppsi).real - q * p),
                         ("G_2_2", np.vdot(ppsi, ppsi).real - p * p)]:
            ref.setdefault(lbl, []).append(val)

    HQ = expand_quantum_hamiltonian(model, cfg["n_max"])
    system = generate_eom(HQ, closure=cfg["closure"])
    st0 = orc.moments_of(psi0, space, cfg["n_max"])
    traj = integrate(system, st0, (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
                     rtol=cfg["rtol"], atol=cfg["atol"])

    table = {}
    for lbl, vals in ref.items():
        err = np.abs(traj.column(lbl) - np.array(vals))
        table[lbl] = {"max": float(np.max(err)), "rms": float(np.sqrt(np.mean(err**2)))}

    report = {"model": cfg["model"], "n_max": cfg["n_max"], "oracle_dim": space.D,
              "errors": table, "config": _json_safe(cfg), "version": VERSION}
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "compare.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"# moment dynamics vs oracle, model={cfg['model']}")
    for lbl in sorted(table):
        print(f"{lbl:8s} max {table[lbl]['max']:.6e}  rms {table[lbl]['rms']:.6e}")
    print(path)
    return 0


def cmd_brackets(cfg: dict, nmax_arg: int | None, dof_arg: int | None) -> int:
    n_max = nmax_arg if nmax_arg is not None else cfg["n_max"]
    dof = dof_arg if dof_arg is not None else cfg["dof"]
    if dof not in (1, 2):
        raise ConfigError("dof must be 1 or 2")
    idxs = []
    for n in range(2, n_max + 1):
        idxs.extend(moment_indices(n, dof))
    lines = []
    for i1 in idxs:
        for i2 in idxs:
            poly = bracket_moments(i1, i2)
            body = poly.to_text().replace("\n", " + ") or "0"
            lines.append(f"{{{i1.column_label()}, {i2.column_label()}}} = {body}")
    if cfg["format"] == "json":
        print(json.dumps({"n_max": n_max, "dof": dof, "brackets": lines}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def cmd_uncertainty(cfg: dict, state_path: str) -> int:
    try:
        with open(state_path) as fh:
            data = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad state file {state_path}: {exc}") from exc
    hbar = float(data.get("hbar", cfg["hbar"]))
    x = {k: float(v) for k, v in data.get("x", {"q": 0.0, "p": 0.0}).items()}
    moments = {_parse_label(lbl): float(v) for lbl, v in data["moments"].items()}
    n_max = max(idx.order for idx in moments)
    state = SemiclassicalState(hbar, x, moments, n_max)
    margin = check_uncertainty_order2(state)
    out = {"order2_margin": margin, "hbar": hbar}
    if cfg["format"] == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"order-2 uncertainty margin: {margin:.17g}")
    return 0 if margin >= -1e-10 else 2


def cmd_order_check(cfg: dict) -> int:
    model = build_model(cfg)
    hbars = np.geomspace(1e-3, 1e-1, 7)
    if cfg["model"] == "harmonic":
        emb = HarmonicCoherentEmbedding(model)
    elif cfg["model"] == "quartic":
        emb = AdiabaticEmbedding(model)
    elif cfg["model"] == "free":
        consts = coherent_free_constants(1.0, 1.0, cfg["m"], _reference_omega(cfg), 1.0)
        ref = {
            idx: free_particle_moments(consts, 1.0, 1.0, 2)[idx.p_power]
            for idx in moment_indices(2, 1)
        }
        emb = FreeConstantEmbedding(model, ref)
    else:
        raise ConfigError("order-check supports harmonic, quartic, free")
    result = order_check(emb, model, hbars, n_max=cfg["n_max"])
    if cfg["format"] == "json":
        print(json.dumps({
            "exact": result.exact, "slope": result.slope,
            "hbars": list(map(float, result.hbars)),
            "mismatches": list(map(float, result.mismatches)),
        }, sort_keys=True))
    else:
        print(str(result))
    return 0


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="momentflow", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--model", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--oracle-dim", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", default=None, choices=("csv", "json"))

    for name in ("simulate", "compare", "adiabatic", "order-check"):
        common(sub.add_parser(name))
    pb = sub.add_parser("brackets")
    common(pb)
    pb.add_argument("nmax_pos", type=int, nargs="?", default=None)
    pb.add_argument("dof_pos", type=int, nargs="?", default=None)
    pu = sub.add_parser("uncertainty")
    common(pu)
    pu.add_argument("state_file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        overrides = {
            "model": args.model, "out": args.out, "hbar": args.hbar,
            "n_max": args.nmax, "oracle_dim": getattr(args, "oracle_dim", None),
            "seed": args.seed, "format": args.format,
        }
        cfg = load_config(args.config, overrides)
        np.random.default_rng(cfg["seed"])  # reserved for stochastic subcommands
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "adiabatic":
            return cmd_adiabatic(cfg)
        if args.command == "brackets":
            return cmd_brackets(cfg, args.nmax_pos, args.dof_pos)
        if args.command == "uncertainty":
            return cmd_uncertainty(cfg, args.state_file)
        return cmd_order_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, AdiabaticBreakdownError, StiffnessError, StateError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except MomentflowError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
