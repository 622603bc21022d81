"""Command-line entry point: configure a model, run simulations,
oracle comparisons, and diagnostics, and emit CSV/JSON artifacts.

Every config key, its default and its rule are declared once, in
``CONFIG_SCHEMA`` (and ``INITIAL_SCHEMA`` for the keys of each
``initial.kind``).  Each override flag sets the config key that ``FLAGS``
maps it to (``--nmax`` sets ``n_max``), with the type of that key's default.

A run that stops before t1 (a domain guard, an adiabatic breakdown or a
step-size collapse) exits 2: ``simulate`` and ``adiabatic`` still write the
samples reached, flagged incomplete, and print ``trajectory incomplete:
<stop_cause> at t=<t_stop>``; ``compare`` writes nothing.

Exit codes: 0 ok, 2 domain error (or numeric overflow), 3 config error (a rule
of the schema fails, or the command line does not parse), 4 capacity, 5
internal error (any other exception, reported as ``internal error: <Type>:
<message>`` without a traceback).  ``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__ as VERSION
from .adiabatic import AdiabaticConfig, AdiabaticEmbedding, solve_effective
from .dynamics import (
    CosmologyParams,
    FreeConstantEmbedding,
    HarmonicCoherentEmbedding,
    coherent_free_constants,
    coherent_moments,
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
    StateError,
)
from .hamiltonian import (
    CLOSURES,
    ClassicalHamiltonian,
    PotentialSpec,
    expand_quantum_hamiltonian,
    generate_eom,
)
from .moment_algebra import (
    MomentIndex,
    SemiclassicalState,
    bracket_moments,
    check_uncertainty_order2,
    moment_vars,
)
from .states import SqueezeMatrix, squeezed_moment

MODELS = ("harmonic", "free", "quartic", "cosmology")

# ---------------------------------------------------------------------------
# configuration schema: key -> (default, rule, words); a value v passes when
# rule(v) is true, otherwise the config error reads "<key> must be <words>"

REQUIRED = object()  # default of a key that has none


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _moment_index(label) -> MomentIndex | None:
    """Index of a one-DOF moment label G_a_n with 0 <= a <= n and n >= 2."""
    match = isinstance(label, str) and re.fullmatch(r"G_(\d+)_(\d+)", label)
    if not match:
        return None
    a, n = int(match[1]), int(match[2])
    return MomentIndex.single(a, n) if a <= n and n >= 2 else None


def _one_of(*choices):
    return (lambda v: isinstance(v, str) and v in choices), f"one of {choices}"


NUMBER = _number, "a finite number"
POSITIVE = (lambda v: _number(v) and v > 0), "a positive finite number"
NON_NEGATIVE = (lambda v: _number(v) and v >= 0), "a non-negative finite number"
AT_LEAST_2 = (lambda v: _integer(v) and v >= 2), "an integer of at least 2"
MOMENTS = (
    lambda v: isinstance(v, dict)
    and all(_moment_index(k) is not None and _number(x) for k, x in v.items())
), "an object mapping labels G_a_n (0 <= a <= n, n >= 2) to finite numbers"

CONFIG_SCHEMA = {
    "model": ("harmonic", *_one_of(*MODELS)),
    "m": (1.0, *POSITIVE),
    "omega": (1.0, *NON_NEGATIVE),
    "delta": (0.1, *NUMBER),
    "hbar": (1.0, *POSITIVE),
    "gamma": (1.0, *POSITIVE),
    "kappa": (1.0, *POSITIVE),
    "E": (1.0, *NUMBER),
    "ell": (None, lambda v: v is None or POSITIVE[0](v), "null or a positive finite number"),
    "g0": (1.0, *NUMBER),
    "g32": (0.0, *NUMBER),
    "g3": (1.0, *NUMBER),
    "n_max": (3, *AT_LEAST_2),
    "dof": (1, lambda v: _integer(v) and v in (1, 2), "1 or 2"),
    "closure": ("zero", *_one_of(*CLOSURES)),
    "rtol": (1e-8, *POSITIVE),
    "atol": (1e-10, *POSITIVE),
    "initial": ({"kind": "coherent"}, lambda v: isinstance(v, dict), "an object"),
    "t0": (0.0, *NUMBER),
    "t1": (2 * math.pi, *NUMBER),
    "samples": (201, *AT_LEAST_2),
    "oracle_dim": (120, _integer, "an integer"),
    "out": (".", lambda v: isinstance(v, str) and v != "", "a non-empty path"),
    "format": ("csv", *_one_of("csv", "json")),
}

_INITIAL_COMMON = {
    "kind": (REQUIRED, *_one_of("coherent", "squeezed", "moments")),
    "q0": (1.0, *NUMBER),
    "p0": (0.0, *NUMBER),
}

#: initial.kind -> its keys, declared like CONFIG_SCHEMA
INITIAL_SCHEMA = {
    "coherent": _INITIAL_COMMON,
    "squeezed": {**_INITIAL_COMMON, "g": (
        REQUIRED,
        lambda v: isinstance(v, list) and len(v) == 2
        and all(isinstance(row, list) and len(row) == 2 and all(map(_number, row)) for row in v)
        and v[0][1] == v[1][0],
        "a symmetric 2x2 list of finite numbers",
    )},
    "moments": {**_INITIAL_COMMON, "values": ({}, *MOMENTS)},
}

#: override flag -> the config key it sets
FLAGS = {"--model": "model", "--out": "out", "--hbar": "hbar", "--nmax": "n_max",
         "--oracle-dim": "oracle_dim", "--format": "format"}


def _apply(schema: dict, data: dict, prefix: str = "") -> dict:
    """``data`` with every default of ``schema`` filled in, each value
    checked by its rule and unknown keys rejected."""
    out = {}
    for key, (default, rule, words) in schema.items():
        if key not in data and default is REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        val = data[key] if key in data else copy.deepcopy(default)
        if not rule(val):
            raise ConfigError(f"{prefix}{key} must be {words}, got {val!r}")
        out[key] = val
    unknown = sorted(prefix + key for key in set(data) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys: {unknown}")
    return out


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    return data


def load_config(path: str | None, overrides: dict) -> dict:
    data = {} if path is None else _read_json(path, "config file")
    data.update((key, val) for key, val in overrides.items() if val is not None)
    cfg = _apply(CONFIG_SCHEMA, data)
    # a kind that is missing, unhashable or unknown fails the common kind rule
    kind = cfg["initial"].get("kind")
    schema = INITIAL_SCHEMA.get(kind if isinstance(kind, str) else None, _INITIAL_COMMON)
    init = cfg["initial"] = _apply(schema, cfg["initial"], "initial.")
    if cfg["t1"] == cfg["t0"]:
        raise ConfigError(f"t1 must differ from t0, both are {cfg['t0']!r}")
    if cfg["model"] != "cosmology" and cfg["m"] * _reference_omega(cfg) == 0:
        raise ConfigError(f"m * omega underflows to 0 (m = {cfg['m']!r}, omega = {cfg['omega']!r})")
    for label in init.get("values", {}):
        if _moment_index(label).order > cfg["n_max"]:
            raise ConfigError(f"initial.values label {label} exceeds n_max={cfg['n_max']}")
    return cfg


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


def initial_state(cfg: dict, model: ClassicalHamiltonian) -> SemiclassicalState:
    hbar = cfg["hbar"]
    init = cfg["initial"]
    n_max = cfg["n_max"]
    q0, p0 = float(init["q0"]), float(init["p0"])

    if model.kind == "cosmology":
        params = CosmologyParams(
            gamma=cfg["gamma"], kappa=cfg["kappa"], E=cfg["E"], hbar=hbar,
            ell=cfg["ell"], g0=cfg["g0"], g32=cfg["g32"], g3=cfg["g3"],
        )
        moments = {**dict.fromkeys(moment_vars(n_max), 0.0), **cosmology_moments(params, q0, p0)}
        return SemiclassicalState(hbar, {"c": q0, "p": p0}, moments, n_max)

    m, w = cfg["m"], _reference_omega(cfg)
    if init["kind"] == "coherent":
        moments = coherent_moments(n_max, m, w, hbar)
    elif init["kind"] == "squeezed":
        g = SqueezeMatrix(init["g"])
        # states module works in m w = 1 units
        moments = {idx: (m * w) ** (idx.p_power - idx.order / 2) * squeezed_moment(g, idx, hbar)
                   for idx in moment_vars(n_max)}
    else:
        moments = dict.fromkeys(moment_vars(n_max), 0.0)
        moments.update((_moment_index(lbl), float(val)) for lbl, val in init["values"].items())
    return SemiclassicalState(hbar, {"q": q0, "p": p0}, moments, n_max)


def _write_trajectory(traj, cfg: dict, stem: str) -> list[str]:
    os.makedirs(cfg["out"], exist_ok=True)
    traj.meta["config"] = cfg
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


# ---------------------------------------------------------------------------
# subcommands


def _run_and_write(cfg: dict, stem: str, traj) -> int:
    """Write ``traj``; exit 2 if it stopped early."""
    for path in _write_trajectory(traj, cfg, stem):
        print(path)
    if not traj.complete:
        print(f"trajectory incomplete: {traj.stop}", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(cfg: dict) -> int:
    model = build_model(cfg)
    HQ = expand_quantum_hamiltonian(model, cfg["n_max"])
    system = generate_eom(HQ, closure=cfg["closure"])
    s0 = initial_state(cfg, model)
    return _run_and_write(cfg, "trajectory", integrate(
        system, s0, (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
        rtol=cfg["rtol"], atol=cfg["atol"],
    ))


def _coherent_start(cfg: dict, command: str) -> tuple[float, float]:
    """(q0, p0) of the initial state, which ``command`` reads as coherent."""
    init = cfg["initial"]
    if init["kind"] != "coherent":
        raise ConfigError(f"{command} supports initial.kind 'coherent' only, got {init['kind']!r}")
    return float(init["q0"]), float(init["p0"])


def cmd_adiabatic(cfg: dict) -> int:
    model = build_model(cfg)
    if model.kind != "oscillator" or model.omega <= 0:
        raise ConfigError("adiabatic solver needs an oscillator model with omega > 0")
    q0, p0 = _coherent_start(cfg, "adiabatic")
    return _run_and_write(cfg, "adiabatic", solve_effective(
        AdiabaticConfig(), model, cfg["hbar"], q0, p0 / model.m,
        (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
    ))


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
    for k, ck in enumerate(model.potential.coefficients):
        if ck:
            Hop = Hop + ck * np.linalg.matrix_power(space.q1, k)
    return space, Hop


def cmd_compare(cfg: dict) -> int:
    from . import oracle as orc

    model = build_model(cfg)
    if model.kind != "oscillator":
        raise ConfigError("compare needs a model within oracle coverage (not cosmology)")
    q0, p0 = _coherent_start(cfg, "compare")
    # an input that overflows the displacement's generator is a domain error;
    # one that overflows the moments gives a non-finite initial state, which
    # integrate rejects before any sample is propagated
    with np.errstate(over="ignore", invalid="ignore"):
        space, Hop = _oracle_setup(cfg, model)
        vac = np.zeros(space.D, dtype=complex)
        vac[0] = 1.0
        psi0 = orc.displacement((q0, p0), space) @ vac
        st0 = orc.moments_of(psi0, space, cfg["n_max"])
    HQ = expand_quantum_hamiltonian(model, cfg["n_max"])
    system = generate_eom(HQ, closure=cfg["closure"])
    traj = integrate(system, st0, (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
                     rtol=cfg["rtol"], atol=cfg["atol"])
    if not traj.complete:  # the error table needs every sample
        raise DomainError(traj.stop)

    prop = orc.Propagator(Hop, cfg["hbar"])
    ref: dict[str, list[float]] = {}
    tail_warned = False
    for t in np.linspace(cfg["t0"], cfg["t1"], cfg["samples"]):
        psi = prop(psi0, t)
        tail = float(np.sum(np.abs(psi[-max(2, space.D // 10):]) ** 2))
        if tail > 1e-8 and not tail_warned:
            print(f"warning: oracle truncation tail {tail:.2e} at t={t:.3g}; "
                  "errors beyond this time are unreliable", file=sys.stderr)
            tail_warned = True
        st = orc.moments_of(psi, space, 2)
        for lbl, val in [*st.x.items(), *((str(g), v) for g, v in st.moments.items())]:
            ref.setdefault(lbl, []).append(val)

    table = {}
    for lbl, vals in ref.items():
        err = np.abs(traj.column(lbl) - np.array(vals))
        with np.errstate(over="ignore"):  # errors beyond 1e154 give an rms of inf
            table[lbl] = {"max": float(np.max(err)), "rms": float(np.sqrt(np.mean(err**2)))}

    report = {"model": cfg["model"], "n_max": cfg["n_max"], "oracle_dim": space.D,
              "errors": table, "config": cfg, "version": VERSION}
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "compare.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"# moment dynamics vs oracle, model={cfg['model']}")
    for lbl in sorted(table):
        print(f"{lbl:8s} max {table[lbl]['max']:.6e}  rms {table[lbl]['rms']:.6e}")
    print(path)
    return 0


def cmd_brackets(cfg: dict) -> int:
    n_max, dof = cfg["n_max"], cfg["dof"]
    idxs = moment_vars(n_max, dof)
    lines = []
    for i1 in idxs:
        for i2 in idxs:
            poly = bracket_moments(i1, i2)
            body = poly.to_text().replace("\n", " + ") or "0"
            lines.append(f"{{{i1}, {i2}}} = {body}")
    if cfg["format"] == "json":
        print(json.dumps({"n_max": n_max, "dof": dof, "brackets": lines}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def cmd_uncertainty(cfg: dict, state_path: str) -> int:
    data = _apply({
        "hbar": (cfg["hbar"], *POSITIVE),
        "x": ({"q": 0.0, "p": 0.0}, lambda v: isinstance(v, dict) and all(map(_number, v.values())),
              "an object mapping names to finite numbers"),
        "moments": (REQUIRED, *MOMENTS),
    }, _read_json(state_path, "state file"), "state.")
    hbar = float(data["hbar"])
    x = {k: float(v) for k, v in data["x"].items()}
    moments = {_moment_index(lbl): float(v) for lbl, v in data["moments"].items()}
    missing = [str(idx) for idx in moment_vars(2) if idx not in moments]
    if missing:
        raise ConfigError(f"state.moments needs {', '.join(missing)}")
    n_max = max((idx.order for idx in moments), default=2)
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
    if cfg["model"] in ("harmonic", "quartic") and model.omega <= 0:
        raise ConfigError(f"order-check with the {cfg['model']} model needs omega > 0")
    if cfg["model"] == "harmonic":
        emb = HarmonicCoherentEmbedding(model)
    elif cfg["model"] == "quartic":
        emb = AdiabaticEmbedding(model)
    elif cfg["model"] == "free":
        consts = coherent_free_constants(1.0, 1.0, cfg["m"], _reference_omega(cfg), 1.0)
        g2 = free_particle_moments(consts, 1.0, 1.0, 2)
        emb = FreeConstantEmbedding(model, {idx: g2[idx.p_power] for idx in moment_vars(2)})
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3, the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "adiabatic": cmd_adiabatic,
    "order-check": cmd_order_check,
    "brackets": cmd_brackets,
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentflow", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "uncertainty"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, key in FLAGS.items():
            p.add_argument(flag, dest=key, type=type(CONFIG_SCHEMA[key][0]), default=None)
        if name == "brackets":
            p.add_argument("pos_n_max", metavar="nmax", type=int, nargs="?", default=None)
            p.add_argument("pos_dof", metavar="dof", type=int, nargs="?", default=None)
        elif name == "uncertainty":
            p.add_argument("state_file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    flags = [(key, getattr(args, key)) for key in FLAGS.values()]
    # brackets' positional nmax and dof come last, so they beat --nmax
    flags += [(key, getattr(args, "pos_" + key, None)) for key in ("n_max", "dof")]
    try:
        cfg = load_config(args.config, {key: val for key, val in flags if val is not None})
        if cfg["dof"] != 1 and args.command != "brackets":
            raise ConfigError(f"dof {cfg['dof']} is read by brackets only; {args.command} runs one DOF")
        if args.command == "uncertainty":
            return cmd_uncertainty(cfg, args.state_file)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, AdiabaticBreakdownError, StateError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # finite inputs whose arithmetic leaves the float range
        print(f"domain error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
