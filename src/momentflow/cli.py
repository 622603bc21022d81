"""Command-line entry point: configure a model, run simulations,
oracle comparisons, and diagnostics, and emit CSV/JSON artifacts.

Every config key, its default and its rule are declared once, in
``CONFIG_SCHEMA`` (and ``INITIAL_SCHEMA`` for the keys of each
``initial.kind``).  Each override flag sets the config key that ``FLAGS``
maps it to (``--nmax`` sets ``n_max``), with the type of that key's default.
Each model is declared once, in ``MODELS``: how it is built, its keys and
defaults, the initial kinds it honours, its order-check embedding and its
oracle operator.  Each subcommand is declared once, in ``COMMANDS``: its own
keys, whose flags alone it takes, and the models and initial kinds it runs.
A subcommand is handed its own keys and its model's, which ``meta.json`` and
``compare.json`` record; a config file may set keys that it does not read.

A run that stops before t1 (a domain guard, an adiabatic breakdown or a
step-size collapse) exits 2: ``simulate`` and ``adiabatic`` still write the
samples reached, flagged incomplete, and print ``trajectory incomplete:
<stop_cause> at t=<t_stop>``; ``compare`` writes nothing.

Exit codes: 0 ok, 2 domain error (or numeric overflow), 3 config error (a rule
of the schema fails, or the command line does not parse), 4 capacity (or an
allocation that does not fit in memory), 5 internal error (any other
exception, reported as ``internal error: <Type>: <message>`` without a
traceback).  ``--help`` and ``--version`` exit 0.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import re
import sys
from collections import namedtuple

import numpy as np

from . import __version__ as VERSION
from .adiabatic import AdiabaticConfig, AdiabaticEmbedding, solve_effective
from .dynamics import (
    ConstantMomentEmbedding,
    CosmologyParams,
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
    cosmology_hamiltonian,
    expand_quantum_hamiltonian,
    from_dimensionless,
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

# ---------------------------------------------------------------------------
# models: each start maps the config to the moments it sets, the others 0


def _width(cfg: dict) -> float:
    """Width of the oscillator Gaussians (starts, Fock basis, free embedding): omega, or 1 at 0."""
    w = cfg["omega"] or 1.0
    if cfg["m"] * w == 0:
        raise ConfigError(f"m * omega underflows to 0 (m = {cfg['m']!r}, omega = {cfg['omega']!r})")
    return w


def _coherent(cfg: dict) -> dict:
    return coherent_moments(cfg["n_max"], cfg["m"], _width(cfg), cfg["hbar"])


def _squeezed(cfg: dict) -> dict:
    # states module works in m w = 1 units; squeezed_moment carries the hbar
    g, m, w = SqueezeMatrix(cfg["initial"]["g"]), cfg["m"], _width(cfg)
    return {idx: from_dimensionless(squeezed_moment(g, idx, cfg["hbar"]), idx.p_power, idx.order,
                                    m, w, 1.0) for idx in moment_vars(cfg["n_max"])}


def _moments(cfg: dict) -> dict:
    return {_moment_index(label): float(val) for label, val in cfg["initial"]["values"].items()}


def _cosmology_coherent(cfg: dict) -> dict:
    params = CosmologyParams(gamma=cfg["gamma"], kappa=cfg["kappa"], E=cfg["E"], hbar=cfg["hbar"],
                             ell=cfg["ell"], g0=cfg["g0"], g32=cfg["g32"], g3=cfg["g3"])
    return cosmology_moments(params, float(cfg["initial"]["q0"]), float(cfg["initial"]["p0"]))


def _free_embedding(model: ClassicalHamiltonian, cfg: dict) -> ConstantMomentEmbedding:
    """Order-2 moments of the coherent free state at q = p = hbar = 1, for every hbar."""
    g2 = free_particle_moments(coherent_free_constants(1.0, 1.0, model.m, _width(cfg), 1.0),
                               1.0, 1.0, 2)
    return ConstantMomentEmbedding(model, lambda hbar, n_top: {
        idx: g2[idx.p_power] if idx.order == 2 else 0.0 for idx in moment_vars(n_top)})


def oscillator_operator(space, model: ClassicalHamiltonian):
    """The oracle's p^2/2m + m omega^2 q^2/2 + U(q), from the model's own parameters."""
    Hop = space.p1 @ space.p1 / (2 * model.m)
    if model.omega > 0:
        Hop = Hop + 0.5 * model.m * model.omega**2 * space.q1 @ space.q1
    for k, ck in enumerate(model.potential.coefficients):
        if ck:
            Hop = Hop + ck * np.linalg.matrix_power(space.q1, k)
    return Hop


_OSCILLATOR_STARTS = {"coherent": _coherent, "squeezed": _squeezed, "moments": _moments}
#: a model: its Hamiltonian from the config, its config keys, its defaults of
#: initial keys, its start for each initial.kind it honours, its order-check
#: embedding from (Hamiltonian, config) and its Fock-space operator, or None
Model = namedtuple("Model", "build keys defaults kinds embedding oracle")
#: model -> Model; main refuses an initial.kind outside its row
MODELS = {
    "harmonic": Model(lambda cfg: ClassicalHamiltonian(m=cfg["m"], omega=cfg["omega"]),
                      frozenset({"m", "omega"}), {}, _OSCILLATOR_STARTS,
                      lambda model, cfg: ConstantMomentEmbedding.coherent(model),
                      oscillator_operator),
    "free": Model(lambda cfg: ClassicalHamiltonian(m=cfg["m"], omega=0.0),
                  frozenset({"m", "omega"}), {}, _OSCILLATOR_STARTS,
                  _free_embedding, oscillator_operator),
    "quartic": Model(lambda cfg: ClassicalHamiltonian(
        m=cfg["m"], omega=cfg["omega"], potential=PotentialSpec.quartic(cfg["delta"])),
        frozenset({"m", "omega", "delta"}), {}, _OSCILLATOR_STARTS,
        lambda model, cfg: AdiabaticEmbedding(model), oscillator_operator),
    "cosmology": Model(lambda cfg: cosmology_hamiltonian(cfg["gamma"], cfg["kappa"], cfg["E"]),
        frozenset({"gamma", "kappa", "E", "ell", "g0", "g32", "g3"}), {"p0": 1.0},
        {"coherent": _cosmology_coherent, "moments": _moments}, None, None),
}

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
    init = {**MODELS[cfg["model"]].defaults, **cfg["initial"]}  # given keys beat the model's
    init = cfg["initial"] = _apply(schema, init, "initial.")
    if cfg["t1"] == cfg["t0"]:
        raise ConfigError(f"t1 must differ from t0, both are {cfg['t0']!r}")
    for label in init.get("values", {}):
        if _moment_index(label).order > cfg["n_max"]:
            raise ConfigError(f"initial.values label {label} exceeds n_max={cfg['n_max']}")
    return cfg


def _write_trajectory(traj, cfg: dict, stem: str) -> list[str]:
    os.makedirs(cfg["out"], exist_ok=True)
    traj.meta["config"] = cfg
    traj.meta["version"] = VERSION
    path = os.path.join(cfg["out"], stem)
    if cfg["format"] == "json":
        traj.to_json(path + ".json")
        return [path + ".json"]
    traj.to_csv(path + ".csv")
    with open(path + ".meta.json", "w") as fh:
        json.dump({"labels": traj.labels, "complete": traj.complete, "stats": traj.stats,
                   "meta": traj.meta}, fh, indent=2, sort_keys=True)
    return [path + ".csv", path + ".meta.json"]


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
    row, init, n_max = MODELS[cfg["model"]], cfg["initial"], cfg["n_max"]
    model = row.build(cfg)
    system = generate_eom(expand_quantum_hamiltonian(model, n_max), closure=cfg["closure"])
    moments = {**dict.fromkeys(moment_vars(n_max), 0.0), **row.kinds[init["kind"]](cfg)}
    x = dict(zip(model.xvars, (float(init["q0"]), float(init["p0"]))))
    return _run_and_write(cfg, "trajectory", integrate(
        system, SemiclassicalState(cfg["hbar"], x, moments, n_max), (cfg["t0"], cfg["t1"]),
        n_samples=cfg["samples"], rtol=cfg["rtol"], atol=cfg["atol"],
    ))


def cmd_adiabatic(cfg: dict) -> int:
    model = MODELS[cfg["model"]].build(cfg)
    q0, p0 = float(cfg["initial"]["q0"]), float(cfg["initial"]["p0"])
    return _run_and_write(cfg, "adiabatic", solve_effective(
        AdiabaticConfig(), model, cfg["hbar"], q0, p0 / model.m,
        (cfg["t0"], cfg["t1"]), n_samples=cfg["samples"],
    ))


def cmd_compare(cfg: dict) -> int:
    from . import oracle as orc

    row = MODELS[cfg["model"]]
    model = row.build(cfg)
    q0, p0 = float(cfg["initial"]["q0"]), float(cfg["initial"]["p0"])
    if cfg["oracle_dim"] > 600:
        raise CapacityError(f"oracle dimension {cfg['oracle_dim']} exceeds the supported cap 600")
    # an input that overflows the displacement's generator is a domain error;
    # one that overflows the moments gives a non-finite initial state, which
    # integrate rejects before any sample is propagated
    with np.errstate(over="ignore", invalid="ignore"):
        space = orc.FockSpace(cfg["oracle_dim"], model.m, _width(cfg), cfg["hbar"])
        Hop = row.oracle(space, model)
        vac = np.zeros(space.D, dtype=complex)
        vac[0] = 1.0
        psi0 = orc.displacement((q0, p0), space) @ vac
        st0 = orc.moments_of(psi0, space, cfg["n_max"])
    system = generate_eom(expand_quantum_hamiltonian(model, cfg["n_max"]), closure=cfg["closure"])
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
    row = MODELS[cfg["model"]]
    model = row.build(cfg)
    result = order_check(row.embedding(model, cfg), model, np.geomspace(1e-3, 1e-1, 7),
                         n_max=cfg["n_max"], closure=cfg["closure"])
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


#: a subcommand: its function, its own config keys (it reads its model's too),
#: and the models and initial kinds it runs (none if it reads no model or initial)
Command = namedtuple("Command", "run keys models kinds", defaults=((), ()))
_RUN = "model hbar initial t0 t1 samples out"  # the keys of every run from a start
#: subcommand -> Command; the parser gives a subcommand the flags of the keys
#: it reads, and main refuses a model, initial.kind or dof outside its row
COMMANDS = {
    "simulate": Command(cmd_simulate, frozenset(f"{_RUN} n_max closure rtol atol format".split()),
                        tuple(MODELS), tuple(INITIAL_SCHEMA)),
    "compare": Command(cmd_compare, frozenset(f"{_RUN} n_max closure rtol atol oracle_dim".split()),
                       tuple(name for name, row in MODELS.items() if row.oracle), ("coherent",)),
    "adiabatic": Command(cmd_adiabatic, frozenset(f"{_RUN} format".split()),
                         ("harmonic", "quartic"), ("coherent",)),
    "order-check": Command(cmd_order_check, frozenset("model n_max closure format".split()),
                           tuple(name for name, row in MODELS.items() if row.embedding)),
    "brackets": Command(cmd_brackets, frozenset({"n_max", "dof", "format"})),
    "uncertainty": Command(cmd_uncertainty, frozenset({"hbar", "format"})),
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentflow", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, key in FLAGS.items():
            if key in command.keys:
                p.add_argument(flag, dest=key, type=type(CONFIG_SCHEMA[key][0]), default=None)
        if name == "brackets":
            p.add_argument("pos_n_max", metavar="nmax", type=int, nargs="?", default=None)
            p.add_argument("pos_dof", metavar="dof", type=int, nargs="?", default=None)
        elif name == "uncertainty":
            p.add_argument("state_file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    flags = [(key, getattr(args, key, None)) for key in FLAGS.values()]
    # brackets' positional nmax and dof come last, so they beat --nmax
    flags += [(key, getattr(args, "pos_" + key, None)) for key in ("n_max", "dof")]
    command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, {key: val for key, val in flags if val is not None})
        name, model, kind = args.command, cfg["model"], cfg["initial"]["kind"]
        if "model" in command.keys and model not in command.models:
            raise ConfigError(f"{name} runs model {'/'.join(command.models)}, got {model!r}")
        keys = command.keys | (MODELS[model].keys if "model" in command.keys else set())
        kinds = [k for k in command.kinds if k in MODELS[model].kinds]
        if "initial" in keys and kind not in kinds:
            raise ConfigError(f"{name} {model} needs initial.kind {'/'.join(kinds)}, got {kind!r}")
        if "dof" not in keys and cfg["dof"] != 1:
            raise ConfigError(f"{name} runs one DOF, got dof {cfg['dof']}")
        cfg = {key: val for key, val in cfg.items() if key in keys}
        return command.run(cfg, *([args.state_file] if "state_file" in args else []))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, AdiabaticBreakdownError, StateError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # finite inputs whose arithmetic leaves the float range
        print(f"domain error: numeric overflow: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:  # e.g. more samples than fit in memory
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug: report it without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
