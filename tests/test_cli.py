"""Command-line interface: config handling, subcommands, exit codes, and
artifact determinism."""

import contextlib
import csv
import filecmp
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentflow import cli
from momentflow.errors import ConfigError
from momentflow.hamiltonian import expand_quantum_hamiltonian, generate_eom
from momentflow.moment_algebra import moment_vars


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


# -- configuration -----------------------------------------------------------


def test_load_config_defaults():
    cfg = cli.load_config(None, {})
    assert cfg["model"] == "harmonic"
    assert cfg["n_max"] == 3
    assert cfg["initial"]["kind"] == "coherent"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "harmonic", "massive": True}))
    with pytest.raises(ConfigError):
        cli.load_config(str(path), {})


def test_load_config_rejects_unknown_initial_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"initial": {"kind": "coherent", "q0": 1.0, "sigma": 2.0}}))
    with pytest.raises(ConfigError):
        cli.load_config(str(path), {})


def test_overrides_beat_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "harmonic", "hbar": 0.5}))
    cfg = cli.load_config(str(path), {"model": "quartic", "hbar": None})
    assert cfg["model"] == "quartic"
    assert cfg["hbar"] == 0.5


def test_invalid_model_exits_3(tmp_path, capsys):
    assert cli.main(["simulate", "--model", "anharmonic", "--out", str(tmp_path)]) == 3
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_3(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("data,key", [
    ({"n_max": "3"}, "n_max"),
    ({"n_max": True}, "n_max"),
    ({"samples": 2.5}, "samples"),
    ({"t1": "5"}, "t1"),
    ({"t1": float("inf")}, "t1"),
    ({"model": "quartic", "delta": "0.1"}, "delta"),
    ({"E": "x"}, "E"),
    ({"m": False}, "m"),
    ({"ell": "big"}, "ell"),
    ({"initial": {"kind": "coherent", "q0": "a"}}, "q0"),
    ({"initial": {"kind": "coherent", "p0": None}}, "p0"),
    ({"rtol": 0}, "rtol"),
    ({"atol": -1e-10}, "atol"),
    ({"oracle_dim": 2.5}, "oracle_dim"),
    ({"seed": "x"}, "seed"),
    ({"seed": 0}, "seed"),
    ({"initial": {"kind": "squeezed", "q0": 0, "p0": 0, "g": "abc"}}, "g"),
    ({"initial": {"kind": "squeezed", "q0": 0, "p0": 0}}, "g"),
    ({"initial": {"kind": "squeezed", "g": [[1, 0.5], [0, 1]]}}, "g"),
    ({"initial": {"kind": "moments", "values": {"G_0_2": "x"}}}, "values"),
    ({"initial": {"kind": "moments", "values": {"G_x_2": 1}}}, "values"),
    ({"initial": {"kind": "moments", "values": {"G_3_2": 1}}}, "values"),
    ({"initial": {"kind": "moments", "values": {"G_0_1": 1}}}, "values"),
    ({"initial": {"kind": "moments", "values": {"G_0_4": 1}}}, "values"),
    ({"initial": {"kind": "moments", "values": ["G_0_2"]}}, "values"),
    ({"initial": {"kind": "gaussian"}}, "kind"),
    ({"initial": {"q0": 0.5}}, "kind"),
    ({"initial": {"kind": ["coherent"]}}, "kind"),
    ({"initial": "coherent"}, "initial"),
    ({"model": "cosmology", "gamma": 0}, "gamma"),
    ({"model": "cosmology", "kappa": 0}, "kappa"),
    ({"model": "cosmology", "ell": -1, "initial": {"kind": "coherent", "q0": -0.5, "p0": 1.0}},
     "ell"),
    ({"t1": 0}, "t1"),
    ({"closure": "none"}, "closure"),
    ({"dof": 3}, "dof"),
    ({"format": "xml"}, "format"),
    (["compare", "--config", "{cfg}", "--out", "{out}"], "t1"),
    (["adiabatic", "--config", "{cfg}", "--out", "{out}"], "t1"),
    (["brackets", "1"], "n_max"),
    (["brackets", "3", "0"], "dof"),
    (["simulate", "--out", ""], "out"),
    (("order-check", {"model": "harmonic", "omega": 0}), "omega"),
    (("order-check", {"model": "quartic", "omega": 0}), "omega"),
    # m * omega underflows to 0, which every oscillator length scale divides by
    ({"model": "quartic", "m": 1e-300, "omega": 1e-300, "delta": 0}, "m * omega"),
    (("adiabatic", {"model": "quartic", "m": 1e-300, "omega": 1e-300}), "m * omega"),
    (("compare", {"model": "free", "m": 1e-300, "omega": 1e-300}), "m * omega"),
    # only brackets reads dof, and adiabatic starts from a coherent state
    (("simulate", {"dof": 2}), "dof"),
    (("compare", {"dof": 2}), "dof"),
    (("adiabatic", {"model": "quartic", "initial": {"kind": "squeezed", "g": [[1, 0], [0, 1]]}}),
     "initial.kind"),
    (("adiabatic", {"model": "quartic", "initial": {"kind": "moments"}}), "initial.kind"),
])
def test_non_integer_config_exits_3(tmp_path, capsys, data, key):
    """Each bad input is named in a config error; a list is a command line,
    where {cfg} is a config holding {"t1": 0}, and a tuple a subcommand
    with its config."""
    cfg = tmp_path / "cfg.json"
    if isinstance(data, list):
        cfg.write_text(json.dumps({"t1": 0}))
        argv = [arg.format(cfg=cfg, out=tmp_path) for arg in data]
    elif isinstance(data, tuple):
        cfg.write_text(json.dumps(data[1]))
        argv = [data[0], "--config", str(cfg), "--out", str(tmp_path)]
    else:
        cfg.write_text(json.dumps(data))
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--nmax", "x"],
    ["simulate", "--seed", "1"],
    ["brackets", "two"],
    ["nonsense"],
])
def test_usage_error_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # every `momentflow ...` line of README's "Command line" block exits 0
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = fh.read().split("## Command line\n", 1)[1].split("```", 2)[1]
    commands = [line.split("#")[0].split()[1:] for line in block.splitlines()
                if line.startswith("momentflow ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_text(json.dumps(
        {"hbar": 1.0, "moments": {"G_0_2": 0.5, "G_1_2": 0.0, "G_2_2": 0.5}}))
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, config, words", [
    pytest.param("simulate", {"model": "quartic", "m": 1e300}, "domain error: numeric overflow",
                 id="simulate"),
    pytest.param("adiabatic", {"model": "quartic", "m": 1e300}, "domain error: numeric overflow",
                 id="adiabatic"),
    pytest.param("compare", {"model": "quartic", "m": 1e-300},
                 "domain error: non-finite initial state", id="compare-quartic-tiny-m"),
    pytest.param("compare", {"model": "free", "m": 1e-300},
                 "domain error: non-finite initial state", id="compare-free-tiny-m"),
    pytest.param("adiabatic", {"model": "quartic", "m": 1e-300},
                 "domain error: non-finite effective coefficients", id="adiabatic-tiny-m"),
    pytest.param("adiabatic", {"model": "quartic", "delta": 1e300},
                 "domain error: non-finite effective coefficients", id="adiabatic-huge-delta"),
    # an RHS near the float limit overflows the state within the first steps
    pytest.param("simulate", {"model": "quartic", "delta": 1e300},
                 "trajectory incomplete: step-size collapse: ", id="simulate-huge-delta"),
    pytest.param("compare", {"model": "quartic", "delta": 1e300},
                 "domain error: step-size collapse: ", id="compare-huge-delta"),
    # the step size collapses before the first sample: nothing to write
    pytest.param("simulate", {"model": "quartic", "delta": 1e300,
                              "initial": {"kind": "coherent", "q0": 1e3}},
                 "domain error: step-size collapse: required step size is less than spacing "
                 "between numbers at t=0.0\n", id="simulate-collapse-at-t0"),
    pytest.param("simulate", {"initial": {"kind": "squeezed", "g": [[1e3, 0], [0, -1e3]]}},
                 "domain error: non-finite initial state", id="simulate-huge-squeeze"),
    pytest.param("simulate", {"initial": {"kind": "squeezed", "g": [[1e200, 0], [0, 1e200]]}},
                 "domain error: non-finite initial state", id="simulate-huge-rotation"),
    # the displacement's generator overflows: eigh would not converge
    pytest.param("compare", {"oracle_dim": 16,
                             "initial": {"kind": "coherent", "q0": -1.7976931348623157e308}},
                 "domain error: an input overflowed the oracle's operators", id="compare-huge-q0"),
    pytest.param("compare", {"oracle_dim": 16,
                             "initial": {"kind": "coherent", "p0": 1.7976931348623157e308}},
                 "domain error: an input overflowed the oracle's operators", id="compare-huge-p0"),
    # c = 0 puts log 0 into the cosmology closed forms
    pytest.param("simulate", {"model": "cosmology",
                              "initial": {"kind": "coherent", "q0": 0.0, "p0": 1.0}},
                 "domain error: cosmology closed forms need ell c^2 / sqrt(p) > 0, got 0.0",
                 id="simulate-cosmology-c0-zero"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_exits_2(tmp_path, capsys, command, config, words):
    # extreme but finite inputs whose arithmetic overflows or underflows
    # end as a prompt domain error, not an internal error or an endless solve,
    # and print no numpy overflow warning on the way
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if command == "compare":
        # compare rejects the run before it propagates the oracle
        assert err.count("\n") == 1
    if words.startswith("domain error: "):
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err and "Traceback" not in err


#: finite floats at the edges of the float range, and the signed zeros
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
             1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308)
_VALUE = st.one_of(st.floats(-4, 4), st.sampled_from(_EXTREMES))
_FUZZ_MODELS = {"simulate": ("harmonic", "free", "quartic", "cosmology"),
                "adiabatic": ("quartic", "harmonic"), "compare": ("harmonic", "free", "quartic")}
#: model constants, each with its values: the keys that must be positive
#: mostly get magnitudes, so that most runs get past the config rules
_FUZZ_KEYS = {**dict.fromkeys(("m", "omega", "hbar", "gamma", "kappa", "ell"), _VALUE.map(abs)),
              **dict.fromkeys(("delta", "E", "g0", "g32", "g3"), _VALUE)}


@st.composite
def _fuzz_case(draw):
    """A short run of simulate, adiabatic or compare with up to four model
    constants, the initial state and the time window mutated."""
    command = draw(st.sampled_from(sorted(_FUZZ_MODELS)))
    kind = draw(st.sampled_from(["coherent", "squeezed", "moments"])) if command == "simulate" \
        else "coherent"
    initial = {"kind": kind, "q0": draw(_VALUE), "p0": draw(_VALUE)}
    if kind == "squeezed":
        a, b, c = draw(_VALUE), draw(_VALUE), draw(_VALUE)
        initial["g"] = [[a, b], [b, c]]
    elif kind == "moments":
        initial["values"] = draw(st.dictionaries(st.sampled_from(["G_0_2", "G_1_2", "G_2_2"]),
                                                 _VALUE, max_size=3))
    config = {"model": draw(st.sampled_from(_FUZZ_MODELS[command])),
              "n_max": draw(st.integers(2, 4)), "samples": draw(st.integers(2, 5)), "t1": 0.5,
              "oracle_dim": draw(st.one_of(st.integers(8, 24), st.sampled_from([-1, 0, 601]))),
              "initial": initial}
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ_KEYS)), max_size=4, unique=True)):
        config[key] = draw(_FUZZ_KEYS[key])
    # the window and the tolerances stay moderate: a window of 1e300 or an
    # atol near 0 (which holds the step size down while a moment grows from
    # exactly 0) makes a run take minutes without changing how it ends
    config.update(draw(st.dictionaries(st.sampled_from(["t0", "t1"]), st.one_of(
        st.floats(-1, 1), st.sampled_from([-0.0, 5e-324, 1e-300])), max_size=2)))
    config.update(draw(st.dictionaries(st.sampled_from(["rtol", "atol"]),
                                       st.floats(1e-12, 1e300), max_size=2)))
    return command, config


class _Cut(BaseException):
    """Ends a fuzzed run that outlives its time limit (not an Exception, so
    that cli.main does not report it as an internal error)."""


def _cut(signum, frame):
    raise _Cut


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fuzz_case())
@example(("simulate", {"model": "quartic", "delta": -5, "t1": 2.0, "samples": 5}))
@example(("simulate", {"model": "cosmology", "n_max": 2, "t1": 1.0, "samples": 5,
                       "initial": {"kind": "coherent", "q0": 1.0, "p0": 1.0}}))
@example(("adiabatic", {"model": "quartic", "delta": -1, "samples": 5,
                        "initial": {"kind": "coherent", "q0": 1.0, "p0": 1.0}}))
# configs that once ended in an internal error (exit 5): an oracle
# displacement whose generator overflows, log 0 in the cosmology closed
# forms, and m * omega underflowing to 0
@example(("compare", {"oracle_dim": 16, "samples": 5,
                      "initial": {"kind": "coherent", "q0": 1.7976931348623157e308}}))
@example(("compare", {"oracle_dim": 16, "samples": 5,
                      "initial": {"kind": "coherent", "p0": -1.7976931348623157e308}}))
@example(("simulate", {"model": "cosmology", "samples": 5,
                       "initial": {"kind": "coherent", "q0": 0.0, "p0": 1.0}}))
@example(("simulate", {"model": "quartic", "m": 1e-300, "omega": 1e-300, "delta": 0.0}))
@example(("adiabatic", {"model": "quartic", "m": 1e-300, "omega": 1e-300, "delta": 0.0}))
@example(("compare", {"model": "quartic", "m": 1e-300, "omega": 1e-300, "delta": 0.0,
                      "oracle_dim": 16}))
# an adiabatic run whose n = 2 moments overflow once wrote inf with exit 0,
# and one whose m^3 omega^7 underflows once divided by zero (exit 5)
@example(("adiabatic", {"model": "quartic", "hbar": 1.79e308, "t1": 5e-173, "samples": 5,
                        "initial": {"kind": "coherent", "q0": -0.8}}))
@example(("adiabatic", {"model": "harmonic", "m": 7.556120924301621e-129, "samples": 2,
                        "initial": {"kind": "coherent", "q0": 0.0, "p0": 0.0}}))
def test_config_fuzz_keeps_the_exit_code_contract(case):
    # any finite config exits 0, 2, 3 or 4 (never 5, an internal error)
    # without a traceback or a numpy warning, and a run that wrote a
    # trajectory says in meta.json whether it stopped early, and why; a
    # complete one holds only finite numbers.
    # integrate has no step budget, so a
    # finite config whose time scale is near 1e-300 (quartic with m = 1e-300
    # and p0 = -0.48: a period of about 1e-299) steps for hours; such a run
    # is cut after 2 s, unjudged
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _cut)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main([command, "--config", path, "--out", tmp])
        except _Cut:
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
        stem = os.path.join(tmp, "adiabatic" if command == "adiabatic" else "trajectory")
        if os.path.exists(stem + ".csv"):
            with open(stem + ".meta.json") as fh:
                meta = json.load(fh)
            assert code in (0, 2) and meta["complete"] == (code == 0)
            assert ("stop_cause" in meta["stats"]) == (code == 2)
            if code == 0:
                with open(stem + ".csv") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert all(math.isfinite(float(v)) for row in rows for v in row), rows


def test_config_fills_initial_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"initial": {"kind": "moments", "p0": 0.5}}))
    cfg = cli.load_config(str(path), {})
    assert cfg["initial"] == {"kind": "moments", "q0": 1.0, "p0": 0.5, "values": {}}
    assert "seed" not in cfg


def test_zero_hbar_exits_3(tmp_path, capsys):
    assert cli.main(["simulate", "--hbar", "0", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "hbar" in err and "Traceback" not in err


# -- simulate ----------------------------------------------------------------


def test_simulate_harmonic_artifacts(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.endswith("trajectory.csv") for line in out)
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert "q" in rows[0] and "G_0_2" in rows[0]
    assert len(rows) == 202
    # coherent moments are constant under the harmonic flow
    col = rows[0].index("G_0_2")
    vals = np.array([float(r[col]) for r in rows[1:]])
    assert np.allclose(vals, vals[0], atol=1e-8)
    meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
    assert meta["complete"] is True
    assert meta["meta"]["config"]["model"] == "harmonic"
    stats = meta["stats"]
    assert stats["nsteps"] > 0 and stats["nrejected"] >= 0
    assert stats["nfev"] == 2 + 6 * (stats["nsteps"] + stats["nrejected"])


def test_simulate_json_format(tmp_path):
    assert cli.main(["simulate", "--out", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "trajectory.json").read_text())
    assert payload["complete"] is True
    assert len(payload["t"]) == 201


def test_simulate_csv_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--model", "quartic", "--out", str(d1)]) == 0
    assert cli.main(["simulate", "--model", "quartic", "--out", str(d2)]) == 0
    assert filecmp.cmp(d1 / "trajectory.csv", d2 / "trajectory.csv", shallow=False)


def test_simulate_cosmology_partial_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "cosmology",
        "n_max": 2,
        "initial": {"kind": "coherent", "q0": -0.5, "p0": 1.0},
        "t0": 0.0,
        "t1": 100.0,
    }))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "incomplete" in captured.err
    meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
    assert meta["complete"] is False


def test_simulate_divergence_writes_partial_on_requested_grid(tmp_path, capsys):
    # the truncated quartic system with delta = -5 diverges at t = 1.72752;
    # the partial CSV holds the requested samples up to there, and the
    # message names where the stepper stopped, not the last sample
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "quartic", "delta": -5}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "trajectory incomplete" in err and "Traceback" not in err
    t_stop = float(re.search(r" at t=([0-9.e+-]+)$", err, re.M)[1])
    assert t_stop == pytest.approx(1.7275238, abs=1e-6)
    t = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, usecols=0)
    grid = np.linspace(0.0, 2 * math.pi, 201)
    assert 1 < t.size < grid.size
    assert np.array_equal(t, grid[:t.size]) and grid[t.size] > t_stop
    meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
    assert meta["complete"] is False and meta["stats"]["status"] == -1
    assert meta["stats"]["t_stop"] == t_stop and meta["stats"]["stop_cause"] in err


def test_simulate_and_adiabatic_import_no_scipy(tmp_path):
    # scipy is only a test reference; in a fresh process, every subcommand
    # that integrates or runs the oracle, and the oracle's exponentials,
    # must run without loading it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "harmonic", "t1": 1.0, "samples": 21, "oracle_dim": 40}))
    code = f"""
import sys
import numpy as np
import momentflow, momentflow.cli, momentflow.oracle as orc
assert momentflow.cli.main(["simulate", "--model", "quartic", "--out", {out!r}]) == 0
assert momentflow.cli.main(["adiabatic", "--model", "quartic", "--out", {out!r}]) == 0
assert momentflow.cli.main(["compare", "--config", {str(cfg)!r}, "--out", {out!r}]) == 0
space = orc.FockSpace(40)
psi = orc.squeezed([[0.2, 0.1], [0.1, -0.1]], (0.5, -0.3), space)
assert np.allclose(orc.displacement((0.5, -0.3), space)[:, 0], orc.coherent(complex(0.5, -0.3) / 2**0.5, 40))
assert np.isfinite(orc.OracleDProvider(psi, space).D([0.3, -0.2]))
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- adiabatic ---------------------------------------------------------------


def test_adiabatic_quartic(tmp_path):
    assert cli.main(["adiabatic", "--model", "quartic", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "adiabatic.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "q", "qdot", "G_0_2", "G_1_2", "G_2_2"]
    # p0 = 0 makes G_1_2 at t = 0 the correction -0.0, which 0.0 + G1 would turn into 0
    assert hashlib.sha256((tmp_path / "adiabatic.csv").read_bytes()).hexdigest() == (
        "684c83c6153ebc58672f2f6677216c1bff915f1f25165d9f7d050a9b8e696df1")


def test_adiabatic_breakdown_writes_partial_on_requested_grid(tmp_path, capsys):
    # with delta = -1, 1 + V''(q) falls to the breakdown margin at t = 6.1428,
    # before t1 = 2 pi: the event stops the run, and adiabatic writes the
    # samples up to there and reports the incomplete run as simulate does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "quartic", "delta": -1,
                               "initial": {"kind": "coherent", "q0": 1.0, "p0": 1.0}}))
    assert cli.main(["adiabatic", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajectory incomplete: ") and "Traceback" not in err
    t = np.loadtxt(tmp_path / "adiabatic.csv", delimiter=",", skiprows=1, usecols=0)
    grid = np.linspace(0.0, 2 * math.pi, 201)
    assert t.size == 196
    assert np.array_equal(t, grid[:t.size]) and t[-1] < 6.1428 < grid[t.size]
    assert hashlib.sha256((tmp_path / "adiabatic.csv").read_bytes()).hexdigest() == (
        "edba9cf35d13dbddad4b859b289d1923a34eaf59e7b8e2df92e88dcdf53d6af6")
    # meta.json and the message say where and why the run stopped
    meta = json.loads((tmp_path / "adiabatic.meta.json").read_text())
    assert meta["complete"] is False
    t_stop = meta["stats"]["t_stop"]
    assert t_stop == pytest.approx(6.142794649177336, abs=1e-9)
    assert "adiabatic breakdown" in meta["stats"]["stop_cause"]
    assert "adiabatic breakdown" in err and f"t={t_stop!r}" in err


def _check_p_guard_stop(tmp_path, capsys, t1, samples, c0, p0):
    """Simulate the n_max 2 cosmology from (c0, p0): the p-guard event must end
    the run, the message and meta.json must name it, and the partial CSV must
    hold the samples before it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "cosmology", "n_max": 2, "t1": t1, "samples": samples,
                               "initial": {"kind": "coherent", "q0": c0, "p0": p0}}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    stats = json.loads((tmp_path / "trajectory.meta.json").read_text())["stats"]
    assert stats["status"] == 1 and "p-guard" in stats["stop_cause"]
    assert err == f"trajectory incomplete: {stats['stop_cause']} at t={stats['t_stop']!r}\n"
    t = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, usecols=0, ndmin=1)
    grid = np.linspace(0.0, t1, samples)
    assert t.size < grid.size and np.array_equal(t, grid[:t.size])
    assert t[-1] <= stats["t_stop"] < grid[t.size]
    return t


def test_simulate_cosmology_p_guard_says_when(tmp_path, capsys):
    # from c = 1 the volume p collapses: the p-guard event ends the run
    # before the stepper fails
    assert _check_p_guard_stop(tmp_path, capsys, 1.0, 201, 1.0, 1.0).size > 1


def test_simulate_cosmology_p_guard_inside_trial_stage(tmp_path, capsys):
    # a trial stage of the first step reaches p <= 0: the stepper rejects
    # the step, and the run still ends at the guard with its t = 0 sample
    assert _check_p_guard_stop(tmp_path, capsys, 100.0, 51, 2.0, 0.05).size == 1


def test_simulate_cosmology_collapse_says_when(tmp_path, capsys):
    # at n_max 3 the collapse from c0 = -0.5 ends by a step-size collapse at
    # t = 0.9973, before p reaches the p-guard's floor: the partial CSV holds
    # the requested samples up to there, and the message and meta.json say
    # where and why the run stopped, as for an event stop
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t1": 100.0, "initial": {"kind": "coherent", "q0": -0.5,
                                                        "p0": 1.0}}))
    assert cli.main(["simulate", "--model", "cosmology", "--nmax", "3", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
    stats = meta["stats"]
    assert meta["complete"] is False and stats["status"] == -1
    assert stats["stop_cause"].startswith("step-size collapse")
    assert stats["t_stop"] == 0.9973239178707394
    assert err == f"trajectory incomplete: {stats['stop_cause']} at t={stats['t_stop']!r}\n"
    t = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, usecols=0)
    grid = np.linspace(0.0, 100.0, 201)
    assert 1 < t.size < grid.size and np.array_equal(t, grid[:t.size])
    assert t[-1] <= stats["t_stop"] < grid[t.size]
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == (
        "00c516030e789e3cd4fa818169aaf7dcd6b64264042d32845944ec64c22c68ea")


def test_adiabatic_rejects_free(tmp_path):
    assert cli.main(["adiabatic", "--model", "free", "--out", str(tmp_path)]) == 3


# -- compare -----------------------------------------------------------------


def test_compare_harmonic_small(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "harmonic", "t1": 1.0, "samples": 21,
                               "oracle_dim": 40}))
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "G_0_2" in out
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["errors"]["q"]["max"] < 1e-6
    assert report["errors"]["G_0_2"]["max"] < 1e-6


def test_compare_quartic_nmax_10(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t1": 1.0, "samples": 21}))
    argv = ["compare", "--model", "quartic", "--nmax", "10", "--config", str(cfg),
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["n_max"] == 10
    assert all(np.isfinite(err["max"]) for err in report["errors"].values())


def test_compare_rejects_cosmology(tmp_path):
    assert cli.main(["compare", "--model", "cosmology", "--out", str(tmp_path)]) == 3


def test_compare_oracle_dim_cap(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle_dim": 2000}))
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 4


# -- brackets ----------------------------------------------------------------


def test_brackets_listing(capsys):
    assert cli.main(["brackets", "2"]) == 0
    out = capsys.readouterr().out
    assert "{G_0_2, G_2_2} = 4/1 * G_1_2" in out
    assert "{G_0_2, G_0_2} = 0" in out


def test_brackets_json(capsys):
    assert cli.main(["brackets", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max"] == 2
    assert any("4/1 * G_1_2" in line for line in payload["brackets"])


def test_brackets_bytes_pinned(capsys):
    assert cli.main(["brackets", "4", "2"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "35b731be5dbadfd02a9b9e79f096404d73385b2aea864a8b589fde77f6ac978e"


def test_brackets_one_dof_bytes_pinned(capsys):
    assert cli.main(["brackets", "5"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "84147daaed14c3a7a163a0e72a448e5f32140dc497fce35cf6a2cfcf7cbfb1e7"


def test_brackets_bad_dof(capsys):
    assert cli.main(["brackets", "2", "3"]) == 3


def test_brackets_positionals_beat_nmax(capsys):
    assert cli.main(["brackets", "--nmax", "3", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 2
    assert cli.main(["brackets", "--nmax", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 2


# -- one name per moment -----------------------------------------------------


@pytest.mark.parametrize("model", ["quartic", "cosmology"])
def test_one_name_per_moment_end_to_end(tmp_path, model):
    # the JSON listing's variables, the system's labels and the CSV header agree
    cfg = {"model": model, "n_max": 4, "t1": 0.01, "samples": 3,
           "initial": {"kind": "coherent", "q0": -0.5, "p0": 1.0}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "trajectory.csv") as fh:
        header = next(csv.reader(fh))
    cfg = cli.load_config(None, cfg)
    system = generate_eom(expand_quantum_hamiltonian(cli.build_model(cfg), 4), cfg["closure"])
    listed = [eq["variable"] for eq in json.loads(system.listing_json())["equations"]]
    assert listed == system.labels() == header[1:]


def test_moment_label_round_trips():
    for idx in moment_vars(12):
        assert cli._moment_index(str(idx)) == idx


# -- uncertainty -------------------------------------------------------------


def test_uncertainty_coherent_margin(tmp_path, capsys):
    state = {"hbar": 1.0, "x": {"q": 0.0, "p": 0.0},
             "moments": {"G_0_2": 0.5, "G_1_2": 0.0, "G_2_2": 0.5}}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["uncertainty", str(path)]) == 0
    assert "margin" in capsys.readouterr().out


def test_uncertainty_violated_exits_2(tmp_path):
    state = {"hbar": 1.0, "moments": {"G_0_2": 0.1, "G_1_2": 0.0, "G_2_2": 0.1}}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["uncertainty", str(path)]) == 2


def test_uncertainty_bad_file_exits_3(tmp_path):
    assert cli.main(["uncertainty", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize("state,key", [
    ({}, "moments"),
    ({"moments": {"G_0_2": "a"}}, "moments"),
    ({"moments": {"G_2_1": 0.5}}, "moments"),
    ({"hbar": "1", "moments": {"G_0_2": 0.5}}, "hbar"),
    ({"x": {"q": None}, "moments": {"G_0_2": 0.5}}, "x"),
    ({"moment": {"G_0_2": 0.5}}, "moment"),
    ([], "JSON object"),
    ({"moments": {"G_0_2": 1.0, "G_2_2": 1.0}}, "G_1_2"),
])
def test_uncertainty_bad_state_exits_3(tmp_path, capsys, state, key):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["uncertainty", str(path)]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


# -- order-check -------------------------------------------------------------


def test_order_check_harmonic(capsys):
    assert cli.main(["order-check", "--model", "harmonic"]) == 0
    assert capsys.readouterr().out.strip() == "exact"


def test_order_check_quartic_json(capsys):
    assert cli.main(["order-check", "--model", "quartic", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert not payload["exact"]
    assert 1.8 <= payload["slope"] <= 2.2


@pytest.mark.parametrize("model, digest", [
    ("quartic", "ddbc62931610807c0c3ae8f124f1653435846624f87bb8302f18e720bb478ef0"),
    ("free", "faf630d8884d07939e07ebda734bd6a757c44d200b7b42f2cf1d86ed8db9fd5d"),
    ("harmonic", "3a5347e96d56c8de04a59f5a10a72d8e777060110f6f7dfa2d35edc7ee300b0d"),
])
def test_order_check_json_bytes_pinned(capsys, model, digest):
    # the embeddings' states and flows, the adiabatic n = 2 moments and the
    # fit all reach these bytes
    assert cli.main(["order-check", "--model", model, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_order_check_rejects_cosmology(capsys):
    assert cli.main(["order-check", "--model", "cosmology"]) == 3
