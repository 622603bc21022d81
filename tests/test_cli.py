"""Command-line interface: config handling, subcommands, exit codes, and
artifact determinism."""

import csv
import filecmp
import json
import os
import time

import numpy as np
import pytest

from momentflow import cli
from momentflow.errors import ConfigError


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


@pytest.mark.parametrize("command, config, words", [
    pytest.param("simulate", {"model": "quartic", "m": 1e300}, "overflow", id="simulate"),
    pytest.param("adiabatic", {"model": "quartic", "m": 1e300}, "overflow", id="adiabatic"),
    pytest.param("compare", {"model": "quartic", "m": 1e-300}, "non-finite initial state",
                 id="compare-quartic-tiny-m"),
    pytest.param("compare", {"model": "free", "m": 1e-300}, "non-finite initial state",
                 id="compare-free-tiny-m"),
    pytest.param("adiabatic", {"model": "quartic", "m": 1e-300},
                 "non-finite effective coefficients", id="adiabatic-tiny-m"),
    pytest.param("adiabatic", {"model": "quartic", "delta": 1e300},
                 "non-finite effective coefficients", id="adiabatic-huge-delta"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_exits_2(tmp_path, capsys, command, config, words):
    # extreme but finite inputs whose arithmetic overflows or underflows
    # end as a prompt domain error, not an internal error or an endless solve
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "domain error" in err and words in err and "Traceback" not in err


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err and "Traceback" not in err


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


# -- adiabatic ---------------------------------------------------------------


def test_adiabatic_quartic(tmp_path):
    assert cli.main(["adiabatic", "--model", "quartic", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "adiabatic.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "q", "qdot", "G_0_2", "G_1_2", "G_2_2"]


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
    assert "{G_0_2, G_2_2} = 4/1 * G[1,2]" in out
    assert "{G_0_2, G_0_2} = 0" in out


def test_brackets_json(capsys):
    assert cli.main(["brackets", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max"] == 2
    assert any("4/1 * G[1,2]" in line for line in payload["brackets"])


def test_brackets_bad_dof(capsys):
    assert cli.main(["brackets", "2", "3"]) == 3


def test_brackets_positionals_beat_nmax(capsys):
    assert cli.main(["brackets", "--nmax", "3", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 2
    assert cli.main(["brackets", "--nmax", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == 2


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


def test_order_check_rejects_cosmology(capsys):
    assert cli.main(["order-check", "--model", "cosmology"]) == 3
