"""Command-line behaviour: exit codes, outputs, determinism."""

import copy
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import asdict
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gemsim import oracle
from gemsim.cli import SIMULATE_OUTPUTS, main
from gemsim.model import config_from_dict, config_sha256, config_to_dict, load_config
from gemsim.scenarios import FrequencyDomainParams, preset_family
from conftest import FAST_FIG2, every_field_config, storage_config


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fast_preset_overrides(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "overrides.json"
    path.write_text(json.dumps(FAST_FIG2))
    return str(path)


def test_simulate_preset_writes_outputs(tmp_path, fast_preset_overrides, capsys):
    out = tmp_path / "run1"
    code = run_cli([
        "simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--out", str(out),
        "--snapshot-stride", "2000",
    ])
    assert code == 0
    for name in ("config.json", "boundary.csv", "snapshots.csv", "kspectra.csv",
                 "windows.json", "record.npz"):
        assert (out / name).exists()
    windows = json.loads((out / "windows.json").read_text())
    assert {"E1", "E2", "input"} <= set(windows["window_energies"])
    sha = windows["config_sha256"]
    assert sha == config_sha256(load_config(out / "config.json"))
    assert sha in capsys.readouterr().out
    for name in ("boundary.csv", "snapshots.csv", "kspectra.csv"):
        with open(out / name, encoding="utf-8") as fh:
            assert fh.readline() == f"# config_sha256={sha}\n"
    with np.load(out / "record.npz") as data:
        assert str(data["config_sha256"]) == sha


def test_simulate_outputs_are_byte_identical(tmp_path, fast_preset_overrides):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli([
            "simulate", "--preset", "fig2", "--config", fast_preset_overrides,
            "--out", str(out), "--snapshot-stride", "2000",
        ]) == 0
    for name in ("config.json", "boundary.csv", "snapshots.csv", "kspectra.csv", "windows.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_forked_writers_print_stdout_once(tmp_path, fast_preset_overrides):
    """The snapshot writer forks; buffered stdout must not be written twice."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gemsim.cli", "simulate", "--preset", "fig2", "--config", fast_preset_overrides,
         "--out", str(tmp_path / "run"), "--snapshot-stride", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("config sha256:") == 1
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "boundary.csv", "config.json", "kspectra.csv", "record.npz", "snapshots.csv", "windows.json"]


def test_simulate_full_config_document(tmp_path):
    from conftest import storage_config
    from gemsim.model import save_config

    cfg_path = tmp_path / "config.json"
    save_config(storage_config(nz=64), cfg_path)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg_path), "--out", str(out),
                    "--snapshot-stride", "1000"]) == 0
    assert (out / "windows.json").exists()


def test_simulate_dry_run_writes_nothing(tmp_path, fast_preset_overrides, capsys):
    out = tmp_path / "dry"
    code = run_cli([
        "simulate", "--preset", "fig2", "--config", fast_preset_overrides,
        "--out", str(out), "--dry-run",
    ])
    assert code == 0
    assert "dry run" in capsys.readouterr().out
    assert not (out / "windows.json").exists()


def test_invalid_preset_override_exits_before_calibrating(tmp_path, capsys, monkeypatch):
    from gemsim import cli, scenarios, solver

    def no_solves(*args, **kwargs):
        raise RuntimeError("the configuration was not validated before solving")

    for module in (cli, scenarios, solver):
        monkeypatch.setattr(module, "run", no_solves)
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps({"nz": 100}))
    assert run_cli(["simulate", "--preset", "fig2", "--config", str(path), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "nz must be a power of two" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("preset, overrides, message", [
    ("freq-domain", {"nz": 100}, "nz must be a power of two"),
    ("freq-domain", {"beat_note": True, "dt_factor": 2.0}, "coupling bound"),
    ("freq-domain", {"mode_mismatch": 0.5}, "mode_mismatch"),
    ("fig2", {"nz": 100}, "nz must be a power of two"),
    ("fig2", {"steering_shape": "probe"}, "steering_shape"),
], ids=["fd-nz", "fd-beat-note-dt", "fd-mode-mismatch", "fig2-nz", "fig2-steering-shape"])
def test_invalid_preset_override_exits_2_from_both_commands(
    tmp_path, capsys, monkeypatch, command, preset, overrides, message
):
    from gemsim import analysis, cli, scenarios, solver

    def no_solves(*args, **kwargs):
        raise RuntimeError("solved a configuration that does not validate")

    for module in (analysis, cli, scenarios, solver):
        monkeypatch.setattr(module, "run", no_solves)
    monkeypatch.setattr(analysis, "run_many", no_solves)
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    args = ["simulate"] if command == "simulate" else [
        "sweep", "--kind", "phase", "--range", "0:6:6"]
    assert run_cli(args + ["--preset", preset, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "cannot build configuration" in capsys.readouterr().err


def test_simulate_invalid_config_names_the_invariant(tmp_path, capsys):
    from conftest import storage_config
    from gemsim.model import EnsembleParams, ScenarioConfig, save_config

    config = storage_config(nz=64)
    bad = ScenarioConfig(**{**config.__dict__, "ensemble": EnsembleParams(delta=0.0)})
    path = tmp_path / "invalid.json"
    save_config(bad, path)
    assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "Delta must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, field", [
    ("grid", "nz", 64.5, "grid nz"),
    ("windows", "E1", ["a", 3], "window E1"),
], ids=["nz", "window"])
def test_mistyped_config_field_exits_2(tmp_path, capsys, section, key, value, field):
    from conftest import storage_config
    from gemsim.model import save_config

    path = tmp_path / "cfg.json"
    save_config(storage_config(nz=64), path)
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_mistyped_preset_override_exits_2(tmp_path, capsys):
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps({"nz": 64.5}))
    assert run_cli(["simulate", "--preset", "freq-domain", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "grid nz" in err and "Traceback" not in err


def test_overflowing_pulse_amplitude_is_a_validation_failure(tmp_path, capsys):
    from conftest import storage_config
    from gemsim.model import save_config

    path = tmp_path / "cfg.json"
    save_config(storage_config(nz=64), path)
    doc = json.loads(path.read_text())
    doc["pulses"][0]["amplitude"] = [1e308, 1e308]
    path.write_text(json.dumps(doc))
    assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


def test_simulate_solver_error_exits_3(tmp_path, capsys, monkeypatch):
    # a validated configuration cannot trip the stability bounds, so the
    # exit-code mapping is exercised by stubbing the solver itself
    from conftest import storage_config
    from gemsim import cli
    from gemsim.errors import NonFinite
    from gemsim.model import save_config

    def boom(config, stride=None, start=None, sink=None):
        raise NonFinite(step=7, time=0.1, max_abs=1e12)

    monkeypatch.setattr(cli, "run", boom)
    path = tmp_path / "cfg.json"
    save_config(storage_config(nz=64), path)
    assert run_cli(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "solver error" in capsys.readouterr().err


def test_env_var_default_out_dir(tmp_path, fast_preset_overrides, monkeypatch):
    monkeypatch.setenv("GEMSIM_OUT", str(tmp_path / "from-env"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides,
                    "--dry-run"]) == 0
    # dry run writes nothing, but the resolved directory must come from the env
    code = run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides,
                    "--snapshot-stride", "2000"])
    assert code == 0
    assert (tmp_path / "from-env" / "windows.json").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("blocker", ["file-as-parent", "directory-as-output"])
def test_unusable_out_exits_2(tmp_path, capsys, command, blocker):
    args = (["simulate", "--snapshot-stride", "0"] if command == "simulate"
            else ["sweep", "--kind", "phase", "--range", "0:6:6"])
    if blocker == "file-as-parent":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
    else:
        out = tmp_path / "out"
        blocked = "snapshots.csv" if command == "simulate" else "fringe_E1.csv"
        (out / blocked).mkdir(parents=True)
    assert run_cli(args + ["--preset", "freq-domain", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    prefix = "gemsim: cannot write outputs: " if command == "simulate" else "gemsim: sweep failed: "
    assert err.startswith(prefix) and str(out) in err and "Traceback" not in err
    if blocker == "directory-as-output":
        assert [path.name for path in out.iterdir()] == [blocked]  # no output file written


@pytest.mark.parametrize("blocked", ["fringe_E2.csv", "summary.json"])
def test_sweep_with_an_unwritable_later_output_writes_nothing(tmp_path, capsys, monkeypatch, blocked):
    from gemsim import analysis

    monkeypatch.setattr(analysis, "run", lambda *args, **kwargs: pytest.fail("solved before the check"))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert run_cli(["sweep", "--kind", "phase", "--range", "0:6:6", "--preset", "freq-domain",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gemsim: sweep failed: ") and blocked in err and "Traceback" not in err
    assert [path.name for path in out.iterdir()] == [blocked]


@pytest.mark.parametrize("command, blocked", [("simulate", "snapshots.csv"), ("sweep", "summary.json")])
def test_unusable_out_exits_2_before_calibrating(tmp_path, capsys, monkeypatch, command, blocked):
    from gemsim import analysis, cli, scenarios, solver

    def no_solves(*args, **kwargs):
        raise RuntimeError("solved before the outputs were checked")

    for module in (analysis, cli, scenarios, solver):
        monkeypatch.setattr(module, "run", no_solves)
    monkeypatch.setattr(analysis, "run_many", no_solves)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    args = ["simulate"] if command == "simulate" else ["sweep", "--kind", "phase", "--range", "0:6:6"]
    assert run_cli(args + ["--preset", "fig2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert blocked in err and "Traceback" not in err
    assert [path.name for path in out.iterdir()] == [blocked]


needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="the snapshot writer forks only on Linux")


def _publish_then(monkeypatch, action):
    """Call `action(writer, i)` after each snapshot the solver publishes; returns the writers' pids."""
    from gemsim import io

    publish, pids = io.SnapshotWriter.publish, []

    def publish_then_act(self, i):
        publish(self, i)
        if self.pid not in pids:
            pids.append(self.pid)
        action(self, i)

    monkeypatch.setattr(io.SnapshotWriter, "publish", publish_then_act)
    return pids


def _no_child_left(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_a_blow_up_after_published_snapshots_exits_3(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    from gemsim.errors import NonFinite

    def blow_up(writer, i):
        if i == 3:
            raise NonFinite(step=3, time=0.1, max_abs=1e300)

    pids = _publish_then(monkeypatch, blow_up)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--out", str(out),
                    "--snapshot-stride", "500"]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "Traceback" not in err
    [pid] = pids
    _no_child_left(pid)
    assert list(out.iterdir()) == []  # the directory was made before the solve, and no output since


@needs_fork
def test_a_killed_snapshot_writer_exits_2(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    after_kill = []

    def kill_the_child(writer, i):
        if i == 1:
            os.kill(writer.pid, signal.SIGKILL)
            os.waitid(os.P_PID, writer.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        elif i > 1:
            after_kill.append(i)  # publish met EPIPE, and went on

    pids = _publish_then(monkeypatch, kill_the_child)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--out", str(out),
                    "--snapshot-stride", "500"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gemsim: cannot write outputs: ") and "snapshots.csv" in err and "SIGKILL" in err
    assert "Traceback" not in err
    assert after_kill
    [pid] = pids
    _no_child_left(pid)
    assert "snapshots.csv" not in {path.name for path in out.iterdir()}


def _no_snapshots_left(out):
    assert "snapshots.csv" not in {path.name for path in out.iterdir()}


def _main_solve_never_runs(monkeypatch):
    from gemsim import cli

    def no_main_solve(*args, **kwargs):
        raise AssertionError("the main solve ran")

    monkeypatch.setattr(cli, "run", no_main_solve)


@needs_fork
def test_a_blow_up_in_the_shared_prefix_exits_3(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    # the writer forks before calibrating, and the bare calibration run
    # publishes the prefix's snapshots: a blow-up there never reaches the main solve
    from gemsim.errors import NonFinite

    def blow_up(writer, i):
        if i == 1:
            raise NonFinite(step=500, time=0.1, max_abs=1e300)

    _main_solve_never_runs(monkeypatch)
    pids = _publish_then(monkeypatch, blow_up)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--out", str(out),
                    "--snapshot-stride", "500"]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err and "Traceback" not in err
    [pid] = pids
    _no_child_left(pid)
    _no_snapshots_left(out)


@needs_fork
def test_a_steered_config_refused_after_the_prefix_exits_2(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    from dataclasses import replace

    from gemsim import scenarios

    config_for_phase = scenarios.TimeDomainFamily.config_for_phase

    def unstable(self, *args, **kwargs):
        config = config_for_phase(self, *args, **kwargs)
        return replace(config, grid=replace(config.grid, nt=config.grid.nt // 50))

    _main_solve_never_runs(monkeypatch)
    pids = _publish_then(monkeypatch, lambda writer, i: None)
    monkeypatch.setattr(scenarios.TimeDomainFamily, "config_for_phase", unstable)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--out", str(out),
                    "--snapshot-stride", "500"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err
    [pid] = pids  # the prefix's snapshots went to a child
    _no_child_left(pid)
    _no_snapshots_left(out)


def test_a_dry_run_forks_no_writer(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    from gemsim import io

    def no_writer(*args, **kwargs):
        raise AssertionError("a dry run made a snapshot writer")

    monkeypatch.setattr(io, "SnapshotWriter", no_writer)
    monkeypatch.setattr(io.os, "fork", no_writer)
    out = tmp_path / "dry"
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides,
                    "--out", str(out), "--dry-run"]) == 0
    assert "dry run" in capsys.readouterr().out
    assert not out.exists()


@needs_fork
def test_in_process_snapshots_match_the_forked_writer(tmp_path, capsys, monkeypatch, fast_preset_overrides):
    from gemsim import io

    argv = ["simulate", "--preset", "fig2", "--config", fast_preset_overrides, "--snapshot-stride", "300"]
    pids = _publish_then(monkeypatch, lambda writer, i: None)
    assert run_cli(argv + ["--out", str(tmp_path / "forked")]) == 0
    [pid] = pids
    assert pid is not None
    _no_child_left(pid)
    sha = capsys.readouterr().out.split("config sha256: ")[1].split()[0]

    def no_fork():
        raise AssertionError("forked where the snapshot writer should format in-process")

    monkeypatch.setattr(io.os, "fork", no_fork)
    monkeypatch.setattr(io.sys, "platform", "darwin")
    assert run_cli(argv + ["--out", str(tmp_path / "in-process")]) == 0
    for name in SIMULATE_OUTPUTS:
        forked = (tmp_path / "forked" / name).read_bytes()
        assert forked == (tmp_path / "in-process" / name).read_bytes(), name
    assert (tmp_path / "forked" / "snapshots.csv").read_text().startswith(f"# config_sha256={sha}\n")


def test_simulate_integrates_the_shared_prefix_once(tmp_path, monkeypatch, fast_preset_overrides):
    # the probe-only run up to the node before E1 opens is continued by the
    # bare calibration run and by the main solve, which count only their own steps
    from gemsim import cli, scenarios
    from gemsim.solver import _time_grid, run

    runs = []

    def noting(config, *args, **kwargs):
        record = run(config, *args, **kwargs)
        runs.append((config, kwargs.get("start"), record))
        return record

    monkeypatch.setattr(cli, "run", noting)
    monkeypatch.setattr(scenarios, "run", noting)
    assert run_cli(["simulate", "--preset", "fig2", "--config", fast_preset_overrides,
                    "--out", str(tmp_path / "o"), "--snapshot-stride", "2000"]) == 0
    (bare, no_start, prefix), (calibration, cal_start, _), (_, steer_start, _), (config, start, record) = runs
    assert no_start is None and steer_start is None and cal_start is prefix and start is prefix
    assert calibration == bare
    node = len(prefix.t) - 1
    t = _time_grid(config)
    assert t[node] < scenarios.preset_family("fig2", **FAST_FIG2).windows["E1"][0] == t[node + 1]
    assert record.diagnostics["steps_integrated"] == len(t) - 1 - node


def test_negative_snapshot_stride_exits_2(capsys):
    assert run_cli(["simulate", "--preset", "freq-domain", "--dry-run", "--snapshot-stride", "-1"]) == 2
    assert "--snapshot-stride must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------

FULL = ["simulate", "--dry-run", "--config"]
FREQ_OVERRIDES = ["simulate", "--dry-run", "--preset", "freq-domain", "--config"]
FIG2_OVERRIDES = ["simulate", "--dry-run", "--preset", "fig2", "--config"]


def _full_doc(*path, value):
    doc = config_to_dict(storage_config(nz=64))
    *parents, key = path
    reduce(getitem, parents, doc)[key] = value
    return doc


def _hold_doc(hold):
    """The full document with its second gradient segment at eta = 0, flagged `hold`."""
    doc = _full_doc("gradient", "segments", 1, "eta", value=0.0)
    doc["gradient"]["segments"][1]["hold"] = hold
    return doc


def _sampled_doc(t, values):
    """The freq-domain document with one more pulse, sampled at times t."""
    doc = config_to_dict(preset_family("freq-domain").config_for_phase(0.0))
    doc["pulses"].append({"kind": "sampled", "label": "extra", "channel": 0, "t": t, "values": values})
    return doc


@pytest.mark.parametrize("argv, doc, message", [
    (FULL, _full_doc("gradient", "segments", 1, "t_start", value="a"), "gradient segments 1 t_start"),
    (FULL, _full_doc("ensemble", "delta", value="1"), "ensemble delta"),
    (FULL, _full_doc("pulses", 0, "sigma", value=None), "pulses 0 sigma"),
    (FULL, _full_doc("mode_mismatch", value="1"), "mode_mismatch"),
    (FULL, _full_doc("ensemble", "gamma0", value=math.nan), "ensemble gamma0"),
    (FULL, _full_doc("grid", "nz", value=2**1100), "grid nz"),
    (FREQ_OVERRIDES, {"gamma0": "a"}, "ensemble gamma0"),
    (FREQ_OVERRIDES, {"gamma0": None}, "ensemble gamma0"),
    (FREQ_OVERRIDES, {"delta": 0}, "division by zero"),
    (FREQ_OVERRIDES, {"dt_factor": 0}, "division by zero"),
    (FREQ_OVERRIDES, {"tau": 1e308}, "infinity"),
    (FREQ_OVERRIDES, {"beat_note": "false"}, "beat_note"),
    (FIG2_OVERRIDES, {"phase_knob": "couplng"}, "phase_knob"),
    (["oracle"], [1, 2], "JSON object"),
    (["oracle"], {"events": [1]}, "event 0 must be an object"),
    (["oracle"], {"pulses": [1e308], "events": [{"kind": "write", "beta": 0.3}]}, "range"),
    (FULL, _sampled_doc([], []), "pulse 2 (extra): sample times t must be a non-empty list"),
    (FULL, _sampled_doc([1.0, 3.0, 2.0], [0.1, 0.2, 0.1]),
     "pulse 2 (extra): sample times t must be strictly increasing"),
    (FULL, _sampled_doc([1.0, 2.0, 3.0], [0.1, 0.2]), "pulse 2 (extra): 2 values for 3 sample times t"),
    (FULL, _hold_doc("no"), "gradient segments 1 hold"),
    (FULL, _full_doc("pulses", 0, "amplitude", value=[True, False]), "pulses 0 amplitude"),
    (FULL, _full_doc("pulses", 0, "label", value=5), "pulses 0 label"),
    (FULL, _full_doc("metadata", value=[1]), "metadata"),
    (["oracle"], {"pulses": [True], "events": [{"kind": "write", "beta": 0.3}]}, "pulses 0"),
], ids=["t_start-str", "delta-str", "sigma-null", "mode_mismatch-str", "gamma0-nan", "nz-huge",
        "fd-gamma0-str", "fd-gamma0-null", "fd-delta-0", "fd-dt_factor-0", "fd-tau-huge",
        "fd-beat_note-str", "fig2-phase_knob-typo",
        "oracle-list", "oracle-event-int", "oracle-energy-overflow",
        "sampled-t-empty", "sampled-t-unsorted", "sampled-length-mismatch",
        "hold-str", "amplitude-bools", "label-int", "metadata-list", "oracle-pulse-bool"])
def test_malformed_document_exits_2(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


REQUIRED_KEYS = [
    ("ensemble",), ("ensemble", "g"), ("ensemble", "n_density"), ("ensemble", "delta"),
    ("gradient",), ("gradient", "segments"), ("gradient", "segments", 0, "t_start"), ("gradient", "segments", 0, "eta"),
    ("coupling",), ("coupling", "channels"), ("coupling", "channels", 0, "segments"),
    ("coupling", "channels", 0, "segments", 0, "t_start"), ("coupling", "channels", 0, "segments", 0, "omega"),
    ("coupling", "channels", 1, "modulation", "amplitude"), ("coupling", "channels", 1, "modulation", "freq"),
    ("pulses",), ("pulses", 0, "kind"), ("pulses", 0, "t0"), ("pulses", 0, "sigma"), ("pulses", 0, "amplitude"),
    ("pulses", 1, "kind"), ("pulses", 1, "t"), ("pulses", 1, "values"),
    ("grid",), ("grid", "nz"), ("grid", "nt"), ("grid", "t_end"), ("windows",),
]
OPTIONAL_KEYS = [
    (("ensemble", "gamma0"), 0.0), (("ensemble", "gamma_e"), 1.0), (("ensemble", "length"), 1.0),
    (("gradient", "segments", 1, "hold"), False),
    (("coupling", "channels", 1, "raman_offset"), 0.0), (("coupling", "channels", 1, "modulation"), None),
    (("pulses", 0, "carrier"), 0.0), (("pulses", 0, "truncate"), 4.0), (("pulses", 0, "label"), "probe"),
    (("pulses", 0, "channel"), 0), (("pulses", 1, "label"), "steering"), (("pulses", 1, "channel"), 0),
    (("mode_mismatch",), 1.0), (("mismatch_time",), None), (("metadata",), {}),
]


def _without(path):
    """every_field_config()'s document with the key at `path` removed."""
    doc = config_to_dict(every_field_config())
    *parents, key = path
    del reduce(getitem, parents, doc)[key]
    return doc


@pytest.mark.parametrize("path", REQUIRED_KEYS, ids=lambda path: "-".join(map(str, path)))
def test_a_document_without_a_required_key_exits_2(tmp_path, capsys, path):
    (tmp_path / "doc.json").write_text(json.dumps(_without(path)))
    assert run_cli(FULL + [str(tmp_path / "doc.json")]) == 2
    err = capsys.readouterr().err
    assert " ".join(map(str, path)) in err and "Traceback" not in err


def _at(config, path):
    return reduce(lambda node, key: node[key] if isinstance(key, int) else getattr(node, key), path, config)


@pytest.mark.parametrize("path, default", OPTIONAL_KEYS, ids=["-".join(map(str, path)) for path, _ in OPTIONAL_KEYS])
def test_a_document_without_an_optional_key_loads_its_default(tmp_path, path, default):
    assert _at(every_field_config(), path) != default
    (tmp_path / "doc.json").write_text(json.dumps(_without(path)))
    assert _at(load_config(tmp_path / "doc.json"), path) == default


def test_units_and_unknown_keys_are_ignored():
    doc = _without(("units",))
    doc["pulses"][1]["comment"] = "a key that names no field"
    assert config_from_dict(doc) == every_field_config()


README_ORACLE = {
    "pulses": [1.0, 1.0],
    "gamma0": 0.0,
    "events": [
        {"kind": "write", "beta": 0.3},
        {"kind": "hold", "tau": 5.0},
        {"kind": "interfere", "beta": 0.1103, "theta": 3.14159, "mu": 1.0},
        {"kind": "hold", "tau": 5.0},
        {"kind": "read", "beta": 0.3},
    ],
    "balance": {"r1": 0.757, "gamma0": 0.0, "tau": 0.0, "ep": 1.0, "es": 1.0},
}
BASE_DOCUMENTS = [
    (FULL, config_to_dict(storage_config(nz=64))),
    (FREQ_OVERRIDES, asdict(FrequencyDomainParams())),
    (["oracle"], README_ORACLE),
]
REPLACEMENTS = ["a", None, True, [1, 2], {"a": 1}, math.nan, math.inf, -math.inf, 1e308, -1e308, 0, -1]


def _paths(node, path=()):
    """Every path below the root: object keys and array indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A base document with one value replaced or one object key deleted."""
    argv, doc = draw(st.sampled_from(BASE_DOCUMENTS))
    doc = copy.deepcopy(doc)
    *parents, key = draw(st.sampled_from(list(_paths(doc))))
    parent = reduce(getitem, parents, doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return argv, doc


@settings(max_examples=600, derandomize=True, deadline=None)
@given(mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) in (0, 2, 3)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_phase_sweep_summary(tmp_path, fast_preset_overrides):
    out = tmp_path / "sweep"
    code = run_cli([
        "sweep", "--kind", "phase", "--range", f"0:{2 * math.pi}:8",
        "--preset", "fig2", "--config", fast_preset_overrides,
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["ports"]) == {"E1", "E2"}
    assert summary["ports"]["E1"]["visibility"] > 0.9
    dphi = summary["phi0_difference"]
    assert abs(abs(dphi) - math.pi) < 0.05 or abs(abs(dphi) - math.pi) % (2 * math.pi) < 0.05
    assert (out / "fringe_E1.csv").exists()
    assert (out / "fringe_E2.json").exists()


def test_phase_sweep_time_domain_preset(tmp_path):
    overrides = tmp_path / "td.json"
    overrides.write_text(json.dumps({
        "nz": 256, "probe_sigma": 0.5, "probe_center": 2.0, "tau1": 4.5, "tau2": 4.5,
    }))
    out = tmp_path / "td-sweep"
    code = run_cli([
        "sweep", "--kind", "phase", "--range", f"0:{2 * math.pi}:16",
        "--preset", "time-domain", "--config", str(overrides),
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ports"]["E1"]["visibility"] > 0.9
    assert summary["ports"]["E2"]["visibility"] > 0.9
    dphi = abs(summary["ports"]["E1"]["phi0"] - summary["ports"]["E2"]["phi0"])
    assert abs(dphi - math.pi) < 0.05


def test_single_point_coupling_sweep(tmp_path, fast_preset_overrides):
    out = tmp_path / "single"
    code = run_cli([
        "sweep", "--kind", "coupling", "--range", "1:1:1",
        "--preset", "fig2", "--config", fast_preset_overrides,
        "--out", str(out),
    ])
    assert code == 0
    rows = (out / "coupling_E1.csv").read_text().splitlines()
    assert rows[0].startswith("# config_sha256=")
    assert rows[1] == "relative_power,visibility"
    assert len(rows) == 3


def test_mismatch_sweep_includes_zero(tmp_path, fast_preset_overrides):
    out = tmp_path / "mis"
    code = run_cli([
        "sweep", "--kind", "mismatch", "--range", "0:1:2",
        "--preset", "fig2", "--config", fast_preset_overrides,
        "--out", str(out),
    ])
    assert code == 0
    rows = (out / "mismatch_E1.csv").read_text().splitlines()
    assert rows[2] == "0.0,0.0"


def test_sweep_outputs_do_not_depend_on_the_ignored_workers_flag(tmp_path):
    # the beat note runs each phase directly, so its phases are batched rows of one solve
    overrides = tmp_path / "beat.json"
    overrides.write_text(json.dumps({"beat_note": True, "nz": 128}))
    outputs = []
    for flag in ([], ["--workers", "1"], ["--workers", "2"]):
        out = tmp_path / f"out{len(outputs)}"
        assert run_cli(["sweep", "--kind", "phase", "--range", "0:6:6", "--preset", "freq-domain",
                        "--config", str(overrides), "--out", str(out)] + flag) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_range_exits_2(capsys):
    assert run_cli(["sweep", "--kind", "phase", "--range", "0:1", "--preset", "fig2"]) == 2
    assert "start:stop:count" in capsys.readouterr().err


@pytest.mark.parametrize("kind, spec, message", [
    ("coupling", "0:1:3", "relative powers must be positive"),
    ("mismatch", "0.5:1.5:3", "mu values must lie in [0, 1]"),
    ("phase", "0:inf:6", "range values must be finite"),
    ("phase", "0:1e308:6", "range values must be finite"),
], ids=["coupling-zero-power", "mismatch-above-one", "phase-inf", "phase-overflow"])
def test_sweep_values_outside_the_kind_domain_exit_2_before_solving(capsys, monkeypatch, kind, spec, message):
    from gemsim import analysis, cli, scenarios, solver

    def no_solves(*args, **kwargs):
        raise RuntimeError("the sweep values were not checked before solving")

    for module in (analysis, cli, scenarios, solver):
        monkeypatch.setattr(module, "run", no_solves)
    monkeypatch.setattr(analysis, "run_many", no_solves)
    assert run_cli(["sweep", "--kind", kind, "--range", spec, "--preset", "fig2"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_mismatch_sweep_rejected_for_freq_domain(capsys):
    assert run_cli(["sweep", "--kind", "mismatch", "--range", "0:1:3",
                    "--preset", "freq-domain"]) == 2
    assert "time-domain" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_write_read_pair(tmp_path, capsys):
    events = {
        "pulses": [1.0],
        "gamma0": 0.0,
        "events": [
            {"kind": "write", "beta": 0.25},
            {"kind": "hold", "tau": 10.0},
            {"kind": "read", "beta": 0.25},
        ],
    }
    path = tmp_path / "events.json"
    path.write_text(json.dumps(events))
    assert run_cli(["oracle", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = (1 - math.exp(-math.pi / 2)) ** 2
    assert doc["energies"][1] == pytest.approx(expected, rel=1e-12)
    assert doc["energies"][1] == pytest.approx(0.6274, abs=1e-4)


def test_oracle_balanced_sequence_suppresses(tmp_path, capsys):
    beta1 = 0.3
    beta2 = oracle.balance_coupling(oracle.reflectivity(beta1), 0.0, 0.0, 1.0, 1.0)
    events = {
        "pulses": [1.0, 1.0],
        "events": [
            {"kind": "write", "beta": beta1},
            {"kind": "hold", "tau": 5.0},
            {"kind": "interfere", "beta": beta2, "theta": math.pi},
            {"kind": "hold", "tau": 5.0},
            {"kind": "read", "beta": beta1},
        ],
    }
    path = tmp_path / "events.json"
    path.write_text(json.dumps(events))
    assert run_cli(["oracle", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["energies"][1] < 1e-15  # first recall fully suppressed
    assert doc["energies"][2] > 0.1   # second recall carries the energy


def test_oracle_balance_no_solution(tmp_path, capsys):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"balance": {"r1": 1.0, "es": 0.0}}))
    assert run_cli(["oracle", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "no_solution" in doc["balance"]


def test_oracle_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "events.json"
    path.write_text(json.dumps({"events": [{"kind": "warp", "beta": 1}]}))
    assert run_cli(["oracle", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err
