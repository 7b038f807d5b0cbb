"""Command-line behaviour: exit codes, outputs, determinism."""

import copy
import json
import math
import tempfile
from dataclasses import asdict
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gemsim import oracle
from gemsim.cli import main
from gemsim.model import config_to_dict
from gemsim.scenarios import FrequencyDomainParams
from conftest import FAST_FIG2, storage_config


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
    assert len(windows["config_sha256"]) == 64
    banner = capsys.readouterr().out
    assert windows["config_sha256"] in banner


def test_simulate_outputs_are_byte_identical(tmp_path, fast_preset_overrides):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli([
            "simulate", "--preset", "fig2", "--config", fast_preset_overrides,
            "--out", str(out), "--snapshot-stride", "2000",
        ]) == 0
    for name in ("config.json", "boundary.csv", "snapshots.csv", "kspectra.csv", "windows.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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
    path = tmp_path / "overrides.json"
    path.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    args = ["simulate"] if command == "simulate" else [
        "sweep", "--kind", "phase", "--range", "0:6:6", "--workers", "1"]
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

    def boom(config, stride=None, initial_coherence=None):
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


def test_negative_snapshot_stride_exits_2(capsys):
    assert run_cli(["simulate", "--preset", "freq-domain", "--dry-run", "--snapshot-stride", "-1"]) == 2
    assert "--snapshot-stride must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------

FULL = ["simulate", "--dry-run", "--config"]
FREQ_OVERRIDES = ["simulate", "--dry-run", "--preset", "freq-domain", "--config"]


def _full_doc(*path, value):
    doc = config_to_dict(storage_config(nz=64))
    *parents, key = path
    reduce(getitem, parents, doc)[key] = value
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
    (["oracle"], [1, 2], "JSON object"),
    (["oracle"], {"events": [1]}, "event 0 must be an object"),
    (["oracle"], {"pulses": [1e308], "events": [{"kind": "write", "beta": 0.3}]}, "range"),
], ids=["t_start-str", "delta-str", "sigma-null", "mode_mismatch-str", "gamma0-nan", "nz-huge",
        "fd-gamma0-str", "fd-gamma0-null", "fd-delta-0", "fd-dt_factor-0", "fd-tau-huge",
        "oracle-list", "oracle-event-int", "oracle-energy-overflow"])
def test_malformed_document_exits_2(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
        "--out", str(out), "--workers", "1",
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
        "--out", str(out), "--workers", "1",
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
        "--out", str(out), "--workers", "1",
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
        "--out", str(out), "--workers", "1",
    ])
    assert code == 0
    rows = (out / "mismatch_E1.csv").read_text().splitlines()
    assert rows[2] == "0.0,0.0"


def test_bad_range_exits_2(capsys):
    assert run_cli(["sweep", "--kind", "phase", "--range", "0:1", "--preset", "fig2"]) == 2
    assert "start:stop:count" in capsys.readouterr().err


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
