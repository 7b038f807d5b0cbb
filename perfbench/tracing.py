"""Spans around the calls the CLI makes into each gemsim module.

The package is not edited: `Tracer.install` replaces module-level names and
class attributes at runtime with wrappers that record a span (name, start,
end, parent, operation id) per call, and `restore` puts the originals back.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# solver, model and io spans have no children, so their self time is their
# total (solver.run_s, model.validate_s, io.export_s)
SELF_TIMED_LAYERS = ("cli", "scenarios", "analysis")
IO_FILES = ("boundary_csv", "snapshots_csv", "kspectra_csv", "windows_json", "record_npz",
            "config_json")


def _solver_counts(args, kwargs, record) -> dict:
    nz = len(record.z)
    nch = record.boundary_out.shape[1]
    arrays = [record.t, record.z, record.boundary_out, record.boundary_in,
              record.coherence_norm, record.k_spectra.magnitude]
    for fs, cs in record.snapshots:
        arrays += [fs.fields, cs.sigma]
    return {
        "steps": len(record.t) - 1,
        "step_points": (len(record.t) - 1) * nz * nch,
        "snapshots": len(record.snapshots),
        "kspectra": len(record.k_spectra.t),
        "record_bytes": sum(a.nbytes for a in arrays),
    }


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _scan_points(args, kwargs, result) -> dict:
    return {"points": len(args[1])}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.last_config = None

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else None, "op": self.op_id, "info": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                span["info"] = observe(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from gemsim import analysis, cli, io, scenarios

        def keep_config(args, kwargs, record):
            self.last_config = args[0]
            return _solver_counts(args, kwargs, record)

        self.wrap(scenarios, "preset_family", "scenarios.preset_family")
        self.wrap(scenarios.TimeDomainFamily, "config_for_phase", "scenarios.config_for_phase")
        self.wrap(scenarios.FrequencyDomainFamily, "config_for_phase", "scenarios.config_for_phase")
        self.wrap(scenarios.TimeDomainFamily, "calibrate", "scenarios.calibrate")
        self.wrap(cli, "validate", "model.validate")
        for owner in (cli, analysis, scenarios):
            self.wrap(owner, "run", "solver.run", keep_config)
        self.wrap(analysis, "scan_both_ports", "analysis.scan", _scan_points)
        self.wrap(analysis, "fit_fringe", "analysis.fit")
        self.wrap(analysis, "write_fringe_csv", "analysis.fringe_csv")
        self.wrap(cli, "save_config", "io.config_json", _written_bytes)
        for attr, name in (("write_boundary_csv", "boundary_csv"),
                           ("write_snapshots_csv", "snapshots_csv"),
                           ("write_kspectra_csv", "kspectra_csv"),
                           ("write_windows_json", "windows_json"),
                           ("save_record", "record_npz")):
            self.wrap(io, attr, f"io.{name}", _written_bytes)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced operation: (timings, exact counts).

    The counts, and the two values computed from them (`solver.record_mb`,
    `analysis.runs_per_point`), are deterministic and must repeat exactly.

    A span's self time is its duration minus its children's; children of
    one span never overlap because the replay is serial.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    self_by_layer = defaultdict(float)
    total = defaultdict(float)
    n = defaultdict(int)
    info = defaultdict(int)
    for i, s in enumerate(spans):
        self_by_layer[s["name"].split(".")[0]] += dur[i] - child[i]
        total[s["name"]] += dur[i]
        n[s["name"]] += 1
        for key, value in s["info"].items():
            info[f"{s['name']}.{key}"] += value

    def under(i: int, name: str) -> bool:
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    calibrate_runs = sum(1 for i, s in enumerate(spans)
                         if s["name"] == "solver.run" and under(i, "scenarios.calibrate"))
    config_self = sum(dur[i] - child[i] for i, s in enumerate(spans)
                      if s["name"] in ("scenarios.preset_family", "scenarios.config_for_phase"))
    run_s = total["solver.run"]
    steps = info["solver.run.steps"]
    step_points = info["solver.run.step_points"]
    points = info["analysis.scan.points"]
    export_s = sum(total[f"io.{f}"] for f in IO_FILES)
    written = sum(info[f"io.{f}.bytes"] for f in IO_FILES)

    timings = {f"{layer}.self_s": self_by_layer[layer] for layer in SELF_TIMED_LAYERS}
    timings.update({
        "model.validate_s": total["model.validate"],
        "scenarios.calibrate_s": total["scenarios.calibrate"],
        "scenarios.config_s": config_self,
        "solver.run_s": run_s,
        "solver.us_per_step": 1e6 * run_s / steps if steps else 0.0,
        "solver.ns_per_step_point": 1e9 * run_s / step_points if step_points else 0.0,
        "analysis.scan_s": total["analysis.scan"],
        "analysis.fit_s": total["analysis.fit"],
        "io.export_s": export_s,
        "io.mb_per_s": written / export_s / 1e6 if export_s else 0.0,
    })
    timings.update({f"io.{f}_s": total[f"io.{f}"] for f in IO_FILES})
    counts = {
        "solver.runs": n["solver.run"],
        "solver.steps": steps,
        "solver.snapshots": info["solver.run.snapshots"],
        "solver.kspectra": info["solver.run.kspectra"],
        "scenarios.calibrate_runs": calibrate_runs,
        "analysis.points": points,
        "io.bytes_written": written,
        "solver.record_mb": info["solver.run.record_bytes"] / 1e6,
        "analysis.runs_per_point": n["solver.run"] / points if points else 0.0,
    }
    return timings, counts
