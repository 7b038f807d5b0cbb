"""Command-line entry point: runs, sweeps and lumped-model queries.

Exit codes: 0 success, 2 configuration/validation error, 3 solver error.
Diagnostics go to stderr; every output file names the configuration hash
it was produced from, and identical invocations write identical bytes.
The default output directory is $GEMSIM_OUT or ./gemsim-out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import analysis, io, oracle, scenarios
from .errors import GemSimError, NoRoot, NonFinite, StabilityBound
from .model import (
    ScenarioConfig,
    _j2c,
    config_sha256,
    load_config,
    save_config,
    validate,
)
from .solver import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
SIMULATE_OUTPUTS = "config.json boundary.csv snapshots.csv kspectra.csv windows.json record.npz".split()
SWEEP_OUTPUTS = {
    "phase": "fringe_E1.csv fringe_E1.json fringe_E2.csv fringe_E2.json summary.json".split(),
    "coupling": "coupling_E1.csv coupling_E2.csv summary.json".split(),
    "mismatch": "mismatch_E1.csv summary.json".split(),
}
# what a malformed document or override raises while a configuration is built
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, ArithmeticError, GemSimError)


def _err(msg: str) -> None:
    print(f"gemsim: {msg}", file=sys.stderr)


def _writable_out(args, names) -> Path:
    """The output directory, once every named output in it is known to be writable."""
    out = Path(args.out or os.environ.get("GEMSIM_OUT") or "gemsim-out")
    out.mkdir(parents=True, exist_ok=True)
    for path in (out / name for name in names):  # all of them, before the first write
        if path.is_dir() or not os.access(path if path.exists() else out, os.W_OK):
            raise OSError(f"{path} is a directory or not writable")
    return out


def _load_overrides(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _family(args):
    """The --preset family, with --config as override keys."""
    return scenarios.preset_family(args.preset, **_load_overrides(args.config))


def _config_before_solving(family, phase: float | None = None) -> ScenarioConfig:
    """The family's config at `phase` (default: its own theta or phi), if it takes no solve.

    A time-domain family's takes its two calibration solves, so its probe-only
    config, the one they solve, is returned: validated before them, and before
    the outputs are checked.  `_calibrated` builds the family's own after.
    """
    if isinstance(family, scenarios.TimeDomainFamily):
        return family.bare_config()
    return family.config_for_phase(family.params.phi if phase is None else phase)


def _calibrated(family, config: ScenarioConfig, phase: float | None = None,
                prefix=None) -> ScenarioConfig | None:
    """`config`, or a time-domain family's config at `phase` once calibrated; None if that is invalid.

    The bare calibration run continues `prefix`, if given (see `TimeDomainFamily.calibrate`).
    """
    if not isinstance(family, scenarios.TimeDomainFamily):
        return config
    family.calibrate(prefix)
    config = family.config_for_phase(family.params.theta if phase is None else phase)
    return config if _is_valid(config, warn=False) else None  # its warnings are the probe-only config's


def _is_valid(config: ScenarioConfig, warn: bool = True) -> bool:
    """Validate, printing every failure, and every warning if `warn`."""
    report = validate(config)
    for w in report.warnings if warn else ():
        _err(f"warning: {w}")
    for failure in report.failures:
        _err(f"invalid configuration: {failure}")
    return report.ok


def cmd_simulate(args) -> int:
    if (args.snapshot_stride or 0) < 0:
        _err(f"--snapshot-stride must be >= 0, got {args.snapshot_stride}")
        return EXIT_CONFIG
    family = None
    try:
        if args.preset:
            family = _family(args)
            config = _config_before_solving(family)
        elif args.config:
            config = load_config(args.config)
        else:
            raise ValueError("either --preset or --config is required")
    except INPUT_ERRORS as exc:
        _err(f"cannot build configuration: {exc}")
        return EXIT_CONFIG
    if not _is_valid(config):
        return EXIT_CONFIG
    try:
        out = None if args.dry_run else _writable_out(args, SIMULATE_OUTPUTS)
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_CONFIG

    # snapshots.csv is formatted while the solves run, the other outputs after
    # them; on a time-domain preset, the bare calibration and the main run
    # both continue the probe-only run up to the node before the steering
    # starts, and the writer formats that prefix's snapshots while calibration
    # goes on
    with nullcontext() if out is None else io.SnapshotWriter(out / "snapshots.csv") as snapshots:
        try:
            prefix = None
            if snapshots is not None and isinstance(family, scenarios.TimeDomainFamily):
                prefix = family.shared_prefix(args.snapshot_stride, snapshots)
            config = _calibrated(family, config, prefix=prefix)
            del family  # its calibration records are not held through the main solve and the export
            if config is None:
                return EXIT_CONFIG
            if out is None:
                print("configuration valid; dry run requested, no outputs written")
                return EXIT_OK
            record = run(config, stride=args.snapshot_stride, start=prefix, sink=snapshots)
            del prefix  # not held through the export
        except (NonFinite, StabilityBound) as exc:
            _err(f"solver error: {exc}")
            return EXIT_SOLVER
        except OSError as exc:  # the solves write one file: the snapshot store's spool
            _err(f"cannot write outputs: {exc}")
            return EXIT_CONFIG
        except INPUT_ERRORS as exc:
            _err(f"cannot build configuration: {exc}")
            return EXIT_CONFIG
        sha = config_sha256(config)
        try:
            save_config(config, out / "config.json")
            io.write_boundary_csv(record, out / "boundary.csv", sha)
            io.write_kspectra_csv(record, out / "kspectra.csv", sha)
            io.write_windows_json(record, out / "windows.json", sha)
            io.save_record(record, out / "record.npz", sha)
            snapshots.close(sha)
        except OSError as exc:
            _err(f"cannot write outputs: {exc}")
            return EXIT_CONFIG
    print(f"wrote {out}/[{' '.join(SIMULATE_OUTPUTS)}]")
    print(f"config sha256: {sha}")
    for name, energy in sorted(record.window_energies.items()):
        print(f"  {name}: {energy!r}")
    return EXIT_OK


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("range must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    values = [start] if count == 1 else [start + (stop - start) * i / (count - 1) for i in range(count)]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"range values must be finite, got {spec!r}")
    return values


def _write_curve(path: Path, sha: str, header: str, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={sha}\n{header}\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in points)


def cmd_sweep(args) -> int:
    try:
        family = _family(args)
        values = _parse_range(args.range)
        if args.kind == "coupling" and any(v <= 0 for v in values):
            raise ValueError("relative powers must be positive")
        if args.kind == "mismatch" and any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("mu values must lie in [0, 1]")
        config = _config_before_solving(family, 0.0)
    except INPUT_ERRORS as exc:
        _err(f"cannot build sweep: {exc}")
        return EXIT_CONFIG
    if not _is_valid(config):
        return EXIT_CONFIG
    if args.kind in ("coupling", "mismatch") and not isinstance(family, scenarios.TimeDomainFamily):
        _err(f"{args.kind} sweeps are defined for the time-domain presets")
        return EXIT_CONFIG

    try:
        out = _writable_out(args, SWEEP_OUTPUTS[args.kind])
    except OSError as exc:
        _err(f"sweep failed: {exc}")
        return EXIT_CONFIG
    try:
        config = _calibrated(family, config, 0.0)
    except (NonFinite, StabilityBound) as exc:
        _err(f"solver error: {exc}")
        return EXIT_SOLVER
    except INPUT_ERRORS as exc:
        _err(f"cannot build sweep: {exc}")
        return EXIT_CONFIG
    if config is None:
        return EXIT_CONFIG

    sha = config_sha256(config)
    summary: dict = {"kind": args.kind, "config_sha256": sha, "preset": args.preset}
    try:
        if args.kind == "phase":
            datasets = analysis.scan_both_ports(family, values)
            for port, ds in datasets.items():
                analysis.write_fringe_csv(ds, out / f"fringe_{port}.csv", out / f"fringe_{port}.json",
                                          config_hash=sha)
            summary["ports"] = {
                port: {"visibility": ds.visibility, "phi0": ds.phi0, "offset": ds.offset,
                       "amplitude": ds.amplitude}
                for port, ds in datasets.items()
            }
            dphi = abs(datasets["E1"].phi0 - datasets["E2"].phi0)
            summary["phi0_difference"] = dphi
        elif args.kind == "coupling":
            curves = analysis.coupling_sweep(family, values)
            for port, curve in curves.items():
                _write_curve(out / f"coupling_{port}.csv", sha, "relative_power,visibility", curve)
            summary["curves"] = {port: [[p, v] for p, v in curve] for port, curve in curves.items()}
        else:  # mismatch
            curve = analysis.mismatch_curve(family, values)
            _write_curve(out / "mismatch_E1.csv", sha, "mu,visibility", curve)
            summary["curve"] = [[m, v] for m, v in curve]
        with open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (NonFinite, StabilityBound) as exc:
        _err(f"solver error: {exc}")
        return EXIT_SOLVER
    except (GemSimError, OSError) as exc:  # OSError: an output that cannot be written
        _err(f"sweep failed: {exc}")
        return EXIT_CONFIG
    print(f"wrote sweep outputs to {out}")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _oracle_events(doc: dict):
    holds = []
    pending_hold = 0.0
    parsed: list = []
    for i, item in enumerate(doc.get("events", [])):
        if not isinstance(item, dict):
            raise ValueError(f"event {i} must be an object, got {item!r}")
        kind = item.get("kind")
        if kind == "hold":
            if not parsed:
                raise ValueError("a hold cannot precede the first event")
            pending_hold += float(item["tau"])
            continue
        if parsed:
            holds.append(pending_hold)
        pending_hold = 0.0
        parsed.append(
            oracle.BsEvent(
                kind=kind,
                beta=float(item["beta"]),
                theta=float(item.get("theta", 0.0)),
                mu=float(item.get("mu", 1.0)),
            )
        )
    return parsed, holds


def cmd_oracle(args) -> int:
    try:
        with open(args.events, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("the document must be a JSON object")
        events, holds = _oracle_events(doc)
        pulses = [_j2c(v, f"pulses {i}") for i, v in enumerate(doc.get("pulses", []))]
        gamma0 = float(doc.get("gamma0", 0.0))
        result: dict = {}
        if events:
            state = oracle.predict_record(pulses, events, gamma0, holds)
            result["amplitudes"] = [[a.real, a.imag] for a in state.optical_out]
            result["energies"] = state.energies()
            result["stored"] = [state.stored.real, state.stored.imag]
            result["stored_energy"] = state.stored_energy()
        if "balance" in doc:
            b = doc["balance"]
            try:
                beta2 = oracle.balance_coupling(
                    float(b["r1"]), float(b.get("gamma0", 0.0)), float(b.get("tau", 0.0)),
                    abs(_j2c(b.get("ep", 1.0), "balance ep")), abs(_j2c(b.get("es", 1.0), "balance es")),
                )
                result["balance"] = {"beta2": beta2}
            except NoRoot as exc:
                result["balance"] = {"no_solution": str(exc)}
    except INPUT_ERRORS as exc:
        _err(f"malformed event list: {exc}")
        return EXIT_CONFIG
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemsim",
        description="Gradient echo memory simulator: runs, sweeps, lumped-model queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and export its record")
    sim.add_argument("--preset", choices=sorted(scenarios.PRESETS), help="named scenario preset")
    sim.add_argument("--config", help="full scenario JSON, or override keys for --preset")
    sim.add_argument("--out", help="output directory (default $GEMSIM_OUT or ./gemsim-out)")
    sim.add_argument("--dry-run", action="store_true", help="validate only, write nothing")
    sim.add_argument("--snapshot-stride", type=int, default=None,
                     help="steps between snapshots and k-spectra; 0 records none (default: ~512 of each)")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="phase/coupling/mismatch sweeps of fringe visibility")
    swp.add_argument("--kind", required=True, choices=("phase", "coupling", "mismatch"))
    swp.add_argument("--range", required=True, help="start:stop:count (inclusive endpoints)")
    swp.add_argument("--preset", required=True, choices=sorted(scenarios.PRESETS))
    swp.add_argument("--config", help="override keys for the preset")
    swp.add_argument("--out", help="output directory (default $GEMSIM_OUT or ./gemsim-out)")
    # accepted and ignored: perfbench/run.py replays its workloads with --workers 1
    swp.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    swp.set_defaults(func=cmd_sweep)

    orc = sub.add_parser("oracle", help="predicted energies for a beamsplitter event list")
    orc.add_argument("events", help="JSON file with pulses, events, optional balance query")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
