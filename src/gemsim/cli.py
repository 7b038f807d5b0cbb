"""Command-line entry point: runs, sweeps and lumped-model queries.

Exit codes: 0 success, 2 configuration/validation error, 3 solver error.
Diagnostics go to stderr; every output file names the configuration hash
it was produced from, and identical invocations write identical bytes.
The default output directory is $GEMSIM_OUT or ./gemsim-out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
# what a malformed document or override raises while a configuration is built
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, ArithmeticError, GemSimError)


def _err(msg: str) -> None:
    print(f"gemsim: {msg}", file=sys.stderr)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("GEMSIM_OUT") or "gemsim-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_overrides(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _family(args):
    """The --preset family, with --config as override keys."""
    return scenarios.preset_family(args.preset, **_load_overrides(args.config))


def _preset_config(family, phase: float | None = None) -> ScenarioConfig:
    """The family's config at `phase` (default: its own theta or phi).

    A time-domain family's calibration solves its probe-only config, so that
    config is returned instead when invalid: its failures come before solves.
    """
    if isinstance(family, scenarios.TimeDomainFamily):
        bare = family.bare_config()
        if not validate(bare).ok:
            return bare
        own = family.params.theta
    else:
        own = family.params.phi
    return family.config_for_phase(own if phase is None else phase)


def _is_valid(config: ScenarioConfig) -> bool:
    """Validate, printing every warning and failure."""
    report = validate(config)
    for w in report.warnings:
        _err(f"warning: {w}")
    for failure in report.failures:
        _err(f"invalid configuration: {failure}")
    return report.ok


def cmd_simulate(args) -> int:
    if (args.snapshot_stride or 0) < 0:
        _err(f"--snapshot-stride must be >= 0, got {args.snapshot_stride}")
        return EXIT_CONFIG
    try:
        if args.preset:
            config = _preset_config(_family(args))
        elif args.config:
            config = load_config(args.config)
        else:
            raise ValueError("either --preset or --config is required")
    except INPUT_ERRORS as exc:
        _err(f"cannot build configuration: {exc}")
        return EXIT_CONFIG
    if not _is_valid(config):
        return EXIT_CONFIG
    if args.dry_run:
        print("configuration valid; dry run requested, no outputs written")
        return EXIT_OK
    try:
        record = run(config, stride=args.snapshot_stride)
    except (NonFinite, StabilityBound) as exc:
        _err(f"solver error: {exc}")
        return EXIT_SOLVER

    out = _out_dir(args)
    sha = config_sha256(config)
    save_config(config, out / "config.json")
    io.write_boundary_csv(record, out / "boundary.csv")
    io.write_snapshots_csv(record, out / "snapshots.csv")
    io.write_kspectra_csv(record, out / "kspectra.csv")
    io.write_windows_json(record, out / "windows.json")
    io.save_record(record, out / "record.npz")
    print(f"wrote {out}/[config.json boundary.csv snapshots.csv kspectra.csv windows.json record.npz]")
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
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def cmd_sweep(args) -> int:
    try:
        family = _family(args)
        values = _parse_range(args.range)
        config = _preset_config(family, 0.0)
        if not _is_valid(config):
            return EXIT_CONFIG
        sha = config_sha256(config)
    except (NonFinite, StabilityBound) as exc:  # from the calibration runs
        _err(f"solver error: {exc}")
        return EXIT_SOLVER
    except INPUT_ERRORS as exc:
        _err(f"cannot build sweep: {exc}")
        return EXIT_CONFIG
    if args.kind in ("coupling", "mismatch") and not isinstance(family, scenarios.TimeDomainFamily):
        _err(f"{args.kind} sweeps are defined for the time-domain presets")
        return EXIT_CONFIG

    out = _out_dir(args)
    workers = args.workers
    summary: dict = {"kind": args.kind, "config_sha256": sha, "preset": args.preset}
    try:
        if args.kind == "phase":
            datasets = analysis.scan_both_ports(family, values, workers=workers)
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
            curves = analysis.coupling_sweep(family, values, workers=workers)
            for port, curve in curves.items():
                with open(out / f"coupling_{port}.csv", "w", encoding="utf-8") as fh:
                    fh.write(f"# config_sha256={sha}\n")
                    fh.write("relative_power,visibility\n")
                    for power, vis in curve:
                        fh.write(f"{power!r},{vis!r}\n")
            summary["curves"] = {port: [[p, v] for p, v in curve] for port, curve in curves.items()}
        else:  # mismatch
            curve = analysis.mismatch_curve(family, values, workers=workers)
            with open(out / "mismatch_E1.csv", "w", encoding="utf-8") as fh:
                fh.write(f"# config_sha256={sha}\n")
                fh.write("mu,visibility\n")
                for mu, vis in curve:
                    fh.write(f"{mu!r},{vis!r}\n")
            summary["curve"] = [[m, v] for m, v in curve]
    except (NonFinite, StabilityBound) as exc:
        _err(f"solver error: {exc}")
        return EXIT_SOLVER
    except GemSimError as exc:
        _err(f"sweep failed: {exc}")
        return EXIT_CONFIG

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        pulses = [_j2c(v) for v in doc.get("pulses", [])]
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
                    abs(_j2c(b.get("ep", 1.0))), abs(_j2c(b.get("es", 1.0))),
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

    swp = sub.add_parser("sweep", help="phase/coupling/mismatch sweeps with fringe fits")
    swp.add_argument("--kind", "--sweep", dest="kind", required=True,
                     choices=("phase", "coupling", "mismatch"))
    swp.add_argument("--range", required=True, help="start:stop:count (inclusive endpoints)")
    swp.add_argument("--preset", required=True, choices=sorted(scenarios.PRESETS))
    swp.add_argument("--config", help="override keys for the preset")
    swp.add_argument("--out", help="output directory (default $GEMSIM_OUT or ./gemsim-out)")
    swp.add_argument("--workers", type=int, default=os.cpu_count(),
                     help="worker processes for independent solves: coupling and mismatch "
                          "points, per-phase fallback runs (default: number of processors)")
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
