"""gemsim benchmark: CLI workloads measured end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The workload process is this interpreter.  It imports `gemsim.cli` from
`./src` and calls `gemsim.cli.main` in-process, one operation at a time (a
closed loop with one client), each operation writing into a fresh temporary
directory.  The CLI's own `--workers` default is the only parallelism.

--trace 0 runs operations for at least `--seconds` (and at least MIN_OPS of
them), then times fresh-interpreter set-ups, and reports the end-to-end
metrics `setup_s`, `op_s` and `peak_rss_mb`.  Meanwhile `hostspeed.py`
probes the speed of every CPU, and both times are scaled to a fixed reference
speed.  --trace 1 runs one operation as above for its CPU time, then replays
it serially (`--workers 1`) untraced and traced, and reports the per-layer
metrics.  Every operation's outputs are checked; the last line of stdout is
the JSON result, the line before it the details (environment, seed,
per-operation times).  Spans and details are also written to .perfbench-out/.
See perfbench/README.md for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TMP = ROOT / ".perfbench-tmp"

MIN_OPS = 2
SETUP_REPEATS = 3          # and at least SETUP_MIN_SECONDS of probes, for cheap set-ups
SETUP_MIN_SECONDS = 2.0
DIAGNOSTICS_REPEATS = 2
SETUP_TIMEOUT_S = 120


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def import_cli():
    """gemsim.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import gemsim.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gemsim from {SRC}: {exc}")
    if Path(gemsim.cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"perfbench: gemsim imported from {gemsim.cli.__file__}, not {SRC}")
    return gemsim.cli


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gemsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return caches


def environment() -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_per_instance": _caches(),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_op(cli, workload, argv: list[str], out: Path) -> tuple[float, list[str], dict]:
    """One CLI invocation: (wall seconds, problems, sha256 per output file)."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        code = repr(exc)
    wall = time.perf_counter() - start
    if code != 0:
        return wall, [f"exit code {code}"], {}
    digests = {}
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    try:
        problems = workload.check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return wall, problems, digests


def fresh_dir(parent: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=parent))


def timed_loop(cli, workload, seed: int, seconds: float, tmp: Path) -> dict:
    """Closed loop of untraced operations for at least `seconds`."""
    walls, windows, failures, first = [], [], [], None
    start = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        out = fresh_dir(tmp)
        op_start = time.perf_counter()
        wall, problems, digests = run_op(cli, workload, workload.argv(seed, out), out)
        windows.append((op_start, time.perf_counter()))
        shutil.rmtree(out)
        if first is None:
            first = digests
        elif digests != first:
            problems.append("outputs are not byte-identical to the first operation's")
        walls.append(wall)
        failures.append(problems)
        gc.collect()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"walls": walls, "windows": windows, "failures": failures,
            "rss_kb": {"self": self_kb, "largest_child": child_kb}}


def setup_times(preset: str) -> tuple[list[float], list[tuple[float, float]]]:
    """Set-up seconds of fresh interpreters, and the window each ran in."""
    times, windows = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), preset],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        windows.append((start, time.perf_counter()))
        times.append(float(proc.stdout.split()[-1]))
    return times, windows


def _cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def diagnostics_cost(config) -> float:
    """Solve time with the default diagnostics strides minus with none in between."""
    from gemsim.solver import SolverSettings, run

    full, light = [], []
    n_steps = None
    for _ in range(DIAGNOSTICS_REPEATS):
        start = time.perf_counter()
        record = run(config, SolverSettings())
        full.append(time.perf_counter() - start)
        n_steps = len(record.t) - 1
        del record
        start = time.perf_counter()
        run(config, SolverSettings(snapshot_stride=n_steps, kspec_stride=n_steps))
        light.append(time.perf_counter() - start)
    return min(full) - min(light)


def check_counts(workload, counts: dict) -> list[str]:
    """Exact counts must repeat between runs of the same source in this checkout."""
    path = OUT / f"counts-{workload.name}-{source_sha256()[:16]}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return [f"exact counts differ from an earlier run: {earlier} != {counts}"]
        return []
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return []


def traced_run(cli, workload, seed: int, tmp: Path) -> dict:
    """One parallel operation for CPU time, then serial replays untraced and traced."""
    out = fresh_dir(tmp)
    cpu = _cpu_seconds()
    op_wall, op_problems, reference = run_op(cli, workload, workload.argv(seed, out), out)
    cpu = _cpu_seconds() - cpu
    shutil.rmtree(out)

    def serial_replay(tracer: Tracer | None) -> tuple[float, list[str], Path]:
        out = fresh_dir(tmp)
        if tracer is not None:
            tracer.install()
        try:
            wall, problems, digests = run_op(cli, workload, workload.argv(seed, out, workers=1), out)
        finally:
            if tracer is not None:
                tracer.restore()
        if digests != reference:
            problems.append("serial replay outputs differ from the parallel operation's")
        return wall, problems, out

    serial_wall, serial_problems, serial_out = serial_replay(None)
    shutil.rmtree(serial_out)
    tracer = Tracer()
    tracer.wrap(cli, "main", "cli.main")  # outermost span: the whole operation
    traced_wall, traced_problems, traced_out = serial_replay(tracer)
    load_record_s = 0.0
    if workload.kind == "simulate" and not traced_problems:
        from gemsim.io import load_record

        start = time.perf_counter()
        load_record(traced_out / "record.npz")
        load_record_s = time.perf_counter() - start
    shutil.rmtree(traced_out)

    timings, counts = layer_metrics(tracer.spans)
    timings.update({
        "cli.cpu_s": cpu,
        "solver.diagnostics_s": (diagnostics_cost(tracer.last_config)
                                 if tracer.last_config is not None else 0.0),
        "io.load_record_s": load_record_s,
        "trace.serial_op_s": serial_wall,
        "trace.overhead_s": traced_wall - serial_wall,
    })
    return {
        "metrics": {**timings, **counts},
        "failures": [op_problems, serial_problems, traced_problems],
        "count_problems": check_counts(workload, counts),
        "walls": {"parallel_op": op_wall, "serial_untraced": serial_wall, "serial_traced": traced_wall},
        "cli_self_share": timings["cli.self_s"] / traced_wall,
        "spans": tracer.spans,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = import_cli()
    env = environment()
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    tmp = fresh_dir(TMP)
    try:
        if args.trace:
            detail = traced_run(cli, workload, args.seed, tmp)
            failures = detail.pop("failures")
            metrics = detail.pop("metrics")
            spans = detail.pop("spans")
            run_problems = detail.pop("count_problems")
        else:
            with HostSpeed() as speed:
                loop = timed_loop(cli, workload, args.seed, args.seconds, tmp)
                setups, setup_windows = setup_times(workload.preset)
            failures = loop.pop("failures")
            walls = loop["walls"]
            ops = [speed.scaled(w, *win) for w, win in zip(walls, loop.pop("windows"))]
            setups_scaled = [speed.scaled(s, *win) for s, win in zip(setups, setup_windows)]
            metrics = {
                "setup_s": statistics.median(setups_scaled),
                "op_s": statistics.median(ops),
                "peak_rss_mb": max(loop["rss_kb"].values()) * 1024 / 1e6,
            }
            spans, run_problems = [], []
            detail = {**loop, "op_scaled_s": ops, "op_count": len(walls), "op_max_s": max(ops),
                      "op_wall_median_s": statistics.median(walls),
                      "setup_wall_s": setups, "setup_scaled_s": setups_scaled,
                      "host_speed_samples": len(speed.samples)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    failed = sum(1 for f in failures if f)
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "phase_offset": workload.phase_offset(args.seed) if workload.kind == "sweep" else None,
        "argv": workload.argv(args.seed, Path("<out>")),
        "trace": args.trace,
        "error_rate": failed / len(failures),
        "problems": [p for f in failures for p in f] + run_problems,
        "environment": env,
    })
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "spans": spans}) + "\n")
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} are not "
                         "both measured and declared in BENCHMARK.json")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
