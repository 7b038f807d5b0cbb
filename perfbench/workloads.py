"""The benchmark's workloads: CLI argument lists built from a seed, and output checks.

Each workload is one `gemsim` CLI invocation.  The seed only sets the phase
offset of the sweep; the program sees nothing but the generated `--range`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIMULATE_FILES = ("config.json", "boundary.csv", "snapshots.csv", "kspectra.csv",
                  "windows.json", "record.npz")
SWEEP_FILES = ("fringe_E1.csv", "fringe_E1.json", "fringe_E2.csv", "fringe_E2.json",
               "summary.json")
SWEEP_POINTS = 16

# Window energies of `simulate --preset fig2` at the seed commit.  The relative
# tolerance admits the ~1e-6 shift expected from one-sided control evaluation.
FIG2_E2 = 0.6088071375751772
FIG2_INPUT = 0.12933818660978558
ENERGY_RTOL = 1e-5
E1_SUPPRESSION = 1e-3          # E1 <= 1e-3 * E2 at theta = pi
MIN_VISIBILITY = 0.99
PHI0_TOLERANCE = 0.01          # phi0(E1) - phi0(E2) within this of pi


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "simulate" | "sweep"
    preset: str
    checked_ports: tuple[str, ...] = ()

    @property
    def files(self) -> tuple[str, ...]:
        return SIMULATE_FILES if self.kind == "simulate" else SWEEP_FILES

    def phase_offset(self, seed: int) -> float:
        return random.Random(seed).uniform(0.0, 2.0 * math.pi)

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        if self.kind == "simulate":
            return ["simulate", "--preset", self.preset, "--out", str(out)]
        o = self.phase_offset(seed)
        stop = o + 2.0 * math.pi * (SWEEP_POINTS - 1) / SWEEP_POINTS
        argv = ["sweep", "--kind", "phase", "--preset", self.preset,
                "--range", f"{o!r}:{stop!r}:{SWEEP_POINTS}", "--out", str(out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv

    def check(self, out: Path) -> list[str]:
        """Problems with one operation's outputs; empty when they are correct."""
        missing = [f for f in self.files if not (out / f).is_file()]
        if missing:
            return [f"missing output files: {missing}"]
        if self.kind == "simulate":
            return _check_fig2_energies(json.loads((out / "windows.json").read_text()))
        return _check_sweep(json.loads((out / "summary.json").read_text()), self.checked_ports)


def _check_fig2_energies(doc: dict) -> list[str]:
    energies = doc["window_energies"]
    problems = []
    if not math.isclose(energies["E2"], FIG2_E2, rel_tol=ENERGY_RTOL):
        problems.append(f"E2 = {energies['E2']!r}, expected {FIG2_E2!r}")
    if not math.isclose(energies["input"], FIG2_INPUT, rel_tol=ENERGY_RTOL):
        problems.append(f"input = {energies['input']!r}, expected {FIG2_INPUT!r}")
    if not energies["E1"] <= E1_SUPPRESSION * energies["E2"]:
        problems.append(f"E1 = {energies['E1']!r} not suppressed below {E1_SUPPRESSION} E2")
    return problems


def _check_sweep(summary: dict, ports: tuple[str, ...]) -> list[str]:
    problems = []
    for port in ports:
        vis = summary["ports"][port]["visibility"]
        if not vis >= MIN_VISIBILITY:
            problems.append(f"{port} visibility {vis!r} < {MIN_VISIBILITY}")
    # phi0 comes from atan2, so the difference is compared with pi modulo 2 pi
    dphi = summary["phi0_difference"]
    if not abs(math.remainder(dphi - math.pi, 2.0 * math.pi)) <= PHI0_TOLERANCE:
        problems.append(f"phi0_difference {dphi!r} not within {PHI0_TOLERANCE} of pi")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-fig2", "simulate", "fig2"),
        Workload("sweep-freq-phase16", "sweep", "freq-domain", checked_ports=("E2",)),
    )
}
