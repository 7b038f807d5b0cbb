"""Fringe fitting, visibilities and sweep curves from simulation records.

The swept variable is always a known phase, so the sinusoid fit is linear
least squares on the regressors (1, cos phi, sin phi) at unit frequency:
I(phi) = A + B cos(phi - phi0).  Visibility is B/A, which equals
(Imax - Imin)/(Imax + Imin) for an exact sinusoid and is invariant under
a global energy rescale of the dataset.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFit, EmptyWindow
from .model import ScenarioConfig
from .solver import run

__all__ = [
    "FringeDataset",
    "pulse_energy",
    "fit_fringe",
    "fringe_scan",
    "coupling_sweep",
    "mismatch_curve",
    "find_mu_for_visibility",
    "write_fringe_csv",
]


def pulse_energy(t: np.ndarray, trace: np.ndarray, window: tuple[float, float]) -> float:
    """Integral of |trace|^2 over the window, trapezoidal rule on the grid."""
    t = np.asarray(t, dtype=float)
    trace = np.asarray(trace)
    w0, w1 = window
    if w0 < t[0] or w1 > t[-1] or w0 >= w1:
        raise EmptyWindow(f"window {window} not inside the trace span ({t[0]}, {t[-1]})")
    mask = (t >= w0) & (t <= w1)
    if mask.sum() < 2:
        raise EmptyWindow(f"window {window} contains fewer than two samples")
    power = np.abs(trace[mask]) ** 2
    return float(np.trapezoid(power, t[mask]))


@dataclass
class FringeDataset:
    """Phase/energy samples of one output port with their sinusoid fit."""

    port: str
    phases: np.ndarray
    energies: np.ndarray
    offset: float      # A
    amplitude: float   # B
    phi0: float

    @property
    def visibility(self) -> float:
        return self.amplitude / self.offset

    def model(self, phases: np.ndarray) -> np.ndarray:
        return self.offset + self.amplitude * np.cos(np.asarray(phases) - self.phi0)

    def residual_rms(self) -> float:
        return float(np.sqrt(np.mean((self.model(self.phases) - self.energies) ** 2)))


def fit_fringe(phases: Sequence[float], energies: Sequence[float], port: str = "E1") -> FringeDataset:
    """Least-squares fit of A + B cos(phi - phi0) at unit phase frequency."""
    phases = np.asarray(phases, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(np.unique(np.mod(phases, 2.0 * math.pi))) < 3:
        raise DegenerateFit("need at least three distinct phases")
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    if np.linalg.matrix_rank(design) < 3:
        raise DegenerateFit("rank-deficient design matrix")
    coef, *_ = np.linalg.lstsq(design, energies, rcond=None)
    offset, c, s = (float(v) for v in coef)
    amplitude = math.hypot(c, s)
    if offset <= 0.0:
        raise DegenerateFit(f"non-positive fringe offset A={offset:.3g}")
    if amplitude > offset * (1.0 + 1e-9):
        raise DegenerateFit(f"fringe amplitude B={amplitude:.3g} exceeds offset A={offset:.3g}")
    amplitude = min(amplitude, offset)
    phi0 = math.atan2(s, c) if amplitude > 0 else 0.0
    return FringeDataset(
        port=port, phases=phases, energies=energies,
        offset=offset, amplitude=amplitude, phi0=phi0,
    )


PORTS = ("E1", "E2")


def _check_port(port: str) -> None:
    if port not in PORTS:
        raise ValueError("port must be 'E1' or 'E2'")


def _solve(config: ScenarioConfig, per_pulse: bool) -> dict:
    """Window energies of a direct run, or window Gram matrices of a per-pulse run."""
    record = run(config, stride=0, per_pulse=per_pulse)
    return record.window_grams() if per_pulse else record.window_energies


def _solve_all(
    configs: Sequence[ScenarioConfig],
    per_pulse: bool,
    workers: int | None,
) -> list[dict]:
    n = len(configs)
    if workers and workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            return list(pool.map(_solve, configs, [per_pulse] * n))
    return [_solve(c, per_pulse) for c in configs]


def _sweep_energies(
    family,
    phases: Sequence[float],
    variants: Sequence[dict],
    workers: int | None,
) -> list[list[dict[str, float]]]:
    """Window energies per variant (config_for_phase keywords) and per phase.

    When the family's phase is a factor e^{i phase} on some pulse rows, each
    variant costs one per-pulse solve at phase 0 and every phase's energies
    are w^H G w with w_r = e^{i phase} on those rows and 1 elsewhere.
    Otherwise every (variant, phase) pair is run directly.  Independent
    solves share a process pool of `workers`.
    """
    rows = family.phase_rows()
    if rows is None:
        configs = [family.config_for_phase(p, **kw) for kw in variants for p in phases]
        flat = _solve_all(configs, False, workers)
        n = len(phases)
        return [flat[i * n:(i + 1) * n] for i in range(len(variants))]
    configs = [family.config_for_phase(0.0, **kw) for kw in variants]
    out = []
    for config, grams in zip(configs, _solve_all(configs, True, workers)):
        weights = np.ones(len(config.pulses), dtype=complex)
        energies = []
        for p in phases:
            weights[list(rows)] = complex(math.cos(p), math.sin(p))
            energies.append({
                name: float(np.real(np.conj(weights) @ gram @ weights))
                for name, gram in grams.items()
            })
        out.append(energies)
    return out


def _fit_ports(energies: Sequence[dict], phases: list[float],
               ports: Sequence[str]) -> dict[str, FringeDataset]:
    return {port: fit_fringe(phases, [e[port] for e in energies], port=port) for port in ports}


def _scan(family, phases, ports, workers) -> dict[str, FringeDataset]:
    phases = list(phases)
    if len(phases) < 5:
        raise DegenerateFit("need at least five phase samples")
    for port in ports:
        _check_port(port)
    [energies] = _sweep_energies(family, phases, [{}], workers)
    return _fit_ports(energies, phases, ports)


def fringe_scan(
    family,
    phases: Sequence[float],
    port: str = "E1",
    workers: int | None = None,
) -> FringeDataset:
    """Window energies at every phase and the port's fringe fit.

    A family whose phase is a pulse-row factor needs one per-pulse solve
    for all phases; otherwise each phase is one run, spread over `workers`.
    """
    return _scan(family, phases, (port,), workers)[port]


def scan_both_ports(
    family,
    phases: Sequence[float],
    workers: int | None = None,
) -> dict[str, FringeDataset]:
    """Phase scan shared by both output ports (one solve set for both)."""
    return _scan(family, phases, PORTS, workers)


def _default_phases(n: int = 12) -> list[float]:
    return [2.0 * math.pi * i / n for i in range(n)]


def coupling_sweep(
    family,
    relative_powers: Sequence[float],
    phases: Sequence[float] | None = None,
    workers: int | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Visibility of both ports vs event coupling power.

    Powers are normalised to the family's balanced-suppression power
    (power 1.0 reproduces the family's own event coupling).
    """
    if any(p <= 0 for p in relative_powers):
        raise ValueError("relative powers must be positive")
    phases = list(phases) if phases is not None else _default_phases()
    variants = [{"power_factor": power} for power in relative_powers]
    curves: dict[str, list[tuple[float, float]]] = {port: [] for port in PORTS}
    for power, energies in zip(relative_powers,
                               _sweep_energies(family, phases, variants, workers)):
        for port, ds in _fit_ports(energies, phases, PORTS).items():
            curves[port].append((float(power), ds.visibility))
    return curves


def mismatch_curve(
    family,
    mus: Sequence[float],
    port: str = "E1",
    phases: Sequence[float] | None = None,
    workers: int | None = None,
) -> list[tuple[float, float]]:
    """Visibility of one port vs the mode-overlap factor mu."""
    if any(not 0.0 <= m <= 1.0 for m in mus):
        raise ValueError("mu values must lie in [0, 1]")
    _check_port(port)
    phases = list(phases) if phases is not None else _default_phases()
    variants = [{"mu": mu} for mu in mus if mu != 0.0]
    sweeps = iter(_sweep_energies(family, phases, variants, workers))
    curve = []
    for mu in mus:
        if mu == 0.0:
            curve.append((0.0, 0.0))  # no overlap: the fringe amplitude vanishes
            continue
        energies = [e[port] for e in next(sweeps)]
        curve.append((float(mu), fit_fringe(phases, energies, port=port).visibility))
    return curve


def find_mu_for_visibility(
    family,
    target: float,
    bracket: tuple[float, float] = (0.15, 0.95),
    phases: Sequence[float] | None = None,
    workers: int | None = None,
    xtol: float = 1e-3,
) -> float:
    """Invert visibility(mu) = target for the port-E1 fringe by root finding."""
    from scipy.optimize import brentq

    phases = list(phases) if phases is not None else _default_phases()

    def objective(mu: float) -> float:
        [energies] = _sweep_energies(family, phases, [{"mu": mu}], workers)
        return fit_fringe(phases, [e["E1"] for e in energies]).visibility - target

    return float(brentq(objective, bracket[0], bracket[1], xtol=xtol))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_fringe_csv(dataset: FringeDataset, csv_path, sidecar_path=None,
                     config_hash: str | None = None) -> None:
    """Samples as CSV plus a JSON sidecar with the fit parameters."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config_sha256={config_hash}\n")
        fh.write("phase,energy\n")
        for p, e in zip(dataset.phases, dataset.energies):
            fh.write(f"{float(p)!r},{float(e)!r}\n")
    if sidecar_path is not None:
        doc = {
            "config_sha256": config_hash,
            "port": dataset.port,
            "offset": dataset.offset,
            "amplitude": dataset.amplitude,
            "phi0": dataset.phi0,
            "visibility": dataset.visibility,
            "n_samples": int(len(dataset.phases)),
            "residual_rms": dataset.residual_rms(),
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
