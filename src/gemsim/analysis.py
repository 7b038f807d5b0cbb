"""Fringes, visibilities and sweep curves from simulation records.

A fringe is I(phi) = A + B cos(phi - phi0) in a known phase phi, with
visibility B/A: (Imax - Imin)/(Imax + Imin), invariant under a global
energy rescale.

A family names its basis rows (family.basis: one direct config per pulse,
a time-domain row continuing its calibration record where it can) and the
weights on them that carry the phase, the pulse scales and the mode overlap
mu (pulse_weights).  Every (phase, mu) energy is w^H G w on the rows' window
Gram matrices G, an exact sinusoid in phi: A, B and phi0 are read from G in
closed form, and V = balance x overlap, with balance
2 sqrt(|u|^2 G00 |v|^2 G11) / (|u|^2 G00 + |v|^2 G11) and overlap
|G01| / sqrt(G00 G11).  So the visibility curves and the mu that reaches a
visibility need no fit and no search.  Only the frequency-domain beat note,
whose phase changes |Omega(t)|, runs each phase directly (the phases batched
as the rows of one solve); its samples are fitted by linear least squares on
(1, cos phi, sin phi).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFit, GemSimError, NoRoot
from .model import ScenarioConfig, SimulationRecord
from .solver import run, run_many

__all__ = [
    "FringeDataset",
    "fit_fringe",
    "scan_both_ports",
    "coupling_sweep",
    "mismatch_curve",
    "find_mu_for_visibility",
    "write_fringe_csv",
]


@dataclass
class FringeDataset:
    """Phase/energy samples of one output port with their sinusoid A + B cos(phi - phi0)."""

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


def _solve(rows: Sequence[tuple[ScenarioConfig, SimulationRecord | None]]) -> list[SimulationRecord]:
    """The records of basis rows, in order: a row with a record continues it,
    and the others are solved together from zero coherence (solver.run_many)."""
    fresh = iter(run_many([config for config, start in rows if start is None]))
    return [next(fresh) if start is None else run(config, stride=0, start=start) for config, start in rows]


def _grams(records: Sequence[SimulationRecord]) -> dict[str, np.ndarray]:
    """Per-window Gram matrices of the boundary traces of rows on one time grid.

    G[r, s] = integral over the window of sum_j conj(b_rj) b_sj dt, so the
    window energy of the superposition sum_r w_r b_r is w^H G w.
    """
    t, traces = records[0].t, np.array([r.boundary_out for r in records])
    out = {}
    for name, (w0, w1) in records[0].config.windows.items():
        mask = (t >= w0) & (t <= w1)
        products = np.einsum("rkj,skj->rsk", np.conj(traces[:, mask]), traces[:, mask])
        out[name] = np.trapezoid(products, t[mask], axis=-1)
    return out


def _terms(gram: np.ndarray, w: np.ndarray) -> tuple[float, float, complex]:
    """|u|^2 G00, |v|^2 G11 and conj(u) v G01 of a window's Gram matrix and weights w = (u, v)."""
    u, v = w
    return (float(abs(u) ** 2 * gram[0, 0].real), float(abs(v) ** 2 * gram[1, 1].real),
            complex(np.conj(u) * v * gram[0, 1]))


def _sinusoid(gram: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """Offset A, amplitude B and phi0 of w(theta)^H G w(theta) = A + B cos(theta - phi0).

    w = (u, v) are the weights at phase 0; pulse_weights multiplies row 1 by
    e^{i theta}, so the energy is |u|^2 G00 + |v|^2 G11 + 2 Re(e^{i theta} conj(u) v G01).
    """
    a, b, k = _terms(gram, w)
    if a + b <= 0.0:
        raise DegenerateFit(f"non-positive fringe offset A={a + b:.3g}")
    return a + b, 2.0 * abs(k), math.atan2(-k.imag, k.real)


def _visibility(gram: np.ndarray, w: np.ndarray) -> float:
    offset, amplitude, _ = _sinusoid(gram, w)
    return amplitude / offset


def scan_both_ports(family, phases: Sequence[float]) -> dict[str, FringeDataset]:
    """Window energies of both output ports at every phase, with their sinusoids.

    A family whose phase is a weight on a basis row needs one basis solve for
    all phases, and A, B and phi0 follow from each window's Gram matrix.
    Otherwise (the beat note) each phase is a direct run, the phases sharing
    a time grid integrated as the rows of one state (solver.run_many), and
    each port is fitted.
    """
    phases = list(phases)
    if len(phases) < 5:
        raise DegenerateFit("need at least five phase samples")
    weights = family.pulse_weights(0.0)
    if weights is None:
        energies = [r.window_energies for r in run_many([family.config_for_phase(p) for p in phases])]
        return {port: fit_fringe(phases, [e[port] for e in energies], port=port) for port in PORTS}
    grams = _grams(_solve(family.basis()))
    sampled = [family.pulse_weights(p) for p in phases]  # energies w^H G w
    return {port: FringeDataset(port, np.asarray(phases, dtype=float),
                                np.array([np.real(np.conj(w[port]) @ grams[port] @ w[port]) for w in sampled]),
                                *_sinusoid(grams[port], weights[port]))
            for port in PORTS}


def coupling_sweep(family, relative_powers: Sequence[float]) -> dict[str, list[tuple[float, float]]]:
    """Visibility B/A of both ports vs event coupling power, from one basis per power.

    The rows of every power that shares a time grid are solved together
    (solver.run_many), up to solver.MAX_ROWS a solve.

    Powers are normalised to the family's balanced-suppression power
    (power 1.0 reproduces the family's own event coupling).
    """
    if any(p <= 0 for p in relative_powers):
        raise ValueError("relative powers must be positive")
    weights = family.pulse_weights(0.0)
    bases = [family.basis(power) for power in relative_powers]
    solved = iter(_solve([row for basis in bases for row in basis]))
    grams = [_grams([next(solved) for _ in basis]) for basis in bases]
    return {port: [(float(power), _visibility(g[port], weights[port])) for power, g in zip(relative_powers, grams)]
            for port in PORTS}


def _mu_basis(family) -> dict:
    """Window Gram matrices at mu = 1; mu enters as a weight on the probe row."""
    if not hasattr(family.params, "mode_mismatch"):
        raise GemSimError(f"{type(family).__name__} has no mode-overlap factor mu to sweep")
    return _grams(_solve(family.basis()))


def mismatch_curve(family, mus: Sequence[float]) -> list[tuple[float, float]]:
    """Visibility of port E1 vs the mode-overlap factor mu; every mu shares one basis solve."""
    if any(not 0.0 <= m <= 1.0 for m in mus):
        raise ValueError("mu values must lie in [0, 1]")
    gram = _mu_basis(family)["E1"]
    return [(float(mu), _visibility(gram, family.pulse_weights(0.0, mu)["E1"])) for mu in mus]


def find_mu_for_visibility(family, target: float) -> float:
    """The overlap mu in [0, 1] at which the port-E1 fringe has visibility `target`.

    With a = |u|^2 G00, b = |v|^2 G11 and k = |conj(u) v G01| from the E1
    Gram matrix and weights at mu = 1, V(mu) = 2 k mu / (a mu^2 + b), so mu
    is the smaller root of target a mu^2 - 2 k mu + target b = 0, taken in a
    form free of cancellation.  NoRoot when no mu in [0, 1] reaches it.
    """
    a, b, k = _terms(_mu_basis(family)["E1"], family.pulse_weights(0.0, 1.0)["E1"])
    k = abs(k)
    peak = 1.0 if b >= a else math.sqrt(b / a)  # V rises up to mu = sqrt(b / a)
    reach = 2.0 * k * peak / (a * peak**2 + b)
    if not 0.0 <= target <= reach:
        raise NoRoot(f"target visibility {target} is outside [0, {reach:.6g}], the range across mu in [0, 1]")
    return float(target * b / (k + math.sqrt(max(k * k - target * target * a * b, 0.0))))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_fringe_csv(dataset: FringeDataset, csv_path, sidecar_path, config_hash: str) -> None:
    """Samples as CSV plus a JSON sidecar with the sinusoid parameters."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_hash}\n")
        fh.write("phase,energy\n")
        for p, e in zip(dataset.phases, dataset.energies):
            fh.write(f"{float(p)!r},{float(e)!r}\n")
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
