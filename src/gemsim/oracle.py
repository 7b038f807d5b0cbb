"""Lumped beamsplitter model of the memory's read/write events.

Each gradient-recall crossing acts on the pair (stored coherence amplitude,
incoming optical amplitude) as a two-port splitter whose intensity
transmissivity is T(beta) = exp(-2 pi beta), with beta the effective
optical depth (g N / eta) (Omega_c / Delta)^2.  Cascading events with
exponential decay of the stored arm between them reproduces the energies
of the first and second recalled pulses in closed form, which makes this
module the independent oracle for the PDE solver.

Conventions (documented, fixed across the package):
  write      stores +sqrt(R) of the input; the leaked light is +sqrt(T).
  interfere  e_out   = sqrt(R) mu a + e^{i theta} sqrt(T) b
             stored' = sqrt(T) a - e^{i theta} sqrt(R) mu b
  read       an interfere event with no optical input.
The pi phase shift (minus sign) sits on the stored output port.  The mode
overlap mu multiplies only the amplitudes that convert between the optical
and the stored mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NoRoot, ZeroGradient
from .model import EnsembleParams

__all__ = [
    "BsEvent",
    "CascadeState",
    "effective_beta",
    "transmissivity",
    "reflectivity",
    "interfere",
    "write",
    "predict_record",
    "balance_coupling",
    "fringe_visibility",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BsEvent:
    """One beamsplitting event of the cascade."""

    kind: str  # "write" | "read" | "interfere"
    beta: float
    theta: float = 0.0  # relative phase, used by interfere events
    mu: float = 1.0  # mode overlap of the stored arm

    def __post_init__(self):
        if self.kind not in ("write", "read", "interfere"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")


@dataclass
class CascadeState:
    """Amplitudes emitted so far plus the residual stored coherence."""

    optical_out: list[complex] = field(default_factory=list)
    stored: complex = 0.0 + 0.0j

    def energies(self) -> list[float]:
        return [abs(a) ** 2 for a in self.optical_out]

    def stored_energy(self) -> float:
        return abs(self.stored) ** 2


def effective_beta(params: EnsembleParams, eta: float, omega_c: complex) -> float:
    """Effective optical depth (g N / eta) (Omega_c / Delta)^2, absolute values."""
    if eta == 0:
        raise ZeroGradient("effective optical depth undefined for eta = 0")
    if params.delta == 0:
        raise ValueError("Delta must be nonzero")
    return (params.g * params.n_density / abs(eta)) * (abs(omega_c) / abs(params.delta)) ** 2


def transmissivity(beta: float) -> float:
    """Intensity fraction leaking through one event, T = exp(-2 pi beta)."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return math.exp(-TWO_PI * beta)


def reflectivity(beta: float) -> float:
    """Intensity fraction exchanged with the stored mode, R = 1 - T exactly."""
    return 1.0 - transmissivity(beta)


def _scatter(
    a_stored: complex, b_in: complex, beta: float, theta: float, mu: float, r_sign: float
) -> tuple[complex, complex]:
    """One event: e_out = r_sign sqrt(R) mu a + e^{i theta} sqrt(T) b and
    stored' = sqrt(T) a - r_sign e^{i theta} sqrt(R) mu b."""
    t_amp = math.sqrt(transmissivity(beta))
    r_amp = math.sqrt(reflectivity(beta))
    phase = complex(math.cos(theta), math.sin(theta))
    e_out = r_sign * r_amp * mu * a_stored + phase * t_amp * b_in
    exchanged = phase * r_amp * mu * b_in
    # adding instead of negating keeps the signs of zero components
    stored = t_amp * a_stored - exchanged if r_sign > 0 else t_amp * a_stored + exchanged
    return e_out, stored


def interfere(
    a_stored: complex,
    b_in: complex,
    beta: float,
    theta: float = 0.0,
    mu: float = 1.0,
) -> tuple[complex, complex]:
    """Scatter (stored, optical input) through one recall-side event."""
    return _scatter(a_stored, b_in, beta, theta, mu, 1.0)


def write(
    a_stored: complex,
    b_in: complex,
    beta: float,
    theta: float = 0.0,
    mu: float = 1.0,
) -> tuple[complex, complex]:
    """Scatter through one write-side event: the input is stored with +sqrt(R)."""
    return _scatter(a_stored, b_in, beta, theta, mu, -1.0)


def predict_record(
    pulses: list[complex],
    events: list[BsEvent],
    gamma0: float = 0.0,
    hold_times: list[float] | None = None,
) -> CascadeState:
    """Fold a sequence of events over the stored amplitude.

    hold_times[i] is the wait between event i and event i+1; the stored
    amplitude decays by exp(-gamma0 * hold) across each wait.  Events of
    kind write/interfere consume the next entry of `pulses` as their
    optical input; read events take no input.
    """
    holds = list(hold_times or [])
    if holds and len(holds) != len(events) - 1:
        raise ValueError("need exactly one hold time between consecutive events")
    state = CascadeState()
    queue = list(pulses)
    for i, ev in enumerate(events):
        if ev.kind in ("write", "interfere"):
            if not queue:
                raise ValueError(f"event {i} ({ev.kind}) has no input pulse left")
            b_in = complex(queue.pop(0))
        else:
            b_in = 0.0 + 0.0j
        op = write if ev.kind == "write" else interfere
        e_out, stored = op(state.stored, b_in, ev.beta, ev.theta, ev.mu)
        state.optical_out.append(e_out)
        state.stored = stored
        if holds and i < len(events) - 1:
            state.stored *= math.exp(-gamma0 * holds[i])
    return state


def balance_coupling(r1: float, gamma0: float, tau: float, ep: float, es: float) -> float:
    """Solve sqrt(R1 R2) e^{-gamma0 tau} |Ep| = sqrt(T2) |Es| for beta2.

    With T2 = e^{-2 pi beta2} and R2 = 1 - T2 the balance is linear in T2, so
    beta2 = log1p(|Es|^2 / (R1 e^{-2 gamma0 tau} |Ep|^2)) / (2 pi).
    Raises NoRoot when either interferometer arm vanishes.
    """
    ep, es = abs(ep), abs(es)
    if es == 0:
        raise NoRoot("steering arm is zero; nothing to interfere")
    stored = r1 * math.exp(-2.0 * gamma0 * tau) * ep * ep
    if stored == 0:
        raise NoRoot("stored arm is zero for every beta2")
    if stored < 0:
        raise ValueError(f"R1 must be >= 0, got {r1}")
    return math.log1p(es * es / stored) / TWO_PI


def fringe_visibility(beta: float, a: float, b: float, mu: float = 1.0) -> float:
    """Predicted visibility of |e_out|^2 when theta is swept.

    Equals 2 sqrt(T R) mu |a||b| / (R mu^2 |a|^2 + T |b|^2); reaches 1 at
    balance with mu = 1 and decreases with any imbalance or overlap loss.
    """
    t_int = transmissivity(beta)
    r_int = reflectivity(beta)
    a, b = abs(a), abs(b)
    denom = r_int * mu**2 * a**2 + t_int * b**2
    if denom == 0:
        return 0.0
    return 2.0 * math.sqrt(t_int * r_int) * mu * a * b / denom
