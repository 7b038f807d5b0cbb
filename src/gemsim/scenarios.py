"""Experiment protocols built as ready-to-run scenario configurations.

Two families are provided.  The time-domain family stores a probe pulse,
flips the gradient so the echo emerges after a chosen storage time, and
injects a steering pulse on top of the emerging echo; the relative phase
theta of the two arms is the swept variable.  The frequency-domain family
drives one coherence with two simultaneous pulse/coupling pairs on
separate channels and sweeps the relative coupling phase phi.

Unit conventions and timing
---------------------------
The gradient detuning ramps as eta * z on z in [0, L], so the two-photon
resonance sits mid-cell for a pulse whose carrier is eta*L/2 plus the
light shift.  A probe written around t0 rephases at te1 = t0 + tau1 when
the gradient flips at t0 + tau1/2; the echo carrier comes back reflected
about the line centre, which the steering construction must match.  The
steering envelope is the time-reversed, conjugated copy of the bare echo
mirrored about the kinematic rephasing time; this is the write-mode
matched to the event and keeps the destructive phase at theta = pi.

Grids: the time step is dt_factor times the tightest bound of
model.dt_bounds at the family's phase-independent peak coupling and
beat-note frequency, so every phase of a family shares one grid.

Balancing: with the steering scaled so its transmitted energy equals the
bare echo energy, the first-output fringe is balanced at any splitting;
the second output's contrast peaks when the event splits 50/50, i.e. at
an event depth beta2 = ln2 / (2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import oracle
from .errors import GemSimError, SeparationTooSmall
from .model import (
    CouplingChannel,
    CouplingModulation,
    CouplingSchedule,
    CouplingSegment,
    EnsembleParams,
    GaussianPulse,
    GradientProfile,
    GradientSegment,
    GridSpec,
    SampledPulse,
    ScenarioConfig,
    SimulationRecord,
    dt_bounds,
    validate,
)
from .solver import run

__all__ = [
    "TimeDomainParams",
    "TimeDomainFamily",
    "FrequencyDomainParams",
    "FrequencyDomainFamily",
    "build_time_domain",
    "build_frequency_domain",
    "run_scenario",
    "preset_family",
    "PRESETS",
]


def run_scenario(config: ScenarioConfig) -> SimulationRecord:
    """Validate and run one scenario for its energies and traces; solver errors propagate."""
    report = validate(config)
    if not report.ok:
        raise GemSimError(f"invalid scenario: {report}")
    return run(config, stride=0)


def _grid_for(t_end: float, ens: EnsembleParams, eta: float, omega_peak: float,
              nz: int, dt_factor: float, mod_freq: float = 0.0) -> GridSpec:
    """Grid whose step is dt_factor times the tightest dt bound."""
    dt = dt_factor * min(dt_bounds(ens, abs(eta), omega_peak, mod_freq).values())
    return GridSpec(nz=nz, nt=int(math.ceil(t_end / dt)), t_end=t_end)


# ---------------------------------------------------------------------------
# time-domain interferometer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeDomainParams:
    """Knobs of the stored-pulse/steering-pulse interferometer."""

    g: float = 1.0
    n_density: float = 40.0
    delta: float = 1.0
    gamma0: float = 0.0
    gamma_e: float = 1.0
    length: float = 1.0
    eta: float = 40.0
    coupling_ratio: float = 0.75       # |Omega_c|/Delta during write and final read
    interference_factor: Optional[float] = None  # event-era magnitude factor; None = balanced
    probe_center: float = 4.0
    probe_sigma: float = 1.0
    probe_amplitude: float = 1.0
    probe_truncate: float = 4.0
    tau1: float = 10.0
    tau2: float = 10.0
    theta: float = math.pi
    phase_knob: str = "steering"       # "steering" | "coupling"
    steering_scale: Optional[float] = None  # None = arm-matched; else input-amplitude ratio
    mode_mismatch: float = 1.0
    nz: int = 512
    dt_factor: float = 0.8
    metadata: dict = field(default_factory=dict)

    @property
    def omega_write(self) -> float:
        return self.coupling_ratio * abs(self.delta)

    @property
    def beta_write(self) -> float:
        return (self.g * self.n_density / self.eta) * self.coupling_ratio**2

    @property
    def event_factor(self) -> float:
        if self.interference_factor is not None:
            return self.interference_factor
        beta2 = oracle.balance_coupling(1.0, 0.0, 0.0, 1.0, 1.0)  # R2 = T2
        return math.sqrt(beta2 / self.beta_write)


@dataclass
class _TdCalibration:
    steer_t: np.ndarray
    steer_values: np.ndarray  # raw echo-matched copy, unit theta, unscaled
    u_echo: float
    u_trans_raw: float
    u_probe: float
    te1: float


class TimeDomainFamily:
    """Scenario factory for one parameter set, sweepable in phase/power/overlap."""

    def __init__(self, params: TimeDomainParams):
        p = params
        self.params = p
        w_half = (p.probe_truncate + 1.0) * p.probe_sigma
        probe_end = p.probe_center + p.probe_truncate * p.probe_sigma
        self.te1 = p.probe_center + p.tau1
        self.te2 = self.te1 + p.tau2
        self.tf1 = p.probe_center + p.tau1 / 2.0
        self.tf2 = self.te1 + p.tau2 / 2.0
        if self.tf1 < probe_end + 0.05:
            raise ValueError("tau1 too short: gradient flips before the probe has entered")
        e1 = (max(self.te1 - w_half, probe_end + 0.3), min(self.te1 + w_half, self.tf2 - 0.1))
        if e1[0] >= e1[1] - p.probe_sigma:
            raise ValueError("tau1 too short: no room for a first-echo window")
        t_end = self.te2 + w_half + 0.2
        e2 = (max(self.te2 - w_half, self.tf2 + 0.1), t_end - 0.05)
        self.windows = {"input": (0.0, probe_end + 0.2), "E1": e1, "E2": e2}
        self.t_end = t_end
        self._calibration: Optional[_TdCalibration] = None

    # -- construction -------------------------------------------------------

    def ensemble(self) -> EnsembleParams:
        p = self.params
        return EnsembleParams(
            g=p.g, n_density=p.n_density, delta=p.delta,
            gamma0=p.gamma0, gamma_e=p.gamma_e, length=p.length,
        )

    def _coupling(self, power_factor: float, coupling_phase: float) -> CouplingSchedule:
        p = self.params
        om = p.omega_write
        event = p.event_factor * math.sqrt(power_factor) * om
        e1 = self.windows["E1"]
        segments = (
            CouplingSegment(0.0, om),
            CouplingSegment(e1[0], event * complex(math.cos(coupling_phase), math.sin(coupling_phase))),
            CouplingSegment(e1[1], om),
        )
        return CouplingSchedule((CouplingChannel(segments),))

    def _probe(self) -> GaussianPulse:
        p = self.params
        carrier = p.eta * p.length / 2.0 + p.omega_write**2 / p.delta  # line centre plus light shift
        return GaussianPulse(
            t0=p.probe_center, sigma=p.probe_sigma, amplitude=p.probe_amplitude,
            carrier=carrier, truncate=p.probe_truncate, label="probe", channel=0,
        )

    def _grid(self, power_factor: float = 1.0) -> GridSpec:
        p = self.params
        omega_peak = p.omega_write * max(1.0, p.event_factor * math.sqrt(power_factor))
        return _grid_for(self.t_end, self.ensemble(), p.eta, omega_peak, p.nz, p.dt_factor)

    def _assemble(
        self,
        pulses: tuple,
        power_factor: float = 1.0,
        coupling_phase: float = 0.0,
        mu: float | None = None,
    ) -> ScenarioConfig:
        p = self.params
        mu = p.mode_mismatch if mu is None else mu
        return ScenarioConfig(
            ensemble=self.ensemble(),
            gradient=GradientProfile((
                GradientSegment(0.0, p.eta),
                GradientSegment(self.tf1, -p.eta),
                GradientSegment(self.tf2, p.eta),
            )),
            coupling=self._coupling(power_factor, coupling_phase),
            pulses=pulses,
            grid=self._grid(power_factor),
            windows=dict(self.windows),
            mode_mismatch=mu,
            mismatch_time=self.windows["E1"][0] if mu != 1.0 else None,
            metadata=dict(p.metadata),
        )

    def bare_config(self, power_factor: float = 1.0) -> ScenarioConfig:
        """Probe only; used for dry-run calibration and two-echo storage."""
        return self._assemble((self._probe(),), power_factor)

    # -- calibration --------------------------------------------------------

    def calibrate(self) -> _TdCalibration:
        """Dry runs fixing the steering waveform and the arm-matching scale."""
        if self._calibration is not None:
            return self._calibration
        bare = run(self.bare_config(), stride=0)
        e1 = self.windows["E1"]
        mask = (bare.t >= e1[0]) & (bare.t <= e1[1])
        t_echo = bare.t[mask]
        v_echo = bare.boundary_out[mask, 0]
        u_echo = bare.window_energies["E1"]
        tt = np.linspace(t_echo[0], t_echo[-1], len(t_echo))

        def resample(times: np.ndarray) -> np.ndarray:
            return np.interp(times, t_echo, v_echo.real) + 1j * np.interp(times, t_echo, v_echo.imag)

        # the steering envelope is the time-reversed, conjugated echo mirrored
        # about te1; theta = 0 means "in phase with the emerging echo at its
        # centre", so its constant phase is re-anchored to the echo's own
        vals = np.conj(resample(2.0 * self.te1 - tt))
        v_ref = complex(resample(np.array([self.te1]))[0])
        v_cen = complex(np.interp(self.te1, tt, vals.real) + 1j * np.interp(self.te1, tt, vals.imag))
        if abs(v_ref) != 0.0 and abs(v_cen) != 0.0:
            vals = vals * ((v_ref / abs(v_ref)) * (abs(v_cen) / v_cen))

        steer_only = self._assemble((SampledPulse(t=tt, values=vals, label="steering", channel=0),))
        u_trans_raw = run(steer_only, stride=0).window_energies["E1"]
        u_probe = self._probe().energy()
        self._calibration = _TdCalibration(
            steer_t=tt, steer_values=vals, u_echo=u_echo,
            u_trans_raw=u_trans_raw, u_probe=u_probe, te1=self.te1,
        )
        return self._calibration

    def _steering_pulse(self, theta: float, scale: float) -> SampledPulse:
        cal = self.calibrate()
        phase = complex(math.cos(theta), math.sin(theta))
        return SampledPulse(
            t=cal.steer_t, values=cal.steer_values * (scale * phase), label="steering", channel=0
        )

    def steering_scale(self) -> float:
        """Amplitude factor applied to the raw echo copy."""
        cal = self.calibrate()
        if self.params.steering_scale is None:
            if cal.u_trans_raw == 0.0:
                raise GemSimError("steering calibration found no transmitted energy")
            return math.sqrt(cal.u_echo / cal.u_trans_raw)
        u_raw = float(np.trapezoid(np.abs(cal.steer_values) ** 2, cal.steer_t))
        if u_raw == 0.0:
            raise GemSimError("degenerate steering waveform")
        return self.params.steering_scale * math.sqrt(cal.u_probe / u_raw)

    # -- public family surface ----------------------------------------------

    def config_for_phase(self, phase: float, power_factor: float = 1.0,
                         mu: float | None = None) -> ScenarioConfig:
        if self.params.phase_knob == "coupling":
            steer = self._steering_pulse(0.0, self.steering_scale())
            return self._assemble((self._probe(), steer), power_factor, coupling_phase=phase, mu=mu)
        steer = self._steering_pulse(phase, self.steering_scale())
        return self._assemble((self._probe(), steer), power_factor, mu=mu)

    def phase_rows(self) -> tuple[int, ...] | None:
        """Pulse rows that carry the swept phase as a factor e^{i phase}.

        With the steering knob that is the steering pulse; with the coupling
        knob the phase sits on the event-era coupling, not on a pulse, so
        there is no such row (None).
        """
        return None if self.params.phase_knob == "coupling" else (1,)

    def with_params(self, **changes) -> "TimeDomainFamily":
        return TimeDomainFamily(replace(self.params, **changes))

    def balanced(self) -> "TimeDomainFamily":
        """Event depth set for a 50/50 split, steering arm-matched."""
        return self.with_params(interference_factor=None, steering_scale=None)

    def refine_balance(self, span: float = 0.12, n_points: int = 7) -> "TimeDomainFamily":
        """One-dimensional search of the event factor minimising E1(theta=pi).

        Starts from the analytic balance and scans a bracket on the solver
        output; returns a family pinned to the best factor found.
        """
        base = self.params.event_factor
        factors = base * (1.0 + span * np.linspace(-1.0, 1.0, n_points))
        best_f, best_e = base, math.inf
        for f in factors:
            fam = self.with_params(interference_factor=float(f))
            rec = run(fam.config_for_phase(math.pi), stride=0)
            if rec.window_energies["E1"] < best_e:
                best_e = rec.window_energies["E1"]
                best_f = float(f)
        return self.with_params(interference_factor=best_f)


def build_time_domain(params: TimeDomainParams | None = None) -> ScenarioConfig:
    """Full interference scenario at the parameter set's own theta."""
    family = TimeDomainFamily(params or TimeDomainParams())
    return family.config_for_phase(family.params.theta)


# ---------------------------------------------------------------------------
# frequency-domain (two-colour) interferometer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyDomainParams:
    """Knobs of the double-Raman interferometer."""

    g: float = 1.0
    n_density: float = 40.0
    delta: float = 1.0
    gamma0: float = 0.0
    gamma_e: float = 1.0
    length: float = 1.0
    eta: float = 1.885                 # eta*L/(2 pi) ~ 0.3 MHz memory bandwidth
    coupling_ratio: float = 0.25
    separation_mhz: float = 1.0        # channel spacing, must exceed the bandwidth
    pulse_center: float = 6.0
    pulse_sigma: float = 1.2
    pulse_truncate: float = 4.0
    probe_amplitude: float = 1.0
    steering_amplitude: float = 1.0
    tau: float = 10.0
    phi: float = math.pi
    beat_note: bool = False            # single-channel cross-validation mode
    nz: int = 256
    dt_factor: float = 0.8
    metadata: dict = field(default_factory=dict)

    @property
    def omega(self) -> float:
        return self.coupling_ratio * abs(self.delta)

    @property
    def bandwidth_mhz(self) -> float:
        return self.eta * self.length / (2.0 * math.pi)


class FrequencyDomainFamily:
    def __init__(self, params: FrequencyDomainParams):
        p = params
        self.params = p
        if not p.beat_note and p.separation_mhz <= p.bandwidth_mhz:
            raise SeparationTooSmall(
                f"channel separation {p.separation_mhz} MHz must exceed the memory "
                f"bandwidth estimate eta*L/2pi = {p.bandwidth_mhz:.3g} MHz"
            )
        pulse_end = p.pulse_center + p.pulse_truncate * p.pulse_sigma
        self.tf = p.pulse_center + p.tau / 2.0
        self.te = p.pulse_center + p.tau
        if self.tf < pulse_end + 0.05:
            raise ValueError("tau too short: gradient flips before the pulses have entered")
        w_half = (p.pulse_truncate + 1.0) * p.pulse_sigma
        t_end = self.te + w_half + 0.2
        self.windows = {
            "E1": (0.0, pulse_end + 0.2),
            "E2": (max(self.te - w_half, pulse_end + 0.4), t_end - 0.05),
        }
        self.t_end = t_end

    def config_for_phase(self, phase: float) -> ScenarioConfig:
        p = self.params
        ens = EnsembleParams(g=p.g, n_density=p.n_density, delta=p.delta,
                             gamma0=p.gamma0, gamma_e=p.gamma_e, length=p.length)
        steering_on = p.steering_amplitude != 0
        om = p.omega
        n_active = (1 if not steering_on else 2)
        carrier = p.eta * p.length / 2.0 + n_active * om**2 / p.delta  # line centre plus light shift
        sep = 2.0 * math.pi * p.separation_mhz
        phase_c = complex(math.cos(phase), math.sin(phase))

        if p.beat_note:
            # one optical channel: steering rides at +sep on the field and the
            # second coupling tone at -sep, so their pairing is stationary
            channels = (
                CouplingChannel(
                    segments=(CouplingSegment(0.0, om),),
                    modulation=CouplingModulation(amplitude=phase_c, freq=-sep)
                    if steering_on else None,
                ),
            )
            pulses = [
                GaussianPulse(t0=p.pulse_center, sigma=p.pulse_sigma, amplitude=p.probe_amplitude,
                              carrier=carrier, truncate=p.pulse_truncate, label="probe", channel=0),
            ]
            if steering_on:
                pulses.append(
                    GaussianPulse(t0=p.pulse_center, sigma=p.pulse_sigma,
                                  amplitude=p.steering_amplitude, carrier=carrier - sep,
                                  truncate=p.pulse_truncate, label="steering", channel=0)
                )
        else:
            # two exactly Raman-resonant channels; a switched-off steering arm
            # also switches off its coupling so the single-channel limit is exact
            ch1_omega = om * phase_c if steering_on else 0.0
            channels = (
                CouplingChannel(segments=(CouplingSegment(0.0, om),)),
                CouplingChannel(segments=(CouplingSegment(0.0, ch1_omega),), raman_offset=sep),
            )
            pulses = [
                GaussianPulse(t0=p.pulse_center, sigma=p.pulse_sigma, amplitude=p.probe_amplitude,
                              carrier=carrier, truncate=p.pulse_truncate, label="probe", channel=0),
                GaussianPulse(t0=p.pulse_center, sigma=p.pulse_sigma, amplitude=p.steering_amplitude,
                              carrier=carrier, truncate=p.pulse_truncate, label="steering", channel=1),
            ]

        omega_peak = om * (2.0 if (p.beat_note and steering_on) else 1.0)
        grid = _grid_for(self.t_end, ens, p.eta, omega_peak, p.nz, p.dt_factor,
                         mod_freq=sep if p.beat_note else 0.0)
        return ScenarioConfig(
            ensemble=ens,
            gradient=GradientProfile((GradientSegment(0.0, p.eta), GradientSegment(self.tf, -p.eta))),
            coupling=CouplingSchedule(channels),
            pulses=tuple(pulses),
            grid=grid,
            windows=dict(self.windows),
            metadata=dict(p.metadata),
        )

    def phase_rows(self) -> tuple[int, ...] | None:
        """Pulse rows that carry the swept phase as a factor e^{i phase}.

        The phase of coupling channel 1 is a gauge: |Omega| does not depend on
        it, and rotating channel 1's field by e^{-i phi} moves it onto the
        steering pulse, which leaves every channel's output energy unchanged.
        The beat-note mode puts the phase on a coupling modulation that
        changes |Omega(t)|, so it has no such row (None).
        """
        return None if self.params.beat_note else (1,)

    def with_params(self, **changes) -> "FrequencyDomainFamily":
        return FrequencyDomainFamily(replace(self.params, **changes))


def build_frequency_domain(params: FrequencyDomainParams | None = None) -> ScenarioConfig:
    params = params or FrequencyDomainParams()
    return FrequencyDomainFamily(params).config_for_phase(params.phi)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _fig2_family(**overrides) -> TimeDomainFamily:
    """Compact demonstration: deep write (beta=0.225), event split ~50/50.

    eta = 100 makes the 0.7x event-era coupling land on the balanced
    splitting (0.7^2 * 0.225 = ln2/2pi to three digits).
    """
    defaults = dict(
        eta=100.0, coupling_ratio=0.75, interference_factor=0.7,
        probe_center=1.4, probe_sigma=0.3, tau1=3.2, tau2=3.4,
        theta=math.pi, nz=512,
        metadata={"description": "compact stored-pulse interference demo"},
    )
    defaults.update(overrides)
    return TimeDomainFamily(TimeDomainParams(**defaults))


def _time_domain_family(**overrides) -> TimeDomainFamily:
    defaults = dict(
        eta=40.0, coupling_ratio=0.75, interference_factor=None,
        probe_center=4.0, probe_sigma=1.0, tau1=10.0, tau2=10.0,
        theta=math.pi, nz=512,
        metadata={
            "description": "4 us probe stored 10 us, steered echo, 10 us second recall",
            "coupling_power_mw": 330.0,  # descriptive only
        },
    )
    defaults.update(overrides)
    return TimeDomainFamily(TimeDomainParams(**defaults))


def _freq_domain_family(**overrides) -> FrequencyDomainFamily:
    defaults = dict(
        metadata={
            "description": "two-colour simultaneous storage, 10 us recall",
            "coupling_power_mw": 160.0,  # per coupling, descriptive only
        },
    )
    defaults.update(overrides)
    return FrequencyDomainFamily(FrequencyDomainParams(**defaults))


PRESETS = {
    "fig2": _fig2_family,
    "time-domain": _time_domain_family,
    "freq-domain": _freq_domain_family,
}


def preset_family(name: str, **overrides):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](**overrides)
