"""Domain types, units, grids and configuration for the memory simulator.

Scaled units are used throughout: time in microseconds, rates in rad/us,
and the medium occupying z in [0, L] with L in arbitrary length units.
Light propagation is treated in the co-moving frame (c=1 and transit time
absorbed), so boundary traces at z=L share the time axis of the input at
z=0.  All rate parameters only ever enter through the dimensionless groups
g*N*L/gamma_e, Omega_c/Delta and g*N/eta, which is what makes the scaling
harmless.
"""

from __future__ import annotations

import json
import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

__all__ = [
    "EnsembleParams",
    "GradientSegment",
    "GradientProfile",
    "CouplingSegment",
    "CouplingModulation",
    "CouplingChannel",
    "CouplingSchedule",
    "GaussianPulse",
    "SampledPulse",
    "GridSpec",
    "ScenarioConfig",
    "ValidationReport",
    "FieldState",
    "CoherenceState",
    "KSpectrumHistory",
    "SimulationRecord",
    "validate",
    "dt_bounds",
    "dt_violations",
    "dimensionless_od",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "config_sha256",
]

TIME_UNIT = "us"


# ---------------------------------------------------------------------------
# physical parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleParams:
    """Medium constants.

    g        atom-light coupling strength (rad/us per unit field)
    n_density  linear atomic density N (1/length, scaled)
    delta    one-photon Raman detuning Delta (rad/us), nonzero
    gamma0   spin-coherence decay rate (1/us)
    gamma_e  excited-state linewidth, used only to normalise g*N*L (1/us)
    length   medium length L (scaled length units)

    Note: the solver's working equations carry g on both the field and the
    coherence coupling terms, so the lumped beamsplitter correspondence
    beta = (g N / eta) (Omega_c / Delta)^2 holds on the g=1 normalisation
    (optical depth dialled through N).  All presets use g=1.
    """

    g: float = 1.0
    n_density: float = 40.0
    delta: float = 1.0
    gamma0: float = 0.0
    gamma_e: float = 1.0
    length: float = 1.0


def dimensionless_od(params: EnsembleParams) -> float:
    """Dimensionless optical depth g*N*L/gamma_e of the bare ensemble."""
    return params.g * params.n_density * params.length / params.gamma_e


# ---------------------------------------------------------------------------
# time-dependent controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientSegment:
    """One piecewise-constant era of the detuning gradient eta(t).

    A zero gradient is only legal when explicitly flagged as a hold.
    """

    t_start: float
    eta: float
    hold: bool = False


@dataclass(frozen=True)
class GradientProfile:
    segments: tuple[GradientSegment, ...]

    def eta_at(self, t: np.ndarray | float) -> np.ndarray | float:
        starts = np.array([s.t_start for s in self.segments])
        etas = np.array([s.eta for s in self.segments])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        return etas[idx]

    def switch_times(self) -> list[float]:
        return [s.t_start for s in self.segments[1:]]

    def max_abs_eta(self) -> float:
        return max((abs(s.eta) for s in self.segments), default=0.0)

    def cumulative_eta(self, t_end: float) -> float:
        """Spread of the running integral of eta over [0, t_end].

        Bounds the largest spatial frequency any stored coherence can reach,
        which is what the k-space diagnostics must resolve.
        """
        phi = 0.0
        lo = hi = 0.0
        for i, seg in enumerate(self.segments):
            t0 = min(seg.t_start, t_end)
            t1 = self.segments[i + 1].t_start if i + 1 < len(self.segments) else t_end
            t1 = min(max(t1, t0), t_end)
            phi += seg.eta * (t1 - t0)
            lo = min(lo, phi)
            hi = max(hi, phi)
        return hi - lo


@dataclass(frozen=True)
class CouplingSegment:
    """Constant complex Rabi frequency from t_start until the next segment."""

    t_start: float
    omega: complex


@dataclass(frozen=True)
class CouplingModulation:
    """Optional multiplicative beat note: omega(t) *= 1 + amplitude*exp(i*freq*t)."""

    amplitude: complex
    freq: float


@dataclass(frozen=True)
class CouplingChannel:
    segments: tuple[CouplingSegment, ...]
    raman_offset: float = 0.0  # two-photon frame offset, metadata for separation checks
    modulation: Optional[CouplingModulation] = None

    def omega_at(self, t: np.ndarray | float) -> np.ndarray | complex:
        starts = np.array([s.t_start for s in self.segments])
        omegas = np.array([s.omega for s in self.segments], dtype=complex)
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        out = omegas[idx]
        if self.modulation is not None:
            out = out * (1.0 + self.modulation.amplitude * np.exp(1j * self.modulation.freq * np.asarray(t)))
        return out

    def max_abs_omega(self) -> float:
        peak = max((abs(s.omega) for s in self.segments), default=0.0)
        if self.modulation is not None:
            peak *= 1.0 + abs(self.modulation.amplitude)
        return peak


@dataclass(frozen=True)
class CouplingSchedule:
    channels: tuple[CouplingChannel, ...]

    def max_abs_omega(self) -> float:
        return max((c.max_abs_omega() for c in self.channels), default=0.0)


# ---------------------------------------------------------------------------
# boundary pulses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian boundary envelope injected at z=0.

    amplitude(t) = amp * exp(-(t-t0)^2 / (2 sigma^2)) * exp(-i carrier (t-t0))
    truncated to |t-t0| <= truncate*sigma so the support is finite.  The
    carrier is the two-photon detuning of the pulse in the rotating frame;
    positive carrier means the pulse addresses the plane z = carrier/eta
    (up to the light-shift offset).
    """

    t0: float
    sigma: float
    amplitude: complex = 1.0 + 0.0j
    carrier: float = 0.0
    truncate: float = 4.0
    label: str = "probe"
    channel: int = 0

    def support(self) -> tuple[float, float]:
        return (self.t0 - self.truncate * self.sigma, self.t0 + self.truncate * self.sigma)

    def envelope(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        dtau = t - self.t0
        out = self.amplitude * np.exp(-0.5 * (dtau / self.sigma) ** 2 - 1j * self.carrier * dtau)
        return np.where(np.abs(dtau) <= self.truncate * self.sigma, out, 0.0)

    def energy(self) -> float:
        # ignores the truncation tail, fine at truncate >= 4
        return abs(self.amplitude) ** 2 * math.sqrt(math.pi) * self.sigma


@dataclass(frozen=True, eq=False)
class SampledPulse:
    """Boundary envelope given by complex samples, linearly interpolated."""

    t: np.ndarray
    values: np.ndarray
    label: str = "steering"
    channel: int = 0

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SampledPulse)
            and self.label == other.label
            and self.channel == other.channel
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.values, other.values)
        )

    def support(self) -> tuple[float, float]:
        return (float(self.t[0]), float(self.t[-1]))

    def envelope(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        re = np.interp(t, self.t, self.values.real, left=0.0, right=0.0)
        im = np.interp(t, self.t, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def energy(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, self.t))


Pulse = GaussianPulse | SampledPulse


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Numerical grid: nz spatial points on [0, L], nt nominal time steps."""

    nz: int
    nt: int
    t_end: float

    def __post_init__(self):
        for name in ("nz", "nt"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"grid {name} must be an integer, got {value!r}")

    @property
    def dt(self) -> float:
        return self.t_end / self.nt


@dataclass(frozen=True)
class ScenarioConfig:
    ensemble: EnsembleParams
    gradient: GradientProfile
    coupling: CouplingSchedule
    pulses: tuple[Pulse, ...]
    grid: GridSpec
    windows: dict[str, tuple[float, float]]
    mode_mismatch: float = 1.0
    mismatch_time: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_channels(self) -> int:
        return len(self.coupling.channels)


@dataclass
class ValidationReport:
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return "ok" + (f" ({len(self.warnings)} warning(s))" if self.warnings else "")
        return "; ".join(self.failures)


_NUMBER_KINDS = {"float": ("real number", numbers.Real), "complex": ("complex number", numbers.Complex),
                 "int": ("integer", numbers.Integral)}


def _number_failures(obj, where: str = "") -> list[str]:
    """A message per number field of obj, or of a dataclass it holds, that is not a finite number.

    A field's kind is its annotation: float, complex or int, with None allowed
    where Optional.  A complex counts as finite when its modulus does, so no
    later abs() can overflow.
    """
    out = []
    for f in fields(obj):
        value, name = getattr(obj, f.name), f"{where} {f.name}".lstrip()
        label, kind = _NUMBER_KINDS.get(f.type.removeprefix("Optional[").rstrip("]"), (None, None))
        if kind is None:
            for i, item in enumerate(value) if isinstance(value, tuple) else [(None, value)]:
                if is_dataclass(item):
                    out += _number_failures(item, name if i is None else f"{name} {i}")
        elif value is not None or not f.type.startswith("Optional"):
            try:
                ok = isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(abs(value))
            except OverflowError:
                ok = False
            if not ok:
                out.append(f"{name} must be a finite {label}, got {value!r}")
    return out


def _pulse_is_finite(p: Pulse) -> bool:
    try:
        if isinstance(p, GaussianPulse):
            return p.sigma > 0 and math.isfinite(p.energy())
        return bool(np.all(np.isfinite(p.t)) and np.all(np.isfinite(p.values)))
    except OverflowError:
        return False


def dt_bounds(ens: EnsembleParams, max_eta: float, max_omega: float,
              max_freq: float = 0.0) -> dict[str, float]:
    """The documented stability bounds on the time step, by name.

    gradient    dt < 0.1/(max|eta| L)
    coupling    dt < 0.1 Delta/(g N Omega_max)
    modulation  dt < 0.1/|f|, f the fastest coupling beat note
    A bound whose rate is zero is left out; with Delta = 0 the coupling bound is 0.
    """
    rates = {
        "gradient": max_eta * ens.length,
        "coupling": ens.g * ens.n_density * max_omega / abs(ens.delta) if ens.delta else math.inf,
        "modulation": max_freq,
    }
    return {name: 0.1 / rate for name, rate in rates.items() if rate > 0}


def dt_violations(config: ScenarioConfig) -> list[str]:
    """One message per dt bound that the config's grid step breaks."""
    dt = config.grid.dt
    freqs = [abs(ch.modulation.freq) for ch in config.coupling.channels if ch.modulation is not None]
    bounds = dt_bounds(config.ensemble, config.gradient.max_abs_eta(),
                       config.coupling.max_abs_omega(), max(freqs, default=0.0))
    return [f"grid: dt={dt:.3g} violates the {name} bound dt < {bound:.3g}"
            for name, bound in bounds.items() if dt >= bound]


def validate(config: ScenarioConfig) -> ValidationReport:
    """Check every declared invariant; report all violations by name.

    Number fields come first: if one is mistyped or not finite, only those are reported.
    """
    rep = ValidationReport(failures=_number_failures(config))
    if rep.failures:
        return rep
    ens = config.ensemble

    if ens.delta == 0:
        rep.failures.append("Delta must be nonzero")
    if ens.gamma0 < 0:
        rep.failures.append("gamma0 must be >= 0")
    if ens.gamma_e <= 0:
        rep.failures.append("gamma_e must be > 0")
    if ens.length <= 0:
        rep.failures.append("length must be > 0")
    if ens.g < 0 or ens.n_density < 0:
        rep.failures.append("g and N must be >= 0")
    if ens.gamma_e > 0 and not math.isfinite(dimensionless_od(ens)):
        rep.failures.append("dimensionless OD g*N*L/gamma_e must be finite")

    segs = config.gradient.segments
    if not segs:
        rep.failures.append("gradient must have at least one segment")
    else:
        if segs[0].t_start != 0.0:
            rep.failures.append("gradient: first segment must start at t=0")
        starts = [s.t_start for s in segs]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            rep.failures.append("gradient: segment start times must be strictly increasing")
        for i, s in enumerate(segs):
            if s.hold and s.eta != 0.0:
                rep.failures.append(f"gradient segment {i}: hold segments must have eta=0")
            if not s.hold and s.eta == 0.0:
                rep.failures.append(f"gradient segment {i}: eta must be nonzero unless flagged hold")

    if not config.coupling.channels:
        rep.failures.append("coupling: at least one channel required")
    for ci, ch in enumerate(config.coupling.channels):
        if not ch.segments:
            rep.failures.append(f"coupling channel {ci}: no segments")
            continue
        cstarts = [s.t_start for s in ch.segments]
        if cstarts[0] != 0.0:
            rep.failures.append(f"coupling channel {ci}: first segment must start at t=0")
        if any(b <= a for a, b in zip(cstarts, cstarts[1:])):
            rep.failures.append(f"coupling channel {ci}: segment start times must be strictly increasing")

    for pi, p in enumerate(config.pulses):
        if not (0 <= p.channel < max(1, config.n_channels)):
            rep.failures.append(f"pulse {pi} ({p.label}): channel index out of range")
        if not _pulse_is_finite(p):
            rep.failures.append(f"pulse {pi} ({p.label}): envelope must be finite with finite support")
        elif not math.isfinite(p.energy()):
            rep.failures.append(f"pulse {pi} ({p.label}): pulse energy must be finite")

    grid = config.grid
    if grid.nz < 16 or (grid.nz & (grid.nz - 1)) != 0:
        rep.failures.append("grid: nz must be a power of two >= 16")
    if grid.nt < 1 or grid.t_end <= 0:
        rep.failures.append("grid: nt >= 1 and t_end > 0 required")
    else:
        rep.failures += dt_violations(config)

    for name, (w0, w1) in config.windows.items():
        if not (0.0 <= w0 < w1 <= grid.t_end):
            rep.failures.append(f"window {name}: must satisfy 0 <= t_start < t_end <= grid t_end")
    names = list(config.windows)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            a0, a1 = config.windows[a]
            b0, b1 = config.windows[b]
            if max(a0, b0) < min(a1, b1):
                rep.failures.append(f"windows {a} and {b} overlap")

    if not (0.0 <= config.mode_mismatch <= 1.0):
        rep.failures.append("mode_mismatch must lie in [0, 1]")
    if config.mismatch_time is None:
        if config.mode_mismatch != 1.0:
            rep.failures.append("mode_mismatch != 1 needs a mismatch_time at which it applies")
    elif not (0.0 <= config.mismatch_time <= grid.t_end):
        rep.failures.append("mismatch_time must lie within [0, t_end]")

    # k-space diagnostics resolve spatial frequencies up to pi*(nz-1)/L
    if rep.ok and segs:
        k_reach = config.gradient.cumulative_eta(grid.t_end)
        k_nyq = math.pi * (grid.nz - 1) / ens.length
        if k_reach > 0.9 * k_nyq:
            rep.warnings.append(
                f"k-aliasing: gradient accumulates spatial frequency {k_reach:.3g} "
                f"close to the diagnostic Nyquist limit {k_nyq:.3g}; increase nz"
            )
    return rep


# ---------------------------------------------------------------------------
# states and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldState:
    """Complex optical envelopes over the z grid at one instant, per channel."""

    t: float
    fields: np.ndarray  # shape (n_channels, nz)


@dataclass(frozen=True, eq=False)
class CoherenceState:
    """Complex spin coherence over the z grid at one instant."""

    t: float
    sigma: np.ndarray  # shape (nz,)


@dataclass(eq=False)
class KSpectrumHistory:
    """Decimated |psi(k)| history on the diagnostic k grid."""

    t: np.ndarray  # (n_samples,)
    k: np.ndarray  # (nz,), ascending
    magnitude: np.ndarray  # (n_samples, nz)


@dataclass(eq=False)
class SimulationRecord:
    """Everything a run produces, sufficient to recompute its headline numbers."""

    config: ScenarioConfig
    t: np.ndarray  # (n_steps+1,)
    z: np.ndarray  # (nz,)
    boundary_out: np.ndarray  # (n_steps+1, n_channels), E_j(t, z=L)
    boundary_in: np.ndarray  # (n_steps+1, n_channels), E_j(t, z=0)
    snapshots: list[tuple[FieldState, CoherenceState]]
    k_spectra: KSpectrumHistory
    window_energies: dict[str, float]
    snapshot_stride: int
    kspec_stride: int
    coherence_norm: np.ndarray  # (n_steps+1,), N * integral |sigma|^2 dz
    pulse_out: Optional[np.ndarray] = None  # (n_pulses, n_steps+1, n_channels), per-pulse runs only

    def recompute_window_energies(self) -> dict[str, float]:
        out = {}
        power = np.sum(np.abs(self.boundary_out) ** 2, axis=1)
        for name, (w0, w1) in self.config.windows.items():
            mask = (self.t >= w0) & (self.t <= w1)
            if mask.sum() < 2:
                out[name] = 0.0
            else:
                out[name] = float(np.trapezoid(power[mask], self.t[mask]))
        return out

    def window_grams(self) -> dict[str, np.ndarray]:
        """Per-window Gram matrices of the per-pulse boundary traces.

        G[r, s] = integral over the window of sum_j conj(b_rj) b_sj dt, so the
        window energy of the superposition sum_r w_r b_r is w^H G w.
        """
        if self.pulse_out is None:
            raise ValueError("window Gram matrices need a per-pulse record")
        rows = self.pulse_out.shape[0]
        out = {}
        for name, (w0, w1) in self.config.windows.items():
            mask = (self.t >= w0) & (self.t <= w1)
            if mask.sum() < 2:
                out[name] = np.zeros((rows, rows), dtype=complex)
            else:
                traces = self.pulse_out[:, mask]
                products = np.einsum("rkj,skj->rsk", np.conj(traces), traces)
                out[name] = np.trapezoid(products, self.t[mask], axis=-1)
        return out

    def input_energy(self) -> float:
        return float(np.trapezoid(np.sum(np.abs(self.boundary_in) ** 2, axis=1), self.t))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _c2j(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _j2c(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    re, im = value  # a pair; anything else raises ValueError or TypeError
    return complex(re, im)


def _pulse_to_dict(p: Pulse) -> dict:
    if isinstance(p, GaussianPulse):
        return {
            "kind": "gaussian",
            "label": p.label,
            "channel": p.channel,
            "t0": p.t0,
            "sigma": p.sigma,
            "amplitude": _c2j(p.amplitude),
            "carrier": p.carrier,
            "truncate": p.truncate,
        }
    return {
        "kind": "sampled",
        "label": p.label,
        "channel": p.channel,
        "t": [float(x) for x in p.t],
        "values": [_c2j(v) for v in p.values],
    }


def _pulse_from_dict(d: dict) -> Pulse:
    if d["kind"] == "gaussian":
        return GaussianPulse(
            t0=d["t0"],
            sigma=d["sigma"],
            amplitude=_j2c(d["amplitude"]),
            carrier=d.get("carrier", 0.0),
            truncate=d.get("truncate", 4.0),
            label=d.get("label", "probe"),
            channel=d.get("channel", 0),
        )
    if d["kind"] == "sampled":
        return SampledPulse(
            t=np.array(d["t"], dtype=float),
            values=np.array([_j2c(v) for v in d["values"]], dtype=complex),
            label=d.get("label", "steering"),
            channel=d.get("channel", 0),
        )
    raise ValueError(f"unknown pulse kind {d.get('kind')!r}")


def config_to_dict(config: ScenarioConfig) -> dict:
    """Plain-JSON form of a scenario, with explicit unit annotations."""
    ens = config.ensemble
    return {
        "units": {"time": TIME_UNIT, "rates": f"rad/{TIME_UNIT}", "length": "medium units"},
        "ensemble": {
            "g": ens.g,
            "n_density": ens.n_density,
            "delta": ens.delta,
            "gamma0": ens.gamma0,
            "gamma_e": ens.gamma_e,
            "length": ens.length,
        },
        "gradient": {
            "segments": [
                {"t_start": s.t_start, "eta": s.eta, "hold": s.hold}
                for s in config.gradient.segments
            ]
        },
        "coupling": {
            "channels": [
                {
                    "segments": [{"t_start": s.t_start, "omega": _c2j(s.omega)} for s in ch.segments],
                    "raman_offset": ch.raman_offset,
                    "modulation": (
                        None
                        if ch.modulation is None
                        else {"amplitude": _c2j(ch.modulation.amplitude), "freq": ch.modulation.freq}
                    ),
                }
                for ch in config.coupling.channels
            ]
        },
        "pulses": [_pulse_to_dict(p) for p in config.pulses],
        "grid": {"nz": config.grid.nz, "nt": config.grid.nt, "t_end": config.grid.t_end},
        "windows": {name: [w0, w1] for name, (w0, w1) in config.windows.items()},
        "mode_mismatch": config.mode_mismatch,
        "mismatch_time": config.mismatch_time,
        "metadata": config.metadata,
    }


def _window_from_json(name: str, bounds) -> tuple[float, float]:
    if not (
        isinstance(bounds, (list, tuple))
        and len(bounds) == 2
        and all(isinstance(b, numbers.Real) and not isinstance(b, bool) for b in bounds)
    ):
        raise TypeError(f"window {name} must be a pair of numbers [t_start, t_end], got {bounds!r}")
    return (bounds[0], bounds[1])


def config_from_dict(doc: dict) -> ScenarioConfig:
    ens, windows = doc["ensemble"], doc["windows"]
    if not isinstance(windows, dict):
        raise TypeError(f"windows must be an object of name: [t_start, t_end] pairs, got {windows!r}")
    return ScenarioConfig(
        ensemble=EnsembleParams(
            g=ens["g"],
            n_density=ens["n_density"],
            delta=ens["delta"],
            gamma0=ens.get("gamma0", 0.0),
            gamma_e=ens.get("gamma_e", 1.0),
            length=ens.get("length", 1.0),
        ),
        gradient=GradientProfile(
            segments=tuple(
                GradientSegment(s["t_start"], s["eta"], s.get("hold", False))
                for s in doc["gradient"]["segments"]
            )
        ),
        coupling=CouplingSchedule(
            channels=tuple(
                CouplingChannel(
                    segments=tuple(
                        CouplingSegment(s["t_start"], _j2c(s["omega"])) for s in ch["segments"]
                    ),
                    raman_offset=ch.get("raman_offset", 0.0),
                    modulation=(
                        None
                        if ch.get("modulation") is None
                        else CouplingModulation(
                            amplitude=_j2c(ch["modulation"]["amplitude"]),
                            freq=ch["modulation"]["freq"],
                        )
                    ),
                )
                for ch in doc["coupling"]["channels"]
            )
        ),
        pulses=tuple(_pulse_from_dict(p) for p in doc["pulses"]),
        grid=GridSpec(nz=doc["grid"]["nz"], nt=doc["grid"]["nt"], t_end=doc["grid"]["t_end"]),
        windows={name: _window_from_json(name, w) for name, w in windows.items()},
        mode_mismatch=doc.get("mode_mismatch", 1.0),
        mismatch_time=doc.get("mismatch_time"),
        metadata=doc.get("metadata", {}),
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_sha256(config: ScenarioConfig) -> str:
    return hashlib.sha256(canonical_json(config_to_dict(config)).encode()).hexdigest()


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
