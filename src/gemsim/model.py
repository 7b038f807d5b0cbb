"""Domain types, units, grids and configuration for the memory simulator.

Scaled units are used throughout: time in microseconds, rates in rad/us,
and the medium occupying z in [0, L] with L in arbitrary length units.
Light propagation is treated in the co-moving frame (c=1 and transit time
absorbed), so boundary traces at z=L share the time axis of the input at
z=0.  All rate parameters only ever enter through the dimensionless groups
g*N*L/gamma_e, Omega_c/Delta and g*N/eta, which is what makes the scaling
harmless.

The config dataclasses are the schema of a scenario document: config_to_dict
and config_from_dict walk their fields, and each field's annotation decides
its JSON form; validate checks the values against the same annotations.
"""

from __future__ import annotations

import functools
import json
import hashlib
import itertools
import math
import numbers
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Annotated, Optional, Union, get_args, get_origin, get_type_hints

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
# field metadata: a JSON document must name this field, although the dataclass gives it a default
REQUIRED = {"required": True}


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

    g: float = field(default=1.0, metadata=REQUIRED)
    n_density: float = field(default=40.0, metadata=REQUIRED)
    delta: float = field(default=1.0, metadata=REQUIRED)
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
    amplitude: complex = field(default=1.0 + 0.0j, metadata=REQUIRED)
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

    t: Annotated[np.ndarray, float]
    values: Annotated[np.ndarray, complex]
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


# what a field annotated with the key holds: (as named in messages, the type)
_FIELD_KINDS = {"float": ("a finite real number", numbers.Real), "int": ("a finite integer", numbers.Integral),
                "complex": ("a finite complex number", numbers.Complex), "bool": ("true or false", bool),
                "str": ("a string", str), "dict": ("an object", dict)}


def _is_kind(value, kind) -> bool:
    if kind in (bool, str, dict):
        return isinstance(value, kind)
    try:
        return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(abs(value))
    except OverflowError:
        return False


def _field_failures(obj, where: str = "") -> list[str]:
    """A message per field of obj, or of a dataclass it holds, whose value is not of its annotation's kind.

    The kinds are a finite float, complex or int, a bool, a str and a dict, with
    None allowed where Optional.  A complex counts as finite when its modulus
    does, so no later abs() can overflow.  Named windows must be pairs of finite reals.
    """
    out = []
    for f in fields(obj):
        value, name = getattr(obj, f.name), f"{where} {f.name}".lstrip()
        label, kind = _FIELD_KINDS.get(f.type.removeprefix("Optional[").rstrip("]"), (None, None))
        if f.type == "dict[str, tuple[float, float]]":
            for key, bounds in value.items():
                if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2
                        and all(_is_kind(b, numbers.Real) for b in bounds)):
                    out.append(f"{name} {key} must be a pair of finite real numbers, got {bounds!r}")
        elif kind is None:
            for i, item in enumerate(value) if isinstance(value, tuple) else [(None, value)]:
                if is_dataclass(item):
                    out += _field_failures(item, name if i is None else f"{name} {i}")
        elif (value is not None or not f.type.startswith("Optional")) and not _is_kind(value, kind):
            out.append(f"{name} must be {label}, got {value!r}")
    return out


def _pulse_failure(p: Pulse) -> str | None:
    """Why a pulse's envelope is unusable, or None."""
    try:
        if isinstance(p, GaussianPulse):
            finite = p.sigma > 0 and math.isfinite(p.energy())
        elif p.t.ndim != 1 or p.t.size == 0:
            return "sample times t must be a non-empty list"
        elif p.values.shape != p.t.shape:
            return f"{p.values.size} values for {p.t.size} sample times t"
        elif np.any(p.t[1:] <= p.t[:-1]):
            return "sample times t must be strictly increasing"
        else:
            finite = np.all(np.isfinite(p.t)) and np.all(np.isfinite(p.values))
    except OverflowError:
        finite = False
    if not finite:
        return "envelope must be finite with finite support"
    return None if math.isfinite(p.energy()) else "pulse energy must be finite"


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

    Field kinds come first: if a field is mistyped or a number not finite, only those are reported.
    """
    rep = ValidationReport(failures=_field_failures(config))
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
        failure = _pulse_failure(p)
        if failure:
            rep.failures.append(f"pulse {pi} ({p.label}): {failure}")

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
    for (a, (a0, a1)), (b, (b0, b1)) in itertools.combinations(config.windows.items(), 2):
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
    snapshot_t: np.ndarray  # (n,), every snapshot_stride steps and at the last
    snapshot_fields: np.ndarray  # (n, n_channels, nz)
    snapshot_sigma: np.ndarray  # (n, nz)
    k_spectra: KSpectrumHistory  # a run's at snapshot_t
    window_energies: dict[str, float]
    snapshot_stride: int
    coherence_norm: np.ndarray  # (n_steps+1,), N * integral |sigma|^2 dz
    # (nz,), sigma at the last node of a direct run, which run(start=record)
    # continues from; not saved, so None for a loaded record
    coherence_end: Optional[np.ndarray] = None
    # deterministic counts of the work a run did: "steps_integrated" (the skipped lead-in
    # excluded), "rows_integrated" (of the solve that made it) and "staged_steps" (those of
    # its steps that took staged RK4, not its Taylor form); empty for a loaded record
    diagnostics: dict[str, int] = field(default_factory=dict)

    @property
    def snapshots(self) -> list[tuple[FieldState, CoherenceState]]:
        """Each snapshot as (field, coherence) views into the snapshot arrays."""
        return [(FieldState(t=t, fields=f), CoherenceState(t=t, sigma=s))
                for t, f, s in zip(self.snapshot_t, self.snapshot_fields, self.snapshot_sigma)]

    def recompute_window_energies(self) -> dict[str, float]:
        """The output energy in each window; 0 where it holds fewer than two nodes."""
        out = {}
        power = np.sum(np.abs(self.boundary_out) ** 2, axis=1)
        for name, (w0, w1) in self.config.windows.items():
            mask = (self.t >= w0) & (self.t <= w1)
            out[name] = float(np.trapezoid(power[mask], self.t[mask]))
        return out

    def input_energy(self) -> float:
        return float(np.trapezoid(np.sum(np.abs(self.boundary_in) ** 2, axis=1), self.t))


# ---------------------------------------------------------------------------
# serialization: the config dataclasses are the schema
# ---------------------------------------------------------------------------

def _j2c(value, name: str) -> complex:
    """A complex number from JSON: a number, or a pair [re, im] of them; never a boolean."""
    pair = value if isinstance(value, (list, tuple)) else (value, 0.0)
    if len(pair) != 2 or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair):
        raise TypeError(f"{name} must be a number or a pair [re, im] of numbers, got {value!r}")
    return complex(*pair)


# a dataclass's field annotations, by field name
_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


def _members(hint) -> tuple:
    """The types a union annotation admits, None aside; (hint,) for any other annotation."""
    union = get_origin(hint) in (Union, types.UnionType)
    return tuple(a for a in get_args(hint) if a is not type(None)) if union else (hint,)


def _kind(cls) -> str:  # the "kind" tag of a pulse class: "gaussian" or "sampled"
    return cls.__name__.removesuffix("Pulse").lower()


def _to_json(value, hint):
    """`value` in the JSON form of its field's annotation `hint`."""
    if is_dataclass(value):
        doc = {f.name: _to_json(getattr(value, f.name), _hints(type(value))[f.name]) for f in fields(value)}
        return doc if len(_members(hint)) == 1 else {"kind": _kind(type(value)), **doc}
    origin, args = get_origin(hint), get_args(hint)
    if hint is complex:
        return [complex(value).real, complex(value).imag]
    if origin is Annotated:  # an array of the annotated element type
        items = value.tolist()
        return [[v.real, v.imag] for v in items] if args[1] is complex else items
    if origin is tuple:
        return [_to_json(v, args[0]) for v in value]
    if origin is dict:
        return {k: _to_json(v, args[1]) for k, v in value.items()}
    return value


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise TypeError(f"{where or 'the document'} must be {'an object' if kind is dict else 'a list'}, got {value!r}")
    return value


def _from_json(value, hint, where: str):
    """The value of a field annotated `hint` that the JSON `value` gives; `where` names it in errors.

    A key whose field has a default may be left out, unless the field's metadata
    marks it required; keys that name no field are ignored.  Numbers, booleans
    and strings are taken as they are, for `validate` to check.
    """
    members = _members(hint)
    if value is None and type(None) in get_args(hint):
        return None
    if len(members) > 1:  # a pulse: its "kind" tag names its class
        kinds = {_kind(m): m for m in members}
        if (kind := _expect(value, dict, where).get("kind")) not in kinds:
            raise ValueError(f"{where} kind must be one of {sorted(kinds)}, got {kind!r}")
        members = (kinds[kind],)
    hint, origin, args = members[0], get_origin(members[0]), get_args(members[0])
    if is_dataclass(hint):
        doc = _expect(value, dict, where)
        for f in fields(hint):
            if f.name not in doc and (f.metadata.get("required") or f.default is f.default_factory is MISSING):
                raise KeyError(f"{where} {f.name} is required".lstrip())
        return hint(**{f.name: _from_json(doc[f.name], _hints(hint)[f.name], f"{where} {f.name}".lstrip())
                       for f in fields(hint) if f.name in doc})
    if hint is complex:
        return _j2c(value, where)
    if origin is dict:  # an entry is named by the field's singular: "window E1"
        entries = _expect(value, dict, where).items()
        return {k: _from_json(v, args[1], f"{where.removesuffix('s')} {k}") for k, v in entries}
    if origin not in (tuple, Annotated):
        return value
    _expect(value, list, where)
    if origin is Annotated:  # an array of the annotated element type
        return np.array([_j2c(v, where) for v in value] if args[1] is complex else value, dtype=args[1])
    if args[-1] is Ellipsis:
        return tuple(_from_json(v, args[0], f"{where} {i}") for i, v in enumerate(value))
    if len(value) != len(args) or not all(_is_kind(x, numbers.Real) for x in value):  # a window's bounds
        raise TypeError(f"{where} must be a list of {len(args)} finite numbers, got {value!r}")
    return tuple(value)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Plain-JSON form of a scenario, with explicit unit annotations."""
    units = {"time": TIME_UNIT, "rates": f"rad/{TIME_UNIT}", "length": "medium units"}
    return {"units": units, **_to_json(config, ScenarioConfig)}


def config_from_dict(doc: dict) -> ScenarioConfig:
    return _from_json(doc, ScenarioConfig, "")


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
