"""Coupled field/coherence integrator on the (t, z) grid.

Working equations, in the co-moving frame with the excited state
adiabatically eliminated (single shared spin coherence, one optical
channel j per coupling channel):

    dE_j/dz     = i (g N conj(Omega_j(t)) / Delta) sigma(t, z)
    dsigma/dt   = -[gamma0 + i eta(t) z + i sum_c |Omega_c(t)|^2 / Delta] sigma
                  + i (g / Delta) sum_j Omega_j(t) E_j(t, z)

The optical envelopes are slaved to the coherence: at any instant,
E_j(t, z) = E_j(t, 0) + i kappa_j(t) * integral_0^z sigma dz', so the
state vector is the coherence alone and the method of lines applies.
Time stepping is classical fourth order Runge-Kutta; the z integral is a
cumulative trapezoid, giving global error O(dt^4 + dz^2).  Piecewise
constant controls (gradient switches, coupling steps, pulse support
edges) are aligned with step boundaries so no step straddles a switch.
The stages run in place in buffers allocated once per run, and the z
integral of each new state serves both its boundary output and the next
step's first stage, so a step takes four cumulative integrals.

Energy bookkeeping uses the normalisation constant s = 1: the conserved
quantity at gamma0 = 0 is N * integral |sigma|^2 dz plus the net boundary
flux integral of sum_j |E_j|^2 (influx at z=0 minus outflux at z=L).

The spatial-spectrum diagnostics use the normalised forward DFT
F[f](k) = (1/nz) sum_m f(z_m) exp(-i k z_m) on k = 2 pi fftfreq(nz, dz),
so a unit-amplitude plane wave has unit peak height.  The polariton is
psi(t, k) = k E(t, k) + (N Omega_c / Delta) sigma(t, k); the DC bin is
excluded from every check that involves the 1/k factor, because the
(t, z) equations never divide by k.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import EmptySpectrum, NoCrossing, NonFinite, StabilityBound
from .model import (
    CoherenceState,
    EnsembleParams,
    FieldState,
    KSpectrumHistory,
    ScenarioConfig,
    SimulationRecord,
    dt_violations,
)

__all__ = [
    "run",
    "polariton_spectrum",
    "k_grid",
    "k_centroid_track",
    "crossing_phase",
    "maxwell_residual",
]


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _event_times(config: ScenarioConfig) -> list[float]:
    t_end = config.grid.t_end
    events = {0.0, t_end}
    events.update(config.gradient.switch_times())
    for ch in config.coupling.channels:
        events.update(s.t_start for s in ch.segments[1:])
    for p in config.pulses:
        events.update(p.support())
    if config.mismatch_time is not None:
        events.add(config.mismatch_time)
    inside = sorted(t for t in events if 0.0 <= t <= t_end)
    merged = [inside[0]]
    for t in inside[1:]:
        if t - merged[-1] > 1e-12 * max(1.0, t_end):
            merged.append(t)
    if merged[-1] != t_end:
        merged.append(t_end)
    return merged


def _time_grid(config: ScenarioConfig) -> np.ndarray:
    """Step-boundary times: uniform within each inter-event segment."""
    dt0 = config.grid.dt
    edges = _event_times(config)
    pieces = [np.array([0.0])]
    for a, b in zip(edges, edges[1:]):
        n = max(1, math.ceil((b - a) / dt0 - 1e-12))
        pieces.append(a + (b - a) * np.arange(1, n + 1) / n)
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# main integrator
# ---------------------------------------------------------------------------

def _check_stability(config: ScenarioConfig) -> None:
    violations = dt_violations(config)
    if violations:
        raise StabilityBound("; ".join(violations))


def run(
    config: ScenarioConfig,
    stride: int | None = None,
    initial_coherence: np.ndarray | None = None,
    per_pulse: bool = False,
) -> SimulationRecord:
    """Integrate a validated scenario and return its record.

    Raises StabilityBound when the grid step breaks a bound of
    model.dt_bounds.  Window energies and boundary traces are always
    recorded; a (field, coherence) snapshot and a |psi(k)| spectrum every
    `stride` steps and at the last step: about 512 of each for None, none for 0.

    With per_pulse=True the coherence carries one row per pulse, each row
    driven by that pulse alone on the time grid of the whole scenario.  The
    record then holds the per-pulse boundary traces in `pulse_out`, their
    sum in `boundary_out`, and no snapshots or k-spectra: the equations are
    linear in the boundary pulses, so the energy of any weighted
    superposition of the pulses follows from `record.window_grams()`.
    """
    _check_stability(config)

    ens = config.ensemble
    nz = config.grid.nz
    z = np.linspace(0.0, ens.length, nz)
    dz = z[1] - z[0]
    nch = config.n_channels

    t_nodes = _time_grid(config)
    n_steps = len(t_nodes) - 1

    # stage-time grid: nodes interleaved with midpoints
    t_half = np.empty(2 * n_steps + 1)
    t_half[0::2] = t_nodes
    t_half[1::2] = 0.5 * (t_nodes[:-1] + t_nodes[1:])

    # controls evaluated on the stage grid; eta at midpoints uses the value
    # of the segment the step lies in (steps never straddle a switch)
    eta_h = np.asarray(config.gradient.eta_at(np.minimum(t_half, t_nodes[-1])), dtype=float)
    eta_h[1::2] = np.asarray(config.gradient.eta_at(t_nodes[:-1]), dtype=float)
    omegas_h = np.stack(
        [np.asarray(ch.omega_at(t_half), dtype=complex) for ch in config.coupling.channels]
    )  # (nch, 2*n_steps+1)
    for c, ch in enumerate(config.coupling.channels):
        if ch.modulation is None:
            # keep midpoints on the piecewise value of their own step
            omegas_h[c, 1::2] = np.asarray(ch.omega_at(t_nodes[:-1]), dtype=complex)
    # the state is sigma (nz,), or one row per pulse (n_pulses, nz) driven by
    # sources[r], the boundary input of pulse r alone
    if per_pulse:
        sources = np.zeros((len(config.pulses), nch, 2 * n_steps + 1), dtype=complex)
        for r, p in enumerate(config.pulses):
            sources[r, p.channel] = p.envelope(t_half)
        e_in_h = sources.sum(axis=0)
    else:
        e_in_h = np.zeros((nch, 2 * n_steps + 1), dtype=complex)
        for p in config.pulses:
            e_in_h[p.channel] += p.envelope(t_half)
        sources = e_in_h

    g_over_delta = ens.g / ens.delta
    kappa_h = 1j * ens.g * ens.n_density * np.conj(omegas_h) / ens.delta  # field source coeffs
    drive_h = 1j * g_over_delta * np.sum(omegas_h * sources, axis=-2)  # ([rows,] 2*n_steps+1)
    if per_pulse:
        drive_h = drive_h.T[:, :, None]  # one (rows, 1) column per stage
    w2_h = (ens.g**2 * ens.n_density / ens.delta**2) * np.sum(np.abs(omegas_h) ** 2, axis=0)
    stark_h = np.sum(np.abs(omegas_h) ** 2, axis=0) / ens.delta

    # RK4 works in place in these buffers; c holds the z-integral of the state
    # integrated last
    half_dz = 0.5 * dz
    shape = sources.shape[:-2] + (nz,)
    k1, k2, k3, k4, stage, c = (np.empty(shape, dtype=complex) for _ in range(6))
    pair = np.empty(shape[:-1] + (nz - 1,), dtype=complex)
    weights = np.full(nz, dz)  # trapezoid rule
    weights[[0, -1]] *= 0.5
    coef_at = [None, None]  # last (eta, stark) and its local coefficient

    def cumint(sig: np.ndarray) -> None:
        c[..., 0] = 0.0
        np.add(sig[..., 1:], sig[..., :-1], out=pair)
        np.multiply(pair, half_dz, out=pair)
        pair.cumsum(axis=-1, out=c[..., 1:])

    def rhs(sig: np.ndarray, i: int, out: np.ndarray) -> None:
        """out = -(gamma0 + i(eta z + stark)) sig + drive - w2 c, with c the integral of sig."""
        key = (eta_h[i], stark_h[i])
        if coef_at[0] != key:
            coef_at[:] = key, -(ens.gamma0 + 1j * (eta_h[i] * z + stark_h[i]))
        np.multiply(coef_at[1], sig, out=out)
        np.add(out, drive_h[i], out=out)
        np.subtract(out, np.multiply(w2_h[i], c, out=c), out=out)

    def advanced(h: float, k: np.ndarray) -> np.ndarray:
        """Stage state sigma + h k, with its z-integral in c."""
        np.add(sigma, np.multiply(h, k, out=stage), out=stage)
        cumint(stage)
        return stage

    if initial_coherence is not None:
        if per_pulse:
            raise ValueError("per-pulse runs start from zero coherence")
        sigma = np.array(initial_coherence, dtype=complex)
        if sigma.shape != (nz,):
            raise ValueError(f"initial coherence must have shape ({nz},)")
    else:
        sigma = np.zeros(shape, dtype=complex)

    if per_pulse:
        stride = 0
    elif stride is None:
        stride = max(1, round(n_steps / 512))
    elif stride < 0:
        raise ValueError(f"stride must be >= 0, got {stride}")

    boundary_out = np.zeros(sources.shape[:-2] + (n_steps + 1, nch), dtype=complex)
    boundary_in = np.zeros((n_steps + 1, nch), dtype=complex)
    coherence_norm = np.zeros(n_steps + 1)
    snapshots: list[tuple[FieldState, CoherenceState]] = []
    kspec_t: list[float] = []
    kspec_mag: list[np.ndarray] = []
    kvec = k_grid(nz, dz)

    def record_step(m: int, i: int) -> None:
        cumint(sigma)  # also the next step's k1 integral
        boundary_in[m] = e_in_h[:, i]
        boundary_out[..., m, :] = sources[..., i] + kappa_h[:, i] * c[..., -1:]
        total = sigma.sum(axis=0) if per_pulse else sigma
        coherence_norm[m] = ens.n_density * np.vdot(total, weights * total).real
        if not math.isfinite(coherence_norm[m]):
            finite = np.abs(sigma[np.isfinite(sigma)])
            amax = float(finite.max()) if finite.size else math.inf
            raise NonFinite(step=m, time=float(t_nodes[m]), max_abs=amax)
        if stride and (m % stride == 0 or m == n_steps):
            fields = e_in_h[:, i][:, None] + kappa_h[:, i][:, None] * c[None, :]
            snapshots.append(
                (FieldState(t=t_nodes[m], fields=fields), CoherenceState(t=t_nodes[m], sigma=total.copy()))
            )
            psi = _bright_polariton(fields, total, ens, omegas_h[:, i])
            kspec_t.append(float(t_nodes[m]))
            kspec_mag.append(np.abs(np.fft.fftshift(psi)))

    record_step(0, 0)
    mismatch_applied = config.mismatch_time is None or config.mode_mismatch == 1.0

    for m in range(n_steps):
        dt = t_nodes[m + 1] - t_nodes[m]
        i0, i1, i2 = 2 * m, 2 * m + 1, 2 * m + 2
        rhs(sigma, i0, k1)
        rhs(advanced(0.5 * dt, k1), i1, k2)
        rhs(advanced(0.5 * dt, k2), i1, k3)
        rhs(advanced(dt, k3), i2, k4)
        # sigma += (dt / 6) (k1 + 2 (k2 + k3) + k4), in that order of operations
        np.add(k2, k3, out=k2)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k2)
        np.add(k2, k4, out=k2)
        np.add(sigma, np.multiply(dt / 6.0, k2, out=k2), out=sigma)
        if not mismatch_applied and t_nodes[m + 1] >= config.mismatch_time - 1e-12:
            np.multiply(sigma, config.mode_mismatch, out=sigma)
            mismatch_applied = True
        record_step(m + 1, i2)

    record = SimulationRecord(
        config=config,
        t=t_nodes,
        z=z,
        boundary_out=boundary_out.sum(axis=0) if per_pulse else boundary_out,
        boundary_in=boundary_in,
        snapshots=snapshots,
        k_spectra=KSpectrumHistory(
            t=np.array(kspec_t), k=np.fft.fftshift(kvec), magnitude=np.array(kspec_mag)
        ),
        window_energies={},
        snapshot_stride=stride,
        kspec_stride=stride,
        coherence_norm=coherence_norm,
        pulse_out=boundary_out if per_pulse else None,
    )
    record.window_energies = record.recompute_window_energies()
    return record


def SolverSettings(snapshot_stride: int | None = None, kspec_stride: int | None = None) -> int | None:
    """The `stride` of `run` under its former name, kept only for perfbench/run.py."""
    return snapshot_stride


# ---------------------------------------------------------------------------
# polariton diagnostics
# ---------------------------------------------------------------------------

def k_grid(nz: int, dz: float) -> np.ndarray:
    """Diagnostic spatial-frequency grid (unshifted FFT order)."""
    return 2.0 * math.pi * np.fft.fftfreq(nz, d=dz)


def _dft(values: np.ndarray) -> np.ndarray:
    return np.fft.fft(values) / values.shape[-1]


def _bright_polariton(
    fields: np.ndarray, sigma: np.ndarray, ens: EnsembleParams, omegas: np.ndarray
) -> np.ndarray:
    """psi(k) for the coupling-weighted bright field combination.

    Reduces to k E + (N Omega_c/Delta) sigma for a single channel with a
    real positive coupling; multi-channel records use the weighted sum
    sum_j conj(Omega_j) E_j / Omega_rms so that only the combination that
    actually exchanges with the coherence is tracked.
    """
    nz = sigma.shape[0]
    dz = ens.length / (nz - 1)
    kvec = k_grid(nz, dz)
    omega_rms = math.sqrt(float(np.sum(np.abs(omegas) ** 2)))
    if omega_rms == 0.0:
        bright = np.zeros(nz, dtype=complex)
        weight = 0.0
    else:
        bright = np.tensordot(np.conj(omegas) / omega_rms, fields, axes=(0, 0))
        weight = ens.n_density * omega_rms / ens.delta
    return kvec * _dft(bright) + weight * _dft(sigma)


def polariton_spectrum(
    field: FieldState,
    coh: CoherenceState,
    params: EnsembleParams,
    omega_c: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Normal-mode spectrum psi(k) = k E(k) + (N Omega_c/Delta) sigma(k).

    Returns (k, psi) with k ascending (fftshifted).  Uses the normalised
    forward DFT, so sigma(z) = exp(i k0 z) with k0 on the grid gives
    |psi(k0)| = N |Omega_c| / |Delta|.
    """
    e_field = field.fields[0] if field.fields.ndim == 2 else field.fields
    nz = coh.sigma.shape[0]
    dz = params.length / (nz - 1)
    kvec = k_grid(nz, dz)
    psi = kvec * _dft(e_field) + (params.n_density * omega_c / params.delta) * _dft(coh.sigma)
    return np.fft.fftshift(kvec), np.fft.fftshift(psi)


CENTROID_FLOOR = 1e-3  # relative to the record-wide |psi| maximum


def k_centroid_track(
    record: SimulationRecord, floor: float = CENTROID_FLOOR
) -> list[tuple[float, float]]:
    """Weighted centroid k(t) of |psi(k)|^2, skipping empty spectra.

    Bins below floor * max|psi| (max over the whole record) are ignored;
    sample times whose total surviving weight vanishes are dropped.
    Raises EmptySpectrum when nothing survives at all.
    """
    spec = record.k_spectra
    peak = float(spec.magnitude.max(initial=0.0))
    if peak <= 0.0:
        raise EmptySpectrum("polariton spectrum is identically zero")
    cut = floor * peak
    out = []
    for i, t in enumerate(spec.t):
        mag = spec.magnitude[i]
        mask = mag >= cut
        if not mask.any():
            continue
        w = mag[mask] ** 2
        out.append((float(t), float(np.sum(spec.k[mask] * w) / np.sum(w))))
    if not out:
        raise EmptySpectrum("no spectrum sample exceeds the magnitude floor")
    return out


def _centroid_crossings(track: Sequence[tuple[float, float]], window) -> list[float]:
    crossings = []
    for (t0, k0), (t1, k1) in zip(track, track[1:]):
        if window[0] <= t1 and t0 <= window[1] and k0 * k1 < 0:
            crossings.append(t0 + (t1 - t0) * (-k0) / (k1 - k0))
    return crossings


def crossing_phase(record: SimulationRecord, window: tuple[float, float]) -> float:
    """Phase jump of arg[E(t, k) conj(sigma(t, k))] across a k=0 crossing.

    The relative phase is estimated at snapshot times on either side of
    the crossing by aggregating E(k) conj(sigma(k)) over the dominant
    coherence modes on the packet's side of the spectrum (DC bins
    excluded); the |sigma|-weighted sum is insensitive to the nulls of
    the fringed packet spectrum and to spectral leakage from the freely
    escaping field.  The change across the crossing is returned in
    [0, 2 pi).
    """
    track = k_centroid_track(record)
    crossings = _centroid_crossings(track, window)
    if not crossings:
        raise NoCrossing(f"centroid does not cross k=0 within {window}")
    t_cross = crossings[0]

    nz = record.z.shape[0]
    dz = record.z[1] - record.z[0]
    kvec = np.fft.fftshift(k_grid(nz, dz))
    dk = kvec[1] - kvec[0]

    track_t = np.array([t for t, _ in track])
    track_k = np.array([k for _, k in track])

    samples = []
    for fs, cs in record.snapshots:
        if not (window[0] <= fs.t <= window[1]):
            continue
        kbar = float(np.interp(fs.t, track_t, track_k))
        if abs(kbar) < 3.0 * dk:
            continue  # too close to the singular DC region
        e_hat = np.fft.fftshift(_dft(fs.fields[0]))
        s_hat = np.fft.fftshift(_dft(cs.sigma))
        mask = (np.sign(kvec) == np.sign(kbar)) & (np.abs(kvec) >= 1.5 * dk)
        mask &= np.abs(s_hat) >= 0.1 * np.abs(s_hat[mask]).max(initial=0.0)
        if not mask.any():
            continue
        weighted = np.sum(e_hat[mask] * np.conj(s_hat[mask]) * np.abs(s_hat[mask]))
        if weighted == 0.0:
            continue
        samples.append((fs.t, complex(weighted / abs(weighted)), fs.t > t_cross))

    def side_phase(side: list[complex]) -> float:
        mean = sum(side)
        phase = math.atan2(mean.imag, mean.real)
        # one round of outlier rejection against the circular mean
        ref = complex(math.cos(phase), math.sin(phase))
        kept = [u for u in side if abs(np.angle(u * np.conj(ref))) < 1.0]
        if kept:
            mean = sum(kept)
            phase = math.atan2(mean.imag, mean.real)
        return phase

    before = [u for t, u, after in samples if not after][-6:]
    after = [u for t, u, after in samples if after][:6]
    if not before or not after:
        raise NoCrossing("not enough snapshots on both sides of the crossing")
    jump = side_phase(after) - side_phase(before)
    return float(np.mod(jump, 2.0 * math.pi))


def maxwell_residual(
    field: FieldState,
    coh: CoherenceState,
    params: EnsembleParams,
    omega_c: complex,
    floor: float = 0.05,
) -> float:
    """Worst relative error of k E(k) = g N (conj(Omega_c)/Delta) sigma(k).

    Checked over the dominant coherence modes (|sigma(k)| above floor of
    its peak, DC bin excluded).  The equations hold on a finite cell, not
    a periodic one, so the transform is trapezoid-corrected and the
    boundary contribution -i [E(L) e^{-ikL} - E(0)] / L is added back.
    """
    e_field = field.fields[0] if field.fields.ndim == 2 else field.fields
    nz = coh.sigma.shape[0]
    dz = params.length / (nz - 1)
    length = params.length
    kvec = k_grid(nz, dz)

    def dft_trap(values: np.ndarray) -> np.ndarray:
        # trapezoid-rule transform (1/L) integral_0^L f exp(-ikz) dz
        total = np.fft.fft(values)
        edge = 0.5 * (values[0] + values[-1] * np.exp(-1j * kvec * (nz - 1) * dz))
        return (total - edge) * dz / length

    e_hat = dft_trap(e_field)
    s_hat = dft_trap(coh.sigma)
    weight = params.g * params.n_density * np.conj(omega_c) / params.delta
    boundary = -1j * (e_field[-1] * np.exp(-1j * kvec * length) - e_field[0]) / length
    lhs = kvec * e_hat + boundary
    rhs_vals = weight * s_hat
    mask = (np.abs(s_hat) >= floor * np.abs(s_hat).max()) & (kvec != 0.0)
    if not mask.any():
        raise EmptySpectrum("no dominant coherence modes above the floor")
    return float(np.max(np.abs(lhs[mask] - rhs_vals[mask]) / np.abs(rhs_vals[mask])))
