"""The in-place step loop and the block CSV writers against their references.

`reference_run` is the allocating RK4 loop that `solver.run` replaced, and
`reference_write_*` the per-scalar CSV writers that `io` replaced.  The
current code performs the same floating-point operations in the same order,
so every recorded array must be equal to the bit and every file equal to the
byte.  The one exception is the coherence norm, now a weighted dot product
instead of `np.trapezoid`: it may differ in the last bits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gemsim import io
from gemsim.model import (
    CoherenceState,
    FieldState,
    KSpectrumHistory,
    SimulationRecord,
    config_sha256,
)
from gemsim.scenarios import preset_family
from gemsim.solver import _bright_polariton, _check_stability, _time_grid, k_grid, run
from conftest import FAST_FIG2, storage_config


def reference_run(config, stride=None, initial_coherence=None, per_pulse=False):
    _check_stability(config)

    ens = config.ensemble
    nz = config.grid.nz
    z = np.linspace(0.0, ens.length, nz)
    dz = z[1] - z[0]
    nch = config.n_channels

    t_nodes = _time_grid(config)
    n_steps = len(t_nodes) - 1

    t_half = np.empty(2 * n_steps + 1)
    t_half[0::2] = t_nodes
    t_half[1::2] = 0.5 * (t_nodes[:-1] + t_nodes[1:])

    eta_h = np.asarray(config.gradient.eta_at(np.minimum(t_half, t_nodes[-1])), dtype=float)
    eta_h[1::2] = np.asarray(config.gradient.eta_at(t_nodes[:-1]), dtype=float)
    omegas_h = np.stack(
        [np.asarray(ch.omega_at(t_half), dtype=complex) for ch in config.coupling.channels]
    )
    for c, ch in enumerate(config.coupling.channels):
        if ch.modulation is None:
            omegas_h[c, 1::2] = np.asarray(ch.omega_at(t_nodes[:-1]), dtype=complex)
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
    kappa_h = 1j * ens.g * ens.n_density * np.conj(omegas_h) / ens.delta
    drive_h = 1j * g_over_delta * np.sum(omegas_h * sources, axis=-2)
    if per_pulse:
        drive_h = drive_h.T[:, :, None]
    w2_h = (ens.g**2 * ens.n_density / ens.delta**2) * np.sum(np.abs(omegas_h) ** 2, axis=0)
    stark_h = np.sum(np.abs(omegas_h) ** 2, axis=0) / ens.delta

    half_dz = 0.5 * dz

    def cumint(sig):
        out = np.empty_like(sig)
        out[..., 0] = 0.0
        np.cumsum((sig[..., 1:] + sig[..., :-1]) * half_dz, axis=-1, out=out[..., 1:])
        return out

    def rhs(sig, i):
        c = cumint(sig)
        return (
            -(ens.gamma0 + 1j * (eta_h[i] * z + stark_h[i])) * sig
            + drive_h[i]
            - w2_h[i] * c
        )

    if initial_coherence is not None:
        sigma = np.array(initial_coherence, dtype=complex)
    else:
        sigma = np.zeros(sources.shape[:-2] + (nz,), dtype=complex)

    snap_stride = kspec_stride = stride or max(1, round(n_steps / 512))

    boundary_out = np.zeros(sources.shape[:-2] + (n_steps + 1, nch), dtype=complex)
    boundary_in = np.zeros((n_steps + 1, nch), dtype=complex)
    coherence_norm = np.zeros(n_steps + 1)
    snapshots = []
    kspec_t = []
    kspec_mag = []
    kvec = k_grid(nz, dz)

    def fields_at(i, c_full):
        return e_in_h[:, i][:, None] + kappa_h[:, i][:, None] * c_full[None, :]

    def record_step(m, i):
        c_full = cumint(sigma)
        boundary_in[m] = e_in_h[:, i]
        boundary_out[..., m, :] = sources[..., i] + kappa_h[:, i] * c_full[..., -1:]
        total = sigma.sum(axis=0) if per_pulse else sigma
        coherence_norm[m] = ens.n_density * np.trapezoid(np.abs(total) ** 2, z)
        if per_pulse:
            return
        if m % snap_stride == 0 or m == n_steps:
            fields = fields_at(i, c_full)
            snapshots.append(
                (FieldState(t=t_nodes[m], fields=fields), CoherenceState(t=t_nodes[m], sigma=total.copy()))
            )
        if m % kspec_stride == 0 or m == n_steps:
            fields = fields_at(i, c_full)
            psi = _bright_polariton(fields, total, ens, omegas_h[:, i])
            kspec_t.append(float(t_nodes[m]))
            kspec_mag.append(np.abs(np.fft.fftshift(psi)))

    record_step(0, 0)
    mismatch_applied = config.mismatch_time is None or config.mode_mismatch == 1.0

    for m in range(n_steps):
        dt = t_nodes[m + 1] - t_nodes[m]
        i0, i1, i2 = 2 * m, 2 * m + 1, 2 * m + 2
        k1 = rhs(sigma, i0)
        k2 = rhs(sigma + 0.5 * dt * k1, i1)
        k3 = rhs(sigma + 0.5 * dt * k2, i1)
        k4 = rhs(sigma + dt * k3, i2)
        sigma = sigma + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not mismatch_applied and t_nodes[m + 1] >= config.mismatch_time - 1e-12:
            sigma = sigma * config.mode_mismatch
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
        snapshot_stride=0 if per_pulse else snap_stride,
        kspec_stride=0 if per_pulse else kspec_stride,
        coherence_norm=coherence_norm,
        pulse_out=boundary_out if per_pulse else None,
    )
    record.window_energies = record.recompute_window_energies()
    return record


def _fast_fig2():
    return preset_family("fig2", **FAST_FIG2).config_for_phase(math.pi), {}


def _freq_domain_per_pulse():
    return preset_family("freq-domain").config_for_phase(0.4), {"per_pulse": True}


def _beat_note():
    # the light shift changes at every stage
    return preset_family("freq-domain", nz=128, beat_note=True).config_for_phase(0.7), {}


def _decaying_mismatch_from_initial_coherence():
    config = replace(storage_config(gamma0=0.3, nz=64), mode_mismatch=0.6, mismatch_time=3.0)
    z = np.linspace(0.0, 1.0, 64)
    sigma0 = 0.2 * np.exp(-((z - 0.5) / 0.1) ** 2 + 3j * z)
    return config, {"initial_coherence": sigma0}


@pytest.mark.parametrize("scenario", [
    _fast_fig2, _freq_domain_per_pulse, _beat_note, _decaying_mismatch_from_initial_coherence,
], ids=["fast-fig2", "freq-domain-per-pulse", "beat-note", "mismatch-initial-coherence"])
def test_step_loop_matches_the_allocating_reference(scenario):
    config, kwargs = scenario()
    new, ref = run(config, **kwargs), reference_run(config, **kwargs)
    assert np.array_equal(new.t, ref.t)
    assert np.array_equal(new.boundary_out, ref.boundary_out)
    assert np.array_equal(new.boundary_in, ref.boundary_in)
    if kwargs.get("per_pulse"):
        assert np.array_equal(new.pulse_out, ref.pulse_out)
    else:
        assert len(new.snapshots) == len(ref.snapshots) > 0
        for (fs_new, cs_new), (fs_ref, cs_ref) in zip(new.snapshots, ref.snapshots):
            assert fs_new.t == fs_ref.t
            assert np.array_equal(fs_new.fields, fs_ref.fields)
            assert np.array_equal(cs_new.sigma, cs_ref.sigma)
        assert np.array_equal(new.k_spectra.t, ref.k_spectra.t)
        assert np.array_equal(new.k_spectra.magnitude, ref.k_spectra.magnitude)
    assert new.window_energies == ref.window_energies
    scale = np.max(ref.coherence_norm)
    assert scale > 0
    assert np.max(np.abs(new.coherence_norm - ref.coherence_norm)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def _r(x):
    return repr(float(x))


def reference_write_boundary_csv(record, path):
    nch = record.boundary_out.shape[1]
    header = ["t"]
    for j in range(nch):
        header += [f"re_E{j}_out", f"im_E{j}_out", f"re_E{j}_in", f"im_E{j}_in"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_sha256(record.config)}\n")
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(record.t):
            row = [_r(t)]
            for j in range(nch):
                row += [
                    _r(record.boundary_out[i, j].real), _r(record.boundary_out[i, j].imag),
                    _r(record.boundary_in[i, j].real), _r(record.boundary_in[i, j].imag),
                ]
            fh.write(",".join(row) + "\n")


def reference_write_snapshots_csv(record, path):
    nch = record.boundary_out.shape[1]
    header = ["t", "z"]
    for j in range(nch):
        header += [f"re_E{j}", f"im_E{j}"]
    header += ["re_sigma", "im_sigma"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_sha256(record.config)}\n")
        fh.write(",".join(header) + "\n")
        for fs, cs in record.snapshots:
            for m, z in enumerate(record.z):
                row = [_r(fs.t), _r(z)]
                for j in range(nch):
                    row += [_r(fs.fields[j, m].real), _r(fs.fields[j, m].imag)]
                row += [_r(cs.sigma[m].real), _r(cs.sigma[m].imag)]
                fh.write(",".join(row) + "\n")


def reference_write_kspectra_csv(record, path):
    spec = record.k_spectra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_sha256(record.config)}\n")
        fh.write("t,k,abs_psi\n")
        for i, t in enumerate(spec.t):
            for k, mag in zip(spec.k, spec.magnitude[i]):
                fh.write(f"{_r(t)},{_r(k)},{_r(mag)}\n")


SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16,
                    1e300, 0.1, 1.0 / 3.0, 123456789.0, -7.0])


def _values(rng, shape):
    """Random values over many decades with the special ones at the front."""
    flat = rng.standard_normal(math.prod(shape)) * 10.0 ** rng.uniform(-320, 300, math.prod(shape))
    flat[: SPECIAL.size] = SPECIAL
    return flat.reshape(shape)


def _complex(rng, shape):
    return _values(rng, shape) + 1j * _values(rng, shape)[..., ::-1]


def _hand_set_record(n_channels):
    rng = np.random.default_rng(n_channels)
    nz, n_snap = 16, 3
    config = storage_config(nz=nz)
    if n_channels == 2:
        config = preset_family("freq-domain").config_for_phase(0.0)
    z = np.concatenate([[-0.0, 5e-324, 1e16], np.linspace(0.1, 1.0, nz - 3)])
    times = [0.0, -0.0, 1e16]
    snapshots = [
        (FieldState(t=np.float64(t), fields=_complex(rng, (n_channels, nz))),
         CoherenceState(t=np.float64(t), sigma=_complex(rng, (nz,))))
        for t in times[:n_snap]
    ]
    spectra = KSpectrumHistory(t=np.array(times), k=_values(rng, (nz,)), magnitude=np.abs(_values(rng, (3, nz))))
    # boundary parts are set directly: re + 1j*im would turn -0.0 into 0.0
    n_t = SPECIAL.size
    out, inp = (np.empty((n_t, n_channels), dtype=complex) for _ in range(2))
    for part in (out.real, out.imag, inp.real, inp.imag):
        part[...] = _values(rng, (n_t, n_channels))
    return SimulationRecord(
        config=config, t=_values(rng, (n_t,)), z=z, boundary_out=out, boundary_in=inp,
        snapshots=snapshots, k_spectra=spectra, window_energies={},
        snapshot_stride=1, kspec_stride=1, coherence_norm=np.zeros(n_t),
    )


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("writer, reference", [
    (io.write_boundary_csv, reference_write_boundary_csv),
    (io.write_snapshots_csv, reference_write_snapshots_csv),
    (io.write_kspectra_csv, reference_write_kspectra_csv),
], ids=["boundary", "snapshots", "kspectra"])
def test_csv_writers_match_the_per_scalar_reference(tmp_path, writer, reference, n_channels):
    record = _hand_set_record(n_channels)
    writer(record, tmp_path / "new.csv")
    reference(record, tmp_path / "ref.csv")
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert b",-0.0," in written and b"5e-324" in written and b"1e+16" in written
