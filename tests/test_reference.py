"""The in-place step loop and the block CSV writers against their references.

`reference_run` is an allocating loop of `solver.run`'s recipe (RK4's
Taylor form on the steps whose eta, stark and w2 are constant, staged RK4
elsewhere), `staged_reference_run` the same loop staged at every step, and
`reference_write_*` the per-scalar CSV writers that `io` replaced.  Like
`run`, the references keep the z integral unscaled, with the trapezoid's dz/2
in kappa and w2, and add the RK4 stages with one dot product.  The
current code performs `reference_run`'s floating-point operations in the same
order, so every recorded array must be equal to the bit, sign of zero
included (a flip of 0.0 to -0.0 would change the CSVs), and every file equal
to the byte; against `staged_reference_run` it may differ by roundoff.  The one exception is the coherence norm, now a weighted dot product
instead of `np.trapezoid`: it may differ in the last bits.  The snapshot
writer formats its blocks in a forked child while they are published; it is
checked at every block count, without the child, and on its failure paths.
"""

import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from gemsim import io
from gemsim.model import (
    KSpectrumHistory,
    SimulationRecord,
    config_sha256,
)
from gemsim.scenarios import preset_family
from gemsim.solver import _bright_polariton, _check_stability, _time_grid, k_grid, run, run_many
from conftest import FAST_FIG2, one_pulse_configs, storage_config


def reference_run(config, stride=None, start=None, taylor=True):
    """The loop's recipe, allocating: RK4's Taylor form on the steps whose
    eta, stark and w2 are constant, staged RK4 elsewhere (everywhere without
    `taylor`)."""
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
    e_in_h = np.zeros((nch, 2 * n_steps + 1), dtype=complex)
    for p in config.pulses:
        e_in_h[p.channel] += p.envelope(t_half)

    g_over_delta = ens.g / ens.delta
    half_dz = 0.5 * dz
    kappa_h = 1j * ens.g * ens.n_density * np.conj(omegas_h) / ens.delta
    kappa_h *= half_dz
    drive_h = 1j * g_over_delta * np.sum(omegas_h * e_in_h, axis=-2)
    w2_h = (ens.g**2 * ens.n_density / ens.delta**2) * np.sum(np.abs(omegas_h) ** 2, axis=0)
    w2_h *= half_dz
    stark_h = np.sum(np.abs(omegas_h) ** 2, axis=0) / ens.delta

    def cumint(sig):
        # the trapezoid integral over dz/2, which kappa_h and w2_h carry
        out = np.empty_like(sig)
        out[..., 0] = 0.0
        np.cumsum(sig[..., 1:] + sig[..., :-1], axis=-1, out=out[..., 1:])
        return out

    def rhs(sig, i, drive=None):
        # the local term, the drive when one is given, then the integral term
        c = cumint(sig)
        out = -(ens.gamma0 + 1j * (eta_h[i] * z + stark_h[i])) * sig
        if drive is not None:
            out = out + drive
        return out - w2_h[i] * c

    # the Taylor form's drive terms of each step, added to L v1 and L v3
    h = np.diff(t_nodes)
    d0, d_mid, d1 = drive_h[:-1:2], drive_h[1::2], drive_h[2::2]
    v2_drive = 2 * (d_mid - d0) / h
    v4_drive = 4 * (d0 - 2 * d_mid + d1) / (h * h * h)

    if start is not None:
        sigma = np.array(start, dtype=complex)
    else:
        sigma = np.zeros(nz, dtype=complex)

    snap_stride = stride or max(1, round(n_steps / 512))

    boundary_out = np.zeros((n_steps + 1, nch), dtype=complex)
    boundary_in = np.zeros((n_steps + 1, nch), dtype=complex)
    coherence_norm = np.zeros(n_steps + 1)
    snap_t = []
    snap_fields = []
    snap_sigma = []
    kspec_mag = []
    kvec = k_grid(nz, dz)

    def fields_at(i, c_full):
        return e_in_h[:, i][:, None] + kappa_h[:, i][:, None] * c_full[None, :]

    def record_step(m, i):
        c_full = cumint(sigma)
        boundary_in[m] = e_in_h[:, i]
        boundary_out[m] = e_in_h[:, i] + kappa_h[:, i] * c_full[-1:]
        coherence_norm[m] = ens.n_density * np.trapezoid(np.abs(sigma) ** 2, z, axis=-1)
        if m % snap_stride == 0 or m == n_steps:
            fields = fields_at(i, c_full)
            snap_t.append(t_nodes[m])
            snap_fields.append(fields)
            snap_sigma.append(sigma.copy())
            psi = _bright_polariton(fields, sigma, ens, omegas_h[:, i])
            kspec_mag.append(np.abs(np.fft.fftshift(psi)))

    record_step(0, 0)
    mismatch_applied = config.mismatch_time is None or config.mode_mismatch == 1.0

    for m in range(n_steps):
        dt = t_nodes[m + 1] - t_nodes[m]
        i0, i1, i2 = 2 * m, 2 * m + 1, 2 * m + 2
        constant = all(a[i0] == a[i1] == a[i2] for a in (eta_h, stark_h, w2_h))
        if taylor and constant:
            # v1..v4 of sigma += h v1 + h^2/2 v2 + h^3/6 v3 + h^4/24 v4
            k1 = rhs(sigma, i0, drive_h[i0])
            k2 = rhs(k1, i0, v2_drive[m])
            k3 = rhs(k2, i0)
            k4 = rhs(k3, i0, v4_drive[m])
            h2 = dt * dt / 2
            h3 = h2 * dt / 3
            weights = np.array([dt, h2, h3, h3 * dt / 4], dtype=complex)
        else:
            k1 = rhs(sigma, i0, drive_h[i0])
            k2 = rhs(sigma + 0.5 * dt * k1, i1, drive_h[i1])
            k3 = rhs(sigma + 0.5 * dt * k2, i1, drive_h[i1])
            k4 = rhs(sigma + dt * k3, i2, drive_h[i2])
            weights = np.array([dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0], dtype=complex)
        sigma = sigma + np.dot(weights, np.stack([k1, k2, k3, k4]).reshape(4, -1)).reshape(sigma.shape)
        if not mismatch_applied and t_nodes[m + 1] >= config.mismatch_time - 1e-12:
            sigma = sigma * config.mode_mismatch
            mismatch_applied = True
        record_step(m + 1, i2)

    record = SimulationRecord(
        config=config,
        t=t_nodes,
        z=z,
        boundary_out=boundary_out,
        boundary_in=boundary_in,
        snapshot_t=np.array(snap_t),
        snapshot_fields=np.array(snap_fields),
        snapshot_sigma=np.array(snap_sigma),
        k_spectra=KSpectrumHistory(
            t=np.array(snap_t), k=np.fft.fftshift(kvec), magnitude=np.array(kspec_mag)
        ),
        window_energies={},
        snapshot_stride=snap_stride,
        coherence_norm=coherence_norm,
    )
    record.window_energies = record.recompute_window_energies()
    return record


def staged_reference_run(config, stride=None, start=None):
    """Classical staged RK4 at every step, the loop before the Taylor form."""
    return reference_run(config, stride, start, taylor=False)


def _fast_fig2():
    return preset_family("fig2", **FAST_FIG2).config_for_phase(math.pi), {}


def _freq_domain_per_pulse():
    return one_pulse_configs(preset_family("freq-domain").config_for_phase(0.4)), {"rows": 2}


def _beat_note():
    # the light shift changes at every stage
    return preset_family("freq-domain", nz=128, beat_note=True).config_for_phase(0.7), {}


def _beat_note_per_pulse():
    # two pulse rows on one channel, each with a light shift that changes at every stage
    return one_pulse_configs(preset_family("freq-domain", nz=128, beat_note=True).config_for_phase(0.7)), {"rows": 2}


def _decaying_mismatch_from_initial_coherence():
    config = replace(storage_config(gamma0=0.3, nz=64), mode_mismatch=0.6, mismatch_time=3.0)
    z = np.linspace(0.0, 1.0, 64)
    sigma0 = 0.2 * np.exp(-((z - 0.5) / 0.1) ** 2 + 3j * z)
    return config, {"start": sigma0}


def _mismatch_before_a_late_pulse():
    # the pulse enters at 0.7, well after mu applies: the skipped lead-in must
    # count as having applied it, and snapshots every 50 steps fall inside it
    config = storage_config(nz=64)
    probe = replace(config.pulses[0], t0=1.5, sigma=0.2)
    return replace(config, pulses=(probe,), mode_mismatch=0.6, mismatch_time=0.4), {"stride": 50}


def _freq_domain_basis():
    # at phase 0 both pulses have the same drive: the solve integrates one row
    return [config for config, _ in preset_family("freq-domain").basis()], {"rows": 1}


def _three_pulses_first_and_last_equal():
    # configs 0 and 2 share a drive and config 1 does not: the config-to-row
    # mapping shows in the bits
    config = storage_config(nz=64)
    probe = config.pulses[0]
    pulses = (probe, replace(probe, t0=1.6, amplitude=0.5j, label="second"), replace(probe, label="third"))
    return one_pulse_configs(replace(config, pulses=pulses)), {"rows": 2}


def _wiped_by_mu_zero():
    # mu = 0 leaves -0.0 parts in the state, and no drive follows it
    return replace(storage_config(nz=64), mode_mismatch=0.0, mismatch_time=3.0), {"stride": 50}


def _same_bits(a, b):
    """Equal bit patterns: unlike np.array_equal, tells +0.0 from -0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SCENARIOS = pytest.mark.parametrize("scenario", [
    _fast_fig2, _freq_domain_per_pulse, _beat_note, _beat_note_per_pulse,
    _decaying_mismatch_from_initial_coherence, _mismatch_before_a_late_pulse, _wiped_by_mu_zero,
    _freq_domain_basis, _three_pulses_first_and_last_equal,
], ids=["fast-fig2", "freq-domain-per-pulse", "beat-note", "beat-note-per-pulse",
        "mismatch-initial-coherence", "mismatch-before-late-pulse", "wiped-by-mu-zero",
        "freq-domain-basis", "three-pulses-first-and-last-equal"])


def _solve_with(scenario, reference):
    """The scenario's records from the step loop and from `reference`, and
    whether it is a batch: one run_many solve, each config a row of its state
    (equal ones sharing a row), against the reference of its own config."""
    config, kwargs = scenario()
    if isinstance(config, list):
        news = run_many(config)
        assert all(new.diagnostics["rows_integrated"] == kwargs["rows"] for new in news)
        return news, [reference(c) for c in config], True
    return [run(config, **kwargs)], [reference(config, **kwargs)], False


@SCENARIOS
def test_step_loop_matches_the_allocating_reference(scenario):
    news, refs, batch = _solve_with(scenario, reference_run)
    for new, ref in zip(news, refs):
        assert _same_bits(new.t, ref.t)
        assert _same_bits(new.boundary_out, ref.boundary_out)
        assert _same_bits(new.boundary_in, ref.boundary_in)
        if not batch:
            assert len(new.snapshot_t) == len(ref.snapshot_t) > 0
            assert _same_bits(new.snapshot_t, ref.snapshot_t)
            assert _same_bits(new.snapshot_fields, ref.snapshot_fields)
            assert _same_bits(new.snapshot_sigma, ref.snapshot_sigma)
            assert _same_bits(new.k_spectra.t, ref.k_spectra.t)
            assert _same_bits(new.k_spectra.magnitude, ref.k_spectra.magnitude)
        assert new.window_energies == ref.window_energies
        scale = np.max(ref.coherence_norm)
        assert scale > 0
        assert np.max(np.abs(new.coherence_norm - ref.coherence_norm)) <= 1e-14 * scale


@SCENARIOS
def test_taylor_steps_move_the_outputs_of_staged_rk4_by_roundoff(scenario):
    """The Taylor form is staged RK4's map in exact arithmetic: each boundary
    trace stays within 1e-13 of its peak, and each window energy E within
    1e-13 of sqrt(E E_max), the shift such a trace error makes in a window of
    energy E (1e-13 relative in the brightest window)."""
    news, refs, _ = _solve_with(scenario, staged_reference_run)
    for new, ref in zip(news, refs):
        peak = np.max(np.abs(ref.boundary_out), axis=0)
        assert np.all(np.max(np.abs(new.boundary_out - ref.boundary_out), axis=0) <= 1e-13 * peak)
        largest = max(ref.window_energies.values())
        for name, energy in ref.window_energies.items():
            shift = abs(new.window_energies[name] - energy)
            assert shift <= 1e-13 * math.sqrt(energy * largest), name


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
    flat[: SPECIAL.size] = SPECIAL[: flat.size]
    return flat.reshape(shape)


def _complex(rng, shape):
    return _values(rng, shape) + 1j * _values(rng, shape)[..., ::-1]


def _hand_set_record(n_channels, n_snap=3):
    rng = np.random.default_rng(n_channels)
    nz = 16
    config = storage_config(nz=nz)
    if n_channels == 2:
        config = preset_family("freq-domain").config_for_phase(0.0)
    z = np.concatenate([[-0.0, 5e-324, 1e16], np.linspace(0.1, 1.0, nz - 3)])
    times = np.array([0.0, -0.0, 1e16][:n_snap])
    snapshots = [(_complex(rng, (n_channels, nz)), _complex(rng, (nz,))) for _ in times]
    spectra = KSpectrumHistory(t=times, k=_values(rng, (nz,)),
                               magnitude=np.abs(_values(rng, (n_snap, nz))))
    # boundary parts are set directly: re + 1j*im would turn -0.0 into 0.0
    n_t = SPECIAL.size
    out, inp = (np.empty((n_t, n_channels), dtype=complex) for _ in range(2))
    for part in (out.real, out.imag, inp.real, inp.imag):
        part[...] = _values(rng, (n_t, n_channels))
    return SimulationRecord(
        config=config, t=_values(rng, (n_t,)), z=z, boundary_out=out, boundary_in=inp,
        snapshot_t=times,
        snapshot_fields=np.array([f for f, _ in snapshots], dtype=complex).reshape(n_snap, n_channels, nz),
        snapshot_sigma=np.array([s for _, s in snapshots], dtype=complex).reshape(n_snap, nz),
        k_spectra=spectra, window_energies={}, snapshot_stride=1, coherence_norm=np.zeros(n_t),
    )


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("writer, reference", [
    (io.write_boundary_csv, reference_write_boundary_csv),
    (io.write_snapshots_csv, reference_write_snapshots_csv),
    (io.write_kspectra_csv, reference_write_kspectra_csv),
], ids=["boundary", "snapshots", "kspectra"])
def test_csv_writers_match_the_per_scalar_reference(tmp_path, writer, reference, n_channels):
    record = _hand_set_record(n_channels)
    writer(record, tmp_path / "new.csv", config_sha256(record.config))
    reference(record, tmp_path / "ref.csv")
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert b",-0.0," in written and b"5e-324" in written and b"1e+16" in written


def _stream_snapshots(record, path, config_hash):
    """Write snapshots.csv as `run` drives the writer: fill each snapshot, then publish it."""
    nch = record.boundary_out.shape[1]
    with io.SnapshotWriter(path) as writer:
        t, fields, sigma, _ = writer.allocate(len(record.snapshot_t), nch, record.z)
        for i in range(len(t)):
            t[i], fields[i], sigma[i] = record.snapshot_t[i], record.snapshot_fields[i], record.snapshot_sigma[i]
            writer.publish(i)
        writer.close(config_hash)
    return writer


def _reaped(pid):
    """Whether the child `pid` has exited and been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("n_blocks", [0, 1, 2, 3], ids=["empty", "single", "even", "odd"])
@pytest.mark.parametrize("writer, reference", [
    (_stream_snapshots, reference_write_snapshots_csv),
    (io.write_kspectra_csv, reference_write_kspectra_csv),
], ids=["snapshots", "kspectra"])
def test_split_writers_match_the_reference_at_every_split(tmp_path, writer, reference, n_blocks):
    """The streamed snapshot writer, whose forked child formats each block the
    solver publishes, and the k-spectrum writer, at every block count."""
    for n_channels in (1, 2):
        record = _hand_set_record(n_channels, n_blocks)
        writer(record, tmp_path / "new.csv", config_sha256(record.config))
        reference(record, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


needs_fork = pytest.mark.skipif(sys.platform != "linux", reason="the snapshot writer forks only on Linux")


def _no_fork():
    raise AssertionError("forked where the snapshot writer should format in-process")


def test_a_process_with_other_threads_does_not_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(io.os, "fork", _no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        record = _hand_set_record(1)
        _stream_snapshots(record, tmp_path / "new.csv", config_sha256(record.config))
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    reference_write_snapshots_csv(record, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_other_platforms_format_in_process(tmp_path, monkeypatch):
    monkeypatch.setattr(io.os, "fork", _no_fork)
    monkeypatch.setattr(io.sys, "platform", "darwin")
    record = _hand_set_record(2)
    _stream_snapshots(record, tmp_path / "new.csv", config_sha256(record.config))
    reference_write_snapshots_csv(record, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _note_children(monkeypatch):
    """The pid of every snapshot writer's child, as each is forked."""
    allocate, children = io.SnapshotWriter.allocate, []

    def allocate_and_note(self, *args):
        arrays = allocate(self, *args)
        children.append(self.pid)
        return arrays

    monkeypatch.setattr(io.SnapshotWriter, "allocate", allocate_and_note)
    return children


@needs_fork
def test_a_child_that_cannot_write_raises_naming_its_file(tmp_path, monkeypatch):
    children = _note_children(monkeypatch)
    target = tmp_path / "new.csv"
    target.mkdir()  # the child's open fails; the directory is not the writer's to remove
    with pytest.raises(IsADirectoryError, match=r"new\.csv"):
        _stream_snapshots(_hand_set_record(1), target, "0" * 64)
    [child] = children
    assert child is not None and _reaped(child)
    assert [p.name for p in tmp_path.iterdir()] == ["new.csv"] and target.is_dir()


@needs_fork
def test_a_child_that_fails_after_opening_its_file_raises(tmp_path, monkeypatch):
    children = _note_children(monkeypatch)
    parent, rows = os.getpid(), io._rows

    def rows_failing_in_the_child(*columns):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed in the child")
        return rows(*columns)

    monkeypatch.setattr(io, "_rows", rows_failing_in_the_child)
    with pytest.raises(OSError, match=r"new\.csv: the snapshot writer failed"):
        _stream_snapshots(_hand_set_record(1), tmp_path / "new.csv", "0" * 64)
    [child] = children
    assert child is not None and _reaped(child)
    assert list(tmp_path.iterdir()) == []


@needs_fork
def test_a_failing_solve_kills_and_reaps_the_child(tmp_path, monkeypatch):
    parent, rows = os.getpid(), io._rows

    def rows_slow_in_the_child(*columns):
        if os.getpid() != parent:
            time.sleep(60)  # the child is still busy when the solve fails
        return rows(*columns)

    children = _note_children(monkeypatch)
    monkeypatch.setattr(io, "_rows", rows_slow_in_the_child)
    record = _hand_set_record(1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="solve failed"):
        with io.SnapshotWriter(tmp_path / "new.csv") as writer:
            writer.allocate(len(record.snapshot_t), 1, record.z)
            writer.publish(0)
            raise RuntimeError("solve failed")
    assert time.perf_counter() - start < 30
    [child] = children
    assert child is not None and _reaped(child)
    assert list(tmp_path.iterdir()) == []


@needs_fork
def test_a_second_allocate_of_the_same_shape_returns_the_same_store(tmp_path, monkeypatch):
    # a run continuing one that stopped early fills the store that run began
    children = _note_children(monkeypatch)
    record = _hand_set_record(2)
    nch, n = record.boundary_out.shape[1], len(record.snapshot_t)
    rows = (record.snapshot_t, record.snapshot_fields, record.snapshot_sigma, record.k_spectra.magnitude)
    with io.SnapshotWriter(tmp_path / "new.csv") as writer:
        store = writer.allocate(n, nch, record.z)
        for a, b in zip(store, rows):
            a[0] = b[0]
        writer.publish(0)  # the early-stopped run's snapshot
        again = writer.allocate(n, nch, record.z)
        assert len(again) == 4 and all(a is b for a, b in zip(again, store))
        with pytest.raises(ValueError, match="shape"):
            writer.allocate(n + 1, nch, record.z)
        for i in range(1, n):
            for a, b in zip(store, rows):
                a[i] = b[i]
            writer.publish(i)
        writer.close(config_sha256(record.config))
    first, second = children  # one child, there after both allocates
    assert first is not None and first == second and _reaped(first)
    reference_write_snapshots_csv(record, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
