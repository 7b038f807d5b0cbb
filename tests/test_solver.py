"""Integrator behaviour: propagation, storage, conservation, diagnostics."""

import math
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from gemsim import io, oracle, solver
from gemsim.analysis import _grams, _solve, mismatch_curve, scan_both_ports
from gemsim.errors import EmptySpectrum, NoCrossing, NonFinite, StabilityBound
from gemsim.model import (
    CoherenceState,
    CouplingChannel,
    CouplingSchedule,
    CouplingSegment,
    EnsembleParams,
    FieldState,
    GradientProfile,
    GradientSegment,
    GridSpec,
    canonical_json,
    config_sha256,
    config_to_dict,
    validate,
)
from gemsim.solver import (
    crossing_phase,
    k_centroid_track,
    k_grid,
    maxwell_residual,
    polariton_spectrum,
    run,
    run_many,
    _time_grid,
)
from gemsim.scenarios import preset_family
from conftest import one_pulse_configs, storage_config
from test_reference import reference_run, reference_write_boundary_csv


def total_flux(record):
    out = np.trapezoid(np.sum(np.abs(record.boundary_out) ** 2, axis=1), record.t)
    inc = np.trapezoid(np.sum(np.abs(record.boundary_in) ** 2, axis=1), record.t)
    return inc, out


# ---------------------------------------------------------------------------
# free field and storage basics
# ---------------------------------------------------------------------------

def test_free_field_passes_unchanged():
    """With the coupling off the envelope crosses the cell losslessly.

    The solver works in the co-moving frame, so the lab-frame transit
    delay L/c is absorbed into the time axis of the output trace.
    """
    config = storage_config()
    off = replace(
        config,
        coupling=CouplingSchedule((CouplingChannel((CouplingSegment(0.0, 0.0),)),)),
    )
    record = run(off)
    assert np.array_equal(record.boundary_out, record.boundary_in)
    inc, out = total_flux(record)
    assert out == pytest.approx(inc, rel=1e-9)
    assert np.max(record.coherence_norm) == 0.0


@pytest.mark.parametrize("beta", [0.25, 0.7])
def test_write_read_efficiency_matches_splitter_law(beta):
    record = run(storage_config(beta=beta))
    u_in = record.input_energy()
    r = oracle.reflectivity(beta)
    assert record.window_energies["E1"] / u_in == pytest.approx(r * r, rel=0.05)
    assert record.window_energies["E2"] / u_in == pytest.approx(
        r * r * oracle.transmissivity(beta), rel=0.05
    )


def test_echo_is_centred_at_the_mirror_time():
    record = run(storage_config(beta=0.5))
    w0, w1 = record.config.windows["E1"]
    mask = (record.t >= w0) & (record.t <= w1)
    power = np.abs(record.boundary_out[mask, 0]) ** 2
    centroid = np.trapezoid(record.t[mask] * power, record.t[mask]) / np.trapezoid(power, record.t[mask])
    assert centroid == pytest.approx(4.0, abs=0.05)  # 2*t_flip - t_probe = 2*2.6 - 1.2


def test_energy_bookkeeping_closes():
    record = run(storage_config(beta=0.5, dt_factor=0.4))
    inc, out = total_flux(record)
    closure = record.coherence_norm[-1] + out - inc
    assert abs(closure) / inc < 1e-4
    # pointwise along the run as well
    flux_in = np.cumsum(np.convolve(np.sum(np.abs(record.boundary_in) ** 2, axis=1), [0.5, 0.5])[1:-1] * np.diff(record.t))
    flux_out = np.cumsum(np.convolve(np.sum(np.abs(record.boundary_out) ** 2, axis=1), [0.5, 0.5])[1:-1] * np.diff(record.t))
    drift = record.coherence_norm[1:] + flux_out - flux_in
    assert np.max(np.abs(drift)) / inc < 1e-4


def test_stored_norm_decays_at_twice_gamma0():
    gamma0 = 0.06
    config = storage_config(beta=0.25, gamma0=gamma0, two_echo=False)
    # switch the coupling off during the dephased hold
    omega = config.coupling.channels[0].segments[0].omega
    coupling = CouplingSchedule((CouplingChannel((
        CouplingSegment(0.0, omega),
        CouplingSegment(2.45, 0.0),
        CouplingSegment(3.1, omega),
    )),))
    record = run(replace(config, coupling=coupling))
    i0 = np.searchsorted(record.t, 2.5)
    i1 = np.searchsorted(record.t, 3.05)
    ratio = record.coherence_norm[i1] / record.coherence_norm[i0]
    expected = math.exp(-2 * gamma0 * (record.t[i1] - record.t[i0]))
    assert ratio == pytest.approx(expected, rel=1e-2)


def test_linearity_and_global_phase():
    base = run(storage_config())
    amp = 0.37 - 0.82j
    scaled = run(storage_config(probe_amplitude=amp))
    assert np.allclose(scaled.boundary_out, amp * base.boundary_out, rtol=1e-10, atol=1e-13)
    for name in base.window_energies:
        assert scaled.window_energies[name] == pytest.approx(
            abs(amp) ** 2 * base.window_energies[name], rel=1e-9, abs=1e-15
        )
    # a common phase on pulse and coupling leaves every energy unchanged
    rotated = run(storage_config(omega_phase=0.83, probe_amplitude=np.exp(0.83j)))
    for name in base.window_energies:
        assert rotated.window_energies[name] == pytest.approx(
            base.window_energies[name], rel=1e-7, abs=1e-15
        )


def test_grid_convergence_of_window_energies():
    coarse = run(storage_config(beta=0.4, nz=256))
    g = coarse.config.grid
    fine = run(
        replace(coarse.config, grid=GridSpec(nz=512, nt=2 * g.nt, t_end=g.t_end))
    )
    for name in coarse.window_energies:
        assert coarse.window_energies[name] == pytest.approx(
            fine.window_energies[name], rel=0.01, abs=1e-12
        )


def test_window_energy_converges_at_fourth_order_in_dt():
    """Where the controls are constant, the step is fourth order, drive included.

    The gradient does not switch, so every step takes the Taylor form (none
    reads a switch at its end), and the probe is cut below 1e-12 of its peak.
    The window is the whole run: its edges are nodes at every dt, the output
    power has no kink inside it, and the trapezoid's dt^2 edge term stays far
    below the step error.  Errors are against 8x finer steps at the same nz.
    """
    config = storage_config(nz=64)
    config = replace(config, gradient=GradientProfile((GradientSegment(0.0, 20.0),)),
                     pulses=(replace(config.pulses[0], sigma=0.15, truncate=7.5),),
                     windows={"all": (0.0, config.grid.t_end)})
    assert math.exp(-0.5 * 7.5**2) < 1e-12

    def energy(refine):
        grid = replace(config.grid, nt=refine * config.grid.nt)
        record = run(replace(config, grid=grid), stride=0)
        assert record.diagnostics["staged_steps"] == 0
        return record.window_energies["all"]

    fine = energy(8)
    errors = [abs(energy(refine) - fine) / fine for refine in (1, 2)]
    assert errors[1] > 1e-12  # well above roundoff
    assert math.log2(errors[0] / errors[1]) >= 3.5, errors


def test_initial_coherence_is_recalled():
    config = replace(storage_config(beta=0.6, two_echo=False), pulses=())
    nz = config.grid.nz
    z = np.linspace(0, 1.0, nz)
    k0 = +40.0  # pre-dephased packet; transport at -eta brings it to k=0 at t=2
    sigma0 = np.exp(-0.5 * ((z - 0.5) / 0.1) ** 2) * np.exp(1j * k0 * z)
    record = run(config, start=sigma0)
    assert record.coherence_norm[0] > 0
    inc, out = total_flux(record)
    assert inc == 0.0
    assert out > 0.5 * oracle.reflectivity(0.6) * record.coherence_norm[0]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_stability_bound_raised():
    config = storage_config()
    bad = replace(config, grid=GridSpec(config.grid.nz, config.grid.nt // 50, config.grid.t_end))
    with pytest.raises(StabilityBound):
        run(bad)


def test_modulation_only_violation_is_refused_by_run():
    from gemsim.scenarios import preset_family

    config = preset_family("freq-domain", beat_note=True).config_for_phase(0.0)
    [channel] = config.coupling.channels
    # a faster beat note than the grid was sized for: 0.1/40 < dt = 0.004
    faster = replace(channel, modulation=replace(channel.modulation, freq=-40.0))
    bad = replace(config, coupling=CouplingSchedule((faster,)))
    failures = validate(bad).failures
    assert len(failures) == 1 and "modulation bound" in failures[0]
    with pytest.raises(StabilityBound, match="modulation bound"):
        run(bad)


def test_nonfinite_reports_step_and_magnitude():
    # an input so strong that the coherence norm N |sigma|^2 overflows
    wild = storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=1e160)
    with pytest.raises(NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        run(wild, stride=1)
    assert err.value.step > 0
    assert err.value.max_abs > 1.0


# probe amplitudes whose coherence norm overflows at steps 1, 33 and 620 of
# the nz-64 storage run below: at different offsets within a block of nodes
# whose norms are taken together, for one state row and for three
BLOW_UP_AMPLITUDES = (1e160, 3e158, 1e156)


def _wild(amplitude):
    return storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=amplitude)


def _blow_up(solve, config):
    """The (step, time, max_abs) of the NonFinite that solving config raises."""
    with pytest.raises(NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        solve(config)
    return err.value.step, err.value.time, err.value.max_abs


def _norm(state, z, n_density):
    """A state's coherence norm, as the step loop takes it."""
    weights = np.full(len(z), complex(z[1] - z[0]))
    weights[[0, -1]] *= 0.5
    return n_density * np.vecdot(state, weights * state).real


# the first amplitude's cases are named by their form alone
@pytest.mark.parametrize("batch, copies, amplitude", [
    pytest.param(batch, copies, amplitude,
                 id=name if amplitude == BLOW_UP_AMPLITUDES[0] else f"{name}-{amplitude:g}")
    for amplitude in BLOW_UP_AMPLITUDES
    for name, batch, copies in [("default", False, 1), ("per-pulse", True, 1), ("per-pulse-duplicate-rows", True, 2)]])
def test_nonfinite_is_reported_at_the_step_it_happens(batch, copies, amplitude):
    single = _wild(amplitude)
    wild = replace(single, pulses=single.pulses * copies)

    # no diagnostics strides inside the run: the check must not depend on them
    def solve(config):
        return run_many(one_pulse_configs(config)) if batch else run(config, stride=10**6)

    step, time, max_abs = _blow_up(solve, wild)
    n_steps = len(_time_grid(wild)) - 1
    assert 0 < step < n_steps
    assert time < wild.grid.t_end
    if copies > 1:
        # equal one-pulse configs share one row, which blows up where the single pulse's row does
        assert (step, time, max_abs) == _blow_up(solve, single)


def test_blow_ups_fall_at_different_offsets_within_a_block():
    steps = [_blow_up(lambda c: run(c, stride=0), _wild(a))[0] for a in BLOW_UP_AMPLITUDES]
    for rows in (1, 3):
        block = solver.NORM_RING // (rows * 64)
        assert len({step % block for step in steps}) == len(steps), (rows, steps)


def test_a_blow_up_in_a_batch_is_reported_at_its_own_step():
    tame = storage_config(eta=100.0, nz=64, two_echo=False)
    wild = _wild(1e160)
    assert _time_grid(tame).tobytes() == _time_grid(wild).tobytes()  # rows of one state
    assert _blow_up(run_many, [tame, wild]) == _blow_up(lambda c: run(c, stride=0), wild)


@pytest.mark.parametrize("amplitude", BLOW_UP_AMPLITUDES)
def test_a_blow_up_in_the_middle_row_is_reported_at_its_first_nonfinite_node(amplitude):
    wild = _wild(amplitude)
    batch = [storage_config(eta=100.0, nz=64, two_echo=False), wild,
             storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=0.5j)]
    batched = _blow_up(run_many, batch)
    assert batched == _blow_up(lambda c: run(c, stride=0), wild)
    # the first node of the allocating reference whose state has a norm that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_run(wild, stride=1)
        norms = _norm(ref.snapshot_sigma, ref.z, wild.ensemble.n_density)
    m = int(np.flatnonzero(~np.isfinite(norms))[0])
    state = ref.snapshot_sigma[m]
    finite = np.abs(state[np.isfinite(state)])
    assert batched == (m, float(ref.t[m]), float(finite.max()) if finite.size else math.inf)


def test_run_requires_matching_initial_coherence():
    config = storage_config()
    with pytest.raises(ValueError):
        run(config, start=np.zeros(7, dtype=complex))


# ---------------------------------------------------------------------------
# record bookkeeping
# ---------------------------------------------------------------------------

def test_window_energies_are_recomputable():
    record = run(storage_config())
    assert record.window_energies == record.recompute_window_energies()
    assert record.snapshot_stride >= 1


def test_stride_sets_what_a_run_records():
    config = storage_config(nz=64)
    bare = run(config, stride=0)
    assert bare.snapshots == [] and bare.k_spectra.magnitude.size == 0 and bare.snapshot_stride == 0
    # the empty store keeps its shapes and dtypes, as record.npz holds them
    assert (bare.snapshot_t.shape, bare.snapshot_fields.shape, bare.snapshot_sigma.shape) == ((0,), (0, 1, 64), (0, 64))
    assert bare.snapshot_fields.dtype == bare.snapshot_sigma.dtype == complex
    assert bare.k_spectra.magnitude.shape == (0, 64)
    sampled = run(config, stride=500)
    n_steps = len(sampled.t) - 1
    expected = [m for m in range(n_steps + 1) if m % 500 == 0 or m == n_steps]
    assert [fs.t for fs, _ in sampled.snapshots] == list(sampled.t[expected])
    assert np.array_equal(sampled.k_spectra.t, sampled.t[expected])
    assert np.array_equal(bare.boundary_out, sampled.boundary_out)
    assert bare.window_energies == sampled.window_energies
    with pytest.raises(ValueError):
        run(config, stride=-1)


@pytest.mark.parametrize("config", [
    storage_config(nz=64), preset_family("freq-domain").config_for_phase(0.4),
], ids=["storage", "freq-domain"])
def test_run_until_keeps_the_prefix_of_the_full_run(config):
    until = config.windows["E1"][1]
    full = run(config, stride=0)
    short = run(config, stride=0, until=until)
    n = len(short.t) - 1
    assert short.t[n] >= until > short.t[n - 1]
    assert n < len(full.t) - 1
    assert np.array_equal(short.t, full.t[: n + 1])
    assert np.array_equal(short.boundary_out, full.boundary_out[: n + 1])
    assert np.array_equal(short.boundary_in, full.boundary_in[: n + 1])
    assert np.array_equal(short.coherence_norm, full.coherence_norm[: n + 1])
    assert short.window_energies["E1"] == full.window_energies["E1"]
    for bad in (math.nan, 0.0, config.grid.t_end * 1.01):
        with pytest.raises(ValueError, match="until"):
            run(config, stride=0, until=bad)

    # the snapshot plan is the whole grid's: an early-stopped record holds the
    # whole run's first snapshots and k-spectra, those before its last node
    stride = 37
    full = run(config, stride)
    short = run(config, stride, until=until)
    k = -(-n // stride)
    assert len(short.snapshots) == len(short.k_spectra.magnitude) == k and short.snapshot_stride == stride
    assert _snapshot_bits(short) == _snapshot_bits(full)[: 3 * k]
    assert short.k_spectra.magnitude.tobytes() == full.k_spectra.magnitude[:k].tobytes()
    assert short.k_spectra.t.tobytes() == full.k_spectra.t[:k].tobytes()

    # a run continuing the record repeats the whole run, whether a snapshot is
    # due at its first node or not, and with no snapshots at all
    t = _time_grid(config)
    for stride in (stride, 0):
        full = run(config, stride)
        for node in (n, stride * (n // stride) if stride else n // 2):
            prefix = run(config, stride, until=float(t[node]))
            assert len(prefix.t) == node + 1
            continued = run(config, stride, start=prefix)
            assert _record_bits(continued) == _record_bits(full), (stride, node)
            assert continued.diagnostics["steps_integrated"] == len(t) - 1 - node


def test_norm_blocks_keep_each_nodes_bits():
    """The norms taken per block of nodes are each node's own, to the bit: in a
    run whose integrated nodes do not fill whole blocks, in an `until` prefix
    ending inside a block, and in its continuation."""
    config = storage_config(nz=64)
    block = solver.NORM_RING // 64

    def check(record, nodes):
        expected = _norm(record.snapshot_sigma[:nodes], record.z, config.ensemble.n_density)
        assert record.coherence_norm[:nodes].tobytes() == expected.tobytes()

    full = run(config, stride=1)
    n_steps = len(full.t) - 1
    m0 = n_steps - full.diagnostics["steps_integrated"]
    assert (n_steps + 1 - m0) % block != 0
    check(full, n_steps + 1)
    node = m0 + 3 * block + 5
    prefix = run(config, stride=1, until=float(full.t[node]))
    assert len(prefix.t) == node + 1 and len(prefix.snapshot_sigma) == node  # its last node's is left
    check(prefix, node)
    assert prefix.coherence_norm[node] == _norm(prefix.coherence_end, full.z, config.ensemble.n_density)
    continued = run(config, stride=1, start=prefix)
    check(continued, n_steps + 1)
    assert continued.coherence_norm.tobytes() == full.coherence_norm.tobytes()


def test_record_round_trip(tmp_path):
    record = run(storage_config(), stride=400)
    path = tmp_path / "record.npz"
    io.save_record(record, path, config_sha256(record.config))
    with np.load(path) as data:  # pickle off: every array is plain data
        assert all(data[name].dtype != object for name in data.files)
    with zipfile.ZipFile(path) as archive:
        assert all(member.compress_type == zipfile.ZIP_STORED for member in archive.infolist())
    loaded = io.load_record(path)
    assert record.diagnostics and loaded.diagnostics == {}  # not part of the file
    assert len(record.snapshot_t) > 1
    for name in RECORD_ARRAYS:
        a, b = _record_array(loaded, name), _record_array(record, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert loaded.window_energies == record.window_energies
    assert loaded.snapshot_stride == record.snapshot_stride
    assert loaded.config == record.config


RECORD_ARRAYS = ("t", "z", "boundary_out", "boundary_in", "snapshot_t", "snapshot_fields", "snapshot_sigma",
                 "k_spectra.t", "k_spectra.k", "k_spectra.magnitude", "coherence_norm")


def _record_array(record, name):
    for attr in name.split("."):
        record = getattr(record, attr)
    return record


def test_save_record_writes_the_snapshot_arrays_without_stacking_copies(tmp_path):
    record = run(storage_config())
    path = tmp_path / "record.npz"
    tracemalloc.start()
    try:
        io.save_record(record, path, config_sha256(record.config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.snapshot_fields.nbytes > 10 * record.boundary_out.nbytes
    assert peak < 0.1 * record.snapshot_fields.nbytes


def _savez_members(record, config_hash):
    """The members record.npz holds, as `np.savez` is given them: the 0-d strings as str."""
    names = sorted(record.window_energies)
    return dict(
        config_json=canonical_json(config_to_dict(record.config)), config_sha256=config_hash,
        t=record.t, z=record.z, boundary_out=record.boundary_out, boundary_in=record.boundary_in,
        snap_t=record.snapshot_t, snap_fields=record.snapshot_fields, snap_sigma=record.snapshot_sigma,
        kspec_t=record.k_spectra.t, kspec_k=record.k_spectra.k, kspec_mag=record.k_spectra.magnitude,
        window_names=np.array(names, dtype=str), window_values=np.array([record.window_energies[k] for k in names]),
        strides=np.array([record.snapshot_stride] * 2), coherence_norm=record.coherence_norm,
    )


def _not_contiguous(record):
    """The record with Fortran-ordered snapshot arrays, and t and boundary_in as strided views."""
    def strided(a):
        spread = np.zeros((2 * len(a),) + a.shape[1:], a.dtype)
        spread[::2] = a
        return spread[::2]
    return replace(record, t=strided(record.t), boundary_in=strided(record.boundary_in),
                   snapshot_fields=np.asfortranarray(record.snapshot_fields),
                   snapshot_sigma=np.asfortranarray(record.snapshot_sigma))


@pytest.mark.parametrize("stride, layout", [(400, None), (0, None), (400, _not_contiguous)],
                         ids=["stride-400", "stride-0", "stride-400-not-contiguous"])
def test_save_record_writes_the_bytes_of_np_savez(tmp_path, stride, layout):
    record = run(storage_config(nz=64), stride=stride)
    if layout is not None:
        record = layout(record)
        assert not any(a.flags.c_contiguous for a in (record.t, record.boundary_in, record.snapshot_sigma))
        assert record.snapshot_sigma.flags.f_contiguous
    sha = config_sha256(record.config)
    io.save_record(record, tmp_path / "record.npz", sha)
    np.savez(tmp_path / "savez.npz", **_savez_members(record, sha))
    assert (tmp_path / "record.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()
    with np.load(tmp_path / "record.npz") as data:
        assert data["config_json"].shape == data["config_sha256"].shape == ()
        assert str(data["config_sha256"]) == sha
        assert (data["snap_fields"].shape[0] == 0) == (stride == 0)


def test_load_record_reads_an_empty_store_saved_without_shapes(tmp_path):
    # a stride-0 record.npz once held its empty snapshot and k-spectrum
    # arrays as np.array([]): shape (0,), float
    record = run(storage_config(nz=64), stride=0)
    io.save_record(record, tmp_path / "record.npz", config_sha256(record.config))
    with np.load(tmp_path / "record.npz") as data:
        arrays = dict(data)
    for name in ("snap_t", "snap_fields", "snap_sigma", "kspec_t", "kspec_mag"):
        arrays[name] = np.array([])
    np.savez(tmp_path / "flat.npz", **arrays)
    loaded = io.load_record(tmp_path / "flat.npz")
    for name in ("snapshot_t", "snapshot_fields", "snapshot_sigma", "k_spectra.t", "k_spectra.magnitude"):
        a = _record_array(loaded, name)
        assert (a.shape, a.dtype) == ((0,), float), name
    assert loaded.snapshots == [] and loaded.snapshot_stride == 0
    assert loaded.boundary_out.tobytes() == record.boundary_out.tobytes()
    assert loaded.window_energies == record.window_energies


def test_load_record_refuses_object_arrays(tmp_path):
    record = run(storage_config(nz=64), stride=500)
    io.save_record(record, tmp_path / "record.npz", config_sha256(record.config))
    with np.load(tmp_path / "record.npz") as data:
        arrays = dict(data)
    arrays["window_names"] = np.array(list(arrays["window_names"]), dtype=object)
    np.savez(tmp_path / "pickled.npz", **arrays)
    with pytest.raises(ValueError):
        io.load_record(tmp_path / "pickled.npz")


def test_per_pulse_rows_superpose_to_the_direct_run():
    config = storage_config(nz=64)
    probe = config.pulses[0]
    two = replace(config, pulses=(probe, replace(probe, t0=1.6, amplitude=0.5j, label="second")))
    direct = run(two)
    rows = run_many(one_pulse_configs(two))
    assert all(len(r.t) == len(direct.t) and r.snapshot_t.size == 0 for r in rows)
    scale = np.abs(direct.boundary_out).max()
    superposed = rows[0].boundary_out + rows[1].boundary_out
    assert np.allclose(superposed, direct.boundary_out, rtol=0.0, atol=1e-13 * scale)
    ones = np.ones(2)
    for name, gram in _grams(rows).items():
        assert np.allclose(gram, np.conj(gram.T))
        assert np.real(ones @ gram @ ones) == pytest.approx(direct.window_energies[name], rel=1e-12)


def test_batched_per_pulse_solves_match_lone_runs(fast_fig2_family):
    # ten powers share a grid, nine of them solved together (18 rows, so two
    # solves) and power 1 continuing the calibration records; power 60 has its own
    powers = [0.05, 0.3, 60.0, 0.5, 0.8, 1.0, 1.4, 2.0, 2.7, 3.3, 4.0]
    bases = [fast_fig2_family.basis(p) for p in powers]
    rows = [row for basis in bases for row in basis]
    assert len({_time_grid(c).tobytes() for c, _ in rows}) == 2
    assert [start is not None for _, start in rows] == [p == 1.0 for p in powers for _ in range(2)]
    batched = _solve(rows)
    assert all(r.config is c for r, (c, _) in zip(batched, rows))  # input order
    lone = [run(config, stride=0) for config, _ in rows]
    for record, alone in zip(batched, lone):
        assert _record_bits(record) == _record_bits(alone)
    for k in range(0, len(rows), 2):
        grams, lone_grams = _grams(batched[k:k + 2]), _grams(lone[k:k + 2])
        assert grams.keys() == lone_grams.keys()
        assert all(grams[name].tobytes() == lone_grams[name].tobytes() for name in grams)


def test_rows_share_a_solve_only_where_they_take_the_same_step_form():
    # an event at t = 3 in all three configs; the coupling steps there in two
    # of them, whose step into t = 3 takes the staged form, and not in the
    # first, whose step takes the Taylor form as in its lone run
    config = storage_config(nz=64)
    omega = config.coupling.channels[0].segments[0].omega

    def coupling(after):
        return CouplingSchedule((CouplingChannel((CouplingSegment(0.0, omega), CouplingSegment(3.0, after))),))

    steady = replace(config, coupling=coupling(omega))
    stepped = replace(config, coupling=coupling(0.9 * omega))
    weaker = replace(stepped, pulses=(replace(stepped.pulses[0], amplitude=0.5),))
    configs = [steady, stepped, weaker]
    assert len({_time_grid(c).tobytes() for c in configs}) == 1
    batched = run_many(configs)
    assert [r.diagnostics["rows_integrated"] for r in batched] == [1, 2, 2]
    assert [r.diagnostics["staged_steps"] for r in batched] == [2, 3, 3]
    for config, record in zip(configs, batched):
        assert _record_bits(record) == _record_bits(run(config, stride=0))


@pytest.mark.parametrize("case", [
    "fig2-theta", "fig2-mu-1", "fig2-power-2", "time-domain", "freq-domain-0", "freq-domain-0.4", "beat-note",
])
def test_per_pulse_records_are_batches_of_one_pulse_runs(case, fast_fig2_family, td_family, fd_family):
    config = {
        "fig2-theta": lambda: fast_fig2_family.config_for_phase(fast_fig2_family.params.theta),
        "fig2-mu-1": lambda: fast_fig2_family.config_for_phase(0.0, mu=1.0),
        "fig2-power-2": lambda: fast_fig2_family.config_for_phase(0.0, power_factor=2.0),
        "time-domain": lambda: td_family.config_for_phase(0.0),
        "freq-domain-0": lambda: fd_family.config_for_phase(0.0),
        "freq-domain-0.4": lambda: fd_family.config_for_phase(0.4),
        "beat-note": lambda: preset_family("freq-domain", nz=128, beat_note=True).config_for_phase(0.7),
    }[case]()
    singles = one_pulse_configs(config)
    batched = run_many(singles)
    assert len(batched) == len(config.pulses) == 2
    for r, (single, record) in enumerate(zip(singles, batched)):
        assert single.pulses[r] is config.pulses[r]
        assert _time_grid(single).tobytes() == _time_grid(config).tobytes()
        assert _record_bits(record) == _record_bits(run(single, stride=0))
    lone = run(config, stride=0)
    twice = run_many([config, config])
    for record in twice:
        assert record.diagnostics["rows_integrated"] == 1
        assert _record_bits(record) == _record_bits(lone)


@pytest.mark.parametrize("family_fixture", ["fast_fig2_family", "td_family"])
def test_continued_basis_rows_hold_the_bits_of_uninterrupted_runs(family_fixture, request):
    # both rows continue a calibration record stopped where E1 closes, on the grid of the full run
    family = request.getfixturevalue(family_fixture)
    rows = family.basis()
    (probe, bare), (steering, raw) = rows
    assert bare is not None and raw is not None
    assert _time_grid(steering).tobytes() == _time_grid(probe).tobytes() == _time_grid(
        family.config_for_phase(0.0)).tobytes()
    for (config, start), record in zip(rows, _solve(rows)):
        whole = run(config, stride=0)
        assert _record_bits(record) == _record_bits(whole)
        assert record.diagnostics["steps_integrated"] == len(whole.t) - len(start.t)


@pytest.mark.parametrize("sweep", ["phase", "mismatch"])
def test_fig2_sweeps_integrate_at_most_20200_row_steps(sweep, monkeypatch):
    # calibration 7376 + 3751 row-steps, then 2 x 4500 for the two continued rows
    integrate, row_steps = solver._integrate, []

    def counted(*args, **kwargs):
        records = integrate(*args, **kwargs)
        row_steps.append(records[0].diagnostics["steps_integrated"] * records[0].diagnostics["rows_integrated"])
        return records

    monkeypatch.setattr(solver, "_integrate", counted)
    family = preset_family("fig2")
    family.calibrate()
    if sweep == "phase":
        scan_both_ports(family, [2.0 * math.pi * i / 16 for i in range(16)])
    else:
        mismatch_curve(family, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert sum(row_steps) <= 20200, row_steps


@pytest.mark.parametrize("solve, rows", [
    (lambda fd: [run(fd.config_for_phase(0.0), stride=0)], 1),
    (lambda fd: run_many([config for config, _ in fd.basis()]), 1),
    (lambda fd: run_many(one_pulse_configs(fd.config_for_phase(0.4))), 2),
], ids=["direct", "basis", "basis-off-phase-zero"])
def test_diagnostics_count_integrated_steps_and_rows(solve, rows, fd_family):
    # the freq-domain basis (phase 0) drives both pulses alike: one shared row
    for record in solve(fd_family):
        # the 149 steps before the pulses rise are skipped, and only the step
        # into the gradient reversal at t = 11 is staged
        assert len(record.t) - 1 == 2775
        assert record.diagnostics == {"steps_integrated": 2626, "rows_integrated": rows, "staged_steps": 1}


def test_fig2_main_solve_counts_its_steps(fig2_record_pi):
    diagnostics = fig2_record_pi.diagnostics
    assert diagnostics == {"steps_integrated": 11876, "rows_integrated": 1,
                           "staged_steps": diagnostics["staged_steps"]}
    assert 1 <= diagnostics["staged_steps"] <= 4  # the steps into a control switch


def test_a_beat_note_stages_every_step():
    # the modulated coupling changes stark and w2 at every stage
    record = run(preset_family("freq-domain", nz=128, beat_note=True).config_for_phase(0.7), stride=0)
    assert record.diagnostics["staged_steps"] == record.diagnostics["steps_integrated"] > 0


# Window energies of the preset configs `simulate` solves (time-domain presets
# at theta = pi, freq-domain at phi = pi), as the step loop computed them
# before dz/2 left the z-integral and the update became one dot product.
PINNED_ENERGIES = {
    "fig2": {"input": "0x1.08e2758ce75f0p-3", "E1": "0x1.9ed6094cf2135p-14", "E2": "0x1.37b591b2e9dc5p-1"},
    "time-domain": {"input": "0x1.a7aee6b11f611p-5", "E1": "0x1.dae8ba41ef6fap-10",
                    "E2": "0x1.ab809e4702538p+1"},
    "freq-domain": {"E1": "0x1.103fb8638c606p+2", "E2": "0x1.2c1d0962e289bp-106"},
}
# the freq-domain basis (phase 0) Gram matrices of that loop, all entries real
PINNED_BASIS_GRAMS = {
    "E1": [["0x1.155048e200063p+0", "-0x1.0b2f27e518ba5p+0"], ["-0x1.0b2f27e518ba5p+0", "0x1.155048e200063p+0"]],
    "E2": [["0x1.c4d497f082540p-1"] * 2] * 2,
}
ENERGY_RTOL = 1e-12  # how far a faster path may move window energies


@pytest.mark.parametrize("preset", sorted(PINNED_ENERGIES))
def test_window_energies_keep_their_pinned_values(preset, fig2_record_pi, td_family, fd_family):
    if preset == "fig2":
        energies = fig2_record_pi.window_energies
    else:
        family = td_family if preset == "time-domain" else fd_family
        energies = run(family.config_for_phase(math.pi), stride=0).window_energies
    pinned = {name: float.fromhex(h) for name, h in PINNED_ENERGIES[preset].items()}
    assert energies.keys() == pinned.keys()
    # freq-domain E2 at phi = pi is a dark port (1.4e-32, a cancellation's
    # roundoff): an energy below ENERGY_RTOL of the largest is held to
    # ENERGY_RTOL of that floor
    scale = max(pinned.values())
    for name, value in pinned.items():
        assert abs(energies[name] - value) <= ENERGY_RTOL * max(value, ENERGY_RTOL * scale), name


def test_basis_grams_keep_their_pinned_values(fd_family):
    grams = _grams(_solve(fd_family.basis()))
    assert grams.keys() == PINNED_BASIS_GRAMS.keys()
    for name, rows in PINNED_BASIS_GRAMS.items():
        pinned = np.array([[float.fromhex(h) for h in row] for row in rows])
        assert np.max(np.abs(grams[name] - pinned)) <= ENERGY_RTOL * np.max(np.abs(pinned)), name


def test_csv_exports(tmp_path):
    record = run(storage_config(nz=64, dt_factor=0.8), stride=500)
    sha = config_sha256(record.config)
    io.write_boundary_csv(record, tmp_path / "b.csv", sha)
    io.write_snapshots_csv(record, tmp_path / "s.csv", sha)
    io.write_kspectra_csv(record, tmp_path / "k.csv", sha)
    top, header = (tmp_path / "s.csv").read_text().splitlines()[:2]
    assert top == f"# config_sha256={sha}"
    assert header == "t,z,re_E0,im_E0,re_sigma,im_sigma"
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert len(lines) == len(record.t) + 2
    # boundary rows round-trip through repr exactly
    first = lines[2].split(",")
    assert float(first[1]) == record.boundary_out[0, 0].real


def test_boundary_csv_is_formatted_in_blocks_smaller_than_the_file(tmp_path):
    rng = np.random.default_rng(5)
    n = 10 * io._BLOCK_ROWS + 7  # ten whole blocks and a partial one
    out, inp = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)) for _ in range(2))
    record = replace(run(storage_config(nz=64), stride=0), t=np.linspace(0.0, 8.2, n), boundary_out=out,
                     boundary_in=inp)
    tracemalloc.start()
    try:
        io.write_boundary_csv(record, tmp_path / "b.csv", config_sha256(record.config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "b.csv").read_bytes()
    reference_write_boundary_csv(record, tmp_path / "ref.csv")
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert peak < len(written)


# ---------------------------------------------------------------------------
# continuing an early-stopped record
# ---------------------------------------------------------------------------

def _snapshot_bits(record):
    """The time, fields and coherence of each snapshot, as bytes."""
    return [np.array(a).tobytes() for fs, cs in record.snapshots for a in (fs.t, fs.fields, cs.sigma)]


def _record_bits(record):
    """Every array of a direct record, as bytes."""
    arrays = [record.t, record.boundary_out, record.boundary_in, record.coherence_norm, record.coherence_end,
              record.k_spectra.t, record.k_spectra.magnitude,
              np.array([record.window_energies[name] for name in sorted(record.window_energies)])]
    return [a.tobytes() for a in arrays] + _snapshot_bits(record)


@pytest.mark.parametrize("preset, overrides", [("fig2", {}), ("fig2", {"mode_mismatch": 0.7}), ("time-domain", {})],
                         ids=["fig2", "fig2-mismatch", "time-domain"])
def test_a_resumed_run_repeats_the_uninterrupted_one(preset, overrides):
    family = preset_family(preset, **overrides)
    config = family.config_for_phase(family.params.theta)
    e1 = family.windows["E1"]
    t = _time_grid(config)
    node = len(family.shared_prefix(0).t) - 1
    # the steering drive (and with it the mismatch) starts where E1 opens; the
    # step into that node reads it at its last stage, so no later node is shared
    assert t[node] < e1[0] == t[node + 1]
    with pytest.raises(ValueError, match="repeat"):
        run(config, 0, start=run(family.bare_config(), 0, until=float(t[node + 1])))
    divides = next(d for d in range(7, 100) if node % d == 0)
    misses = next(d for d in range(7, 100) if node % d)
    for stride in ([None, 0] if overrides else [divides, misses]):
        resumed, full = run(config, stride, start=family.shared_prefix(stride)), run(config, stride)
        assert _record_bits(resumed) == _record_bits(full), stride
        assert resumed.diagnostics["steps_integrated"] == len(full.t) - 1 - node


def _moved_probe(config):
    probe, steer = config.pulses
    return replace(config, pulses=(replace(probe, t0=probe.t0 + 1e-3), steer))


def _weaker_probe(config):
    probe, steer = config.pulses
    return replace(config, pulses=(replace(probe, amplitude=0.5), steer))


@pytest.mark.parametrize("branch_of, strides, match", [
    (lambda family: family.config_for_phase(math.pi, power_factor=60.0), (0, 0), "repeat"),  # a shorter step
    (lambda family: _moved_probe(family.config_for_phase(math.pi)), (0, 0), "repeat"),  # nodes moved, as many
    (lambda family: _weaker_probe(family.config_for_phase(math.pi)), (0, 0), "repeat"),  # the grid kept, the drive not
    (lambda family: family.config_for_phase(math.pi), (40, 30), "stride"),
], ids=["power-60", "moved-grid", "other-drive", "other-stride"])
def test_a_run_that_does_not_repeat_its_record_is_refused(fast_fig2_family, branch_of, strides, match):
    prefix = fast_fig2_family.shared_prefix(strides[0])
    with pytest.raises(ValueError, match=match):
        run(branch_of(fast_fig2_family), strides[1], start=prefix)


# ---------------------------------------------------------------------------
# polariton diagnostics
# ---------------------------------------------------------------------------

def test_polariton_spectrum_zero_states():
    nz = 64
    params = EnsembleParams(n_density=3.0, delta=2.0)
    fs = FieldState(t=0.0, fields=np.zeros((1, nz), dtype=complex))
    cs = CoherenceState(t=0.0, sigma=np.zeros(nz, dtype=complex))
    _, psi = polariton_spectrum(fs, cs, params, omega_c=0.5)
    assert np.all(psi == 0)


def test_polariton_spectrum_single_mode_height():
    nz = 128
    params = EnsembleParams(n_density=3.0, delta=2.0, length=1.0)
    dz = params.length / (nz - 1)
    kvec = k_grid(nz, dz)
    k0 = kvec[9]
    z = np.linspace(0, params.length, nz)
    cs = CoherenceState(t=0.0, sigma=np.exp(1j * k0 * z))
    fs = FieldState(t=0.0, fields=np.zeros((1, nz), dtype=complex))
    k_sorted, psi = polariton_spectrum(fs, cs, params, omega_c=0.5)
    peak = int(np.argmax(np.abs(psi)))
    assert k_sorted[peak] == pytest.approx(k0)
    assert np.abs(psi[peak]) == pytest.approx(params.n_density * 0.5 / abs(params.delta), rel=1e-12)


def test_centroid_tracks_minus_eta_and_flips_sign():
    record = run(storage_config(beta=0.4, nz=512))
    track = k_centroid_track(record)
    tt = np.array([t for t, _ in track])
    kk = np.array([k for _, k in track])

    def fitted_slope(t0, t1):
        # restrict to the deeply dephased stretch, clear of the crossing
        mask = (tt >= t0) & (tt <= t1) & (np.abs(kk) >= 18.0)
        return np.polyfit(tt[mask], kk[mask], 1)[0]

    s1 = fitted_slope(2.0, 2.55)   # eta = +20 era
    s2 = fitted_slope(2.65, 3.6)   # eta = -20 era
    assert s1 == pytest.approx(-20.0, rel=0.02)
    assert s2 == pytest.approx(+20.0, rel=0.02)
    assert np.sign(s1) != np.sign(s2)


def test_empty_spectrum_raises():
    config = storage_config()
    silent = replace(
        config,
        pulses=(),
        coupling=CouplingSchedule((CouplingChannel((CouplingSegment(0.0, 0.0),)),)),
    )
    with pytest.raises(EmptySpectrum):
        k_centroid_track(run(silent))


def test_crossing_phase_is_pi_per_crossing():
    record = run(storage_config(beta=0.4, nz=512))
    jump = crossing_phase(record, record.config.windows["E1"])
    assert jump == pytest.approx(math.pi, abs=0.1)
    jump2 = crossing_phase(record, record.config.windows["E2"])
    assert jump2 == pytest.approx(math.pi, abs=0.1)
    # two successive recalls accumulate a full turn
    assert jump + jump2 == pytest.approx(2 * math.pi, abs=0.2)


def test_no_crossing_without_gradient_flip():
    config = storage_config(two_echo=False)
    held = replace(config, gradient=GradientProfile((GradientSegment(0.0, 20.0),)))
    record = run(held)
    with pytest.raises(NoCrossing):
        crossing_phase(record, (0.0, config.grid.t_end))


def test_maxwell_relation_at_recall():
    record = run(storage_config(beta=0.4, nz=512))
    recall_t = 4.0
    fs, cs = min(record.snapshots, key=lambda sc: abs(sc[0].t - recall_t))
    omega = complex(record.config.coupling.channels[0].omega_at(fs.t))
    residual = maxwell_residual(fs, cs, record.config.ensemble, omega)
    assert residual < 0.05
