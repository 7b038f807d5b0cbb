"""Integrator behaviour: propagation, storage, conservation, diagnostics."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from gemsim import io, oracle
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
    validate,
)
from gemsim.solver import (
    crossing_phase,
    k_centroid_track,
    k_grid,
    maxwell_residual,
    polariton_spectrum,
    run,
    _time_grid,
)
from conftest import storage_config


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


def test_initial_coherence_is_recalled():
    config = replace(storage_config(beta=0.6, two_echo=False), pulses=())
    nz = config.grid.nz
    z = np.linspace(0, 1.0, nz)
    k0 = +40.0  # pre-dephased packet; transport at -eta brings it to k=0 at t=2
    sigma0 = np.exp(-0.5 * ((z - 0.5) / 0.1) ** 2) * np.exp(1j * k0 * z)
    record = run(config, initial_coherence=sigma0)
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


def test_nonfinite_survives_pickling():
    err = pickle.loads(pickle.dumps(NonFinite(step=7, time=0.25, max_abs=1e300)))
    assert isinstance(err, NonFinite)
    assert (err.step, err.time, err.max_abs) == (7, 0.25, 1e300)
    assert str(err) == str(NonFinite(step=7, time=0.25, max_abs=1e300))


def test_nonfinite_reports_step_and_magnitude():
    # an input so strong that the coherence norm N |sigma|^2 overflows
    wild = storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=1e160)
    with pytest.raises(NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        run(wild, stride=1)
    assert err.value.step > 0
    assert err.value.max_abs > 1.0


@pytest.mark.parametrize("per_pulse", [False, True], ids=["default", "per-pulse"])
def test_nonfinite_is_reported_at_the_step_it_happens(per_pulse):
    wild = storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=1e160)
    # no diagnostics strides inside the run: the check must not depend on them
    with pytest.raises(NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        run(wild, stride=10**6, per_pulse=per_pulse)
    n_steps = len(_time_grid(wild)) - 1
    assert 0 < err.value.step < n_steps
    assert err.value.time < wild.grid.t_end


def test_run_requires_matching_initial_coherence():
    config = storage_config()
    with pytest.raises(ValueError):
        run(config, initial_coherence=np.zeros(7, dtype=complex))


# ---------------------------------------------------------------------------
# record bookkeeping
# ---------------------------------------------------------------------------

def test_window_energies_are_recomputable():
    record = run(storage_config())
    assert record.window_energies == record.recompute_window_energies()
    assert record.snapshot_stride >= 1
    assert record.kspec_stride >= 1


def test_stride_sets_what_a_run_records():
    config = storage_config(nz=64)
    bare = run(config, stride=0)
    assert bare.snapshots == [] and bare.k_spectra.magnitude.size == 0
    assert (bare.snapshot_stride, bare.kspec_stride) == (0, 0)
    sampled = run(config, stride=500)
    n_steps = len(sampled.t) - 1
    expected = [m for m in range(n_steps + 1) if m % 500 == 0 or m == n_steps]
    assert [fs.t for fs, _ in sampled.snapshots] == list(sampled.t[expected])
    assert np.array_equal(sampled.k_spectra.t, sampled.t[expected])
    assert np.array_equal(bare.boundary_out, sampled.boundary_out)
    assert bare.window_energies == sampled.window_energies
    with pytest.raises(ValueError):
        run(config, stride=-1)


def test_record_round_trip(tmp_path):
    record = run(storage_config(), stride=400)
    path = tmp_path / "record.npz"
    io.save_record(record, path)
    with np.load(path) as data:  # pickle off: every array is plain data
        assert all(data[name].dtype != object for name in data.files)
    loaded = io.load_record(path)
    assert np.array_equal(loaded.boundary_out, record.boundary_out)
    assert np.array_equal(loaded.t, record.t)
    assert loaded.window_energies == record.window_energies
    assert loaded.config == record.config
    assert len(loaded.snapshots) == len(record.snapshots)
    assert np.array_equal(loaded.snapshots[-1][1].sigma, record.snapshots[-1][1].sigma)
    assert np.array_equal(loaded.k_spectra.magnitude, record.k_spectra.magnitude)


def test_load_record_refuses_object_arrays(tmp_path):
    record = run(storage_config(nz=64), stride=500)
    io.save_record(record, tmp_path / "record.npz")
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
    basis = run(two, per_pulse=True)
    assert basis.pulse_out.shape == (2, len(direct.t), 1)
    assert basis.snapshots == [] and basis.k_spectra.magnitude.size == 0
    assert np.array_equal(basis.boundary_out, basis.pulse_out.sum(axis=0))
    scale = np.abs(direct.boundary_out).max()
    assert np.allclose(basis.boundary_out, direct.boundary_out, rtol=0.0, atol=1e-13 * scale)
    ones = np.ones(2)
    for name, gram in basis.window_grams().items():
        assert np.allclose(gram, np.conj(gram.T))
        assert np.real(ones @ gram @ ones) == pytest.approx(direct.window_energies[name], rel=1e-12)
    with pytest.raises(ValueError):
        run(two, initial_coherence=np.zeros(64, dtype=complex), per_pulse=True)


def test_csv_exports(tmp_path):
    record = run(storage_config(nz=64, dt_factor=0.8), stride=500)
    io.write_boundary_csv(record, tmp_path / "b.csv")
    io.write_snapshots_csv(record, tmp_path / "s.csv")
    io.write_kspectra_csv(record, tmp_path / "k.csv")
    top, header = (tmp_path / "s.csv").read_text().splitlines()[:2]
    assert top.startswith("# config_sha256=")
    assert header == "t,z,re_E0,im_E0,re_sigma,im_sigma"
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert len(lines) == len(record.t) + 2
    # boundary rows round-trip through repr exactly
    first = lines[2].split(",")
    assert float(first[1]) == record.boundary_out[0, 0].real


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
