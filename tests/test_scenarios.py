"""Protocol builders: timing, balance, two-colour behaviour, presets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gemsim.errors import GemSimError, SeparationTooSmall
from gemsim.model import CouplingSchedule, validate
from gemsim.scenarios import (
    FrequencyDomainFamily,
    FrequencyDomainParams,
    TimeDomainFamily,
    TimeDomainParams,
    build_frequency_domain,
    build_time_domain,
    preset_family,
    run_scenario,
)
from gemsim import scenarios
from gemsim.solver import _event_times, _time_grid, run
from conftest import FAST_FIG2


# ---------------------------------------------------------------------------
# time-domain builder
# ---------------------------------------------------------------------------

def test_default_windows_sit_at_the_storage_times():
    family = TimeDomainFamily(TimeDomainParams())
    p = family.params
    e1 = family.windows["E1"]
    e2 = family.windows["E2"]
    assert 0.5 * (e1[0] + e1[1]) == pytest.approx(p.probe_center + p.tau1, abs=0.5 * p.probe_sigma)
    assert 0.5 * (e2[0] + e2[1]) == pytest.approx(
        p.probe_center + p.tau1 + p.tau2, abs=0.5 * p.probe_sigma
    )


def test_build_time_domain_validates():
    config = build_time_domain(TimeDomainParams(tau1=6.0, tau2=6.0, probe_sigma=0.5, nz=256))
    assert validate(config).ok
    labels = [pulse.label for pulse in config.pulses]
    assert labels == ["probe", "steering"]


def test_too_short_storage_is_rejected():
    with pytest.raises(ValueError, match="tau1"):
        TimeDomainFamily(TimeDomainParams(tau1=2.0))


def test_zero_steering_reduces_to_two_echo_storage(fig2_family):
    fam0 = fig2_family.with_params(steering_scale=0.0)
    fam0._calibration = fig2_family._calibration
    config = fam0.config_for_phase(0.7)
    bare = fig2_family.bare_config()
    rec_a = run(config)
    rec_b = run(bare)
    assert np.allclose(rec_a.boundary_out, rec_b.boundary_out, atol=1e-14)


def test_fig2_preset_suppresses_and_reroutes(fig2_fringes):
    e1 = dict(zip(fig2_fringes["E1"].phases, fig2_fringes["E1"].energies))
    e2 = dict(zip(fig2_fringes["E2"].phases, fig2_fringes["E2"].energies))
    assert e1[math.pi] < 0.5 * e1[0.0]
    assert e2[math.pi] > e2[0.0]
    assert e2[math.pi] > 0.2 * fig2_fringes["E2"].offset  # coherence really is recalled later


def test_bare_two_echo_energies_match_oracle_product(fig2_family):
    from gemsim import oracle

    record = run(fig2_family.bare_config())
    u_in = record.input_energy()
    p = fig2_family.params
    beta1 = p.beta_write
    beta2 = beta1 * p.event_factor**2  # reduced coupling during the first recall
    r1 = oracle.reflectivity(beta1)
    r2 = oracle.reflectivity(beta2)
    t2 = oracle.transmissivity(beta2)
    r3 = oracle.reflectivity(beta1)
    assert record.window_energies["E1"] / u_in == pytest.approx(r1 * r2, rel=0.05)
    assert record.window_energies["E2"] / u_in == pytest.approx(r1 * t2 * r3, rel=0.05)


def test_balanced_factor_matches_oracle_balance(fig2_family):
    # 0.7^2 * beta_write lands on the half-split depth for these parameters
    assert fig2_family.params.event_factor == pytest.approx(
        fig2_family.balanced().params.event_factor, rel=2e-3
    )


def test_coupling_phase_knob_maps_onto_steering_phase(fig2_family):
    fam = fig2_family.with_params(phase_knob="coupling")
    fam._calibration = fig2_family._calibration
    config = fam.config_for_phase(1.1)
    segs = config.coupling.channels[0].segments
    assert len(segs) == 3
    assert np.angle(segs[1].omega) == pytest.approx(1.1)
    # steering pulse itself carries no extra phase in this mode
    steer = config.pulses[1]
    base = fig2_family.config_for_phase(0.0).pulses[1]
    assert np.allclose(steer.values, base.values)


def test_calibration_stopping_at_e1_matches_full_length_solves(monkeypatch):
    calibrated = preset_family("fig2", **FAST_FIG2).calibrate()
    lengths = []

    def full_length(config, stride=None, start=None, until=None):
        assert start is None
        record = run(config, stride=stride)
        lengths.append((len(record.t), len(_time_grid(config))))
        return record

    monkeypatch.setattr(scenarios, "run", full_length)
    family = preset_family("fig2", **FAST_FIG2)
    reference = family.calibrate()
    assert len(lengths) == 2 and all(n == n_full for n, n_full in lengths)
    for name in ("steer_t", "steer_values", "t_e1", "echo", "trans"):
        assert np.array_equal(getattr(calibrated, name), getattr(reference, name)), name


@pytest.mark.parametrize("overrides", [{}, {"mode_mismatch": 0.5}], ids=["fast-fig2", "mode-mismatch"])
def test_calibration_rows_give_e1_of_direct_runs(fast_fig2_family, overrides):
    # the dry runs hold the probe row and the raw steering row on the full config's E1 nodes
    family = fast_fig2_family.with_params(**overrides) if overrides else fast_fig2_family
    cal, scale = family.calibrate(), family.steering_scale()
    e1 = family.windows["E1"]
    for theta in (0.0, 1.0, math.pi):
        direct = run(family.config_for_phase(theta), stride=0, until=e1[1])
        assert np.array_equal(direct.t[(direct.t >= e1[0]) & (direct.t <= e1[1])], cal.t_e1)
        energy = cal.e1_energy(cal.echo + scale * complex(math.cos(theta), math.sin(theta)) * cal.trans)
        assert abs(energy - direct.window_energies["E1"]) <= 1e-12 * cal.e1_energy(cal.echo), theta


def test_segments_end_exactly_on_their_events():
    # a family where a + (b - a) rounds past the event b; the segment must still end on b
    config = preset_family("time-domain", tau1=3.4, tau2=3.4, probe_sigma=0.35, probe_center=2.0,
                           dt_factor=0.5).bare_config()
    assert set(_event_times(config)) <= set(_time_grid(config).tolist())


def test_refine_balance_stays_near_analytic_optimum(monkeypatch):
    # with a fixed equal-energy steering pulse the suppression optimum sits at
    # the event depth solving sqrt(R1 R2) = sqrt(T2); start the search offset
    # from it and check the solver-driven refinement comes back
    from gemsim import oracle

    fam = preset_family("fig2", nz=256, probe_sigma=0.35, tau1=3.4, tau2=3.4,
                        steering_scale=1.0, interference_factor=None)
    beta1 = fam.params.beta_write
    beta2_star = oracle.balance_coupling(oracle.reflectivity(beta1), 0.0, 0.0, 1.0, 1.0)
    r_star = math.sqrt(beta2_star / beta1)
    fam = fam.with_params(interference_factor=1.05 * r_star)
    fam.calibrate()
    calls = []

    def counted(config, **kwargs):
        calls.append(len(config.pulses))
        return run(config, **kwargs)

    monkeypatch.setattr(scenarios, "run", counted)
    refined = fam.refine_balance(span=0.10, n_points=7)
    assert calls == [1, 2] * 7  # per factor, only its bare and steering-only (probe silenced) dry runs
    assert refined.params.event_factor == pytest.approx(r_star, rel=0.04)


# ---------------------------------------------------------------------------
# frequency-domain builder
# ---------------------------------------------------------------------------

def test_build_frequency_domain_validates(fd_family):
    config = build_frequency_domain(fd_family.params)
    assert validate(config).ok
    assert config.n_channels == 2


def test_separation_guard():
    with pytest.raises(SeparationTooSmall):
        FrequencyDomainFamily(FrequencyDomainParams(separation_mhz=0.2))
    # the beat-note representation does not rely on the channel reduction
    FrequencyDomainFamily(FrequencyDomainParams(separation_mhz=0.2, beat_note=True))


def test_dark_state_transmits_and_bright_state_stores(fd_family):
    rec0 = run(fd_family.config_for_phase(0.0))
    rec_pi = run(fd_family.config_for_phase(math.pi))
    u = rec0.input_energy()
    assert rec_pi.window_energies["E1"] >= 0.9 * u
    assert rec_pi.window_energies["E2"] <= 0.1 * rec0.window_energies["E2"]
    assert rec0.window_energies["E2"] >= 0.5 * u


def test_swap_symmetry(fd_family):
    fam = fd_family.with_params(steering_amplitude=0.6)
    rec_a = run(fam.config_for_phase(0.7))
    swapped = fam.config_for_phase(-0.7)
    probe, steer = swapped.pulses
    swapped = replace(
        swapped,
        pulses=(
            replace(steer, label="probe"),
            replace(probe, label="steering"),
        ),
    )
    rec_b = run(swapped)
    for name in rec_a.window_energies:
        assert rec_a.window_energies[name] == pytest.approx(
            rec_b.window_energies[name], rel=1e-9
        )


def test_zero_steering_amplitude_is_bitwise_single_channel(fd_family):
    fam = fd_family.with_params(steering_amplitude=0.0)
    config = fam.config_for_phase(0.4)
    single = replace(
        config,
        coupling=CouplingSchedule((config.coupling.channels[0],)),
        pulses=(config.pulses[0],),
    )
    rec_two = run(config)
    rec_one = run(single)
    assert np.array_equal(rec_two.boundary_out[:, 0], rec_one.boundary_out[:, 0])
    assert np.all(rec_two.boundary_out[:, 1] == 0)
    assert rec_two.window_energies["E2"] == rec_one.window_energies["E2"]


def test_beat_note_mode_agrees_with_channel_reduction(fd_family):
    beat = fd_family.with_params(beat_note=True)
    for phi in (0.0, 0.5 * math.pi, math.pi):
        e_two = run(fd_family.config_for_phase(phi)).window_energies
        e_beat = run(beat.config_for_phase(phi)).window_energies
        u = 2 * fd_family.config_for_phase(phi).pulses[0].energy()
        assert e_beat["E2"] == pytest.approx(e_two["E2"], abs=0.05 * u)
        assert e_beat["E1"] == pytest.approx(e_two["E1"], abs=0.05 * u)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def test_run_scenario_rejects_invalid_config():
    config = build_frequency_domain()
    bad = replace(config, windows={"E1": (0.0, config.grid.t_end + 5.0)})
    with pytest.raises(GemSimError, match="window"):
        run_scenario(bad)


def test_run_scenario_smoke(fd_family):
    record = run_scenario(fd_family.config_for_phase(math.pi))
    assert set(record.window_energies) == {"E1", "E2"}


def test_preset_registry():
    with pytest.raises(KeyError):
        preset_family("unknown")
    for name in ("fig2", "time-domain", "freq-domain"):
        assert preset_family(name) is not None


@pytest.mark.parametrize("delta", [1.0, 2.0])
@pytest.mark.parametrize("beat_note", [False, True], ids=["two-channel", "beat-note"])
def test_freq_domain_phases_share_one_grid(beat_note, delta):
    family = preset_family("freq-domain", beat_note=beat_note, delta=delta)
    configs = [family.config_for_phase(2.0 * math.pi * i / 12) for i in range(12)]
    assert len({c.grid for c in configs}) == 1
    assert all(validate(c).ok for c in configs)


def test_preset_grids_keep_their_step_counts(fig2_family, td_family):
    nt = {
        "fig2": fig2_family.config_for_phase(math.pi).grid.nt,
        "time-domain": td_family.config_for_phase(math.pi).grid.nt,
        "freq-domain": preset_family("freq-domain").config_for_phase(math.pi).grid.nt,
        "beat-note": preset_family("freq-domain", beat_note=True).config_for_phase(math.pi).grid.nt,
    }
    assert nt == {"fig2": 12125, "time-domain": 14600, "freq-domain": 2775, "beat-note": 5550}
