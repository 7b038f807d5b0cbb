"""Core types: validation, units, serialization."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gemsim.errors import GemSimError
from gemsim.model import (
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
    canonical_json,
    config_from_dict,
    config_sha256,
    config_to_dict,
    dimensionless_od,
    dt_bounds,
    load_config,
    save_config,
    validate,
)
from gemsim.scenarios import run_scenario
from conftest import every_field_config, storage_config


def test_valid_config_passes():
    report = validate(storage_config(nz=512))
    assert report.ok
    assert report.failures == []


def test_zero_delta_fails():
    config = storage_config()
    bad = ScenarioConfig(**{**config.__dict__, "ensemble": EnsembleParams(delta=0.0)})
    report = validate(bad)
    assert not report.ok
    assert any("Delta must be nonzero" in f for f in report.failures)


def test_dt_gradient_bound_failure_is_named():
    config = storage_config()
    # dt chosen twice the gradient bound computed from the config's own numbers
    eta = config.gradient.max_abs_eta()
    dt_bad = 2 * 0.1 / (eta * config.ensemble.length)
    bad_grid = GridSpec(nz=config.grid.nz, nt=int(config.grid.t_end / dt_bad), t_end=config.grid.t_end)
    report = validate(ScenarioConfig(**{**config.__dict__, "grid": bad_grid}))
    assert not report.ok
    assert any("gradient bound" in f for f in report.failures)


def test_dt_coupling_bound_failure_is_named():
    config = storage_config(beta=1.0, eta=20.0)
    ens = config.ensemble
    omega = config.coupling.max_abs_omega()
    dt_bad = 1.5 * 0.1 * abs(ens.delta) / (ens.g * ens.n_density * omega)
    nt = int(config.grid.t_end / dt_bad)
    report = validate(ScenarioConfig(**{**config.__dict__, "grid": GridSpec(512, nt, config.grid.t_end)}))
    assert any("coupling bound" in f for f in report.failures)


@pytest.mark.parametrize("nz", [8, 100, 12])
def test_nz_must_be_power_of_two(nz):
    config = storage_config()
    report = validate(ScenarioConfig(**{**config.__dict__, "grid": GridSpec(nz, config.grid.nt, config.grid.t_end)}))
    assert any("power of two" in f for f in report.failures)


def test_gradient_invariants():
    config = storage_config()
    bad_grad = GradientProfile((GradientSegment(0.0, 20.0), GradientSegment(1.0, 0.0)))
    report = validate(ScenarioConfig(**{**config.__dict__, "gradient": bad_grad}))
    assert any("unless flagged hold" in f for f in report.failures)
    hold = GradientProfile((GradientSegment(0.0, 20.0), GradientSegment(1.0, 0.0, hold=True)))
    assert not any(
        "hold" in f for f in validate(ScenarioConfig(**{**config.__dict__, "gradient": hold})).failures
    )


def test_window_overlap_rejected():
    config = storage_config()
    windows = {"a": (0.0, 2.0), "b": (1.5, 3.0)}
    report = validate(ScenarioConfig(**{**config.__dict__, "windows": windows}))
    assert any("overlap" in f for f in report.failures)


def test_window_bound_that_is_not_a_number_is_named():
    config = replace(storage_config(nz=64), windows={"E1": ("a", 3.0)})
    report = validate(config)
    assert report.failures == ["windows E1 must be a pair of finite real numbers, got ('a', 3.0)"]
    with pytest.raises(GemSimError, match="windows E1"):
        run_scenario(config)


def test_mode_mismatch_range():
    config = storage_config()
    report = validate(ScenarioConfig(**{**config.__dict__, "mode_mismatch": 1.2}))
    assert any("mode_mismatch" in f for f in report.failures)


def test_mode_mismatch_needs_a_mismatch_time():
    config = storage_config()
    report = validate(ScenarioConfig(**{**config.__dict__, "mode_mismatch": 0.5}))
    assert any("needs a mismatch_time" in f for f in report.failures)
    assert validate(ScenarioConfig(**{**config.__dict__, "mode_mismatch": 0.5, "mismatch_time": 2.7})).ok


def test_dt_bounds_are_named_and_skip_zero_rates():
    ens = EnsembleParams(g=1.0, n_density=40.0, delta=-2.0, length=0.5)
    bounds = dt_bounds(ens, max_eta=20.0, max_omega=0.5, max_freq=8.0)
    assert bounds == pytest.approx({"gradient": 0.01, "coupling": 0.01, "modulation": 0.0125}, rel=1e-15)
    assert set(dt_bounds(ens, max_eta=20.0, max_omega=0.0)) == {"gradient"}
    assert dt_bounds(EnsembleParams(delta=0.0), max_eta=0.0, max_omega=0.5) == {"coupling": 0.0}


def test_dimensionless_od_identity():
    assert dimensionless_od(EnsembleParams(g=1, n_density=1, delta=1, gamma_e=1, length=1)) == 1.0


def test_dimensionless_od_reference_value():
    # the headline operating point of the demonstration presets
    params = EnsembleParams(g=1.0, n_density=40.0, delta=1.0, gamma_e=1.0, length=1.0)
    assert dimensionless_od(params) == 40.0


def test_dimensionless_od_scalings():
    base = EnsembleParams(g=1.3, n_density=7.0, delta=2.0, gamma_e=0.5, length=0.7)
    od = dimensionless_od(base)
    assert dimensionless_od(EnsembleParams(**{**base.__dict__, "n_density": 14.0})) == pytest.approx(2 * od, rel=1e-15)
    assert dimensionless_od(EnsembleParams(**{**base.__dict__, "g": 2.6})) == pytest.approx(2 * od, rel=1e-15)
    assert dimensionless_od(EnsembleParams(**{**base.__dict__, "length": 1.4})) == pytest.approx(2 * od, rel=1e-15)
    assert dimensionless_od(EnsembleParams(**{**base.__dict__, "gamma_e": 1.0})) == pytest.approx(od / 2, rel=1e-15)


def _full_featured_config():
    base = storage_config()
    steering = SampledPulse(
        t=np.linspace(2.7, 5.3, 41),
        values=np.exp(1j * np.linspace(0, 3, 41)) * np.hanning(41),
        label="steering",
        channel=0,
    )
    coupling = CouplingSchedule((
        base.coupling.channels[0],
        CouplingChannel(
            segments=(CouplingSegment(0.0, 0.1 + 0.05j), CouplingSegment(3.0, 0.2j)),
            raman_offset=6.283,
            modulation=CouplingModulation(amplitude=0.5 - 0.25j, freq=-6.283),
        ),
    ))
    return ScenarioConfig(
        **{
            **base.__dict__,
            "coupling": coupling,
            "pulses": base.pulses + (steering,),
            "mode_mismatch": 0.8,
            "mismatch_time": 2.7,
            "metadata": {"description": "round-trip test", "power_mw": 330.0},
        }
    )


def test_serialization_round_trip_is_identity(tmp_path):
    config = _full_featured_config()
    path = tmp_path / "config.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded == config
    # and a second trip is byte-stable
    assert config_to_dict(loaded) == config_to_dict(config)
    assert config_sha256(loaded) == config_sha256(config)


def test_config_hash_tracks_content():
    a = storage_config()
    b = storage_config(beta=0.3)
    assert config_sha256(a) != config_sha256(b)
    assert config_sha256(a) == config_sha256(storage_config())


# every_field_config()'s document, recorded from the hand-written serialisers that the
# walk over the config dataclasses replaced
EVERY_FIELD_JSON = (
    '{"coupling":{"channels":[{"modulation":null,"raman_offset":0.0,"segments":[{"omega":[0.75,0.0],'
    '"t_start":0.0},{"omega":[0.5,-0.25],"t_start":2.5}]},{"modulation":{"amplitude":[0.5,0.0],"freq":-3.0},'
    '"raman_offset":6.25,"segments":[{"omega":[0.0,0.125],"t_start":0.0}]}]},"ensemble":{"delta":-2.0,"g":1.0,'
    '"gamma0":0.125,"gamma_e":1.5,"length":0.5,"n_density":40.0},"gradient":{"segments":[{"eta":20.0,'
    '"hold":false,"t_start":0.0},{"eta":0.0,"hold":true,"t_start":2.5},{"eta":-20.0,"hold":false,"t_start":3.0}]},'
    '"grid":{"nt":4096,"nz":64,"t_end":6.0},"metadata":{"description":"every field","nested":{"runs":[1,2]},'
    '"power_mw":330.0},"mismatch_time":2.75,"mode_mismatch":0.75,"pulses":[{"amplitude":[1.0,0.0],'
    '"carrier":10.5,"channel":1,"kind":"gaussian","label":"signal","sigma":0.25,"t0":1.25,"truncate":3.5},'
    '{"channel":1,"kind":"sampled","label":"control","t":[3.0,3.25,3.5],"values":[[0.0,0.0],[0.5,-0.5],'
    '[0.0,1.0]]}],"units":{"length":"medium units","rates":"rad/us","time":"us"},"windows":{"E1":[3.5,6.0],'
    '"input":[0.0,2.5]}}'
)
EVERY_FIELD_SHA256 = "a1f82b250b44b7a4448eabb1b17d959c11022ec898404ead5f90daea0e205950"
EVERY_FIELD_FILE_SHA256 = "2bf8db5e9443cc018ad6b2613fba9ddb398ee71213c8f31506c47e8dd41b5c63"


def test_document_format_is_pinned(tmp_path):
    config = every_field_config()
    assert canonical_json(config_to_dict(config)) == EVERY_FIELD_JSON
    assert config_sha256(config) == EVERY_FIELD_SHA256 == hashlib.sha256(EVERY_FIELD_JSON.encode()).hexdigest()
    save_config(config, tmp_path / "config.json")
    text = (tmp_path / "config.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == EVERY_FIELD_FILE_SHA256
    assert text == (json.dumps(json.loads(EVERY_FIELD_JSON), indent=2, sort_keys=True) + "\n").encode()
    assert config_from_dict(json.loads(EVERY_FIELD_JSON)) == config


def test_gaussian_pulse_support_and_energy():
    pulse = GaussianPulse(t0=5.0, sigma=0.5, amplitude=2.0, carrier=3.0, truncate=4.0)
    lo, hi = pulse.support()
    assert (lo, hi) == (3.0, 7.0)
    assert pulse.envelope(np.array([2.9, 7.1])).tolist() == [0.0, 0.0]
    # energy: |A|^2 sigma sqrt(pi)
    assert pulse.energy() == pytest.approx(4.0 * 0.5 * math.sqrt(math.pi), rel=1e-12)


def test_sampled_pulse_interpolation_and_equality():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([0.0, 1.0 + 1.0j, 0.0])
    pulse = SampledPulse(t=t, values=v)
    assert pulse.envelope(np.array([0.5]))[0] == pytest.approx(0.5 + 0.5j)
    assert pulse.envelope(np.array([-1.0, 3.0])).tolist() == [0.0, 0.0]
    assert pulse == SampledPulse(t=t.copy(), values=v.copy())
    assert pulse != SampledPulse(t=t, values=v * 2)
