"""Fringe fitting, energies and sweep curves."""

import math

import numpy as np
import pytest

from gemsim import oracle
from gemsim.analysis import (
    coupling_sweep,
    find_mu_for_visibility,
    fit_fringe,
    mismatch_curve,
    scan_both_ports,
    write_fringe_csv,
    _grams,
    _solve,
)
from gemsim.errors import DegenerateFit, GemSimError, NoRoot
from gemsim.scenarios import preset_family
from gemsim.solver import run, run_many
from conftest import FAST_FIG2, FAST_PHASES


# ---------------------------------------------------------------------------
# sinusoid fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_its_generator():
    phases = np.array([2 * math.pi * i / 12 for i in range(12)])
    energies = 1.0 + 0.68 * np.cos(phases)
    ds = fit_fringe(phases, energies)
    assert ds.visibility == pytest.approx(0.68, abs=1e-6)
    assert ds.phi0 == pytest.approx(0.0, abs=1e-9)


def test_fit_with_offset_phase_and_scale():
    phases = np.array([2 * math.pi * i / 16 for i in range(16)])
    energies = 3.5 + 1.2 * np.cos(phases - 2.1)
    ds = fit_fringe(phases, energies)
    assert ds.offset == pytest.approx(3.5, rel=1e-9)
    assert ds.amplitude == pytest.approx(1.2, rel=1e-9)
    assert ds.phi0 == pytest.approx(2.1, rel=1e-9)


def test_fit_constant_energies_gives_zero_visibility():
    phases = np.array([0.1, 1.0, 2.0, 3.0, 4.5])
    ds = fit_fringe(phases, np.full(5, 2.5))
    assert ds.visibility == pytest.approx(0.0, abs=1e-12)
    assert ds.offset == pytest.approx(2.5)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_fringe([0.0, 0.0, 2 * math.pi], [1.0, 1.0, 1.0])  # two distinct phases only
    with pytest.raises(DegenerateFit):
        fit_fringe([0.0, 1.0, 2.0, 3.0], [-1.0, -1.0, -1.0, -1.0])  # A <= 0


def test_visibility_invariant_under_rescale():
    phases = np.array([2 * math.pi * i / 10 for i in range(10)])
    energies = 2.0 + 0.9 * np.cos(phases - 0.4)
    v1 = fit_fringe(phases, energies).visibility
    v2 = fit_fringe(phases, 17.3 * energies).visibility
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_oracle_fringes_fit_exactly():
    beta, a, b, mu = 0.18, 0.9, 0.75, 0.85
    phases = np.array([2 * math.pi * i / 12 for i in range(12)])
    energies = [abs(oracle.interfere(a, b, beta, th, mu)[0]) ** 2 for th in phases]
    ds = fit_fringe(phases, energies)
    t_int, r_int = oracle.transmissivity(beta), oracle.reflectivity(beta)
    assert ds.offset == pytest.approx(r_int * mu**2 * a**2 + t_int * b**2, rel=1e-8)
    assert ds.amplitude == pytest.approx(2 * math.sqrt(t_int * r_int) * mu * a * b, rel=1e-8)
    assert ds.visibility == pytest.approx(oracle.fringe_visibility(beta, a, b, mu), rel=1e-8)
    assert ds.residual_rms() < 1e-12


def test_fringe_csv_round_trip(tmp_path):
    phases = np.array([2 * math.pi * i / 8 for i in range(8)])
    ds = fit_fringe(phases, 1.0 + 0.5 * np.cos(phases - 1.0), port="E2")
    write_fringe_csv(ds, tmp_path / "f.csv", tmp_path / "f.json", config_hash="ab12")
    rows = (tmp_path / "f.csv").read_text().splitlines()
    assert rows[0] == "# config_sha256=ab12"
    assert rows[1] == "phase,energy"
    assert len(rows) == 10
    import json

    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc["port"] == "E2"
    assert doc["visibility"] == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# sweeps against the solver
# ---------------------------------------------------------------------------

def test_fringe_scan_needs_enough_phases(fd_family):
    with pytest.raises(DegenerateFit):
        scan_both_ports(fd_family, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("family_fixture", ["fig2_family", "fd_family", "td_family"])
def test_basis_scans_match_the_least_squares_fit(family_fixture, request):
    """A, B and phi0 read from the Gram matrix are the fit of the sampled energies."""
    scans = scan_both_ports(request.getfixturevalue(family_fixture), FAST_PHASES)
    for port, ds in scans.items():
        fit = fit_fringe(ds.phases, ds.energies, port=port)
        for name in ("offset", "amplitude", "visibility"):
            assert getattr(ds, name) == pytest.approx(getattr(fit, name), rel=1e-13), (port, name)
        assert abs(math.remainder(ds.phi0 - fit.phi0, 2.0 * math.pi)) <= 1e-12, port


def test_both_ports_are_anti_phase(fd_family):
    datasets = scan_both_ports(fd_family, FAST_PHASES)
    dphi = abs(datasets["E1"].phi0 - datasets["E2"].phi0)
    assert abs(dphi - math.pi) < 0.05
    assert datasets["E2"].visibility > 0.95


@pytest.mark.parametrize("family_fixture, overrides, variants, phases", [
    ("fig2_family", {}, [{}], FAST_PHASES),
    ("fd_family", {}, [{}], FAST_PHASES),
    ("fast_fig2_family", {}, [{"mu": 0.3}, {"mu": 0.7}], [0.0, 1.0, math.pi]),
    ("td_family", {}, [{"mu": 0.3}, {"mu": 0.7}], [0.0, 1.0, math.pi]),
    ("fast_fig2_family", {"phase_knob": "coupling"}, [{"power_factor": 1.7}, {"mu": 0.6}],
     [0.0, 1.0, math.pi]),
], ids=["fig2_family", "fd_family", "fast_fig2_family-mu", "td_family-mu", "fast_fig2_family-coupling"])
def test_basis_energies_match_direct_runs(family_fixture, overrides, variants, phases, request):
    """One basis solve gives every (mu, phase) window energy as w^H G w,
    with mu a weight on the probe row.

    The error is measured against each window's largest energy over the
    sweep: at a dark point the energy itself cancels to roundoff (1e-32 on
    freq-domain E2 at pi), where no relative error is meaningful.
    """
    family = request.getfixturevalue(family_fixture)
    if overrides:  # a knob that leaves the calibration as it is
        family, calibration = family.with_params(**overrides), family.calibrate()
        family._calibration = calibration
    assert family.pulse_weights(0.0) is not None
    for kw in variants:
        mu = kw.get("mu", 1.0)
        grams = _grams(_solve(family.basis(**{k: v for k, v in kw.items() if k != "mu"})))
        basis = [{name: float(np.real(np.conj(w[name]) @ gram @ w[name])) for name, gram in grams.items()}
                 for w in (family.pulse_weights(p, mu) for p in phases)]
        direct = [run(family.config_for_phase(p, **kw)).window_energies for p in phases]
        for name in family.windows:
            scale = max(d[name] for d in direct)
            errors = [abs(b[name] - d[name]) / scale for b, d in zip(basis, direct)]
            assert max(errors) <= 1e-12, (kw, name, errors)


def test_proportional_freq_domain_rows_share_one_state_row():
    # the rows are at unit amplitude, so at phase 0 both drive the coherence
    # alike; the steering amplitude is a weight
    family = preset_family("freq-domain", steering_amplitude=0.5)
    records = run_many([config for config, _ in family.basis()])
    assert [r.diagnostics["rows_integrated"] for r in records] == [1, 1]
    grams = _grams(records)
    phases = [0.0, 1.0, math.pi]
    direct = [run(family.config_for_phase(p), stride=0).window_energies for p in phases]
    for name, gram in grams.items():
        scale = max(d[name] for d in direct)
        for p, d in zip(phases, direct):
            w = family.pulse_weights(p)[name]
            assert abs(np.real(np.conj(w) @ gram @ w) - d[name]) <= 1e-12 * scale, (name, p)


@pytest.mark.parametrize("preset, overrides", [
    ("freq-domain", {"beat_note": True}),
], ids=["beat-note"])
def test_knobs_without_a_phase_row_run_every_phase(preset, overrides):
    family = preset_family(preset, **overrides)
    assert family.pulse_weights(0.0) is None
    phases = FAST_PHASES[::2]
    scans = scan_both_ports(family, phases)
    direct = [run(family.config_for_phase(p)).window_energies for p in phases]
    for port, ds in scans.items():
        assert list(ds.energies) == [d[port] for d in direct]


def test_time_domain_ports_are_anti_phase(fig2_fringes):
    dphi = abs(fig2_fringes["E1"].phi0 - fig2_fringes["E2"].phi0)
    assert abs(dphi - math.pi) < 0.05


def test_coupling_sweep_analytic_maxima_differ_between_ports():
    """Lumped-model check: with unequal arms the two ports peak at
    different event strengths (maximising over beta analytically)."""
    a, b = 1.0, 0.55  # stored arm vs steering amplitude
    betas = np.linspace(0.01, 1.2, 3000)
    v1 = [oracle.fringe_visibility(bb, a, b) for bb in betas]
    # the stored-port fringe: |sqrt(T) a - e^{i th} sqrt(R) b|^2 has visibility
    # 2 sqrt(TR) a b / (T a^2 + R b^2)
    v2 = [
        2
        * math.sqrt(oracle.transmissivity(bb) * oracle.reflectivity(bb))
        * a
        * b
        / (oracle.transmissivity(bb) * a**2 + oracle.reflectivity(bb) * b**2)
        for bb in betas
    ]
    b1 = betas[int(np.argmax(v1))]
    b2 = betas[int(np.argmax(v2))]
    assert max(v1) == pytest.approx(1.0, abs=1e-6)
    assert max(v2) == pytest.approx(1.0, abs=1e-6)
    assert abs(b1 - b2) > 0.05
    # analytic locations: R/T = (b/a)^2 for the optical port, (a/b)^2 stored
    t1 = 1.0 / (1.0 + (b / a) ** 2)
    t2 = 1.0 / (1.0 + (a / b) ** 2)
    assert oracle.transmissivity(b1) == pytest.approx(t1, abs=2e-3)
    assert oracle.transmissivity(b2) == pytest.approx(t2, abs=2e-3)


def test_mismatch_curve_endpoints(fig2_family):
    curve = mismatch_curve(fig2_family, [0.0, 1.0])
    assert curve[0] == (0.0, 0.0)
    assert curve[1][1] > 0.99


def test_mu_sweeps_solve_one_basis(fast_fig2_family, monkeypatch):
    from gemsim import analysis

    calls = []

    def counted(config, **kwargs):
        calls.append(kwargs)
        return run(config, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    curve = mismatch_curve(fast_fig2_family, [0.3, 0.6, 0.9])
    # the two rows continue their calibration records
    assert len(calls) == 2 and all(c["start"] is not None for c in calls)
    mu = find_mu_for_visibility(fast_fig2_family, curve[1][1])
    assert len(calls) == 4
    assert mu == pytest.approx(0.6, abs=1e-12)  # the quadratic inverts V(mu) exactly


@pytest.mark.parametrize("beat_note", [False, True], ids=["two-channel", "beat-note"])
def test_mu_sweeps_refuse_a_family_without_a_mode_overlap(beat_note, monkeypatch):
    from gemsim import analysis

    for name in ("run", "run_many"):
        monkeypatch.setattr(analysis, name, lambda *args, **kwargs: pytest.fail("solved before refusing"))
    family = preset_family("freq-domain", beat_note=beat_note)
    with pytest.raises(GemSimError, match="FrequencyDomainFamily has no mode-overlap factor"):
        mismatch_curve(family, [0.0, 0.5])
    with pytest.raises(GemSimError, match="FrequencyDomainFamily has no mode-overlap factor"):
        find_mu_for_visibility(family, 0.5)


def test_mu_weights_scale_the_probe_after_the_mismatch_time():
    family = preset_family("fig2", **FAST_FIG2)
    weights = family.pulse_weights(1.0, 0.5)
    assert [weights[name][0] for name in ("input", "E1", "E2")] == [1.0, 0.5, 0.5]
    assert all(w[1] == family.steering_scale() * complex(math.cos(1.0), math.sin(1.0)) for w in weights.values())
    t_mis = family.windows["E1"][0]
    for straddling in ((t_mis - 0.5, t_mis + 0.5), (0.0, t_mis)):
        family.windows["late"] = straddling
        assert family.pulse_weights(1.0) is not None  # mu = 1 scales nothing
        with pytest.raises(GemSimError, match="straddles the mismatch time"):
            family.pulse_weights(1.0, 0.5)


def test_find_mu_refuses_an_unbracketed_target(fast_fig2_family):
    # V(mu) rises to V(1) < 1 on [0, 1], so full visibility is out of reach
    with pytest.raises(NoRoot, match=r"target visibility 1.0 is outside \[0, 0\.9\d+\]"):
        find_mu_for_visibility(fast_fig2_family, 1.0)


def test_mismatch_requires_unit_interval(fig2_family):
    with pytest.raises(ValueError):
        mismatch_curve(fig2_family, [0.5, 1.2])


def test_coupling_sweep_requires_positive_powers(fig2_family):
    with pytest.raises(ValueError):
        coupling_sweep(fig2_family, [0.0, 1.0])
