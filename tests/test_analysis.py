"""Fringe fitting, energies and sweep curves."""

import math

import numpy as np
import pytest

from gemsim import oracle
from gemsim.analysis import (
    coupling_sweep,
    fit_fringe,
    fringe_scan,
    mismatch_curve,
    pulse_energy,
    scan_both_ports,
    write_fringe_csv,
    _solve_all,
    _sweep_energies,
)
from gemsim.errors import DegenerateFit, EmptyWindow, NonFinite
from gemsim.scenarios import preset_family
from gemsim.solver import run
from conftest import FAST_PHASES, storage_config


# ---------------------------------------------------------------------------
# pulse energy
# ---------------------------------------------------------------------------

def test_constant_trace_energy():
    t = np.linspace(0.0, 4.0, 401)
    assert pulse_energy(t, np.ones_like(t), (1.0, 3.0)) == pytest.approx(2.0, rel=1e-12)


def test_zero_trace_energy():
    t = np.linspace(0.0, 4.0, 101)
    assert pulse_energy(t, np.zeros_like(t), (0.5, 2.5)) == 0.0


def test_gaussian_energy_matches_closed_form():
    t = np.linspace(0.0, 20.0, 20001)
    sigma, amp = 1.3, 0.8
    trace = amp * np.exp(-0.5 * ((t - 10.0) / sigma) ** 2) * np.exp(1j * 5.0 * t)
    expected = abs(amp) ** 2 * sigma * math.sqrt(math.pi)
    assert pulse_energy(t, trace, (0.0, 20.0)) == pytest.approx(expected, rel=1e-4)


def test_empty_window_raises():
    t = np.linspace(0.0, 4.0, 101)
    with pytest.raises(EmptyWindow):
        pulse_energy(t, np.ones_like(t), (4.5, 5.0))
    with pytest.raises(EmptyWindow):
        pulse_energy(t, np.ones_like(t), (2.0, 2.0))


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

def test_fringe_scan_with_worker_pool(fd_family):
    ds = fringe_scan(fd_family, FAST_PHASES[::2], "E2", workers=2)
    assert ds.visibility > 0.95


def test_fringe_scan_needs_enough_phases(fd_family):
    with pytest.raises(DegenerateFit):
        fringe_scan(fd_family, [0.0, 1.0, 2.0], "E1")


def test_both_ports_are_anti_phase(fd_family):
    datasets = scan_both_ports(fd_family, FAST_PHASES)
    dphi = abs(datasets["E1"].phi0 - datasets["E2"].phi0)
    assert abs(dphi - math.pi) < 0.05
    assert datasets["E2"].visibility > 0.95


@pytest.mark.parametrize("family_fixture", ["fig2_family", "fd_family"])
def test_basis_energies_match_direct_runs(family_fixture, request):
    """One per-pulse solve gives every phase's window energies as w^H G w.

    The error is measured against each window's largest energy over the
    sweep: at a dark point the energy itself cancels to roundoff (1e-32 on
    freq-domain E2 at pi), where no relative error is meaningful.
    """
    family = request.getfixturevalue(family_fixture)
    assert family.phase_rows() == (1,)
    [basis] = _sweep_energies(family, FAST_PHASES, [{}], workers=None)
    direct = [run(family.config_for_phase(p)).window_energies for p in FAST_PHASES]
    for name in family.config_for_phase(0.0).windows:
        scale = max(d[name] for d in direct)
        errors = [abs(b[name] - d[name]) / scale for b, d in zip(basis, direct)]
        assert max(errors) <= 1e-12, (name, errors)


@pytest.mark.parametrize("preset, overrides", [
    ("time-domain", {"phase_knob": "coupling", "nz": 64, "probe_sigma": 0.5,
                     "probe_center": 2.0, "tau1": 4.5, "tau2": 4.5}),
    ("freq-domain", {"beat_note": True}),
], ids=["coupling-knob", "beat-note"])
def test_knobs_without_a_phase_row_run_every_phase(preset, overrides):
    family = preset_family(preset, **overrides)
    assert family.phase_rows() is None
    phases = FAST_PHASES[::2]
    scans = scan_both_ports(family, phases, workers=2)
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


def test_nonfinite_in_a_pool_worker_reaches_the_caller():
    wild = storage_config(eta=100.0, nz=64, two_echo=False, probe_amplitude=1e160)
    with pytest.raises(NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        _solve_all([wild, wild], False, workers=2)
    assert err.value.step > 0


def test_mismatch_curve_endpoints(fig2_family):
    curve = mismatch_curve(
        fig2_family, [0.0, 1.0], phases=FAST_PHASES[::2]
    )
    assert curve[0] == (0.0, 0.0)
    assert curve[1][1] > 0.99


def test_mismatch_requires_unit_interval(fig2_family):
    with pytest.raises(ValueError):
        mismatch_curve(fig2_family, [0.5, 1.2])


def test_coupling_sweep_requires_positive_powers(fig2_family):
    with pytest.raises(ValueError):
        coupling_sweep(fig2_family, [0.0, 1.0])
