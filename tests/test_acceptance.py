"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes.  Tolerances are fixed here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np

from gemsim import oracle
from gemsim.analysis import fit_fringe, coupling_sweep, find_mu_for_visibility, mismatch_curve
from gemsim.model import CouplingChannel, CouplingSchedule, CouplingSegment
from gemsim.solver import crossing_phase, k_centroid_track, run
from conftest import FAST_PHASES, storage_config


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_beamsplitter_law():
    details = []
    ok = True
    for beta in (0.1, 0.25, 0.5, 1.0):
        start = time.time()
        record = run(storage_config(beta=beta, nz=512, two_echo=False))
        elapsed = time.time() - start
        measured = record.window_energies["E1"] / record.input_energy()
        expected = oracle.reflectivity(beta) ** 2
        rel = abs(measured / expected - 1.0)
        ok = ok and rel < 0.05 and elapsed < 60.0
        details.append(f"beta={beta}: eff={measured:.4f} vs {expected:.4f} ({rel:.2%}, {elapsed:.1f}s)")
    _report(1, "write/read efficiency = (1-e^{-2 pi beta})^2 within 5%", ok, "; ".join(details))


def test_criterion_2_polariton_transport():
    # deep holds on either side of two gradient switches so the packet sits
    # far from k=0 over long fit arcs
    from gemsim.model import (
        EnsembleParams, GaussianPulse, GradientProfile, GradientSegment, GridSpec,
        ScenarioConfig,
    )

    eta, gn, ratio = 20.0, 40.0, math.sqrt(0.4 * 20.0 / 40.0)
    ens = EnsembleParams(g=1.0, n_density=gn, delta=1.0, length=1.0)
    omega = ratio * ens.delta
    carrier = eta / 2 + abs(omega) ** 2
    dt = 0.8 * min(0.1 / eta, 0.1 / (gn * omega))
    config = ScenarioConfig(
        ensemble=ens,
        gradient=GradientProfile((
            GradientSegment(0.0, eta), GradientSegment(4.0, -eta), GradientSegment(9.2, eta),
        )),
        coupling=CouplingSchedule((CouplingChannel((CouplingSegment(0.0, omega),)),)),
        pulses=(GaussianPulse(t0=1.2, sigma=0.3, carrier=carrier, truncate=4.0),),
        grid=GridSpec(nz=512, nt=int(math.ceil(12.4 / dt)), t_end=12.4),
        windows={"input": (0.0, 2.5), "E1": (5.6, 8.2)},
    )
    record = run(config)
    track = k_centroid_track(record)
    tt = np.array([t for t, _ in track])
    kk = np.array([k for _, k in track])

    def slope(t0, t1):
        mask = (tt >= t0) & (tt <= t1) & (np.abs(kk) >= 20.0)
        return float(np.polyfit(tt[mask], kk[mask], 1)[0])

    eras = [(2.5, 3.95, eta), (4.1, 6.0, -eta), (9.3, 10.9, eta)]
    slopes = [slope(t0, t1) for t0, t1, _ in eras]
    errors = [abs(s / (-e) - 1.0) for s, (_, _, e) in zip(slopes, eras)]
    flips = np.sign(slopes[0]) != np.sign(slopes[1]) and np.sign(slopes[1]) != np.sign(slopes[2])
    ok = all(err < 0.02 for err in errors) and flips
    _report(
        2, "centroid velocity -eta within 2%, sign flips at switches", ok,
        f"slopes {[f'{s:.2f}' for s in slopes]} vs -eta per era, errors "
        f"{[f'{e:.2%}' for e in errors]}, sign flips: {flips}",
    )


def test_criterion_3_pi_phase_jump(fig2_family, fig2_record_pi):
    records = {"theta=pi": fig2_record_pi, "bare": run(fig2_family.bare_config())}
    details = []
    ok = True
    for label, record in records.items():
        for window_name in ("E1", "E2"):
            jump = crossing_phase(record, record.config.windows[window_name])
            dev = abs(jump - math.pi)
            ok = ok and dev <= 0.1
            details.append(f"{label}/{window_name}: {jump:.3f} ({dev:+.3f})")
    _report(3, "crossing phase pi +- 0.1 rad at every k=0 crossing", ok, "; ".join(details))


def test_criterion_4_time_domain_suppression(fig2_fringes):
    e1 = dict(zip(fig2_fringes["E1"].phases, fig2_fringes["E1"].energies))
    ratio = e1[math.pi] / e1[0.0]
    v1 = fig2_fringes["E1"].visibility
    v2 = fig2_fringes["E2"].visibility
    ok = ratio < 0.05 and v1 >= 0.95 and v2 >= 0.95
    _report(
        4, "balanced theta=pi suppression and visibilities >= 0.95", ok,
        f"E1(pi)/E1(0)={ratio:.4f}, V_E1={v1:.4f}, V_E2={v2:.4f}",
    )


def test_criterion_5_frequency_domain_dark_state(fd_family):
    energies = {}
    for phi in FAST_PHASES:
        energies[phi] = run(fd_family.config_for_phase(phi)).window_energies
    u_in = run(fd_family.config_for_phase(0.0)).input_energy()
    ds = fit_fringe(FAST_PHASES, [energies[p]["E2"] for p in FAST_PHASES], port="E2")
    sinusoidal = ds.residual_rms() <= 0.02 * (ds.offset + ds.amplitude)
    transmitted = energies[math.pi]["E1"] / u_in
    recall_ratio = energies[math.pi]["E2"] / energies[0.0]["E2"]
    ok = sinusoidal and transmitted >= 0.9 and recall_ratio <= 0.1
    _report(
        5, "two-colour dark state: sinusoidal recall, pi transmits", ok,
        f"fit residual {ds.residual_rms():.3g} vs amp {ds.amplitude:.3g}, "
        f"transmitted(pi)/input={transmitted:.4f}, E2(pi)/E2(0)={recall_ratio:.2e}",
    )


def test_criterion_6_oracle_equivalence():
    start = time.time()
    details = []
    ok = True
    for beta in (0.15, 0.3, 0.6):
        for gamma0 in (0.0, 0.04, 0.1):
            record = run(storage_config(beta=beta, gamma0=gamma0, nz=512))
            u_in = record.input_energy()
            tau1 = 4.0 - 1.2  # echo centre minus write centre
            tau2 = 6.8 - 4.0
            state = oracle.predict_record(
                [1.0],
                [oracle.BsEvent("write", beta), oracle.BsEvent("read", beta),
                 oracle.BsEvent("read", beta)],
                gamma0=gamma0,
                hold_times=[tau1, tau2],
            )
            predicted = state.energies()
            for name, pred in (("E1", predicted[1]), ("E2", predicted[2])):
                measured = record.window_energies[name] / u_in
                rel = abs(measured / pred - 1.0)
                ok = ok and rel < 0.05
                if rel >= 0.05:
                    details.append(f"beta={beta} g0={gamma0} {name}: {rel:.2%}")
    elapsed = time.time() - start
    ok = ok and elapsed < 900.0
    _report(
        6, "cascade oracle matches solver energies within 5% (3x3 grid)", ok,
        (f"all 18 window comparisons within 5%, {elapsed:.0f}s elapsed"
         if not details else "; ".join(details)),
    )


def test_criterion_7_conservation_and_decay():
    record = run(storage_config(beta=0.5, dt_factor=0.4))
    influx = np.trapezoid(np.sum(np.abs(record.boundary_in) ** 2, axis=1), record.t)
    outflux = np.trapezoid(np.sum(np.abs(record.boundary_out) ** 2, axis=1), record.t)
    closure = abs(record.coherence_norm[-1] + outflux - influx) / influx

    gamma0 = 0.06
    config = storage_config(beta=0.25, gamma0=gamma0, two_echo=False)
    omega = config.coupling.channels[0].segments[0].omega
    coupling = CouplingSchedule((CouplingChannel((
        CouplingSegment(0.0, omega), CouplingSegment(2.45, 0.0), CouplingSegment(3.1, omega),
    )),))
    rec2 = run(replace(config, coupling=coupling))
    i0 = np.searchsorted(rec2.t, 2.5)
    i1 = np.searchsorted(rec2.t, 3.05)
    ratio = rec2.coherence_norm[i1] / rec2.coherence_norm[i0]
    expected = math.exp(-2 * gamma0 * (rec2.t[i1] - rec2.t[i0]))
    decay_err = abs(ratio / expected - 1.0)
    ok = closure < 1e-4 and decay_err < 0.01
    _report(
        7, "gamma0=0 bookkeeping closes to 1e-4; holds decay as e^{-2 gamma0 t}", ok,
        f"closure={closure:.2e}, hold-decay error={decay_err:.2e}",
    )


def test_criterion_8_fringe_machinery(fig2_family, fig2_fringes, fd_family):
    phases = np.array([2 * math.pi * i / 12 for i in range(12)])
    synth = fit_fringe(phases, 1.0 + 0.68 * np.cos(phases))
    recovery = abs(synth.visibility - 0.68)

    dphi_td = abs(abs(fig2_fringes["E1"].phi0 - fig2_fringes["E2"].phi0) - math.pi)
    fd_sets = {}
    for port in ("E1", "E2"):
        energies = [
            run(fd_family.config_for_phase(p)).window_energies[port]
            for p in FAST_PHASES[::2]
        ]
        fd_sets[port] = fit_fringe(FAST_PHASES[::2], energies, port)
    dphi_fd = abs(abs(fd_sets["E1"].phi0 - fd_sets["E2"].phi0) - math.pi)

    powers = [0.02, 0.3, 1.0, 4.0, 60.0]
    curves = coupling_sweep(fig2_family, powers, phases=FAST_PHASES[::2])
    shape_ok = True
    for port, curve in curves.items():
        vis = [v for _, v in curve]
        shape_ok = shape_ok and vis[0] < 0.35 and vis[-1] < 0.35
        interior = max(vis[1:-1])
        shape_ok = shape_ok and interior > max(vis[0], vis[-1]) and interior > 0.9
    ok = recovery < 1e-6 and dphi_td < 0.05 and dphi_fd < 0.05 and shape_ok
    _report(
        8, "fit recovery 1e-6, anti-phase 0.05 rad, sweep curve shape", ok,
        f"recovery={recovery:.2e}, anti-phase td={dphi_td:.3f} fd={dphi_fd:.3f}, "
        f"coupling curves E1={[f'{v:.2f}' for _, v in curves['E1']]} "
        f"E2={[f'{v:.2f}' for _, v in curves['E2']]}",
    )


def test_criterion_9_mismatch_anchor(td_family):
    phases = FAST_PHASES[::2]
    curve = mismatch_curve(td_family, [0.25, 0.55, 0.85], phases=phases)
    values = [v for _, v in curve]
    monotone = values[0] < values[1] < values[2]
    mu_star = find_mu_for_visibility(
        td_family, 0.68, bracket=(0.3, 0.5), phases=phases, xtol=2e-3
    )
    configs = [td_family.config_for_phase(p, mu=mu_star) for p in phases]
    energies = [run(c).window_energies["E1"] for c in configs]
    v_at_star = fit_fringe(phases, energies).visibility
    ok = monotone and 0.0 < mu_star < 1.0 and abs(v_at_star - 0.68) <= 0.01
    _report(
        9, "unique overlap factor reproducing E1 visibility 0.68", ok,
        f"V(mu) monotone over grid {values[0]:.3f}<{values[1]:.3f}<{values[2]:.3f}, "
        f"mu*={mu_star:.4f}, V(mu*)={v_at_star:.4f} "
        f"(lumped-model prediction {(1 - math.sqrt(1 - 0.68**2)) / 0.68:.4f})",
    )
