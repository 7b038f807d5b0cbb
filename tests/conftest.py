"""Shared fixtures: compact storage scenarios and calibrated preset families.

The expensive preset calibrations (dry runs) and phase scans are session
scoped so that scenario, analysis and acceptance tests reuse them.
"""

import math

import pytest

from gemsim.model import (
    CouplingChannel,
    CouplingSchedule,
    CouplingSegment,
    EnsembleParams,
    GaussianPulse,
    GradientProfile,
    GradientSegment,
    GridSpec,
    ScenarioConfig,
)
from gemsim.scenarios import preset_family
from gemsim.solver import run
from gemsim.analysis import scan_both_ports


def storage_config(
    beta=0.25,
    eta=20.0,
    gn=40.0,
    gamma0=0.0,
    nz=256,
    dt_factor=0.8,
    two_echo=True,
    omega_phase=0.0,
    probe_amplitude=1.0 + 0.0j,
    stark_carrier=True,
):
    """Small write/read scenario: probe at t=1.2, first echo at 4.0, second at 6.8."""
    ens = EnsembleParams(g=1.0, n_density=gn, delta=1.0, gamma0=gamma0, gamma_e=1.0, length=1.0)
    ratio = math.sqrt(beta * eta / gn)
    omega = ratio * ens.delta * complex(math.cos(omega_phase), math.sin(omega_phase))
    stark = abs(omega) ** 2 / ens.delta if stark_carrier else 0.0
    carrier = eta * ens.length / 2 + stark
    t_end = 8.2 if two_echo else 5.6
    gradient = [GradientSegment(0.0, eta), GradientSegment(2.6, -eta)]
    windows = {"input": (0.0, 2.5), "E1": (2.7, 5.3)}
    if two_echo:
        gradient.append(GradientSegment(5.4, eta))
        windows["E2"] = (5.5, 8.1)
    bounds = [0.1 / eta]
    if abs(omega) > 0:
        bounds.append(0.1 / (gn * abs(omega)))
    dt = dt_factor * min(bounds)
    return ScenarioConfig(
        ensemble=ens,
        gradient=GradientProfile(tuple(gradient)),
        coupling=CouplingSchedule((CouplingChannel((CouplingSegment(0.0, omega),)),)),
        pulses=(GaussianPulse(t0=1.2, sigma=0.3, amplitude=probe_amplitude,
                              carrier=carrier, truncate=4.0),),
        grid=GridSpec(nz=nz, nt=int(math.ceil(t_end / dt)), t_end=t_end),
        windows=windows,
    )


# a fig2 variant with a coarser z grid, used wherever a full fig2 run is too slow
FAST_FIG2 = {"nz": 256, "probe_sigma": 0.35, "tau1": 3.4, "tau2": 3.4}

FAST_PHASES = [2.0 * math.pi * i / 12 for i in range(12)]


@pytest.fixture(scope="session")
def fig2_family():
    fam = preset_family("fig2")
    fam.calibrate()
    return fam


@pytest.fixture(scope="session")
def fig2_fringes(fig2_family):
    return scan_both_ports(fig2_family, FAST_PHASES)


@pytest.fixture(scope="session")
def fig2_record_pi(fig2_family):
    return run(fig2_family.config_for_phase(math.pi))


@pytest.fixture(scope="session")
def td_family():
    fam = preset_family("time-domain")
    fam.calibrate()
    return fam


@pytest.fixture(scope="session")
def fd_family():
    return preset_family("freq-domain")
