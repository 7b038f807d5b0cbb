"""Gradient echo memory simulator and analytic interference toolkit."""

from . import analysis, io, model, oracle, scenarios, solver
from .model import (
    EnsembleParams,
    GradientProfile,
    GradientSegment,
    CouplingChannel,
    CouplingSchedule,
    CouplingSegment,
    GaussianPulse,
    SampledPulse,
    GridSpec,
    ScenarioConfig,
    SimulationRecord,
    dimensionless_od,
    validate,
)
from .scenarios import (
    FrequencyDomainFamily,
    FrequencyDomainParams,
    TimeDomainFamily,
    TimeDomainParams,
    build_frequency_domain,
    build_time_domain,
    preset_family,
    run_scenario,
)
from .solver import crossing_phase, k_centroid_track, polariton_spectrum, run

__version__ = "0.1.0"
