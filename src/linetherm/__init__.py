"""Thermometry of cryogenic microwave input lines from qubit decoherence data.

The package converts measured qubit dephasing rates and frequency shifts
into resonator photon numbers and black-body temperatures, fits attenuator
cooling dynamics after heat pulses, characterizes stripline thermal clamps
through a 1D fin model, and extracts qubit temperatures from IQ readout
distributions.
"""

__version__ = "0.1.0"

from .core import (
    CODATA,
    FinExperiment,
    FitResult,
    HeatPulseSeries,
    IQCloud,
    PhysConstants,
    RateSample,
    SystemParams,
    angular_from_cyclic,
    cyclic_from_angular,
    default_system_params,
    load_system_params,
    rate_from_khz,
)
from .shotnoise import (
    ShotNoisePoint,
    bose_einstein,
    dephasing_full,
    dephasing_linear,
    photons_from_dephasing,
    temperature_from_photons,
)
from .decoherence import (
    DecayTrace,
    RateSummary,
    fit_echo,
    fit_ramsey,
    fit_relaxation,
    pure_dephasing,
    summarize_rates,
)
from .heatpulse import HeatPulseModelParams, fit_cooling, trajectory
from .fin import (
    FinExtraction,
    FinParams,
    analytic_profile,
    extract_resistances,
    fit_inverse_T,
    fit_origin_slope,
    invert_ratio,
    predicted_diffs,
    ratio_function,
    solve_discrete,
)
from .iqtemp import (
    MixtureModel,
    fit_mixture,
    measurement_photons,
    sweep_temperature,
    temperature_from_populations,
)
from .resonator import PhaseSweep, extrapolate_chi, fit_phase_pair, reflection_phase
from .fitkit import ParamSpec, ResidualProblem, joint_fit, lm_fit
