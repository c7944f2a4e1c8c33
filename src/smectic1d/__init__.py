"""One-dimensional free-energy minimization for chiral smectic liquid crystals.

The model couples a tilt angle theta(z) with a smectic density modulation
rho(z) on a periodic cell.  The library evaluates the reduced free energy in
a cosine/sine Galerkin basis, minimizes it by safeguarded gradient descent,
analyzes stability through Hessian spectra and closed-form thresholds, and
reproduces the cholesteric - helical smectic - smectic C* transition
sequence in temperature sweeps.
"""

from . import tensor
from .params import (
    ModelParams1D,
    OFConstants,
    RunConfig,
    compute_s_plus,
    d_from_temperature,
    format_config,
    map_to_oseen_frank,
    parse_config,
    temperature_from_d,
    validate_elastic_constants,
)
from .spectral import Grid, SpectralState, analyze, default_grid, quadrature, synthesize
from .energy1d import EnergyBreakdown, Evaluator, el_residual, energy, gradient, reconstruct_director
from .minimize import DivergenceError, MinimizeOptions, MinimizeReport, minimize, seed_state
from .stability import (
    StabilityReport,
    analytic_cholesteric_spectrum,
    d_critical,
    hessian,
    morse_index_analytic,
    optimal_constant_tilt,
    second_variation_tilt,
    spectrum,
    theta_star,
    tilt_thresholds,
)
from .sweep import (
    ElasticRecord,
    SweepConfig,
    SweepError,
    SweepRecord,
    detect_transitions,
    elastic_sweep,
    pitchfork_exponent,
    sweep_temperature,
)

__version__ = "0.1.0"

__all__ = [
    "tensor",
    "ModelParams1D",
    "OFConstants",
    "RunConfig",
    "compute_s_plus",
    "d_from_temperature",
    "format_config",
    "map_to_oseen_frank",
    "parse_config",
    "temperature_from_d",
    "validate_elastic_constants",
    "Grid",
    "SpectralState",
    "analyze",
    "default_grid",
    "quadrature",
    "synthesize",
    "EnergyBreakdown",
    "Evaluator",
    "el_residual",
    "energy",
    "gradient",
    "reconstruct_director",
    "DivergenceError",
    "MinimizeOptions",
    "MinimizeReport",
    "minimize",
    "seed_state",
    "StabilityReport",
    "analytic_cholesteric_spectrum",
    "d_critical",
    "hessian",
    "morse_index_analytic",
    "optimal_constant_tilt",
    "second_variation_tilt",
    "spectrum",
    "theta_star",
    "tilt_thresholds",
    "ElasticRecord",
    "SweepConfig",
    "SweepError",
    "SweepRecord",
    "detect_transitions",
    "elastic_sweep",
    "pitchfork_exponent",
    "sweep_temperature",
]
