"""One-dimensional free-energy minimization for chiral smectic liquid crystals.

The model couples a tilt angle theta(z) with a smectic density modulation
rho(z) on a periodic cell.  The library evaluates the reduced free energy in
a cosine/sine Galerkin basis, minimizes it by safeguarded gradient descent,
analyzes stability through Hessian spectra and closed-form thresholds, and
reproduces the cholesteric - helical smectic - smectic C* transition
sequence in temperature sweeps.

The exported names load on first use (PEP 562), so that ``import smectic1d``
and the CLI commands that need no solver do not import numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it ("tensor" is the submodule itself).
_EXPORTS = {
    name: module
    for module, names in {
        "tensor": ("tensor",),
        "params": (
            "ModelParams1D", "OFConstants", "RunConfig", "compute_s_plus", "d_from_temperature",
            "format_config", "map_to_oseen_frank", "parse_config", "SolverError", "temperature_from_d",
            "validate_elastic_constants", "d_critical", "theta_star", "tilt_thresholds",
        ),
        "spectral": ("Grid", "SpectralState", "analyze", "default_grid", "synthesize"),
        "energy1d": ("EnergyBreakdown", "Evaluator", "energy", "gradient", "reconstruct_director"),
        "minimize": ("MinimizeReport", "minimize", "seed_state"),
        "stability": ("StabilityReport", "spectrum"),
        "sweep": (
            "ElasticRecord", "SweepRecord", "cooling_grid", "detect_transitions",
            "elastic_sweep", "sweep_temperature",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return module if name == "tensor" else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule smectic1d.minimize binds it here as
        # "minimize"; skipping that keeps the function of that name exported,
        # whatever the import order.
        if not (name == "minimize" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
