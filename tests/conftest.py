import os
from dataclasses import replace
from pathlib import Path

import pytest

import smectic1d
from smectic1d import ModelParams1D, RunConfig, cooling_grid, sweep_temperature


@pytest.fixture(scope="session")
def child_env() -> dict:
    """Environment in which a child interpreter finds the smectic1d this one found, installed or not."""
    src = str(Path(smectic1d.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def fig3_params() -> ModelParams1D:
    """The standard demonstration parameter set (library defaults)."""
    return ModelParams1D()


@pytest.fixture(scope="session")
def fig3_sweep(fig3_params):
    """The reference cooling sweep shared by the acceptance criteria.

    T from -9.5 down to -11.5 in steps of 0.02, warm-started, both branches.
    """
    return sweep_temperature(RunConfig(fig3_params), cooling_grid(-9.5, -11.5, 0.02))


@pytest.fixture(scope="session")
def tilt_params(fig3_params) -> ModelParams1D:
    """The defaults with the one-constant elastic constant k1 = k2 = k3 = 0.0025."""
    return replace(fig3_params, k1=0.0025, k2=0.0025, k3=0.0025)


@pytest.fixture(scope="session")
def tilt_sweep(tilt_params):
    """Cooling sweep across the helical smectic -> smectic C* onset.

    T from -11.5 down to -11.7 in steps of 0.05, warm-started, both
    branches, with Morse indices.  It uses k = 0.0025 because there the
    layered states on both sides of the tilt onset (T ~ -11.60) are minima
    (Morse index 0), and the window sits next to the fig3 range.  At the
    default k = 0.025 the onset lies near T = -21.66, past the point
    (T ~ -20.95) where the untilted branch is already a saddle in rho, so an
    onset there would compare saddles, not phases.
    """
    return sweep_temperature(RunConfig(tilt_params), cooling_grid(-11.5, -11.7, 0.05), record_morse=True)
