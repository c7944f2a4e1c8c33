"""Second-variation analysis: Hessian spectra and Morse indices.

Numeric spectra are Rayleigh quotients per unit L2 norm: the coefficient
Hessian of the discretized energy is mass-normalized by the diagonal Gram
matrix of the basis before the symmetric eigensolve.

The closed-form thresholds of the frozen-layer analysis (d_critical,
tilt_thresholds, theta_star) live in :mod:`smectic1d.params`, which needs no
numpy.  The independent routes that check this module (the closed-form
spectrum at the cholesteric state, the frozen-layer second variation and
the golden-section tilt) are test code, in ``tests/crosscheck.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy1d import Evaluator, _check_state
from .params import ModelParams1D, SolverError
from .spectral import SpectralState, gram_diagonal

__all__ = ["StabilityReport", "spectrum"]

#: Eigenvalues below -TOL_EIG count as unstable directions.
TOL_EIG = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """Ascending mass-normalized Hessian eigenvalues at a state.

    The eigenvalues live in the discretized perturbation space of the
    ansatz (theta cosines, rho sines).  Perturbations of the other parity
    (theta sines and rho cosines, which include the layer translation) are
    not checked, so the Morse index, which counts the eigenvalues below
    -TOL_EIG, can be higher in the full periodic space.
    On the k = 0.025 saddle branch at N = 16 it is 1 here against 3 there
    at T = -21.0, and 3 against 7 at T = -22.0.  No fig3 or ``tilt_sweep``
    record is affected.
    """

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        ev = np.array(self.eigenvalues, dtype=float)
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be ascending")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def morse_index(self) -> int:
        return int(np.sum(self.eigenvalues < -TOL_EIG))

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def spectrum(state: SpectralState, params: ModelParams1D) -> StabilityReport:
    """Mass-normalized Hessian spectrum at a state, in the ansatz space (theta cosines, rho sines).

    Eigenvalues are Rayleigh quotients per unit L2 norm: the generalized
    problem H v = mu G v with the finite-difference coefficient Hessian H of
    :meth:`Evaluator.fd_hessian` (one stacked gradient call per block of
    ``FD_BLOCK`` = 8 columns, so ceil((2N+3) / 8) in all, 17 at N = 64) and
    the diagonal Gram matrix G of the basis.
    ``eigvalsh`` returns them ascending.  Perturbations of the other parity
    (theta sines, rho cosines) are not checked: see :class:`StabilityReport`.
    A state whose cell height is not ``params.h`` raises ValueError; a
    Hessian that overflows (coefficients near the float limit) or a failed
    eigensolve raises SolverError.
    """
    _check_state(state, params)
    scale = 1.0 / np.sqrt(gram_diagonal(state.n, state.h))
    # an overflow here is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        normalized = Evaluator(state.n, params).fd_hessian(state.pack()) * np.outer(scale, scale)
    try:
        eigs = np.linalg.eigvalsh(normalized)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigenvalue solve failed: {exc}") from exc
    # on a non-finite matrix LAPACK either fails (above) or returns NaNs
    if not np.all(np.isfinite(normalized)):
        raise SolverError("eigenvalue solve failed: the Hessian is not finite")
    return StabilityReport(eigenvalues=eigs)
