"""Second-variation analysis: Hessian spectra, Morse indices, thresholds.

Numeric spectra are Rayleigh quotients per unit L2 norm: the coefficient
Hessian of the discretized energy is mass-normalized by the diagonal Gram
matrix of the basis before the symmetric eigensolve.  At the trivial
(cholesteric) state the spectrum is known in closed form and serves as an
independent cross-check of the numeric route.

The closed-form thresholds of the frozen-layer analysis (d_critical,
tilt_thresholds, theta_star) live in :mod:`smectic1d.params`, which needs no
numpy.  Their numeric counterparts stay here: :func:`second_variation_tilt`
and :func:`optimal_constant_tilt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy1d import Evaluator
from .minimize import frozen_layer_state
from .params import ModelParams1D, d_critical
from .spectral import Grid, SpectralState, analyze, gram_diagonal, quadrature, synthesize

__all__ = [
    "StabilityReport",
    "AnalyticMode",
    "hessian",
    "spectrum",
    "analytic_cholesteric_spectrum",
    "morse_index_analytic",
    "second_variation_tilt",
    "optimal_constant_tilt",
]

#: Eigenvalues below -TOL_EIG count as unstable directions.
TOL_EIG = 1e-8

#: Base relative step for Hessian finite differences.
HESSIAN_FD_STEP = 1e-5


@dataclass(frozen=True)
class StabilityReport:
    """Ascending mass-normalized Hessian eigenvalues at a state.

    The eigenvalues live in the discretized (sine-restricted) perturbation
    space: sine modes only for the smectic variable, so the cosine partners
    and the constant mode of the closed-form spectrum are absent.  The Morse
    index counts the eigenvalues below -TOL_EIG.
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


class AnalyticMode(NamedTuple):
    """One closed-form eigenvalue: which family, which mode index, which value."""

    kind: str  # "rho_const" | "rho_sin" | "rho_cos" | "theta"
    n: int
    value: float


def hessian(state: SpectralState, params: ModelParams1D) -> np.ndarray:
    """Coefficient Hessian by central differences of the analytic gradient.

    Columns are differenced at steps delta and 2*delta with
    delta = HESSIAN_FD_STEP * max(1, |c|_inf) and Richardson-combined, which
    cancels the leading O(delta^2) error exactly for the polynomial terms.
    The column matrix H is returned as (H + H^T)/2; the asymmetry that this
    removes is at the finite-difference noise floor.
    """
    return Evaluator(state.n, params).fd_hessian(state.pack(), HESSIAN_FD_STEP)


def spectrum(state: SpectralState, params: ModelParams1D) -> StabilityReport:
    """Mass-normalized Hessian spectrum at a state, in the sine-restricted space.

    Eigenvalues are Rayleigh quotients per unit L2 norm: the generalized
    problem H v = mu G v with the diagonal Gram matrix G of the basis.
    ``eigvalsh`` returns them ascending.
    """
    h_mat = hessian(state, params)
    scale = 1.0 / np.sqrt(gram_diagonal(state.n, state.h))
    normalized = h_mat * np.outer(scale, scale)
    try:
        eigs = np.linalg.eigvalsh(normalized)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solve failed: {exc}") from exc
    return StabilityReport(eigenvalues=eigs)


def _rho_mode_eigenvalue(params: ModelParams1D, n: int) -> float:
    p = params
    omega2 = (2.0 * math.pi * n / p.h) ** 2
    return p.d - d_critical(p) + 2.0 * p.lambda1 * (omega2 - p.q * p.q) ** 2


def _theta_mode_eigenvalue(params: ModelParams1D, n: int) -> float:
    p = params
    omega2 = (2.0 * math.pi * n / p.h) ** 2
    return 2.0 * p.k1 * (omega2 + p.sigma * p.sigma)


def analytic_cholesteric_spectrum(params: ModelParams1D, n_max: int) -> list[AnalyticMode]:
    """Closed-form second-variation spectrum at the trivial state.

    Smectic perturbations: the constant mode has eigenvalue
    d + 2 lambda2 q^4 cos^4(theta0) + 2 lambda1 q^4 and each oscillatory mode
    n >= 1 contributes a degenerate sine/cosine pair with eigenvalue
    d + 2 lambda2 q^4 cos^4(theta0) + 2 lambda1 ((2 pi n / h)^2 - q^2)^2.
    Tilt perturbations contribute 2 k1 ((2 pi n / h)^2 + sigma^2) for
    n = 0..n_max (one-constant case k1 = k2 = k3).
    """
    if n_max < params.n0:
        raise ValueError(f"n_max = {n_max} must reach the layer mode n0 = {params.n0}")
    p = params
    modes = [AnalyticMode("rho_const", 0, p.d - d_critical(p) + 2.0 * p.lambda1 * p.q**4)]
    for n in range(1, n_max + 1):
        val = _rho_mode_eigenvalue(params, n)
        modes.append(AnalyticMode("rho_sin", n, val))
        modes.append(AnalyticMode("rho_cos", n, val))
    for n in range(n_max + 1):
        modes.append(AnalyticMode("theta", n, _theta_mode_eigenvalue(params, n)))
    return modes


def morse_index_analytic(params: ModelParams1D) -> int:
    """Morse index of the trivial state in the full perturbation space.

    2 * card{n >= 1 : rho-mode eigenvalue < 0} + m0 with m0 = 1 iff the
    constant-mode eigenvalue d + 2 lambda2 q^4 cos^4(theta0) + 2 lambda1 q^4
    is negative.  Tilt modes never contribute (their eigenvalues are
    positive).
    """
    p = params
    base = p.d - d_critical(p)
    if p.lambda1 == 0:
        if base < 0:
            raise ValueError("morse index diverges: lambda1 = 0 leaves every layering mode unstable")
        return 0
    count = 0
    n = 1
    while True:
        val = _rho_mode_eigenvalue(params, n)
        if val < 0:
            count += 1
        elif n > p.n0:
            break
        n += 1
    m0 = 1 if base + 2.0 * p.lambda1 * p.q**4 < 0 else 0
    return 2 * count + m0


def second_variation_tilt(
    t: float,
    params: ModelParams1D,
    theta_bar: np.ndarray,
    grid: Grid,
) -> float:
    """Second variation of the energy in a tilt direction at frozen layering.

    2 * int_0^h  k1 theta_bar_z^2 + k1 sigma^2 theta_bar^2
                 - 2 lambda2 t^2 q^4 sin^2(q z) cos^2(theta0) theta_bar^2  dz

    for the untilted state with layer profile t*sin(q z); ``theta_bar`` is a
    perturbation sampled on ``grid`` (differentiated spectrally).  Assumes
    k1 = k2 = k3.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    p = params
    tb = np.asarray(theta_bar, dtype=float)
    if tb.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} perturbation samples, got {tb.shape}")
    band = grid.m // 2 - 1
    tb_z = synthesize(analyze(tb, "cosine", grid, band), "cosine", grid, order=1)
    z = grid.nodes
    weight = 2.0 * p.lambda2 * t * t * p.q**4 * np.sin(p.q * z) ** 2 * math.cos(p.theta0) ** 2
    integrand = p.k1 * tb_z**2 + p.k1 * p.sigma**2 * tb**2 - weight * tb**2
    return 2.0 * quadrature(integrand, p.h)


def optimal_constant_tilt(
    t: float,
    params: ModelParams1D,
    n: int = 16,
    tol: float = 1e-6,
) -> float:
    """Golden-section minimizer of the energy over constant tilt at frozen layering.

    Independent numeric counterpart of :func:`smectic1d.params.theta_star`: minimizes the full
    energy of the state (theta = const, rho = t*sin(q z)) over
    theta in [0, pi/2).
    """
    ev = Evaluator(n, params)

    def energy_at(theta: float) -> float:
        return ev.energy(frozen_layer_state(t, theta, params, n).pack())

    lo, hi = 0.0, math.pi / 2 - 1e-9
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = energy_at(c), energy_at(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = energy_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = energy_at(d)
    return 0.5 * (a + b)
