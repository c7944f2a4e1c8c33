"""The reduced one-dimensional free energy, its gradient, and diagnostics.

The functional evaluated here, for tilt angle theta(z) and smectic order
parameter rho(z) on the periodic cell [0, h], is

    F = int_0^h  k1 theta_z^2
              -  k2^2 sigma^2 cos^2(theta) / (k2 cos^2(theta) + k3 sin^2(theta))
              +  (d/2) rho^2 - (e/3) rho^3 + (f/4) rho^4
              +  lambda1 (rho_zz + q^2 rho)^2
              +  lambda2 (sin^2(theta) rho_zz + q^2 rho cos^2(theta0))^2   dz.

The chiral term is already minimized over the azimuth: the azimuthal angle
obeys phi_z = sigma k2 / (k2 cos^2 theta + k3 sin^2 theta) and has been
eliminated.  Note the baseline: the trivial state (theta = rho = 0) has
energy -k2 sigma^2 h, not 0; the functional is kept in this literal form
since minimizers and spectra are unaffected by the constant.

Gradients are exact gradients of the discretized energy: grid-space
variational derivative of the integrand followed by the adjoint transform.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import ModelParams1D
from .spectral import TWO_PI, Grid, SpectralState, _tables, analyze, default_grid, quadrature, synthesize

__all__ = [
    "EnergyBreakdown",
    "Evaluator",
    "energy",
    "gradient",
    "el_residual",
    "reconstruct_director",
]


class EnergyBreakdown(NamedTuple):
    """Total energy and the five integral contributions that sum to it."""

    total: float
    elastic_theta: float
    chiral: float
    bulk_smectic: float
    layer: float
    coupling: float


def _chi(theta: np.ndarray, k2: float, k3: float, sigma: float) -> np.ndarray:
    """Azimuth-eliminated chiral density -k2^2 sigma^2 cos^2 / (k2 cos^2 + k3 sin^2)."""
    c = np.cos(theta)
    s = np.sin(theta)
    c2 = c * c
    return -(k2 * k2 * sigma * sigma) * c2 / (k2 * c2 + k3 * s * s)


def _chi_prime(theta: np.ndarray, k2: float, k3: float, sigma: float) -> np.ndarray:
    """d/dtheta of the chiral density: k2^2 k3 sigma^2 sin(2 theta) / (k2 cos^2 + k3 sin^2)^2."""
    c = np.cos(theta)
    s = np.sin(theta)
    den = k2 * c * c + k3 * s * s
    return (k2 * k2 * k3 * sigma * sigma) * np.sin(2.0 * theta) / (den * den)


class Evaluator:
    """Energy/gradient evaluator over packed coefficient vectors.

    Reads the shared trig table (``spectral._tables``) for a fixed (N, grid)
    pair so that repeated evaluations (line searches, sweeps, finite
    differences) cost a handful of dense matrix-vector products each.
    """

    def __init__(self, n: int, params: ModelParams1D, grid: Grid | None = None):
        if grid is None:
            grid = default_grid(n, params.h)
        if abs(grid.h - params.h) > 1e-12 * max(1.0, abs(params.h)):
            raise ValueError(f"grid height {grid.h} does not match the model cell {params.h}")
        grid.check_order(n)
        self.n = n
        self.params = params
        self.grid = grid
        self.weight = grid.h / grid.m

        self._cos, self._sin_theta = _tables(grid.m, n + 1)
        self._sin = self._sin_theta[:, 1:]
        # synthesis of derivatives: theta' = -sin * (w c); rho'' = -sin * (w^2 r)
        self._wt1 = (TWO_PI / grid.h) * np.arange(n + 2)
        self._wr2 = self._wt1[1:] ** 2
        self._q2 = params.q * params.q
        self._cos2t0 = math.cos(params.theta0) ** 2

    # -- field synthesis -------------------------------------------------

    def fields(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Grid samples (theta, theta_z, rho, rho_zz)."""
        tc, rs = vec[: self.n + 2], vec[self.n + 2 :]
        theta = self._cos @ tc
        theta_z = -(self._sin_theta @ (self._wt1 * tc))
        rho = self._sin @ rs
        rho_zz = -(self._sin @ (self._wr2 * rs))
        return theta, theta_z, rho, rho_zz

    def _pointwise(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Fields plus the pointwise terms shared by energy and gradient.

        Returns (theta, theta_z, rho, rho_zz, sin^2 theta, rho^2, L, W) with
        the layer term L = rho_zz + q^2 rho and the coupling term
        W = sin^2(theta) rho_zz + q^2 cos^2(theta0) rho.  Powers are explicit
        products: numpy's vectorized ** is not exactly even in its argument,
        which would break the exact rho -> -rho energy symmetry.
        """
        theta, theta_z, rho, rho_zz = self.fields(vec)
        sin_t = np.sin(theta)
        sin2 = sin_t * sin_t
        rho2 = rho * rho
        lay = rho_zz + self._q2 * rho
        cw = sin2 * rho_zz + self._q2 * self._cos2t0 * rho
        return theta, theta_z, rho, rho_zz, sin2, rho2, lay, cw

    # -- energy ----------------------------------------------------------

    def breakdown(self, vec: np.ndarray) -> EnergyBreakdown:
        p = self.params
        theta, theta_z, rho, _, _, rho2, lay, cw = self._pointwise(vec)
        w = self.weight
        elastic = w * float(np.sum(p.k1 * theta_z * theta_z))
        chiral = w * float(np.sum(_chi(theta, p.k2, p.k3, p.sigma)))
        bulk = w * float(np.sum(0.5 * p.d * rho2 - (p.e / 3.0) * rho2 * rho + 0.25 * p.f * rho2 * rho2))
        layer = w * float(np.sum(p.lambda1 * lay * lay))
        coupling = w * float(np.sum(p.lambda2 * cw * cw))
        total = elastic + chiral + bulk + layer + coupling
        return EnergyBreakdown(total, elastic, chiral, bulk, layer, coupling)

    def energy(self, vec: np.ndarray) -> float:
        return self.breakdown(vec).total

    def gradient(self, vec: np.ndarray) -> np.ndarray:
        """Exact gradient of the discretized energy with respect to the coefficients."""
        p = self.params
        theta, theta_z, rho, rho_zz, sin2, rho2, lay, cw = self._pointwise(vec)
        w = self.weight
        q2, cos2t0 = self._q2, self._cos2t0

        dphi_dtheta = _chi_prime(theta, p.k2, p.k3, p.sigma) + 2.0 * p.lambda2 * cw * np.sin(2.0 * theta) * rho_zz
        dphi_dtheta_z = 2.0 * p.k1 * theta_z
        dphi_drho = p.d * rho - p.e * rho2 + p.f * rho2 * rho + 2.0 * p.lambda1 * lay * q2 + 2.0 * p.lambda2 * cw * q2 * cos2t0
        dphi_drho_zz = 2.0 * p.lambda1 * lay + 2.0 * p.lambda2 * cw * sin2

        g_theta = self._cos.T @ (w * dphi_dtheta) - self._wt1 * (self._sin_theta.T @ (w * dphi_dtheta_z))
        g_rho = self._sin.T @ (w * dphi_drho) - self._wr2 * (self._sin.T @ (w * dphi_drho_zz))
        return np.concatenate([g_theta, g_rho])


def _check_state(state: SpectralState, params: ModelParams1D) -> None:
    if abs(state.h - params.h) > 1e-12 * max(1.0, abs(params.h)):
        raise ValueError(f"state cell height {state.h} does not match the model cell {params.h}")


def energy(state: SpectralState, params: ModelParams1D, grid: Grid | None = None) -> EnergyBreakdown:
    """Energy of a state, broken into its five contributions.

    Evaluated by quadrature of the exact integrand on an anti-aliased grid
    (M >= 4(N+2) by default); deterministic for fixed inputs.
    """
    _check_state(state, params)
    return Evaluator(state.n, params, grid).breakdown(state.pack())


def gradient(state: SpectralState, params: ModelParams1D, grid: Grid | None = None) -> np.ndarray:
    """Gradient of the discretized energy with respect to (theta_c, rho_s)."""
    _check_state(state, params)
    return Evaluator(state.n, params, grid).gradient(state.pack())


def el_residual(state: SpectralState, params: ModelParams1D, grid: Grid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Strong-form stationarity residuals on the grid.

    The residuals are the pointwise variational derivatives of the energy:

        R_theta = -2 k1 theta_zz + chi'(theta) + 2 lambda2 W sin(2 theta) rho_zz
        R_rho   = d rho - e rho^2 + f rho^3
                  + 2 lambda1 (rho_zzzz + 2 q^2 rho_zz + q^4 rho)
                  + 2 lambda2 ( (sin^2(theta) W)_zz + q^2 cos^2(theta0) W )

    with W = sin^2(theta) rho_zz + q^2 cos^2(theta0) rho.  Second derivatives
    of products are taken spectrally (analysis up to the grid band limit);
    at a converged minimizer both residuals vanish to solver tolerance.
    """
    _check_state(state, params)
    p = params
    g = grid or default_grid(state.n, params.h)
    g.check_order(state.n)
    theta = state.theta_values(g)
    rho = state.rho_values(g)
    rho_zz = state.rho_values(g, order=2)
    rho_zzzz = state.rho_values(g, order=4)
    theta_zz = state.theta_values(g, order=2)
    q2 = p.q * p.q
    cos2t0 = math.cos(p.theta0) ** 2
    sin2 = np.sin(theta) ** 2
    w_field = sin2 * rho_zz + q2 * cos2t0 * rho

    r_theta = -2.0 * p.k1 * theta_zz + _chi_prime(theta, p.k2, p.k3, p.sigma) \
        + 2.0 * p.lambda2 * w_field * np.sin(2.0 * theta) * rho_zz

    band = g.m // 2 - 1
    prod = sin2 * w_field  # odd in z: sine series
    prod_zz = synthesize(analyze(prod, "sine", g, band), "sine", g, order=2)
    r_rho = p.d * rho - p.e * rho**2 + p.f * rho**3 \
        + 2.0 * p.lambda1 * (rho_zzzz + 2.0 * q2 * rho_zz + q2 * q2 * rho) \
        + 2.0 * p.lambda2 * (prod_zz + q2 * cos2t0 * w_field)
    return r_theta, r_rho


def reconstruct_director(
    state: SpectralState, params: ModelParams1D, grid: Grid | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Azimuth and director profile (phi, n1, n2, n3) on the grid.

    phi(z) = int_0^z sigma k2 / (k2 cos^2 theta + k3 sin^2 theta) dzeta with
    phi(0) = 0, integrated spectrally (exact mean plus periodic
    antiderivative), and n = (cos phi cos theta, sin phi cos theta,
    sin theta).
    """
    _check_state(state, params)
    p = params
    g = grid or default_grid(state.n, params.h)
    theta = state.theta_values(g)
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    integrand = p.sigma * p.k2 / (p.k2 * c2 + p.k3 * s2)
    band = g.m // 2 - 1
    coeff = analyze(integrand, "cosine", g, band)
    # antiderivative of cos(2 pi k z / h) is (h / 2 pi k) sin(2 pi k z / h)
    k = np.arange(1, band + 1)
    phi = coeff[0] * g.nodes + synthesize(coeff[1:] * g.h / (TWO_PI * k), "sine", g)
    n1 = np.cos(phi) * np.cos(theta)
    n2 = np.sin(phi) * np.cos(theta)
    n3 = np.sin(theta)
    return phi, n1, n2, n3


def mean_tilt(state: SpectralState, params: ModelParams1D, grid: Grid | None = None) -> float:
    """Average tilt (1/h) int_0^h theta dz."""
    g = grid or default_grid(state.n, params.h)
    return quadrature(state.theta_values(g), params.h) / params.h
