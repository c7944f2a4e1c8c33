"""Independent routes that check the library's results; only the tests call them.

The library computes stationarity, stability and the bifurcation by
relaxation and Hessian spectra.  The routes here reach the same quantities
another way, so that a test can compare the two:

- :func:`el_residual`: the strong-form Euler-Lagrange residuals on the grid,
  pointwise and with the cubic term e rho^2, against the weak-form gradient
  of :class:`smectic1d.Evaluator`.
- :func:`analytic_cholesteric_spectrum` and :func:`morse_index_analytic`: the
  closed-form second variation at the trivial state, against
  :func:`smectic1d.spectrum`.
- :func:`second_variation_tilt` and :func:`optimal_constant_tilt`: the
  frozen-layer analysis by quadrature and by golden section, against the
  closed forms :func:`smectic1d.tilt_thresholds` and
  :func:`smectic1d.theta_star`.
- :func:`pitchfork_exponent`: the amplitude exponent of a sweep's layering
  onset.
- :func:`f_el_expanded`: the tensor elastic density in its expanded
  arrangement, against the curl form :func:`smectic1d.tensor.f_el`.
- :func:`f_bn`: the nematic bulk density, whose uniaxial minimum checks
  :func:`smectic1d.compute_s_plus`.
- :func:`f_layer`: the layer density, which the resonant layer mode of a
  program state must annihilate.

Two grid tools serve these routes and the tests' own references:
:func:`synthesize_derivative`, the first and second z-derivatives of a
cosine or sine series, and :func:`quadrature`, the trapezoid rule on all M
nodes.  The library needs neither: its evaluator samples the derivatives
through its own operators and sums over the half grid.

It also holds :data:`OFF_DEFAULT` and :data:`OFF_HEIGHT`, the parameter
sets at which the tests run these routes away from the default point.

This module is not a ``test_*`` file, so pytest does not collect it; tests
import it as ``from crosscheck import ...``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from smectic1d import Evaluator, ModelParams1D, SpectralState, SweepRecord, d_critical, default_grid
from smectic1d.energy1d import _check_state
from smectic1d.minimize import frozen_layer_state
from smectic1d.spectral import TWO_PI, Grid, _tables, analyze, synthesize
from smectic1d.sweep import EPS_DETECT

#: Model coefficients that break the default coincidences q = sigma,
#: k1 = k2 = k3, n0 = 4 and lambda1 = lambda2 (here n0 = 6), so that a term
#: with q and sigma, or k2 and k3, swapped does not match a reference.
OFF_DEFAULT = dict(q=6.0, sigma=2.5, k1=0.01, k2=0.03, k3=0.05, theta0=math.pi / 7, lambda1=0.002, lambda2=0.0007)
#: :data:`OFF_DEFAULT` on a cell of height h = 3 pi with q = 2 (n0 = 3), so
#: that a mode frequency k in place of 2 pi k / h does not match a reference.
OFF_HEIGHT = dict(OFF_DEFAULT, q=2.0, h=3.0 * math.pi)

# -- grid tools ----------------------------------------------------------------


def synthesize_derivative(coeffs: np.ndarray, basis: str, grid: Grid, order: int) -> np.ndarray:
    """d^r/dz^r of sum_k c_k [cos|sin](2*k*pi*z/h) on the grid nodes, for r = 1 or 2.

    Modes are numbered as in :func:`smectic1d.synthesize`.  Each mode picks up
    the frequency factor (2*k*pi/h)^r; the first derivative swaps the basis
    family (cos -> -sin, sin -> cos) and the second keeps it with a minus sign.
    """
    if order not in (1, 2):
        raise ValueError(f"unsupported derivative order {order}; supported: 1, 2")
    if basis not in ("cosine", "sine"):
        raise ValueError(f"unknown basis {basis!r}")
    c = np.asarray(coeffs, dtype=float)
    first = 0 if basis == "cosine" else 1
    cos_t, sin_t = _tables(grid.m, c.size - 1 + first)
    omega = (TWO_PI / grid.h) * np.arange(first, c.size + first)
    if basis == "cosine":
        cols, sign = (sin_t if order == 1 else cos_t), -1.0
    else:
        cols, sign = (cos_t if order == 1 else sin_t)[:, 1:], (1.0 if order == 1 else -1.0)
    return cols @ (sign * omega**order * c)


def quadrature(values: np.ndarray, h: float) -> float:
    """Periodic trapezoidal rule (h/M) * sum(values) over all M nodes.

    Spectrally accurate for smooth periodic integrands and exact for
    trigonometric polynomials below the Nyquist limit.
    """
    v = np.asarray(values, dtype=float)
    return float(v.sum() * (h / v.size))


# -- Euler-Lagrange residual -------------------------------------------------


def _chi_prime(c: np.ndarray, s: np.ndarray, sin_2t: np.ndarray, k2: float, k3: float, sigma: float) -> np.ndarray:
    """d/dtheta of the chiral density: k2^2 k3 sigma^2 sin(2 theta) / (k2 cos^2 + k3 sin^2)^2.

    Takes c = cos(theta), s = sin(theta) and sin_2t = sin(2 theta).
    """
    den = k2 * c * c + k3 * s * s
    return (k2 * k2 * k3 * sigma * sigma) * sin_2t / (den * den)


def el_residual(state: SpectralState, params: ModelParams1D) -> tuple[np.ndarray, np.ndarray]:
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
    g = default_grid(state.n, params.h)
    theta = state.theta_values()
    rho = state.rho_values()
    rho_zz = synthesize_derivative(state.rho_s, "sine", g, 2)
    # the fourth derivative scales sine mode k by omega_k^4 = (2 pi k / h)^4
    omega = (TWO_PI / g.h) * np.arange(1, state.n + 2)
    rho_zzzz = synthesize(omega**4 * state.rho_s, "sine", g)
    theta_zz = synthesize_derivative(state.theta_c, "cosine", g, 2)
    q2 = p.q * p.q
    cos2t0 = math.cos(p.theta0) ** 2
    # explicit products, as in Evaluator: numpy's rho**3 is not exactly odd
    sin_t = np.sin(theta)
    sin2 = sin_t * sin_t
    rho2 = rho * rho
    w_field = sin2 * rho_zz + q2 * cos2t0 * rho

    sin_2t = np.sin(2.0 * theta)
    r_theta = -2.0 * p.k1 * theta_zz + _chi_prime(np.cos(theta), sin_t, sin_2t, p.k2, p.k3, p.sigma) \
        + 2.0 * p.lambda2 * w_field * sin_2t * rho_zz

    band = g.m // 2 - 1
    prod = sin2 * w_field  # odd in z: sine series
    prod_zz = synthesize_derivative(analyze(prod, "sine", g, band), "sine", g, 2)
    r_rho = p.d * rho - p.e * rho2 + p.f * rho2 * rho \
        + 2.0 * p.lambda1 * (rho_zzzz + 2.0 * q2 * rho_zz + q2 * q2 * rho) \
        + 2.0 * p.lambda2 * (prod_zz + q2 * cos2t0 * w_field)
    return r_theta, r_rho


# -- closed-form spectrum at the trivial state --------------------------------


class AnalyticMode(NamedTuple):
    """One closed-form eigenvalue: which family, which mode index, which value."""

    kind: str  # "rho_const" | "rho_sin" | "rho_cos" | "theta"
    n: int
    value: float


def _rho_mode_eigenvalue(params: ModelParams1D, n: int) -> float:
    p = params
    omega2 = (2.0 * math.pi * n / p.h) ** 2
    return p.d - d_critical(p) + 2.0 * p.lambda1 * (omega2 - p.q * p.q) ** 2


def _theta_mode_eigenvalue(params: ModelParams1D, n: int) -> float:
    p = params
    omega2 = (2.0 * math.pi * n / p.h) ** 2
    return 2.0 * (p.k1 * omega2 + p.k3 * p.sigma * p.sigma)


def analytic_cholesteric_spectrum(params: ModelParams1D, n_max: int) -> list[AnalyticMode]:
    """Closed-form second-variation spectrum at the trivial state.

    Smectic perturbations: the constant mode has eigenvalue
    d + 2 lambda2 q^4 cos^4(theta0) + 2 lambda1 q^4 and each oscillatory mode
    n >= 1 contributes a degenerate sine/cosine pair with eigenvalue
    d + 2 lambda2 q^4 cos^4(theta0) + 2 lambda1 ((2 pi n / h)^2 - q^2)^2.
    Tilt perturbations contribute 2 (k1 (2 pi n / h)^2 + k3 sigma^2) for
    n = 0..n_max: to second order in theta the chiral term is
    -k2 sigma^2 + k3 sigma^2 theta^2, so the twist stiffness of the tilt is
    k3.  Every constant k1, k2, k3 is covered.
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


# -- frozen-layer tilt analysis -----------------------------------------------


def second_variation_tilt(
    t: float,
    params: ModelParams1D,
    theta_bar: np.ndarray,
    grid: Grid,
) -> float:
    """Second variation of the energy in a tilt direction at frozen layering.

    2 * int_0^h  k1 theta_bar_z^2 + k3 sigma^2 theta_bar^2
                 - 2 lambda2 t^2 q^4 sin^2(q z) cos^2(theta0) theta_bar^2  dz

    for the untilted state with layer profile t*sin(q z); ``theta_bar`` is a
    perturbation sampled on ``grid`` (differentiated spectrally).  It holds
    for any k1, k2, k3: to second order in theta the chiral term is
    -k2 sigma^2 + k3 sigma^2 theta^2.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    p = params
    tb = np.asarray(theta_bar, dtype=float)
    if tb.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} perturbation samples, got {tb.shape}")
    band = grid.m // 2 - 1
    tb_z = synthesize_derivative(analyze(tb, "cosine", grid, band), "cosine", grid, 1)
    z = grid.nodes
    weight = 2.0 * p.lambda2 * t * t * p.q**4 * np.sin(p.q * z) ** 2 * math.cos(p.theta0) ** 2
    integrand = p.k1 * tb_z**2 + p.k3 * p.sigma**2 * tb**2 - weight * tb**2
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


# -- pitchfork exponent of a sweep --------------------------------------------


def pitchfork_exponent(records: list[SweepRecord], d0: float, window: float) -> float:
    """Least-squares slope of log(delta_rho_max) against log(d0 - d).

    Uses the layered records (delta_rho_max >= EPS_DETECT, the threshold of
    ``detect_transitions``) with d in (d0 - window, d0); a clean pitchfork
    gives slope 1/2.

    Raises
    ------
    ValueError
        If fewer than five usable records fall inside the window.
    """
    pts = [
        (r.d, r.delta_rho_max)
        for r in records
        if d0 - window < r.d < d0 and r.delta_rho_max >= EPS_DETECT and r.converged
    ]
    if len(pts) < 5:
        raise ValueError(f"insufficient records for the pitchfork fit: {len(pts)} inside the window, need >= 5")
    x = np.log([d0 - d for d, _ in pts])
    y = np.log([amp for _, amp in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


# -- tensor elastic density, expanded form ------------------------------------

#: The Levi-Civita symbol with eps[0, 1, 2] = +1.
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def f_el_expanded(q: np.ndarray, g: np.ndarray, eta1: float, eta2: float, eta24: float, sigma: float) -> float:
    """Tensor elastic density in the expanded (quadratic-form) arrangement.

    (eta1/2)|grad Q|^2 + ((eta2-eta24)/2) Q_{ij,j} Q_{ik,k}
    + ((eta24-eta1)/2) Q_{ij,k} Q_{ik,j}
    + 2 eta1 sigma eps_{ikl} Q_{lj,k} Q_{ij} + 2 eta1 sigma^2 |Q|^2,
    for one Q of shape (3, 3) and its gradient G[i, j, k] = dQ_ij/dx_k.

    Agrees with :func:`smectic1d.tensor.f_el` identically.  Its divergence
    and Levi-Civita contraction are its own, not the library's.
    """
    div = np.einsum("ijj->i", g)  # Q_{ij,j}
    div2 = float(div @ div)
    grad2 = float(np.sum(g * g))
    mixed = float(np.einsum("ijk,ikj->", g, g))  # Q_{ij,k} Q_{ik,j}
    cross = float(np.einsum("ikl,ljk,ij->", EPS, g, q))  # eps_{ikl} Q_{lj,k} Q_{ij}
    return (
        0.5 * eta1 * grad2
        + 0.5 * (eta2 - eta24) * div2
        + 0.5 * (eta24 - eta1) * mixed
        + 2.0 * eta1 * sigma * cross
        + 2.0 * eta1 * sigma * sigma * float(np.sum(q * q))
    )


# -- bulk and layer densities --------------------------------------------------


def f_bn(q: np.ndarray, A: float, B: float, C: float) -> float:
    """Nematic bulk density (A/2)trQ^2 - (B/3)trQ^3 + (C/4)(trQ^2)^2 of one Q of shape (3, 3)."""
    t2 = float(np.sum(q * q))
    return 0.5 * A * t2 - (B / 3.0) * float(np.trace(q @ q @ q)) + 0.25 * C * t2 * t2


def f_layer(rho: float, lap_rho: float, lambda1: float, q: float) -> float:
    """Layer density lambda1*(lap(rho) + q^2 rho)^2."""
    r = lap_rho + q * q * rho
    return lambda1 * r * r
