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

theta is a cosine series, even in z, and rho a sine series, odd in z.  The
cubic term is odd in z, so it integrates to zero over the cell for every
state of the ansatz, and the evaluator omits it: e enters no computation of
this module.  Every other term is even in z, which lets the evaluator sum
over half the grid (see :class:`Evaluator`).  The pointwise (strong-form)
Euler-Lagrange residual, which keeps e, is a test-side cross-check of the
gradient, in ``tests/crosscheck.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import ModelParams1D
from .spectral import TWO_PI, SpectralState, _tables, analyze, default_grid, quadrature, synthesize

__all__ = [
    "EnergyBreakdown",
    "Evaluator",
    "energy",
    "gradient",
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


def _chi_second(
    c: np.ndarray, s: np.ndarray, sin_2t: np.ndarray, cos_2t: np.ndarray, k2: float, k3: float, sigma: float
) -> np.ndarray:
    """d^2/dtheta^2 of the chiral density.

    2 k2^2 k3 sigma^2 (cos(2 theta) D - (k3 - k2) sin^2(2 theta)) / D^3 with
    D = k2 cos^2 + k3 sin^2.
    """
    den = k2 * c * c + k3 * s * s
    return (2.0 * k2 * k2 * k3 * sigma * sigma) * (cos_2t * den - (k3 - k2) * sin_2t * sin_2t) / (den * den * den)


class Evaluator:
    """Energy/gradient/Hessian evaluator over packed coefficient vectors.

    Reads the shared trig table (``spectral._tables``) for order N on its
    alias-free grid ``default_grid(N, h)`` of M = 4(N+2) nodes, so that
    repeated evaluations (line searches, sweeps, finite differences) cost a
    handful of dense matrix-vector products each.

    Only the nodes z_j, j = 0 ... M/2, are used.  theta and its cosine
    modes are even in z; rho, theta_z, rho_zz and the sine modes are odd.
    Every integrand of the energy, gradient and Hessian is a product with an
    even number of odd factors, so it is even in z, and its values at z_j
    and z_{M-j} are equal.  The periodic trapezoid sum over all M nodes is
    then the sum over the M/2+1 nodes of the half grid with the weights
    (1, 2, ..., 2, 1) h/M (:attr:`weights`); M is even for every N.  A term
    added to the functional must be even in z too, or it needs the full
    grid: the odd cubic term e rho^3 is omitted for that reason.

    At N = 64 an evaluation is about fifty numpy calls on 133-node arrays,
    so the overhead per call, not the arithmetic, sets the cost.  The
    constant factors of the energy and gradient terms are therefore computed
    once per parameter set, each grouped as in the left-to-right expression
    it stands for, and stored as half-grid arrays: numpy multiplies two
    arrays faster than an array by a Python float, with the same IEEE
    products.  Every result is the one the plain expressions give, bit for
    bit.

    The pointwise terms of the last vector evaluated are the one kept
    entry, so the gradient at an accepted line-search point reuses the
    fields its energy synthesized.  The entry is keyed on the bytes of the
    vector, not on its identity: a caller may mutate the array it passed, or
    pass one with the same bytes built anew, and either way gets the result
    of a fresh evaluation bit for bit (-0.0 and +0.0 have different bytes,
    so a sign flip of a zero is a miss).  The terms are computed per block
    (theta, rho), then the coupling W that mixes both, so the
    finite-difference Hessian (:meth:`fd_hessian`) computes the block that a
    column does not move once and re-synthesizes only the block it moves.
    """

    def __init__(self, n: int, params: ModelParams1D):
        grid = default_grid(n, params.h)
        self.n = n
        self.params = params
        self.grid = grid
        half = grid.m // 2 + 1

        # the first M/2+1 rows of the one trig table: nodes z_0 ... z_{M/2}
        cos_tab, sin_tab = _tables(grid.m, n + 1)
        self._cos, self._sin_theta = cos_tab[:half], sin_tab[:half]
        self._sin = self._sin_theta[:, 1:]
        self._cos_T, self._sin_theta_T, self._sin_T = self._cos.T, self._sin_theta.T, self._sin.T
        # frequency factors of theta_z and rho_zz; the minus sign of each
        # derivative table rides on a negated copy: A @ ((-w) * c) is
        # -(A @ (w * c)) exactly
        self._wt1 = (TWO_PI / grid.h) * np.arange(n + 2)
        self._wr2 = self._wt1[1:] ** 2
        self._neg_wt1 = -self._wt1
        self._neg_wr2 = -self._wr2
        # constant factors as half-grid arrays, each grouped as in the
        # expression it stands for: 2.0 * p.lambda2 * cw is
        # (2.0 * p.lambda2) * cw, and 2.0 * theta is theta + theta
        p = params
        q2 = p.q * p.q
        cos2t0 = math.cos(p.theta0) ** 2

        def full(value: float) -> np.ndarray:
            return np.full(half, value)

        # the periodic trapezoid rule folded onto the half grid: nodes j and
        # M - j carry equal values, so each interior node counts twice
        w = grid.h / grid.m
        self.weights = full(2.0 * w)
        self.weights[[0, -1]] = w
        self._q2, self._cos2t0, self._q2_cos2t0 = full(q2), full(cos2t0), full(q2 * cos2t0)
        self._k1, self._k2, self._k3 = full(p.k1), full(p.k2), full(p.k3)
        self._k1x2 = full(2.0 * p.k1)
        self._lambda1, self._lambda2 = full(p.lambda1), full(p.lambda2)
        self._l1x2, self._l2x2 = full(2.0 * p.lambda1), full(2.0 * p.lambda2)
        self._d, self._f = full(p.d), full(p.f)
        self._d_half, self._f_quarter = full(0.5 * p.d), full(0.25 * p.f)
        self._chi0 = full(-(p.k2 * p.k2 * p.sigma * p.sigma))  # chi = chi0 cos^2 / D
        self._chi1 = full(p.k2 * p.k2 * p.k3 * p.sigma * p.sigma)  # chi' = chi1 sin(2 theta) / D^2
        # (bytes, terms) of the last vector, replaced as one pair: threads sharing
        # an evaluator never pair the key of one evaluation with the terms of another
        self._last: tuple[bytes, tuple] | None = None

    # -- field synthesis -------------------------------------------------

    def fields(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Samples (theta, theta_z, rho, rho_zz) on the full grid ``self.grid``, for diagnostics.

        Synthesized anew on all M nodes; the evaluation itself uses only the
        half grid.
        """
        tc, rs = vec[: self.n + 2], vec[self.n + 2 :]
        return (synthesize(tc, "cosine", self.grid), synthesize(tc, "cosine", self.grid, 1),
                synthesize(rs, "sine", self.grid), synthesize(rs, "sine", self.grid, 2))

    def _theta_terms(self, tc: np.ndarray) -> tuple[np.ndarray, ...]:
        """theta, theta_z, sin, cos, sin^2 and k3 sin^2 of theta, the last as (k3 sin) sin like the chiral denominators.

        Powers are explicit products throughout: numpy's vectorized ** is not exactly
        even in its argument, which would break the exact rho -> -rho energy symmetry.
        """
        theta = self._cos @ tc
        sin_t = np.sin(theta)
        theta_z = self._sin_theta @ (self._neg_wt1 * tc)
        return theta, theta_z, sin_t, np.cos(theta), sin_t * sin_t, self._k3 * sin_t * sin_t

    def _rho_terms(self, rs: np.ndarray) -> tuple[np.ndarray, ...]:
        """rho, rho_zz, rho^2 and the layer term L = rho_zz + q^2 rho."""
        rho = self._sin @ rs
        rho_zz = self._sin @ (self._neg_wr2 * rs)
        return rho, rho_zz, rho * rho, rho_zz + self._q2 * rho

    def _coupling(self, theta: tuple, rho: tuple) -> np.ndarray:
        """W = sin^2(theta) rho_zz + q^2 cos^2(theta0) rho from the terms of each block; it mixes both."""
        return theta[4] * rho[1] + self._q2_cos2t0 * rho[0]

    def _pointwise(self, vec: np.ndarray) -> tuple:
        """(theta terms, rho terms, W) of ``vec``; the kept entry if ``vec`` has its bytes."""
        key = vec.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        theta = self._theta_terms(vec[: self.n + 2])
        rho = self._rho_terms(vec[self.n + 2 :])
        terms = (theta, rho, self._coupling(theta, rho))
        self._last = (key, terms)
        return terms

    # -- energy ----------------------------------------------------------

    def _integrals(self, vec: np.ndarray) -> tuple[float, float, float, float, float]:
        """The five weighted sums: elastic, chiral, bulk, layer, coupling.

        The integrands are the rows of one array, summed against the
        half-grid weights in one product.
        """
        (_, theta_z, _, cos_t, _, k3s2), (_, _, rho2, lay), cw = self._pointwise(vec)
        c2 = cos_t * cos_t
        rows = np.array([
            self._k1 * theta_z * theta_z,
            self._chi0 * c2 / (self._k2 * c2 + k3s2),
            self._d_half * rho2 + self._f_quarter * rho2 * rho2,
            self._lambda1 * lay * lay,
            self._lambda2 * cw * cw,
        ])
        return tuple((rows @ self.weights).tolist())

    def breakdown(self, vec: np.ndarray) -> EnergyBreakdown:
        elastic, chiral, bulk, layer, coupling = self._integrals(vec)
        return EnergyBreakdown(elastic + chiral + bulk + layer + coupling, elastic, chiral, bulk, layer, coupling)

    def energy(self, vec: np.ndarray) -> float:
        elastic, chiral, bulk, layer, coupling = self._integrals(vec)
        return elastic + chiral + bulk + layer + coupling

    def gradient(self, vec: np.ndarray) -> np.ndarray:
        """Exact gradient of the discretized energy with respect to the coefficients."""
        theta, rho, cw = self._pointwise(vec)
        return self._assemble(theta, rho, cw, self._theta_grad_terms(theta), self._rho_grad_terms(rho))

    def _theta_grad_terms(self, theta_terms: tuple) -> tuple[np.ndarray, ...]:
        """sin(2 theta), chi'(theta) and the twist part wt1 * (sin_tab^T (w 2 k1 theta_z))."""
        theta, theta_z, _, cos_t, _, k3s2 = theta_terms
        sin_2t = np.sin(theta + theta)
        den = self._k2 * cos_t * cos_t + k3s2
        twist = self._wt1 * (self._sin_theta_T @ (self.weights * (self._k1x2 * theta_z)))
        return sin_2t, self._chi1 * sin_2t / (den * den), twist

    def _rho_grad_terms(self, rho_terms: tuple) -> tuple[np.ndarray, np.ndarray]:
        """2 lambda1 L and dphi/drho without W: d rho + f rho^3 + 2 lambda1 L q^2, in that order."""
        rho, _, rho2, lay = rho_terms
        l2 = self._l1x2 * lay  # 2 lambda1 L
        return l2, self._d * rho + self._f * rho2 * rho + l2 * self._q2

    def _assemble(self, theta: tuple, rho: tuple, cw: np.ndarray, theta_grad: tuple, rho_grad: tuple) -> np.ndarray:
        """The gradient from each block's terms and gradient terms and from W."""
        sin2, rho_zz = theta[4], rho[1]
        sin_2t, chi_t, twist_t = theta_grad
        l2, rho_only = rho_grad
        w = self.weights
        w2 = self._l2x2 * cw  # 2 lambda2 W
        dphi_dtheta = chi_t + w2 * sin_2t * rho_zz
        dphi_drho = rho_only + w2 * self._q2 * self._cos2t0
        dphi_drho_zz = l2 + w2 * sin2

        n = self.n
        g = np.empty(2 * n + 3)
        g_theta, g_rho = g[: n + 2], g[n + 2 :]
        np.matmul(self._cos_T, w * dphi_dtheta, out=g_theta)
        g_theta -= twist_t
        np.matmul(self._sin_T, w * dphi_drho, out=g_rho)
        g_rho -= self._wr2 * (self._sin_T @ (w * dphi_drho_zz))
        return g

    def fd_hessian(self, vec: np.ndarray, step: float) -> np.ndarray:
        """Hessian by central differences of the gradient, as (H + H^T)/2.

        Column j differences the gradient at vec +- delta e_j and
        vec +- 2 delta e_j, delta = step * max(1, |vec|_inf), and combines
        them as (4 col_delta - col_2delta) / 3 (Richardson).  Every probe is
        vec + 0.0 with coefficient j moved, so the block that j does not lie
        in is synthesized once and each probe synthesizes only the block it
        moves; each column is, bit for bit, what fresh gradient calls give.
        """
        n = self.n
        probe = vec + 0.0
        theta, rho = self._theta_terms(probe[: n + 2]), self._rho_terms(probe[n + 2 :])
        theta_grad, rho_grad = self._theta_grad_terms(theta), self._rho_grad_terms(rho)

        def gradient_at(j: int, value: float) -> np.ndarray:
            probe[j] = value
            if j < n + 2:
                moved = self._theta_terms(probe[: n + 2])
                return self._assemble(moved, rho, self._coupling(moved, rho), self._theta_grad_terms(moved), rho_grad)
            moved = self._rho_terms(probe[n + 2 :])
            return self._assemble(theta, moved, self._coupling(theta, moved), theta_grad, self._rho_grad_terms(moved))

        delta = step * max(1.0, float(np.max(np.abs(vec))))
        delta2 = 2.0 * delta
        h_mat = np.empty((probe.size, probe.size))
        for j in range(probe.size):
            x_j = vec[j]
            col_1 = (gradient_at(j, x_j + delta) - gradient_at(j, x_j - delta)) / delta2
            col_2 = (gradient_at(j, x_j + delta2) - gradient_at(j, x_j - delta2)) / (4.0 * delta)
            probe[j] = x_j + 0.0
            h_mat[:, j] = (4.0 * col_1 - col_2) / 3.0
        return 0.5 * (h_mat + h_mat.T)

    def hessian(self, vec: np.ndarray) -> np.ndarray:
        """Exact Hessian of the discretized energy with respect to the coefficients.

        Assembled as sum_ab B_a^T diag(w d^2phi/da db) B_b over the field
        blocks a, b in (theta, theta_z, rho, rho_zz), where B_a maps the
        coefficients to the grid samples of field a.  The derivative blocks
        are column-scaled trig tables, so each product is a table product
        scaled by the frequency factors.  Returned as (H + H^T)/2, exactly
        symmetric; the asymmetry this removes is rounding only.  Shares the
        field synthesis of the last energy or gradient at ``vec``.
        """
        p = self.params
        (theta, _, sin_t, cos_t, sin2, _), (_, rho_zz, rho2, _), cw = self._pointwise(vec)
        w = self.weights
        q2, cos2t0 = p.q * p.q, math.cos(p.theta0) ** 2
        l1, l2 = 2.0 * p.lambda1, 2.0 * p.lambda2
        wt1, wr2 = self._wt1, self._wr2

        sin_2t = np.sin(2.0 * theta)
        cos_2t = np.cos(2.0 * theta)
        dw_dtheta = sin_2t * rho_zz  # dW/dtheta
        # second derivatives of the integrand phi: t = theta, r = rho, q = rho_zz
        phi_tt = _chi_second(cos_t, sin_t, sin_2t, cos_2t, p.k2, p.k3, p.sigma) \
            + l2 * (dw_dtheta * dw_dtheta + 2.0 * cw * cos_2t * rho_zz)
        phi_tr = (l2 * q2 * cos2t0) * dw_dtheta
        phi_tq = l2 * sin_2t * (sin2 * rho_zz + cw)
        phi_rr = p.d + 3.0 * p.f * rho2 + (l1 + l2 * cos2t0 * cos2t0) * q2 * q2
        phi_rq = (l1 + l2 * cos2t0 * sin2) * q2
        phi_qq = l1 + l2 * sin2 * sin2

        def gram(a: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
            return a.T @ ((w * d)[:, None] * b)

        # B(theta_z) = -sin_t_tab . diag(wt1), B(rho_zz) = -sin_r_tab . diag(wr2);
        # theta_z mixes with no field (phi_{theta_z a} = 0 for a != theta_z)
        cos_t_tab, sin_t_tab, sin_r_tab = self._cos, self._sin_theta, self._sin
        h_tt = gram(cos_t_tab, phi_tt, cos_t_tab) + wt1[:, None] * gram(sin_t_tab, self._k1x2, sin_t_tab) * wt1
        h_tr = gram(cos_t_tab, phi_tr, sin_r_tab) - gram(cos_t_tab, phi_tq, sin_r_tab) * wr2
        s_rq = gram(sin_r_tab, phi_rq, sin_r_tab)
        h_rr = gram(sin_r_tab, phi_rr, sin_r_tab) - s_rq * wr2 - wr2[:, None] * s_rq \
            + wr2[:, None] * gram(sin_r_tab, phi_qq, sin_r_tab) * wr2
        # symmetrized per diagonal block, so the assembled matrix is exactly
        # symmetric without a full-size temporary
        return np.block([[0.5 * (h_tt + h_tt.T), h_tr], [h_tr.T, 0.5 * (h_rr + h_rr.T)]])


def _check_state(state: SpectralState, params: ModelParams1D) -> None:
    if abs(state.h - params.h) > 1e-12 * max(1.0, abs(params.h)):
        raise ValueError(f"state cell height {state.h} does not match the model cell {params.h}")


def energy(state: SpectralState, params: ModelParams1D) -> EnergyBreakdown:
    """Energy of a state, broken into its five contributions.

    Evaluated by quadrature of the exact integrand on the alias-free grid
    M = 4(N+2), summed over its M/2+1 nodes z_0 ... z_{M/2} (the integrand
    is even in z; see :class:`Evaluator`); deterministic for fixed inputs.
    """
    _check_state(state, params)
    return Evaluator(state.n, params).breakdown(state.pack())


def gradient(state: SpectralState, params: ModelParams1D) -> np.ndarray:
    """Gradient of the discretized energy with respect to (theta_c, rho_s)."""
    _check_state(state, params)
    return Evaluator(state.n, params).gradient(state.pack())


def reconstruct_director(
    state: SpectralState, params: ModelParams1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Azimuth and director profile (phi, n1, n2, n3) on ``default_grid(N, h)``.

    phi(z) = int_0^z sigma k2 / (k2 cos^2 theta + k3 sin^2 theta) dzeta with
    phi(0) = 0, integrated spectrally (exact mean plus periodic
    antiderivative), and n = (cos phi cos theta, sin phi cos theta,
    sin theta).
    """
    _check_state(state, params)
    p = params
    g = default_grid(state.n, params.h)
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


def mean_tilt(state: SpectralState, params: ModelParams1D) -> float:
    """Average tilt (1/h) int_0^h theta dz."""
    return quadrature(state.theta_values(default_grid(state.n, params.h)), params.h) / params.h
