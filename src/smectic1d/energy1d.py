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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .params import ModelParams1D
from .spectral import TWO_PI, Grid, SpectralState, _tables, analyze, default_grid, synthesize

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


#: Base relative step of the finite-difference Hessian (:meth:`Evaluator.fd_hessian`).
HESSIAN_FD_STEP = 1e-5


@lru_cache(maxsize=32)
def _operators(grid: Grid, n: int) -> tuple[np.ndarray, ...]:
    """The read-only half-grid weights w, B_theta, B_rho and contiguous adjoints (diag(w) B)^T of order N.

    B_theta = [C; -S diag(k)] samples (theta, theta_z) and B_rho = [S; -S diag(k^2)] samples
    (rho, rho_zz); C, S are the first M/2+1 rows of the trig table and k = 2 pi j / h.
    """
    half = grid.m // 2 + 1
    # the periodic trapezoid rule folded onto the half grid: nodes j and
    # M - j carry equal values, so each interior node counts twice
    w = grid.h / grid.m
    weights = np.full(half, 2.0 * w)
    weights[[0, -1]] = w
    c, s = (table[:half] for table in _tables(grid.m, n + 1))
    omega = (TWO_PI / grid.h) * np.arange(n + 2)
    b = np.concatenate((c, -s * omega)), np.concatenate((s[:, 1:], -s[:, 1:] * omega[1:] ** 2))
    w2 = np.concatenate((weights, weights))
    ops = (weights, *b, *(np.ascontiguousarray((w2[:, None] * op).T) for op in b))
    for op in ops:
        op.setflags(write=False)
    return ops


class Evaluator:
    """Energy/gradient/Hessian evaluator over packed coefficient vectors.

    Works on the alias-free grid ``default_grid(N, h)`` of M = 4(N+2) nodes
    in the Galerkin operator form (Boyd, *Chebyshev and Fourier Spectral
    Methods*): the samples of a block are u = B c, its gradient is
    B^T (w * dphi/du) and its Hessian B^T diag(w * d^2phi/du^2) B, with w the
    quadrature weights.  B_theta stacks theta over theta_z and B_rho rho
    over rho_zz, so an energy costs one matrix-vector product per block and
    a gradient one more, with the weighted adjoint (diag(w) B)^T.  The
    operators (about 560 KB at N = 64) are cached per (M, N, h) by
    :func:`_operators`, not built per evaluator: a sweep builds one
    evaluator per point and callers may keep many alive, so per-instance
    copies would grow the memory with the number kept.

    Only the nodes z_j, j = 0 ... M/2, are used.  theta and the cosine modes
    are even in z; rho, theta_z, rho_zz and the sine modes are odd.  Every
    integrand of the energy, gradient and Hessian has an even number of odd
    factors, so it is even in z, and the periodic trapezoid sum over all M
    nodes is the sum over the half grid with the weights (1, 2, ..., 2, 1) h/M
    (:attr:`weights`).  A term added to the functional must be even in z
    too, or it needs the full grid: the odd cubic term e rho^3 is omitted.

    F's theta_z stiffness is k1, so F is, up to the constant -k2 sigma^2 h,
    the Oseen-Frank energy of the director of :func:`reconstruct_director`
    only when k1 = k3; otherwise it lacks int (k3 - k1) sin^2(theta)
    theta_z^2 dz.  The defaults and all ten acceptance criteria have
    k1 = k3, and the tests' ``TestDirectorEnergyIdentity`` pins that term.

    At N = 64 an evaluation is about fifty numpy calls on 133-node arrays,
    so the overhead per call sets the cost.  The constant factors are
    therefore stored once per parameter set as half-grid arrays, each
    grouped as in the left-to-right expression it stands for: numpy
    multiplies two arrays faster than an array by a Python float, with the
    same IEEE products, bit for bit.

    The pointwise terms of the last vector evaluated are the one kept
    entry, so the gradient at an accepted line-search point reuses the
    fields its energy synthesized.  The entry is keyed on the bytes of the
    vector, so a caller may mutate the array it passed or build one with the
    same bytes anew and still get a fresh evaluation's result bit for bit
    (-0.0 and +0.0 differ in bytes).  The terms are computed per block
    (theta, rho), then the coupling W that mixes both, so the
    finite-difference Hessian (:meth:`fd_hessian`) computes the block that a
    column does not move once and re-synthesizes only the block it moves.
    """

    def __init__(self, n: int, params: ModelParams1D):
        grid = default_grid(n, params.h)
        self.n, self.params = n, params
        self._half = half = grid.m // 2 + 1
        self.weights, self._b_theta, self._b_rho, self._adj_theta, self._adj_rho = _operators(grid, n)
        # constant factors as half-grid arrays, each grouped as in the
        # expression it stands for: 2.0 * p.lambda2 * cw is
        # (2.0 * p.lambda2) * cw, and 2.0 * theta is theta + theta
        p = params
        q2 = p.q * p.q
        cos2t0 = math.cos(p.theta0) ** 2

        def full(value: float) -> np.ndarray:
            return np.full(half, value)

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

    def _theta_terms(self, tc: np.ndarray) -> tuple[np.ndarray, ...]:
        """theta, theta_z, sin, cos, sin^2 and k3 sin^2 of theta, the last as (k3 sin) sin like the chiral denominators.

        Powers are explicit products throughout: numpy's vectorized ** is not exactly
        even in its argument, which would break the exact rho -> -rho energy symmetry.
        """
        u = self._b_theta @ tc
        theta, theta_z = u[: self._half], u[self._half :]
        sin_t = np.sin(theta)
        return theta, theta_z, sin_t, np.cos(theta), sin_t * sin_t, self._k3 * sin_t * sin_t

    def _rho_terms(self, rs: np.ndarray) -> tuple[np.ndarray, ...]:
        """rho, rho_zz, rho^2 and the layer term L = rho_zz + q^2 rho."""
        u = self._b_rho @ rs
        rho, rho_zz = u[: self._half], u[self._half :]
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
        """sin(2 theta), chi'(theta) and dphi/dtheta_z = 2 k1 theta_z."""
        theta, theta_z, _, cos_t, _, k3s2 = theta_terms
        sin_2t = np.sin(theta + theta)
        den = self._k2 * cos_t * cos_t + k3s2
        return sin_2t, self._chi1 * sin_2t / (den * den), self._k1x2 * theta_z

    def _rho_grad_terms(self, rho_terms: tuple) -> tuple[np.ndarray, np.ndarray]:
        """2 lambda1 L and dphi/drho without W: d rho + f rho^3 + 2 lambda1 L q^2, in that order."""
        rho, _, rho2, lay = rho_terms
        l2 = self._l1x2 * lay  # 2 lambda1 L
        return l2, self._d * rho + self._f * rho2 * rho + l2 * self._q2

    def _assemble(self, theta: tuple, rho: tuple, cw: np.ndarray, theta_grad: tuple, rho_grad: tuple) -> np.ndarray:
        """The gradient B^T (w * dphi/du) of each block from its terms and gradient terms and from W."""
        sin2, rho_zz = theta[4], rho[1]
        sin_2t, chi_t, dphi_dtheta_z = theta_grad
        l2, rho_only = rho_grad
        w2 = self._l2x2 * cw  # 2 lambda2 W
        dphi_dtheta = chi_t + w2 * sin_2t * rho_zz
        dphi_drho = rho_only + w2 * self._q2 * self._cos2t0
        dphi_drho_zz = l2 + w2 * sin2

        n = self.n
        g = np.empty(2 * n + 3)
        np.matmul(self._adj_theta, np.concatenate((dphi_dtheta, dphi_dtheta_z)), out=g[: n + 2])
        np.matmul(self._adj_rho, np.concatenate((dphi_drho, dphi_drho_zz)), out=g[n + 2 :])
        return g

    def fd_hessian(self, vec: np.ndarray) -> np.ndarray:
        """Hessian by central differences of the gradient, as (H + H^T)/2.

        Column j differences the gradient at vec +- delta e_j and
        vec +- 2 delta e_j, delta = HESSIAN_FD_STEP * max(1, |vec|_inf), and
        combines them as (4 col_delta - col_2delta) / 3 (Richardson), which
        cancels the leading O(delta^2) error exactly for the polynomial
        terms; the asymmetry that (H + H^T)/2 removes is at the
        finite-difference noise floor.  Every probe is vec + 0.0 with
        coefficient j moved, so the block that j does not lie in is
        synthesized once and each probe synthesizes only the block it moves;
        each column is, bit for bit, what fresh gradient calls give.
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

        delta = HESSIAN_FD_STEP * max(1.0, float(np.max(np.abs(vec))))
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

        B^T diag(w d^2phi/du^2) B per pair of blocks, u the stacked samples of
        B_theta and B_rho; returned as (H + H^T)/2, exactly symmetric (the
        asymmetry removed is rounding only).  Shares the field synthesis of
        the last energy or gradient at ``vec``.
        """
        p = self.params
        (theta, _, sin_t, cos_t, sin2, _), (_, rho_zz, rho2, _), cw = self._pointwise(vec)
        q2, cos2t0 = p.q * p.q, math.cos(p.theta0) ** 2
        l1, l2 = 2.0 * p.lambda1, 2.0 * p.lambda2

        sin_2t, cos_2t = np.sin(2.0 * theta), np.cos(2.0 * theta)
        dw_dtheta = sin_2t * rho_zz  # dW/dtheta
        # second derivatives of the integrand phi: t = theta, r = rho, q = rho_zz
        # the chiral term's is 2 k2^2 k3 sigma^2 (cos(2 theta) D - (k3 - k2) sin^2(2 theta)) / D^3
        den = p.k2 * cos_t * cos_t + p.k3 * sin_t * sin_t  # D
        phi_tt = (2.0 * p.k2 * p.k2 * p.k3 * p.sigma * p.sigma) * (cos_2t * den - (p.k3 - p.k2) * sin_2t * sin_2t) \
            / (den * den * den) + l2 * (dw_dtheta * dw_dtheta + 2.0 * cw * cos_2t * rho_zz)
        phi_tr = (l2 * q2 * cos2t0) * dw_dtheta
        phi_tq = l2 * sin_2t * (sin2 * rho_zz + cw)
        phi_rr = p.d + 3.0 * p.f * rho2 + (l1 + l2 * cos2t0 * cos2t0) * q2 * q2
        phi_rq = (l1 + l2 * cos2t0 * sin2) * q2
        phi_qq = l1 + l2 * sin2 * sin2

        half, b_rho, adj_theta, adj_rho = self._half, self._b_rho, self._adj_theta, self._adj_rho
        # each product is (diag(w) B_a)^T diag(d^2phi/da db) B_b; theta_z mixes with no field
        h_tt = adj_theta @ (np.concatenate((phi_tt, self._k1x2))[:, None] * self._b_theta)
        h_tr = adj_theta[:, :half] @ (phi_tr[:, None] * b_rho[:half] + phi_tq[:, None] * b_rho[half:])
        h_rq = adj_rho[:, :half] @ (phi_rq[:, None] * b_rho[half:])
        h_rr = adj_rho @ (np.concatenate((phi_rr, phi_qq))[:, None] * b_rho) + h_rq + h_rq.T
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
    theta: np.ndarray, params: ModelParams1D
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Azimuth and director profile (phi, n1, n2, n3) from tilt samples on ``Grid(theta.size, h)``.

    phi(z) = int_0^z sigma k2 / (k2 cos^2 theta + k3 sin^2 theta) dzeta with
    phi(0) = 0, integrated spectrally (exact mean plus periodic
    antiderivative), and n = (cos phi cos theta, sin phi cos theta,
    sin theta).  It takes samples, so a caller that has them already does
    not synthesize theta again.
    """
    p = params
    grid = Grid(theta.size, p.h)
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    integrand = p.sigma * p.k2 / (p.k2 * c2 + p.k3 * s2)
    band = grid.m // 2 - 1
    coeff = analyze(integrand, "cosine", grid, band)
    # antiderivative of cos(2 pi k z / h) is (h / 2 pi k) sin(2 pi k z / h)
    k = np.arange(1, band + 1)
    phi = coeff[0] * grid.nodes + synthesize(coeff[1:] * grid.h / (TWO_PI * k), "sine", grid)
    n1 = np.cos(phi) * np.cos(theta)
    n2 = np.sin(phi) * np.cos(theta)
    n3 = np.sin(theta)
    return phi, n1, n2, n3
