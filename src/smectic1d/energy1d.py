"""The reduced one-dimensional free energy, its gradient, and diagnostics.

The functional evaluated here, for tilt angle theta(z) and smectic order
parameter rho(z) on the periodic cell [0, h], is

    F = int_0^h  k1 theta_z^2
              -  k2^2 sigma^2 cos^2(theta) / (k2 cos^2(theta) + k3 sin^2(theta))
              +  (d/2) rho^2 + (f/4) rho^4
              +  lambda1 (rho_zz + q^2 rho)^2
              +  lambda2 (sin^2(theta) rho_zz + q^2 rho cos^2(theta0))^2   dz.

The chiral term is already minimized over the azimuth: the azimuthal angle
obeys phi_z = sigma k2 / (k2 cos^2 theta + k3 sin^2 theta) and has been
eliminated.  Note the baseline: the trivial state (theta = rho = 0) has
energy -k2 sigma^2 h, not 0; the functional is kept in this literal form
since minimizers and spectra are unaffected by the constant.

Gradients are exact gradients of the discretized energy: grid-space
variational derivative of the integrand followed by the adjoint transform.

The parity ansatz (theta cosines, rho sines) makes int rho^3 dz vanish, so
the reduced model has no cubic term e rho^3 and the reproduction covers
e = 0.  Every term is even in z, which lets the evaluator sum over half the
grid (see :class:`Evaluator`).  The pointwise (strong-form) Euler-Lagrange
residual is a test-side cross-check of the gradient, in
``tests/crosscheck.py``.
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
#: Columns of the finite-difference Hessian per stacked gradient call.  At N = 64 a call costs
#: mostly numpy's per-call overhead, which a block of 8 columns (32 probes) spreads: a tilted
#: N = 64 Hessian took 7.6 ms against 14.3 ms with one column per call, 8.7 ms with 4, 7.5 ms
#: with 16 and 8.4 ms with 32 (median of 15 calls, 2-core x86-64); 16 gains nothing over 8 and
#: doubles the pointwise arrays that a block keeps alive.
FD_BLOCK = 8


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
    Methods*): the samples of a block are u = B c and its gradient is
    B^T (w * dphi/du), with w the quadrature weights.  B_theta stacks theta
    over theta_z and B_rho rho over rho_zz, so an energy costs one
    matrix-vector product per block and a gradient one more, with the
    weighted adjoint (diag(w) B)^T.  The operators (about 560 KB at N = 64)
    are cached per (M, N, h) by :func:`_operators`, not built per evaluator:
    a sweep builds one evaluator per point and callers may keep many alive,
    so per-instance copies would grow the memory with the number kept.
    Only :meth:`hessian` builds its trig table (about 0.55 MB at N = 64).

    Only the nodes z_j, j = 0 ... M/2, are used.  theta and the cosine modes
    are even in z; rho, theta_z, rho_zz and the sine modes are odd.  Every
    integrand of the energy, gradient and Hessian has an even number of odd
    factors, so it is even in z, and the periodic trapezoid sum over all M
    nodes is the sum over the half grid with the weights (1, 2, ..., 2, 1) h/M
    (:attr:`weights`).  A term added to the functional must be even in z
    too, or it needs the full grid.

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
    fields its energy synthesized.  The entry is keyed on the shape and the
    bytes of the vector, so a caller may mutate the array it passed or build
    one with the same bytes anew and still get a fresh evaluation's result
    bit for bit (-0.0 and +0.0 differ in bytes).  :meth:`gradient` also
    takes a stack of vectors of any leading shape, with matrix-matrix
    products in place of the matrix-vector product; every pointwise term is
    elementwise along the last axis, so the same code serves both.  The
    finite-difference Hessian (:meth:`fd_hessian`) is a plain stencil over
    (b, 4, 2N+3) stacks, one per block of FD_BLOCK columns.
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
        # ((shape, bytes), terms) of the last vector, replaced as one pair: threads sharing
        # an evaluator never pair the key of one evaluation with the terms of another
        self._last: tuple[tuple, tuple] | None = None

    # -- pointwise terms -------------------------------------------------

    def _pointwise(self, vec: np.ndarray) -> tuple:
        """The pointwise terms of ``vec``, a vector or a stack; the kept entry if ``vec`` has its shape and bytes.

        theta, theta_z, sin, cos, sin^2 and k3 sin^2 of theta (the last as
        (k3 sin) sin, like the chiral denominators); rho, rho_zz, rho^2 and
        the layer term L = rho_zz + q^2 rho; and the coupling
        W = sin^2(theta) rho_zz + q^2 cos^2(theta0) rho.  Powers are explicit
        products throughout: numpy's vectorized ** is not exactly even in its
        argument, which would break the exact rho -> -rho energy symmetry.
        """
        key = (vec.shape, vec.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        n, half = self.n, self._half
        u, v = vec[..., : n + 2] @ self._b_theta.T, vec[..., n + 2 :] @ self._b_rho.T
        theta, theta_z, rho, rho_zz = u[..., :half], u[..., half:], v[..., :half], v[..., half:]
        sin_t = np.sin(theta)
        sin2 = sin_t * sin_t
        terms = (
            theta, theta_z, sin_t, np.cos(theta), sin2, self._k3 * sin_t * sin_t,
            rho, rho_zz, rho * rho, rho_zz + self._q2 * rho,
            sin2 * rho_zz + self._q2_cos2t0 * rho,
        )
        self._last = (key, terms)
        return terms

    # -- energy ----------------------------------------------------------

    def _integrals(self, vec: np.ndarray) -> tuple[float, float, float, float, float]:
        """The five weighted sums: elastic, chiral, bulk, layer, coupling.

        The integrands are the rows of one array, summed against the
        half-grid weights in one product.  Only :meth:`gradient` takes a
        stack: here one would sum to lists, so it is refused.
        """
        if vec.ndim != 1:
            raise ValueError(f"the energy takes one coefficient vector, got shape {vec.shape}")
        _, theta_z, _, cos_t, _, k3s2, _, _, rho2, lay, cw = self._pointwise(vec)
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
        """Exact gradient of the discretized energy with respect to the coefficients.

        ``vec`` is one coefficient vector, or a stack of them of any leading
        shape (..., 2N+3) with the gradient of each row in its place.  Each
        block takes one product with B and one with its adjoint: a
        matrix-vector product for a vector, a matrix-matrix product for a
        (k, 2N+3) stack, which rounds differently, so a stacked row agrees
        with the gradient of that row alone to rounding, not bit for bit.
        ``np.matmul`` takes a (b, k, 2N+3) stack as b separate (k, 2N+3)
        products, so each slice has the bits of the gradient of that slice
        alone.
        """
        theta, theta_z, _, cos_t, sin2, k3s2, rho, rho_zz, rho2, lay, cw = self._pointwise(vec)
        sin_2t = np.sin(theta + theta)
        den = self._k2 * cos_t * cos_t + k3s2
        l2 = self._l1x2 * lay  # 2 lambda1 L
        w2 = self._l2x2 * cw  # 2 lambda2 W
        # dphi/du of each block: (dphi/dtheta, dphi/dtheta_z) and (dphi/drho, dphi/drho_zz)
        dphi_theta = self._chi1 * sin_2t / (den * den) + w2 * sin_2t * rho_zz, self._k1x2 * theta_z
        dphi_rho = (
            self._d * rho + self._f * rho2 * rho + l2 * self._q2 + w2 * self._q2 * self._cos2t0,
            l2 + w2 * sin2,
        )
        n = self.n
        g = np.empty(vec.shape)
        np.matmul(np.concatenate(dphi_theta, axis=-1), self._adj_theta.T, out=g[..., : n + 2])
        np.matmul(np.concatenate(dphi_rho, axis=-1), self._adj_rho.T, out=g[..., n + 2 :])
        return g

    def fd_hessian(self, vec: np.ndarray) -> np.ndarray:
        """Hessian by Richardson-combined central differences of the gradient, as (H + H^T)/2.

        Column j is (4 c(delta) - c(2 delta)) / 3 with
        c(s) = (g(x + s e_j) - g(x - s e_j)) / 2s and
        delta = HESSIAN_FD_STEP * max(1, |vec|_inf), which cancels the
        leading O(delta^2) error exactly for the polynomial terms.  Each probe
        is vec + 0.0 with coefficient j moved, and the four probes of a
        column are a (4, 2N+3) slice of a (b, 4, 2N+3) stack that takes the
        b <= FD_BLOCK columns of one block in one :meth:`gradient` call, so
        a Hessian makes ceil((2N+3) / FD_BLOCK) calls.  ``np.matmul`` takes
        each slice as its own 4-row product, so every column has the bits
        that a gradient call on its four probes alone gives.
        """
        size = vec.size
        delta = HESSIAN_FD_STEP * max(1.0, float(np.max(np.abs(vec))))
        steps = np.array([delta, -delta, 2.0 * delta, -2.0 * delta])
        rest = vec + 0.0
        h_mat = np.empty((size, size))
        for start in range(0, size, FD_BLOCK):
            cols = np.arange(start, min(start + FD_BLOCK, size))
            probes = np.tile(rest, (cols.size, 4, 1))
            probes[np.arange(cols.size), :, cols] = vec[cols, None] + steps
            g = self.gradient(probes)
            c = (4.0 * ((g[:, 0] - g[:, 1]) / (2.0 * delta)) - (g[:, 2] - g[:, 3]) / (4.0 * delta)) / 3.0
            h_mat[:, cols] = c.T
        return 0.5 * (h_mat + h_mat.T)

    def hessian(self, vec: np.ndarray) -> np.ndarray:
        """Exact Hessian of the discretized energy with respect to the coefficients.

        By product to sum, entry (j, l) of a block is a signed half-sum of the transform of w phi'' at
        |j - l| and j + l: one matrix-vector product per phi'' with the table of frequencies 0 ... 2N+2
        < M/2, and the theta_z rows' constant 2 k1 gathers to the diagonal k1 h omega_j^2.  Symmetric
        by construction, with bits that do not depend on the BLAS thread count.  Reuses the field
        synthesis of the last energy or gradient at ``vec``.
        """
        p = self.params
        theta, _, sin_t, cos_t, sin2, _, _, rho_zz, rho2, _, cw = self._pointwise(vec)
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

        cos_m, sin_m = (table[: self._half] for table in _tables(4 * (self.n + 2), 2 * self.n + 2))
        j = np.arange(self.n + 2)
        dif, tot, sign = np.abs(j[:, None] - j), j[:, None] + j, np.sign(j - j[:, None])
        om2 = ((TWO_PI / p.h) * j) ** 2

        def gather(phi, table, a, b):  # (a T[|j - l|] + b T[j + l]) / 2 with T = (w phi) @ table
            t = (self.weights * phi) @ table
            return 0.5 * (a * t[dif] + b * t[tot])

        # cos j cos l: (1, 1); sin j sin l: (1, -1); cos j sin l: (sign(l - j), 1); rho modes start at 1
        rr, rq, qq = (gather(phi, cos_m, 1.0, -1.0) for phi in (phi_rr, phi_rq, phi_qq))
        h_tr = (gather(phi_tr, sin_m, sign, 1.0) - gather(phi_tq, sin_m, sign, 1.0) * om2)[:, 1:]
        h_rr = (rr - (om2[:, None] + om2) * rq + np.outer(om2, om2) * qq)[1:, 1:]
        return np.block([[gather(phi_tt, cos_m, 1.0, 1.0) + np.diag(p.k1 * p.h * om2), h_tr], [h_tr.T, h_rr]])


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
