"""Truncated cosine/sine Galerkin representation on a periodic cell [0, h].

The tilt angle is expanded in cos(2*k*pi*z/h), k = 0..N+1, and the smectic
order parameter in sin(2*k*pi*z/h), k = 1..N+1, for an even truncation order
N (2N+3 coefficients in total).  Synthesis, analysis, differentiation and
quadrature all use the uniform periodic grid z_j = j*h/M, j = 0..M-1, with
the endpoint omitted.

Transforms are dense matrix products; at the working truncation (N = 64)
they are far from being a bottleneck and keep the code transparent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

#: Supported derivative orders for synthesis.
DERIVATIVE_ORDERS = (0, 1, 2, 4)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with M nodes on [0, h), endpoint omitted."""

    m: int
    h: float

    def __post_init__(self) -> None:
        if self.m < 4:
            raise ValueError(f"grid needs at least 4 nodes, got {self.m}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"grid height must be positive, got {self.h}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m) * (self.h / self.m)

    def check_order(self, n: int) -> None:
        """Anti-aliasing requirement M >= 4*(N+2) for quartic integrands."""
        if self.m < 4 * (n + 2):
            raise ValueError(f"grid with M = {self.m} nodes is too small for order N = {n}: need M >= {4 * (n + 2)}")


def default_grid(n: int, h: float) -> Grid:
    """Smallest alias-free grid for quartic nonlinearities at order N."""
    return Grid(4 * (n + 2), h)


@lru_cache(maxsize=32)
def _tables(m: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine/sine sample tables cos(2*pi*j*k/M), sin(2*pi*j*k/M), k = 0..kmax.

    This is the one trig table of the library: synthesis, analysis and the
    energy evaluator all read it.  The angle is formed as ((2*pi/M)*j)*k.
    That arithmetic is fixed, not a free choice: the exact product
    (2*pi/M)*(j*k) rounds differently in the last bit, and the
    Barzilai-Borwein iterations near a pitchfork amplify that into different
    iteration counts and minimizers.  Any rewrite must keep every table
    entry bit for bit.
    """
    ang = (TWO_PI / m) * np.arange(m)[:, None]
    k = np.arange(kmax + 1)[None, :]
    cos_t = np.cos(ang * k)
    sin_t = np.sin(ang * k)
    cos_t.setflags(write=False)
    sin_t.setflags(write=False)
    return cos_t, sin_t


def synthesize(coeffs: np.ndarray, basis: str, grid: Grid, order: int = 0) -> np.ndarray:
    """Evaluate sum_k c_k * d^r/dz^r [cos|sin](2*k*pi*z/h) on the grid nodes.

    For the cosine basis ``coeffs[k]`` multiplies mode k starting at k = 0;
    for the sine basis mode k starts at k = 1.  Derivative orders 0, 1, 2, 4
    are supported; each mode picks up the frequency factor (2*k*pi/h)^r with
    the standard sign/phase alternation.
    """
    if order not in DERIVATIVE_ORDERS:
        raise ValueError(f"unsupported derivative order {order}; supported: {DERIVATIVE_ORDERS}")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if basis not in ("cosine", "sine"):
        raise ValueError(f"unknown basis {basis!r}")
    first = 0 if basis == "cosine" else 1
    cos_t, sin_t = _tables(grid.m, c.size - 1 + first)
    omega = (TWO_PI / grid.h) * np.arange(first, c.size + first)
    # even derivative orders keep the basis family, odd orders swap it; the
    # columns are basic slices so the product runs on the table's own layout
    if basis == "cosine":
        cols = sin_t if order == 1 else cos_t
        sign = {0: 1.0, 1: -1.0, 2: -1.0, 4: 1.0}[order]
    else:
        cols = (cos_t if order == 1 else sin_t)[:, 1:]
        sign = {0: 1.0, 1: 1.0, 2: -1.0, 4: 1.0}[order]
    return cols @ (sign * omega**order * c)


def analyze(values: np.ndarray, basis: str, grid: Grid, nmodes: int) -> np.ndarray:
    """Coefficients of a grid function against the cosine or sine basis.

    Uses discrete orthogonality of the uniform periodic grid, so it is the
    exact inverse of :func:`synthesize` for band-limited data.  ``nmodes`` is
    the highest mode index requested; it must stay below the grid Nyquist
    limit M/2.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.m,):
        raise ValueError(f"expected {grid.m} samples, got {v.shape}")
    if nmodes >= grid.m / 2:
        raise ValueError(f"aliasing: mode {nmodes} is not resolved on a grid with M = {grid.m} nodes")
    cos_t, sin_t = _tables(grid.m, nmodes)
    if basis == "cosine":
        out = (2.0 / grid.m) * (cos_t.T @ v)
        out[0] *= 0.5
        return out
    if basis == "sine":
        return (2.0 / grid.m) * (sin_t[:, 1:].T @ v)
    raise ValueError(f"unknown basis {basis!r}")


def quadrature(values: np.ndarray, h: float) -> float:
    """Periodic trapezoidal rule (h/M) * sum(values).

    Spectrally accurate for smooth periodic integrands and exact for
    trigonometric polynomials below the Nyquist limit.
    """
    v = np.asarray(values, dtype=float)
    return float(v.sum() * (h / v.size))


@dataclass(frozen=True)
class SpectralState:
    """Galerkin coefficients of the tilt angle and the smectic order parameter.

    ``theta_c[k]`` multiplies cos(2*k*pi*z/h) for k = 0..N+1 and ``rho_s[k-1]``
    multiplies sin(2*k*pi*z/h) for k = 1..N+1.
    """

    n: int
    h: float
    theta_c: np.ndarray
    rho_s: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"truncation order must be an even integer >= 2, got {self.n}")
        tc = np.array(self.theta_c, dtype=float)
        rs = np.array(self.rho_s, dtype=float)
        if tc.shape != (self.n + 2,):
            raise ValueError(f"theta_c must have length N+2 = {self.n + 2}, got {tc.shape}")
        if rs.shape != (self.n + 1,):
            raise ValueError(f"rho_s must have length N+1 = {self.n + 1}, got {rs.shape}")
        if not (np.all(np.isfinite(tc)) and np.all(np.isfinite(rs))):
            raise ValueError("coefficients must be finite")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive, got {self.h}")
        tc.setflags(write=False)
        rs.setflags(write=False)
        object.__setattr__(self, "theta_c", tc)
        object.__setattr__(self, "rho_s", rs)

    @classmethod
    def zeros(cls, n: int, h: float) -> "SpectralState":
        return cls(n=n, h=h, theta_c=np.zeros(n + 2), rho_s=np.zeros(n + 1))

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int, h: float) -> "SpectralState":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * n + 3,):
            raise ValueError(f"expected coefficient vector of length {2 * n + 3}, got {vec.shape}")
        return cls(n=n, h=h, theta_c=vec[: n + 2], rho_s=vec[n + 2 :])

    def pack(self) -> np.ndarray:
        """Concatenated coefficient vector (theta_c, rho_s), length 2N+3."""
        return np.concatenate([self.theta_c, self.rho_s])

    def theta_values(self, grid: Grid, order: int = 0) -> np.ndarray:
        return synthesize(self.theta_c, "cosine", grid, order)

    def rho_values(self, grid: Grid, order: int = 0) -> np.ndarray:
        return synthesize(self.rho_s, "sine", grid, order)

    def theta_in_range(self) -> bool:
        """Post-hoc check that the represented tilt stays within [-pi/2, pi/2]."""
        th = self.theta_values(default_grid(self.n, self.h))
        return bool(np.all(np.abs(th) <= math.pi / 2))


def gram_diagonal(n: int, h: float) -> np.ndarray:
    """Diagonal of the L2 Gram matrix of the (theta_c, rho_s) basis.

    The constant cosine mode has norm h; every other mode has norm h/2.
    """
    diag = np.full(2 * n + 3, h / 2.0)
    diag[0] = h
    return diag
