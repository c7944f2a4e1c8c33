"""Truncated cosine/sine Galerkin representation on a periodic cell [0, h].

The tilt angle is expanded in cos(2*k*pi*z/h), k = 0..N+1, and the smectic
order parameter in sin(2*k*pi*z/h), k = 1..N+1, for an even truncation order
N (2N+3 coefficients in total).  Synthesis and analysis use the uniform
periodic grid z_j = j*h/M, j = 0..M-1, with the endpoint omitted.

Transforms are dense matrix products; at the working truncation (N = 64)
they are far from being a bottleneck and keep the code transparent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


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


def synthesize(coeffs: np.ndarray, basis: str, grid: Grid) -> np.ndarray:
    """Evaluate sum_k c_k [cos|sin](2*k*pi*z/h) on the grid nodes.

    For the cosine basis ``coeffs[k]`` multiplies mode k starting at k = 0;
    for the sine basis mode k starts at k = 1.
    """
    # always a fresh contiguous array, so the product takes one BLAS path
    # whatever the layout of the input
    c = np.array(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if basis == "cosine":
        return _tables(grid.m, c.size - 1)[0] @ c
    if basis == "sine":
        return _tables(grid.m, c.size)[1][:, 1:] @ c
    raise ValueError(f"unknown basis {basis!r}")


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


@dataclass(frozen=True, slots=True)
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

    def theta_values(self) -> np.ndarray:
        """theta on the nodes of this state's alias-free grid, ``default_grid(n, h)``."""
        return synthesize(self.theta_c, "cosine", default_grid(self.n, self.h))

    def rho_values(self) -> np.ndarray:
        """rho on the nodes of this state's alias-free grid, ``default_grid(n, h)``."""
        return synthesize(self.rho_s, "sine", default_grid(self.n, self.h))

    def canonical(self) -> "SpectralState":
        """The representative of this state's tilt class with theta_c[0] in [0, pi/2].

        theta is defined modulo pi (n and -n are the same director) and the
        energy is even in it, so theta -> theta - k*pi and theta -> -theta
        keep the energy.  theta_c[0] is reduced modulo pi (math.remainder is
        exact) and the theta block negated when that leaves it negative; the
        rho block is kept bit for bit.
        """
        tc = self.theta_c.copy()
        tc[0] = math.remainder(tc[0], math.pi)
        return SpectralState(n=self.n, h=self.h, theta_c=-tc if tc[0] < 0 else tc, rho_s=self.rho_s)

    def theta_in_range(self) -> bool:
        """Post-hoc check that the represented tilt stays within [-pi/2, pi/2]."""
        return bool(np.all(np.abs(self.theta_values()) <= math.pi / 2))


def gram_diagonal(n: int, h: float) -> np.ndarray:
    """Diagonal of the L2 Gram matrix of the (theta_c, rho_s) basis.

    The constant cosine mode has norm h; every other mode has norm h/2.
    """
    diag = np.full(2 * n + 3, h / 2.0)
    diag[0] = h
    return diag
