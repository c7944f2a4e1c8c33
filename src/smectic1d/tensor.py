"""The uniaxial reduction of the tensor elastic energy, as array code.

This module holds what ``smectic1d tensor-check`` runs: the tensor elastic
density in its defining curl form, the director (Oseen-Frank) density of a
z-only field, the sampled unit fields of :func:`unit_field` with their exact
z-derivatives, and :func:`reduction_residual`, which checks that on the
uniaxial manifold the tensor elastic density reduces to the director form up
to the additive constant eta1*s^2*sigma^2/3.  Every density takes arrays
with a leading sample axis (``...``) and returns one value per sample, so a
single sample is the case ``... = ()``.
The expanded twin of the elastic density, the independent check of the curl
form, and the bulk and layer densities that tests compare program code
against are test code in ``tests/crosscheck.py``.

Sign conventions: the Levi-Civita symbol has eps_123 = +1 and the tensor
curl is (curl Q)_{i,beta} = eps_{ijk} d_j Q_{k,beta}.  Gradients are stored
as G[..., i, j, k] = dQ_ij/dx_k; one-dimensional fields have only k = 2 (the
z column) populated.
"""

from __future__ import annotations

import numpy as np

from .params import director_constants

__all__ = ["f_el", "oseen_frank_density_1d", "uniaxial_reduction_offset", "unit_field", "reduction_residual"]

UNIT_TOL = 1e-10


def f_el(q: np.ndarray, g: np.ndarray, eta1: float, eta2: float, eta24: float, sigma: float) -> np.ndarray:
    """Tensor elastic density in its defining (curl) form, per sample.

    (eta1/2)|curl Q + 2 sigma Q|^2 + (eta2/2)|div Q|^2
    + (eta24/2)(Q_{ij,k} Q_{ik,j} - Q_{ij,j} Q_{ik,k}),
    for Q of shape (..., 3, 3) and its gradient G of shape (..., 3, 3, 3).
    """
    # row i of eps_{ijk} d_j Q_{k,b}, written out: (d_1 Q_2 - d_2 Q_1, d_2 Q_0 - d_0 Q_2, d_0 Q_1 - d_1 Q_0)
    curl = np.stack([g[..., 2, :, 1] - g[..., 1, :, 2], g[..., 0, :, 2] - g[..., 2, :, 0],
                     g[..., 1, :, 0] - g[..., 0, :, 1]], axis=-2)
    chiral = curl + 2.0 * sigma * q
    div = np.trace(g, axis1=-2, axis2=-1)  # (div Q)_i = d_a Q_{i,a}
    div2 = np.sum(div * div, axis=-1)
    mixed = np.sum(g * np.swapaxes(g, -1, -2), axis=(-3, -2, -1))  # Q_{ij,k} Q_{ik,j}
    return 0.5 * eta1 * np.sum(chiral * chiral, axis=(-2, -1)) + 0.5 * eta2 * div2 + 0.5 * eta24 * (mixed - div2)


def oseen_frank_density_1d(n: np.ndarray, dn_dz: np.ndarray, k1: float, k2: float, k3: float, k4: float,
                           sigma: float) -> np.ndarray:
    """Director elastic density for a z-only field, per sample of shape (..., 3).

    k1 (div n)^2 + k2 (n . curl n + sigma)^2 + k3 |n x curl n|^2
    + (k2 + k4)(tr((grad n)^2) - (div n)^2); the saddle-splay bracket
    vanishes identically for one-dimensional fields.
    """
    div = dn_dz[..., 2]
    curl = np.stack([-dn_dz[..., 1], dn_dz[..., 0], np.zeros_like(div)], axis=-1)
    twist = np.sum(n * curl, axis=-1) + sigma
    bend = np.cross(n, curl)
    return k1 * div * div + k2 * twist * twist + k3 * np.sum(bend * bend, axis=-1)


def uniaxial_reduction_offset(s_plus: float, eta1: float, sigma: float) -> float:
    """Additive constant separating the tensor and director elastic densities.

    On the uniaxial manifold with constant order parameter s the tensor
    elastic density equals the director density plus eta1*s^2*sigma^2/3; the
    chirality normalization 2*sigma in the tensor energy makes the helix the
    shared ground state but shifts the baseline, since 2*eta1*sigma^2*|Q|^2
    = (4/3)*eta1*s^2*sigma^2 while the matched twist constant contributes
    k2*sigma^2 = eta1*s^2*sigma^2.
    """
    return eta1 * s_plus * s_plus * sigma * sigma / 3.0


def unit_field(z: np.ndarray, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples of n = (cos az, sin az cos bz, sin az sin bz) and of dn/dz, each of shape (len(z), 3).

    n is unit for every (a, b): b = 0 gives the helix of wavenumber a, and
    a = b = 0 the uniform field along x.
    """
    ca, sa, cb, sb = np.cos(a * z), np.sin(a * z), np.cos(b * z), np.sin(b * z)
    n = np.column_stack([ca, sa * cb, sa * sb])
    return n, np.column_stack([-a * sa, a * ca * cb - b * sa * sb, a * ca * sb + b * sa * cb])


def reduction_residual(n: np.ndarray, dn_dz: np.ndarray, s_plus: float, eta1: float, eta2: float, eta24: float,
                       sigma: float) -> np.ndarray:
    """Pointwise difference between the tensor and director elastic densities.

    ``n`` holds M finite unit director samples and ``dn_dz`` their finite
    z-derivatives, both of shape (M, 3).  The uniaxial tensors
    Q = s_plus*(n (x) n - I/3) and their z-gradients are built for all
    samples at once and the director density (with constants from
    :func:`~smectic1d.params.director_constants`) is subtracted.  The result
    is spatially constant and equal to :func:`uniaxial_reduction_offset` for
    every smooth unit field.
    """
    n = np.asarray(n, dtype=float)
    dn_dz = np.asarray(dn_dz, dtype=float)
    if n.ndim != 2 or n.shape[1] != 3 or dn_dz.shape != n.shape:
        raise ValueError(f"expected director and derivative samples of shape (M, 3), got {n.shape} and {dn_dz.shape}")
    for name, value in (("n", n), ("dn_dz", dn_dz)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} holds non-finite samples")
    norms = np.linalg.norm(n, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValueError(f"director samples are not unit length (max deviation {np.max(np.abs(norms - 1.0))})")

    # raw mapped constants: the identity holds for any eta combination, so
    # the admissibility chain of map_to_oseen_frank is not applied
    k1, k2, k4 = director_constants(eta1, eta2, eta24, s_plus)
    q = s_plus * (n[:, :, None] * n[:, None, :] - np.eye(3) / 3.0)
    g = np.zeros((len(n), 3, 3, 3))
    g[..., 2] = s_plus * (dn_dz[:, :, None] * n[:, None, :] + n[:, :, None] * dn_dz[:, None, :])
    return f_el(q, g, eta1, eta2, eta24, sigma) - oseen_frank_density_1d(n, dn_dz, k1, k2, k1, k4, sigma)
