"""Q-tensor algebra and the uniaxial reduction of the tensor elastic energy.

This module holds what ``smectic1d tensor-check`` runs: the symmetric
traceless types :class:`QTensor` and :class:`QGradient`, the uniaxial lift,
the tensor elastic density in its defining curl form, the director
(Oseen-Frank) density of a z-only field, the sampled unit fields of
:func:`unit_field` with their exact z-derivatives, and
:func:`reduction_residual`, which checks that on the uniaxial manifold the
tensor elastic density reduces to the director form up to the additive
constant eta1*s^2*sigma^2/3.  Everything is a pure function over immutable
values.
The expanded twin of the elastic density, the independent check of the curl
form, and the bulk and layer densities that tests compare program code
against are test code in ``tests/crosscheck.py``.

Sign conventions: the Levi-Civita symbol has eps_123 = +1 and the tensor
curl is (curl Q)_{i,beta} = eps_{ijk} d_j Q_{k,beta}.  Gradients are stored
as G[i, j, k] = dQ_ij/dx_k; one-dimensional fields have only k = 2 (the z
column) populated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import director_constants

__all__ = [
    "QTensor", "QGradient", "uniaxial_q", "tensor_curl", "tensor_divergence", "f_el", "oseen_frank_density_1d",
    "uniaxial_reduction_offset", "unit_field", "reduction_residual",
]

_I3 = np.eye(3)

TRACE_TOL = 1e-12
UNIT_TOL = 1e-10


@dataclass(frozen=True)
class QTensor:
    """Symmetric traceless 3x3 nematic order parameter."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("Q must be exactly symmetric")
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if abs(tr) > TRACE_TOL:
            raise ValueError(f"|trace Q| = {abs(tr)} exceeds {TRACE_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class QGradient:
    """Gradient of a Q field: G[i, j, k] = dQ_ij/dx_k.

    The trace over the tensor indices may be rounding of the gradient's
    scale: it is checked against ``TRACE_TOL * max(1, max|G|)``.
    """

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=float)
        if g.shape != (3, 3, 3):
            raise ValueError(f"expected shape (3, 3, 3), got {g.shape}")
        if np.max(np.abs(g - g.transpose(1, 0, 2))) > TRACE_TOL:
            raise ValueError("G must be symmetric in its first two indices")
        if np.max(np.abs(g[0, 0] + g[1, 1] + g[2, 2])) > TRACE_TOL * max(1.0, float(np.max(np.abs(g)))):
            raise ValueError("G must be trace-free over the tensor indices")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @classmethod
    def one_dimensional(cls, dq_dz: np.ndarray) -> "QGradient":
        """Gradient of a field varying along z only."""
        g = np.zeros((3, 3, 3))
        g[:, :, 2] = dq_dz
        return cls(g)


def uniaxial_q(n: Sequence[float], s: float) -> QTensor:
    """Uniaxial tensor s*(n (x) n - I/3) for a unit director n."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"director must be a 3-vector, got shape {n.shape}")
    if abs(np.linalg.norm(n) - 1.0) > UNIT_TOL:
        raise ValueError(f"director is not unit length: |n| = {np.linalg.norm(n)}")
    m = s * (np.outer(n, n) - _I3 / 3.0)
    m = 0.5 * (m + m.T)
    m[2, 2] = -(m[0, 0] + m[1, 1])
    return QTensor(m)


def tensor_curl(g: QGradient) -> np.ndarray:
    """(curl Q)_{i,beta} = eps_{ijk} d_j Q_{k,beta}, written out explicitly."""
    a = g.g
    curl = np.empty((3, 3))
    # row i = 0: eps_{012} d_1 Q_{2,b} + eps_{021} d_2 Q_{1,b}
    curl[0, :] = a[2, :, 1] - a[1, :, 2]
    # row i = 1: eps_{120} d_2 Q_{0,b} + eps_{102} d_0 Q_{2,b}
    curl[1, :] = a[0, :, 2] - a[2, :, 0]
    # row i = 2: eps_{201} d_0 Q_{1,b} + eps_{210} d_1 Q_{0,b}
    curl[2, :] = a[1, :, 0] - a[0, :, 1]
    return curl


def tensor_divergence(g: QGradient) -> np.ndarray:
    """(div Q)_i = d_alpha Q_{i,alpha}."""
    a = g.g
    return np.array([a[0, 0, 0] + a[0, 1, 1] + a[0, 2, 2],
                     a[1, 0, 0] + a[1, 1, 1] + a[1, 2, 2],
                     a[2, 0, 0] + a[2, 1, 1] + a[2, 2, 2]])


def _mixed_contraction(g: QGradient) -> float:
    """Q_{ij,k} Q_{ik,j}."""
    a = g.g
    return float(np.sum(a * a.transpose(0, 2, 1)))


def f_el(q: QTensor, g: QGradient, eta1: float, eta2: float, eta24: float, sigma: float) -> float:
    """Tensor elastic density in its defining (curl) form.

    (eta1/2)|curl Q + 2 sigma Q|^2 + (eta2/2)|div Q|^2
    + (eta24/2)(Q_{ij,k} Q_{ik,j} - Q_{ij,j} Q_{ik,k}).
    """
    chiral = tensor_curl(g) + 2.0 * sigma * q.m
    div = tensor_divergence(g)
    div2 = float(div @ div)
    return (
        0.5 * eta1 * float(np.sum(chiral * chiral))
        + 0.5 * eta2 * div2
        + 0.5 * eta24 * (_mixed_contraction(g) - div2)
    )


def oseen_frank_density_1d(n: np.ndarray, dn_dz: np.ndarray, k1: float, k2: float, k3: float, k4: float,
                           sigma: float) -> float:
    """Director elastic density for a z-only field.

    k1 (div n)^2 + k2 (n . curl n + sigma)^2 + k3 |n x curl n|^2
    + (k2 + k4)(tr((grad n)^2) - (div n)^2); the saddle-splay bracket
    vanishes identically for one-dimensional fields.
    """
    div = dn_dz[2]
    curl = np.array([-dn_dz[1], dn_dz[0], 0.0])
    twist = float(n @ curl) + sigma
    bend = np.cross(n, curl)
    return k1 * div * div + k2 * twist * twist + k3 * float(bend @ bend)


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


def reduction_residual(
    n: np.ndarray,
    dn_dz: np.ndarray,
    s_plus: float,
    eta1: float,
    eta2: float,
    eta24: float,
    sigma: float,
) -> np.ndarray:
    """Pointwise difference between the tensor and director elastic densities.

    ``n`` holds M unit director samples and ``dn_dz`` their z-derivatives,
    both of shape (M, 3).  For each sample the uniaxial tensor
    Q = s_plus*(n (x) n - I/3) and its z-gradient are built and the director
    density (with constants from
    :func:`~smectic1d.params.director_constants`) is subtracted.  The result
    is spatially constant and equal to :func:`uniaxial_reduction_offset` for
    every smooth unit field.
    """
    n = np.asarray(n, dtype=float)
    dn_dz = np.asarray(dn_dz, dtype=float)
    if n.ndim != 2 or n.shape[1] != 3 or dn_dz.shape != n.shape:
        raise ValueError(f"expected director and derivative samples of shape (M, 3), got {n.shape} and {dn_dz.shape}")
    norms = np.linalg.norm(n, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValueError(f"director samples are not unit length (max deviation {np.max(np.abs(norms - 1.0))})")

    # raw mapped constants: the identity holds for any eta combination, so
    # the admissibility chain of map_to_oseen_frank is not applied
    k1, k2, k4 = director_constants(eta1, eta2, eta24, s_plus)
    res = np.empty(len(n))
    for j, (nj, dj) in enumerate(zip(n, dn_dz)):
        qt = uniaxial_q(nj, s_plus)
        dq = s_plus * (np.outer(dj, nj) + np.outer(nj, dj))
        # its trace 2*s_plus*(n . dn/dz) is rounding for a unit field, which QGradient admits
        grad = QGradient.one_dimensional(dq)
        res[j] = f_el(qt, grad, eta1, eta2, eta24, sigma) - oseen_frank_density_1d(nj, dj, k1, k2, k1, k4, sigma)
    return res
