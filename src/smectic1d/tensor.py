"""Q-tensor algebra and pointwise evaluation of the tensor energy densities.

Everything here is a pure function over immutable values: the five densities
of the tensor model (elastic, nematic bulk, smectic bulk, layer, angle
coupling), the uniaxial lift, and the numerical check that on the uniaxial
manifold the tensor elastic density reduces to the director (Oseen-Frank)
form up to the additive constant eta1*s^2*sigma^2/3.  The elastic density
is given in its defining curl form only; its expanded twin, the
independent check of it, is test code in ``tests/crosscheck.py``.

Sign conventions: the Levi-Civita symbol has eps_123 = +1 and the tensor
curl is (curl Q)_{i,beta} = eps_{ijk} d_j Q_{k,beta}.  Gradients are stored
as G[i, j, k] = dQ_ij/dx_k; one-dimensional fields have only k = 2 (the z
column) populated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import director_constants

_I3 = np.eye(3)

TRACE_TOL = 1e-12
UNIT_TOL = 1e-10

#: Relative step for finite-difference gradients of director fields.
FD_STEP = 1e-5


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

    @classmethod
    def from_components(cls, q11: float, q12: float, q13: float, q22: float, q23: float) -> "QTensor":
        """Build from the five independent components; q33 closes the trace."""
        q33 = -(q11 + q22)
        return cls(np.array([[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]]))

    def tr2(self) -> float:
        return float(np.sum(self.m * self.m))

    def tr3(self) -> float:
        return float(np.trace(self.m @ self.m @ self.m))


@dataclass(frozen=True)
class QGradient:
    """Gradient of a Q field: G[i, j, k] = dQ_ij/dx_k."""

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=float)
        if g.shape != (3, 3, 3):
            raise ValueError(f"expected shape (3, 3, 3), got {g.shape}")
        if np.max(np.abs(g - g.transpose(1, 0, 2))) > TRACE_TOL:
            raise ValueError("G must be symmetric in its first two indices")
        if np.max(np.abs(g[0, 0] + g[1, 1] + g[2, 2])) > TRACE_TOL:
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


def f_bn(q: QTensor, A: float, B: float, C: float, f_B0: float = 0.0) -> float:
    """Nematic bulk density (A/2)trQ^2 - (B/3)trQ^3 + (C/4)(trQ^2)^2 - f_B0."""
    t2 = q.tr2()
    return 0.5 * A * t2 - (B / 3.0) * q.tr3() + 0.25 * C * t2 * t2 - f_B0


def f_bs(rho: float, d: float, e: float, f: float) -> float:
    """Smectic bulk density (d/2)rho^2 - (e/3)rho^3 + (f/4)rho^4."""
    return 0.5 * d * rho * rho - (e / 3.0) * rho**3 + 0.25 * f * rho**4


def uniaxial_bulk_profile(s: float, A: float, B: float, C: float, f_B0: float = 0.0) -> float:
    """Bulk density restricted to the uniaxial manifold: g(s) = A s^2/3 - 2B s^3/27 + C s^4/9."""
    return A * s * s / 3.0 - 2.0 * B * s**3 / 27.0 + C * s**4 / 9.0 - f_B0


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


def f_layer(rho: float, lap_rho: float, lambda1: float, q: float) -> float:
    """Layer density lambda1*(lap(rho) + q^2 rho)^2."""
    r = lap_rho + q * q * rho
    return lambda1 * r * r


def f_angle(qt: QTensor, hess_rho: np.ndarray, rho: float, lambda2: float, q: float, theta0: float) -> float:
    """Tilt-coupling density lambda2*(tr(D^2 rho (Q + I/3)) + q^2 rho cos^2(theta0))^2."""
    hess = np.asarray(hess_rho, dtype=float)
    if hess.shape != (3, 3):
        raise ValueError(f"Hessian must be 3x3, got {hess.shape}")
    w = float(np.sum(hess * (qt.m + _I3 / 3.0))) + q * q * rho * math.cos(theta0) ** 2
    return lambda2 * w * w


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


def reduction_residual(
    z: np.ndarray,
    n: Callable[[float], np.ndarray],
    s_plus: float,
    eta1: float,
    eta2: float,
    eta24: float,
    sigma: float,
) -> np.ndarray:
    """Pointwise difference between the tensor and director elastic densities.

    For each grid point the uniaxial tensor Q = s_plus*(n (x) n - I/3) and its
    z-gradient are evaluated and the director density (with constants from
    :func:`~smectic1d.params.director_constants`) is subtracted.  The result is spatially
    constant and equal to :func:`uniaxial_reduction_offset` for every smooth
    unit field.

    ``n`` is a callable z -> unit 3-vector; dn/dz is taken by central
    differences with step ``FD_STEP * max(1, sup|n|)``.
    """
    z = np.asarray(z, dtype=float)
    nv = np.array([np.asarray(n(zj), dtype=float) for zj in z])
    if nv.shape != (z.size, 3):
        raise ValueError(f"expected director samples of shape ({z.size}, 3), got {nv.shape}")
    norms = np.linalg.norm(nv, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValueError(f"director samples are not unit length (max deviation {np.max(np.abs(norms - 1.0))})")

    step = FD_STEP * max(1.0, float(np.max(np.abs(nv))))
    dnv = np.array([(np.asarray(n(zj + step)) - np.asarray(n(zj - step))) / (2.0 * step) for zj in z])
    if dnv.shape != (z.size, 3):
        raise ValueError(f"expected derivative samples of shape ({z.size}, 3), got {dnv.shape}")

    # raw mapped constants: the identity holds for any eta combination, so
    # the admissibility chain of map_to_oseen_frank is not applied
    k1, k2, k4 = director_constants(eta1, eta2, eta24, s_plus)
    res = np.empty(z.size)
    for j in range(z.size):
        nj, dj = nv[j], dnv[j]
        qt = uniaxial_q(nj, s_plus)
        dq = s_plus * (np.outer(dj, nj) + np.outer(nj, dj))
        # the exact derivative of a traceless field is traceless; finite
        # differences of normalized samples leave ~1e-11 trace noise, so
        # project it out before wrapping
        dq -= _I3 * (np.trace(dq) / 3.0)
        grad = QGradient.one_dimensional(dq)
        res[j] = f_el(qt, grad, eta1, eta2, eta24, sigma) - oseen_frank_density_1d(
            nj, dj, k1, k2, k1, k4, sigma
        )
    return res
