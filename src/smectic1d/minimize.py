"""First-order minimization of the discretized energy.

The driver is gradient descent over the 2N+3 coefficients.  Steps are
chosen by the spectral (Barzilai-Borwein) rule safeguarded with monotone
Armijo backtracking.  The iteration runs in diagonally preconditioned
variables: the closed-form quadratic curvature of each basis mode (layer
stiffness 2*lambda1*((2*pi*k/h)^2 - q^2)^2 for the smectic modes, twist
stiffness 2*k1*((2*pi*k/h)^2 + sigma^2) for the tilt modes) rescales the
gradient, which removes the ~1e5 curvature spread between high layer modes
and the nearly flat pitchfork direction.  Without it a monotone line search
stalls below the floating-point resolution of the energy long before the
gradient tolerance is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy1d import Evaluator
from .params import ModelParams1D
from .spectral import SpectralState, gram_diagonal

__all__ = ["MinimizeOptions", "MinimizeReport", "DivergenceError", "minimize", "seed_state", "SEED_KINDS"]

SEED_KINDS = ("cholesteric", "smectic-seed", "conical-seed")


class DivergenceError(RuntimeError):
    """Raised when the energy becomes non-finite at an accepted iterate."""


# Step policy: the step tried when no BB step is usable (first iteration or
# s.y <= 0), the backtracking factor, the Armijo sufficient-decrease
# constant, and the BB step bounds (the line search gives up below STEP_MIN).
STEP0 = 1e-2
BACKTRACK = 0.5
ARMIJO = 1e-4
STEP_MIN = 1e-16
STEP_MAX = 1e6
# Machine epsilon, the unit of the line search's floating-point slack.
FLOAT_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MinimizeOptions:
    """Stopping criteria.

    ``tol_grad`` is a sup-norm threshold on the coefficient gradient and
    ``max_iters`` caps the number of accepted steps.
    """

    tol_grad: float = 1e-8
    max_iters: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.tol_grad > 0:
            raise ValueError(f"tol_grad must be positive, got {self.tol_grad}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class MinimizeReport:
    """Outcome of one minimization."""

    converged: bool
    iterations: int
    final_grad_norm: float
    final_energy: float


def seed_state(kind: str, params: ModelParams1D, n: int) -> SpectralState:
    """Standard starting states.

    cholesteric: all coefficients zero (the trivial critical point).
    smectic-seed: constant tilt 0.01 plus layer mode amplitude 0.1.
    conical-seed: constant tilt pi/2 - theta0 plus layer mode amplitude 0.1.

    The nonzero seeds exist to break the two sign symmetries: the trivial
    state is always critical, so a zero seed never leaves it.
    """
    state = SpectralState.zeros(n, params.h)
    if kind == "cholesteric":
        return state
    n0 = params.n0
    if n0 > n + 1:
        raise ValueError(f"layer mode n0 = {n0} is not representable at truncation order N = {n}")
    theta_c = np.zeros(n + 2)
    rho_s = np.zeros(n + 1)
    if kind == "smectic-seed":
        theta_c[0] = 0.01
        rho_s[n0 - 1] = 0.1
    elif kind == "conical-seed":
        theta_c[0] = np.pi / 2 - params.theta0
        rho_s[n0 - 1] = 0.1
    else:
        raise ValueError(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")
    return SpectralState(n=n, h=params.h, theta_c=theta_c, rho_s=rho_s)


def _precondition_diagonal(n: int, params: ModelParams1D) -> np.ndarray:
    """Per-coefficient curvature scale of the quadratic part of the energy.

    Smectic modes carry the layer stiffness plus the |d + 2 lambda2 q^4
    cos^4(theta0)| bulk scale (floored away from the pitchfork zero); tilt
    modes carry the twist stiffness plus the tilt-coupling scale
    2 lambda2 q^4 t_ref^2 at the saturated layer amplitude t_ref, which keeps
    the tilt steps sane when the coupling dominates the twist energy.
    Multiplied by the Gram weights so it matches coefficient-space curvature.
    """
    p = params
    gram = gram_diagonal(n, p.h)
    omega_theta = 2.0 * math.pi * np.arange(n + 2) / p.h
    omega_rho = 2.0 * math.pi * np.arange(1, n + 2) / p.h
    t_ref2 = 4.0 * max(-p.d, 0.0) / (3.0 * p.f)
    couple_scale = 2.0 * p.lambda2 * p.q**4 * t_ref2
    theta_part = 2.0 * (p.k1 * omega_theta**2 + p.k3 * p.sigma**2) + couple_scale
    bulk_scale = max(abs(p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4), 1e-2)
    rho_part = 2.0 * p.lambda1 * (omega_rho**2 - p.q * p.q) ** 2 + bulk_scale
    return gram * np.concatenate([theta_part, rho_part])


def minimize(
    state0: SpectralState,
    params: ModelParams1D,
    opts: MinimizeOptions = MinimizeOptions(),
    evaluator: Evaluator | None = None,
) -> tuple[SpectralState, MinimizeReport]:
    """Minimize the discretized energy starting from ``state0``.

    Returns the final state together with a report.  ``converged`` means the
    sup-norm of the gradient fell to ``tol_grad``; otherwise the best iterate
    found within ``max_iters`` is returned.  The line search is monotone: an
    accepted step raises the energy by at most its slack of a few ulps,
    4 eps max(1, |E|), because the preconditioned direction always descends
    (slope <= 0).

    Raises
    ------
    DivergenceError
        If the energy is non-finite at the starting point or turns
        non-finite in a way backtracking cannot repair.
    """
    ev = evaluator if evaluator is not None else Evaluator(state0.n, params)
    x = state0.pack()
    e = ev.energy(x)
    if not math.isfinite(e):
        raise DivergenceError("non-finite energy at the starting state")
    g = ev.gradient(x)

    dinv = 1.0 / _precondition_diagonal(state0.n, params)
    s_prev: np.ndarray | None = None
    y_prev: np.ndarray | None = None
    step = STEP0

    iterations = 0
    for it in range(1, opts.max_iters + 1):
        gnorm = float(np.abs(g).max())
        if gnorm <= opts.tol_grad:
            return _result(x, e, gnorm, it - 1, True, state0)

        direction = -(dinv * g)
        slope = float(g @ direction)  # negative descent slope

        if s_prev is not None:
            sy = float(s_prev @ y_prev)
            if sy > 0:
                ss = float(s_prev @ (s_prev / dinv))
                step = min(max(ss / sy, STEP_MIN), STEP_MAX)
            else:
                step = STEP0

        # a few ulps of slack: near convergence the true decrease per step
        # falls below the energy's floating-point resolution while the
        # analytic gradient stays accurate, and a zero-slack monotone test
        # deadlocks the line search
        slack = 4.0 * FLOAT_EPS * max(1.0, abs(e))
        alpha = step
        accepted = False
        while alpha >= STEP_MIN:
            x_new = x + alpha * direction
            e_new = ev.energy(x_new)
            if math.isfinite(e_new) and e_new <= e + ARMIJO * alpha * slope + slack:
                accepted = True
                break
            alpha *= BACKTRACK
        iterations = it
        if not accepted:
            # line search stalled even with slack: flat to working precision
            return _result(x, e, gnorm, it, False, state0)
        g_new = ev.gradient(x_new)
        s_prev = x_new - x
        y_prev = g_new - g
        x, e, g = x_new, e_new, g_new

    gnorm = float(np.abs(g).max())
    return _result(x, e, gnorm, iterations, gnorm <= opts.tol_grad, state0)


def _result(
    x: np.ndarray, e: float, gnorm: float, iterations: int, converged: bool, state0: SpectralState
) -> tuple[SpectralState, MinimizeReport]:
    state = SpectralState.from_vector(x, state0.n, state0.h)
    return state, MinimizeReport(converged=converged, iterations=iterations, final_grad_norm=gnorm, final_energy=e)
