"""Minimization of the discretized energy by preconditioned gradient descent.

The driver is gradient descent over the 2N+3 coefficients.  Steps are
chosen by the spectral (Barzilai-Borwein) rule safeguarded with nonmonotone
Armijo backtracking: a step is tested against the largest of the last few
accepted energies (Grippo, Lampariello & Lucidi, SIAM J. Numer. Anal. 23,
1986), so the BB step is not cut back whenever it raises the energy for a
moment (Raydan, SIAM J. Optim. 7, 1997).  After a step that met
non-positive curvature the next one starts from the upper step bound
(Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000), so a relaxation that
leaves a saddle below the layering onset does not crawl.  That long step is
cut down by safeguarded quadratic interpolation (Nocedal & Wright,
*Numerical Optimization*, section 3.5), not by halving, so a restart does
not spend some twenty energy calls descending from the bound; a BB trial
step is halved.  The iteration runs in diagonally preconditioned variables:
the closed-form quadratic curvature of each basis mode (layer stiffness
2*lambda1*((2*pi*k/h)^2 - q^2)^2 for the smectic modes, twist stiffness
2*k1*((2*pi*k/h)^2 + sigma^2) for the tilt modes) rescales the gradient,
which removes the ~1e5 curvature spread between high layer modes and the
nearly flat pitchfork direction.  Without it the line search stalls below
the floating-point resolution of the energy long before the gradient
tolerance ``TOL_GRAD`` is met.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy1d import Evaluator, _check_state
from .params import SEED_KINDS, ModelParams1D, SolverError, d_critical
from .spectral import SpectralState, gram_diagonal

__all__ = ["MinimizeReport", "minimize", "seed_state", "SEED_KINDS"]


# Stopping rule: the sup-norm of the coefficient gradient at which a
# relaxation has converged, and the cap on its accepted steps.
TOL_GRAD = 1e-8
MAX_ITERS = 1_000_000
# Step policy: the step tried at the first iteration, the backtracking
# factor of a BB trial step, the safeguard interval [INTERP_LO, INTERP_HI]
# (fractions of the rejected step) of the quadratic interpolation that cuts
# down a restart step, the number of accepted energies whose maximum the
# Armijo test compares against (the nonmonotone memory M of SPG2), the
# Armijo sufficient-decrease constant, and the BB step bounds (the line
# search gives up below STEP_MIN; STEP_MAX is also the step tried after
# s.y <= 0, the restart step).
STEP0 = 1e-2
BACKTRACK = 0.5
INTERP_LO = 0.1
INTERP_HI = 0.5
MEMORY = 10
ARMIJO = 1e-4
STEP_MIN = 1e-16
STEP_MAX = 1e6
FLOAT_EPS = float(np.finfo(float).eps)


def energy_slack(e: float) -> float:
    """The floating-point slack of an energy comparison at energy ``e``: 4 eps max(1, |e|), a few ulps."""
    return 4.0 * FLOAT_EPS * max(1.0, abs(e))


@dataclass(frozen=True, slots=True)
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
    if kind == "cholesteric":
        return frozen_layer_state(0.0, 0.0, params, n)
    if kind == "smectic-seed":
        return frozen_layer_state(0.1, 0.01, params, n)
    if kind == "conical-seed":
        return frozen_layer_state(0.1, np.pi / 2 - params.theta0, params, n)
    raise ValueError(f"unknown seed kind {kind!r}; expected one of {SEED_KINDS}")


def frozen_layer_state(t: float, theta: float, params: ModelParams1D, n: int) -> SpectralState:
    """State with constant tilt ``theta`` and layer profile t*sin(q z) on mode n0."""
    theta_c = np.zeros(n + 2)
    rho_s = np.zeros(n + 1)
    theta_c[0] = theta
    if t != 0.0:
        if params.n0 > n + 1:
            raise ValueError(f"layer mode n0 = {params.n0} is not representable at truncation order N = {n}")
        rho_s[params.n0 - 1] = t
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
    bulk_scale = max(abs(p.d - d_critical(p)), 1e-2)
    rho_part = 2.0 * p.lambda1 * (omega_rho**2 - p.q * p.q) ** 2 + bulk_scale
    return gram * np.concatenate([theta_part, rho_part])


def minimize(
    state0: SpectralState, params: ModelParams1D, evaluator: Evaluator | None = None
) -> tuple[SpectralState, MinimizeReport]:
    """Minimize the discretized energy starting from ``state0``.

    Returns the final state together with a report.  ``converged`` means the
    sup-norm of the gradient fell to ``TOL_GRAD`` and the last iterate is
    returned; otherwise (``MAX_ITERS`` steps, or the line search stalled)
    the lowest-energy iterate accepted so far is returned with its gradient
    norm.  The state returned is that iterate's canonical representative
    (:meth:`SpectralState.canonical`, theta_c[0] in [0, pi/2]); the report's
    energy is the iterate's, before the fold, and the two agree to rounding.
    ``iterations`` counts the accepted steps, on every exit.  The line
    search is nonmonotone: an accepted energy is at most the largest of the
    last ``MEMORY`` accepted energies plus the :func:`energy_slack` of the
    current one.  The preconditioned direction descends (slope <= 0)
    because the preconditioner is positive definite.  A trial step of
    non-finite energy fails the Armijo test and is cut back like any other,
    so every accepted energy is finite.

    Raises
    ------
    ValueError
        If the cell height of ``state0`` is not ``params.h``, or
        ``evaluator`` was built for other parameters or another N.
    SolverError
        If the energy is non-finite at the starting point, or a step is
        needed and the preconditioner diagonal is not finite and positive.
    """
    _check_state(state0, params)
    ev = evaluator if evaluator is not None else Evaluator(state0.n, params)
    if ev.params != params or ev.n != state0.n:
        raise ValueError("the evaluator was built for other parameters or another truncation order N")
    x = state0.pack()
    e = ev.energy(x)
    if not math.isfinite(e):
        raise SolverError("non-finite energy at the starting state")
    g = ev.gradient(x)
    gnorm = float(np.abs(g).max())
    recent = deque([e], maxlen=MEMORY)
    best_x, best_e, best_g = x, e, g

    # a diagonal that overflows (|d| near the float limit) or vanishes cannot scale a step: refused
    # without numpy warnings, and only if a step is needed, so a critical seed comes back unchanged
    with np.errstate(over="ignore", divide="ignore"):
        dinv = 1.0 / _precondition_diagonal(state0.n, params)
    if gnorm > TOL_GRAD and not np.all((dinv > 0.0) & (dinv < math.inf)):
        raise SolverError("the preconditioner is not finite and positive at these parameters")
    neg_dinv = -dinv  # (-dinv) * g is -(dinv * g) exactly
    s_prev: np.ndarray | None = None
    y_prev: np.ndarray | None = None
    step = STEP0

    iterations = 0
    while gnorm > TOL_GRAD and iterations < MAX_ITERS:
        direction = neg_dinv * g
        restart = False
        if s_prev is not None:
            sy = float(s_prev @ y_prev)
            if sy > 0:
                ss = float(s_prev @ (s_prev / dinv))
                step = min(max(ss / sy, STEP_MIN), STEP_MAX)
            else:
                # non-positive curvature along s: the longest step, cut
                # down by interpolation
                step = STEP_MAX
                restart = True
        slope = float(g @ direction)  # negative descent slope

        # a few ulps of slack: near convergence the true decrease per step
        # falls below the energy's floating-point resolution while the
        # analytic gradient stays accurate, and a zero-slack test
        # deadlocks the line search
        slack = energy_slack(e)
        e_ref = max(recent)
        alpha = step
        while alpha >= STEP_MIN:
            x_new = x + alpha * direction
            e_new = ev.energy(x_new)
            if math.isfinite(e_new) and e_new <= e_ref + ARMIJO * alpha * slope + slack:
                break
            alpha = _interpolated(alpha, e, slope, e_new) if restart else alpha * BACKTRACK
        else:
            break  # the line search stalled even with slack: flat to working precision
        g_new = ev.gradient(x_new)
        s_prev = x_new - x
        y_prev = g_new - g
        x, e, g = x_new, e_new, g_new
        gnorm = float(np.abs(g).max())
        iterations += 1
        recent.append(e)
        if e < best_e:
            best_x, best_e, best_g = x, e, g

    converged = gnorm <= TOL_GRAD
    if not converged:  # MAX_ITERS reached or the line search stalled: the best iterate
        x, e, gnorm = best_x, best_e, float(np.abs(best_g).max())
    state = SpectralState.from_vector(x, state0.n, state0.h).canonical()
    return state, MinimizeReport(converged=converged, iterations=iterations, final_grad_norm=gnorm, final_energy=e)


def _interpolated(alpha: float, e: float, slope: float, e_new: float) -> float:
    """The cut-down step after a restart trial ``alpha`` was rejected.

    The minimizer of the quadratic through the current energy ``e``, the
    slope and the rejected energy ``e_new``, clamped to
    [INTERP_LO, INTERP_HI] * alpha; INTERP_LO * alpha if ``e_new`` is not
    finite or the quadratic has no minimum.
    """
    curvature = e_new - e - slope * alpha  # > 0 for a step that failed the Armijo test
    if not (math.isfinite(e_new) and curvature > 0.0):
        return INTERP_LO * alpha
    return max(INTERP_LO * alpha, min(INTERP_HI * alpha, -slope * alpha * alpha / (2.0 * curvature)))
