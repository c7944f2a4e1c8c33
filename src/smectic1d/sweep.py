"""Temperature and elastic-constant sweeps with transition detection.

Both sweeps take the run settings whole, a :class:`RunConfig` (parameters
and truncation order N), and a list of values.  A temperature
sweep walks a list of temperatures, in the CLI the cooling grid of
:func:`cooling_grid`.  At each point it sets d = alpha2*(T - T2star),
minimizes from the previous converged state (warm start) plus fresh seeds,
and keeps the lowest-energy converged result.  The sweep has two branches,
the two signs of the layer pitchfork, rho and -rho.  The energy is even in
rho, so only the "+" branch is relaxed, and the "-" branch, read off it as
its mirror image, is bit for bit what relaxing the "-" seed gives.
Transitions are read off the amplitude records: the layering onset from
delta_rho_max, the tilt onset from theta_max, both refined by linear
interpolation of the squared amplitude (the pitchfork normal form makes
amplitude^2 linear in T).  The fit of the pitchfork exponent itself, which
checks that law on a sweep, is test code in ``tests/crosscheck.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# minimize and spectrum are read from their modules at each call: a name bound
# here while a wrapper sat on them (bench/probe.py) would keep it after removal
from . import stability
from .energy1d import Evaluator
from .minimize import energy_slack, seed_state
from .params import ModelParams1D, RunConfig, SolverError
from .spectral import SpectralState

__all__ = [
    "cooling_grid",
    "SweepRecord",
    "ElasticRecord",
    "sweep_temperature",
    "detect_transitions",
    "elastic_sweep",
]


#: Fresh seed kinds tried at every sweep temperature besides the warm start.
SWEEP_SEEDS = ("smectic-seed",)
#: Seed kinds of every elastic-sweep point, with the "+" layer sign only: a
#: "-" seed relaxes to the mirror image of its "+" twin, at the same energy.
ELASTIC_SEEDS = ("smectic-seed", "conical-seed")
#: A sweep aborts when more than this share of its points fail to converge.
MAX_FAILURE_FRACTION = 0.2
#: The amplitude (delta_rho_max or theta_max) at which a record counts as
#: layered or tilted in :func:`detect_transitions`.
EPS_DETECT = 1e-3


def cooling_grid(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The temperatures t_start, t_start - |dt|, ... down to t_end, the grid of a cooling sweep.

    Each value must be finite, dt nonzero and t_end at most t_start (equal
    values give one point), and the grid must have a finite point count
    that a float64 array can hold.
    """
    for name, value in (("t_start", t_start), ("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if t_end > t_start:
        raise ValueError(f"sweeps run cooling only: t_end = {t_end} must not exceed t_start = {t_start}")
    grid = f"t_start = {t_start} to t_end = {t_end} in steps of dt = {dt}"
    steps = (t_start - t_end) / abs(dt)
    if not math.isfinite(steps):
        raise ValueError(f"{grid} has no finite point count")
    count = int(math.floor(steps + 1e-9)) + 1
    # numpy cannot size a float64 array of more than intp max bytes
    if count > np.iinfo(np.intp).max // 8:
        raise ValueError(f"{grid} has {count:.3g} points, more than a float64 array can hold")
    return t_start - abs(dt) * np.arange(count)


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One temperature point of a bifurcation diagram."""

    T: float
    d: float
    branch: str
    delta_rho_max: float
    theta_max: float
    energy: float
    morse_index: int | None
    converged: bool


@dataclass(frozen=True, slots=True)
class ElasticRecord:
    """One elastic-constant point: mean tilt theta_c[0] of the relaxed state (the other cosine modes average to 0)."""

    value: float
    theta_bar: float
    delta_rho_max: float
    energy: float
    converged: bool


def _relax(candidates: list[SpectralState], params: ModelParams1D) -> tuple[SpectralState, float, bool]:
    """Minimize from every candidate under one evaluator; lowest-energy converged result wins.

    A converged result always beats a non-converged one; non-converged best
    iterates are reported only when nothing converged.  Among equals, a
    later candidate wins only when its energy is lower by more than the
    line search's floating-point slack at E_best (:func:`energy_slack`): two
    candidates that relax to the same state end a few ulps apart, and the
    earlier one (the warm start of a temperature sweep, the smectic seed of
    an elastic sweep) is kept whatever the sign of those ulps.
    """
    from .minimize import minimize

    evaluator = Evaluator(candidates[0].n, params)
    best: tuple[bool, float, SpectralState] | None = None
    for cand in candidates:
        state, report = minimize(cand, params, evaluator=evaluator)
        key = (report.converged, report.final_energy, state)
        if best is None:
            best = key
        elif key[0] and not best[0]:
            best = key
        elif key[0] == best[0] and key[1] < best[1] - energy_slack(best[1]):
            best = key
    assert best is not None
    return best[2], best[1], best[0]


def _check_failures(records: list, sweep: str) -> None:
    """Raise SolverError when more than ``MAX_FAILURE_FRACTION`` of the records did not converge."""
    failures = sum(not r.converged for r in records)
    if failures > MAX_FAILURE_FRACTION * len(records):
        raise SolverError(f"{failures} of {len(records)} {sweep} points failed to converge")


def sweep_temperature(
    config: RunConfig, temperatures: np.ndarray | list[float], *, record_morse: bool = False, cold_start: bool = False
) -> list[SweepRecord]:
    """Sweep both pitchfork branches over ``temperatures``, in their order.

    Returns records ordered as the temperatures, one per (T, branch).  Every
    temperature relaxes the warm start, the last converged state (unless
    ``cold_start``), and the fresh ``SWEEP_SEEDS`` on the "+" branch only.
    The "-" record is the "+" state with rho negated: the same energy,
    convergence flag, Morse index (the Hessian there is P H P with
    P = diag(+-1), which has the same spectrum) and theta_max, and
    delta_rho_max = -min(rho) read off the "+" samples.  Non-converged
    points are recorded with ``converged=False``, the mirrored record too;
    the sweep aborts only when more than ``MAX_FAILURE_FRACTION`` of all
    records failed to converge.
    """
    params, n_modes = config.params, config.n_modes
    # the seeds read only h, q and theta0, which no temperature changes
    seeds = [seed_state(kind, params, n_modes) for kind in SWEEP_SEEDS]
    records: list[SweepRecord] = []
    warm: SpectralState | None = None
    for t_val in temperatures:
        params_t = params.at_temperature(float(t_val))
        candidates = seeds if cold_start or warm is None else [warm, *seeds]
        state, energy_val, converged = _relax(candidates, params_t)
        morse = stability.spectrum(state, params_t).morse_index if record_morse else None
        if converged:
            warm = state
        rho = state.rho_values()
        theta_max = float(np.max(state.theta_values()))
        # the mirror's samples are -rho and their max is 0.0 - min(rho): -min(rho) is -0.0 at rho = 0
        for branch, delta_rho_max in (("+", float(np.max(rho))), ("-", 0.0 - float(np.min(rho)))):
            records.append(
                SweepRecord(
                    T=float(t_val),
                    d=params_t.d,
                    branch=branch,
                    delta_rho_max=delta_rho_max,
                    theta_max=theta_max,
                    energy=energy_val,
                    morse_index=morse,
                    converged=converged,
                )
            )
    _check_failures(records, "sweep")
    return records


def _onset(seq: list[SweepRecord], amplitudes: list[float]) -> float | None:
    """Bracketed onset: the first amplitude >= EPS_DETECT after one below it.

    The zero crossing is refined by linear interpolation of the squared
    amplitude in T (pitchfork normal form) and clamped to the bracket
    [T of the first record at or above EPS_DETECT, T of the last record
    below it], because a flat or bent amplitude curve extrapolates far past
    it.  With no rise to interpolate (the crossing is at the last record,
    or the amplitude after it is not larger) the bracket's midpoint is
    returned.  None when no amplitude reaches EPS_DETECT or when the first
    record already does (onset not bracketed).
    """
    idx = next((i for i, a in enumerate(amplitudes) if a >= EPS_DETECT), None)
    if not idx:  # None: never reached; 0: not bracketed
        return None
    t_i, a_i = seq[idx].T, amplitudes[idx]
    t_above = seq[idx - 1].T
    if idx + 1 < len(seq) and amplitudes[idx + 1] > a_i:
        t_j, a_j = seq[idx + 1].T, amplitudes[idx + 1]
        return min(max(t_i - a_i**2 * (t_j - t_i) / (a_j**2 - a_i**2), t_i), t_above)
    return 0.5 * (t_above + t_i)


def detect_transitions(records: list[SweepRecord]) -> tuple[float | None, float | None]:
    """Locate the layering and tilt onsets in a cooling sweep.

    Records must be ordered by decreasing T.  The first record (largest T)
    with delta_rho_max >= EPS_DETECT marks the layering transition; the
    first with theta_max >= EPS_DETECT marks the tilt transition.  Both are
    refined by linear interpolation of the squared amplitude against T and
    lie inside their bracket; an onset at the last record, or one after
    which the amplitude does not rise, is the bracket's midpoint.  A
    transition is reported only when the sweep brackets it: None when it is
    absent from the swept range, and None when it is not bracketed because
    the first record is already past the threshold.
    """
    if not records:
        return None, None
    branch = records[0].branch
    seq = [r for r in records if r.branch == branch]
    temps = [r.T for r in seq]
    if any(t2 >= t1 for t1, t2 in zip(temps, temps[1:])):
        raise ValueError("records must be ordered by strictly decreasing T")
    t_chs = _onset(seq, [r.delta_rho_max for r in seq])
    t_hssc = _onset(seq, [r.theta_max for r in seq])
    return t_chs, t_hssc


def elastic_sweep(config: RunConfig, values: list[float], vary: str) -> list[ElasticRecord]:
    """Sweep the nematic (vary="k") or smectic (vary="lambda") elastic constants of ``config.params``.

    Each point sets k1 = k2 = k3 = v (or lambda1 = lambda2 = v), relaxes
    from the fresh ``ELASTIC_SEEDS``, keeps the lowest-energy converged state
    and records its mean tilt theta_c[0].  Cold starts keep the points
    independent.
    """
    if vary not in ("k", "lambda"):
        raise ValueError(f"vary must be 'k' or 'lambda', got {vary!r}")
    params, n_modes = config.params, config.n_modes
    # build (and so validate) every parameter set before the first relaxation
    if vary == "k":
        points = [replace(params, k1=v, k2=v, k3=v) for v in values]
    else:
        points = [replace(params, lambda1=v, lambda2=v) for v in values]
    # the seeds read only h, q and theta0, which neither axis changes
    seeds = [seed_state(kind, params, n_modes) for kind in ELASTIC_SEEDS]
    records: list[ElasticRecord] = []
    for v, params_v in zip(values, points):
        state, energy_val, converged = _relax(seeds, params_v)
        records.append(
            ElasticRecord(
                value=float(v),
                theta_bar=float(state.theta_c[0]),
                delta_rho_max=float(np.max(state.rho_values())),
                energy=energy_val,
                converged=converged,
            )
        )
    _check_failures(records, "elastic-sweep")
    return records
