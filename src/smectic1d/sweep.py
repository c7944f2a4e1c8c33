"""Temperature and elastic-constant sweeps with transition detection.

A temperature sweep walks a T grid (physically: cooling), sets
d = alpha2*(T - T2star) at each point, minimizes from the previous converged
state (warm start) plus fresh seeds, and keeps the lowest-energy converged
result.  The sweep has two branches, the two signs of the layer pitchfork,
rho and -rho.  The energy is even in rho: rho is a sine series, odd in z, so
the cubic term e rho^3 integrates to zero over the cell and e breaks the
symmetry by rounding only.  So only the "+" branch is relaxed, and the "-"
branch is read off it as its mirror image.  Transitions are read off the
amplitude records: the layering onset from delta_rho_max, the tilt onset
from theta_max, both refined by linear interpolation of the squared
amplitude (the pitchfork normal form makes amplitude^2 linear in T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# minimize and spectrum are read from their modules at each call: a name bound
# here while a wrapper sat on them (bench/probe.py) would keep it after removal
from . import stability
from .energy1d import Evaluator, mean_tilt
from .minimize import MinimizeOptions, seed_state
from .params import ModelParams1D
from .spectral import SpectralState, default_grid

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "SweepError",
    "ElasticRecord",
    "sweep_temperature",
    "detect_transitions",
    "pitchfork_exponent",
    "elastic_sweep",
]


#: Fresh seed kinds tried at every sweep temperature besides the warm start.
SWEEP_SEEDS = ("smectic-seed",)
#: Seed kinds of every elastic-sweep point, with the "+" layer sign only: a
#: "-" seed relaxes to the mirror image of its "+" twin, at the same energy.
ELASTIC_SEEDS = ("smectic-seed", "conical-seed")
#: A sweep aborts when more than this share of its points fail to converge.
MAX_FAILURE_FRACTION = 0.2


class SweepError(RuntimeError):
    """Raised when too many points of a sweep fail to converge."""


@dataclass(frozen=True)
class SweepConfig:
    """Temperature grid and solver policy for a sweep.

    Every temperature relaxes the warm start (unless ``cold_start``) and the
    fresh ``SWEEP_SEEDS`` on the "+" pitchfork branch; the "-" branch is its
    mirror image.  The amplitude threshold that separates phase labels is
    not part of the sweep: :func:`detect_transitions` takes it.
    """

    t_start: float
    t_end: float
    dt: float
    record_morse: bool = False
    cold_start: bool = False
    n_modes: int = 64
    options: MinimizeOptions = MinimizeOptions()

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt == 0:
            raise ValueError("dt must be nonzero")

    def temperatures(self) -> np.ndarray:
        span = self.t_end - self.t_start
        step = math.copysign(abs(self.dt), span if span != 0 else 1.0)
        count = int(math.floor(abs(span) / abs(step) + 1e-9)) + 1
        return self.t_start + step * np.arange(count)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ElasticRecord:
    """One elastic-constant point: mean tilt of the relaxed state."""

    value: float
    theta_bar: float
    delta_rho_max: float
    energy: float
    converged: bool


def _normalize_tilt_sign(state: SpectralState) -> SpectralState:
    """Flip theta -> -theta when the mean tilt is negative.

    The energy is exactly even in theta, so tilted minimizers come in sign
    pairs; records report the positive-tilt representative.
    """
    if state.theta_c[0] < 0:
        return SpectralState(n=state.n, h=state.h, theta_c=-state.theta_c, rho_s=state.rho_s)
    return state


def _relax(
    candidates: list[SpectralState],
    params: ModelParams1D,
    options: MinimizeOptions,
    evaluator: Evaluator,
) -> tuple[SpectralState, float, bool]:
    """Minimize from every candidate; lowest-energy converged result wins.

    A converged result always beats a non-converged one; non-converged best
    iterates are reported only when nothing converged.
    """
    from .minimize import minimize

    best: tuple[bool, float, SpectralState] | None = None
    for cand in candidates:
        state, report = minimize(cand, params, options, evaluator=evaluator)
        key = (report.converged, report.final_energy, state)
        if best is None:
            best = key
        elif key[0] and not best[0]:
            best = key
        elif key[0] == best[0] and key[1] < best[1]:
            best = key
    assert best is not None
    return _normalize_tilt_sign(best[2]), best[1], best[0]


def sweep_temperature(params: ModelParams1D, config: SweepConfig) -> list[SweepRecord]:
    """Cooling sweep over both pitchfork branches.

    Returns records ordered as the temperature grid, one per (T, branch).
    Only the "+" branch is relaxed.  The "-" record is the "+" state with rho
    negated: the same energy, convergence flag and Morse index (the Hessian
    there is P H P with P = diag(+-1), which has the same spectrum), and
    amplitudes read off the mirrored state.  Non-converged points are
    recorded with ``converged=False``, the mirrored record too; the sweep
    aborts only when more than ``MAX_FAILURE_FRACTION`` of all records
    failed to converge.
    """
    temps = config.temperatures()
    grid = default_grid(config.n_modes, params.h)
    records: list[SweepRecord] = []
    warm: SpectralState | None = None
    for t_val in temps:
        params_t = params.at_temperature(float(t_val))
        evaluator = Evaluator(config.n_modes, params_t)
        candidates: list[SpectralState] = []
        if not config.cold_start and warm is not None:
            candidates.append(warm)
        candidates.extend(seed_state(kind, params_t, config.n_modes) for kind in SWEEP_SEEDS)
        state, energy_val, converged = _relax(candidates, params_t, config.options, evaluator)
        morse = stability.spectrum(state, params_t).morse_index if config.record_morse else None
        if converged:
            warm = state
        mirrored = SpectralState(n=state.n, h=state.h, theta_c=state.theta_c, rho_s=-state.rho_s)
        for branch, branch_state in (("+", state), ("-", mirrored)):
            records.append(
                SweepRecord(
                    T=float(t_val),
                    d=params_t.d,
                    branch=branch,
                    delta_rho_max=float(np.max(branch_state.rho_values(grid))),
                    theta_max=float(np.max(branch_state.theta_values(grid))),
                    energy=energy_val,
                    morse_index=morse,
                    converged=converged,
                )
            )
    failures = sum(not r.converged for r in records)
    if failures > MAX_FAILURE_FRACTION * len(records):
        raise SweepError(f"{failures} of {len(records)} sweep points failed to converge")
    return records


def _onset(seq: list[SweepRecord], amplitudes: list[float], eps_detect: float) -> float | None:
    """Bracketed onset: the first amplitude >= eps_detect after one below it.

    The zero crossing is refined by linear interpolation of the squared
    amplitude in T (pitchfork normal form) and clamped to the bracket
    [T of the first record at or above eps_detect, T of the last record
    below it], because a flat or bent amplitude curve extrapolates far past
    it.  None when no amplitude reaches eps_detect or when the first record
    already does (onset not bracketed).
    """
    idx = next((i for i, a in enumerate(amplitudes) if a >= eps_detect), None)
    if not idx:  # None: never reached; 0: not bracketed
        return None
    t_i, a_i = seq[idx].T, amplitudes[idx]
    t_above = seq[idx - 1].T
    if idx + 1 < len(seq) and amplitudes[idx + 1] > a_i:
        t_j, a_j = seq[idx + 1].T, amplitudes[idx + 1]
        return min(max(t_i - a_i**2 * (t_j - t_i) / (a_j**2 - a_i**2), t_i), t_above)
    return 0.5 * (t_above + t_i)


def detect_transitions(records: list[SweepRecord], eps_detect: float) -> tuple[float | None, float | None]:
    """Locate the layering and tilt onsets in a cooling sweep.

    Records must be ordered by decreasing T.  The first record (largest T)
    with delta_rho_max >= eps_detect marks the layering transition; the
    first with theta_max >= eps_detect marks the tilt transition.  Both are
    refined by linear interpolation of the squared amplitude against T and
    lie inside their bracket.  A transition is reported only when the sweep
    brackets it: None when it is absent from the swept range, and None when
    it is not bracketed because the first record is already past the
    threshold.  ``eps_detect`` must be positive.
    """
    if not eps_detect > 0:
        raise ValueError(f"eps_detect must be positive, got {eps_detect}")
    if not records:
        return None, None
    branch = records[0].branch
    seq = [r for r in records if r.branch == branch]
    temps = [r.T for r in seq]
    if any(t2 >= t1 for t1, t2 in zip(temps, temps[1:])):
        raise ValueError("records must be ordered by strictly decreasing T")
    t_chs = _onset(seq, [r.delta_rho_max for r in seq], eps_detect)
    t_hssc = _onset(seq, [r.theta_max for r in seq], eps_detect)
    return t_chs, t_hssc


def pitchfork_exponent(
    records: list[SweepRecord],
    d0: float,
    window: float,
    eps_detect: float = 1e-3,
) -> float:
    """Least-squares slope of log(delta_rho_max) against log(d0 - d).

    Uses the layered records with d in (d0 - window, d0); a clean pitchfork
    gives slope 1/2.

    Raises
    ------
    ValueError
        If fewer than five usable records fall inside the window.
    """
    pts = [
        (r.d, r.delta_rho_max)
        for r in records
        if d0 - window < r.d < d0 and r.delta_rho_max >= eps_detect and r.converged
    ]
    if len(pts) < 5:
        raise ValueError(f"insufficient records for the pitchfork fit: {len(pts)} inside the window, need >= 5")
    x = np.log([d0 - d for d, _ in pts])
    y = np.log([amp for _, amp in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def elastic_sweep(
    params: ModelParams1D,
    values: list[float],
    vary: str,
    n_modes: int = 64,
    options: MinimizeOptions = MinimizeOptions(),
) -> list[ElasticRecord]:
    """Sweep the nematic (vary="k") or smectic (vary="lambda") elastic constants.

    Each point sets k1 = k2 = k3 = v (or lambda1 = lambda2 = v), relaxes
    from the fresh ``ELASTIC_SEEDS``, keeps the lowest-energy converged state
    and records its mean tilt.  Cold starts keep the points independent.
    """
    if vary not in ("k", "lambda"):
        raise ValueError(f"vary must be 'k' or 'lambda', got {vary!r}")
    records: list[ElasticRecord] = []
    grid = default_grid(n_modes, params.h)
    for v in values:
        if vary == "k":
            params_v = replace(params, k1=v, k2=v, k3=v)
        else:
            params_v = replace(params, lambda1=v, lambda2=v)
        evaluator = Evaluator(n_modes, params_v)
        candidates = [seed_state(kind, params_v, n_modes) for kind in ELASTIC_SEEDS]
        state, energy_val, converged = _relax(candidates, params_v, options, evaluator)
        records.append(
            ElasticRecord(
                value=float(v),
                theta_bar=mean_tilt(state, params_v),
                delta_rho_max=float(np.max(state.rho_values(grid))),
                energy=energy_val,
                converged=converged,
            )
        )
    failures = sum(not r.converged for r in records)
    if failures > MAX_FAILURE_FRACTION * len(records):
        raise SweepError(f"{failures} of {len(records)} elastic-sweep points failed to converge")
    return records

