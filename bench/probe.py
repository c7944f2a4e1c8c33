"""Counting and tracing wrappers around the public layer functions of smectic1d.

A ``Probe`` replaces each wrapped function wherever a smectic1d module holds
it (module globals are scanned by identity, so ``from .x import f`` aliases
are covered) and restores the originals on ``uninstall``.

* Every install counts calls and captures what the benchmark checks
  afterwards: minimize inputs/outputs, spectrum Morse indices, sweep records
  and per-point start times.  That costs one Python call frame per wrapped
  call and is present in the untraced passes too.
* ``trace=True`` also records a span (name, start, end, parent) per wrapped
  call.  Spans are kept in memory (flat arrays) and written out with
  ``save_spans`` when the run ends; self times per layer are derived from
  them.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute path) of each wrapped function; the module's short name
# is the layer, which prefixes the per-layer metrics.
TARGETS = (
    ("smectic1d.energy1d", "Evaluator.__init__"),
    ("smectic1d.energy1d", "Evaluator.energy"),
    ("smectic1d.energy1d", "Evaluator.gradient"),
    ("smectic1d.energy1d", "Evaluator.fields"),
    ("smectic1d.energy1d", "Evaluator.breakdown"),
    ("smectic1d.spectral", "synthesize"),
    ("smectic1d.spectral", "analyze"),
    ("smectic1d.minimize", "minimize"),
    ("smectic1d.stability", "hessian"),
    ("smectic1d.stability", "spectrum"),
    ("smectic1d.sweep", "sweep_temperature"),
    ("smectic1d.sweep", "elastic_sweep"),
    ("smectic1d.sweep", "detect_transitions"),
    ("smectic1d.tensor", "reduction_residual"),
    ("smectic1d.cli", "run"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _seed_sign(state0, params) -> float:
    """+1 or -1 when ``state0`` is a fresh seed of that layer sign, 0 for a warm start."""
    from smectic1d.minimize import SEED_KINDS, seed_state

    x0 = state0.pack()
    for kind in SEED_KINDS:
        seed = seed_state(kind, params, state0.n)
        if not seed.rho_s.any():
            continue  # the trivial seed carries no branch sign
        for sign in (1.0, -1.0):
            if (x0[: seed.n + 2] == seed.theta_c).all() and (x0[seed.n + 2 :] == sign * seed.rho_s).all():
                return sign
    return 0.0


class Probe:
    """Call counters, captured results and (optionally) spans for one pass."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: dict[str, list[int]] = {}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # captured for the checks and the per-layer metrics
        self.minimize_calls: list[tuple] = []  # (point, state0, params, state, report, d_energy, d_gradient)
        self.spectra: list[tuple[int, int]] = []  # (morse_index, d_gradient)
        self.sweeps: list[tuple[str, list, int, int]] = []  # (function, records, first call, last call)
        self.point_starts: list[float] = []
        self.point_seconds: list[float] = []
        self.transitions: list[tuple] = []
        self._current_evaluator = None

    # -- installation ------------------------------------------------------

    def install(self) -> "Probe":
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                continue  # layer function removed by a later refactor: reported as 0
            name = span_name(module_name, attr)
            wrapped = self._observe(name, self._wrap(name, original))
            if owner:
                self._set(holder, leaf, wrapped)
            else:
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("smectic1d"):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _set(self, holder: object, key: str, value: object) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def _cell(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def _wrap(self, name: str, fn):
        cell = self._cell(name)
        if not self.trace:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        ids, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell[0] += 1
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- result capture ------------------------------------------------------

    def _observe(self, name: str, fn):
        if name == "minimize.minimize":
            return self._observe_minimize(fn)
        if name == "stability.spectrum":
            return self._observe_spectrum(fn)
        if name in ("sweep.sweep_temperature", "sweep.elastic_sweep"):
            return self._observe_sweep(name, fn)
        if name == "sweep.detect_transitions":
            def detect_transitions(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.transitions.append(tuple(result))
                return result

            return detect_transitions
        return fn

    def _observe_minimize(self, fn):
        energy = self._cell("energy1d.Evaluator.energy")
        gradient = self._cell("energy1d.Evaluator.gradient")
        clock = time.perf_counter

        def minimize(state0, params, *args, **kwargs):
            # a sweep builds one Evaluator per point and passes it to every
            # relaxation of that point: a new one marks the next point
            ev = kwargs.get("evaluator")
            if ev is not None and ev is not self._current_evaluator:
                self._current_evaluator = ev
                self.point_starts.append(clock())
            e0, g0 = energy[0], gradient[0]
            state, report = fn(state0, params, *args, **kwargs)
            point = len(self.point_starts) - 1 if ev is not None else -1
            self.minimize_calls.append((point, state0, params, state, report, energy[0] - e0, gradient[0] - g0))
            return state, report

        return minimize

    def _observe_spectrum(self, fn):
        gradient = self._cell("energy1d.Evaluator.gradient")

        def spectrum(*args, **kwargs):
            g0 = gradient[0]
            report = fn(*args, **kwargs)
            self.spectra.append((int(report.morse_index), gradient[0] - g0))
            return report

        return spectrum

    def _observe_sweep(self, name: str, fn):
        def sweep(*args, **kwargs):
            first_call = len(self.minimize_calls)
            first_point = len(self.point_starts)
            self._current_evaluator = None
            records = fn(*args, **kwargs)
            end = time.perf_counter()
            starts = self.point_starts[first_point:] + [end]
            self.point_seconds.extend(b - a for a, b in zip(starts, starts[1:]))
            self.sweeps.append((name, list(records), first_call, len(self.minimize_calls)))
            return records

        return sweep

    # -- summary -----------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-able aggregates of one pass; call after ``uninstall``.

        Sums and maxima only, so summaries of several processes merge with
        ``merge_summaries``.
        """
        signs = [_seed_sign(state0, params) for _, state0, params, *_ in self.minimize_calls]
        out = {
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "self_s": self.self_seconds(),
            "incl_s": {
                name: self.inclusive_seconds(name)
                for name in ("energy1d.Evaluator.energy", "energy1d.Evaluator.gradient", "stability.spectrum", "tensor.reduction_residual")
            },
            "minimize": {"calls": 0, "iterations": 0, "iters_max": 0, "backtracks": 0, "evals": 0, "converged": 0, "theta_out": 0},
            "spectrum": {"calls": len(self.spectra), "saddles": sum(m > 0 for m, _ in self.spectra), "gradient_calls": sum(g for _, g in self.spectra)},
            "sweep": {
                "points": 0, "records": 0, "unconverged": 0, "relaxations": 0, "winners": 0,
                "warm_pairs": 0, "warm_wins": 0, "minus_iterations": 0, "iterations": 0,
            },
        }
        mz = out["minimize"]
        for _, _, _, state, report, d_energy, d_gradient in self.minimize_calls:
            mz["calls"] += 1
            mz["iterations"] += report.iterations
            mz["iters_max"] = max(mz["iters_max"], report.iterations)
            mz["backtracks"] += d_energy - report.iterations - 1
            mz["evals"] += d_energy + d_gradient
            mz["converged"] += bool(report.converged)
            mz["theta_out"] += not state.theta_in_range()
        sw = out["sweep"]
        for _, records, first, last in self.sweeps:
            calls = list(range(first, last))
            # a warm start belongs to the branch of the seeds that follow it
            branch_sign = {}
            pending = []
            for i in calls:
                if signs[i] == 0.0:
                    pending.append(i)
                else:
                    for j in pending:
                        branch_sign[j] = signs[i]
                    pending = []
                    branch_sign[i] = signs[i]
            points = sorted({self.minimize_calls[i][0] for i in calls})
            sw["points"] += len(points)
            sw["records"] += len(records)
            sw["unconverged"] += sum(not r.converged for r in records)
            sw["relaxations"] += len(calls)
            for i in calls:
                iters = self.minimize_calls[i][4].iterations
                sw["iterations"] += iters
                sw["minus_iterations"] += iters if branch_sign.get(i) == -1.0 else 0
            # records follow the points in order: one per branch, or one per
            # point for an elastic sweep, which has no branch
            per_point = len(records) // max(len(points), 1)
            for r_idx, record in enumerate(records):
                point = points[r_idx // per_point]
                sign = {"+": 1.0, "-": -1.0}.get(getattr(record, "branch", None))
                group = [i for i in calls if self.minimize_calls[i][0] == point and (sign is None or branch_sign.get(i) == sign)]
                winner = next(
                    (i for i in group if self.minimize_calls[i][4].final_energy == record.energy and self.minimize_calls[i][4].converged == record.converged),
                    None,
                )
                sw["winners"] += winner is not None
                if any(signs[i] == 0.0 for i in group):
                    sw["warm_pairs"] += 1
                    sw["warm_wins"] += winner is not None and signs[winner] == 0.0
        return out

    # -- spans -----------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span duration minus the time its child spans cover."""
        import numpy as np

        if not self.trace or not len(self.span_start):
            return {}
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        layers = sorted({layer_of(n) for n in self.names})
        layer_idx = np.array([layers.index(layer_of(n)) for n in self.names])
        per_layer = np.bincount(layer_idx[np.frombuffer(self.span_name, dtype=np.int32)], weights=own, minlength=len(layers))
        return {layer: float(v) for layer, v in zip(layers, per_layer)}

    def inclusive_seconds(self, name: str) -> float:
        import numpy as np

        if not self.trace or name not in self.names or not len(self.span_start):
            return 0.0
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        mask = ids == self.names.index(name)
        return float(np.sum(np.frombuffer(self.span_end, dtype=float)[mask] - np.frombuffer(self.span_start, dtype=float)[mask]))

    def save_spans(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )
