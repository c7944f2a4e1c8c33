"""Run one benchmark workload in this (fresh) interpreter; print its result as JSON.

Started by ``run.py`` with the thread limits and ``PYTHONPATH`` already set.
Repeats the workload pass until the time budget is spent (at least two
passes), checks the first pass, requires every later pass to repeat its
outputs and work counts exactly, and prints one JSON object as the last line
of stdout.  With ``--trace 1`` the first pass is untraced, the rest traced.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
EPS_DETECT = 1e-3  # the sweep CLI's default amplitude threshold
N_MODES = 64
TIME_LIMIT_S = 140.0  # passes stop here so that a run ends well inside 180 s
SETUP_CODE = f"import smectic1d as s; s.Evaluator({N_MODES}, s.ModelParams1D()); print('ready', flush=True)"
SETUP_SAMPLES = 10  # two before each pass until there are this many, two after the last
CAL_INTERVAL_S = 0.1  # period of the machine-speed probe during a pass
CAL_REF_S = 0.003  # duration of one probe at the reference speed: wall_ref_s is in these seconds


class SpeedProbe:
    """Samples the machine's current speed while a pass runs.

    A fixed kernel of small matrix-vector products and element-wise numpy
    calls (the instruction mix of an energy/gradient evaluation, but no
    smectic1d code) runs from a SIGALRM handler every CAL_INTERVAL_S.  On a
    shared machine the speed of the same code changes by up to 1.6x over
    minutes; the probe sees the same changes, so pass time x CAL_REF_S /
    (mean probe time) is steady while raw pass time is not.

    With ``timer=False`` there is no handler; the pass calls ``sample``
    itself (between the processes it waits on).  Either way the probe runs
    serially with the pass, and its own time is subtracted from the pass.
    """

    def __init__(self, enabled: bool, timer: bool):
        import numpy as np

        self.enabled = enabled
        self.timer = enabled and timer
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.random((264, 66))
        self._x0 = rng.random(66) * 1e-2
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self) -> None:
        np, a, x = self._np, self._a, self._x0
        t0 = time.perf_counter()
        for _ in range(150):
            y = a @ x
            z = np.sin(y) * y + 0.5 * y * y
            x = (a.T @ z) * (1.0 / 264.0)
            x = x / (1.0 + np.abs(x).max())
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        if not self.timer:
            return self
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.enabled and not self.samples:
            self.sample()  # a pass shorter than one period still gets a sample

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, wall at the reference speed) of the pass timed over [t0, t1], probe time excluded."""
        wall = t1 - t0 - sum(d for start, d in self.samples if t0 <= start <= t1)
        return wall, wall * CAL_REF_S / statistics.fmean(d for _, d in self.samples)


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the aggregates of several processes' summaries (maxima for *_max)."""
    out: dict = {}
    for summ in summaries:
        for key, value in summ.items():
            slot = out.setdefault(key, {})
            for name, v in value.items():
                slot[name] = max(slot.get(name, 0), v) if name.endswith("_max") else slot.get(name, 0) + v
    return out


def reference_energy(params) -> float:
    """Lowest energy of closed-form trial states at these parameters.

    The trial states are the trivial state and, below the layering onset,
    the frozen layer t*sin(q z) at the pitchfork amplitude, untilted and at
    the optimal constant tilt.  A relaxed state must not lie above them; a
    solver that finds lower energies passes.
    """
    import numpy as np
    import smectic1d as s

    p = params
    trials = [s.SpectralState.zeros(N_MODES, p.h)]
    d0 = -2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4
    if p.d < d0:
        t = math.sqrt(4.0 * (d0 - p.d) / (3.0 * p.f))
        for theta in (0.0, s.theta_star(t, p)):
            theta_c = np.zeros(N_MODES + 2)
            rho_s = np.zeros(N_MODES + 1)
            theta_c[0] = theta
            rho_s[p.n0 - 1] = t
            trials.append(s.SpectralState(n=N_MODES, h=p.h, theta_c=theta_c, rho_s=rho_s))
    return min(s.energy(state, p).total for state in trials)


def energy_ok(value: float, reference: float) -> bool:
    return value <= reference + 1e-9 * max(1.0, abs(reference))


def analytic_t_chs(p) -> float:
    """Layering onset from the closed form d0 = -2 lambda2 q^4 cos^4(theta0)."""
    return p.T2star - 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4 / p.alpha2


# --- workloads ----------------------------------------------------------------------


class Check:
    """Named pass/fail results; failures are reported, never hidden."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


class SweepWorkload:
    """A warm-started cooling sweep with Morse indices, run through ``cli.run``."""

    in_process = True  # the speed probe samples the pass by timer

    def __init__(self, name: str, seed: int):
        self.name = name
        rng = random.Random(seed)
        if name == "fig3_morse":
            self.dt = 0.02
            offset = rng.uniform(0.0, self.dt)  # sub-dT shift of the whole grid
            self.t_start, self.t_end = -9.5 - offset, -11.5 - offset
        else:
            # Fixed grid: seeded BB relaxations near the tilt onset need from
            # ~400 to ~59,000 iterations for T shifts as small as 1e-4, so a
            # seed-dependent grid would change this workload's cost several-fold.
            self.dt = 0.2
            self.t_start, self.t_end = -21.2, -22.2
        self.info: list[str] = []

    def argv(self, out: Path) -> list[str]:
        return [
            "sweep", "--t-start", repr(self.t_start), "--t-end", repr(self.t_end), "--dt", repr(self.dt),
            "--record-morse", "--out", str(out),
        ]

    def run_pass(self, workdir: Path, trace: bool, speed: "SpeedProbe") -> dict:
        import smectic1d.cli as cli

        out = workdir / "sweep.csv"
        probe = Probe(trace).install()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(self.argv(out))
        t1 = time.perf_counter()
        probe.uninstall()
        data = out.read_bytes() if out.exists() else b""
        stdout = buf.getvalue()
        return {
            "wall": t1 - t0,
            "timed": (t0, t1),
            "points": probe.point_seconds,
            "rc": rc,
            "outputs": {"sweep.csv": data, "stdout": stdout.encode()},
            "bytes_written": len(data) + len(stdout.encode()),
            "summary": probe.summary(),
            "probe": probe,
        }

    def check(self, first: dict, check: Check) -> tuple[int, int]:
        """Physics checks on one pass; returns (points attempted, points failed)."""
        import smectic1d as s

        probe: Probe = first["probe"]
        check("exit code 0", first["rc"] == 0, f"rc={first['rc']}")
        records = probe.sweeps[0][1] if probe.sweeps else []
        base = s.ModelParams1D()
        bad_points = set()
        for r in records:
            ok = r.converged and energy_ok(r.energy, reference_energy(base.at_temperature(r.T)))
            if not ok:
                bad_points.add(r.T)
        check("every record converged and at or below the trial-state energy", not bad_points, f"bad T: {sorted(bad_points)}")
        points = len({r.T for r in records})
        check("one record per branch and temperature", len(records) == 2 * points and points > 0, f"{len(records)} records")
        t_chs, t_hssc = probe.transitions[0] if probe.transitions else (None, None)
        temps = [r.T for r in records if r.branch == "+"]
        morse = sorted({r.morse_index for r in records})
        if self.name == "fig3_morse":
            analytic = analytic_t_chs(base)
            bracketed = (
                t_chs is not None
                and min(temps) < t_chs < max(temps)
                and records[0].delta_rho_max < EPS_DETECT <= records[-1].delta_rho_max
            )
            check("T_CHS bracketed by the sweep", bracketed, f"T_CHS={t_chs}")
            check(
                "T_CHS within 2 dT of the closed form",
                t_chs is not None and abs(t_chs - analytic) <= 2 * self.dt,
                f"T_CHS={t_chs} analytic={analytic:.7f}",
            )
        else:
            warm = [r for r in records if r.T == temps[0]]
            cold = [r for r in records if r.T == temps[-1]]
            check("no tilt at the warm end", all(r.theta_max < EPS_DETECT for r in warm), f"theta_max={[r.theta_max for r in warm]}")
            check("tilt at the cold end", all(r.theta_max >= EPS_DETECT for r in cold), f"theta_max={[r.theta_max for r in cold]}")
            # Known defects, reported and not gated (see bench/README.md).
            self.info.append(f"known defect: Morse indices on tilt_onset records = {morse} (saddles, not minima)")
            inside = t_chs is not None and min(temps) <= t_chs <= max(temps)
            self.info.append(
                f"known defect: detect_transitions reports T_CHS = {t_chs} from a "
                f"[{min(temps)}, {max(temps)}] sweep ({'inside' if inside else 'outside, extrapolated'})"
            )
        self.info.append(f"T_CHS = {t_chs}, T_HSSC = {t_hssc}, Morse indices seen = {morse}")
        return points, len(bad_points)


class CliBatchWorkload:
    """A scripted session of fresh ``smectic1d`` processes writing CSV and SVG files."""

    in_process = False  # the pass samples the speed probe between its processes

    def __init__(self, name: str, seed: int):
        self.name = name
        rng = random.Random(seed)
        self.d_minimize = -0.45 - rng.uniform(0.0, 0.5)
        self.d_spectrum = -rng.uniform(0.0, 1.0)
        self.t_amp = rng.uniform(1.0, 2.5)
        self.sweep_offset = rng.uniform(0.0, 0.25)
        self.d_elastic = -4.5 - rng.uniform(0.0, 1.0)
        self.rng_seed = seed % 2**31
        self.info: list[str] = []

    def commands(self) -> list[tuple[str, list[str]]]:
        t0 = -10.2 - self.sweep_offset
        return [
            ("validate-params", ["validate-params", "--config", "run.cfg"]),
            ("thresholds", ["thresholds", "--config", "run.cfg", "--t", repr(self.t_amp)]),
            ("minimize", ["minimize", "--config", "run.cfg", "--d", repr(self.d_minimize), "--profile", "profile.csv"]),
            ("spectrum", ["spectrum", "--config", "run.cfg", "--d", repr(self.d_spectrum), "--out", "spectrum.csv"]),
            ("sweep", ["sweep", "--config", "run.cfg", "--t-start", repr(t0), "--t-end", repr(t0 - 1.0), "--dt", "0.25",
                       "--cold-start", "--out", "sweep.csv"]),
            ("plot-bifurcation", ["plot", "--kind", "bifurcation", "--data", "sweep.csv", "--out", "sweep.svg"]),
            ("plot-profile", ["plot", "--kind", "profile", "--data", "profile.csv", "--out", "profile.svg"]),
            ("elastic-sweep", ["elastic-sweep", "--config", "run.cfg", "--d", repr(self.d_elastic), "--vary", "k",
                               "--values", "0.025,0.05,0.25", "--out", "k.csv"]),
            ("plot-elastic", ["plot", "--kind", "elastic", "--data", "k.csv", "--out", "k.svg"]),
            ("tensor-check", ["tensor-check", "--sigma", "2", "--s-plus", "1.5", "--rng-seed", str(self.rng_seed)]),
        ]

    def run_pass(self, workdir: Path, trace: bool, speed: "SpeedProbe") -> dict:
        (workdir / "run.cfg").write_text(f"# cli_batch input\nN = {N_MODES}\n")
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        points, rcs, summaries, stdouts = [], {}, [], {}
        t_pass = time.perf_counter()
        for idx, (label, argv) in enumerate(self.commands()):
            summary_file = workdir / f"{idx}-{label}.summary.json"
            spans_file = self.spans_dir / f"{self.name}-{idx}-{label}.spans.npz"
            trace_args = [str(summary_file), str(spans_file)] if trace else ["-", "-"]
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, child, repr(time.time()), *trace_args, "--", *argv],
                cwd=workdir, capture_output=True, timeout=60,
            )
            points.append(time.perf_counter() - t0)
            if speed.enabled:
                speed.sample()
            rcs[label] = proc.returncode
            stdouts[label] = proc.stdout
            if label == "minimize":
                stdouts["stderr:minimize"] = proc.stderr
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            if trace and summary_file.exists():
                summaries.append(json.loads(summary_file.read_text()))
                summary_file.unlink()
        t_end = time.perf_counter()
        outputs = {f.name: f.read_bytes() for f in sorted(workdir.iterdir()) if f.name != "run.cfg"}
        outputs.update({k if ":" in k else f"stdout:{k}": v for k, v in stdouts.items()})
        return {
            "wall": t_end - t_pass,
            "timed": (t_pass, t_end),
            "points": points,
            "rcs": rcs,
            "outputs": outputs,
            "bytes_written": sum(len(v) for v in outputs.values()),
            "summary": merge_summaries(summaries) if summaries else None,
        }

    def check(self, first: dict, check: Check) -> tuple[int, int]:
        import numpy as np
        import smectic1d as s

        out, rcs = first["outputs"], first["rcs"]
        failed = {label for label, rc in rcs.items() if rc != 0}
        check("every command exits 0", not failed, f"non-zero: {sorted(failed)}")
        base = s.ModelParams1D()

        def text(key: str) -> str:
            return out.get(key, b"").decode(errors="replace")

        def fail(label: str, ok: bool, detail: str) -> None:
            if not check(f"{label} output", ok, detail):
                failed.add(label)

        d0 = -2.0 * base.lambda2 * base.q**4 * math.cos(base.theta0) ** 4
        for label in ("validate-params", "thresholds"):
            line = next((ln for ln in text(f"stdout:{label}").splitlines() if ln.startswith("d_critical = ")), "")
            fail(label, line and math.isclose(float(line.split("=")[1]), d0, rel_tol=1e-12), line)
        lines = (text("stdout:minimize") + text("stderr:minimize")).splitlines()
        values = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
        ref = reference_energy(base.with_d(self.d_minimize))
        fail(
            "minimize",
            values.get("converged") == "True" and values.get("theta_within_range") == "True"
            and energy_ok(float(values.get("energy", "inf")), ref),
            f"{values} vs reference {ref}",
        )
        rows = list(csv.DictReader(io.StringIO(text("spectrum.csv"))))
        eig = np.array([float(r["eigenvalue"]) for r in rows])
        p = base.with_d(self.d_spectrum)
        omega2 = (2.0 * math.pi * np.arange(N_MODES + 2) / p.h) ** 2
        closed = np.sort(np.concatenate([
            2.0 * p.k1 * (omega2 + p.sigma**2),
            p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4 + 2.0 * p.lambda1 * (omega2[1:] - p.q**2) ** 2,
        ]))
        fail(
            "spectrum",
            eig.shape == closed.shape and np.allclose(eig, closed, rtol=1e-6, atol=1e-6),
            "numeric spectrum at the trivial state vs its closed form",
        )
        rows = list(csv.DictReader(io.StringIO(text("sweep.csv"))))
        bad = [r["T"] for r in rows if not energy_ok(float(r["energy"]), reference_energy(base.at_temperature(float(r["T"]))))]
        fail("sweep", len(rows) == 10 and not bad, f"{len(rows)} rows, above reference at T={bad}")
        rows = list(csv.DictReader(io.StringIO(text("k.csv"))))
        bad = [
            r["value"] for r in rows
            if not energy_ok(float(r["energy"]), reference_energy(s.ModelParams1D(
                k1=float(r["value"]), k2=float(r["value"]), k3=float(r["value"]), d=self.d_elastic)))
        ]
        fail("elastic-sweep", len(rows) == 3 and not bad, f"{len(rows)} rows, above reference at k={bad}")
        for label, key in (("plot-bifurcation", "sweep.svg"), ("plot-profile", "profile.svg"), ("plot-elastic", "k.svg")):
            svg = text(key)
            fail(label, svg.startswith("<svg") and svg.endswith("</svg>\n"), f"{len(svg)} bytes")
        lines = text("stdout:tensor-check").splitlines()
        fail("tensor-check", len(lines) == 3 and all(ln.endswith("-> ok") for ln in lines), "; ".join(lines))
        return len(rcs), len(failed)


WORKLOADS = {"fig3_morse": SweepWorkload, "tilt_onset": SweepWorkload, "cli_batch": CliBatchWorkload}


# --- metrics ------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float | None, int]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return statistics.quantiles(samples, n=100, method="inclusive")[q - 1], q
    return None, 0


def layer_metrics(summary: dict, first: dict, untraced_wall: float, startup: dict) -> dict:
    """Per-layer metrics of one traced pass (counts are per pass)."""
    counts = summary["counts"]
    self_s = summary["self_s"]
    incl = summary["incl_s"]
    mz, sp, sw = summary["minimize"], summary["spectrum"], summary["sweep"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    energy_calls = counts.get("energy1d.Evaluator.energy", 0)
    gradient_calls = counts.get("energy1d.Evaluator.gradient", 0)
    return {
        "energy1d.energy_calls": (energy_calls, "count"),
        "energy1d.gradient_calls": (gradient_calls, "count"),
        "energy1d.fields_calls": (counts.get("energy1d.Evaluator.fields", 0), "count"),
        "energy1d.energy_us": (1e6 * ratio(incl["energy1d.Evaluator.energy"], energy_calls), "us"),
        "energy1d.gradient_us": (1e6 * ratio(incl["energy1d.Evaluator.gradient"], gradient_calls), "us"),
        "energy1d.evaluator_builds": (counts.get("energy1d.Evaluator.__init__", 0), "count"),
        "energy1d.self_s": (self_s.get("energy1d", 0.0), "s"),
        "minimize.calls": (mz["calls"], "count"),
        "minimize.iterations": (mz["iterations"], "count"),
        "minimize.iters_max": (mz["iters_max"], "count"),
        "minimize.backtracks": (mz["backtracks"], "count"),
        "minimize.evals_per_iter": (ratio(mz["evals"], mz["iterations"]), "ratio"),
        "minimize.converged_frac": (ratio(mz["converged"], mz["calls"]), "ratio"),
        "minimize.self_s": (self_s.get("minimize", 0.0), "s"),
        "stability.spectrum_calls": (sp["calls"], "count"),
        "stability.spectrum_ms": (1e3 * ratio(incl["stability.spectrum"], sp["calls"]), "ms"),
        "stability.gradient_calls_per_spectrum": (ratio(sp["gradient_calls"], sp["calls"]), "count"),
        "stability.saddle_frac": (ratio(sp["saddles"], sp["calls"]), "ratio"),
        "stability.self_s": (self_s.get("stability", 0.0), "s"),
        "sweep.points": (sw["points"], "count"),
        "sweep.relaxations_per_point": (ratio(sw["relaxations"], sw["points"]), "count"),
        "sweep.useful_ratio": (ratio(sw["winners"], sw["relaxations"]), "ratio"),
        "sweep.warm_win_frac": (ratio(sw["warm_wins"], sw["warm_pairs"]), "ratio"),
        "sweep.minus_branch_frac": (ratio(sw["minus_iterations"], sw["iterations"]), "ratio"),
        "sweep.self_s": (self_s.get("sweep", 0.0), "s"),
        "cli.import_s": (startup["import_s"], "s"),
        "cli.process_s": (startup["process_s"], "s"),
        "cli.io_s": (self_s.get("cli", 0.0), "s"),
        "cli.bytes_written": (first["bytes_written"], "bytes"),
        "spectral.synthesize_calls": (counts.get("spectral.synthesize", 0), "count"),
        "trace.overhead_s": (first["wall"] - untraced_wall, "s"),
    }


def setup_seconds() -> float:
    """Spawn-to-ready time of a fresh interpreter that imports smectic1d and builds an Evaluator."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up interpreter failed")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads()}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be queried."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.time() when the parent started this process")
    ap.add_argument("--out", required=True, help="scratch directory inside the checkout")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.workload, args.seed)
    startup = {"import_s": 0.0, "process_s": 0.0}
    if isinstance(workload, SweepWorkload):
        t0 = time.perf_counter()
        import smectic1d.cli  # noqa: F401  (the sweep passes call cli.run in-process)

        startup = {"import_s": time.perf_counter() - t0, "process_s": time.time() - args.spawned}

    out_root = Path(args.out)
    workload.spans_dir = out_root.parent
    # Set-up samples are spread over the run, so that they see the same
    # machine load as the passes; the first spawn fills the bytecode cache.
    setup: list[float] = []
    if not args.trace:
        setup_seconds()
    passes: list[dict] = []
    t_start = time.perf_counter()
    while True:
        for _ in range(2 if not args.trace and len(setup) < SETUP_SAMPLES else 0):
            setup.append(setup_seconds())
        idx = len(passes)
        traced = bool(args.trace) and idx > 0
        workdir = out_root / f"pass{idx}"
        workdir.mkdir(parents=True)
        # traced passes run without the speed probe, which would land in the spans
        with SpeedProbe(enabled=not traced, timer=workload.in_process) as speed:
            result = workload.run_pass(workdir, traced, speed)
        result["traced"] = traced
        if speed.samples:
            result["wall"], result["wall_ref"] = speed.rescale(*result["timed"])
        passes.append(result)
        shutil.rmtree(workdir)
        # stop when another pass of the same length would overrun the budget
        projected = time.perf_counter() - t_start + result["wall"]
        if (len(passes) >= 2 and projected > args.seconds) or projected > TIME_LIMIT_S:
            break
    for _ in range(2 if not args.trace else 0):
        setup.append(setup_seconds())

    check = Check()
    attempted, failed = workload.check(passes[0], check)
    # same seed, same inputs: outputs and work counts must repeat exactly
    for i, p in enumerate(passes[1:], start=1):
        check(f"pass {i} outputs identical to pass 0", p["outputs"] == passes[0]["outputs"], "")
    counted = [p for p in passes if p["summary"] is not None]
    for p in counted[:1]:
        sw, mz = p["summary"]["sweep"], p["summary"]["minimize"]
        check("every sweep record converged", sw["unconverged"] == 0, f"{sw['unconverged']} of {sw['records']}")
        check("theta_in_range on every relaxed state", mz["theta_out"] == 0, f"{mz['theta_out']} of {mz['calls']} out of range")
    for p in counted[1:]:
        check(
            "work counts repeat exactly",
            p["summary"]["counts"] == counted[0]["summary"]["counts"]
            and p["summary"]["minimize"] == counted[0]["summary"]["minimize"]
            and p["summary"]["sweep"] == counted[0]["summary"]["sweep"],
            f"{p['summary']['counts']} vs {counted[0]['summary']['counts']}",
        )

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    point_samples = [s for p in untraced for s in p["points"]]
    tail_value, tail_q = tail(point_samples)
    result = {
        "correct": check.ok,
        "attempted": attempted * len(passes),
        "failed": failed * len(passes),
        "passes": len(passes),
        "traced_passes": len(traced),
        "checks": check.results,
        "info": workload.info,
        "pass_walls": [p["wall"] for p in passes],
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "wall_ref_s": statistics.median(p["wall_ref"] for p in untraced),
        "point_p50_ms": 1e3 * statistics.median(point_samples),
        "point_samples": len(point_samples),
        "point_tail_ms": None if tail_value is None else 1e3 * tail_value,
        "point_tail_q": tail_q,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup) if setup else None,
        "setup_samples": len(setup),
    }
    if traced:
        first = traced[0]
        summary = first["summary"]
        if isinstance(workload, CliBatchWorkload):
            startup = {"import_s": summary["startup"]["import_s"] / summary["startup"]["processes"],
                       "process_s": summary["startup"]["process_s"] / summary["startup"]["processes"]}
        if "probe" in first:
            first["probe"].save_spans(str(workload.spans_dir / f"{args.workload}.spans.npz"))
        result["layers"] = layer_metrics(summary, first, untraced[0]["wall"], startup)
        tensor_calls = summary["counts"].get("tensor.reduction_residual", 0)
        result["tensor_check_ms"] = 1e3 * summary["incl_s"]["tensor.reduction_residual"] / tensor_calls if tensor_calls else None
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
