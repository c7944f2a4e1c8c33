"""Layered benchmark of smectic1d.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Runs the workload in a fresh
worker interpreter (worker.py) limited to nproc threads, BLAS included, and
waits for it.  Prints checks, the environment and every metric by name
with its unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  Exits non-zero without a result when
the checkout has no smectic1d sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fig3_morse", "tilt_onset", "cli_batch")
DEADLINE_S = 175.0
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def thread_limit() -> int:
    return min(len(os.sched_getaffinity(0)), os.cpu_count() or 1)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args: argparse.Namespace, env: dict[str, str], out: Path, budget: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--spawned", repr(time.time()), "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {budget:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def fmt(value: float) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "smectic1d" / "__init__.py").is_file():
        print(f"error: no smectic1d sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    t_begin = time.perf_counter()
    threads = thread_limit()
    env = child_env(threads)
    out = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        res = run_worker(args, env, out, DEADLINE_S - (time.perf_counter() - t_begin))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    env_info = dict(res["env"], nproc=os.cpu_count(), threads=threads, python=platform.python_version())
    print(f"env: {json.dumps(env_info, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} passes={res['passes']} traced_passes={res['traced_passes']}")
    print(f"pass wall times (s): {[round(w, 4) for w in res['pass_walls']]}")
    for name, ok, detail in res["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    for line in res["info"]:
        print(f"info: {line}")
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac!r} ratio (failed {res['failed']} of {res['attempted']} attempted)")

    if args.trace:
        metrics = {}
        for name, (value, unit) in res["layers"].items():
            print(f"{name} = {fmt(value)} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        # tensor.reduction_residual runs only on cli_batch, so this figure stays out of the JSON
        tensor_ms = res["tensor_check_ms"]
        print(f"tensor.check_ms = {'n/a' if tensor_ms is None else fmt(tensor_ms)} ms")
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name} = {fmt(m['value'])} {m['unit']}")
        print(f"setup_s samples = {res['setup_samples']}")
        # Printed, not gated: raw time follows the machine's speed, which
        # changes by up to 1.6x over minutes on a shared machine.
        print(f"wall_s = {fmt(res['wall_s'])} s (raw median pass time; wall_ref_s rescales it to the reference speed)")
        # Printed, not gated: on tilt_onset a run has only 12 points, too few
        # for a tail and too few for a steady median.
        print(f"point_p50_ms = {fmt(res['point_p50_ms'])} ms ({res['point_samples']} samples)")
        if res["point_tail_ms"] is None:
            print(f"point_tail_ms = n/a ms (only {res['point_samples']} point samples: fewer than 10 beyond p75)")
        else:
            print(f"point_tail_ms = {fmt(res['point_tail_ms'])} ms (p{res['point_tail_q']} of {res['point_samples']} samples)")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
