"""Command-line interface: configuration loading, CSV and SVG emission.

This is the only module with I/O side effects.  Subcommands:

* ``validate-params``  check a configuration, print derived quantities
* ``minimize``         relax a single state, optionally write a profile CSV
* ``spectrum``         Hessian spectrum at a state, write a CSV
* ``thresholds``       print the closed-form transition thresholds
* ``sweep``            temperature sweep, write the bifurcation CSV
* ``elastic-sweep``    sweep the elastic constants, write a CSV
* ``tensor-check``     verify the uniaxial reduction of the tensor energy
* ``plot``             render a CSV into a standalone SVG

Exit codes: 0 success, 1 invalid parameters or configuration, 2 solver
non-convergence, 3 I/O failure.  Data goes to files or stdout; diagnostics
go to stderr.

Each subcommand imports the solver modules it needs when it runs, so
``validate-params``, ``thresholds`` and ``plot`` never import numpy.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import re
import sys
import tempfile
from typing import TYPE_CHECKING

from . import params as params_mod
from .params import SEED_KINDS, ModelParams1D, RunConfig, format_config, parse_config

if TYPE_CHECKING:
    from .minimize import MinimizeOptions
    from .stability import StabilityReport
    from .sweep import ElasticRecord, SweepRecord

__all__ = ["run", "main", "emit_svg"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads "-10" and "-9.5" as values but "-1e1"
        # as an option; no flag here looks like a number, so all are values
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _check_output_path(path: str) -> None:
    """Reject an output path that cannot become a file, before any solve.

    Its directory must exist and the path must not be a directory.  Without
    this check a sweep relaxes every point and only then fails to write.
    """
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output path is a directory", path)


def _write_text_atomic(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, not the private 0o600 of the temporary file.  A failure to create
    the temporary file is reported against ``path``, the name the user gave.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config, "r") as fh:
            config = parse_config(fh.read())
    else:
        config = RunConfig()
    p = config.params
    if getattr(args, "T", None) is not None and getattr(args, "d", None) is not None:
        raise ValueError("give either --d or --T, not both")
    if getattr(args, "d", None) is not None:
        p = p.with_d(args.d)
    elif getattr(args, "T", None) is not None:
        p = p.at_temperature(args.T)
    kwargs = {"n_modes": config.n_modes, "tol_grad": config.tol_grad, "max_iters": config.max_iters}
    for name in ("n_modes", "tol_grad", "max_iters"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return RunConfig(params=p, **kwargs)


def _options(config: RunConfig) -> MinimizeOptions:
    from .minimize import MinimizeOptions

    return MinimizeOptions(tol_grad=config.tol_grad, max_iters=config.max_iters)


# --- CSV helpers ----------------------------------------------------------------


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _profile_csv(state, params: ModelParams1D, grid) -> str:
    from .energy1d import reconstruct_director

    theta = state.theta_values(grid)
    rho = state.rho_values(grid)
    phi, n1, n2, n3 = reconstruct_director(state, params, grid)
    rows = [
        [_fmt(z), _fmt(th), _fmt(r), _fmt(p), _fmt(a), _fmt(b), _fmt(c)]
        for z, th, r, p, a, b, c in zip(grid.nodes, theta, rho, phi, n1, n2, n3)
    ]
    return _csv_text(["z", "theta", "delta_rho", "phi", "n1", "n2", "n3"], rows)


def _spectrum_csv(report: StabilityReport) -> str:
    rows = [[str(i), _fmt(v)] for i, v in enumerate(report.eigenvalues)]
    return _csv_text(["index", "eigenvalue"], rows)


def _sweep_csv(records: list[SweepRecord]) -> str:
    rows = [
        [
            _fmt(r.T),
            _fmt(r.d),
            r.branch,
            _fmt(r.delta_rho_max),
            _fmt(r.theta_max),
            _fmt(r.energy),
            "" if r.morse_index is None else str(r.morse_index),
        ]
        for r in records
    ]
    return _csv_text(["T", "d", "branch", "delta_rho_max", "theta_max", "energy", "morse_index"], rows)


def _elastic_csv(records: list[ElasticRecord]) -> str:
    rows = [[_fmt(r.value), _fmt(r.theta_bar), _fmt(r.delta_rho_max), _fmt(r.energy)] for r in records]
    return _csv_text(["value", "theta_bar", "delta_rho_max", "energy"], rows)


# --- SVG emission ----------------------------------------------------------------

_SVG_W, _SVG_H = 640, 420
_MARGIN = 56


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Panel:
    """One cartesian panel of polyline series inside an SVG document."""

    def __init__(self, x0: float, y0: float, width: float, height: float, xlabel: str, ylabel: str):
        self.x0, self.y0, self.w, self.h = x0, y0, width, height
        self.xlabel, self.ylabel = xlabel, ylabel
        self.series: list[tuple[list[tuple[float, float]], bool]] = []

    def add(self, points: list[tuple[float, float]], dashed: bool = False) -> None:
        if points:
            self.series.append((points, dashed))

    def render(self) -> list[str]:
        pts = [p for s, _ in self.series for p in s]
        if not pts:
            return []
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        if xhi == xlo:
            xlo, xhi = xlo - 1.0, xhi + 1.0
        if yhi == ylo:
            ylo, yhi = ylo - 1.0, yhi + 1.0
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

        def sx(x: float) -> float:
            return self.x0 + (x - xlo) / (xhi - xlo) * self.w

        def sy(y: float) -> float:
            return self.y0 + self.h - (y - ylo) / (yhi - ylo) * self.h

        out = [
            f'<rect x="{self.x0:.2f}" y="{self.y0:.2f}" width="{self.w:.2f}" height="{self.h:.2f}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        ]
        for t in _nice_ticks(xlo, xhi):
            x = sx(t)
            out.append(f'<line x1="{x:.2f}" y1="{self.y0 + self.h:.2f}" x2="{x:.2f}" y2="{self.y0 + self.h + 4:.2f}" stroke="black"/>')
            out.append(f'<text x="{x:.2f}" y="{self.y0 + self.h + 16:.2f}" font-size="10" text-anchor="middle">{t:.6g}</text>')
        for t in _nice_ticks(ylo, yhi):
            y = sy(t)
            out.append(f'<line x1="{self.x0 - 4:.2f}" y1="{y:.2f}" x2="{self.x0:.2f}" y2="{y:.2f}" stroke="black"/>')
            out.append(f'<text x="{self.x0 - 6:.2f}" y="{y + 3:.2f}" font-size="10" text-anchor="end">{t:.6g}</text>')
        out.append(
            f'<text x="{self.x0 + self.w / 2:.2f}" y="{self.y0 + self.h + 32:.2f}" font-size="12" text-anchor="middle">{self.xlabel}</text>'
        )
        out.append(
            f'<text x="{self.x0 - 44:.2f}" y="{self.y0 + self.h / 2:.2f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 {self.x0 - 44:.2f} {self.y0 + self.h / 2:.2f})">{self.ylabel}</text>'
        )
        for points, dashed in self.series:
            style = ' stroke-dasharray="6 4"' if dashed else ""
            if len(points) == 1:
                x, y = points[0]
                out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="black"/>')
            else:
                coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
                out.append(f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="1.5"{style}/>')
        return out


def _svg_document(panels: list[_Panel], width: int, height: int) -> str:
    body: list[str] = []
    for panel in panels:
        body.extend(panel.render())
    content = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{content}\n</svg>\n"
    )


def _segments(points: list[tuple[float, float, bool]]) -> list[tuple[list[tuple[float, float]], bool]]:
    """Split a series into runs of equal stability so dashing can alternate."""
    runs: list[tuple[list[tuple[float, float]], bool]] = []
    current: list[tuple[float, float]] = []
    dashed = False
    for x, y, is_dashed in points:
        if current and is_dashed != dashed:
            current.append((x, y))
            runs.append((current, dashed))
            current = []
        current.append((x, y))
        dashed = is_dashed
    if current:
        runs.append((current, dashed))
    return runs


#: The CSV columns each plot kind reads; "morse_index" is optional.
_PLOT_COLUMNS = {
    "bifurcation": ("T", "branch", "delta_rho_max", "theta_max"),
    "profile": ("z", "theta", "delta_rho"),
    "elastic": ("value", "theta_bar"),
}


def emit_svg(kind: str, rows: list[dict]) -> str:
    """Render parsed CSV rows into a standalone SVG document.

    Kinds: "bifurcation" (delta_rho_max and theta_max against T, one series
    per branch, dashed where the recorded Morse index is positive),
    "profile" (theta and delta_rho against z), "elastic" (mean tilt against
    the swept constant).  Output bytes are a pure function of the input.
    """
    if not rows:
        raise ValueError("no data to plot")
    if kind not in _PLOT_COLUMNS:
        raise ValueError(f"unknown plot kind {kind!r}")
    missing = [c for c in _PLOT_COLUMNS[kind] if c not in rows[0]]
    if missing:
        raise ValueError(f"a {kind} plot needs the column(s) {', '.join(missing)}")
    if kind == "bifurcation":
        top = _Panel(_MARGIN, 20, _SVG_W - 2 * _MARGIN, 160, "", "delta_rho_max")
        bottom = _Panel(_MARGIN, 230, _SVG_W - 2 * _MARGIN, 160, "T", "theta_max")
        branches = sorted({r["branch"] for r in rows})
        for branch in branches:
            sel = [r for r in rows if r["branch"] == branch]
            sel.sort(key=lambda r: float(r["T"]))
            def unstable(r: dict) -> bool:
                return bool(r.get("morse_index")) and int(r["morse_index"]) > 0
            for seg, dashed in _segments([(float(r["T"]), float(r["delta_rho_max"]), unstable(r)) for r in sel]):
                top.add(seg, dashed)
            for seg, dashed in _segments([(float(r["T"]), float(r["theta_max"]), unstable(r)) for r in sel]):
                bottom.add(seg, dashed)
        return _svg_document([top, bottom], _SVG_W, _SVG_H)
    if kind == "profile":
        top = _Panel(_MARGIN, 20, _SVG_W - 2 * _MARGIN, 160, "", "theta")
        bottom = _Panel(_MARGIN, 230, _SVG_W - 2 * _MARGIN, 160, "z", "delta_rho")
        pts = sorted(rows, key=lambda r: float(r["z"]))
        top.add([(float(r["z"]), float(r["theta"])) for r in pts])
        bottom.add([(float(r["z"]), float(r["delta_rho"])) for r in pts])
        return _svg_document([top, bottom], _SVG_W, _SVG_H)
    panel = _Panel(_MARGIN, 20, _SVG_W - 2 * _MARGIN, 340, "elastic constant", "mean tilt")
    pts = sorted(rows, key=lambda r: float(r["value"]))
    panel.add([(float(r["value"]), float(r["theta_bar"])) for r in pts])
    return _svg_document([panel], _SVG_W, _SVG_H)


# --- subcommands ----------------------------------------------------------------


def _print_thresholds(p: ModelParams1D) -> None:
    """The closed-form layering threshold, its temperature, and t1, t2."""
    d0 = params_mod.d_critical(p)
    t1, t2 = params_mod.tilt_thresholds(p)
    print(f"d_critical = {_fmt(d0)}")
    print(f"T_critical = {_fmt(params_mod.temperature_from_d(d0, p))}")
    print(f"t1 = {_fmt(t1)}")
    print(f"t2 = {_fmt(t2)}")


def _cmd_validate_params(args: argparse.Namespace) -> int:
    config = _load_config(args)
    p = config.params
    if args.echo:
        sys.stdout.write(format_config(config))
        return 0
    _print_thresholds(p)
    if args.A is not None or args.B is not None or args.C is not None:
        if None in (args.A, args.B, args.C):
            raise ValueError("--A, --B and --C must be given together")
        s_plus = params_mod.compute_s_plus(args.A, args.B, args.C)
        print(f"s_plus = {_fmt(s_plus)}")
        if args.eta1 is not None:
            if None in (args.eta2, args.eta24):
                raise ValueError("--eta1, --eta2 and --eta24 must be given together")
            verdict = params_mod.validate_elastic_constants(args.eta1, args.eta2, args.eta24)
            if not verdict.valid:
                raise ValueError(verdict.violation)
            of = params_mod.map_to_oseen_frank(args.eta1, args.eta2, args.eta24, s_plus)
            print(f"k1 = k3 = {_fmt(of.k1)}")
            print(f"k2 = {_fmt(of.k2)}")
            print(f"k4 = {_fmt(of.k4)}")
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    if args.profile:
        _check_output_path(args.profile)
    from .minimize import minimize, seed_state
    from .spectral import default_grid

    config = _load_config(args)
    p = config.params
    state0 = seed_state(args.seed, p, config.n_modes)
    state, report = minimize(state0, p, _options(config))
    print(f"converged = {report.converged}", file=sys.stderr)
    print(f"iterations = {report.iterations}", file=sys.stderr)
    print(f"grad_norm = {_fmt(report.final_grad_norm)}", file=sys.stderr)
    print(f"theta_within_range = {state.theta_in_range()}", file=sys.stderr)
    grid = default_grid(config.n_modes, p.h)
    print(f"energy = {_fmt(report.final_energy)}")
    print(f"delta_rho_max = {_fmt(float(state.rho_values(grid).max()))}")
    print(f"theta_max = {_fmt(float(state.theta_values(grid).max()))}")
    if args.profile:
        _write_text_atomic(args.profile, _profile_csv(state, p, grid))
    if not report.converged:
        print("minimization did not reach the gradient tolerance", file=sys.stderr)
        return 2
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.out:
        _check_output_path(args.out)
    from . import stability
    from .minimize import minimize, seed_state

    config = _load_config(args)
    p = config.params
    if args.at == "cholesteric":
        state = seed_state("cholesteric", p, config.n_modes)
    else:
        state0 = seed_state(args.seed, p, config.n_modes)
        state, report = minimize(state0, p, _options(config))
        if not report.converged:
            print("minimization did not reach the gradient tolerance", file=sys.stderr)
            return 2
    report = stability.spectrum(state, p)
    text = _spectrum_csv(report)
    if args.out:
        _write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"morse_index = {report.morse_index}", file=sys.stderr)
    print(f"min_eigenvalue = {_fmt(report.min_eigenvalue)}", file=sys.stderr)
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    p = _load_config(args).params
    _print_thresholds(p)
    if args.t is not None:
        print(f"theta_star({_fmt(args.t)}) = {_fmt(params_mod.theta_star(args.t, p))}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # checked before any solve: detect_transitions would reject both only
    # after the whole sweep had run
    if args.t_end > args.t_start:
        raise ValueError("sweeps run cooling only: --t-end must not exceed --t-start")
    if not args.eps_detect > 0:
        raise ValueError(f"--eps-detect must be positive, got {args.eps_detect}")
    _check_output_path(args.out)
    from .sweep import SweepConfig, detect_transitions, sweep_temperature

    config = _load_config(args)
    sweep_config = SweepConfig(
        t_start=args.t_start,
        t_end=args.t_end,
        dt=args.dt,
        record_morse=args.record_morse,
        cold_start=args.cold_start,
        n_modes=config.n_modes,
        options=_options(config),
    )
    records = sweep_temperature(config.params, sweep_config)
    _write_text_atomic(args.out, _sweep_csv(records))
    t_chs, t_hssc = detect_transitions(records, args.eps_detect)
    print(f"T_CHS = {'absent' if t_chs is None else _fmt(t_chs)}")
    print(f"T_HSSC = {'absent' if t_hssc is None else _fmt(t_hssc)}")
    return 0


def _cmd_elastic_sweep(args: argparse.Namespace) -> int:
    _check_output_path(args.out)
    from .sweep import elastic_sweep

    config = _load_config(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("no values supplied")
    records = elastic_sweep(config.params, values, args.vary, n_modes=config.n_modes, options=_options(config))
    _write_text_atomic(args.out, _elastic_csv(records))
    return 0


def _cmd_tensor_check(args: argparse.Namespace) -> int:
    import numpy as np

    from . import tensor

    rng = np.random.default_rng(args.rng_seed)
    z = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    fields = {
        "helix": lambda zz: np.array([math.cos(args.sigma * zz), math.sin(args.sigma * zz), 0.0]),
        "uniform": lambda zz: np.array([1.0, 0.0, 0.0]),
    }
    a, b = rng.uniform(0.3, 1.2, size=2)

    def random_field(zz: float) -> np.ndarray:
        v = np.array([math.cos(a * zz), math.sin(a * zz) * math.cos(b * zz), math.sin(a * zz) * math.sin(b * zz)])
        return v / np.linalg.norm(v)

    fields["random-smooth"] = random_field
    expected = tensor.uniaxial_reduction_offset(args.s_plus, args.eta1, args.sigma)
    ok = True
    for name, field in fields.items():
        res = tensor.reduction_residual(
            z, field, args.s_plus, args.eta1, args.eta2, args.eta24, args.sigma
        )
        spread = float(np.ptp(res))
        mean = float(np.mean(res))
        rel = abs(mean - expected) / max(abs(expected), 1e-30)
        line_ok = spread < args.tol and rel < 0.01 if expected != 0 else spread < args.tol
        ok = ok and line_ok
        print(
            f"{name}: mean residual = {_fmt(mean)} (expected {_fmt(expected)}), spread = {spread:.3e}"
            f" -> {'ok' if line_ok else 'FAIL'}",
        )
    if not ok:
        print("uniaxial reduction check failed", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    _check_output_path(args.out)
    with open(args.data, "r", newline="") as fh:
        rows = list(csv.DictReader(fh, restval=""))
    try:
        svg = emit_svg(args.kind, rows)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    _write_text_atomic(args.out, svg)
    return 0


# --- parser wiring ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="configuration file (key = value lines)")
    sub.add_argument("--d", type=float, default=None, help="override the smectic bulk coefficient d")
    sub.add_argument("--T", type=float, default=None, help="set d from the temperature map")
    sub.add_argument("--n-modes", dest="n_modes", type=int, default=None, help="truncation order N")
    sub.add_argument("--tol-grad", dest="tol_grad", type=float, default=None)
    sub.add_argument("--max-iters", dest="max_iters", type=int, default=None)


def _parser() -> _Parser:
    parser = _Parser(prog="smectic1d", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("validate-params", help="validate a configuration and print derived quantities")
    _add_common(sp)
    sp.add_argument("--echo", action="store_true", help="print the parsed configuration and exit")
    for flag in ("A", "B", "C", "eta1", "eta2", "eta24"):
        sp.add_argument(f"--{flag}", type=float, default=None, help="tensor-model constant (optional)")
    sp.set_defaults(func=_cmd_validate_params)

    sp = subs.add_parser("minimize", help="relax a single state")
    _add_common(sp)
    sp.add_argument("--seed", choices=SEED_KINDS, default="smectic-seed")
    sp.add_argument("--profile", help="write the relaxed profile CSV here")
    sp.set_defaults(func=_cmd_minimize)

    sp = subs.add_parser("spectrum", help="Hessian spectrum at a state")
    _add_common(sp)
    sp.add_argument("--at", choices=("cholesteric", "minimizer"), default="cholesteric")
    sp.add_argument("--seed", choices=SEED_KINDS, default="smectic-seed", help="seed when --at minimizer")
    sp.add_argument("--out", help="spectrum CSV path (stdout when omitted)")
    sp.set_defaults(func=_cmd_spectrum)

    sp = subs.add_parser("thresholds", help="closed-form transition thresholds")
    _add_common(sp)
    sp.add_argument("--t", type=float, default=None, help="layer amplitude at which to report theta_star")
    sp.set_defaults(func=_cmd_thresholds)

    sp = subs.add_parser("sweep", help="temperature sweep")
    _add_common(sp)
    sp.add_argument("--t-start", dest="t_start", type=float, required=True)
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--eps-detect", dest="eps_detect", type=float, default=1e-3)
    sp.add_argument("--record-morse", dest="record_morse", action="store_true")
    sp.add_argument("--cold-start", dest="cold_start", action="store_true")
    sp.set_defaults(func=_cmd_sweep)

    sp = subs.add_parser("elastic-sweep", help="sweep the elastic constants at fixed d")
    _add_common(sp)
    sp.add_argument("--vary", choices=("k", "lambda"), required=True)
    sp.add_argument("--values", required=True, help="comma-separated constant values")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_elastic_sweep)

    sp = subs.add_parser("tensor-check", help="verify the uniaxial reduction of the tensor elastic energy")
    sp.add_argument("--eta1", type=float, default=1.0)
    sp.add_argument("--eta2", type=float, default=1.0)
    sp.add_argument("--eta24", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=2.0)
    sp.add_argument("--s-plus", dest="s_plus", type=float, default=1.5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=2024)
    sp.set_defaults(func=_cmd_tensor_check)

    sp = subs.add_parser("plot", help="render a CSV into an SVG")
    sp.add_argument("--kind", choices=tuple(_PLOT_COLUMNS), required=True)
    sp.add_argument("--data", required=True, help="input CSV")
    sp.add_argument("--out", required=True, help="output SVG")
    sp.set_defaults(func=_cmd_plot)
    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse argv, dispatch, map errors to exit codes."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        from .minimize import DivergenceError  # not up front: only solver code raises these
        from .sweep import SweepError

        if not isinstance(exc, (DivergenceError, SweepError)):
            raise
        print(f"{'solver' if isinstance(exc, DivergenceError) else 'sweep'} error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
