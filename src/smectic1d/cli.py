"""Command-line interface: configuration loading, CSV and SVG emission.

This is the only module with I/O side effects.  Subcommands:

* ``validate-params``  check a configuration, print derived quantities
* ``minimize``         relax a single state, optionally write a profile CSV
* ``spectrum``         Hessian spectrum at a relaxed state, write a CSV
* ``thresholds``       print the closed-form transition thresholds
* ``sweep``            temperature sweep, write the bifurcation CSV
* ``elastic-sweep``    sweep the elastic constants, write a CSV
* ``tensor-check``     verify the uniaxial reduction of the tensor energy on sampled fields
* ``plot``             render a CSV into a standalone SVG

Exit codes: 0 success, 1 invalid parameters or configuration, 2 solver
failure or an allocation numpy refuses, 3 I/O failure.  Data goes to files
or stdout; diagnostics go to stderr.  ``plot`` draws finite values only.

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
from dataclasses import replace

from . import params as params_mod
from .params import SEED_KINDS, ModelParams1D, RunConfig, SolverError, format_config, parse_config

__all__ = ["run", "main", "emit_svg"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: "sweep --d -7" would set --dt
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # argparse's own pattern reads "-10" and "-9.5" as values but "-1e1"
        # and "-inf" as options; no flag here looks like a number, so all of
        # these are values, and the non-finite ones reach the finite checks
        self._negative_number_matcher = re.compile(
            r"-((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:inf|infinity|nan))$"
        )

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValueError(message)


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
    """The run configuration: the ``--config`` file or the defaults, then the flags of ``_add_config``."""
    if args.config:
        with open(args.config, "r") as fh:
            config = parse_config(fh.read())
    else:
        config = RunConfig()
    p = config.params
    d, T, n_modes = (getattr(args, name, None) for name in ("d", "T", "n_modes"))
    if T is not None and d is not None:
        raise ValueError("give either --d or --T, not both")
    if d is not None:
        p = p.with_d(d)
    elif T is not None:
        p = p.at_temperature(T)
    return replace(config, params=p, n_modes=config.n_modes if n_modes is None else n_modes)


# --- CSV and SVG output ------------------------------------------------------------


def _csv_text(header: list[str], columns: list) -> str:
    """CSV text of equal-length columns: a float to 17 digits, an int with ``str``, None empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # the csv module writes None as empty and any other non-string with str
    writer.writerows([_fmt(c) if isinstance(c, float) else c for c in row] for row in zip(*columns, strict=True))
    return buf.getvalue()


_SVG_W, _SVG_H = 640, 420
_MARGIN = 56
#: (top, height) of each panel, by the number of panels of a plot
_PANEL_BOXES = {1: ((20, 340),), 2: ((20, 160), (230, 160))}

#: Each plot kind: its x column and x label, the column whose values split
#: the rows into series (or None), and a (column, label) pair per panel from
#: top to bottom.  A "morse_index" column, where present, dashes the runs
#: with a positive index.
_PLOTS = {
    "bifurcation": ("T", "T", "branch", (("delta_rho_max", "delta_rho_max"), ("theta_max", "theta_max"))),
    "profile": ("z", "z", None, (("theta", "theta"), ("delta_rho", "delta_rho"))),
    "elastic": ("value", "elastic constant", None, (("theta_bar", "mean tilt"),)),
}


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values from lo to hi, a bounded list; the span hi - lo must be positive and finite."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw)) if raw else 0.0
    if not mag:  # a span of one or two subnormals has no decade to round to
        return [lo, hi]
    step = next((mult * mag for mult in (1.0, 2.0, 5.0) if raw <= mult * mag), 10.0 * mag)
    # a tick may pass hi by rounding, never by half a step and never to inf
    limit = min(hi + min(1e-12 * max(1.0, abs(hi)), step / 2), sys.float_info.max)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= limit:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # the step is below the spacing of the floats at t
            break
        t += step
    return ticks


def _axis(column: str, values: list[float], pad: float) -> tuple[float, float]:
    """The drawn range of a column: its extent, widened by 1 each way when flat, then padded by ``pad`` of it.

    Raises ValueError, naming the column, on a non-finite value and on a
    range whose width is not a positive finite number.
    """
    bad = next((v for v in values if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"column {column} holds the non-finite value {bad}")
    vmin, vmax = min(values), max(values)
    lo, hi = (vmin - 1.0, vmax + 1.0) if vmax == vmin else (vmin, vmax)
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"column {column} runs from {vmin} to {vmax}, a range that cannot be drawn")
    return lo, hi


def _panel(
    top: float, height: float, xaxis: tuple[float, float], yaxis: tuple[float, float], xlabel: str, ylabel: str,
    series: list[tuple[list[tuple[float, float]], bool]],
) -> list[str]:
    """SVG elements of one cartesian panel: frame, ticks, labels and a polyline (or marker) per series."""
    x0, w = _MARGIN, _SVG_W - 2 * _MARGIN
    xlo, xhi = xaxis
    ylo, yhi = yaxis

    def sx(x: float) -> float:
        return x0 + (x - xlo) / (xhi - xlo) * w

    def sy(y: float) -> float:
        return top + height - (y - ylo) / (yhi - ylo) * height

    out = [
        f'<rect x="{x0:.2f}" y="{top:.2f}" width="{w:.2f}" height="{height:.2f}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    ]
    for t in _nice_ticks(xlo, xhi):
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{top + height:.2f}" x2="{x:.2f}" y2="{top + height + 4:.2f}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{top + height + 16:.2f}" font-size="10" text-anchor="middle">{t:.6g}</text>')
    for t in _nice_ticks(ylo, yhi):
        y = sy(t)
        out.append(f'<line x1="{x0 - 4:.2f}" y1="{y:.2f}" x2="{x0:.2f}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 6:.2f}" y="{y + 3:.2f}" font-size="10" text-anchor="end">{t:.6g}</text>')
    out.append(
        f'<text x="{x0 + w / 2:.2f}" y="{top + height + 32:.2f}" font-size="12" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="{x0 - 44:.2f}" y="{top + height / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 {x0 - 44:.2f} {top + height / 2:.2f})">{ylabel}</text>'
    )
    for points, dashed in series:
        style = ' stroke-dasharray="6 4"' if dashed else ""
        if len(points) == 1:
            x, y = points[0]
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="black"/>')
        else:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
            out.append(f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="1.5"{style}/>')
    return out


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


def emit_svg(kind: str, rows: list[dict]) -> str:
    """Render parsed CSV rows into a standalone SVG document.

    Kinds: "bifurcation" (delta_rho_max and theta_max against T, one series
    per branch), "profile" (theta and delta_rho against z), "elastic" (mean
    tilt against the swept constant).  Runs whose Morse index is positive
    are dashed.  Every value drawn must be finite, and so must the width of
    each axis.  Output bytes are a pure function of the input.
    """
    if not rows:
        raise ValueError("no data to plot")
    if kind not in _PLOTS:
        raise ValueError(f"unknown plot kind {kind!r}")
    x, xlabel, group, panels = _PLOTS[kind]
    missing = [c for c in (x, group, *(c for c, _ in panels)) if c is not None and c not in rows[0]]
    if missing:
        raise ValueError(f"a {kind} plot needs the column(s) {', '.join(missing)}")

    def cell(i: int, c: str, kind: type) -> float:
        try:
            return kind(rows[i][c])
        except ValueError:
            raise ValueError(f"column {c}, data row {i + 1}: {kind.__name__} expected, got {rows[i][c]!r}") from None

    values = {c: [cell(i, c, float) for i in range(len(rows))] for c in (x, *(c for c, _ in panels))}
    xs = values[x]
    dashed = [bool(r.get("morse_index")) and cell(i, "morse_index", int) > 0 for i, r in enumerate(rows)]
    order = sorted(range(len(rows)), key=xs.__getitem__)  # stable: ties keep their file order
    keys = sorted({r[group] for r in rows}) if group else [None]
    runs = [[i for i in order if key is None or rows[i][group] == key] for key in keys]
    xaxis = _axis(x, xs, 0.0)
    body: list[str] = []
    for k, ((column, label), (top, height)) in enumerate(zip(panels, _PANEL_BOXES[len(panels)], strict=True)):
        ys = values[column]
        series = [seg for run in runs for seg in _segments([(xs[i], ys[i], dashed[i]) for i in run])]
        body += _panel(top, height, xaxis, _axis(column, ys, 0.05), xlabel if k == len(panels) - 1 else "", label, series)
    content = "\n".join(body)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">\n<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
        f"{content}\n</svg>\n"
    )


# --- subcommands ----------------------------------------------------------------


def _print_thresholds(p: ModelParams1D) -> None:
    """The closed-form layering threshold, its temperature, and t1, t2."""
    d0 = params_mod.d_critical(p)
    t1, t2 = params_mod.tilt_thresholds(p)
    print(f"d_critical = {_fmt(d0)}")
    print(f"T_critical = {_fmt(params_mod.temperature_from_d(d0, p))}")
    print(f"t1 = {_fmt(t1)}")
    print(f"t2 = {_fmt(t2)}")


def _cmd_validate_params(args: argparse.Namespace) -> None:
    config = _load_config(args)
    abc, etas = (args.A, args.B, args.C), (args.eta1, args.eta2, args.eta24)
    if None in abc and abc != (None,) * 3:
        raise ValueError("--A, --B and --C must be given together")
    if None in etas and etas != (None,) * 3:
        raise ValueError("--eta1, --eta2 and --eta24 must be given together")
    if args.eta1 is not None:
        if args.A is None:
            raise ValueError("--eta1, --eta2 and --eta24 need --A, --B and --C")
        params_mod.validate_elastic_constants(*etas)
    s_plus = None if args.A is None else params_mod.compute_s_plus(*abc)
    of = None if args.eta1 is None else params_mod.map_to_oseen_frank(*etas, s_plus)
    if args.echo:
        sys.stdout.write(format_config(config))
        return
    _print_thresholds(config.params)
    if s_plus is not None:
        print(f"s_plus = {_fmt(s_plus)}")
    if of is not None:
        print(f"k1 = k3 = {_fmt(of.k1)}")
        print(f"k2 = {_fmt(of.k2)}")
        print(f"k4 = {_fmt(of.k4)}")


def _cmd_minimize(args: argparse.Namespace) -> None:
    if args.profile:
        _check_output_path(args.profile)
    from .minimize import minimize, seed_state

    config = _load_config(args)
    p = config.params
    state0 = seed_state(args.seed, p, config.n_modes)
    state, report = minimize(state0, p)
    print(f"converged = {report.converged}", file=sys.stderr)
    print(f"iterations = {report.iterations}", file=sys.stderr)
    print(f"grad_norm = {_fmt(report.final_grad_norm)}", file=sys.stderr)
    print(f"theta_within_range = {state.theta_in_range()}", file=sys.stderr)
    theta, rho = state.theta_values(), state.rho_values()
    print(f"energy = {_fmt(report.final_energy)}")
    print(f"delta_rho_max = {_fmt(float(rho.max()))}")
    print(f"theta_max = {_fmt(float(theta.max()))}")
    if args.profile:
        from .energy1d import reconstruct_director
        from .spectral import default_grid

        columns = [default_grid(state.n, p.h).nodes, theta, rho, *reconstruct_director(theta, p)]
        _write_text_atomic(args.profile, _csv_text(["z", "theta", "delta_rho", "phi", "n1", "n2", "n3"], columns))
    if not report.converged:
        raise SolverError("minimization did not reach the gradient tolerance")


def _cmd_spectrum(args: argparse.Namespace) -> None:
    if args.out:
        _check_output_path(args.out)
    from . import stability
    from .minimize import minimize, seed_state

    config = _load_config(args)
    p = config.params
    # the cholesteric seed is a critical point, so it relaxes in 0 iterations, bit for bit
    state, relaxed = minimize(seed_state(args.seed, p, config.n_modes), p)
    if not relaxed.converged:
        raise SolverError("minimization did not reach the gradient tolerance")
    report = stability.spectrum(state, p)
    text = _csv_text(["index", "eigenvalue"], [range(len(report.eigenvalues)), report.eigenvalues])
    if args.out:
        _write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"morse_index = {report.morse_index}", file=sys.stderr)
    print(f"min_eigenvalue = {_fmt(report.min_eigenvalue)}", file=sys.stderr)


def _cmd_thresholds(args: argparse.Namespace) -> None:
    p = _load_config(args).params
    # computed first, so that a bad --t exits before any line is printed
    star = None if args.t is None else params_mod.theta_star(args.t, p)
    _print_thresholds(p)
    if star is not None:
        print(f"theta_star({_fmt(args.t)}) = {_fmt(star)}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .sweep import cooling_grid, detect_transitions, sweep_temperature

    temperatures = cooling_grid(args.t_start, args.t_end, args.dt)
    _check_output_path(args.out)
    config = _load_config(args)
    records = sweep_temperature(config, temperatures, record_morse=args.record_morse, cold_start=args.cold_start)
    header = ["T", "d", "branch", "delta_rho_max", "theta_max", "energy", "morse_index"]
    _write_text_atomic(args.out, _csv_text(header, [[getattr(r, c) for r in records] for c in header]))
    t_chs, t_hssc = detect_transitions(records)
    print(f"T_CHS = {'absent' if t_chs is None else _fmt(t_chs)}")
    print(f"T_HSSC = {'absent' if t_hssc is None else _fmt(t_hssc)}")


def _cmd_elastic_sweep(args: argparse.Namespace) -> None:
    _check_output_path(args.out)
    from .sweep import elastic_sweep

    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    if not values:
        raise ValueError("no values supplied")
    records = elastic_sweep(config, values, args.vary)
    header = ["value", "theta_bar", "delta_rho_max", "energy"]
    _write_text_atomic(args.out, _csv_text(header, [[getattr(r, c) for r in records] for c in header]))


def _cmd_tensor_check(args: argparse.Namespace) -> None:
    for name in ("eta1", "eta2", "eta24", "sigma", "s_plus"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.rng_seed < 0:
        raise ValueError(f"--rng-seed must be nonnegative, got {args.rng_seed}")
    import numpy as np

    from . import tensor

    rng = np.random.default_rng(args.rng_seed)
    z = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    a, b = rng.uniform(0.3, 1.2, size=2)
    fields = {
        "helix": tensor.unit_field(z, args.sigma, 0.0),
        "uniform": tensor.unit_field(z, 0.0, 0.0),
        "random-smooth": tensor.unit_field(z, a, b),
    }
    expected = tensor.uniaxial_reduction_offset(args.s_plus, args.eta1, args.sigma)
    # the derivatives are exact, so both bounds are the rounding of the densities,
    # which scale as s_plus^2 max|eta| k^2 for field wavenumbers k up to |sigma| + 2
    eta = max(abs(args.eta1), abs(args.eta2), abs(args.eta24))
    tol = 1e-12 * args.s_plus**2 * eta * (abs(args.sigma) + 2.0) ** 2
    ok = True
    for name, (n, dn_dz) in fields.items():
        res = tensor.reduction_residual(n, dn_dz, args.s_plus, args.eta1, args.eta2, args.eta24, args.sigma)
        spread = float(np.ptp(res))
        mean = float(np.mean(res))
        line_ok = spread <= tol and abs(mean - expected) <= tol
        ok = ok and line_ok
        print(
            f"{name}: mean residual = {_fmt(mean)} (expected {_fmt(expected)}), spread = {spread:.3e}"
            f" -> {'ok' if line_ok else 'FAIL'}",
        )
    if not ok:
        raise ValueError("uniaxial reduction check failed")


def _cmd_plot(args: argparse.Namespace) -> None:
    _check_output_path(args.out)
    with open(args.data, "r", newline="") as fh:
        rows = list(csv.DictReader(fh, restval=""))
    try:
        svg = emit_svg(args.kind, rows)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    _write_text_atomic(args.out, svg)


# --- parser wiring ----------------------------------------------------------------


def _add_config(sub: argparse.ArgumentParser, *, n_modes: bool = True, d: bool = True) -> None:
    sub.add_argument("--config", help="configuration file (key = value lines)")
    if n_modes:
        sub.add_argument("--n-modes", dest="n_modes", type=int, default=None, help="truncation order N")
    if d:
        sub.add_argument("--d", type=float, default=None, help="override the smectic bulk coefficient d")
        sub.add_argument("--T", type=float, default=None, help="set d from the temperature map")


def _parser() -> _Parser:
    parser = _Parser(prog="smectic1d", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("validate-params", help="validate a configuration and print derived quantities")
    _add_config(sp)
    sp.add_argument("--echo", action="store_true", help="print the parsed configuration and exit")
    for flag in ("A", "B", "C", "eta1", "eta2", "eta24"):
        sp.add_argument(f"--{flag}", type=float, default=None, help="tensor-model constant (optional)")
    sp.set_defaults(func=_cmd_validate_params)

    sp = subs.add_parser("minimize", help="relax a single state")
    _add_config(sp)
    sp.add_argument("--seed", choices=SEED_KINDS, default="smectic-seed")
    sp.add_argument("--profile", help="write the relaxed profile CSV here")
    sp.set_defaults(func=_cmd_minimize)

    sp = subs.add_parser("spectrum", help="Hessian spectrum at a relaxed state")
    _add_config(sp)
    sp.add_argument("--seed", choices=SEED_KINDS, default="cholesteric", help="the seed relaxed first (%(default)s)")
    sp.add_argument("--out", help="spectrum CSV path (stdout when omitted)")
    sp.set_defaults(func=_cmd_spectrum)

    sp = subs.add_parser("thresholds", help="closed-form transition thresholds")
    _add_config(sp, n_modes=False, d=False)
    sp.add_argument("--t", type=float, default=None, help="layer amplitude at which to report theta_star")
    sp.set_defaults(func=_cmd_thresholds)

    sp = subs.add_parser("sweep", help="temperature sweep")
    _add_config(sp, d=False)
    sp.add_argument("--t-start", dest="t_start", type=float, required=True)
    sp.add_argument("--t-end", dest="t_end", type=float, required=True)
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--record-morse", dest="record_morse", action="store_true")
    sp.add_argument("--cold-start", dest="cold_start", action="store_true")
    sp.set_defaults(func=_cmd_sweep)

    sp = subs.add_parser("elastic-sweep", help="sweep the elastic constants at fixed d")
    _add_config(sp)
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
    sp.add_argument("--rng-seed", dest="rng_seed", type=int, default=2024)
    sp.set_defaults(func=_cmd_tensor_check)

    sp = subs.add_parser("plot", help="render a CSV into an SVG")
    sp.add_argument("--kind", choices=tuple(_PLOTS), required=True)
    sp.add_argument("--data", required=True, help="input CSV")
    sp.add_argument("--out", required=True, help="output SVG")
    sp.set_defaults(func=_cmd_plot)
    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse argv, dispatch, map errors to exit codes."""
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array numpy cannot allocate, such as a trig table on a machine short of memory
        print(f"solver error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
