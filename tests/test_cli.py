import argparse
import csv
import hashlib
import importlib
import math
import os
import subprocess
import sys

import pytest

import smectic1d
from smectic1d import cli
from smectic1d.cli import emit_svg, run


def _write_fig3_config(tmp_path, **overrides):
    lines = {
        "k1": 0.025, "k2": 0.025, "k3": 0.025, "sigma": 4.0, "q": 4.0,
        "h": 2.0 * math.pi, "d": -0.5, "f": 10.0,
        "lambda1": 0.001, "lambda2": 0.001, "theta0": math.pi / 9,
        "alpha2": 1.0, "T2star": -10.0, "N": 64,
    }
    lines.update(overrides)
    path = tmp_path / "fig3.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in lines.items()))
    return str(path)


class TestValidateParams:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("k2 = 0.025\n\nk1 = -1\n", "config line 3: k1 must be positive and finite, got -1.0"),
            ("q = 3.5\nk1 = 0.025\nh = 6.283185307179586\n",
             "config lines 1 and 3: incommensurate layer wavenumber: q*h/(2*pi) = 3.5 is not a positive integer"),
            ("# q only\nq = 3.5\n",
             "config line 2: incommensurate layer wavenumber: q*h/(2*pi) = 3.5 is not a positive integer"),
            ("N = 15\n", "config line 1: N must be an even integer from 2 to 2000, got 15"),
            ("k1 = 0.025\nN 64\n", "config line 2: expected 'key = value', got 'N 64'"),
        ],
        ids=["one-key", "q-and-h", "q-only", "N", "no-equals-sign"],
    )
    def test_rejected_config_value_names_its_line(self, tmp_path, capsys, text, message):
        # used to print the flag's message, without the line
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["validate-params", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_prints_derived_quantities(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["validate-params", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "d_critical = -0.3992208" in out
        assert "t1 = 0.940609" in out
        assert "t2 = 1.330222" in out

    def test_s_plus_with_ldg_constants(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        code = run(["validate-params", "--config", cfg, "--A", "-1", "--B", "1", "--C", "1"])
        assert code == 0
        assert "s_plus = 1.5" in capsys.readouterr().out

    def test_oseen_frank_map_with_etas(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        code = run(["validate-params", "--config", cfg, "--A", "-1", "--B", "1", "--C", "1",
                    "--eta1", "1", "--eta2", "1", "--eta24", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k2 = 2.25" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            # the eta flags used to be read only with --A --B --C and --eta1,
            # so the first three exited 0 without a word about them; the
            # rest printed the thresholds before the error
            (["--eta1", "1", "--eta2", "1", "--eta24", "5"], "--eta1, --eta2 and --eta24 need --A, --B and --C"),
            (["--A", "-1", "--B", "1", "--C", "1", "--eta2", "1"], "--eta1, --eta2 and --eta24 must be given together"),
            (["--eta24", "0.5"], "--eta1, --eta2 and --eta24 must be given together"),
            (["--A", "-1", "--B", "1", "--C", "1", "--eta1", "1", "--eta2", "1", "--eta24", "5"],
             "eta24 < 3*eta1 violated (eta24 = 5.0, 3*eta1 = 3.0)"),
            (["--A", "-1", "--B", "1", "--C", "1", "--eta1", "1", "--eta2", "0.2", "--eta24", "0.5"],
             "k1 >= k2 violated (k1 = 1.3499999999999999, k2 = 2.25)"),
            (["--A", "-1", "--C", "1"], "--A, --B and --C must be given together"),
            (["--A", "1", "--B", "1", "--C", "1"],
             "negative discriminant B^2 - 24*A*C = -23.0: no real uniaxial minimizer"),
        ],
        ids=["etas-without-ABC", "eta2-alone-with-ABC", "eta24-alone", "invalid-etas", "director-chain", "partial-ABC",
             "no-uniaxial-minimizer"],
    )
    def test_incomplete_or_invalid_tensor_flags_exit_1(self, tmp_path, capsys, flags, message):
        cfg = _write_fig3_config(tmp_path)
        assert run(["validate-params", "--config", cfg, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--A", "1"], "--A, --B and --C must be given together"),
            (["--A", "-1", "--B", "1", "--C", "-1"], "C must be positive, got -1.0"),
        ],
        ids=["partial-ABC", "negative-C"],
    )
    def test_echo_checks_the_tensor_flags(self, capsys, flags, message):
        # --echo used to print the configuration and exit 0 before any flag check
        assert run(["validate-params", "--echo", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_echo_round_trips(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["validate-params", "--config", cfg, "--echo"]) == 0
        echoed = capsys.readouterr().out
        cfg2 = tmp_path / "echo.cfg"
        cfg2.write_text(echoed)
        assert run(["validate-params", "--config", str(cfg2), "--echo"]) == 0
        assert capsys.readouterr().out == echoed

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("zeta = 1.0\n")
        assert run(["validate-params", "--config", str(path)]) == 1
        # the reduced model has no cubic coefficient, so e is no key either
        path.write_text("d = -0.5\ne = 0.05\n")
        capsys.readouterr()
        assert run(["validate-params", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config line 2: unknown key 'e'\n"

    @pytest.mark.parametrize("value", ["-inf", "-NaN", "inf"])
    def test_non_finite_value_exits_1_naming_it(self, capsys, value):
        assert run(["validate-params", "--d", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: d must be finite, got {float(value)}\n"

    def test_unknown_flag_exits_1(self):
        assert run(["validate-params", "--bogus"]) == 1

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["validate-params", "--config", str(tmp_path / "missing.cfg")]) == 3


class TestUnreadSettings:
    """A subcommand takes only the flags it reads, and the solver's stopping rule is no setting."""

    #: The required flags of each subcommand, so that an extra flag is the only error.
    REQUIRED = {
        "validate-params": [],
        "minimize": [],
        "spectrum": [],
        "thresholds": [],
        "sweep": ["--t-start", "-10", "--t-end", "-10", "--dt", "1", "--out", "s.csv"],
        "elastic-sweep": ["--vary", "k", "--values", "0.025", "--out", "k.csv"],
        "tensor-check": [],
        "plot": ["--kind", "profile", "--data", "p.csv", "--out", "p.svg"],
    }
    # the thresholds depend on neither d nor N, and a sweep sets d from each T;
    # these flags were taken and ignored
    CASES = [(c, f) for c in REQUIRED for f in (["--tol-grad", "1e-8"], ["--max-iters", "3"])] + [
        ("thresholds", ["--d", "-3"]), ("thresholds", ["--T", "-3"]), ("thresholds", ["--n-modes", "8"]),
        ("sweep", ["--d", "-7"]), ("sweep", ["--T", "-3"]),
    ]

    def test_every_subcommand_is_covered(self):
        subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(self.REQUIRED)

    @pytest.mark.parametrize("command, flag", CASES, ids=[f"{c}{f[0]}" for c, f in CASES])
    def test_unread_flag_exits_1(self, capsys, command, flag):
        assert run([command, *self.REQUIRED[command], *flag]) == 1
        assert capsys.readouterr() == ("", f"error: unrecognized arguments: {' '.join(flag)}\n")

    @pytest.mark.parametrize("key, value", [("tol_grad", "1e-8"), ("max_iters", "1000000")])
    def test_solver_setting_is_not_a_config_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"N = 16\n{key} = {value}\n")
        assert run(["validate-params", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: config line 2: unknown key '{key}'\n")


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "smectic1d", "validate-params"], capture_output=True, text=True, timeout=60,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "d_critical = " in proc.stdout

    #: A child that runs the CLI's minimize with the step cap lowered to 1.
    CAPPED_MINIMIZE = (
        "import importlib, sys\n"
        "importlib.import_module('smectic1d.minimize').MAX_ITERS = 1\n"
        "from smectic1d.cli import run\n"
        "sys.exit(run(['minimize']))\n"
    )

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["-m", "smectic1d", "validate-params", "--config", "bad.cfg"], 1,
             "error: config line 1: k1 must be positive and finite, got -1.0"),
            (["-m", "smectic1d", "sweep", "--t-start", "-10", "--t-end", "-9", "--dt", "0.1", "--out", "s.csv"], 1,
             "error: sweeps run cooling only: t_end = -9.0 must not exceed t_start = -10.0"),
            (["-c", CAPPED_MINIMIZE], 2, "solver error: minimization did not reach the gradient tolerance"),
            (["-m", "smectic1d", "spectrum", "--d", "1e308", "--n-modes", "4"], 2,
             "solver error: eigenvalue solve failed: Eigenvalues did not converge"),
            (["-m", "smectic1d", "minimize", "--profile", "missing/p.csv"], 3,
             "i/o error: [Errno 2] output directory does not exist: 'missing/p.csv'"),
        ],
        ids=["config-line", "cooling-grid", "max-iters", "eigensolve", "missing-directory"],
    )
    def test_each_failure_exits_with_its_code(self, tmp_path, child_env, argv, code, message):
        # a failed eigensolve used to end in a RuntimeError traceback
        (tmp_path / "bad.cfg").write_text("k1 = -1\n")
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, timeout=60, cwd=tmp_path, env=child_env,
        )
        assert proc.returncode == code
        assert proc.stderr.splitlines()[-1] == message
        assert "Traceback" not in proc.stderr

    def test_spectrum_overflow_prints_only_the_solver_error(self, child_env):
        # the FD Hessian overflows at d = 1e308; three numpy RuntimeWarnings
        # used to come before the solver error line
        proc = subprocess.run(
            [sys.executable, "-m", "smectic1d", "spectrum", "--d", "1e308", "--n-modes", "4"], capture_output=True,
            text=True, timeout=60, env=child_env,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("solver error: ")

    NUMPY_FREE = {
        "validate-params": ["validate-params"],
        "thresholds": ["thresholds", "--t", "2"],
        "plot": ["plot", "--kind", "profile", "--data", "p.csv", "--out", "p.svg"],
    }

    @pytest.mark.parametrize("command", sorted(NUMPY_FREE))
    def test_command_runs_without_numpy(self, tmp_path, child_env, command):
        (tmp_path / "p.csv").write_text("z,theta,delta_rho\n0,0.1,0.2\n1,0.3,0.4\n")
        child = (
            "import sys\nfrom smectic1d.cli import run\ncode = run(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m == 'numpy' or m.startswith('smectic1d.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, *self.NUMPY_FREE[command]], capture_output=True, text=True, timeout=60,
            cwd=tmp_path, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        # no numpy, and no smectic1d module beyond the CLI and the parameters
        assert proc.stdout.splitlines()[-1] == "0 ['smectic1d.cli', 'smectic1d.params']"


class TestBatchOutputsUnchanged:
    """A session of fresh ``python -m smectic1d`` processes, as in the benchmark's cli_batch.

    The digests pin every output byte for byte.  They were recorded on
    Python 3.11.7 with numpy 2.4.6 on x86-64 Linux; the solver outputs may
    differ in their last digits under another numpy or BLAS.
    """

    COMMANDS = [
        ["validate-params", "--config", "run.cfg"],
        ["thresholds", "--config", "run.cfg", "--t", "1.75"],
        ["minimize", "--config", "run.cfg", "--d", "-0.7", "--profile", "profile.csv"],
        ["spectrum", "--config", "run.cfg", "--d", "-0.5", "--out", "spectrum.csv"],
        ["sweep", "--config", "run.cfg", "--t-start", "-10.3", "--t-end", "-11.3", "--dt", "0.25", "--cold-start",
         "--out", "sweep.csv"],
        ["plot", "--kind", "bifurcation", "--data", "sweep.csv", "--out", "sweep.svg"],
        ["plot", "--kind", "profile", "--data", "profile.csv", "--out", "profile.svg"],
        ["elastic-sweep", "--config", "run.cfg", "--d", "-5", "--vary", "k", "--values", "0.025,0.05,0.25",
         "--out", "k.csv"],
        ["plot", "--kind", "elastic", "--data", "k.csv", "--out", "k.svg"],
        ["tensor-check", "--sigma", "2", "--s-plus", "1.5", "--rng-seed", "7"],
    ]
    DIGESTS = {
        "0:validate-params:stdout": "89d27d5b6aa4b952",
        "1:thresholds:stdout": "91e6498b54b5a530",
        "2:minimize:stderr": "6f239ede5bad4acf",
        "2:minimize:stdout": "08807068da29627c",
        "3:spectrum:stdout": "e3b0c44298fc1c14",
        "4:sweep:stdout": "31333921a84c8860",
        "5:plot:stdout": "e3b0c44298fc1c14",
        "6:plot:stdout": "e3b0c44298fc1c14",
        "7:elastic-sweep:stdout": "e3b0c44298fc1c14",
        "8:plot:stdout": "e3b0c44298fc1c14",
        "9:tensor-check:stdout": "47eb0ff997ed3ba3",
        "k.csv": "1951bd990d095d44",
        "k.svg": "51910ac8f9af148a",
        "profile.csv": "1b7201ad34d273bb",
        "profile.svg": "f5ef60bfde4c60df",
        "spectrum.csv": "d4caf7e326aeae98",
        "sweep.csv": "693721cde56b5582",
        "sweep.svg": "d170d847b5ff19fc",
    }

    @staticmethod
    def outputs(workdir, env):
        """Digest of each command's stdout (and stderr for minimize) and of each file written."""
        (workdir / "run.cfg").write_text("N = 64\n")
        found = {}
        for i, argv in enumerate(TestBatchOutputsUnchanged.COMMANDS):
            proc = subprocess.run([sys.executable, "-m", "smectic1d", *argv], capture_output=True, timeout=120,
                                  cwd=workdir, env=env)
            assert proc.returncode == 0, proc.stderr
            found[f"{i}:{argv[0]}:stdout"] = proc.stdout
            if argv[0] == "minimize":
                found[f"{i}:{argv[0]}:stderr"] = proc.stderr
        found.update({f.name: f.read_bytes() for f in workdir.iterdir() if f.name != "run.cfg"})
        return {name: hashlib.sha256(data).hexdigest()[:16] for name, data in sorted(found.items())}

    def test_bytes_match_the_recorded_digests(self, tmp_path, child_env):
        assert self.outputs(tmp_path, child_env) == self.DIGESTS

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, child_env, threads):
        # OpenBLAS may split the FD Hessian's stacked gradients, which are
        # matrix-matrix products, across threads; the exact Hessian takes
        # only matrix-vector products; either way no byte may change
        assert self.outputs(tmp_path, {**child_env, "OPENBLAS_NUM_THREADS": threads}) == self.DIGESTS


class TestMorseOutputsUnchanged:
    """A sweep CSV with a non-empty morse_index column and its dashed bifurcation plot, byte for byte.

    From T = -20.8 down to -21.2 the records have Morse index 0, 2 and 3, so
    each branch is one dashed run in each panel plus a stable single-point
    marker.  Recorded on the platform of ``TestBatchOutputsUnchanged``.
    """

    DIGESTS = {"morse.csv": "a053587f6f6c5c46", "morse.svg": "01083b5cd9530f0c"}

    def test_bytes_match_the_recorded_digests(self, tmp_path):
        data, svg = tmp_path / "morse.csv", tmp_path / "morse.svg"
        assert run(["sweep", "--n-modes", "64", "--t-start", "-20.8", "--t-end", "-21.2", "--dt", "0.2",
                    "--record-morse", "--out", str(data)]) == 0
        assert run(["plot", "--kind", "bifurcation", "--data", str(data), "--out", str(svg)]) == 0
        with open(data, newline="") as fh:
            assert sorted({r["morse_index"] for r in csv.DictReader(fh)}) == ["0", "2", "3"]
        text = svg.read_text()
        assert text.count("stroke-dasharray") == 4
        assert text.count("<circle") == 4
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (data, svg)}
        assert found == self.DIGESTS


class TestMinimizeCommand:
    def test_profile_output(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        profile = tmp_path / "profile.csv"
        code = run(["minimize", "--config", cfg, "--d", "-0.5", "--seed", "smectic-seed",
                    "--profile", str(profile)])
        assert code == 0
        with open(profile, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["z", "theta", "delta_rho", "phi", "n1", "n2", "n3"]
        amp = max(abs(float(r["delta_rho"])) for r in rows)
        assert amp == pytest.approx(0.1159, rel=0.05)
        # 17 significant digits survive the round trip
        n1 = [float(r["n1"]) for r in rows]
        n2 = [float(r["n2"]) for r in rows]
        n3 = [float(r["n3"]) for r in rows]
        assert max(abs(a * a + b * b + c * c - 1.0) for a, b, c in zip(n1, n2, n3)) < 1e-12

    def test_relaxed_tilt_within_range(self, tmp_path, capsys):
        # at k = 0.0025 the smectic seed relaxes to a mean tilt of 0.86 - 2 pi;
        # minimize folds it back, so the profile is not out of range
        cfg = _write_fig3_config(tmp_path, k1=0.0025, k2=0.0025, k3=0.0025)
        assert run(["minimize", "--config", cfg, "--d", "-5", "--seed", "smectic-seed"]) == 0
        assert "theta_within_range = True" in capsys.readouterr().err

    def test_nonconvergence_exits_2(self, tmp_path, monkeypatch):
        cfg = _write_fig3_config(tmp_path)
        monkeypatch.setattr(importlib.import_module("smectic1d.minimize"), "MAX_ITERS", 1)
        code = run(["minimize", "--config", cfg])
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_tolerance_exits_1(self, tmp_path, capsys, monkeypatch, source):
        # used to exit 0 with converged = True and iterations = 0 on the
        # unrelaxed seed; the tolerance is fixed now, neither a flag nor a key
        relaxed = []
        monkeypatch.setattr(importlib.import_module("smectic1d.minimize"), "minimize", lambda *a, **k: relaxed.append(a))
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("N = 16\ntol_grad = inf\n")
        flags = ["--tol-grad", "inf"] if source == "flag" else ["--config", str(cfg)]
        assert run(["minimize", *flags, "--d", "-0.7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "config line 2: unknown key 'tol_grad'" if source == "config" else "unrecognized arguments: --tol-grad inf"
        assert captured.err == f"error: {message}\n"
        assert not relaxed

    def test_conflicting_d_and_t_rejected(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        assert run(["minimize", "--config", cfg, "--d", "-0.5", "--T", "-10.5"]) == 1

    def test_temperature_flag(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["minimize", "--config", cfg, "--T", "-10.5", "--seed", "smectic-seed"]) == 0
        out = capsys.readouterr().out
        amp = float(next(line.split("=")[1] for line in out.splitlines() if line.startswith("delta_rho_max")))
        assert amp == pytest.approx(0.1159, rel=0.05)


class TestSpectrumCommand:
    def test_csv_schema_and_order(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        out_path = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", cfg, "--d", "-0.5", "--out", str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["index", "eigenvalue"]
        vals = [float(r["eigenvalue"]) for r in rows]
        assert len(vals) == 2 * 64 + 3
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(-0.1007791, abs=1e-6)

    def test_at_minimizer(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path, N=32)
        out_path = tmp_path / "spec.csv"
        code = run(["spectrum", "--config", cfg, "--d", "-0.5", "--at", "minimizer", "--out", str(out_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "morse_index = 0" in err

    def test_unconverged_minimizer_exits_2_without_a_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("smectic1d.minimize"), "MAX_ITERS", 1)
        out_path = tmp_path / "spec.csv"
        argv = ["spectrum", "--n-modes", "16", "--d", "-0.5", "--at", "minimizer"]
        assert run([*argv, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver error: minimization did not reach the gradient tolerance\n"
        assert not out_path.exists()

    def test_stdout_without_out_matches_the_file(self, tmp_path, capsys):
        argv = ["spectrum", "--n-modes", "16", "--d", "-0.5"]
        out_path = tmp_path / "spec.csv"
        assert run([*argv, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("index,eigenvalue\n")
        assert stdout.encode() == out_path.read_bytes()


    def test_refused_allocation_exits_2_with_one_line(self, capsys, monkeypatch):
        # an array numpy cannot allocate used to end in numpy's
        # _ArrayMemoryError traceback.  The builder raises here, so nothing
        # large is allocated, even at the largest N
        def refuse(grid, n):
            raise MemoryError(f"Unable to allocate the operators of N = {n}")

        monkeypatch.setattr("smectic1d.energy1d._operators", refuse)
        assert run(["spectrum", "--n-modes", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver error: out of memory: Unable to allocate the operators of N = 2000\n"

    @pytest.mark.parametrize("command", ["spectrum", "minimize", "validate-params"])
    def test_huge_n_modes_exits_1_before_allocating(self, capsys, monkeypatch, command):
        # N = 1e9 was refused by numpy under a memory limit (exit 2) and
        # killed for memory without one (exit 137)
        built = []
        for target in ("smectic1d.energy1d._operators", "smectic1d.energy1d._tables", "smectic1d.spectral._tables"):
            monkeypatch.setattr(target, lambda *a, target=target: built.append(target))
        assert run([command, "--n-modes", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N must be an even integer from 2 to 2000, got 1000000000\n"
        assert not built


class TestThresholdsCommand:
    def test_prints_thresholds_and_theta_star(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["thresholds", "--config", cfg, "--t", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "t1 = 0.940609" in out
        assert "theta_star(2) = 0.77779" in out

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf", "-1", "-nan", "-Infinity", "-INF"])
    def test_bad_t_exits_1_before_printing(self, tmp_path, capsys, t):
        cfg = _write_fig3_config(tmp_path)
        for flag in ([f"--t={t}"], ["--t", t]):
            assert run(["thresholds", "--config", cfg, *flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "t must be finite and nonnegative" in captured.err

    def test_theta_star_off_k2_equal_k3_exits_1_before_printing(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path, k1=0.01, k2=0.03, k3=0.05)
        assert run(["thresholds", "--config", cfg, "--t", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: theta_star needs k2 = k3, got k2 = 0.03, k3 = 0.05\n"
        # without --t the thresholds print, t1 and t2 with k3
        assert run(["thresholds", "--config", cfg]) == 0
        assert "t1 = 1.33022" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_csv_and_detection(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        out_path = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", cfg, "--t-start", "-10.3", "--t-end", "-10.6",
                    "--dt", "0.05", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_CHS = -10.39" in out
        assert "T_HSSC = absent" in out
        with open(out_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["T", "d", "branch", "delta_rho_max", "theta_max", "energy", "morse_index"]
        assert len(rows) == 14
        assert all(r[6] == "" for r in rows)  # morse not recorded

    def test_deterministic_output(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", cfg, "--t-start", "-10.35", "--t-end", "-10.45", "--dt", "0.05"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-start", "-10.6", "--t-end", "-10.3", "--dt", "0.05"], "cooling"),
            # the amplitude threshold is sweep.EPS_DETECT, not a flag
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "0.05", "--eps-detect", "1e-3"],
             "error: unrecognized arguments: --eps-detect 1e-3"),
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "0"], "dt must be nonzero"),
            (["--t-start", "nan", "--t-end", "-10.6", "--dt", "0.05"], "t_start must be finite, got nan"),
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "-nan"], "dt must be finite, got nan"),
            (["--t-start", "-10.3", "--t-end", "-Inf", "--dt", "0.05"], "t_end must be finite, got -inf"),
            # a sweep sets d from each T, so it takes neither flag
            (["--t-start", "-10", "--t-end", "-10.5", "--dt", "0.25", "--d", "-0.5", "--T", "-10.5"],
             "error: unrecognized arguments: --d -0.5 --T -10.5"),
            # grids whose point count overflows: an OverflowError traceback before
            (["--t-start", "0", "--t-end", "-1", "--dt", "5e-324"],
             "t_start = 0.0 to t_end = -1.0 in steps of dt = 5e-324 has no finite point count"),
            (["--t-start", "1e308", "--t-end", "-1e308", "--dt", "1"],
             "t_start = 1e+308 to t_end = -1e+308 in steps of dt = 1.0 has no finite point count"),
            # a point count numpy cannot size: its bare "Maximum allowed size exceeded" before
            (["--t-start", "-10", "--t-end", "-10.2", "--dt", "1e-300"],
             "t_start = -10.0 to t_end = -10.2 in steps of dt = 1e-300 has 2e+299 points"),
        ],
    )
    def test_bad_arguments_rejected_before_solving(self, tmp_path, capsys, monkeypatch, flags, message):
        solved = []
        monkeypatch.setattr("smectic1d.sweep.sweep_temperature", lambda *a, **k: solved.append(a) or [])
        out_path = tmp_path / "sweep.csv"
        assert run(["sweep", *flags, "--out", str(out_path)]) == 1
        assert message in capsys.readouterr().err
        assert not solved
        assert not out_path.exists()

    @pytest.mark.parametrize("module, name", [("sweep", "sweep_temperature"), ("minimize", "minimize")])
    def test_solver_errors_exit_2(self, tmp_path, capsys, monkeypatch, module, name):
        # a failed sweep and a failed relaxation inside it raise the same error
        def fail(*args, **kwargs):
            raise smectic1d.SolverError("boom")

        monkeypatch.setattr(importlib.import_module(f"smectic1d.{module}"), name, fail)
        argv = ["sweep", "--t-start", "-10", "--t-end", "-10.1", "--dt", "0.1", "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err == "solver error: boom\n"

    def test_negative_values_in_exponent_form(self, tmp_path):
        cfg = _write_fig3_config(tmp_path, N=16)
        out_path = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", cfg, "--t-start", "-10", "--t-end", "-1e1", "--dt", "1e-1",
                    "--out", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            assert [r["T"] for r in csv.DictReader(fh)] == ["-10", "-10"]

    def test_single_point_sweep(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path, N=16)
        out_path = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", cfg, "--t-start", "-10.5", "--t-end", "-10.5", "--dt", "0.05",
                    "--out", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            assert [r["T"] for r in csv.DictReader(fh)] == ["-10.5", "-10.5"]


class TestOutputPathCheckedFirst:
    # each command with an output file, the solver (or reader) it must not
    # reach, and the output flag
    CASES = {
        "sweep": (["sweep", "--t-start", "-10", "--t-end", "-10.1", "--dt", "0.1"],
                  "smectic1d.sweep.sweep_temperature", "--out"),
        "elastic-sweep": (["elastic-sweep", "--d", "-5", "--vary", "k", "--values", "0.025"],
                          "smectic1d.sweep.elastic_sweep", "--out"),
        "minimize": (["minimize", "--d", "-0.5"], "smectic1d.minimize.minimize", "--profile"),
        "spectrum": (["spectrum", "--d", "-0.5"], "smectic1d.stability.spectrum", "--out"),
        "plot": (["plot", "--kind", "profile", "--data", "in.csv"], "smectic1d.cli.emit_svg", "--out"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_missing_directory_named_before_solving(self, tmp_path, capsys, monkeypatch, command):
        argv, solver, flag = self.CASES[command]
        solved = []
        # patched on the module object: the dotted form would resolve
        # smectic1d.minimize to the package's function of that name
        module, _, name = solver.rpartition(".")
        monkeypatch.setattr(importlib.import_module(module), name, lambda *a, **k: solved.append(a))
        target = str(tmp_path / "missing" / "out.csv")
        assert run([*argv, flag, target]) == 3
        err = capsys.readouterr().err
        assert target in err
        assert ".tmp-" not in err
        assert not solved

    def test_write_failure_names_the_given_path(self, tmp_path, capsys, monkeypatch):
        def refuse(dir, prefix, suffix):
            raise PermissionError(13, "Permission denied", os.path.join(dir, prefix + "abc" + suffix))

        monkeypatch.setattr("smectic1d.cli.tempfile.mkstemp", refuse)
        data = tmp_path / "profile.csv"
        data.write_text("z,theta,delta_rho\n0,0.1,0.2\n")
        target = str(tmp_path / "profile.svg")
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", target]) == 3
        err = capsys.readouterr().err
        assert target in err
        assert ".tmp-" not in err

    def test_failed_rename_removes_the_temporary_file(self, tmp_path, capsys, monkeypatch):
        renamed = []

        def refuse(src, dst):
            renamed.append(os.path.basename(src))
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr("smectic1d.cli.os.replace", refuse)
        data = tmp_path / "profile.csv"
        data.write_text("z,theta,delta_rho\n0,0.1,0.2\n")
        target = tmp_path / "profile.svg"
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(target)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert len(renamed) == 1 and renamed[0].startswith(".tmp-")
        assert sorted(os.listdir(tmp_path)) == ["profile.csv"]

    def test_directory_as_output_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr("smectic1d.sweep.sweep_temperature", lambda *a, **k: solved.append(a))
        assert run(["sweep", "--t-start", "-10", "--t-end", "-10.1", "--dt", "0.1", "--out", str(tmp_path)]) == 3
        assert str(tmp_path) in capsys.readouterr().err
        assert not solved


class TestElasticSweepCommand:
    def test_csv(self, tmp_path):
        cfg = _write_fig3_config(tmp_path, N=32)
        out_path = tmp_path / "elastic.csv"
        code = run(["elastic-sweep", "--config", cfg, "--d", "-5", "--vary", "k",
                    "--values", "0.0025,0.25", "--out", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == ["value", "theta_bar", "delta_rho_max", "energy"]
        assert float(rows[0]["theta_bar"]) > float(rows[1]["theta_bar"])

    def test_unparsable_value_exits_1_naming_the_flag(self, tmp_path, capsys):
        # used to print "error: could not convert string to float: 'abc'"
        out_path = tmp_path / "k.csv"
        assert run(["elastic-sweep", "--vary", "k", "--values", "0.025,abc", "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --values: could not convert string to float: 'abc'\n"
        assert not out_path.exists()

    def test_no_values_exits_1(self, tmp_path, capsys):
        out_path = tmp_path / "k.csv"
        assert run(["elastic-sweep", "--vary", "k", "--values", ",", "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == "error: no values supplied\n"
        assert not out_path.exists()


class TestTensorCheckCommand:
    def test_passes(self, capsys):
        assert run(["tensor-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3

    def test_large_scale_passes(self, capsys):
        # the gradient's trace was checked against an absolute 1e-12, so its
        # own rounding failed the check: "G must be trace-free"
        assert run(["tensor-check", "--sigma", "1e4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(line.endswith("-> ok") for line in lines)

    def test_negative_rng_seed_exits_1_naming_it(self, capsys):
        # used to print numpy's "error: expected non-negative integer"
        assert run(["tensor-check", "--rng-seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --rng-seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("flag", ["--eta1", "--eta2", "--eta24", "--sigma", "--s-plus"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan", "-Infinity"])
    def test_non_finite_option_exits_1_naming_it(self, capsys, flag, value):
        # --sigma nan used to fail as "Q must be exactly symmetric", and
        # --sigma inf with a numpy RuntimeWarning and "math domain error"
        for option in ([f"{flag}={value}"], [flag, value]):
            assert run(["tensor-check", *option]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("flag", ["--sigma", "--eta1"])
    def test_zero_expected_offset_checks_the_mean(self, monkeypatch, capsys, flag):
        # with an expected offset of 0 only the spread was checked, so a
        # constant wrong offset printed "ok"
        import numpy as np

        monkeypatch.setattr("smectic1d.tensor.reduction_residual", lambda z, *args: np.full(len(z), 1.0))
        assert run(["tensor-check", flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("-> FAIL") == 3
        assert captured.err == "error: uniaxial reduction check failed\n"

    @pytest.mark.parametrize(
        "flags",
        [["--sigma", "0"], ["--sigma", "2"], ["--sigma", "1e4"], ["--sigma", "1e6"], ["--sigma", "1e8"],
         ["--eta1", "1e6", "--eta2", "1e6", "--eta24", "1e6", "--s-plus", "1e3"]],
        ids=["sigma-0", "sigma-2", "sigma-1e4", "sigma-1e6", "sigma-1e8", "eta-1e6-s-plus-1e3"],
    )
    def test_exact_identity_passes_at_any_scale(self, capsys, flags):
        # the bound scales with the densities: at sigma = 1e6 the residual is
        # 7.5e11 and its rounding spreads it by about 1e-3
        assert run(["tensor-check", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(line.endswith("-> ok") for line in lines)

    def test_offset_wrong_by_a_relative_1e_9_fails(self, monkeypatch, capsys):
        # the mean is checked to the rounding of the densities, not to 1%
        from smectic1d import tensor

        offset = tensor.uniaxial_reduction_offset
        monkeypatch.setattr(tensor, "uniaxial_reduction_offset", lambda *args: offset(*args) * (1.0 + 1e-9))
        assert run(["tensor-check"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("-> FAIL") == 3
        assert captured.err == "error: uniaxial reduction check failed\n"

    def test_tolerance_is_not_a_flag(self, capsys):
        assert run(["tensor-check", "--tol", "1e-6"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --tol 1e-6\n"


class TestPlot:
    def test_bifurcation_svg(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        data = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        run(["sweep", "--config", cfg, "--t-start", "-10.3", "--t-end", "-10.5", "--dt", "0.05",
             "--out", str(data)])
        assert run(["plot", "--kind", "bifurcation", "--data", str(data), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text

    def test_profile_svg_deterministic(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        data = tmp_path / "profile.csv"
        run(["minimize", "--config", cfg, "--d", "-0.5", "--profile", str(data)])
        s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(s1)]) == 0
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        data = tmp_path / "profile.csv"
        data.write_text("z,theta,delta_rho\n0,0.1,0.2\n1,0.3,0.4\n")
        svg = tmp_path / "profile.svg"
        old = os.umask(umask)
        try:
            assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(svg)]) == 0
        finally:
            os.umask(old)
        assert svg.stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize(
        "kind, header, missing",
        [
            ("bifurcation", "a,b", "T, branch, delta_rho_max, theta_max"),
            ("profile", "value,theta_bar,delta_rho_max,energy", "z, theta, delta_rho"),
            ("elastic", "z,theta,delta_rho,phi,n1,n2,n3", "value, theta_bar"),
        ],
        ids=["bifurcation", "profile", "elastic"],
    )
    def test_missing_column_named(self, tmp_path, capsys, kind, header, missing):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n" + ",".join("1" for _ in header.split(",")) + "\n")
        svg = tmp_path / "out.svg"
        assert run(["plot", "--kind", kind, "--data", str(data), "--out", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(data) in err
        assert f"column(s) {missing}" in err
        assert not svg.exists()

    def test_short_row_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("z,theta,delta_rho\n0,0.1,0.2\n1,0.3\n")
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(tmp_path / "p.svg")]) == 1
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("profile", "z,theta,delta_rho\n0,0.1,0.2\n1,abc,0.3\n",
             "column theta, data row 2: float expected, got 'abc'"),
            ("bifurcation", "T,branch,delta_rho_max,theta_max,morse_index\n-10,+,0.1,0,0\n-10.1,+,0.2,0,x\n",
             "column morse_index, data row 2: int expected, got 'x'"),
        ],
        ids=["float", "morse-index"],
    )
    def test_unreadable_cell_exits_1_naming_the_column_and_row(self, tmp_path, capsys, kind, text, message):
        # both used to name only the file and repeat the conversion's own error
        data = tmp_path / "d.csv"
        data.write_text(text)
        svg = tmp_path / "d.svg"
        assert run(["plot", "--kind", kind, "--data", str(data), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not svg.exists()

    @pytest.mark.parametrize(
        "column, values, message",
        [
            ("z", ["0", "inf"], "column z holds the non-finite value inf"),
            ("z", ["nan", "1"], "column z holds the non-finite value nan"),
            ("theta", ["0.1", "-inf"], "column theta holds the non-finite value -inf"),
            ("z", ["1e308", "-1e308"], "column z runs from -1e+308 to 1e+308, a range that cannot be drawn"),
            ("delta_rho", ["-1.7e308", "0"], "column delta_rho runs from -1.7e+308 to 0.0, a range that cannot be drawn"),
            ("z", ["1e17", "1e17"], "column z runs from 1e+17 to 1e+17, a range that cannot be drawn"),
        ],
        ids=["inf", "nan", "minus-inf-in-a-panel", "x-span-overflows", "padded-span-overflows", "flat-past-2**53"],
    )
    def test_undrawable_values_exit_1_naming_the_column(self, tmp_path, capsys, column, values, message):
        # inf and the overflowing spans ended in an OverflowError traceback,
        # nan in "cannot convert float NaN to integer", and a flat column
        # that +-1 cannot widen in a ZeroDivisionError traceback
        columns = {"z": ["0", "1"], "theta": ["0.1", "0.2"], "delta_rho": ["0.3", "0.4"], column: values}
        data = tmp_path / "p.csv"
        data.write_text("z,theta,delta_rho\n" + "".join(f"{z},{t},{r}\n" for z, t, r in zip(*columns.values())))
        svg = tmp_path / "p.svg"
        assert run(["plot", "--kind", "profile", "--data", str(data), "--out", str(svg)]) == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not svg.exists()

    # Each case runs in a child with 256 MB of address space and a timeout:
    # the tick loop of the earlier code never ended on them and grew its list
    # until memory ran out.
    BOUNDED_CHILD = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"

    def test_step_below_the_float_spacing_is_drawn(self, tmp_path, child_env):
        # x = 1e16 and 1e16 + 4 give a tick step of 1.0, and 1e16 + 1.0 == 1e16
        (tmp_path / "p.csv").write_text("z,theta,delta_rho\n1e16,0.1,0.2\n10000000000000004,0.3,0.4\n")
        child = self.BOUNDED_CHILD + "from smectic1d.cli import run\nprint(run(sys.argv[1:]))\n"
        proc = subprocess.run(
            [sys.executable, "-c", child, "plot", "--kind", "profile", "--data", "p.csv", "--out", "p.svg"],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=child_env,
        )
        assert (proc.stdout, proc.stderr) == ("0\n", "")
        # the two values are drawn at both ends of each panel, under one x tick
        svg = (tmp_path / "p.svg").read_text()
        assert svg.count(">1e+16</text>") == 2
        assert svg.count('<polyline points="56.00,') == 2

    @pytest.mark.parametrize(
        "lo, hi",
        [(1e16, 1e16 + 4), (1e-20, 2e-20), (0.0, 5e-324), (1.7e308, 1.7976931348623157e308)],
        ids=["step-below-spacing", "tiny-magnitude", "subnormal-span", "up-to-the-largest-float"],
    )
    def test_ticks_are_bounded_and_finite(self, child_env, lo, hi):
        child = self.BOUNDED_CHILD + (
            "from smectic1d.cli import _nice_ticks\n"
            "ticks = _nice_ticks(float(sys.argv[1]), float(sys.argv[2]))\n"
            "print(len(ticks), all(abs(t) < float('inf') for t in ticks))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, repr(lo), repr(hi)], capture_output=True, text=True, timeout=60, env=child_env
        )
        assert proc.returncode == 0, proc.stderr
        count, finite = proc.stdout.split()
        assert 1 <= int(count) <= 12
        assert finite == "True"

    def test_single_point_gets_marker(self):
        svg = emit_svg("elastic", [{"value": "1.0", "theta_bar": "0.5", "delta_rho_max": "0", "energy": "0"}])
        assert "<circle" in svg

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            emit_svg("profile", [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            emit_svg("pie", [{"z": "0"}])

    def test_dashed_segments_for_unstable_branch(self):
        rows = []
        for i, morse in enumerate([2, 2, 0, 0]):
            rows.append({"T": str(-10.0 - i), "d": "0", "branch": "+", "delta_rho_max": str(0.1 * i),
                         "theta_max": "0", "energy": "0", "morse_index": str(morse)})
        svg = emit_svg("bifurcation", rows)
        assert "stroke-dasharray" in svg
