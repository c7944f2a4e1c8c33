import csv
import hashlib
import importlib
import math
import os
import subprocess
import sys

import pytest

import smectic1d
from smectic1d.cli import emit_svg, run


def _write_fig3_config(tmp_path, **overrides):
    lines = {
        "k1": 0.025, "k2": 0.025, "k3": 0.025, "sigma": 4.0, "q": 4.0,
        "h": 2.0 * math.pi, "d": -0.5, "e": 0.0, "f": 10.0,
        "lambda1": 0.001, "lambda2": 0.001, "theta0": math.pi / 9,
        "alpha2": 1.0, "T2star": -10.0, "N": 64,
    }
    lines.update(overrides)
    path = tmp_path / "fig3.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in lines.items()))
    return str(path)


class TestValidateParams:
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

    def test_echo_round_trips(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["validate-params", "--config", cfg, "--echo"]) == 0
        echoed = capsys.readouterr().out
        cfg2 = tmp_path / "echo.cfg"
        cfg2.write_text(echoed)
        assert run(["validate-params", "--config", str(cfg2), "--echo"]) == 0
        assert capsys.readouterr().out == echoed

    def test_unknown_config_key_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("zeta = 1.0\n")
        assert run(["validate-params", "--config", str(path)]) == 1

    def test_unknown_flag_exits_1(self):
        assert run(["validate-params", "--bogus"]) == 1

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["validate-params", "--config", str(tmp_path / "missing.cfg")]) == 3


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "smectic1d", "validate-params"], capture_output=True, text=True, timeout=60,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "d_critical = " in proc.stdout

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
        "2:minimize:stderr": "a9e44dd30388d481",
        "2:minimize:stdout": "e1ae6d5d25309f39",
        "3:spectrum:stdout": "e3b0c44298fc1c14",
        "4:sweep:stdout": "655b9830703c464b",
        "5:plot:stdout": "e3b0c44298fc1c14",
        "6:plot:stdout": "e3b0c44298fc1c14",
        "7:elastic-sweep:stdout": "e3b0c44298fc1c14",
        "8:plot:stdout": "e3b0c44298fc1c14",
        "9:tensor-check:stdout": "69764fc5c1761c5e",
        "k.csv": "e73a105b5d27a0f4",
        "k.svg": "ce853842a8f46d10",
        "profile.csv": "5be6bce81f165827",
        "profile.svg": "2cc499521fceedb2",
        "spectrum.csv": "d697a64b7e3c863c",
        "sweep.csv": "5478de9579833bbd",
        "sweep.svg": "670a94f61877af17",
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

    def test_nonconvergence_exits_2(self, tmp_path):
        cfg = _write_fig3_config(tmp_path)
        code = run(["minimize", "--config", cfg, "--max-iters", "1", "--tol-grad", "1e-15"])
        assert code == 2

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


class TestThresholdsCommand:
    def test_prints_thresholds_and_theta_star(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path)
        assert run(["thresholds", "--config", cfg, "--t", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "t1 = 0.940609" in out
        assert "theta_star(2) = 0.77779" in out


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
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "0.05", "--eps-detect", "0"], "eps-detect"),
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "0.05", "--eps-detect=-1e-3"], "eps-detect"),
            (["--t-start", "-10.3", "--t-end", "-10.6", "--dt", "0.05", "--eps-detect", "-1e-3"],
             "--eps-detect must be positive"),
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

    @pytest.mark.parametrize("error, prefix", [("SweepError", "sweep error"), ("DivergenceError", "solver error")])
    def test_solver_errors_exit_2(self, tmp_path, capsys, monkeypatch, error, prefix):
        def fail(*args, **kwargs):
            raise getattr(smectic1d, error)("boom")

        monkeypatch.setattr("smectic1d.sweep.sweep_temperature", fail)
        argv = ["sweep", "--t-start", "-10", "--t-end", "-10.1", "--dt", "0.1", "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"{prefix}: boom\n"

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


class TestTensorCheckCommand:
    def test_passes(self, capsys):
        assert run(["tensor-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3


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
