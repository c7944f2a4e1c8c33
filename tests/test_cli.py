import csv
import math
import os
import subprocess
import sys
from pathlib import Path

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
    def test_python_dash_m_runs_the_cli(self):
        # the child finds the package where this process found it, installed or not
        src = str(Path(smectic1d.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "smectic1d", "validate-params"], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "d_critical = " in proc.stdout


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

    def test_single_point_sweep(self, tmp_path, capsys):
        cfg = _write_fig3_config(tmp_path, N=16)
        out_path = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", cfg, "--t-start", "-10.5", "--t-end", "-10.5", "--dt", "0.05",
                    "--out", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            assert [r["T"] for r in csv.DictReader(fh)] == ["-10.5", "-10.5"]


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
