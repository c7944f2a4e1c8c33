import math
from dataclasses import replace

import numpy as np
import pytest

from smectic1d import (
    MinimizeOptions,
    SweepConfig,
    SweepError,
    SweepRecord,
    d_critical,
    detect_transitions,
    elastic_sweep,
    pitchfork_exponent,
    sweep_temperature,
    temperature_from_d,
)


def _quick_config(**kw) -> SweepConfig:
    base = dict(t_start=-10.3, t_end=-10.6, dt=0.05)
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_temperature_grid(self):
        temps = _quick_config().temperatures()
        assert temps[0] == pytest.approx(-10.3)
        assert temps[-1] == pytest.approx(-10.6)
        assert len(temps) == 7

    def test_direction_follows_endpoints(self):
        temps = SweepConfig(t_start=-11.0, t_end=-10.0, dt=0.5).temperatures()
        assert np.all(np.diff(temps) > 0)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(t_start=0.0, t_end=1.0, dt=0.0)


class TestSweepTemperature:
    def test_records_and_phases(self, fig3_params):
        records = sweep_temperature(fig3_params, _quick_config())
        assert len(records) == 14  # 7 temperatures x 2 branches
        assert {r.branch for r in records} == {"+", "-"}
        for r in records:
            assert r.converged
            assert r.delta_rho_max >= 0.0
            assert math.isfinite(r.energy)
            # layering appears only below the critical temperature
            layered = r.T < temperature_from_d(d_critical(fig3_params), fig3_params)
            assert (r.delta_rho_max > 1e-3) == layered, r.T

    def test_branches_have_equal_energy(self, fig3_params):
        records = sweep_temperature(fig3_params, _quick_config())
        by_t = {}
        for r in records:
            by_t.setdefault(r.T, {})[r.branch] = r.energy
        for pair in by_t.values():
            assert abs(pair["+"] - pair["-"]) < 1e-10

    def test_warm_and_cold_agree(self, fig3_params):
        warm = sweep_temperature(fig3_params, _quick_config())
        cold = sweep_temperature(fig3_params, _quick_config(cold_start=True))
        for rw, rc in zip(warm, cold):
            assert rw.T == rc.T and rw.branch == rc.branch
            assert abs(rw.delta_rho_max - rc.delta_rho_max) < 1e-4

    def test_morse_recording(self, fig3_params):
        config = _quick_config(t_start=-10.3, t_end=-10.45, record_morse=True, n_modes=16)
        records = sweep_temperature(fig3_params, config)
        assert all(r.morse_index == 0 for r in records)  # minimizers are stable

    def test_failure_fraction_guard(self, fig3_params):
        config = _quick_config(options=MinimizeOptions(max_iters=1, tol_grad=1e-15))
        with pytest.raises(SweepError):
            sweep_temperature(fig3_params, config)


class TestReferenceSweepInvariants:
    def test_energy_monotone_within_phase_segments(self, fig3_sweep):
        # cooling deepens the well: within each phase segment of a branch the
        # recorded energies are non-increasing as T decreases
        eps = 1e-3
        for branch in ("+", "-"):
            seq = [r for r in fig3_sweep if r.branch == branch]
            prev = None
            for r in seq:
                phase = r.delta_rho_max >= eps
                if prev is not None and phase == prev[0]:
                    assert r.energy <= prev[1] + 1e-12, r.T
                prev = (phase, r.energy)

    def test_warm_start_matches_cold_start_amplitudes(self, fig3_params, fig3_sweep):
        cold = sweep_temperature(
            fig3_params, SweepConfig(t_start=-10.3, t_end=-10.7, dt=0.1, cold_start=True)
        )
        warm_by_key = {(round(r.T, 10), r.branch): r for r in fig3_sweep}
        matched = 0
        for rc in cold:
            rw = warm_by_key.get((round(rc.T, 10), rc.branch))
            if rw is not None:
                assert abs(rw.delta_rho_max - rc.delta_rho_max) < 1e-4
                matched += 1
        assert matched >= 6


class TestDetectTransitions:
    def test_layering_onset(self, fig3_params):
        records = sweep_temperature(fig3_params, _quick_config(dt=0.02))
        t_chs, t_hssc = detect_transitions(records, 1e-3)
        assert t_chs == pytest.approx(temperature_from_d(d_critical(fig3_params), fig3_params), abs=0.02)
        assert t_hssc is None

    def test_absent_when_out_of_range(self, fig3_params):
        records = sweep_temperature(fig3_params, SweepConfig(t_start=-9.5, t_end=-9.9, dt=0.1))
        assert detect_transitions(records, 1e-3) == (None, None)

    def test_requires_decreasing_order(self):
        rec = lambda T: SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=0.0, theta_max=0.0,
                                    energy=0.0, morse_index=None, converged=True)
        with pytest.raises(ValueError, match="decreasing"):
            detect_transitions([rec(-10.0), rec(-9.0)], 1e-3)

    def test_synthetic_pitchfork_refinement(self):
        # amplitude^2 exactly linear in T below the onset at T0 = -10.0
        t0, slope = -10.0, 0.4
        records = []
        for i in range(11):
            T = -9.8 - 0.05 * i
            amp = math.sqrt(slope * (t0 - T)) if T < t0 else 0.0
            records.append(SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=amp, theta_max=0.0,
                                       energy=0.0, morse_index=None, converged=True))
        t_chs, _ = detect_transitions(records, 1e-3)
        assert t_chs == pytest.approx(t0, abs=1e-12)

    def test_not_bracketed_when_first_record_is_past_threshold(self):
        # the sweep starts inside the layered phase and with tilt already
        # on, so neither onset is bracketed by the swept range
        records = [
            SweepRecord(T=-20.0 - 0.5 * i, d=-10.0 - 0.5 * i, branch="+", delta_rho_max=1.0 + 0.1 * i,
                        theta_max=0.01 * (i + 1), energy=0.0, morse_index=None, converged=True)
            for i in range(4)
        ]
        assert detect_transitions(records, 1e-3) == (None, None)


class TestPitchforkExponent:
    def test_synthetic_square_root_law(self):
        d0, coeff = -0.4, 0.365
        records = []
        for i in range(20):
            d = d0 - 0.004 * (i + 1)
            records.append(SweepRecord(T=d - 10, d=d, branch="+", delta_rho_max=coeff * math.sqrt(d0 - d),
                                       theta_max=0.0, energy=0.0, morse_index=None, converged=True))
        slope = pitchfork_exponent(records, d0, window=0.1)
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_records(self):
        with pytest.raises(ValueError, match="insufficient"):
            pitchfork_exponent([], -0.4, window=0.1)


class TestElasticSweep:
    def test_large_k_suppresses_tilt(self, fig3_params):
        p = fig3_params.with_d(-5.0)
        records = elastic_sweep(p, [0.0025, 0.25], vary="k", n_modes=32)
        assert records[-1].theta_bar < 1e-3
        assert records[0].theta_bar > 0.1
        assert records[0].theta_bar >= records[-1].theta_bar

    def test_large_lambda_saturates_tilt(self, fig3_params):
        p = fig3_params.with_d(-5.0)
        records = elastic_sweep(p, [0.05, 0.5], vary="lambda", n_modes=32)
        assert records[-1].theta_bar == pytest.approx(math.pi / 2 - p.theta0, abs=0.05)
        assert records[0].theta_bar <= records[-1].theta_bar

    def test_zero_coupling_means_no_tilt(self, fig3_params):
        p = replace(fig3_params.with_d(-5.0), lambda1=0.0, lambda2=0.0)
        records = elastic_sweep(p, [0.025], vary="k", n_modes=32)
        assert records[0].theta_bar < 1e-6

    def test_unknown_axis_rejected(self, fig3_params):
        with pytest.raises(ValueError, match="vary"):
            elastic_sweep(fig3_params, [0.1], vary="mu")
