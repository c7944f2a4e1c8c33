import math
from dataclasses import replace

import numpy as np
import pytest

from smectic1d import (
    MinimizeOptions,
    SpectralState,
    SweepConfig,
    SweepError,
    SweepRecord,
    d_critical,
    default_grid,
    detect_transitions,
    elastic_sweep,
    minimize,
    pitchfork_exponent,
    seed_state,
    sweep_temperature,
    temperature_from_d,
)


def _quick_config(**kw) -> SweepConfig:
    base = dict(t_start=-10.3, t_end=-10.6, dt=0.05)
    base.update(kw)
    return SweepConfig(**base)


def _assert_minus_records_match_explicit_solves(params, config, records, tol=0.0):
    """Each cold-start "-" record equals one built from minimizing the "-" seed.

    tol = 0 asks for bit-for-bit equality; otherwise energy and amplitudes
    may differ by tol, relative for the energy and absolute for amplitudes.
    """
    n = config.n_modes
    grid = default_grid(n, params.h)
    minus = [r for r in records if r.branch == "-"]
    assert len(minus) == len(config.temperatures())
    for r in minus:
        p = params.at_temperature(r.T)
        seed = seed_state("smectic-seed", p, n)
        state, report = minimize(SpectralState(n=n, h=p.h, theta_c=seed.theta_c, rho_s=-seed.rho_s), p, config.options)
        if state.theta_c[0] < 0:  # records hold the positive-tilt representative
            state = SpectralState(n=n, h=p.h, theta_c=-state.theta_c, rho_s=state.rho_s)
        assert r.energy == pytest.approx(report.final_energy, rel=tol, abs=0.0), r.T
        assert r.converged == report.converged, r.T
        assert r.delta_rho_max == pytest.approx(float(np.max(state.rho_values(grid))), rel=0.0, abs=tol), r.T
        assert r.theta_max == pytest.approx(float(np.max(state.theta_values(grid))), rel=0.0, abs=tol), r.T


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
        # the "-" branch is the mirror of the "+" one, not a solve of its
        # own; at e = 0 it must be bit for bit what a solve would give
        config = _quick_config(cold_start=True, n_modes=16)
        _assert_minus_records_match_explicit_solves(fig3_params, config, sweep_temperature(fig3_params, config))

    def test_cubic_term_leaves_the_mirror_exact_to_rounding(self, fig3_params):
        # The cubic term integrates to zero over sine modes, so e != 0 breaks
        # the rho -> -rho symmetry only through rounding, and the mirrored
        # "-" branch still matches an explicit solve of the "-" seed
        config = _quick_config(cold_start=True, n_modes=16)
        cubic = replace(fig3_params, e=0.05)
        records = sweep_temperature(cubic, config)
        assert any(r.delta_rho_max > 1e-3 for r in records)
        _assert_minus_records_match_explicit_solves(cubic, config, records, tol=1e-12)

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

    def test_onset_clamped_to_its_bracket(self):
        # squared amplitudes 0.25 -> 0.2601 extrapolate to T = -9.525, above
        # the swept range; the onset must stay in (-10.02, -10.0]
        records = [
            SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=amp, theta_max=amp,
                        energy=0.0, morse_index=None, converged=True)
            for T, amp in ((-10.0, 0.0), (-10.02, 0.50), (-10.04, 0.51))
        ]
        assert detect_transitions(records, 1e-3) == (-10.0, -10.0)

    def test_coarse_tilt_sweep_onset_inside_bracket(self, tilt_params):
        # the tilt jumps on between -11.6 and -11.8; unclamped, the squared
        # amplitudes extrapolate to T = -11.456
        records = sweep_temperature(tilt_params, SweepConfig(t_start=-11.4, t_end=-12.0, dt=0.2))
        amps = [r.theta_max for r in records if r.branch == "+"]
        assert amps[1] < 1e-3 <= amps[2]
        _, t_hssc = detect_transitions(records, 1e-3)
        assert -11.8 <= t_hssc <= -11.6

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
    def test_nonpositive_threshold_rejected(self, eps):
        with pytest.raises(ValueError, match="eps_detect"):
            detect_transitions([], eps)


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
