import importlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from smectic1d import (
    RunConfig,
    SolverError,
    SpectralState,
    SweepRecord,
    cooling_grid,
    d_critical,
    detect_transitions,
    elastic_sweep,
    minimize,
    seed_state,
    sweep_temperature,
    temperature_from_d,
)
from smectic1d.sweep import EPS_DETECT

from crosscheck import pitchfork_exponent


#: The seven temperatures -10.3, -10.35, ..., -10.6 of the quick sweeps.
QUICK = cooling_grid(-10.3, -10.6, 0.05)


def _assert_minus_records_match_explicit_solves(config, temperatures, records):
    """Each cold-start "-" record equals, bit for bit, one built from minimizing the "-" seed."""
    params, n = config.params, config.n_modes
    minus = [r for r in records if r.branch == "-"]
    assert len(minus) == len(temperatures)
    for r in minus:
        p = params.at_temperature(r.T)
        seed = seed_state("smectic-seed", p, n)
        state, report = minimize(SpectralState(n=n, h=p.h, theta_c=seed.theta_c, rho_s=-seed.rho_s), p)
        if state.theta_c[0] < 0:  # records hold the positive-tilt representative
            state = SpectralState(n=n, h=p.h, theta_c=-state.theta_c, rho_s=state.rho_s)
        assert r.energy == report.final_energy, r.T
        assert r.converged == report.converged, r.T
        assert r.delta_rho_max == float(np.max(state.rho_values())), r.T
        assert r.theta_max == float(np.max(state.theta_values())), r.T


class TestSweepConfig:
    """The cooling grid a sweep takes: ``cooling_grid``."""

    def test_temperature_grid(self):
        assert QUICK[0] == pytest.approx(-10.3)
        assert QUICK[-1] == pytest.approx(-10.6)
        assert len(QUICK) == 7
        # the sign of dt does not matter: the grid always cools
        assert np.array_equal(cooling_grid(-10.3, -10.6, -0.05), QUICK)

    def test_warming_grid_rejected(self):
        with pytest.raises(ValueError, match="cooling only: t_end = -10.0 must not exceed t_start = -11.0"):
            cooling_grid(-11.0, -10.0, 0.5)

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be nonzero"):
            cooling_grid(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["t_start", "t_end", "dt"])
    def test_nonfinite_grid_rejected(self, field, value):
        grid = {"t_start": -10.0, "t_end": -10.5, "dt": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cooling_grid(**grid)

    # both overflowed int(inf) in the point count, a traceback from the CLI
    @pytest.mark.parametrize(
        "t_start, t_end, dt", [(0.0, -1.0, 5e-324), (1e308, -1e308, 1.0)], ids=["subnormal-dt", "span-overflows"]
    )
    def test_grid_without_a_finite_point_count_rejected(self, t_start, t_end, dt):
        message = f"t_start = {t_start} to t_end = {t_end} in steps of dt = {dt} has no finite point count"
        with pytest.raises(ValueError, match=re.escape(message)):
            cooling_grid(t_start, t_end, dt)

    def test_grid_too_long_for_an_array_rejected(self):
        # 2e299 points: numpy's bare "Maximum allowed size exceeded" before
        message = "t_start = -10.0 to t_end = -10.2 in steps of dt = 1e-300 has 2e+299 points"
        with pytest.raises(ValueError, match=re.escape(message)):
            cooling_grid(-10.0, -10.2, 1e-300)


class TestSweepTemperature:
    def test_solvers_read_from_their_modules_at_each_call(self, fig3_params, monkeypatch):
        # bench/probe.py counts work by wrapping minimize and spectrum in their
        # own modules; a sweep module that bound them at import would miss it
        calls = []
        for module_name, name in (("smectic1d.minimize", "minimize"), ("smectic1d.stability", "spectrum")):
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        sweep_temperature(RunConfig(fig3_params, n_modes=16), [-10.5], record_morse=True)
        assert sorted(set(calls)) == ["minimize", "spectrum"]

    def test_records_and_phases(self, fig3_params):
        records = sweep_temperature(RunConfig(fig3_params), QUICK)
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
        records = sweep_temperature(RunConfig(fig3_params), QUICK)
        by_t = {}
        for r in records:
            by_t.setdefault(r.T, {})[r.branch] = r.energy
        for pair in by_t.values():
            assert abs(pair["+"] - pair["-"]) < 1e-10
        # the "-" branch is the mirror of the "+" one, not a solve of its
        # own; it must be bit for bit what a solve would give
        config = RunConfig(fig3_params, n_modes=16)
        records = sweep_temperature(config, QUICK, cold_start=True)
        _assert_minus_records_match_explicit_solves(config, QUICK, records)

    def test_warm_and_cold_agree(self, fig3_params):
        warm = sweep_temperature(RunConfig(fig3_params), QUICK)
        cold = sweep_temperature(RunConfig(fig3_params), QUICK, cold_start=True)
        for rw, rc in zip(warm, cold):
            assert rw.T == rc.T and rw.branch == rc.branch
            assert abs(rw.delta_rho_max - rc.delta_rho_max) < 1e-4

    def test_morse_recording(self, fig3_params):
        records = sweep_temperature(RunConfig(fig3_params, n_modes=16), QUICK[:4], record_morse=True)
        assert all(r.morse_index == 0 for r in records)  # minimizers are stable

    def test_failure_fraction_guard(self, fig3_params, monkeypatch):
        monkeypatch.setattr(importlib.import_module("smectic1d.minimize"), "MAX_ITERS", 1)
        with pytest.raises(SolverError):
            sweep_temperature(RunConfig(fig3_params), QUICK)


class TestRelax:
    """The winning candidate of one sweep point, with ``minimize`` replaced by fixed outcomes."""

    @staticmethod
    def _winner(monkeypatch, fig3_params, outcomes):
        # outcomes: (converged, final energy) per candidate, in candidate order
        from smectic1d import MinimizeReport, sweep

        candidates = [seed_state("smectic-seed", fig3_params, 4) for _ in outcomes]
        by_id = {id(c): o for c, o in zip(candidates, outcomes)}

        def fake_minimize(cand, params, evaluator=None):
            converged, energy_val = by_id[id(cand)]
            return cand, MinimizeReport(converged, 0, 0.0, energy_val)

        monkeypatch.setattr(importlib.import_module("smectic1d.minimize"), "minimize", fake_minimize)
        state, energy_val, converged = sweep._relax(candidates, fig3_params)
        return next(i for i, c in enumerate(candidates) if c is state), energy_val, converged

    @pytest.mark.parametrize("energy_val", [-3.0, -0.25, 0.0, 17.5])
    def test_a_later_candidate_one_ulp_lower_loses(self, monkeypatch, fig3_params, energy_val):
        lower = math.nextafter(energy_val, -math.inf)
        assert self._winner(monkeypatch, fig3_params, [(True, energy_val), (True, lower)]) == (0, energy_val, True)

    @pytest.mark.parametrize("energy_val", [-3.0, -0.25, 0.0, 17.5])
    def test_a_later_candidate_1e_12_lower_wins(self, monkeypatch, fig3_params, energy_val):
        lower = energy_val - 1e-12
        assert self._winner(monkeypatch, fig3_params, [(True, energy_val), (True, lower)]) == (1, lower, True)

    def test_converged_beats_non_converged(self, monkeypatch, fig3_params):
        assert self._winner(monkeypatch, fig3_params, [(False, -3.0), (True, -1.0)]) == (1, -1.0, True)
        assert self._winner(monkeypatch, fig3_params, [(True, -1.0), (False, -3.0)]) == (0, -1.0, True)


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
        cold = sweep_temperature(RunConfig(fig3_params), cooling_grid(-10.3, -10.7, 0.1), cold_start=True)
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
        records = sweep_temperature(RunConfig(fig3_params), cooling_grid(-10.3, -10.6, 0.02))
        t_chs, t_hssc = detect_transitions(records)
        assert t_chs == pytest.approx(temperature_from_d(d_critical(fig3_params), fig3_params), abs=0.02)
        assert t_hssc is None

    def test_absent_when_out_of_range(self, fig3_params):
        records = sweep_temperature(RunConfig(fig3_params), cooling_grid(-9.5, -9.9, 0.1))
        assert detect_transitions(records) == (None, None)

    def test_requires_decreasing_order(self):
        rec = lambda T: SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=0.0, theta_max=0.0,
                                    energy=0.0, morse_index=None, converged=True)
        with pytest.raises(ValueError, match="decreasing"):
            detect_transitions([rec(-10.0), rec(-9.0)])

    def test_synthetic_pitchfork_refinement(self):
        # amplitude^2 exactly linear in T below the onset at T0 = -10.0
        t0, slope = -10.0, 0.4
        records = []
        for i in range(11):
            T = -9.8 - 0.05 * i
            amp = math.sqrt(slope * (t0 - T)) if T < t0 else 0.0
            records.append(SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=amp, theta_max=0.0,
                                       energy=0.0, morse_index=None, converged=True))
        t_chs, _ = detect_transitions(records)
        assert t_chs == pytest.approx(t0, abs=1e-12)

    def test_not_bracketed_when_first_record_is_past_threshold(self):
        # the sweep starts inside the layered phase and with tilt already
        # on, so neither onset is bracketed by the swept range
        records = [
            SweepRecord(T=-20.0 - 0.5 * i, d=-10.0 - 0.5 * i, branch="+", delta_rho_max=1.0 + 0.1 * i,
                        theta_max=0.01 * (i + 1), energy=0.0, morse_index=None, converged=True)
            for i in range(4)
        ]
        assert detect_transitions(records) == (None, None)

    def test_onset_clamped_to_its_bracket(self):
        # squared amplitudes 0.25 -> 0.2601 extrapolate to T = -9.525, above
        # the swept range; the onset must stay in (-10.02, -10.0]
        records = [
            SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=amp, theta_max=amp,
                        energy=0.0, morse_index=None, converged=True)
            for T, amp in ((-10.0, 0.0), (-10.02, 0.50), (-10.04, 0.51))
        ]
        assert detect_transitions(records) == (-10.0, -10.0)

    @pytest.mark.parametrize(
        "amps, onset",
        [
            ((0.0, 0.0, 0.5), 0.5 * (-10.02 + -10.04)),
            ((0.0, 0.5, 0.5), 0.5 * (-10.0 + -10.02)),
            ((0.0, 0.5, 0.4), 0.5 * (-10.0 + -10.02)),
            ((0.0, math.nextafter(EPS_DETECT, 0.0), EPS_DETECT), 0.5 * (-10.02 + -10.04)),
        ],
        ids=["crossing-at-the-last-record", "flat-after-the-crossing", "falling-after-the-crossing",
             "one-ulp-below-then-at-EPS_DETECT"],
    )
    def test_onset_at_the_bracket_midpoint_without_a_rise_to_interpolate(self, amps, onset):
        # no later record with a larger amplitude: nothing to interpolate
        records = [
            SweepRecord(T=T, d=T + 10, branch="+", delta_rho_max=amp, theta_max=amp,
                        energy=0.0, morse_index=None, converged=True)
            for T, amp in zip((-10.0, -10.02, -10.04), amps)
        ]
        assert detect_transitions(records) == (onset, onset)

    def test_coarse_tilt_sweep_onset_inside_bracket(self, tilt_params):
        # the tilt jumps on between -11.6 and -11.8; unclamped, the squared
        # amplitudes extrapolate to T = -11.456
        records = sweep_temperature(RunConfig(tilt_params), cooling_grid(-11.4, -12.0, 0.2))
        amps = [r.theta_max for r in records if r.branch == "+"]
        assert amps[1] < EPS_DETECT <= amps[2]
        _, t_hssc = detect_transitions(records)
        assert -11.8 <= t_hssc <= -11.6


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
        # theta is defined modulo pi: the mean tilt is that of the canonical
        # state, in [0, pi/2], and not a representative shifted by k*pi
        p = fig3_params.with_d(-5.0)
        for n_modes in (32, 64):
            records = elastic_sweep(RunConfig(p, n_modes=n_modes), [0.0025, 0.25], vary="k")
            assert all(0.0 <= r.theta_bar <= math.pi / 2 for r in records)
            assert records[-1].theta_bar < 1e-3
            assert records[0].theta_bar == pytest.approx(0.8610, abs=1e-3)

    def test_large_lambda_saturates_tilt(self, fig3_params):
        p = fig3_params.with_d(-5.0)
        records = elastic_sweep(RunConfig(p, n_modes=32), [0.05, 0.5], vary="lambda")
        assert records[-1].theta_bar == pytest.approx(math.pi / 2 - p.theta0, abs=0.05)
        assert records[0].theta_bar <= records[-1].theta_bar

    def test_zero_coupling_means_no_tilt(self, fig3_params):
        p = replace(fig3_params.with_d(-5.0), lambda1=0.0, lambda2=0.0)
        records = elastic_sweep(RunConfig(p, n_modes=32), [0.025], vary="k")
        assert records[0].theta_bar < 1e-6

    def test_unknown_axis_rejected(self, fig3_params):
        with pytest.raises(ValueError, match="vary"):
            elastic_sweep(RunConfig(fig3_params), [0.1], vary="mu")

    @pytest.mark.parametrize("vary", ["k", "lambda"])
    def test_bad_value_rejected_before_any_relaxation(self, fig3_params, monkeypatch, vary):
        calls = []
        module = importlib.import_module("smectic1d.minimize")
        original = module.minimize
        monkeypatch.setattr(module, "minimize", lambda *a, **k: calls.append(1) or original(*a, **k))
        with pytest.raises(ValueError, match="finite"):
            elastic_sweep(RunConfig(fig3_params.with_d(-5.0), n_modes=32), [0.025, math.nan], vary=vary)
        assert calls == []


class TestFreshSeeds:
    """Each sweep builds its fresh seeds once, and every point relaxes the seeds its own parameters give."""

    @staticmethod
    def _count_seeds(monkeypatch):
        from smectic1d import sweep

        built = []
        original = sweep.seed_state
        monkeypatch.setattr(sweep, "seed_state", lambda kind, *a: built.append(kind) or original(kind, *a))
        return built

    @pytest.mark.parametrize("cold_start", [False, True], ids=["warm", "cold"])
    def test_temperature_sweep(self, fig3_params, monkeypatch, cold_start):
        from smectic1d.sweep import SWEEP_SEEDS, _relax

        config, temps = RunConfig(fig3_params, n_modes=16), [-10.3, -10.45, -10.6]
        # the reference builds the seeds at each point, from that point's parameters
        expected, warm = [], None
        for t_val in temps:
            p = fig3_params.at_temperature(t_val)
            seeds = [seed_state(kind, p, 16) for kind in SWEEP_SEEDS]
            state, energy_val, converged = _relax(seeds if cold_start or warm is None else [warm, *seeds], p)
            warm = state if converged else warm
            expected.append((energy_val, converged, float(np.max(state.theta_values())), float(np.max(state.rho_values()))))
        built = self._count_seeds(monkeypatch)
        records = sweep_temperature(config, temps, cold_start=cold_start)
        assert sorted(built) == sorted(SWEEP_SEEDS)
        plus = [(r.energy, r.converged, r.theta_max, r.delta_rho_max) for r in records if r.branch == "+"]
        assert plus == expected

    @pytest.mark.parametrize("vary", ["k", "lambda"])
    def test_elastic_sweep(self, fig3_params, monkeypatch, vary):
        from smectic1d.sweep import ELASTIC_SEEDS, _relax

        p0, values = fig3_params.with_d(-5.0), [0.01, 0.05]
        expected = []
        for v in values:
            p = replace(p0, **({"k1": v, "k2": v, "k3": v} if vary == "k" else {"lambda1": v, "lambda2": v}))
            state, energy_val, converged = _relax([seed_state(kind, p, 16) for kind in ELASTIC_SEEDS], p)
            expected.append((float(state.theta_c[0]), float(np.max(state.rho_values())), energy_val, converged))
        built = self._count_seeds(monkeypatch)
        records = elastic_sweep(RunConfig(p0, n_modes=16), values, vary=vary)
        assert sorted(built) == sorted(ELASTIC_SEEDS)
        assert [(r.theta_bar, r.delta_rho_max, r.energy, r.converged) for r in records] == expected

    def test_an_unrepresentable_layer_mode_is_refused_before_the_first_point(self, fig3_params):
        # the seeds are built before the loop, so an empty sweep refuses them too
        config = RunConfig(replace(fig3_params, q=8.0), n_modes=4)  # n0 = 8 > N+1 = 5
        with pytest.raises(ValueError, match="representable"):
            sweep_temperature(config, [])
        with pytest.raises(ValueError, match="representable"):
            elastic_sweep(config, [], vary="k")
