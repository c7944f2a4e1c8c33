import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic1d import (
    Evaluator,
    ModelParams1D,
    SolverError,
    SpectralState,
    d_critical,
    energy,
    gradient,
    minimize,
    seed_state,
)
from smectic1d.minimize import INTERP_LO, MEMORY, TOL_GRAD, _interpolated

from crosscheck import OFF_DEFAULT, OFF_HEIGHT

#: The minimizer module, whose MAX_ITERS a test lowers (the package attribute
#: ``smectic1d.minimize`` is the function).
MINIMIZER = importlib.import_module("smectic1d.minimize")


class _Recording(Evaluator):
    """Records the energy at every gradient call: the accepted energies."""

    def __init__(self, *args):
        super().__init__(*args)
        self.history = []

    def gradient(self, vec):
        self.history.append(self.energy(vec))
        return super().gradient(vec)


class _Counting(Evaluator):
    """Counts the energy calls of one relaxation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.energy_calls = 0

    def energy(self, vec):
        self.energy_calls += 1
        return super().energy(vec)


class _Stalling(Evaluator):
    """Gives every trial point after ``accepted`` accepted steps an infinite energy, so the line search stalls."""

    def __init__(self, n, params, accepted):
        super().__init__(n, params)
        self.accepted, self.gradient_calls = accepted, 0

    def energy(self, vec):
        # minimize calls gradient at the start and once per accepted step
        return math.inf if self.gradient_calls > self.accepted else super().energy(vec)

    def gradient(self, vec):
        self.gradient_calls += 1
        return super().gradient(vec)


class TestSeeds:
    def test_cholesteric_zeros(self):
        p = ModelParams1D()
        state = seed_state("cholesteric", p, 64)
        assert np.all(state.pack() == 0.0)

    def test_smectic_seed(self):
        p = ModelParams1D()
        state = seed_state("smectic-seed", p, 64)
        assert state.theta_c[0] == 0.01
        assert state.rho_s[p.n0 - 1] == 0.1
        assert np.count_nonzero(state.pack()) == 2

    def test_conical_seed(self):
        p = ModelParams1D()
        state = seed_state("conical-seed", p, 64)
        assert state.theta_c[0] == pytest.approx(1.2217305, abs=1e-7)
        assert state.rho_s[p.n0 - 1] == 0.1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="seed"):
            seed_state("bogus", ModelParams1D(), 64)

    def test_layer_mode_must_be_representable(self):
        p = ModelParams1D(q=8.0)  # n0 = 8 > N+1 = 5 at N = 4
        with pytest.raises(ValueError, match="representable"):
            seed_state("smectic-seed", p, 4)


class TestMinimize:
    def test_stable_trivial_state_converges_immediately(self):
        p = ModelParams1D().with_d(-0.2)
        state, report = minimize(seed_state("cholesteric", p, 64), p)
        assert report.converged
        assert report.iterations == 0
        assert report.final_energy == pytest.approx(-p.k2 * p.sigma**2 * p.h, abs=1e-12)

    def test_layered_minimizer(self):
        p = ModelParams1D().with_d(-0.5)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        amp = float(np.max(state.rho_values()))
        # single-mode Galerkin amplitude sqrt(-4 (d - d0) / (3 f))
        oracle = math.sqrt(-4.0 * (p.d - d_critical(p)) / (3.0 * p.f))
        assert amp == pytest.approx(oracle, rel=0.05)
        assert float(np.max(np.abs(state.theta_values()))) < 1e-3
        assert report.final_energy < -p.k2 * p.sigma**2 * p.h

    @pytest.mark.parametrize("gap", [1e-2, 1e-3])
    def test_layered_minimizer_off_the_default_point(self, gap):
        # just below the pitchfork d0 the amplitude is sqrt(4 (d0 - d) / (3 f))
        # up to a relative O(d0 - d): here 5.2e-6 and 4.8e-7 at N = 32
        off = ModelParams1D(**OFF_DEFAULT)
        p = off.with_d(d_critical(off) - gap)
        state, report = minimize(seed_state("smectic-seed", p, 32), p)
        assert report.converged
        amp = float(np.max(state.rho_values()))
        assert amp == pytest.approx(math.sqrt(4.0 * gap / (3.0 * p.f)), rel=1e-4)
        assert float(np.max(np.abs(state.theta_values()))) < 1e-9

    @pytest.mark.parametrize("gap", [1e-3, 5e-4])
    def test_layered_minimizer_at_another_cell_height(self, gap):
        # on the h = 3 pi cell the layer mode is n0 = 3; a solver that takes
        # mode k's frequency as k instead of 2 pi k / h relaxes elsewhere.
        # Here d0 = -0.0148, and the amplitude is off by 2.2e-5 and 2.0e-5
        # (4.1e-4 at a gap of 1e-2, 1.4e-4 at 1e-4, where the gradient
        # tolerance limits it)
        off = ModelParams1D(**OFF_HEIGHT)
        p = off.with_d(d_critical(off) - gap)
        state, report = minimize(seed_state("smectic-seed", p, 32), p)
        assert report.converged
        amp = float(np.max(state.rho_values()))
        assert amp == pytest.approx(math.sqrt(4.0 * gap / (3.0 * p.f)), rel=1e-4)
        assert float(np.max(np.abs(state.theta_values()))) < 1e-9

    def test_mirrored_seed_gives_equal_energy(self):
        p = ModelParams1D().with_d(-0.5)
        plus = seed_state("smectic-seed", p, 64)
        minus = SpectralState(n=64, h=p.h, theta_c=plus.theta_c, rho_s=-plus.rho_s)
        _, rp = minimize(plus, p)
        _, rm = minimize(minus, p)
        assert abs(rp.final_energy - rm.final_energy) < 1e-12

    def test_convergence_certificate(self):
        p = ModelParams1D().with_d(-0.5)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        # recompute the gradient independently of the solver's bookkeeping
        g = gradient(state, p)
        assert float(np.max(np.abs(g))) <= TOL_GRAD
        assert float(np.max(np.abs(g))) == report.final_grad_norm

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(ModelParams1D().with_d(-0.5), id="d-0.5"),
            # below the tilt onset: the relaxation accepts uphill steps
            pytest.param(ModelParams1D().at_temperature(-22.0), id="T-22.0"),
        ],
    )
    def test_nonmonotone_acceptance_bound(self, p):
        # minimize calls gradient once per accepted point, so the energies at
        # those calls are the accepted energy history; each accepted energy
        # may exceed the largest of the previous MEMORY accepted energies by
        # at most the line search's slack of a few ulps of the current one
        ev = _Recording(64, p)
        _, report = minimize(seed_state("smectic-seed", p, 64), p, evaluator=ev)
        assert report.converged
        history = ev.history
        assert len(history) == report.iterations + 1
        assert history[-1] == report.final_energy
        assert report.final_energy <= history[0]
        eps = np.finfo(float).eps
        for k in range(1, len(history)):
            window = history[max(0, k - MEMORY) : k]
            assert history[k] <= max(window) + 4.0 * eps * max(1.0, abs(history[k - 1]))

    def test_max_iters_after_an_uphill_step_returns_the_best_iterate(self, monkeypatch):
        # below the tilt onset the smectic seed's relaxation accepts steps
        # that raise the energy; stopped right after one, minimize returns
        # the lowest-energy iterate accepted so far, not the last one
        p = ModelParams1D().at_temperature(-22.0)
        ev = _Recording(64, p)
        _, full = minimize(seed_state("smectic-seed", p, 64), p, evaluator=ev)
        assert full.converged
        uphill = [k for k in range(1, len(ev.history)) if ev.history[k] > ev.history[k - 1]]
        assert len(uphill) >= 5
        k = uphill[0]
        monkeypatch.setattr(MINIMIZER, "MAX_ITERS", k)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert not report.converged
        assert report.iterations == k
        assert report.final_energy == min(ev.history[: k + 1]) < ev.history[k]
        assert report.final_energy == Evaluator(64, p).energy(state.pack())
        assert report.final_grad_norm == float(np.max(np.abs(gradient(state, p))))

    def test_determinism(self):
        p = ModelParams1D().with_d(-0.5)
        s1, r1 = minimize(seed_state("smectic-seed", p, 64), p)
        s2, r2 = minimize(seed_state("smectic-seed", p, 64), p)
        assert np.array_equal(s1.pack(), s2.pack())
        assert r1 == r2

    def test_smectic_seed_below_the_layering_onset_work_count(self):
        # the seed leaves a saddle here, so BB meets s.y <= 0 early on; a
        # fixed 1e-2 restart step after it took 394 steps, the longest step
        # cut down by backtracking takes 117 under a monotone Armijo test
        # (238 energy calls) and 112 under the nonmonotone one (161), which
        # keeps most first BB trials that the monotone test cut back
        p = ModelParams1D().at_temperature(-21.8)
        ev = _Counting(64, p)
        _, report = minimize(seed_state("smectic-seed", p, 64), p, evaluator=ev)
        assert report.converged
        assert report.iterations <= 200
        assert ev.energy_calls <= 170

    def test_smectic_seed_at_the_k001_tilt_onset_work_count(self):
        # the tilt direction's curvature nearly vanishes here, so BB meets
        # s.y <= 0 again and again; halving each restart step down from
        # STEP_MAX took 3,802 steps, cutting it by safeguarded quadratic
        # interpolation takes 2,367.  The count follows the last bits of d:
        # at T = -15.219999999999999 (d 2 ulps higher) it is 5,056 (4,385
        # with halving)
        k = 0.01
        p = replace(ModelParams1D(), k1=k, k2=k, k3=k).at_temperature(-15.22)
        _, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        assert report.iterations <= 3000

    def test_rejects_a_state_of_another_cell_height(self):
        # relaxed on the 2 pi model, an h = pi state would come back labelled h = pi
        state0 = seed_state("smectic-seed", ModelParams1D(h=math.pi), 16)
        with pytest.raises(ValueError, match="cell height"):
            minimize(state0, ModelParams1D())

    @pytest.mark.parametrize("other", ["params", "N"])
    def test_rejects_an_evaluator_of_other_parameters(self, other):
        # an evaluator of T = -11.5 relaxed a T = -10.5 state to the -11.5
        # energy and called it converged; one of another N failed inside matmul
        a = ModelParams1D().at_temperature(-10.5)
        evaluator = Evaluator(16, a.at_temperature(-11.5)) if other == "params" else Evaluator(32, a)
        with pytest.raises(ValueError, match="evaluator was built for other parameters"):
            minimize(seed_state("smectic-seed", a, 16), a, evaluator=evaluator)

    def test_max_iters_reports_not_converged(self, monkeypatch):
        p = ModelParams1D().with_d(-0.5)
        monkeypatch.setattr(MINIMIZER, "MAX_ITERS", 2)
        _, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_a_stalled_line_search_counts_the_accepted_steps(self, monkeypatch, k):
        # a stall after k accepted steps returns what stopping at MAX_ITERS = k
        # returns; the step whose line search stalled used to count too, k + 1
        p = ModelParams1D().with_d(-0.5)
        seed = seed_state("smectic-seed", p, 64)
        state, report = minimize(seed, p, evaluator=_Stalling(64, p, k))
        assert not report.converged
        assert report.iterations == k
        if k:
            monkeypatch.setattr(MINIMIZER, "MAX_ITERS", k)
            stopped, at_max_iters = minimize(seed, p)
            assert report == at_max_iters
            assert state.pack().tobytes() == stopped.pack().tobytes()
        else:
            assert report.final_energy == Evaluator(64, p).energy(seed.pack())
            assert state.pack().tobytes() == seed.pack().tobytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_error_on_nonfinite_start(self):
        p = ModelParams1D()
        vec = np.zeros(35)
        vec[18 + 3] = 1e200  # quartic overflows to inf
        state = SpectralState.from_vector(vec, 16, p.h)
        with pytest.raises(SolverError):
            minimize(state, p)

    def test_energy_never_increases_against_start(self, monkeypatch):
        p = ModelParams1D().with_d(-0.8)
        monkeypatch.setattr(MINIMIZER, "MAX_ITERS", 500)
        rng = np.random.default_rng(33)
        for _ in range(5):
            state0 = SpectralState.from_vector(rng.normal(size=131) * 0.1, 64, p.h)
            e0 = energy(state0, p).total
            _, report = minimize(state0, p)
            assert report.final_energy <= e0


class TestBarzilaiBorwein:
    # the slowest smectic-seed relaxations of a scan over k in {0.025, 0.01,
    # 0.0025} at T = -9 .. -24, warm sweeps through the onsets, k and lambda
    # elastic sweeps, N = 16..128 and e in {0.05, 0.5}: BB alone converged
    # in 245, 202 and 154 steps under a monotone Armijo test, and converges
    # in 219, 85 and 132 under the nonmonotone one
    @pytest.mark.parametrize(
        "p",
        [
            pytest.param(replace(ModelParams1D(), k1=0.01, k2=0.01, k3=0.01).at_temperature(-15.25), id="k0.01-T-15.25"),
            pytest.param(replace(ModelParams1D().with_d(-4.5), lambda1=1.0, lambda2=1.0), id="d-4.5-lambda1"),
            pytest.param(ModelParams1D().at_temperature(-21.5), id="k0.025-T-21.5"),
        ],
    )
    def test_slowest_smectic_seeds_converge(self, p):
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        assert report.iterations < 500
        assert state.theta_in_range()


class TestInterpolatedRestart:
    """The cut-down step after a rejected restart trial, :func:`smectic1d.minimize._interpolated`."""

    # at alpha = 8, e = -1 and slope -0.5 the chord reaches e - 4 = -5
    ALPHA, E, SLOPE = 8.0, -1.0, -0.5

    @pytest.mark.parametrize("e_new", [math.inf, math.nan, -5.0, -6.0], ids=["inf", "nan", "linear", "concave"])
    def test_fallback_without_a_quadratic_minimum(self, e_new):
        # a non-finite rejected energy, or a quadratic of zero or negative
        # curvature (e_new at or below the chord), gives the lower safeguard
        assert _interpolated(self.ALPHA, self.E, self.SLOPE, e_new) == INTERP_LO * self.ALPHA


class TestCanonicalForm:
    """theta is defined modulo pi and the energy is even in it; minimize returns one representative."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        theta0=st.floats(-3 * math.pi, 3 * math.pi),
        rest=st.lists(st.floats(-1.0, 1.0), min_size=2 * 16 + 2, max_size=2 * 16 + 2),
    )
    def test_canonical_representative(self, theta0, rest):
        p = ModelParams1D().with_d(-5.0)
        state = SpectralState.from_vector(np.array([theta0, *rest]), 16, p.h)
        canon = state.canonical()
        assert 0.0 <= canon.theta_c[0] <= math.pi / 2
        assert canon.rho_s.tobytes() == state.rho_s.tobytes()
        assert canon.canonical().pack().tobytes() == canon.pack().tobytes()
        e = energy(state, p).total
        assert energy(canon, p).total == pytest.approx(e, rel=0.0, abs=1e-12 * max(1.0, abs(e)))

    @pytest.mark.parametrize("max_iters", [1, 1_000_000])
    def test_minimize_returns_the_canonical_state(self, monkeypatch, max_iters):
        # a conical seed shifted by -pi relaxes to a mean tilt near 0.86 - pi
        # at k = 0.0025; both exits (stopped and converged) fold it back
        p = replace(ModelParams1D().with_d(-5.0), k1=0.0025, k2=0.0025, k3=0.0025)
        seed = seed_state("conical-seed", p, 16)
        theta_c = seed.theta_c.copy()
        theta_c[0] -= math.pi
        monkeypatch.setattr(MINIMIZER, "MAX_ITERS", max_iters)
        state, report = minimize(replace(seed, theta_c=theta_c), p)
        assert 0.0 <= state.theta_c[0] <= math.pi / 2
        assert report.final_energy == pytest.approx(energy(state, p).total, rel=1e-12)
