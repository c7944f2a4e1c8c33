import math

import numpy as np
import pytest

from smectic1d import (
    DivergenceError,
    MinimizeOptions,
    ModelParams1D,
    SpectralState,
    default_grid,
    d_critical,
    gradient,
    minimize,
    seed_state,
)


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
        grid = default_grid(64, p.h)
        amp = float(np.max(state.rho_values(grid)))
        # single-mode Galerkin amplitude sqrt(-4 (d - d0) / (3 f))
        oracle = math.sqrt(-4.0 * (p.d - d_critical(p)) / (3.0 * p.f))
        assert amp == pytest.approx(oracle, rel=0.05)
        assert float(np.max(np.abs(state.theta_values(grid)))) < 1e-3
        assert report.final_energy < -p.k2 * p.sigma**2 * p.h

    def test_mirrored_seed_gives_equal_energy(self):
        p = ModelParams1D().with_d(-0.5)
        plus = seed_state("smectic-seed", p, 64)
        minus = SpectralState(n=64, h=p.h, theta_c=plus.theta_c, rho_s=-plus.rho_s)
        _, rp = minimize(plus, p)
        _, rm = minimize(minus, p)
        assert abs(rp.final_energy - rm.final_energy) < 1e-12

    def test_convergence_certificate(self):
        p = ModelParams1D().with_d(-0.5)
        opts = MinimizeOptions()
        state, report = minimize(seed_state("smectic-seed", p, 64), p, opts)
        assert report.converged
        # recompute the gradient independently of the solver's bookkeeping
        g = gradient(state, p)
        assert float(np.max(np.abs(g))) <= opts.tol_grad
        assert float(np.max(np.abs(g))) == report.final_grad_norm

    def test_monotone_descent_flag(self):
        p = ModelParams1D().with_d(-0.5)
        _, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.energy_history_decreasing

    def test_determinism(self):
        p = ModelParams1D().with_d(-0.5)
        s1, r1 = minimize(seed_state("smectic-seed", p, 64), p)
        s2, r2 = minimize(seed_state("smectic-seed", p, 64), p)
        assert np.array_equal(s1.pack(), s2.pack())
        assert r1 == r2

    def test_max_iters_reports_not_converged(self):
        p = ModelParams1D().with_d(-0.5)
        _, report = minimize(seed_state("smectic-seed", p, 64), p, MinimizeOptions(max_iters=2))
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_error_on_nonfinite_start(self):
        p = ModelParams1D()
        vec = np.zeros(35)
        vec[18 + 3] = 1e200  # quartic overflows to inf
        state = SpectralState.from_vector(vec, 16, p.h)
        with pytest.raises(DivergenceError):
            minimize(state, p)

    def test_energy_never_increases_against_start(self):
        p = ModelParams1D().with_d(-0.8)
        rng = np.random.default_rng(33)
        for _ in range(5):
            state0 = SpectralState.from_vector(rng.normal(size=131) * 0.1, 64, p.h)
            from smectic1d import energy

            e0 = energy(state0, p).total
            _, report = minimize(state0, p, MinimizeOptions(max_iters=500))
            assert report.final_energy <= e0


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinimizeOptions(tol_grad=0.0)
        with pytest.raises(ValueError):
            MinimizeOptions(max_iters=0)
