import math

import numpy as np
import pytest

from smectic1d import (
    Evaluator,
    ModelParams1D,
    SpectralState,
    default_grid,
    el_residual,
    energy,
    gradient,
    minimize,
    reconstruct_director,
    seed_state,
    synthesize,
)

TWO_PI = 2.0 * math.pi


def _single_mode_state(t: float, params: ModelParams1D, n: int = 64, theta0_const: float = 0.0) -> SpectralState:
    theta_c = np.zeros(n + 2)
    rho_s = np.zeros(n + 1)
    theta_c[0] = theta0_const
    rho_s[params.n0 - 1] = t
    return SpectralState(n=n, h=params.h, theta_c=theta_c, rho_s=rho_s)


def _closed_form_energy(t: float, params: ModelParams1D) -> float:
    # trivial baseline -k2 sigma^2 h plus the single-mode contribution
    p = params
    base = -p.k2 * p.sigma**2 * p.h
    quad = (p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4) * t * t * p.h / 4.0
    quart = 3.0 * p.f * t**4 * p.h / 32.0
    return base + quad + quart


class TestEnergy:
    def test_trivial_state_baseline(self):
        p = ModelParams1D()
        eb = energy(seed_state("cholesteric", p, 64), p)
        assert eb.total == pytest.approx(-p.k2 * p.sigma**2 * p.h, abs=1e-12)
        assert eb.total == pytest.approx(-2.5132741, abs=1e-7)

    def test_single_mode_closed_form(self):
        p = ModelParams1D().with_d(-0.5)
        for t in (0.05, 0.1, 0.3):
            eb = energy(_single_mode_state(t, p), p)
            assert eb.total == pytest.approx(_closed_form_energy(t, p), abs=1e-10)

    def test_documented_value(self):
        p = ModelParams1D().with_d(-0.5)
        eb = energy(_single_mode_state(0.1, p), p)
        assert eb.total == pytest.approx(-2.5142681, abs=1e-7)

    def test_layer_component_annihilates_resonant_mode(self):
        p = ModelParams1D()
        for t in (0.1, 0.7):
            eb = energy(_single_mode_state(t, p), p)
            assert abs(eb.layer) < 1e-12

    def test_breakdown_sums(self):
        p = ModelParams1D()
        rng = np.random.default_rng(21)
        for _ in range(10):
            state = SpectralState.from_vector(rng.normal(size=35) * 0.3, 16, p.h)
            eb = energy(state, p)
            parts = eb.elastic_theta + eb.chiral + eb.bulk_smectic + eb.layer + eb.coupling
            assert eb.total == pytest.approx(parts, rel=1e-10)

    def test_mismatched_h_rejected(self):
        p = ModelParams1D()
        state = SpectralState.zeros(16, 1.0)
        with pytest.raises(ValueError, match="cell"):
            energy(state, p)

    def test_grid_too_small_rejected(self):
        from smectic1d import Grid

        p = ModelParams1D()
        state = SpectralState.zeros(16, p.h)
        with pytest.raises(ValueError, match="too small"):
            el_residual(state, p, Grid(32, p.h))


class TestFieldSynthesis:
    @pytest.mark.parametrize("n", [16, 64])
    def test_fields_equal_synthesize_bit_for_bit(self, n):
        # the evaluator and synthesize read the same trig table, so they
        # must agree exactly, not just to rounding
        p = ModelParams1D()
        ev = Evaluator(n, p)
        vec = np.random.default_rng(n).normal(size=2 * n + 3)
        tc, rs = vec[: n + 2], vec[n + 2 :]
        theta, theta_z, rho, rho_zz = ev.fields(vec)
        assert np.array_equal(theta, synthesize(tc, "cosine", ev.grid, 0))
        assert np.array_equal(theta_z, synthesize(tc, "cosine", ev.grid, 1))
        assert np.array_equal(rho, synthesize(rs, "sine", ev.grid, 0))
        assert np.array_equal(rho_zz, synthesize(rs, "sine", ev.grid, 2))


class TestLastPointReuse:
    """The evaluator keeps the terms of the last vector; a stale reuse must not show."""

    def _vectors(self):
        rng = np.random.default_rng(31)
        return rng.normal(size=35) * 0.3, rng.normal(size=35) * 0.3

    def test_in_place_mutation_after_energy(self):
        p = ModelParams1D(d=-0.8)
        x, _ = self._vectors()
        ev = Evaluator(16, p)
        ev.energy(x)
        x[18 + 3] += 0.05
        x[0] -= 0.02
        assert np.array_equal(ev.gradient(x), Evaluator(16, p).gradient(x))
        assert ev.energy(x) == Evaluator(16, p).energy(x)

    def test_alternating_vectors(self):
        p = ModelParams1D(d=-0.8)
        x1, x2 = self._vectors()
        ev = Evaluator(16, p)
        ev.energy(x1)
        assert np.array_equal(ev.gradient(x2), Evaluator(16, p).gradient(x2))
        assert np.array_equal(ev.gradient(x1), Evaluator(16, p).gradient(x1))
        assert ev.breakdown(x1) == Evaluator(16, p).breakdown(x1)


class TestGradient:
    def test_zero_at_trivial_state(self):
        p = ModelParams1D()
        g = gradient(seed_state("cholesteric", p, 64), p)
        assert np.max(np.abs(g)) < 1e-12

    def test_single_mode_component(self):
        p = ModelParams1D().with_d(-0.5)
        t = 0.1
        g = gradient(_single_mode_state(t, p), p)
        idx = (64 + 2) + (p.n0 - 1)
        expected = (p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4) * t * p.h / 2.0 \
            + 3.0 * p.f * t**3 * p.h / 8.0
        assert g[idx] == pytest.approx(expected, abs=1e-10)
        assert g[idx] == pytest.approx(-0.008099, abs=1e-5)

    def test_directional_derivative_matches_finite_differences(self):
        p = ModelParams1D()
        ev = Evaluator(16, p)
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = rng.normal(size=35) * 0.3
            v = rng.normal(size=35)
            v /= np.linalg.norm(v)
            g = ev.gradient(x)
            eps = 1e-6
            fd = (ev.energy(x + eps * v) - ev.energy(x - eps * v)) / (2.0 * eps)
            assert float(g @ v) == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestSymmetries:
    def test_energy_sign_symmetries_exact(self):
        p = ModelParams1D()
        ev = Evaluator(16, p)
        rng = np.random.default_rng(25)
        for _ in range(50):
            x = rng.normal(size=35) * 0.4
            x_theta = x.copy()
            x_theta[:18] = -x_theta[:18]
            x_rho = x.copy()
            x_rho[18:] = -x_rho[18:]
            e = ev.energy(x)
            assert ev.energy(x_theta) == e
            assert ev.energy(x_rho) == e

    def test_gradient_mirror_symmetry_exact(self):
        p = ModelParams1D()
        ev = Evaluator(16, p)
        rng = np.random.default_rng(27)
        for _ in range(50):
            x = rng.normal(size=35) * 0.4
            x_rho = x.copy()
            x_rho[18:] = -x_rho[18:]
            g = ev.gradient(x)
            mirrored = np.concatenate([g[:18], -g[18:]])
            assert np.array_equal(ev.gradient(x_rho), mirrored)

    def test_cubic_term_invisible_to_sine_restricted_energy(self):
        # products of three sine modes integrate to zero over the cell, so a
        # nonzero e cannot shift the energy (or break the sign symmetry) in
        # this space; it does enter the pointwise stationarity residual
        p0 = ModelParams1D()
        pe = ModelParams1D(e=1.0)
        x = np.zeros(35)
        x[18 + 3] = 0.2
        ev0, eve = Evaluator(16, p0), Evaluator(16, pe)
        assert eve.energy(x) == pytest.approx(ev0.energy(x), abs=1e-14)
        x_rho = x.copy()
        x_rho[18:] = -x_rho[18:]
        assert eve.energy(x_rho) == pytest.approx(eve.energy(x), abs=1e-14)
        state = SpectralState.from_vector(x, 16, pe.h)
        _, r_rho_e = el_residual(state, pe)
        _, r_rho_0 = el_residual(state, p0)
        grid = default_grid(16, pe.h)
        rho = state.rho_values(grid)
        assert np.max(np.abs((r_rho_e - r_rho_0) + pe.e * rho * rho)) < 1e-12


class TestEulerLagrangeResidual:
    def test_trivial_state(self):
        p = ModelParams1D()
        r_theta, r_rho = el_residual(seed_state("cholesteric", p, 64), p)
        assert np.max(np.abs(r_theta)) == 0.0
        assert np.max(np.abs(r_rho)) == 0.0

    def test_untilted_layered_state_solves_tilt_equation(self):
        p = ModelParams1D().with_d(-0.5)
        state = _single_mode_state(0.2, p)
        r_theta, r_rho = el_residual(state, p)
        assert np.max(np.abs(r_theta)) == 0.0
        # rho equation reduces pointwise to (d + 2 lam2 q^4 cos^4 t0) rho + f rho^3
        grid = default_grid(64, p.h)
        rho = state.rho_values(grid)
        expected = (p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4) * rho + p.f * rho**3
        assert np.max(np.abs(r_rho - expected)) < 1e-12

    def test_small_at_converged_minimizer(self):
        p = ModelParams1D().with_d(-0.5)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        r_theta, r_rho = el_residual(state, p)
        assert max(np.max(np.abs(r_theta)), np.max(np.abs(r_rho))) < 100.0 * 1e-8

    def test_residual_grows_linearly_with_perturbation(self):
        p = ModelParams1D().with_d(-0.5)
        state, _ = minimize(seed_state("smectic-seed", p, 64), p)
        norms = []
        for eps in (1e-3, 2e-3):
            vec = state.pack().copy()
            vec[66 + 3] += eps
            r_theta, r_rho = el_residual(SpectralState.from_vector(vec, 64, p.h), p)
            norms.append(np.linalg.norm(np.concatenate([r_theta, r_rho])))
        assert norms[1] / norms[0] == pytest.approx(2.0, rel=5e-2)


class TestDirectorReconstruction:
    def test_trivial_state_gives_helix(self):
        p = ModelParams1D()
        grid = default_grid(64, p.h)
        phi, n1, n2, n3 = reconstruct_director(seed_state("cholesteric", p, 64), p, grid)
        z = grid.nodes
        assert np.max(np.abs(phi - p.sigma * z)) < 1e-12
        assert np.max(np.abs(n1 - np.cos(p.sigma * z))) < 1e-12
        assert np.max(np.abs(n2 - np.sin(p.sigma * z))) < 1e-12
        assert np.max(np.abs(n3)) == 0.0

    def test_conical_state(self):
        p = ModelParams1D()
        state = _single_mode_state(0.0, p, theta0_const=math.pi / 2 - p.theta0)
        grid = default_grid(64, p.h)
        phi, n1, n2, n3 = reconstruct_director(state, p, grid)
        # k2 = k3 makes the azimuth advance uniform even at constant tilt
        assert np.max(np.abs(phi - p.sigma * grid.nodes)) < 1e-10
        assert np.max(np.abs(n3 - math.cos(p.theta0))) < 1e-12

    def test_unit_norm_for_random_states(self):
        p = ModelParams1D()
        rng = np.random.default_rng(29)
        grid = default_grid(16, p.h)
        for _ in range(10):
            state = SpectralState.from_vector(rng.normal(size=35) * 0.2, 16, p.h)
            _, n1, n2, n3 = reconstruct_director(state, p, grid)
            assert np.max(np.abs(n1**2 + n2**2 + n3**2 - 1.0)) < 1e-12

    def test_phi_normalized_at_origin(self):
        p = ModelParams1D()
        rng = np.random.default_rng(31)
        state = SpectralState.from_vector(rng.normal(size=35) * 0.2, 16, p.h)
        phi, *_ = reconstruct_director(state, p)
        assert phi[0] == 0.0
