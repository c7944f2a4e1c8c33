import math

import numpy as np
import pytest

from smectic1d import (
    Evaluator,
    ModelParams1D,
    analytic_cholesteric_spectrum,
    d_critical,
    default_grid,
    hessian,
    minimize,
    morse_index_analytic,
    optimal_constant_tilt,
    second_variation_tilt,
    seed_state,
    spectrum,
    synthesize,
    theta_star,
    tilt_thresholds,
)
from smectic1d.spectral import gram_diagonal
from smectic1d.stability import HESSIAN_FD_STEP, frozen_layer_state


def _bulk_offset(p: ModelParams1D) -> float:
    return 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4


def _restricted_analytic(p: ModelParams1D, n: int) -> np.ndarray:
    """Closed-form eigenvalues restricted to the discretized basis."""
    modes = analytic_cholesteric_spectrum(p, n + 1)
    vals = [m.value for m in modes if m.kind == "rho_sin"] + [m.value for m in modes if m.kind == "theta"]
    return np.sort(np.array(vals))


class TestHessian:
    def test_block_diagonal_at_trivial_state(self):
        p = ModelParams1D().with_d(-0.2)
        h = hessian(seed_state("cholesteric", p, 16), p)
        theta_dim = 18
        cross = h[:theta_dim, theta_dim:]
        assert np.max(np.abs(cross)) < 1e-8

    def test_diagonal_entries_match_closed_form(self):
        p = ModelParams1D().with_d(-0.2)
        n = 16
        h = hessian(seed_state("cholesteric", p, n), p)
        gram = gram_diagonal(n, p.h)
        for mode in range(1, 6):
            # theta mode: 2 k1 ((2 pi n / h)^2 + sigma^2) per unit L2 norm
            omega2 = (2.0 * math.pi * mode / p.h) ** 2
            assert h[mode, mode] / gram[mode] == pytest.approx(
                2.0 * p.k1 * (omega2 + p.sigma**2), rel=1e-8
            )
            # rho mode: d + bulk offset + 2 lambda1 (omega^2 - q^2)^2
            idx = (n + 2) + (mode - 1)
            assert h[idx, idx] / gram[idx] == pytest.approx(
                p.d + _bulk_offset(p) + 2.0 * p.lambda1 * (omega2 - p.q**2) ** 2, rel=1e-8
            )

    def test_symmetric(self):
        p = ModelParams1D().with_d(-0.5)
        state, _ = minimize(seed_state("smectic-seed", p, 16), p)
        h = hessian(state, p)
        assert np.array_equal(h, h.T)

    def test_asymmetry_before_symmetrization(self):
        # the raw central-difference column matrix, before hessian()
        # symmetrizes it, is symmetric to the finite-difference noise floor
        p = ModelParams1D().with_d(-0.5)
        state, _ = minimize(seed_state("smectic-seed", p, 16), p)
        ev = Evaluator(16, p)
        x = state.pack()
        delta = HESSIAN_FD_STEP * max(1.0, float(np.max(np.abs(x))))
        raw = np.empty((x.size, x.size))
        for j in range(x.size):
            step = np.zeros(x.size)
            step[j] = delta
            raw[:, j] = (ev.gradient(x + step) - ev.gradient(x - step)) / (2.0 * delta)
        scale = np.max(np.abs(raw))
        assert np.max(np.abs(raw - raw.T)) / scale < 1e-6


class TestSpectrum:
    def test_stable_trivial_state(self):
        p = ModelParams1D().with_d(-0.2)
        report = spectrum(seed_state("cholesteric", p, 64), p)
        assert report.morse_index == 0
        assert report.min_eigenvalue == pytest.approx(0.1992209, abs=1e-6)

    def test_unstable_trivial_state(self):
        p = ModelParams1D().with_d(-0.5)
        report = spectrum(seed_state("cholesteric", p, 64), p)
        assert report.min_eigenvalue == pytest.approx(-0.1007791, abs=1e-6)
        assert report.morse_index == 2  # layer modes 3 and 4

    def test_minimizer_is_second_order_stable(self):
        p = ModelParams1D().with_d(-0.5)
        state, _ = minimize(seed_state("smectic-seed", p, 64), p)
        report = spectrum(state, p)
        assert report.morse_index == 0
        assert report.min_eigenvalue >= -1e-8

    def test_matches_analytic_at_trivial_state(self):
        n = 32
        for d in (-0.2, -0.5):
            p = ModelParams1D().with_d(d)
            report = spectrum(seed_state("cholesteric", p, n), p)
            expected = _restricted_analytic(p, n)
            rel = np.abs(report.eigenvalues - expected) / np.maximum(np.abs(expected), 1e-30)
            assert np.max(rel) < 1e-6


class TestAnalyticSpectrum:
    def test_constant_mode_value(self):
        p = ModelParams1D().with_d(-0.5)
        modes = analytic_cholesteric_spectrum(p, 8)
        const = [m for m in modes if m.kind == "rho_const"]
        assert len(const) == 1
        assert const[0].value == pytest.approx(0.4112209, abs=1e-6)

    def test_theta_constant_mode(self):
        p = ModelParams1D().with_d(-0.5)
        modes = analytic_cholesteric_spectrum(p, 8)
        theta0 = [m for m in modes if m.kind == "theta" and m.n == 0]
        assert theta0[0].value == pytest.approx(0.8, abs=1e-12)

    def test_layer_mode_is_degenerate_pair(self):
        p = ModelParams1D().with_d(-0.5)
        modes = analytic_cholesteric_spectrum(p, 8)
        pair = [m for m in modes if m.n == p.n0 and m.kind in ("rho_sin", "rho_cos")]
        assert len(pair) == 2
        assert pair[0].value == pair[1].value == pytest.approx(p.d + _bulk_offset(p), abs=1e-15)

    def test_n_max_below_n0_rejected(self):
        p = ModelParams1D()
        with pytest.raises(ValueError, match="n_max"):
            analytic_cholesteric_spectrum(p, 3)


class TestMorseIndex:
    def test_examples(self):
        base = ModelParams1D()
        assert morse_index_analytic(base.with_d(-0.2)) == 0
        assert morse_index_analytic(base.with_d(-0.5)) == 4
        assert morse_index_analytic(base.with_d(-0.39922)) == 0

    def test_restriction_mapping_across_d_grid(self):
        base = ModelParams1D()
        n = 32
        for i in range(61):
            d = -1.0 + 0.02 * i
            p = base.with_d(d)
            report = spectrum(seed_state("cholesteric", p, n), p)
            negative_layer_modes = sum(
                1 for m in analytic_cholesteric_spectrum(p, n + 1) if m.kind == "rho_sin" and m.value < 0
            )
            assert report.morse_index == negative_layer_modes, d
            m0 = 1 if p.d + _bulk_offset(p) + 2.0 * p.lambda1 * p.q**4 < 0 else 0
            assert morse_index_analytic(p) == 2 * negative_layer_modes + m0, d

    def test_monotone_in_d(self):
        base = ModelParams1D()
        indices = [morse_index_analytic(base.with_d(-1.0 + 0.02 * i)) for i in range(61)]
        assert all(a >= b for a, b in zip(indices, indices[1:]))

    def test_lambda1_zero_divergence(self):
        p = ModelParams1D(lambda1=0.0).with_d(-1.0)
        with pytest.raises(ValueError, match="diverges"):
            morse_index_analytic(p)


class TestThresholds:
    def test_d_critical(self):
        p = ModelParams1D()
        assert d_critical(p) == pytest.approx(-0.3992209, abs=1e-7)
        assert d_critical(ModelParams1D(lambda2=0.0)) == 0.0

    def test_d_critical_vanishes_at_right_angle_tilt(self):
        p = ModelParams1D(theta0=math.pi / 2 - 1e-9)
        assert abs(d_critical(p)) < 1e-30

    def test_tilt_thresholds_values(self):
        p = ModelParams1D()
        t1, t2 = tilt_thresholds(p)
        assert t1 == pytest.approx(0.940609, abs=1e-6)
        assert t2 == pytest.approx(1.330222, abs=1e-6)
        assert t2 == pytest.approx(math.sqrt(2.0) * t1, rel=1e-12)  # sin(2 q h) = 0 here

    def test_doubling_k_scales_by_sqrt2(self):
        p = ModelParams1D()
        p2 = ModelParams1D(k1=2 * p.k1, k2=2 * p.k2, k3=2 * p.k3)
        t1, t2 = tilt_thresholds(p)
        u1, u2 = tilt_thresholds(p2)
        assert u1 == pytest.approx(math.sqrt(2.0) * t1, rel=1e-12)
        assert u2 == pytest.approx(math.sqrt(2.0) * t2, rel=1e-12)

    def test_divergence_as_tilt_opens(self):
        p = ModelParams1D(theta0=math.pi / 2 - 1e-6)
        t1, _ = tilt_thresholds(p)
        assert t1 > 1e2

    def test_lambda2_zero_gives_infinite_thresholds(self):
        t1, t2 = tilt_thresholds(ModelParams1D(lambda2=0.0))
        assert math.isinf(t1) and math.isinf(t2)


class TestThetaStar:
    def test_value_at_t2(self):
        p = ModelParams1D()
        assert theta_star(2.0, p) == pytest.approx(0.7778, abs=1e-3)

    def test_clamped_below_t2(self):
        p = ModelParams1D()
        _, t2 = tilt_thresholds(p)
        for t in (0.0, 0.5, 0.999999 * t2):
            assert theta_star(t, p) == 0.0
        # at t2 itself the argument is an exact zero up to rounding
        assert theta_star(t2, p) == pytest.approx(0.0, abs=1e-7)

    def test_limit(self):
        p = ModelParams1D()
        assert theta_star(1e9, p) == pytest.approx(math.pi / 2 - p.theta0, abs=1e-9)
        assert math.pi / 2 - p.theta0 == pytest.approx(1.2217305, abs=1e-7)

    def test_monotone_and_bounded(self):
        p = ModelParams1D()
        ts = np.linspace(0.0, 20.0, 200)
        vals = [theta_star(t, p) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= math.pi / 2 - p.theta0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            theta_star(-1.0, ModelParams1D())

    def test_consistency_with_numeric_minimization(self):
        p = ModelParams1D()
        for t in (0.5, 1.0, 1.5, 2.0, 4.0):
            assert optimal_constant_tilt(t, p) == pytest.approx(theta_star(t, p), abs=1e-4)


class TestSecondVariationTilt:
    def test_constant_perturbation_closed_form(self):
        p = ModelParams1D()
        grid = default_grid(16, p.h)
        for t in (0.5, 1.2, 1.5):
            got = second_variation_tilt(t, p, np.ones(grid.m), grid)
            expected = 2.0 * p.h * (p.k1 * p.sigma**2 - p.lambda2 * t * t * p.q**4 * math.cos(p.theta0) ** 2)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_positive_without_layering(self):
        p = ModelParams1D()
        grid = default_grid(16, p.h)
        rng = np.random.default_rng(41)
        for _ in range(10):
            tb = synthesize(rng.normal(size=8), "cosine", grid)
            assert second_variation_tilt(0.0, p, tb, grid) > 0.0

    def test_positive_below_pointwise_bound(self):
        p = ModelParams1D()
        t1, _ = tilt_thresholds(p)
        grid = default_grid(16, p.h)
        rng = np.random.default_rng(43)
        for _ in range(10):
            tb = synthesize(rng.normal(size=8), "cosine", grid)
            assert second_variation_tilt(0.9 * t1, p, tb, grid) > 0.0

    def test_matches_hessian_quadratic_form(self):
        p = ModelParams1D()
        n = 16
        t = 0.7
        state = frozen_layer_state(t, 0.0, p, n)
        h = hessian(state, p)
        grid = default_grid(n, p.h)
        rng = np.random.default_rng(45)
        c = np.zeros(n + 2)
        c[:6] = rng.normal(size=6) * 0.5
        tb = synthesize(c, "cosine", grid)
        quad = float(c @ h[: n + 2, : n + 2] @ c)
        assert second_variation_tilt(t, p, tb, grid) == pytest.approx(quad, rel=1e-6)
