import math
from dataclasses import replace

import numpy as np
import pytest

from smectic1d import (
    Evaluator,
    ModelParams1D,
    SolverError,
    StabilityReport,
    d_critical,
    default_grid,
    minimize,
    seed_state,
    spectrum,
    synthesize,
    theta_star,
    tilt_thresholds,
)
from smectic1d.spectral import gram_diagonal
from smectic1d.minimize import frozen_layer_state
from smectic1d.energy1d import HESSIAN_FD_STEP

from crosscheck import (
    OFF_DEFAULT,
    OFF_HEIGHT,
    analytic_cholesteric_spectrum,
    morse_index_analytic,
    optimal_constant_tilt,
    second_variation_tilt,
)


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
        h = Evaluator(16, p).fd_hessian(seed_state("cholesteric", p, 16).pack())
        theta_dim = 18
        cross = h[:theta_dim, theta_dim:]
        assert np.max(np.abs(cross)) < 1e-8

    def test_diagonal_entries_match_closed_form(self):
        p = ModelParams1D().with_d(-0.2)
        n = 16
        h = Evaluator(n, p).fd_hessian(seed_state("cholesteric", p, n).pack())
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
        h = Evaluator(16, p).fd_hessian(state.pack())
        assert np.array_equal(h, h.T)

    def test_asymmetry_before_symmetrization(self):
        # the raw central-difference column matrix, before fd_hessian()
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

    def test_signed_zero_block_is_synthesized_once_per_move(self, monkeypatch):
        # an untilted layered state with a -0.0 theta block: every probe
        # rests at x + 0.0, so each block is synthesized once at rest and
        # once for each of the four gradients of each of its columns,
        # 4 (N + 2) + 1 = 265 theta and 4 (N + 1) + 1 = 261 rho syntheses at
        # N = 64; a synthesis of both blocks per probe would be 4 (2N + 3) =
        # 524 of each
        syntheses = {"theta": 0, "rho": 0}
        for block in syntheses:
            method = getattr(Evaluator, f"_{block}_terms")

            def counting(self, coefficients, block=block, method=method):
                syntheses[block] += 1
                return method(self, coefficients)

            monkeypatch.setattr(Evaluator, f"_{block}_terms", counting)
        p = ModelParams1D()
        rng = np.random.default_rng(7)
        rho_s = 0.1 * rng.standard_normal(65) / np.arange(1, 66)
        Evaluator(64, p).fd_hessian(np.concatenate((np.full(66, -0.0), rho_s)))
        assert syntheses == {"theta": 265, "rho": 261}

    @pytest.mark.parametrize("kind", ["layered", "untilted", "no-layers"])
    def test_matches_a_reference_built_from_fresh_gradients(self, kind):
        # the reference: each probe is x + 0.0 with one coefficient moved by
        # +-delta or +-2 delta, its gradient comes from a fresh evaluator, and
        # the columns are Richardson-combined as the docstring says
        # a seeded vector with both blocks nonzero (tilt and layers), or with
        # one block set to -0.0
        n = 16
        p = ModelParams1D().with_d(-0.5)
        k = np.concatenate([np.arange(n + 2), np.arange(1, n + 2)])
        x = 0.2 * np.random.default_rng(3).standard_normal(2 * n + 3) / (1.0 + k)
        if kind == "untilted":
            x[: n + 2] = -0.0
        elif kind == "no-layers":
            x[n + 2 :] = -0.0
        delta = HESSIAN_FD_STEP * max(1.0, float(np.max(np.abs(x))))

        def fresh_gradient(j, step):
            probe = x + 0.0
            probe[j] = x[j] + step
            return Evaluator(n, p).gradient(probe)

        ref = np.empty((x.size, x.size))
        for j in range(x.size):
            col_1 = (fresh_gradient(j, delta) - fresh_gradient(j, -delta)) / (2.0 * delta)
            col_2 = (fresh_gradient(j, 2.0 * delta) - fresh_gradient(j, -2.0 * delta)) / (4.0 * delta)
            ref[:, j] = (4.0 * col_1 - col_2) / 3.0
        assert Evaluator(n, p).fd_hessian(x).tobytes() == (0.5 * (ref + ref.T)).tobytes()


class TestExactHessian:
    @pytest.fixture(scope="class")
    def states(self):
        """The five states of the cross-check, at N = 16."""
        n = 16
        base = ModelParams1D()
        layered = base.with_d(-0.5)
        tilted = replace(base.with_d(-5.0), lambda1=0.5, lambda2=0.5)
        cubic = replace(layered, e=0.05)
        relaxed = {
            name: (minimize(seed_state(kind, p, n), p)[0], p)
            for name, kind, p in (
                ("layered", "smectic-seed", layered),
                ("tilted", "conical-seed", tilted),
                ("e=0.05", "smectic-seed", cubic),
            )
        }
        # chi'' with k2 != k3 at the tilted state (not a critical point there)
        anisotropic = replace(tilted, k2=0.05, k3=0.01)
        return {
            "trivial": (seed_state("cholesteric", base, n), base),
            **relaxed,
            "k2!=k3": (relaxed["tilted"][0], anisotropic),
        }

    @pytest.mark.parametrize("name", ["trivial", "layered", "tilted", "e=0.05", "k2!=k3"])
    def test_matches_finite_differences(self, states, name):
        state, p = states[name]
        ev = Evaluator(state.n, p)
        exact = ev.hessian(state.pack())
        fd = ev.fd_hessian(state.pack())
        assert np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) < 1e-10
        assert np.array_equal(exact, exact.T)

    def test_states_exercise_every_term(self, states):
        # the tilted states have theta != 0 and a layer, so the chi'' and
        # lambda2 cross terms are nonzero; the e = 0.05 state has a layer
        for name in ("tilted", "k2!=k3"):
            state, p = states[name]
            assert np.min(state.theta_values()) > 0.1
            assert np.max(state.rho_values()) > 0.1
        assert np.max(states["e=0.05"][0].rho_values()) > 0.1

    def test_reuses_the_last_synthesis(self):
        p = ModelParams1D().with_d(-0.5)
        state, _ = minimize(seed_state("smectic-seed", p, 16), p)
        x = state.pack()
        fresh = Evaluator(16, p).hessian(x)
        ev = Evaluator(16, p)
        ev.gradient(x)
        assert np.array_equal(ev.hessian(x.copy()), fresh)


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
        # the third set separates k1, k2 and k3: the twist stiffness of the tilt
        # is k3 sigma^2, where the one-constant form 2 k1 (omega^2 + sigma^2) is 0.8 off;
        # the last four also take q != sigma, n0 = 6 (then h = 3 pi, n0 = 3) and
        # lambda1 != lambda2 just above and below the layering onset d0, which
        # the spectrum must place
        n = 32
        base = ModelParams1D()
        onset = {}
        for off in (ModelParams1D(**OFF_DEFAULT), ModelParams1D(**OFF_HEIGHT)):
            d0 = d_critical(off)
            onset |= {off.with_d(d0 + 1e-3): 0, off.with_d(d0 - 1e-3): 1}
        for p in (base.with_d(-0.2), base.with_d(-0.5), replace(base, k1=0.01, k2=0.03, k3=0.05, d=1.0), *onset):
            report = spectrum(seed_state("cholesteric", p, n), p)
            expected = _restricted_analytic(p, n)
            rel = np.abs(report.eigenvalues - expected) / np.maximum(np.abs(expected), 1e-30)
            assert np.max(rel) < 1e-6
            if p in onset:
                assert report.morse_index == onset[p]
                assert report.min_eigenvalue == pytest.approx(p.d - d_critical(p), abs=1e-12)

    def test_rejects_a_state_of_another_cell_height(self):
        # the Gram of the h = pi state would mass-normalize the 2 pi model's Hessian
        state = seed_state("smectic-seed", ModelParams1D(h=math.pi), 16)
        with pytest.raises(ValueError, match="cell height"):
            spectrum(state, ModelParams1D())

    def test_non_finite_hessian_raises_solver_error(self, monkeypatch):
        # for one NaN pair off the diagonal eigvalsh returns NaNs instead of
        # failing, which the report turned into a ValueError (exit 1, not 2)
        def not_finite(self, vec):
            h_mat = np.eye(vec.size)
            h_mat[0, 1] = h_mat[1, 0] = math.nan
            return h_mat

        monkeypatch.setattr(Evaluator, "fd_hessian", not_finite)
        p = ModelParams1D()
        with pytest.raises(SolverError, match="Hessian is not finite"):
            spectrum(seed_state("cholesteric", p, 2), p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_report_rejects_non_finite_eigenvalues(self, bad):
        # NaN compares False both ways, so the ascending check alone let
        # [nan, 1.0] through with Morse index 0
        with pytest.raises(ValueError, match="finite"):
            StabilityReport(eigenvalues=[bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            StabilityReport(eigenvalues=[-1.0, bad])


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

    # off the default point the chiral term's theta^2 coefficient is k3 sigma^2,
    # so t1 and t2 take k3; with k1 (as before) t2 was 0.29133 here

    def test_t2_is_the_zero_of_the_constant_tilt_hessian_entry(self):
        # the (theta_c[0], theta_c[0]) entry of the exact Hessian at the untilted
        # frozen layer is 2 k3 sigma^2 h - lambda2 t^2 q^4 cos^2(theta0) (2h - sin(2qh)/q)
        p = ModelParams1D(**OFF_DEFAULT)
        n = 32
        ev = Evaluator(n, p)
        _, t2 = tilt_thresholds(p)

        def entry(t: float) -> float:
            return ev.hessian(frozen_layer_state(t, 0.0, p, n).pack())[0, 0]

        assert abs(entry(t2)) < 1e-12
        assert entry(0.999 * t2) > 0.0 > entry(1.001 * t2)

    def test_theta_block_positive_definite_below_t1(self):
        # t1 bounds k3 sigma^2 - 2 lambda2 t^2 q^4 cos^2(theta0) sin^2(q z) below
        # pointwise, so the theta block is positive definite under it for any
        # k1; as k1 -> 0 the theta_z cost vanishes and the bound is sharp
        n = 32

        def lowest(p: ModelParams1D, t: float) -> float:
            h = Evaluator(n, p).hessian(frozen_layer_state(t, 0.0, p, n).pack())
            return float(np.linalg.eigvalsh(h[: n + 2, : n + 2])[0])

        p = ModelParams1D(**OFF_DEFAULT)
        assert lowest(p, 0.99 * tilt_thresholds(p)[0]) > 0.0
        soft = replace(p, k1=1e-6)
        t1, _ = tilt_thresholds(soft)
        assert lowest(soft, 0.99 * t1) > 0.0 > lowest(soft, 1.1 * t1)


class TestFrozenLayerAtAnotherCellHeight:
    """The frozen-layer thresholds against their second variation on the h = 3 pi cell (n0 = 3)."""

    N = 32

    def test_t2_zeroes_the_constant_tilt_second_variation(self):
        # the quadrature second variation of a constant tilt and the (theta_c[0],
        # theta_c[0]) entry of the exact Hessian both change sign at t2
        p = ModelParams1D(**OFF_HEIGHT)
        grid = default_grid(self.N, p.h)
        ev = Evaluator(self.N, p)
        _, t2 = tilt_thresholds(p)

        def second_variation(t: float) -> float:
            return second_variation_tilt(t, p, np.ones(grid.m), grid)

        def entry(t: float) -> float:
            return ev.hessian(frozen_layer_state(t, 0.0, p, self.N).pack())[0, 0]

        for form in (second_variation, entry):
            assert abs(form(t2)) < 1e-12
            assert form(0.999 * t2) > 0.0 > form(1.001 * t2)

    def test_theta_block_positive_definite_below_t1(self):
        p = replace(ModelParams1D(**OFF_HEIGHT), k1=1e-6)
        t1, _ = tilt_thresholds(p)

        def lowest(t: float) -> float:
            h = Evaluator(self.N, p).hessian(frozen_layer_state(t, 0.0, p, self.N).pack())
            return float(np.linalg.eigvalsh(h[: self.N + 2, : self.N + 2])[0])

        assert lowest(0.99 * t1) > 0.0 > lowest(1.1 * t1)

    def test_second_variation_matches_hessian_quadratic_form(self):
        p = ModelParams1D(**OFF_HEIGHT)
        t = 0.7 * tilt_thresholds(p)[1]
        state = frozen_layer_state(t, 0.0, p, self.N)
        h = Evaluator(self.N, p).fd_hessian(state.pack())
        grid = default_grid(self.N, p.h)
        c = np.zeros(self.N + 2)
        c[:6] = np.random.default_rng(47).normal(size=6) * 0.5
        quad = float(c @ h[: self.N + 2, : self.N + 2] @ c)
        assert second_variation_tilt(t, p, synthesize(c, "cosine", grid), grid) == pytest.approx(quad, rel=1e-6)


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_rejected(self, t):
        # t < 0 is False for NaN, and inf used to return the saturated tilt
        with pytest.raises(ValueError, match="finite and nonnegative"):
            theta_star(t, ModelParams1D())

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

    def test_matches_golden_section_with_k1_apart(self):
        # exact for k2 = k3 at any k1: with k1 in place of k3 it gave 1.063405 at t = 1.2
        p = ModelParams1D(**{**OFF_DEFAULT, "k1": 0.01, "k2": 0.04, "k3": 0.04})
        for t in (0.8, 1.2, 3.0):
            assert optimal_constant_tilt(t, p) == pytest.approx(theta_star(t, p), abs=1e-4)
        assert theta_star(1.2, p) == pytest.approx(0.906967, abs=1e-6)

    def test_k2_other_than_k3_rejected(self):
        # there neither the k2 nor the k3 form matches the golden section
        with pytest.raises(ValueError, match="theta_star needs k2 = k3, got k2 = 0.03, k3 = 0.05"):
            theta_star(1.2, ModelParams1D(**OFF_DEFAULT))


class TestSecondVariationTilt:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative(self, t):
        grid = default_grid(16, ModelParams1D().h)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            second_variation_tilt(t, ModelParams1D(), np.ones(grid.m), grid)

    def test_constant_perturbation_closed_form(self):
        p = ModelParams1D()
        grid = default_grid(16, p.h)
        for t in (0.5, 1.2, 1.5):
            got = second_variation_tilt(t, p, np.ones(grid.m), grid)
            expected = 2.0 * p.h * (p.k3 * p.sigma**2 - p.lambda2 * t * t * p.q**4 * math.cos(p.theta0) ** 2)
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
        # OFF_DEFAULT tells k1 from k3: the twist stiffness of the tilt is k3 sigma^2
        n = 16
        t = 0.7
        for p in (ModelParams1D(), ModelParams1D(**OFF_DEFAULT)):
            state = frozen_layer_state(t, 0.0, p, n)
            h = Evaluator(n, p).fd_hessian(state.pack())
            grid = default_grid(n, p.h)
            rng = np.random.default_rng(45)
            c = np.zeros(n + 2)
            c[:6] = rng.normal(size=6) * 0.5
            tb = synthesize(c, "cosine", grid)
            quad = float(c @ h[: n + 2, : n + 2] @ c)
            assert second_variation_tilt(t, p, tb, grid) == pytest.approx(quad, rel=1e-6)
