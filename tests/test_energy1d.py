import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smectic1d import (
    Evaluator,
    ModelParams1D,
    SpectralState,
    default_grid,
    energy,
    minimize,
    reconstruct_director,
    seed_state,
    spectrum,
    synthesize,
)
from smectic1d.energy1d import _operators
from smectic1d.spectral import Grid, _tables, analyze
from smectic1d.tensor import oseen_frank_density_1d

from crosscheck import (
    OFF_DEFAULT,
    OFF_HEIGHT,
    analytic_cholesteric_spectrum,
    el_residual,
    quadrature,
    synthesize_derivative,
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

    def test_a_stack_is_refused(self):
        # only the gradient takes a (k, 2N+3) stack; the five sums of a
        # stack would come back as lists, and energy would concatenate them
        ev = Evaluator(16, ModelParams1D())
        for method in (ev.energy, ev.breakdown):
            with pytest.raises(ValueError, match="one coefficient vector"):
                method(np.zeros((2, 35)))

    def test_mismatched_h_rejected(self):
        p = ModelParams1D()
        state = SpectralState.zeros(16, 1.0)
        with pytest.raises(ValueError, match="cell"):
            energy(state, p)


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

    @staticmethod
    def _assert_fresh(ev, p, x):
        """Gradient, energy and exact Hessian at ``x`` are a fresh evaluator's, bit for bit."""
        for name in ("gradient", "energy", "hessian"):
            got, want = getattr(ev, name)(x), getattr(Evaluator(16, p), name)(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name

    @pytest.mark.parametrize("index", [5, 18 + 4], ids=["theta", "rho"])
    def test_one_coefficient_moved(self, index):
        p = ModelParams1D(d=-0.8)
        x, _ = self._vectors()
        ev = Evaluator(16, p)
        self._assert_fresh(ev, p, x)
        y = x.copy()
        y[index] += 1e-3
        self._assert_fresh(ev, p, y)
        self._assert_fresh(ev, p, x)

    @pytest.mark.parametrize("block", [slice(0, 18), slice(18, 35)], ids=["theta", "rho"])
    def test_block_zero_sign_flip(self, block):
        p = ModelParams1D(d=-0.8)
        x, _ = self._vectors()
        x[block] = -0.0
        y = x.copy()
        y[block] = 0.0
        ev = Evaluator(16, p)
        for vec in (x, y, x):
            self._assert_fresh(ev, p, vec)

    @pytest.mark.parametrize("index", [2, 18 + 2], ids=["theta", "rho"])
    def test_in_place_mutation_of_one_block(self, index):
        p = ModelParams1D(d=-0.8)
        x, _ = self._vectors()
        ev = Evaluator(16, p)
        ev.gradient(x)
        x[index] -= 0.05
        self._assert_fresh(ev, p, x)

    def test_a_one_row_stack_does_not_share_the_entry_of_its_row(self):
        # x[None] has the bytes of x: a stale reuse of its (1, M/2+1) terms
        # would give x a (1, 35) gradient or a list of energies
        p = ModelParams1D(d=-0.8)
        x, _ = self._vectors()
        ev = Evaluator(16, p)
        for _ in range(2):
            stacked = ev.gradient(x[None])
            assert stacked.shape == (1, 35)
            assert stacked.tobytes() == Evaluator(16, p).gradient(x[None]).tobytes()
            self._assert_fresh(ev, p, x)


class TestGradient:
    @pytest.mark.parametrize("n", [16, 64])
    def test_each_stacked_row_is_the_gradient_of_that_row(self, n):
        # a (k, 2N+3) stack takes matrix-matrix products, which round
        # differently from a vector's matrix-vector products: each row agrees
        # with the vector's gradient within 8 ulp of its largest entry (at
        # most 3.5 measured over N = 16, 64, four parameter sets and 20 seeds).
        # At a stationary point g cancels to far below its terms, so the
        # bound is stated at vectors whose gradient is not small
        rng = np.random.default_rng(5)
        k = np.concatenate([np.arange(n + 2), np.arange(1, n + 2)])
        for params in (ModelParams1D().with_d(-0.5), ModelParams1D(**OFF_DEFAULT), ModelParams1D(**OFF_HEIGHT)):
            stack = 0.2 * rng.standard_normal((4, 2 * n + 3)) / (1.0 + k)
            got = Evaluator(n, params).gradient(stack)
            assert got.shape == stack.shape
            for row, g_row in zip(stack, got):
                want = Evaluator(n, params).gradient(row)
                assert np.max(np.abs(g_row - want)) <= 8.0 * np.finfo(float).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [16, 64])
    def test_each_slice_of_a_3d_stack_is_the_gradient_of_that_slice(self, n):
        # the blocks of the finite-difference Hessian are (b, 4, 2N+3) stacks:
        # np.matmul takes each (4, 2N+3) slice as its own product, so a slice
        # has the bits of a gradient call on that slice alone
        rng = np.random.default_rng(6)
        k = np.concatenate([np.arange(n + 2), np.arange(1, n + 2)])
        for params in (ModelParams1D().with_d(-0.5), ModelParams1D(**OFF_DEFAULT), ModelParams1D(**OFF_HEIGHT)):
            stack = 0.2 * rng.standard_normal((3, 4, 2 * n + 3)) / (1.0 + k)
            got = Evaluator(n, params).gradient(stack)
            assert got.shape == stack.shape
            for block, g_block in zip(stack, got):
                assert g_block.tobytes() == Evaluator(n, params).gradient(block).tobytes()

    def test_zero_at_trivial_state(self):
        p = ModelParams1D()
        g = Evaluator(64, p).gradient(seed_state("cholesteric", p, 64).pack())
        assert np.max(np.abs(g)) < 1e-12

    def test_single_mode_component(self):
        p = ModelParams1D().with_d(-0.5)
        t = 0.1
        g = Evaluator(64, p).gradient(_single_mode_state(t, p).pack())
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
        # products of three sine modes integrate to zero over the cell, which
        # is why the reduced model has no cubic term; the term does enter the
        # pointwise stationarity residual
        p = ModelParams1D()
        rng = np.random.default_rng(33)
        for kind in ("tilted", "layered"):
            x = rng.normal(size=35) * 0.3
            if kind == "layered":
                x[:18] = 0.0
            state = SpectralState.from_vector(x, 16, p.h)
            rho = state.rho_values()
            assert abs(quadrature(rho * rho * rho, p.h)) < 1e-13, kind
            _, r_rho_0 = el_residual(state, p)
            for e in (0.05, 1.0):
                _, r_rho_e = el_residual(state, p, e=e)
                assert np.max(np.abs((r_rho_e - r_rho_0) + e * rho * rho)) < 1e-12, (kind, e)


class TestHalfGridQuadrature:
    """The evaluator sums over nodes 0 ... M/2; a reference sums over all M nodes."""

    @staticmethod
    def _vectors(n: int) -> list[np.ndarray]:
        """A tilted and an untilted layered vector with amplitudes 0.3/(1+k), as in criterion 08."""
        rng = np.random.default_rng(n)
        scale = 0.3 / (1.0 + np.arange(n + 2))
        tilted = np.concatenate([rng.normal(size=n + 2) * scale, rng.normal(size=n + 1) * scale[1:]])
        layered = tilted.copy()
        layered[: n + 2] = 0.0
        return [tilted, layered]

    @staticmethod
    def _full_grid_energy(vec: np.ndarray, n: int, p: ModelParams1D, e: float = 0.0) -> float:
        """The functional plus the cubic term -(e/3) rho^3, by the trapezoid rule on all M nodes of ``default_grid``."""
        grid = default_grid(n, p.h)
        tc, rs = vec[: n + 2], vec[n + 2 :]
        theta, theta_z = synthesize(tc, "cosine", grid), synthesize_derivative(tc, "cosine", grid, 1)
        rho, rho_zz = synthesize(rs, "sine", grid), synthesize_derivative(rs, "sine", grid, 2)
        c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
        density = (
            p.k1 * theta_z**2
            - p.k2**2 * p.sigma**2 * c2 / (p.k2 * c2 + p.k3 * s2)
            + p.d / 2.0 * rho**2 - e / 3.0 * rho**3 + p.f / 4.0 * rho**4
            + p.lambda1 * (rho_zz + p.q**2 * rho) ** 2
            + p.lambda2 * (s2 * rho_zz + p.q**2 * math.cos(p.theta0) ** 2 * rho) ** 2
        )
        assert density.size == grid.m
        return quadrature(density, p.h)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("e", [0.0, 0.5])
    def test_energy_matches_the_full_grid_sum(self, n, e):
        for off in ({}, OFF_DEFAULT, OFF_HEIGHT):
            p = ModelParams1D(d=-0.8, **off)
            ev = Evaluator(n, p)
            for vec in self._vectors(n):
                assert ev.energy(vec) == pytest.approx(self._full_grid_energy(vec, n, p, e), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_gradient_matches_finite_differences(self, n):
        # the check of criterion 08: central differences of the energy, eps = 1e-6
        eps = 1e-6
        for p in (ModelParams1D(), ModelParams1D(**OFF_DEFAULT), ModelParams1D(**OFF_HEIGHT)):
            ev = Evaluator(n, p)
            for vec in self._vectors(n):
                g = ev.gradient(vec)
                fd = np.empty_like(g)
                for i in range(vec.size):
                    delta = np.zeros(vec.size)
                    delta[i] = eps
                    fd[i] = (ev.energy(vec + delta) - ev.energy(vec - delta)) / (2.0 * eps)
                assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("n", [16, 64])
    def test_hessian_matches_finite_differences(self, n):
        # the tolerance of test_stability.py::TestExactHessian
        p = ModelParams1D()
        ev = Evaluator(n, p)
        for vec in self._vectors(n):
            exact = ev.hessian(vec)
            fd = ev.fd_hessian(vec)
            assert np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) < 1e-10
            assert np.array_equal(exact, exact.T)

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_weights_fold_the_trapezoid_rule(self, n):
        p = ModelParams1D()
        ev = Evaluator(n, p)
        m = default_grid(n, p.h).m
        w = p.h / m
        assert m % 2 == 0
        assert ev.weights.shape == (m // 2 + 1,)
        assert ev.weights[0] == ev.weights[-1] == w
        assert np.all(ev.weights[1:-1] == 2.0 * w)
        assert ev.weights.sum() == pytest.approx(p.h, rel=1e-15)


class TestParameterBox:
    """The independent routes over a box of valid parameters, not only at the sets that tests name."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        k=st.tuples(*[st.floats(0.005, 0.05)] * 3),
        sigma=st.floats(1.0, 6.0),
        theta0=st.floats(0.1, 1.4),
        lambdas=st.tuples(*[st.floats(5e-4, 5e-3)] * 2),
        d=st.floats(-2.0, 1.0),
        h=st.floats(math.pi, 4.0 * math.pi),
        n0=st.integers(1, 4),
        rng_seed=st.integers(0, 2**32 - 1),
    )
    def test_half_grid_energy_and_trivial_spectrum(self, k, sigma, theta0, lambdas, d, h, n0, rng_seed):
        n = 16
        (k1, k2, k3), (lambda1, lambda2) = k, lambdas
        p = ModelParams1D(
            k1=k1, k2=k2, k3=k3, sigma=sigma, q=TWO_PI * n0 / h, h=h, d=d, lambda1=lambda1, lambda2=lambda2,
            theta0=theta0,
        )
        rng = np.random.default_rng(rng_seed)
        scale = 0.3 / (1.0 + np.arange(n + 2))
        vec = np.concatenate([rng.normal(size=n + 2) * scale, rng.normal(size=n + 1) * scale[1:]])
        reference = TestHalfGridQuadrature._full_grid_energy(vec, n, p)
        assert Evaluator(n, p).energy(vec) == pytest.approx(reference, rel=1e-13, abs=1e-15)
        modes = analytic_cholesteric_spectrum(p, n + 1)
        expected = np.sort([m.value for m in modes if m.kind in ("rho_sin", "theta")])
        numeric = spectrum(seed_state("cholesteric", p, n), p).eigenvalues
        np.testing.assert_allclose(numeric, expected, rtol=1e-6, atol=1e-12 * np.max(np.abs(expected)))


class TestSharedOperators:
    """Every evaluator of one (N, h) reads the same cached operators and holds no copy of them.

    A sweep builds an evaluator per point and callers keep some alive, so a
    per-instance copy (about 560 KB at N = 64) grows the memory with their number.
    """

    SHARED = ("weights", "_b_theta", "_b_rho", "_adj_theta", "_adj_rho")

    @staticmethod
    def _owners(ev: Evaluator) -> list[np.ndarray]:
        """The array owning the memory of each array the evaluator's attributes hold, in tuples too."""
        found, stack = [], list(vars(ev).values())
        while stack:
            v = stack.pop()
            if isinstance(v, tuple):
                stack.extend(v)
            elif isinstance(v, np.ndarray):
                found.append(v if v.base is None else v.base)
        return found

    def test_same_grid_shares_the_operators(self):
        p = ModelParams1D()
        a, b = Evaluator(64, p), Evaluator(64, p.with_d(-2.0))
        for name in self.SHARED:
            assert getattr(a, name) is getattr(b, name)
            assert not getattr(a, name).flags.writeable

    @pytest.mark.parametrize("n, h", [(32, TWO_PI), (64, 2.0 * TWO_PI)], ids=["other-N", "other-h"])
    def test_another_grid_gets_other_operators(self, n, h):
        a, b = Evaluator(64, ModelParams1D()), Evaluator(n, ModelParams1D(h=h))
        for name in self.SHARED:
            assert getattr(a, name) is not getattr(b, name)
        if n == 64:
            assert not np.array_equal(a._b_theta, b._b_theta)

    def test_no_evaluator_owns_more_than_a_few_grid_vectors(self):
        p = ModelParams1D()
        ev = Evaluator(64, p)
        x = seed_state("smectic-seed", p, 64).pack()
        ev.gradient(x)
        ev.hessian(x)
        grid = default_grid(64, p.h)
        shared = {id(a) for a in (*_operators(grid, 64), *_tables(grid.m, 65))}  # the caches
        owned = [a for a in self._owners(ev) if id(a) not in shared]
        assert owned
        assert max(a.nbytes for a in owned) <= 4 * ev.weights.nbytes


class TestEulerLagrangeResidual:
    def test_rho_residual_exactly_odd_in_rho(self):
        # at e = 0, rho -> -rho maps R_rho to -R_rho and keeps R_theta, bit
        # for bit: the powers of rho are explicit products (numpy's rho**3 is
        # not exactly odd)
        p = ModelParams1D()
        rng = np.random.default_rng(53)
        for _ in range(20):
            x = rng.normal(size=35) * 0.4
            state = SpectralState.from_vector(x, 16, p.h)
            mirrored = SpectralState(n=16, h=p.h, theta_c=state.theta_c, rho_s=-state.rho_s)
            r_theta, r_rho = el_residual(state, p)
            m_theta, m_rho = el_residual(mirrored, p)
            assert np.array_equal(m_rho, -r_rho)
            assert np.array_equal(m_theta, r_theta)

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
        rho = state.rho_values()
        expected = (p.d + 2.0 * p.lambda2 * p.q**4 * math.cos(p.theta0) ** 4) * rho + p.f * rho**3
        assert np.max(np.abs(r_rho - expected)) < 1e-12

    def test_small_at_converged_minimizer(self):
        p = ModelParams1D().with_d(-0.5)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        r_theta, r_rho = el_residual(state, p)
        assert max(np.max(np.abs(r_theta)), np.max(np.abs(r_rho))) < 100.0 * 1e-8

    # layered and untilted at d = -3, tilted (theta_max 0.82) at d = -5; the
    # tilted state takes N = 128 because at N = 64 its residual is truncation
    # error, 6.6e-6 at any gradient tolerance (3.3e-3, 6.6e-6, 1.1e-8, 8.3e-10 at N = 32, 64, 96, 128)
    @pytest.mark.parametrize("d, n, tilted", [(-3.0, 64, False), (-5.0, 128, True)], ids=["layered", "tilted"])
    def test_small_at_converged_minimizer_off_the_default_point(self, d, n, tilted):
        p = ModelParams1D(**OFF_DEFAULT).with_d(d)
        state, report = minimize(seed_state("smectic-seed", p, n), p)
        assert report.converged
        assert (float(np.max(state.theta_values())) > 0.5) == tilted
        assert float(np.max(state.rho_values())) > 0.4
        r_theta, r_rho = el_residual(state, p)
        assert max(np.max(np.abs(r_theta)), np.max(np.abs(r_rho))) < 100.0 * 1e-8

    def test_small_at_converged_minimizer_at_another_cell_height(self):
        # layered and untilted: with q = 2 the tilt needs a layer amplitude
        # above t1 = 4.15, near d = -150, where N = 64 leaves a residual of 2.3
        p = ModelParams1D(**OFF_HEIGHT).with_d(-3.0)
        state, report = minimize(seed_state("smectic-seed", p, 64), p)
        assert report.converged
        assert float(np.max(state.rho_values())) > 0.5
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
        phi, n1, n2, n3 = reconstruct_director(seed_state("cholesteric", p, 64).theta_values(), p)
        z = grid.nodes
        assert np.max(np.abs(phi - p.sigma * z)) < 1e-12
        assert np.max(np.abs(n1 - np.cos(p.sigma * z))) < 1e-12
        assert np.max(np.abs(n2 - np.sin(p.sigma * z))) < 1e-12
        assert np.max(np.abs(n3)) == 0.0

    def test_conical_state(self):
        p = ModelParams1D()
        state = _single_mode_state(0.0, p, theta0_const=math.pi / 2 - p.theta0)
        grid = default_grid(64, p.h)
        phi, n1, n2, n3 = reconstruct_director(state.theta_values(), p)
        # k2 = k3 makes the azimuth advance uniform even at constant tilt
        assert np.max(np.abs(phi - p.sigma * grid.nodes)) < 1e-10
        assert np.max(np.abs(n3 - math.cos(p.theta0))) < 1e-12

    def test_unit_norm_for_random_states(self):
        p = ModelParams1D()
        rng = np.random.default_rng(29)
        for _ in range(10):
            state = SpectralState.from_vector(rng.normal(size=35) * 0.2, 16, p.h)
            _, n1, n2, n3 = reconstruct_director(state.theta_values(), p)
            assert np.max(np.abs(n1**2 + n2**2 + n3**2 - 1.0)) < 1e-12

    def test_phi_normalized_at_origin(self):
        p = ModelParams1D()
        rng = np.random.default_rng(31)
        state = SpectralState.from_vector(rng.normal(size=35) * 0.2, 16, p.h)
        phi, *_ = reconstruct_director(state.theta_values(), p)
        assert phi[0] == 0.0


def _director_energy_gap(state: SpectralState, p: ModelParams1D) -> tuple[float, float]:
    """Oseen-Frank energy of the reconstructed director minus F's elastic and chiral terms and k2 sigma^2 h.

    Returned with the reference integral of (k3 - k1) sin^2(theta) theta_z^2.
    The director comes from :func:`reconstruct_director` on a 16(N+2) grid,
    fine enough that the band-limited azimuth matches its integrand to
    rounding; its z-derivative is exact for theta and spectral for phi.
    phi is a linear ramp plus an odd periodic part, so phi(z) + phi(h - z)
    is the ramp's rise over the cell.
    """
    grid = Grid(16 * (state.n + 2), p.h)
    theta = synthesize(state.theta_c, "cosine", grid)
    theta_z = synthesize_derivative(state.theta_c, "cosine", grid, 1)
    phi, n1, n2, n3 = reconstruct_director(theta, p)
    slope = (phi[1] + phi[-1]) / p.h
    periodic = analyze(phi - slope * grid.nodes, "sine", grid, grid.m // 2 - 1)
    phi_z = slope + synthesize_derivative(periodic, "sine", grid, 1)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    dn_dz = np.stack([-n2 * phi_z - np.cos(phi) * sin_t * theta_z, n1 * phi_z - np.sin(phi) * sin_t * theta_z,
                      cos_t * theta_z], axis=1)
    director = np.stack([n1, n2, n3], axis=1)
    density = [oseen_frank_density_1d(n, dn, p.k1, p.k2, p.k3, p.sigma) for n, dn in zip(director, dn_dz)]
    parts = energy(state, p)
    gap = quadrature(density, p.h) - (parts.elastic_theta + parts.chiral + p.k2 * p.sigma**2 * p.h)
    return gap, quadrature((p.k3 - p.k1) * sin_t * sin_t * theta_z * theta_z, p.h)


class TestDirectorEnergyIdentity:
    """F is the director's Oseen-Frank energy with the azimuth eliminated, when k1 = k3.

    Pointwise, the density of n = (cos phi cos theta, sin phi cos theta,
    sin theta) at phi_z = sigma k2 / (k2 cos^2 + k3 sin^2) is F's elastic and
    chiral densities plus k2 sigma^2 plus (k3 - k1) sin^2(theta) theta_z^2:
    splay gives the k1 cos^2 part of the theta_z stiffness, bend the k3 sin^2
    part.  A director whose azimuth advances at another rate has a higher
    twist-and-bend energy, so both tests check reconstruct_director's phi.
    """

    @pytest.mark.parametrize("d", [-3.0, -5.0])
    def test_equals_f_when_k1_equals_k3(self, d):
        p = ModelParams1D(**{**OFF_DEFAULT, "k3": OFF_DEFAULT["k1"]}).with_d(d)
        state, report = minimize(seed_state("smectic-seed", p, 32), p)
        assert report.converged
        assert float(np.max(state.theta_values())) > 0.3
        gap, missing = _director_energy_gap(state, p)
        assert missing == 0.0
        assert abs(gap) < 1e-13 * abs(report.final_energy)

    def test_misses_the_k3_minus_k1_term_off_the_default_point(self):
        p = ModelParams1D(**OFF_DEFAULT).with_d(-5.0)
        state, report = minimize(seed_state("smectic-seed", p, 32), p)
        assert report.converged
        gap, missing = _director_energy_gap(state, p)
        assert missing > 0.01 * abs(report.final_energy)
        assert gap == pytest.approx(missing, rel=1e-12)
