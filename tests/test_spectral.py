import math

import numpy as np
import pytest

from smectic1d import spectral as sp

from crosscheck import quadrature, synthesize_derivative

TWO_PI = 2.0 * math.pi


class TestSynthesize:
    def test_single_cosine_mode(self):
        grid = sp.Grid(64, TWO_PI)
        c = np.array([0.0, 1.0])
        vals = sp.synthesize(c, "cosine", grid)
        assert np.allclose(vals, np.cos(grid.nodes), atol=1e-14)

    def test_sine_second_derivative(self):
        grid = sp.Grid(264, TWO_PI)
        c = np.zeros(5)
        c[3] = 1.0  # mode k = 4
        vals = synthesize_derivative(c, "sine", grid, 2)
        assert np.allclose(vals, -16.0 * np.sin(4.0 * grid.nodes), atol=1e-12)

    def test_zero_coefficients(self):
        grid = sp.Grid(32, TWO_PI)
        assert np.all(sp.synthesize(np.zeros(4), "sine", grid) == 0.0)

    def test_unsupported_order(self):
        grid = sp.Grid(32, TWO_PI)
        for order in (0, 3, 4):
            with pytest.raises(ValueError, match="order"):
                synthesize_derivative(np.zeros(4), "cosine", grid, order)

    def test_first_derivatives(self):
        grid = sp.Grid(128, 3.0)
        c = np.array([0.0, 0.0, 1.0])
        omega = 2.0 * TWO_PI / 3.0  # mode 2 frequency
        z = grid.nodes
        assert np.allclose(synthesize_derivative(c, "cosine", grid, 1), -omega * np.sin(omega * z), atol=1e-12)
        s = np.zeros(2)
        s[1] = 1.0  # sine mode 2
        assert np.allclose(synthesize_derivative(s, "sine", grid, 1), omega * np.cos(omega * z), atol=1e-12)

    def test_derivative_matches_finite_differences(self):
        grid = sp.Grid(512, TWO_PI)
        rng = np.random.default_rng(0)
        c = rng.normal(size=6)
        f = sp.synthesize(c, "cosine", grid)
        fzz = synthesize_derivative(c, "cosine", grid, 2)
        dz = grid.h / grid.m
        fd = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / dz**2
        assert np.max(np.abs(fd - fzz)) < 1e-2 * np.linalg.norm(c, ord=1)  # O(dz^2)


class TestAnalyze:
    def test_pure_sine_mode(self):
        grid = sp.Grid(264, TWO_PI)
        vals = np.sin(4.0 * grid.nodes)
        coeffs = sp.analyze(vals, "sine", grid, nmodes=65)
        assert coeffs[3] == pytest.approx(1.0, abs=1e-12)
        rest = np.delete(coeffs, 3)
        assert np.max(np.abs(rest)) < 1e-12

    def test_constant_cosine(self):
        grid = sp.Grid(64, TWO_PI)
        coeffs = sp.analyze(np.ones(64), "cosine", grid, nmodes=10)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_round_trip_random(self):
        grid = sp.Grid(264, TWO_PI)
        rng = np.random.default_rng(1)
        for basis, n in (("cosine", 66), ("sine", 65)):
            c = rng.normal(size=n)
            vals = sp.synthesize(c, basis, grid)
            back = sp.analyze(vals, basis, grid, nmodes=65)
            assert np.max(np.abs(back - c)) < 1e-12

    def test_aliasing_guard(self):
        grid = sp.Grid(64, TWO_PI)
        with pytest.raises(ValueError, match="aliasing"):
            sp.analyze(np.zeros(64), "sine", grid, nmodes=32)


class TestQuadrature:
    def test_sin_squared(self):
        grid = sp.Grid(264, TWO_PI)
        assert quadrature(np.sin(4 * grid.nodes) ** 2, TWO_PI) == pytest.approx(math.pi, abs=1e-12)

    def test_constant(self):
        grid = sp.Grid(40, 5.0)
        assert quadrature(np.ones(40), 5.0) == pytest.approx(5.0, abs=1e-14)

    def test_full_periods_vanish(self):
        grid = sp.Grid(264, TWO_PI)
        assert abs(quadrature(np.sin(4 * grid.nodes), TWO_PI)) < 1e-12

    def test_parseval(self):
        grid = sp.Grid(264, TWO_PI)
        rng = np.random.default_rng(2)
        c = rng.normal(size=10)
        s = rng.normal(size=9)
        f = sp.synthesize(c, "cosine", grid) + sp.synthesize(s, "sine", grid)
        lhs = quadrature(f * f, TWO_PI)
        rhs = TWO_PI * c[0] ** 2 + (TWO_PI / 2.0) * (np.sum(c[1:] ** 2) + np.sum(s**2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGridAndState:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sp.Grid(2, 1.0)
        with pytest.raises(ValueError):
            sp.Grid(16, -1.0)

    def test_default_grid_size(self):
        assert sp.default_grid(64, TWO_PI).m == 264

    def test_state_shapes(self):
        with pytest.raises(ValueError):
            sp.SpectralState(n=16, h=TWO_PI, theta_c=np.zeros(17), rho_s=np.zeros(17))
        with pytest.raises(ValueError):
            sp.SpectralState(n=15, h=TWO_PI, theta_c=np.zeros(17), rho_s=np.zeros(16))

    def test_state_finiteness(self):
        tc = np.zeros(18)
        tc[0] = math.inf
        with pytest.raises(ValueError, match="finite"):
            sp.SpectralState(n=16, h=TWO_PI, theta_c=tc, rho_s=np.zeros(17))

    def test_pack_round_trip(self):
        rng = np.random.default_rng(3)
        vec = rng.normal(size=35)
        state = sp.SpectralState.from_vector(vec, 16, TWO_PI)
        assert np.array_equal(state.pack(), vec)

    def test_coefficients_read_only(self):
        state = sp.SpectralState.zeros(16, TWO_PI)
        with pytest.raises(ValueError):
            state.theta_c[0] = 1.0

    def test_theta_in_range(self):
        state = sp.SpectralState.zeros(16, TWO_PI)
        assert state.theta_in_range()
        tc = np.zeros(18)
        tc[0] = 2.0
        wide = sp.SpectralState(n=16, h=TWO_PI, theta_c=tc, rho_s=np.zeros(17))
        assert not wide.theta_in_range()

    def test_gram_diagonal(self):
        g = sp.gram_diagonal(16, TWO_PI)
        assert g.shape == (35,)
        assert g[0] == pytest.approx(TWO_PI)
        assert np.all(g[1:] == pytest.approx(math.pi))
