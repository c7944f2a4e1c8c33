import math

import numpy as np
import pytest

from smectic1d import tensor as tn


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_qtensor(rng):
    m = rng.normal(size=(3, 3))
    m = m + m.T
    m -= np.eye(3) * (np.trace(m) / 3.0)
    return tn.QTensor(m)


def _random_qgradient(rng):
    g = rng.normal(size=(3, 3, 3))
    g = 0.5 * (g + g.transpose(1, 0, 2))
    tr = g[0, 0] + g[1, 1] + g[2, 2]
    for i in range(3):
        g[i, i] -= tr / 3.0
    return tn.QGradient(g)


class TestQTypes:
    def test_asymmetric_rejected(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            tn.QTensor(m)

    def test_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            tn.QTensor(np.eye(3))

    def test_from_components_closes_trace(self):
        q = tn.QTensor.from_components(0.2, 0.1, -0.3, 0.4, 0.0)
        assert abs(np.trace(q.m)) == 0.0

    def test_gradient_validation(self):
        g = np.zeros((3, 3, 3))
        g[0, 1, 2] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            tn.QGradient(g)
        g2 = np.zeros((3, 3, 3))
        g2[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="trace"):
            tn.QGradient(g2)


class TestUniaxial:
    def test_axis_aligned(self):
        q = tn.uniaxial_q((0.0, 0.0, 1.0), 1.5)
        assert np.allclose(q.m, np.diag([-0.5, -0.5, 1.0]), atol=1e-15)

    def test_zero_order(self):
        q = tn.uniaxial_q((1.0, 0.0, 0.0), 0.0)
        assert np.all(q.m == 0.0)

    def test_diagonal_direction(self):
        r = 1.0 / math.sqrt(2.0)
        q = tn.uniaxial_q((r, r, 0.0), 1.0)
        assert q.m[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert q.m[1, 1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert q.m[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert q.m[2, 2] == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            tn.uniaxial_q((1.0, 1.0, 0.0), 1.0)

    def test_trace_invariants(self):
        # tr Q^2 = 2 s^2 / 3 and tr Q^3 = 2 s^3 / 9 on the uniaxial manifold
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = _random_unit(rng)
            s = rng.uniform(0.0, 3.0)
            q = tn.uniaxial_q(n, s)
            assert q.tr2() == pytest.approx(2.0 * s * s / 3.0, rel=1e-12, abs=1e-13)
            assert q.tr3() == pytest.approx(2.0 * s**3 / 9.0, rel=1e-12, abs=1e-13)


class TestBulkDensities:
    def test_f_bn_zero(self):
        assert tn.f_bn(tn.uniaxial_q((1, 0, 0), 0.0), -1.0, 1.0, 1.0) == 0.0

    def test_f_bn_uniaxial_value(self):
        q = tn.uniaxial_q((0.0, 0.0, 1.0), 1.5)
        assert tn.f_bn(q, -1.0, 1.0, 1.0) == pytest.approx(-0.4375, abs=1e-14)
        # matches the closed uniaxial profile g(s)
        assert tn.uniaxial_bulk_profile(1.5, -1.0, 1.0, 1.0) == pytest.approx(-0.4375, abs=1e-14)

    def test_s_plus_is_uniaxial_minimum(self):
        q_lo = tn.uniaxial_q((0.0, 0.0, 1.0), 1.5 - 1e-4)
        q_hi = tn.uniaxial_q((0.0, 0.0, 1.0), 1.5 + 1e-4)
        base = tn.f_bn(tn.uniaxial_q((0, 0, 1), 1.5), -1.0, 1.0, 1.0)
        assert tn.f_bn(q_lo, -1.0, 1.0, 1.0) > base
        assert tn.f_bn(q_hi, -1.0, 1.0, 1.0) > base

    def test_s_plus_minimizes_over_samples(self):
        rng = np.random.default_rng(6)
        a, b, c = -0.7, 1.3, 0.9
        from smectic1d.params import compute_s_plus

        s_plus = compute_s_plus(a, b, c)
        for _ in range(4):
            n = _random_unit(rng)
            base = tn.f_bn(tn.uniaxial_q(n, s_plus), a, b, c)
            for s in np.linspace(0.0, 2.5 * s_plus, 60):
                assert tn.f_bn(tn.uniaxial_q(n, s), a, b, c) >= base - 1e-12

    def test_f_bs(self):
        assert tn.f_bs(0.0, -1.0, 0.0, 2.0) == 0.0
        assert tn.f_bs(1.0, -1.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert tn.f_bs(0.5, -0.5, 0.0, 10.0) == pytest.approx(0.09375, abs=1e-15)


class TestElasticDensity:
    def test_constant_field_chiral_term(self):
        q = tn.uniaxial_q((1.0, 0.0, 0.0), 1.5)
        g = tn.QGradient(np.zeros((3, 3, 3)))
        # only 2 eta1 sigma^2 |Q|^2 survives: 2 * 4 * 1.5 = 12
        assert tn.f_el(q, g, 1.0, 0.0, 0.0, 2.0) == pytest.approx(12.0, rel=1e-14)

    def test_helical_field_value(self):
        s, sigma = 1.5, 2.0
        z = 0.37
        n = np.array([math.cos(sigma * z), math.sin(sigma * z), 0.0])
        dn = sigma * np.array([-math.sin(sigma * z), math.cos(sigma * z), 0.0])
        q = tn.uniaxial_q(n, s)
        dq = s * (np.outer(dn, n) + np.outer(n, dn))
        g = tn.QGradient.one_dimensional(dq)
        assert tn.f_el(q, g, 1.0, 0.0, 0.0, sigma) == pytest.approx(s * s * sigma * sigma / 3.0, rel=1e-12)

    def test_zero(self):
        q = tn.uniaxial_q((1, 0, 0), 0.0)
        assert tn.f_el(q, tn.QGradient(np.zeros((3, 3, 3))), 1.0, 1.0, 1.0, 0.0) == 0.0

    def test_curl_identity(self):
        # |curl Q|^2 = |grad Q|^2 - Qij,k Qik,j and |div Q|^2 = Qij,j Qik,k
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = _random_qgradient(rng)
            a = g.g
            curl = tn.tensor_curl(g)
            div = tn.tensor_divergence(g)
            grad2 = float(np.sum(a * a))
            mixed = float(np.sum(a * a.transpose(0, 2, 1)))
            assert float(np.sum(curl * curl)) == pytest.approx(grad2 - mixed, rel=1e-12)
            assert float(div @ div) == pytest.approx(
                sum(sum(a[i, j, j] for j in range(3)) ** 2 for i in range(3)), rel=1e-12
            )

    def test_direct_equals_expanded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = _random_qtensor(rng)
            g = _random_qgradient(rng)
            e1, e2, e24, sigma = rng.uniform(0.1, 2.0, size=4)
            direct = tn.f_el(q, g, e1, e2, e24, sigma)
            expanded = tn.f_el_expanded(q, g, e1, e2, e24, sigma)
            assert direct == pytest.approx(expanded, rel=1e-12, abs=1e-13)


class TestCouplingDensities:
    def test_f_layer_annihilates_resonant_mode(self):
        q = 4.0
        for z in np.linspace(0.0, 1.0, 7):
            rho = math.sin(q * z)
            assert tn.f_layer(rho, -q * q * rho, 0.001, q) < 1e-12

    def test_f_layer_values(self):
        assert tn.f_layer(1.0, 0.0, 1.0, 2.0) == pytest.approx(16.0)
        assert tn.f_layer(0.0, 1.0, 0.001, 2.0) == pytest.approx(0.001)

    def test_f_angle_aligned_smectic_a(self):
        q = tn.uniaxial_q((0.0, 0.0, 1.0), 1.0)  # Q + I/3 = n (x) n
        qw = 4.0
        for z in np.linspace(0.0, 1.0, 7):
            rho = math.sin(qw * z)
            hess = np.diag([0.0, 0.0, -qw * qw * rho])
            assert tn.f_angle(q, hess, rho, 0.001, qw, 0.0) < 1e-14

    def test_f_angle_tilted_value(self):
        q = tn.uniaxial_q((0.0, 0.0, 1.0), 1.0)
        qw, lam2, theta0 = 4.0, 0.001, math.pi / 9
        hess = np.diag([0.0, 0.0, -qw * qw])  # rho = 1 at the crest
        got = tn.f_angle(q, hess, 1.0, lam2, qw, theta0)
        expected = lam2 * qw**4 * math.sin(theta0) ** 4
        assert got == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.5031e-3, rel=1e-3)

    def test_f_angle_zero(self):
        q = tn.uniaxial_q((0.0, 0.0, 1.0), 1.0)
        assert tn.f_angle(q, np.zeros((3, 3)), 0.0, 0.001, 4.0, 0.3) == 0.0


class TestReduction:
    SIGMA = 2.0
    S_PLUS = 1.5

    def _helix(self, z):
        return np.array([math.cos(self.SIGMA * z), math.sin(self.SIGMA * z), 0.0])

    def test_helix_residual_constant(self):
        z = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        res = tn.reduction_residual(z, self._helix, self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
        assert np.ptp(res) < 1e-8
        assert np.mean(res) == pytest.approx(3.0, rel=1e-6)
        assert tn.uniaxial_reduction_offset(self.S_PLUS, 1.0, self.SIGMA) == pytest.approx(3.0)

    def test_uniform_residual(self):
        z = np.linspace(0.0, 1.0, 16)
        res = tn.reduction_residual(z, lambda _: np.array([1.0, 0.0, 0.0]), self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
        assert np.max(np.abs(res - 3.0)) < 1e-10

    def test_achiral_reduction_exact(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(0.4, 1.2, size=2)

        def field(z):
            v = np.array([math.cos(a * z), math.sin(a * z) * math.cos(b * z), math.sin(a * z) * math.sin(b * z)])
            return v / np.linalg.norm(v)

        z = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        res = tn.reduction_residual(z, field, self.S_PLUS, 1.3, 0.7, 0.9, 0.0)
        assert np.max(np.abs(res)) < 1e-9

    def test_analytic_derivatives_path(self):
        def dn(z):
            return self.SIGMA * np.array([-math.sin(self.SIGMA * z), math.cos(self.SIGMA * z), 0.0])

        z = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        res = tn.reduction_residual(z, self._helix, self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA, dn=dn)
        assert np.ptp(res) < 1e-13
        assert np.mean(res) == pytest.approx(3.0, rel=1e-13)

    def test_non_unit_samples_rejected(self):
        z = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="unit"):
            tn.reduction_residual(z, lambda _: np.array([1.0, 1.0, 0.0]), self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
