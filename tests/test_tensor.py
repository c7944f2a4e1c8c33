import math

import numpy as np
import pytest

from smectic1d import tensor as tn

from crosscheck import f_bn, f_el_expanded, f_layer


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _uniaxial(n, s):
    n = np.asarray(n, dtype=float)
    return s * (np.outer(n, n) - np.eye(3) / 3.0)


def _random_q(rng, size):
    m = rng.normal(size=(size, 3, 3))
    m = m + m.transpose(0, 2, 1)
    return m - np.eye(3) * (np.trace(m, axis1=1, axis2=2) / 3.0)[:, None, None]


def _random_gradient(rng, size):
    g = rng.normal(size=(size, 3, 3, 3))
    g = 0.5 * (g + g.transpose(0, 2, 1, 3))
    return g - np.eye(3)[:, :, None] * (np.trace(g, axis1=1, axis2=2) / 3.0)[:, None, None, :]


class TestBulkDensities:
    def test_f_bn_zero(self):
        assert f_bn(_uniaxial((1, 0, 0), 0.0), -1.0, 1.0, 1.0) == 0.0

    def test_f_bn_uniaxial_value(self):
        q = _uniaxial((0.0, 0.0, 1.0), 1.5)
        assert f_bn(q, -1.0, 1.0, 1.0) == pytest.approx(-0.4375, abs=1e-14)

    def test_s_plus_is_uniaxial_minimum(self):
        q_lo = _uniaxial((0.0, 0.0, 1.0), 1.5 - 1e-4)
        q_hi = _uniaxial((0.0, 0.0, 1.0), 1.5 + 1e-4)
        base = f_bn(_uniaxial((0, 0, 1), 1.5), -1.0, 1.0, 1.0)
        assert f_bn(q_lo, -1.0, 1.0, 1.0) > base
        assert f_bn(q_hi, -1.0, 1.0, 1.0) > base

    def test_s_plus_minimizes_over_samples(self):
        rng = np.random.default_rng(6)
        a, b, c = -0.7, 1.3, 0.9
        from smectic1d.params import compute_s_plus

        s_plus = compute_s_plus(a, b, c)
        for _ in range(4):
            n = _random_unit(rng)
            base = f_bn(_uniaxial(n, s_plus), a, b, c)
            for s in np.linspace(0.0, 2.5 * s_plus, 60):
                assert f_bn(_uniaxial(n, s), a, b, c) >= base - 1e-12


class TestElasticDensity:
    def test_constant_field_chiral_term(self):
        q = _uniaxial((1.0, 0.0, 0.0), 1.5)
        # only 2 eta1 sigma^2 |Q|^2 survives: 2 * 4 * 1.5 = 12
        assert tn.f_el(q, np.zeros((3, 3, 3)), 1.0, 0.0, 0.0, 2.0) == pytest.approx(12.0, rel=1e-14)

    def test_helical_field_value(self):
        s, sigma = 1.5, 2.0
        z = 0.37
        n = np.array([math.cos(sigma * z), math.sin(sigma * z), 0.0])
        dn = sigma * np.array([-math.sin(sigma * z), math.cos(sigma * z), 0.0])
        g = np.zeros((3, 3, 3))
        g[:, :, 2] = s * (np.outer(dn, n) + np.outer(n, dn))
        expected = s * s * sigma * sigma / 3.0
        assert tn.f_el(_uniaxial(n, s), g, 1.0, 0.0, 0.0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_zero(self):
        assert tn.f_el(np.zeros((3, 3)), np.zeros((3, 3, 3)), 1.0, 1.0, 1.0, 0.0) == 0.0

    def test_curl_identity(self):
        # |curl Q|^2 = |grad Q|^2 - Qij,k Qik,j and |div Q|^2 = Qij,j Qik,k,
        # read off the eta1 and eta2 terms of f_el at Q = 0 for 50 samples at once
        rng = np.random.default_rng(7)
        a = _random_gradient(rng, 50)
        zero = np.zeros((50, 3, 3))
        curl2 = 2.0 * tn.f_el(zero, a, 1.0, 0.0, 0.0, 0.0)
        div2 = 2.0 * tn.f_el(zero, a, 0.0, 1.0, 0.0, 0.0)
        for j, aj in enumerate(a):
            mixed = float(np.sum(aj * aj.transpose(0, 2, 1)))
            assert curl2[j] == pytest.approx(float(np.sum(aj * aj)) - mixed, rel=1e-12)
            assert div2[j] == pytest.approx(sum(sum(aj[i, k, k] for k in range(3)) ** 2 for i in range(3)), rel=1e-12)

    def test_direct_equals_expanded(self):
        # one call over a leading sample axis against the expanded form sample by sample
        rng = np.random.default_rng(8)
        q, g = _random_q(rng, 50), _random_gradient(rng, 50)
        e1, e2, e24, sigma = rng.uniform(0.1, 2.0, size=4)
        direct = tn.f_el(q, g, e1, e2, e24, sigma)
        assert direct.shape == (50,)
        for j in range(50):
            assert direct[j] == pytest.approx(f_el_expanded(q[j], g[j], e1, e2, e24, sigma), rel=1e-12, abs=1e-13)


class TestCouplingDensities:
    def test_f_layer_annihilates_resonant_mode(self):
        q = 4.0
        for z in np.linspace(0.0, 1.0, 7):
            rho = math.sin(q * z)
            assert f_layer(rho, -q * q * rho, 0.001, q) < 1e-12

    def test_f_layer_values(self):
        assert f_layer(1.0, 0.0, 1.0, 2.0) == pytest.approx(16.0)
        assert f_layer(0.0, 1.0, 0.001, 2.0) == pytest.approx(0.001)


class TestReduction:
    SIGMA = 2.0
    S_PLUS = 1.5

    def test_helix_residual_constant(self):
        z = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        res = tn.reduction_residual(*tn.unit_field(z, self.SIGMA, 0.0), self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
        assert np.ptp(res) < 1e-8
        assert np.mean(res) == pytest.approx(3.0, rel=1e-6)
        assert tn.uniaxial_reduction_offset(self.S_PLUS, 1.0, self.SIGMA) == pytest.approx(3.0)

    def test_uniform_residual(self):
        z = np.linspace(0.0, 1.0, 16)
        res = tn.reduction_residual(*tn.unit_field(z, 0.0, 0.0), self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
        assert np.max(np.abs(res - 3.0)) < 1e-10

    def test_achiral_reduction_exact(self):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(0.4, 1.2, size=2)
        z = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        res = tn.reduction_residual(*tn.unit_field(z, a, b), self.S_PLUS, 1.3, 0.7, 0.9, 0.0)
        assert np.max(np.abs(res)) < 1e-9

    def test_random_directors_with_perpendicular_derivatives(self):
        # the reduction is a pointwise identity in (n, dn/dz) with dn/dz . n = 0,
        # so samples that belong to no field must meet the offset too, within
        # tensor-check's own tolerance 1e-12 s_plus^2 max|eta| (|sigma| + 2)^2
        rng = np.random.default_rng(24)
        n = rng.normal(size=(20, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        dn_dz = rng.normal(size=(20, 3))
        dn_dz -= np.sum(dn_dz * n, axis=1)[:, None] * n
        etas = (1.3, 0.7, 0.9)
        res = tn.reduction_residual(n, dn_dz, self.S_PLUS, *etas, self.SIGMA)
        tol = 1e-12 * self.S_PLUS**2 * max(etas) * (abs(self.SIGMA) + 2.0) ** 2
        assert np.ptp(res) <= tol
        assert abs(np.mean(res) - tn.uniaxial_reduction_offset(self.S_PLUS, etas[0], self.SIGMA)) <= tol

    @pytest.mark.parametrize("a, b", [(2.0, 0.0), (0.0, 0.0), (0.7, 1.1)])
    def test_unit_field_is_unit_and_its_derivative_exact(self, a, b):
        z = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        n, dn = tn.unit_field(z, a, b)
        assert n.shape == dn.shape == (24, 3)
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) < 1e-15
        step = 1e-5
        fd = (tn.unit_field(z + step, a, b)[0] - tn.unit_field(z - step, a, b)[0]) / (2.0 * step)
        assert np.max(np.abs(fd - dn)) < 1e-9

    def test_mismatched_shapes_rejected(self):
        n, dn = tn.unit_field(np.linspace(0.0, 1.0, 8), 1.0, 0.5)
        for args in ((n, dn[:7]), (n[:, :2], dn[:, :2]), (n[0], dn[0])):
            with pytest.raises(ValueError, match="shape"):
                tn.reduction_residual(*args, self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)

    @pytest.mark.parametrize("arg", ["n", "dn_dz"])
    def test_non_finite_samples_rejected_naming_the_argument(self, arg):
        # a NaN director failed only as "Q must be exactly symmetric", and a
        # NaN derivative returned NaN residuals
        fields = dict(zip(("n", "dn_dz"), tn.unit_field(np.linspace(0.0, 1.0, 8), 1.0, 0.5)))
        fields[arg][3, 1] = np.nan
        with pytest.raises(ValueError, match=f"^{arg} holds non-finite samples$"):
            tn.reduction_residual(fields["n"], fields["dn_dz"], self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)

    def test_non_unit_samples_rejected(self):
        n = np.tile([1.0, 1.0, 0.0], (8, 1))
        with pytest.raises(ValueError, match="unit"):
            tn.reduction_residual(n, np.zeros_like(n), self.S_PLUS, 1.0, 0.0, 0.0, self.SIGMA)
