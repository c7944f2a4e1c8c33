import dataclasses
import math

import numpy as np
import pytest

from smectic1d import params as pm


class TestValidateElasticConstants:
    def test_accepts_one_constant_case(self):
        assert pm.validate_elastic_constants(1.0, 1.0, 1.0).valid

    def test_rejects_boundary_eta24(self):
        verdict = pm.validate_elastic_constants(1.0, 0.0, 3.0)
        assert not verdict.valid
        assert "eta24 < 3*eta1" in verdict.violation

    def test_rejects_negative_combination(self):
        verdict = pm.validate_elastic_constants(1.0, -1.0, 1.0)
        assert not verdict.valid
        assert "5*eta1 + 10*eta2 - 9*eta24" in verdict.violation

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            pm.validate_elastic_constants(math.nan, 1.0, 1.0)
        with pytest.raises(ValueError):
            pm.validate_elastic_constants(1.0, math.inf, 1.0)

    def test_matches_quadratic_form_conditions_on_grid(self):
        # equivalent inequalities for L1|grad Q|^2 + L2 Qij,j Qik,k + L3 Qij,k Qik,j
        # with L1 = eta1/2, L2 = (eta2 - eta24)/2, L3 = (eta24 - eta1)/2:
        # L1 > 0, -L1 < L3 < 2 L1, L1 + (5/3) L2 + (1/6) L3 > 0
        grid = np.linspace(-2.0, 3.0, 11)
        for eta1 in grid:
            for eta2 in grid:
                for eta24 in grid:
                    l1 = eta1 / 2.0
                    l2 = (eta2 - eta24) / 2.0
                    l3 = (eta24 - eta1) / 2.0
                    expected = l1 > 0 and -l1 < l3 < 2 * l1 and l1 + 5.0 * l2 / 3.0 + l3 / 6.0 > 0
                    got = pm.validate_elastic_constants(eta1, eta2, eta24).valid
                    assert got == expected, (eta1, eta2, eta24)


class TestSPlus:
    def test_examples(self):
        assert pm.compute_s_plus(-1.0, 1.0, 1.0) == pytest.approx(1.5, abs=1e-15)
        assert pm.compute_s_plus(0.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert pm.compute_s_plus(1.0 / 24.0, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_negative_discriminant(self):
        with pytest.raises(ValueError, match="discriminant"):
            pm.compute_s_plus(10.0, 1.0, 1.0)

    def test_nonpositive_c(self):
        with pytest.raises(ValueError):
            pm.compute_s_plus(-1.0, 1.0, 0.0)

    def test_stationary_point_of_bulk_profile(self):
        # g(s) = A s^2/3 - 2B s^3/27 + C s^4/9, g'(s) = 2As/3 - 2Bs^2/9 + 4Cs^3/9
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = rng.uniform(0.1, 5.0)
            c = rng.uniform(0.1, 5.0)
            a = rng.uniform(-5.0, b * b / (24.0 * c))
            s = pm.compute_s_plus(a, b, c)
            gprime = 2.0 * a * s / 3.0 - 2.0 * b * s * s / 9.0 + 4.0 * c * s**3 / 9.0
            assert abs(gprime) < 1e-12


class TestOseenFrankMap:
    def test_one_constant_boundary_case(self):
        of = pm.map_to_oseen_frank(1.0, 1.0, 1.0, 1.5)
        assert of.k1 == of.k3 == pytest.approx(2.25)
        assert of.k2 == pytest.approx(2.25)
        assert of.k4 == 0.0

    def test_direct_substitution(self):
        of = pm.map_to_oseen_frank(1.0, 1.0, 0.5, 1.0)
        assert of.k1 == of.k3 == pytest.approx(1.0)
        assert of.k2 == pytest.approx(1.0)
        assert of.k4 == pytest.approx(-0.25)
        assert of.C6_floor == pytest.approx(0.75)

    def test_positive_k4_rejected(self):
        with pytest.raises(ValueError, match="k4"):
            pm.map_to_oseen_frank(1.0, 0.5, 2.0, 1.0)

    def test_k1_below_k2_rejected(self):
        # eta2 < eta1 makes the splay constant fall below the twist constant
        with pytest.raises(ValueError, match="k1 >= k2"):
            pm.map_to_oseen_frank(1.0, 0.2, 0.5, 1.0)

    def test_k1_equals_k3_always(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            eta1 = rng.uniform(0.1, 2.0)
            eta2 = rng.uniform(eta1, 3.0)
            eta24 = rng.uniform(0.01, eta1)
            of = pm.map_to_oseen_frank(eta1, eta2, eta24, rng.uniform(0.1, 2.0))
            assert of.k1 == of.k3

    def test_nonpositive_s_plus(self):
        with pytest.raises(ValueError):
            pm.map_to_oseen_frank(1.0, 1.0, 1.0, 0.0)


def _ldg(**overrides) -> pm.LdGParams:
    base = dict(
        A=-1.0, B=1.0, C=1.0, eta1=1.0, eta2=1.0, eta24=1.0, sigma=4.0,
        d=-0.5, e=0.0, f=10.0, lambda1=1e-3, lambda2=1e-3, q=4.0, theta0=math.pi / 9,
    )
    base.update(overrides)
    return pm.LdGParams(**base)


class TestNondimensionalize:
    def test_identity_scales(self):
        raw = _ldg()
        assert pm.nondimensionalize(raw, 1.0, 1.0) == raw

    def test_wavenumber_scaling(self):
        raw = _ldg(q=2.0 * math.pi * 1e6, sigma=2.0 * math.pi * 1e6)
        nd = pm.nondimensionalize(raw, 1e-6, 1.0)
        assert nd.q == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_layer_constant_scaling(self):
        raw = _ldg(lambda1=1e-12)
        nd = pm.nondimensionalize(raw, 1e-6, 1.0)
        assert nd.lambda1 == pytest.approx(1.0, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        raw = _ldg()
        for _ in range(50):
            r = 10.0 ** rng.uniform(-7, 2)
            eta0 = 10.0 ** rng.uniform(-3, 3)
            back = pm.redimensionalize(pm.nondimensionalize(raw, r, eta0), r, eta0)
            for field in dataclasses.fields(raw):
                a = getattr(raw, field.name)
                b = getattr(back, field.name)
                assert b == pytest.approx(a, rel=1e-13), field.name

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            pm.nondimensionalize(_ldg(), 0.0, 1.0)
        with pytest.raises(ValueError):
            pm.nondimensionalize(_ldg(), 1.0, -2.0)

    def test_invalid_elastic_constants_rejected(self):
        with pytest.raises(ValueError, match="elastic"):
            _ldg(eta1=1.0, eta2=-1.0, eta24=1.0)


class TestTemperatureMap:
    def test_examples(self):
        p = pm.ModelParams1D()
        assert pm.d_from_temperature(-10.0, p) == 0.0
        assert pm.d_from_temperature(-10.5, p) == pytest.approx(-0.5)
        p2 = dataclasses.replace(p, alpha2=2.0)
        assert pm.d_from_temperature(-9.0, p2) == pytest.approx(2.0)

    def test_round_trip(self):
        p = pm.ModelParams1D()
        assert pm.temperature_from_d(pm.d_from_temperature(-10.73, p), p) == pytest.approx(-10.73)

    def test_at_temperature(self):
        p = pm.ModelParams1D().at_temperature(-10.5)
        assert p.d == pytest.approx(-0.5)


class TestModelParams1D:
    def test_defaults_commensurate(self):
        p = pm.ModelParams1D()
        assert p.n0 == 4

    def test_incommensurate_rejected(self):
        with pytest.raises(ValueError, match="incommensurate"):
            pm.ModelParams1D(q=3.5)

    def test_commensurability_tolerance(self):
        pm.ModelParams1D(q=4.0 * (1.0 + 1e-10))  # inside the 1e-9 check
        with pytest.raises(ValueError):
            pm.ModelParams1D(q=4.001)

    def test_zero_lambda_allowed(self):
        p = pm.ModelParams1D(lambda1=0.0, lambda2=0.0)
        assert p.lambda1 == 0.0

    def test_invalid_theta0(self):
        with pytest.raises(ValueError):
            pm.ModelParams1D(theta0=0.0)
        with pytest.raises(ValueError):
            pm.ModelParams1D(theta0=math.pi / 2)

    def test_immutable(self):
        p = pm.ModelParams1D()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.d = 1.0


class TestConfig:
    def test_defaults_from_empty(self):
        config = pm.parse_config("")
        assert config.params == pm.ModelParams1D()
        assert config.n_modes == 64

    def test_parse_values_and_comments(self):
        text = """
        # demo configuration
        d = -0.25   # overridden coefficient
        N = 32
        tol_grad = 1e-10
        """
        config = pm.parse_config(text)
        assert config.params.d == -0.25
        assert config.n_modes == 32
        assert config.tol_grad == 1e-10

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValueError, match="unknown key"):
            pm.parse_config("dd = 1.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pm.parse_config("d = 1\nd = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            pm.parse_config("d = banana")

    def test_round_trip_exact(self):
        config = pm.RunConfig(params=pm.ModelParams1D(d=-0.37, k1=0.013, k2=0.013, k3=0.013), n_modes=48)
        assert pm.parse_config(pm.format_config(config)) == config
