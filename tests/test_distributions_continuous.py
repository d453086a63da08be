"""Tests for continuous parameterized distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.continuous import (Beta, Exponential, Gamma,
                                            Laplace, LogNormal, Normal,
                                            Uniform)
from repro.errors import DistributionError
from repro.measures.empirical import ks_critical_value, ks_statistic


def integrate(f, low, high, n=4000):
    """Simple trapezoidal quadrature for density normalization checks."""
    xs = np.linspace(low, high, n)
    ys = np.asarray([f(x) for x in xs])
    return float(np.trapezoid(ys, xs))


class TestNormal:
    def test_density_peak(self):
        normal = Normal()
        peak = normal.density((0.0, 1.0), 0.0)
        assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_density_correct_exponent(self):
        # Regression against the paper's typo: at one standard deviation
        # the density must be peak * exp(-1/2), not peak * exp(-1).
        normal = Normal()
        peak = normal.density((0.0, 1.0), 0.0)
        assert normal.density((0.0, 1.0), 1.0) == \
            pytest.approx(peak * math.exp(-0.5))

    def test_density_integrates_to_one(self):
        normal = Normal()
        total = integrate(lambda x: normal.density((1.0, 4.0), x),
                          -14, 16)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_variance_parameterization(self):
        # Second parameter is the variance σ², per the paper's notation.
        rng = np.random.default_rng(0)
        samples = Normal().sample_batch((0.0, 9.0), 8000, rng).tolist()
        assert abs(np.std(samples) - 3.0) < 0.15

    def test_parameter_validation(self):
        with pytest.raises(DistributionError):
            Normal().validate_params((0.0, 0.0))
        with pytest.raises(DistributionError):
            Normal().validate_params((0.0, -1.0))

    def test_cdf(self):
        normal = Normal()
        assert normal.cdf((0.0, 1.0), 0.0) == pytest.approx(0.5)
        assert normal.cdf((0.0, 1.0), 1.96) == pytest.approx(0.975,
                                                             abs=1e-3)

    def test_sampling_ks(self):
        rng = np.random.default_rng(1)
        samples = Normal().sample_batch((2.0, 4.0), 3000, rng).tolist()
        stat = ks_statistic(samples,
                            lambda x: Normal().cdf((2.0, 4.0), x))
        assert stat < ks_critical_value(3000, alpha=0.001)

    def test_non_numeric_density_zero(self):
        assert Normal().density((0.0, 1.0), "x") == 0.0


class TestLogNormal:
    def test_support_positive(self):
        assert LogNormal().density((0.0, 1.0), -1.0) == 0.0
        assert LogNormal().density((0.0, 1.0), 0.0) == 0.0
        assert LogNormal().density((0.0, 1.0), 1.0) > 0.0

    def test_density_integrates_to_one(self):
        total = integrate(
            lambda x: LogNormal().density((0.0, 0.25), x), 1e-6, 12)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_mean_formula(self):
        rng = np.random.default_rng(2)
        samples = LogNormal().sample_batch((0.5, 0.09), 20000, rng).tolist()
        assert abs(np.mean(samples) - LogNormal().mean((0.5, 0.09))) \
            < 0.05

    def test_cdf_monotone(self):
        cdf = LogNormal().cdf
        values = [cdf((0.0, 1.0), x) for x in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)


class TestExponential:
    def test_density(self):
        assert Exponential().density((2.0,), 0.0) == pytest.approx(2.0)
        assert Exponential().density((2.0,), -0.5) == 0.0

    def test_rate_parameterization(self):
        rng = np.random.default_rng(3)
        samples = Exponential().sample_batch((4.0,), 8000, rng).tolist()
        assert abs(np.mean(samples) - 0.25) < 0.02

    def test_cdf(self):
        assert Exponential().cdf((1.0,), math.log(2)) == \
            pytest.approx(0.5)

    def test_sampling_ks(self):
        rng = np.random.default_rng(4)
        samples = Exponential().sample_batch((1.5,), 3000, rng).tolist()
        stat = ks_statistic(samples,
                            lambda x: Exponential().cdf((1.5,), x))
        assert stat < ks_critical_value(3000, alpha=0.001)


class TestUniform:
    def test_density(self):
        uniform = Uniform()
        assert uniform.density((0.0, 4.0), 2.0) == pytest.approx(0.25)
        assert uniform.density((0.0, 4.0), 5.0) == 0.0

    def test_invalid_interval(self):
        with pytest.raises(DistributionError):
            Uniform().validate_params((1.0, 1.0))

    def test_sampling_range(self):
        rng = np.random.default_rng(5)
        samples = Uniform().sample_batch((-1.0, 1.0), 1000, rng).tolist()
        assert min(samples) >= -1.0 and max(samples) <= 1.0

    def test_moments(self):
        assert Uniform().mean((0.0, 6.0)) == pytest.approx(3.0)
        assert Uniform().variance((0.0, 6.0)) == pytest.approx(3.0)


class TestGamma:
    def test_density_integrates_to_one(self):
        total = integrate(lambda x: Gamma().density((2.0, 1.0), x),
                          1e-6, 30)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_exponential_special_case(self):
        # Gamma(1, λ) = Exponential(λ).
        for x in (0.1, 0.5, 2.0):
            assert Gamma().density((1.0, 2.0), x) == \
                pytest.approx(Exponential().density((2.0,), x))

    def test_sampling_mean(self):
        rng = np.random.default_rng(6)
        samples = Gamma().sample_batch((3.0, 2.0), 8000, rng).tolist()
        assert abs(np.mean(samples) - 1.5) < 0.05


class TestBeta:
    def test_support(self):
        assert Beta().density((2.0, 2.0), -0.1) == 0.0
        assert Beta().density((2.0, 2.0), 1.1) == 0.0

    def test_uniform_special_case(self):
        for x in (0.2, 0.5, 0.8):
            assert Beta().density((1.0, 1.0), x) == pytest.approx(1.0)

    def test_density_integrates_to_one(self):
        total = integrate(lambda x: Beta().density((2.0, 5.0), x),
                          1e-9, 1 - 1e-9)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_sampling_mean(self):
        rng = np.random.default_rng(7)
        samples = Beta().sample_batch((2.0, 6.0), 8000, rng).tolist()
        assert abs(np.mean(samples) - 0.25) < 0.02


class TestLaplace:
    def test_density_symmetric(self):
        laplace = Laplace()
        assert laplace.density((1.0, 2.0), 0.0) == \
            pytest.approx(laplace.density((1.0, 2.0), 2.0))

    def test_cdf_median(self):
        assert Laplace().cdf((3.0, 1.0), 3.0) == pytest.approx(0.5)

    def test_density_integrates_to_one(self):
        total = integrate(lambda x: Laplace().density((0.0, 1.0), x),
                          -15, 15)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_variance(self):
        rng = np.random.default_rng(8)
        samples = Laplace().sample_batch((0.0, 2.0), 12000, rng).tolist()
        assert abs(np.var(samples) - 8.0) < 0.6


class TestContinuousProperties:
    @given(st.floats(-5, 5), st.floats(0.1, 9.0))
    @settings(max_examples=25)
    def test_normal_density_positive(self, mu, var):
        assert Normal().density((mu, var), mu + 0.1) > 0

    @given(st.floats(-3, 3), st.floats(0.2, 4.0), st.floats(-8, 8))
    @settings(max_examples=40)
    def test_normal_cdf_in_unit_interval(self, mu, var, x):
        value = Normal().cdf((mu, var), x)
        assert 0.0 <= value <= 1.0

    @given(st.floats(0.1, 5.0), st.floats(0.01, 8.0))
    @settings(max_examples=40)
    def test_exponential_cdf_density_consistency(self, rate, x):
        # d/dx CDF = density on the smooth region x > 0
        # (finite-difference check; the CDF has a kink at 0).
        h = 1e-6
        cdf = Exponential().cdf
        derivative = (cdf((rate,), x + h) - cdf((rate,), x - h)) / (2 * h)
        assert derivative == pytest.approx(
            Exponential().density((rate,), x), abs=1e-3, rel=1e-3)
