"""Tests for discrete parameterized distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions.discrete import (Binomial, Categorical,
                                          DiscreteUniform, Flip, Geometric,
                                          Poisson)
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.errors import DistributionError
from repro.measures.empirical import frequencies_close


class TestFlip:
    def test_density(self):
        flip = Flip()
        assert flip.density((0.3,), 1) == pytest.approx(0.3)
        assert flip.density((0.3,), 0) == pytest.approx(0.7)
        assert flip.density((0.3,), 2) == 0.0
        assert flip.density((0.3,), "x") == 0.0

    def test_bool_value_normalized(self):
        assert Flip().density((0.3,), True) == pytest.approx(0.3)

    def test_parameter_space(self):
        flip = Flip()
        flip.validate_params((0.0,))
        flip.validate_params((1.0,))
        with pytest.raises(DistributionError):
            flip.validate_params((1.5,))
        with pytest.raises(DistributionError):
            flip.validate_params(("x",))
        with pytest.raises(DistributionError):
            flip.validate_params((0.2, 0.3))

    def test_support(self):
        assert list(Flip().support((0.5,))) == [0, 1]
        assert Flip().support_is_finite((0.5,))

    def test_truncated_support_exact(self):
        pairs, residue = Flip().truncated_support((0.25,))
        assert dict(pairs) == {0: 0.75, 1: 0.25}
        assert residue == pytest.approx(0.0)

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(0)
        samples = Flip().sample_batch((0.3,), 5000, rng).tolist()
        assert frequencies_close(samples, {1: 0.3, 0: 0.7})

    def test_moments(self):
        assert Flip().mean((0.3,)) == pytest.approx(0.3)
        assert Flip().variance((0.3,)) == pytest.approx(0.21)

    def test_measure(self):
        m = Flip().measure((0.5,))
        assert m.is_probability()

    def test_bernoulli_alias_same_law(self):
        bernoulli = DEFAULT_REGISTRY["Bernoulli"]
        assert bernoulli.density((0.4,), 1) == \
            Flip().density((0.4,), 1)
        assert bernoulli.name != Flip().name


class TestBinomial:
    def test_density_sums_to_one(self):
        binomial = Binomial()
        total = sum(binomial.density((5, 0.3), k) for k in range(6))
        assert total == pytest.approx(1.0)

    def test_density_values(self):
        assert Binomial().density((2, 0.5), 1) == pytest.approx(0.5)
        assert Binomial().density((2, 0.5), 3) == 0.0
        assert Binomial().density((2, 0.5), -1) == 0.0
        assert Binomial().density((2, 0.5), 1.5) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DistributionError):
            Binomial().validate_params((-1, 0.5))
        with pytest.raises(DistributionError):
            Binomial().validate_params((3, 1.5))
        with pytest.raises(DistributionError):
            Binomial().validate_params((2.5, 0.5))

    def test_moments(self):
        assert Binomial().mean((10, 0.3)) == pytest.approx(3.0)
        assert Binomial().variance((10, 0.3)) == pytest.approx(2.1)

    def test_sampling_mean(self):
        rng = np.random.default_rng(1)
        samples = Binomial().sample_batch((20, 0.4), 3000, rng).tolist()
        assert abs(np.mean(samples) - 8.0) < 0.3


class TestPoisson:
    def test_density_formula(self):
        poisson = Poisson()
        lam = 2.5
        for k in range(6):
            expected = lam ** k * math.exp(-lam) / math.factorial(k)
            assert poisson.density((lam,), k) == pytest.approx(expected)

    def test_infinite_support_flag(self):
        assert not Poisson().support_is_finite((1.0,))

    def test_truncated_support_covers_tolerance(self):
        pairs, residue = Poisson().truncated_support((3.0,), 1e-10)
        assert residue <= 1e-10
        assert sum(mass for _, mass in pairs) >= 1.0 - 1e-9

    def test_parameter_validation(self):
        with pytest.raises(DistributionError):
            Poisson().validate_params((0.0,))
        with pytest.raises(DistributionError):
            Poisson().validate_params((-1.0,))

    def test_sampling_mean(self):
        rng = np.random.default_rng(2)
        samples = Poisson().sample_batch((4.0,), 3000, rng).tolist()
        assert abs(np.mean(samples) - 4.0) < 0.2

    def test_large_rate_stable(self):
        # log-space density computation avoids overflow.
        value = Poisson().density((500.0,), 500)
        assert 0.0 < value < 1.0


class TestGeometric:
    def test_density(self):
        geometric = Geometric()
        assert geometric.density((0.5,), 0) == pytest.approx(0.5)
        assert geometric.density((0.5,), 2) == pytest.approx(0.125)
        assert geometric.density((0.5,), -1) == 0.0

    def test_support_starts_at_zero(self):
        rng = np.random.default_rng(3)
        samples = Geometric().sample_batch((0.9,), 500, rng).tolist()
        assert min(samples) == 0

    def test_sampling_matches_pmf(self):
        rng = np.random.default_rng(4)
        samples = Geometric().sample_batch((0.4,), 5000, rng).tolist()
        expected = {k: 0.6 ** k * 0.4 for k in range(4)}
        assert frequencies_close(samples, expected)

    def test_mean(self):
        assert Geometric().mean((0.25,)) == pytest.approx(3.0)


class TestDiscreteUniform:
    def test_density(self):
        du = DiscreteUniform()
        assert du.density((1, 4), 2) == pytest.approx(0.25)
        assert du.density((1, 4), 5) == 0.0

    def test_support(self):
        assert list(DiscreteUniform().support((2, 5))) == [2, 3, 4, 5]

    def test_invalid_range(self):
        with pytest.raises(DistributionError):
            DiscreteUniform().validate_params((5, 2))

    def test_sampling_range(self):
        rng = np.random.default_rng(5)
        samples = DiscreteUniform().sample_batch((3, 7), 500, rng).tolist()
        assert min(samples) >= 3 and max(samples) <= 7

    def test_mean_variance(self):
        assert DiscreteUniform().mean((1, 5)) == pytest.approx(3.0)
        assert DiscreteUniform().variance((1, 5)) == pytest.approx(2.0)


class TestCategorical:
    def test_variadic_parameters(self):
        categorical = Categorical()
        assert categorical.density((0.2, 0.3, 0.5), 2) == \
            pytest.approx(0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            Categorical().validate_params((0.5, 0.6))
        with pytest.raises(DistributionError):
            Categorical().validate_params((-0.5, 1.5))

    def test_sampling(self):
        rng = np.random.default_rng(6)
        samples = Categorical().sample_batch((0.1, 0.9), 3000, rng).tolist()
        assert frequencies_close(samples, {0: 0.1, 1: 0.9})

    def test_moments(self):
        assert Categorical().mean((0.5, 0.5)) == pytest.approx(0.5)


class TestPmfProperties:
    @given(st.floats(0.01, 0.99))
    def test_flip_pmf_normalized(self, p):
        flip = Flip()
        assert flip.density((p,), 0) + flip.density((p,), 1) == \
            pytest.approx(1.0)

    @given(st.integers(0, 12), st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_binomial_pmf_normalized(self, n, p):
        binomial = Binomial()
        total = sum(binomial.density((n, p), k) for k in range(n + 1))
        assert total == pytest.approx(1.0)

    @given(st.floats(0.1, 8.0))
    @settings(max_examples=20)
    def test_poisson_truncation_accounting(self, lam):
        pairs, residue = Poisson().truncated_support((lam,), 1e-9)
        assert sum(m for _, m in pairs) + residue == \
            pytest.approx(1.0, abs=1e-6)

    @given(st.floats(0.2, 1.0))
    @settings(max_examples=20)
    def test_geometric_truncation_accounting(self, p):
        pairs, residue = Geometric().truncated_support((p,), 1e-9)
        assert sum(m for _, m in pairs) + residue == \
            pytest.approx(1.0, abs=1e-6)
