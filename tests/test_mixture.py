"""Tests for finite mixtures (repro.distributions.mixture)."""

import numpy as np
import pytest

import repro
from repro.core.program import Program
from repro.distributions.discrete import Flip, Poisson
from repro.distributions.continuous import Normal, Uniform
from repro.distributions.mixture import FiniteMixture
from repro.distributions.registry import default_registry
from repro.distributions.verify import (verify_normalization,
                                        verify_parameter_continuity)
from repro.errors import DistributionError
from repro.measures.empirical import summarize
from repro.pdb.facts import Fact


def bimodal():
    return FiniteMixture("Bimodal", [
        (0.5, Normal(), (-2.0, 1.0)),
        (0.5, Normal(), (2.0, 1.0)),
    ])


def skewed_coin():
    return FiniteMixture("SkewedCoin", [
        (0.75, Flip(), (0.9,)),
        (0.25, Flip(), (0.1,)),
    ])


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            FiniteMixture("Bad", [(0.5, Flip(), (0.5,)),
                                  (0.6, Flip(), (0.5,))])

    def test_weights_must_be_positive(self):
        with pytest.raises(DistributionError):
            FiniteMixture("Bad", [(1.0, Flip(), (0.5,)),
                                  (0.0, Flip(), (0.2,))])

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            FiniteMixture("Bad", [])

    def test_mixed_kind_rejected(self):
        # Remark 2.4: no common base measure.
        with pytest.raises(DistributionError, match="base measure"):
            FiniteMixture("Bad", [(0.5, Flip(), (0.5,)),
                                  (0.5, Normal(), (0.0, 1.0))])

    def test_component_params_validated(self):
        with pytest.raises(DistributionError):
            FiniteMixture("Bad", [(1.0, Flip(), (1.5,))])


class TestDensityAndMoments:
    def test_density_is_weighted_sum(self):
        mixture = bimodal()
        normal = Normal()
        x = 0.7
        expected = 0.5 * normal.density((-2.0, 1.0), x) \
            + 0.5 * normal.density((2.0, 1.0), x)
        assert mixture.density((), x) == pytest.approx(expected)

    def test_discrete_pmf(self):
        coin = skewed_coin()
        assert coin.density((), 1) == \
            pytest.approx(0.75 * 0.9 + 0.25 * 0.1)

    def test_cdf(self):
        mixture = bimodal()
        assert mixture.cdf((), 0.0) == pytest.approx(0.5)

    def test_mean_total_expectation(self):
        mixture = FiniteMixture("M", [(0.25, Normal(), (0.0, 1.0)),
                                      (0.75, Normal(), (4.0, 1.0))])
        assert mixture.mean(()) == pytest.approx(3.0)

    def test_variance_total_variance(self):
        mixture = bimodal()
        # Var = E[Var|k] + Var(E|k) = 1 + 4.
        assert mixture.variance(()) == pytest.approx(5.0)

    def test_normalization_verifier(self):
        assert verify_normalization(bimodal(), ())
        assert verify_normalization(skewed_coin(), ())

    def test_continuity_vacuous_zero_params(self):
        # Zero-parameter family: trivially continuous in θ.
        assert bimodal().param_arity == 0


class TestSupportAndSampling:
    def test_discrete_support_union(self):
        coin = skewed_coin()
        assert sorted(coin.support(())) == [0, 1]
        assert coin.support_is_finite(())

    def test_infinite_component_support(self):
        mixture = FiniteMixture("M", [(0.5, Flip(), (0.5,)),
                                      (0.5, Poisson(), (1.0,))])
        support = mixture.support(())
        first_few = [next(support) for _ in range(5)]
        assert len(set(first_few)) == 5
        assert not mixture.support_is_finite(())

    def test_truncated_support_mass(self):
        coin = skewed_coin()
        pairs, residue = coin.truncated_support(())
        assert sum(m for _, m in pairs) + residue == pytest.approx(1.0)

    def test_sampling_matches_density(self):
        mixture = bimodal()
        rng = np.random.default_rng(0)
        samples = mixture.sample_batch((), 6000, rng).tolist()
        summary = summarize(samples)
        assert abs(summary.mean) < 0.15
        assert abs(summary.variance - 5.0) < 0.4

    def test_uniform_mixture_bounds(self):
        mixture = FiniteMixture("U", [(0.5, Uniform(), (0.0, 1.0)),
                                      (0.5, Uniform(), (9.0, 10.0))])
        rng = np.random.default_rng(1)
        samples = mixture.sample_batch((), 500, rng).tolist()
        assert all(0 <= s <= 1 or 9 <= s <= 10 for s in samples)


class TestMixtureInPrograms:
    def test_registered_and_parsed(self):
        registry = default_registry()
        registry.register(skewed_coin())
        program = Program.parse("C(SkewedCoin<>) :- true.",
                                registry=registry)
        pdb = repro.compile(program).on().exact().pdb
        assert pdb.marginal(Fact("C", (1,))) == \
            pytest.approx(0.75 * 0.9 + 0.25 * 0.1)

    def test_continuous_mixture_sampling_semantics(self):
        registry = default_registry()
        registry.register(bimodal())
        program = Program.parse("X(Bimodal<>) :- true.",
                                registry=registry)
        pdb = repro.compile(program).on(
            seed=2, backend="scalar").sample(3000).pdb
        values = pdb.values_of(
            lambda D: [f.args[0] for f in D.facts_of("X")])
        negative = sum(1 for v in values if v < 0) / len(values)
        assert abs(negative - 0.5) < 0.04


class TestEmptyAngleParsing:
    def test_zero_param_random_term(self):
        registry = default_registry()
        registry.register(skewed_coin())
        program = Program.parse("C(SkewedCoin<>) :- true.",
                                registry=registry)
        term = program.rules[0].head.terms[0]
        assert term.params == ()

    def test_source_roundtrip_zero_params(self):
        from repro.core.source import program_to_source
        registry = default_registry()
        registry.register(skewed_coin())
        program = Program.parse("C(SkewedCoin<>) :- true.",
                                registry=registry)
        text = program_to_source(program)
        assert "SkewedCoin<>" in text
        assert Program.parse(text, registry=registry).rules == \
            program.rules


class TestVectorizedSampling:
    @pytest.mark.parametrize("name,params", [
        ("Normal", (1.0, 4.0)), ("Exponential", (2.0,)),
        ("Uniform", (0.0, 3.0)), ("Poisson", (3.0,)),
        ("Binomial", (10, 0.4)),
    ])
    def test_vectorized_matches_scalar_distribution(self, name, params):
        from repro.distributions.registry import DEFAULT_REGISTRY
        from repro.measures.empirical import ks_two_sample, \
            ks_critical_value
        distribution = DEFAULT_REGISTRY[name]
        scalar = [distribution.sample(params,
                                      np.random.default_rng(1000 + i))
                  for i in range(800)]
        vectorized = distribution.sample_batch(
            params, 800, np.random.default_rng(5)).tolist()
        assert len(vectorized) == 800
        stat = ks_two_sample([float(s) for s in scalar],
                             [float(v) for v in vectorized])
        assert stat < ks_critical_value(800, 800, alpha=0.001)
