"""Tests for likelihood weighting (repro.core.observe).

The weighted chase runs through
``Session.observe(*observations).posterior(method="likelihood")``.
"""

import math

import numpy as np
import pytest

import repro
from repro.core.observe import Observation, observe
from repro.core.program import Program
from repro.errors import MeasureError, ValidationError
from repro.measures.empirical import summarize
from repro.pdb.events import ContainsFactEvent
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedPDB


def likelihood(program, instance, *observations, n, seed):
    return repro.compile(program).on(instance, seed=seed).observe(
        *observations).posterior(method="likelihood", n=n)


class TestObservationConstruction:
    def test_observe_helper(self):
        observation = observe("PHeight", "ada", 172.5)
        assert observation.relation == "PHeight"
        assert observation.carried == ("ada",)
        assert observation.value == 172.5

    def test_value_normalization(self):
        assert observe("R", True).value == 1

    def test_needs_value(self):
        with pytest.raises(ValidationError):
            observe("R")

    def test_unknown_relation_rejected(self):
        program = Program.parse("A(Flip<0.5>) :- true.")
        with pytest.raises(ValidationError, match="no random rule"):
            likelihood(program, None, observe("Nope", 1), n=10, seed=0)


class TestDiscreteAgreesWithExactConditioning:
    def test_two_coin_posterior(self):
        program = Program.parse("""
            A(Flip<0.3>) :- true.
            B(Flip<0.5>) :- A(1).
        """)
        # Observe A's sample = 1.
        result = likelihood(program, None, observe("A", 1), n=3000,
                            seed=0)
        exact = repro.compile(program).on().observe(
            ContainsFactEvent(Fact("A", (1,)))).posterior(
            method="exact").pdb
        estimate = result.pdb.prob(
            lambda D: Fact("B", (1,)) in D)
        assert abs(estimate - exact.marginal(Fact("B", (1,)))) < 0.04
        # Weights are the evidence likelihood: mean weight ≈ P(A=1).
        assert abs(result.diagnostics["mean_weight"] - 0.3) < 1e-9

    def test_observation_weight_is_constant_for_root_samples(self):
        program = Program.parse("A(Flip<0.25>) :- true.")
        result = likelihood(program, None, observe("A", 1), n=50,
                            seed=1)
        assert all(w == pytest.approx(0.25)
                   for w in result.pdb.weights)
        assert all(Fact("A", (1,)) in world
                   for world in result.pdb.worlds)

    def test_carried_values_select_the_sample(self):
        program = Program.parse("Quake(c, Flip<r>) :- City(c, r).")
        data = Instance.of(Fact("City", ("n", 0.5)),
                           Fact("City", ("d", 0.5)))
        result = likelihood(
            program, data, observe("Quake", "n", 1), n=500, seed=2)
        # Observed city pinned; the other stays random.
        assert result.pdb.prob(
            lambda D: Fact("Quake", ("n", 1)) in D) == 1.0
        other = result.pdb.prob(
            lambda D: Fact("Quake", ("d", 1)) in D)
        assert abs(other - 0.5) < 0.1

    def test_impossible_discrete_evidence(self):
        program = Program.parse("A(Flip<1.0>) :- true.")
        with pytest.raises(MeasureError, match="zero"):
            likelihood(program, None, observe("A", 0), n=20, seed=3)


class TestContinuousPosterior:
    def test_normal_normal_update(self):
        # Mu ~ N(0,1); X ~ N(Mu, 1); observe X = 2.
        # Posterior: Mu | X=2 ~ N(1, 1/2)  (textbook conjugate update).
        program = Program.parse("""
            Mu(Normal<0, 1>) :- true.
            X(Normal<m, 1>) :- Mu(m).
        """)
        result = likelihood(program, None, observe("X", 2.0),
                            n=20_000, seed=4)
        assert result.diagnostics["effective_sample_size"] > 2000
        mean = result.pdb.weighted_mean(
            lambda D: [f.args[0] for f in D.facts_of("Mu")])
        assert abs(mean - 1.0) < 0.05
        second_moment = result.pdb.expectation(
            lambda D: next(iter(D.facts_of("Mu"))).args[0] ** 2)
        variance = second_moment - mean ** 2
        assert abs(variance - 0.5) < 0.05

    def test_evidence_density_in_weights(self):
        program = Program.parse("X(Normal<0, 1>) :- true.")
        result = likelihood(program, None, observe("X", 0.0), n=30,
                            seed=5)
        peak = 1.0 / math.sqrt(2 * math.pi)
        assert all(w == pytest.approx(peak)
                   for w in result.pdb.weights)


class TestWeightedPDB:
    def test_self_normalization(self):
        worlds = [Instance.of(Fact("R", (1,))),
                  Instance.of(Fact("R", (0,)))]
        pdb = WeightedPDB(worlds, [3.0, 1.0])
        assert pdb.prob(lambda D: Fact("R", (1,)) in D) == \
            pytest.approx(0.75)
        assert pdb.total_mass() == 1.0

    def test_zero_weights_rejected_if_all_zero(self):
        worlds = [Instance.of(Fact("R", (1,)))]
        with pytest.raises(MeasureError):
            WeightedPDB(worlds, [0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError):
            WeightedPDB([Instance.empty()], [-1.0])

    def test_effective_sample_size(self):
        pdb = WeightedPDB([Instance.empty()] * 4, [1.0] * 4)
        assert pdb.effective_sample_size() == pytest.approx(4.0)
        skewed = WeightedPDB([Instance.empty()] * 4,
                             [1.0, 0.0, 0.0, 0.0])
        assert skewed.effective_sample_size() == pytest.approx(1.0)

    def test_to_discrete_merges(self):
        a = Instance.of(Fact("R", (1,)))
        pdb = WeightedPDB([a, a], [1.0, 3.0])
        exact = pdb.to_discrete()
        assert exact.prob_of_instance(a) == pytest.approx(1.0)

    def test_map_worlds(self):
        a = Instance.of(Fact("R", (1,)), Fact("Aux", (0,)))
        pdb = WeightedPDB([a], [2.0]).map_worlds(
            lambda D: D.restrict(["R"]))
        assert pdb.worlds[0].relations() == ("R",)

    def test_expectation(self):
        worlds = [Instance.of(Fact("R", (1,))),
                  Instance.of(Fact("R", (0,)), Fact("S", (0,)))]
        pdb = WeightedPDB(worlds, [1.0, 1.0])
        assert pdb.expectation(len) == pytest.approx(1.5)
