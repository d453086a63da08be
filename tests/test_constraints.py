"""Tests for conditioning on instance events (PPDL's constraints).

Exact and rejection conditioning run through
``Session.observe(*events).posterior(method=...)``, the one
conditioning facade.
"""

import pytest

import repro
from repro.core.program import Program
from repro.errors import MeasureError
from repro.pdb.events import ContainsFactEvent, FactSet, Interval, \
    CountingEvent
from repro.pdb.facts import Fact
from repro.workloads import paper


@pytest.fixture
def two_coins():
    return Program.parse("""
        A(Flip<0.5>) :- true.
        B(Flip<0.5>) :- true.
    """)


def exact_posterior(program, instance, *constraints):
    return repro.compile(program).on(instance).observe(
        *constraints).posterior(method="exact").pdb


def rejection_posterior(program, instance, *constraints, n, seed,
                        **overrides):
    return repro.compile(program).on(
        instance, seed=seed, **overrides).observe(
        *constraints).posterior(method="rejection", n=n)


class TestExactConditioning:
    def test_posterior_renormalized(self, two_coins):
        posterior = exact_posterior(
            two_coins, None, ContainsFactEvent(Fact("A", (1,))))
        assert posterior.total_mass() == pytest.approx(1.0)
        assert posterior.marginal(Fact("A", (1,))) == pytest.approx(1.0)
        # B stays fair: independence.
        assert posterior.marginal(Fact("B", (1,))) == pytest.approx(0.5)

    def test_correlated_conditioning(self, earthquake_program,
                                     earthquake_instance):
        # Observing the alarm raises the burglary posterior.
        alarm = ContainsFactEvent(Fact("Alarm", ("house-1",)))
        posterior = exact_posterior(earthquake_program,
                                    earthquake_instance, alarm)
        prior = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        burglary = Fact("Burglary", ("house-1", "Napa", 1))
        assert posterior.marginal(burglary) > prior.marginal(burglary)

    def test_bayes_rule_agreement(self, two_coins):
        # P(B=1 | A=1 or B=1) = P(B=1)/P(A∪B) by inclusion-exclusion.
        union = ContainsFactEvent(Fact("A", (1,))) | \
            ContainsFactEvent(Fact("B", (1,)))
        posterior = exact_posterior(two_coins, None, union)
        assert posterior.marginal(Fact("B", (1,))) == \
            pytest.approx(0.5 / 0.75)

    def test_multiple_constraints_conjoin(self, two_coins):
        posterior = exact_posterior(
            two_coins, None,
            ContainsFactEvent(Fact("A", (1,))),
            ContainsFactEvent(Fact("B", (0,))))
        assert posterior.support_size() == 1

    def test_zero_probability_raises(self, two_coins):
        with pytest.raises(MeasureError, match="probability zero"):
            exact_posterior(two_coins, None,
                            ContainsFactEvent(Fact("A", (7,))))


class TestRejectionSampling:
    def test_matches_exact_posterior(self, two_coins):
        constraint = ContainsFactEvent(Fact("A", (1,)))
        exact = exact_posterior(two_coins, None, constraint)
        result = rejection_posterior(two_coins, None, constraint,
                                     n=4000, seed=0)
        assert abs(result.diagnostics["acceptance_rate"] - 0.5) < 0.03
        estimate = result.pdb.marginal(Fact("B", (1,)))
        assert abs(estimate - exact.marginal(Fact("B", (1,)))) < 0.04

    def test_continuous_thick_event(self):
        program = Program.parse(
            "X(Normal<0, 1>) :- true.")
        positive = CountingEvent(
            FactSet("X", Interval(low=0.0)), 1)
        result = rejection_posterior(program, None, positive,
                                     n=2000, seed=1)
        assert abs(result.diagnostics["acceptance_rate"] - 0.5) < 0.05
        values = result.pdb.values_of(
            lambda D: [f.args[0] for f in D.facts_of("X")])
        assert all(v >= 0.0 for v in values)

    def test_measure_zero_event_raises(self):
        program = Program.parse("X(Normal<0, 1>) :- true.")
        point = ContainsFactEvent(Fact("X", (0.123,)))
        with pytest.raises(MeasureError, match="measure-zero"):
            rejection_posterior(program, None, point, n=200, seed=2)

    def test_truncated_runs_excluded(self):
        program = paper.discrete_cycle_program(1.0)
        anything = lambda D: True
        result = rejection_posterior(
            program, paper.trigger_instance(), anything, n=300,
            seed=3, max_steps=5)
        assert result.n_truncated > 0
        assert result.diagnostics["n_accepted"] + result.n_truncated \
            <= result.diagnostics["n_proposed"]
        assert 0.0 < result.diagnostics["acceptance_rate"] <= 1.0

