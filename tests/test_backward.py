"""Backward evidence propagation (:mod:`repro.core.backward`).

The backward pass turns observed evidence into per-draw feasible
regions for the guided sampler.  Soundness only needs the regions to
be *necessary conditions* (over-approximations), so the tests check
three things on the paper's own examples:

* evidence the walker *can* trace yields the expected pin/interval
  region on exactly the right draw key (Examples 3.4 and 3.5);
* evidence it cannot commit to (disjoint derivation scenarios,
  opaque predicates) is dropped conservatively, never tightened;
* evidence no derivation can reach at all flips ``satisfiable`` off,
  and the session surfaces it as a :class:`MeasureError`.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.core.backward import BackwardPlan, backward_plan
from repro.core.observe import observe
from repro.distributions import base as distribution_base
from repro.engine.batched import BatchedChase
from repro.errors import MeasureError
from repro.pdb.events import (AtLeastEvent, ContainsFactEvent, Equals,
                              FactSet, Interval, PredicateEvent)
from repro.pdb.facts import Fact
from repro.workloads.paper import (EARTHQUAKE_PROGRAM_TEXT,
                                   HEIGHT_PROGRAM_TEXT,
                                   discrete_cycle_program,
                                   example_3_4_instance,
                                   example_3_5_instance,
                                   trigger_instance)

_INF = float("inf")


def _plan(program, instance, observations=(), events=()):
    """Build a plan the way ``Session._posterior_guided`` does."""
    compiled = repro.compile(program)
    batched = BatchedChase(compiled.translated, instance)
    return backward_plan(compiled.translated, batched.closed_source,
                         batched.growable, observations, events)


# ---------------------------------------------------------------------------
# Example 3.4 (earthquake): discrete pin sets
# ---------------------------------------------------------------------------

class TestEarthquakePins:

    def test_earthquake_fact_pins_the_flip(self):
        """Earthquake(Napa, 1) pins exactly the Napa quake draw to 1."""
        plan = _plan(EARTHQUAKE_PROGRAM_TEXT, example_3_4_instance(),
                     events=[ContainsFactEvent(
                         Fact("Earthquake", ("Napa", 1)))])
        assert plan.satisfiable
        assert not plan.given_up
        assert len(plan.event_regions) == 1
        ((aux, prefix), region), = plan.event_regions.items()
        assert aux.startswith("Result#")
        assert prefix == ("Napa", 0.1)  # carried city + Flip param
        assert region.single_point() == (1,)
        assert plan.n_pinned == 1 and plan.n_truncated == 0

    def test_disjoint_scenarios_stay_conservative(self):
        """Alarm(house-1) has two derivations (quake / burglary path)
        touching *different* draws - no single draw is necessary, so
        the walker must not constrain any of them."""
        plan = _plan(EARTHQUAKE_PROGRAM_TEXT, example_3_4_instance(),
                     events=[ContainsFactEvent(
                         Fact("Alarm", ("house-1",)))])
        assert plan.satisfiable
        assert plan.event_regions == {}

    def test_opaque_predicate_gives_up_with_a_note(self):
        plan = _plan(EARTHQUAKE_PROGRAM_TEXT, example_3_4_instance(),
                     events=[PredicateEvent(
                         lambda inst: len(inst) > 3, "big")])
        assert plan.satisfiable
        assert plan.event_regions == {}
        assert plan.given_up  # conservative weakening is recorded


# ---------------------------------------------------------------------------
# Example 3.5 (heights): continuous intervals and observation pins
# ---------------------------------------------------------------------------

class TestHeightRegions:

    def test_interval_evidence_truncates_the_normal(self):
        """PHeight(nl-p0) ≥ 190 becomes an interval region on exactly
        that person's Normal draw."""
        plan = _plan(HEIGHT_PROGRAM_TEXT, example_3_5_instance(),
                     events=[AtLeastEvent(
                         FactSet("PHeight", Equals("nl-p0"),
                                 Interval(190.0, _INF)), 1)])
        assert plan.satisfiable
        assert len(plan.event_regions) == 1
        ((aux, prefix), region), = plan.event_regions.items()
        assert prefix == ("nl-p0", 183.8, 49.0)  # person + Normal θ
        assert region.points == ()
        (low, high, closed_left, _cr), = region.intervals
        assert low == 190.0 and high == _INF and closed_left
        assert plan.n_truncated == 1 and plan.n_pinned == 0

    def test_observation_becomes_a_point_pin(self):
        plan = _plan(HEIGHT_PROGRAM_TEXT, example_3_5_instance(),
                     observations=[observe("PHeight", "pe-p1", 172.5)])
        assert plan.satisfiable
        assert plan.event_regions == {}
        (key, region), = plan.pin_regions.items()
        assert key[1] == ("pe-p1",)  # carried-values key (observe.py)
        assert region.single_point() == (172.5,)

    def test_clashing_evidence_is_unsatisfiable(self):
        """Height both below 150 and above 190 - empty intersection."""
        tall = AtLeastEvent(FactSet("PHeight", Equals("nl-p0"),
                                    Interval(190.0, _INF)), 1)
        short = AtLeastEvent(FactSet("PHeight", Equals("nl-p0"),
                                     Interval(-_INF, 150.0)), 1)
        plan = _plan(HEIGHT_PROGRAM_TEXT, example_3_5_instance(),
                     events=[tall, short])
        assert not plan.satisfiable


# ---------------------------------------------------------------------------
# Unreachable evidence and the session surface
# ---------------------------------------------------------------------------

class TestUnreachable:

    def test_unmatched_stable_fact_is_unsatisfiable(self):
        plan = _plan(EARTHQUAKE_PROGRAM_TEXT, example_3_4_instance(),
                     events=[ContainsFactEvent(
                         Fact("City", ("Atlantis", 0.5)))])
        assert not plan.satisfiable

    def test_session_raises_measure_error_on_unreachable(self):
        session = repro.compile(EARTHQUAKE_PROGRAM_TEXT) \
            .on(example_3_4_instance()) \
            .observe(ContainsFactEvent(Fact("City", ("Atlantis", 0.5))))
        with pytest.raises(MeasureError, match="unreachable"):
            session.posterior(method="guided", n=64, seed=3)

    def test_guided_posterior_matches_pinned_region(self):
        """End to end: guided conditioning on Earthquake(Napa, 1)
        forces the pinned draw in every world and weights each world
        by the pin's prior mass."""
        session = repro.compile(EARTHQUAKE_PROGRAM_TEXT) \
            .on(example_3_4_instance()) \
            .observe(ContainsFactEvent(Fact("Earthquake", ("Napa", 1))))
        result = session.posterior(method="guided", n=128, seed=5)
        assert result.diagnostics["backend"] == "guided"
        assert result.diagnostics["acceptance_rate"] == 1.0
        assert result.pdb.marginal(Fact("Earthquake", ("Napa", 1))) \
            == pytest.approx(1.0)
        # every world proposes the rare draw directly; the weight is
        # the pin's prior probability, identical across worlds
        assert result.diagnostics["mean_weight"] > 0.0
        assert result.diagnostics["effective_sample_size"] \
            == pytest.approx(128.0)


class TestTruncatedSamplerFailures:
    """A truncated draw that fails surfaces as a MeasureError whose
    text says why: zero prior mass, or a spent rejection budget."""

    @staticmethod
    def _guided(program, low):
        above = AtLeastEvent(FactSet("X", Interval(low, _INF)), 1)
        return repro.compile(program).on().observe(above).posterior(
            method="guided", n=50, seed=0)

    def test_exhausted_rejection_budget_is_not_called_zero_mass(
            self, monkeypatch):
        # P(Gamma<2, 1> >= 40) is about 1.7e-16: positive, but beyond
        # any rejection budget (shortened here to keep the test fast).
        monkeypatch.setattr(distribution_base, "_REJECTION_ROUNDS", 2)
        with pytest.raises(MeasureError) as raised:
            self._guided("X(Gamma<2.0, 1.0>) :- true.", 40.0)
        assert "budget exhausted" in str(raised.value)
        assert "zero prior mass" not in str(raised.value)

    def test_zero_mass_region_still_says_zero_mass(self):
        with pytest.raises(MeasureError, match="zero prior mass"):
            self._guided("X(Uniform<0.0, 1.0>) :- true.", 5.0)


# ---------------------------------------------------------------------------
# Fallbacks: programs the guided engine cannot batch
# ---------------------------------------------------------------------------

class TestFallbacks:

    def test_cyclic_program_falls_back_to_likelihood(self):
        """The discrete cycle is not weakly acyclic - no batched
        engine, so guided observation evidence degrades to likelihood
        weighting and says so in the diagnostics."""
        session = repro.compile(discrete_cycle_program()) \
            .on(trigger_instance()) \
            .observe(observe("Chain", 0, 1))
        result = session.posterior(method="guided", n=64, seed=7)
        assert result.kind == "likelihood"
        assert result.diagnostics["backend"] == "scalar"
        assert "fallback_reason" in result.diagnostics

    def test_given_up_events_still_sample_exactly(self):
        """A conservative give-up must not bias the posterior: the
        opaque predicate is enforced by post-hoc masking, so the
        guided result agrees with plain rejection."""
        predicate = PredicateEvent(
            lambda inst: Fact("Alarm", ("house-1",)) in inst,
            "alarm-up")
        base = repro.compile(EARTHQUAKE_PROGRAM_TEXT) \
            .on(example_3_4_instance())
        guided = base.observe(predicate).posterior(
            method="guided", n=4000, seed=11)
        rejection = base.observe(predicate).posterior(
            method="rejection", n=4000, seed=13)
        assert guided.diagnostics.get("given_up") or \
            guided.diagnostics.get("n_guided_draws", 0) == 0
        g = guided.pdb.marginal(Fact("Earthquake", ("Napa", 1)))
        r = rejection.pdb.marginal(Fact("Earthquake", ("Napa", 1)))
        assert abs(g - r) < 0.08

    def test_plan_defaults(self):
        plan = BackwardPlan()
        assert plan.satisfiable and plan.regions == {}
        assert plan.n_pinned == 0 and plan.n_truncated == 0
