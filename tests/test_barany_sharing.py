"""Consequences of [3]'s sample sharing on realistic programs.

Under Bárány et al.'s semantics, samples are keyed by (distribution,
parameters) *globally*.  On Example 3.4 this has striking consequences
the paper's Example 1.1 only hints at: every city shares one
``Flip⟨0.1⟩`` earthquake sample, and cities with equal burglary rates
share their burglary outcomes.  These tests pin the behaviour down
under both semantics - the sharpest executable form of the §6.2
comparison on a non-toy program.
"""

import pytest

import repro
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


@pytest.fixture
def two_city_instance():
    return paper.example_3_4_instance(
        cities={"a": 0.05, "b": 0.05},  # equal burglary rates
        houses={"h1": "a", "h2": "b"}, businesses={})


class TestEarthquakeSharing:
    def test_barany_all_cities_share_one_quake_sample(
            self, earthquake_program, two_city_instance):
        # Earthquake(c, Flip<0.1>): constant parameters, so under [3]
        # there is ONE earthquake coin for the whole world.
        pdb = repro.compile(earthquake_program, semantics="barany").on(
            two_city_instance).exact().pdb
        both = pdb.prob(lambda D: Fact("Earthquake", ("a", 1)) in D
                        and Fact("Earthquake", ("b", 1)) in D)
        either = pdb.prob(lambda D: Fact("Earthquake", ("a", 1)) in D
                          or Fact("Earthquake", ("b", 1)) in D)
        assert both == pytest.approx(0.1)
        assert either == pytest.approx(0.1)  # perfectly correlated

    def test_grohe_cities_quake_independently(
            self, earthquake_program, two_city_instance):
        pdb = repro.compile(earthquake_program, semantics="grohe").on(
            two_city_instance).exact().pdb
        both = pdb.prob(lambda D: Fact("Earthquake", ("a", 1)) in D
                        and Fact("Earthquake", ("b", 1)) in D)
        assert both == pytest.approx(0.01)

    def test_single_city_marginals_agree(self, earthquake_program):
        # On one city the two semantics coincide for the quake marginal.
        instance = paper.example_3_4_instance(
            cities={"a": 0.05}, houses={"h": "a"}, businesses={})
        quake = Fact("Earthquake", ("a", 1))
        ours = repro.compile(earthquake_program).on(instance).exact().pdb
        theirs = repro.compile(earthquake_program, semantics="barany").on(
            instance).exact().pdb
        assert ours.marginal(quake) == pytest.approx(0.1)
        assert theirs.marginal(quake) == pytest.approx(0.1)


class TestBurglarySharing:
    def test_equal_rates_share_burglary_sample_under_barany(
            self, earthquake_program, two_city_instance):
        # Burglary(x, c, Flip<r>): equal r ⇒ one shared sample in [3].
        pdb = repro.compile(earthquake_program, semantics="barany").on(
            two_city_instance).exact().pdb
        b1 = Fact("Burglary", ("h1", "a", 1))
        b2 = Fact("Burglary", ("h2", "b", 1))
        both = pdb.prob(lambda D: b1 in D and b2 in D)
        assert both == pytest.approx(0.05)

    def test_distinct_rates_stay_independent_under_barany(
            self, earthquake_program):
        instance = paper.example_3_4_instance(
            cities={"a": 0.05, "b": 0.07},
            houses={"h1": "a", "h2": "b"}, businesses={})
        pdb = repro.compile(earthquake_program, semantics="barany").on(
            instance).exact().pdb
        b1 = Fact("Burglary", ("h1", "a", 1))
        b2 = Fact("Burglary", ("h2", "b", 1))
        both = pdb.prob(lambda D: b1 in D and b2 in D)
        assert both == pytest.approx(0.05 * 0.07)

    def test_grohe_always_independent(self, earthquake_program,
                                      two_city_instance):
        pdb = repro.compile(earthquake_program, semantics="grohe").on(
            two_city_instance).exact().pdb
        b1 = Fact("Burglary", ("h1", "a", 1))
        b2 = Fact("Burglary", ("h2", "b", 1))
        both = pdb.prob(lambda D: b1 in D and b2 in D)
        assert both == pytest.approx(0.05 * 0.05)


class TestAlarmConsequences:
    def test_alarm_marginal_differs_across_semantics(
            self, earthquake_program, two_city_instance):
        # Per-unit alarm marginals actually coincide (each unit's path
        # probabilities are unchanged); what differs is the JOINT law.
        ours = repro.compile(earthquake_program).on(
            two_city_instance).exact().pdb
        theirs = repro.compile(earthquake_program, semantics="barany").on(
            two_city_instance).exact().pdb
        a1, a2 = Fact("Alarm", ("h1",)), Fact("Alarm", ("h2",))
        assert ours.marginal(a1) == pytest.approx(theirs.marginal(a1))
        joint_ours = ours.prob(lambda D: a1 in D and a2 in D)
        joint_theirs = theirs.prob(lambda D: a1 in D and a2 in D)
        # Shared quake/burglary/trigger coins induce extra positive
        # correlation between the two alarms under [3].
        assert joint_theirs > joint_ours

    def test_simulation_reproduces_sharing(self, earthquake_program,
                                           two_city_instance):
        # The §6.2 rewriting simulates the shared-coin joint law inside
        # our semantics, on the full Example 3.4 pipeline.
        from repro.core.barany import to_grohe_simulation
        visible = earthquake_program.relations()
        target = repro.compile(earthquake_program, semantics="barany").on(
            two_city_instance).exact().pdb.project(visible)
        simulated = repro.compile(to_grohe_simulation(earthquake_program)).on(
            two_city_instance).exact().pdb.project(visible)
        assert simulated.allclose(target)
