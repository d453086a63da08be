"""Tests for the Section 6.2 inter-semantics simulations."""

import numpy as np
import pytest

import repro
from repro.core.barany import (TaggedDistribution,
                               simulation_helper_relations,
                               to_barany_simulation, to_grohe_simulation)
from repro.core.program import Program
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.workloads import paper
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


def assert_simulation_faithful(program, instance=None):
    """Core claim of §6.2 in both directions, on exact SPDBs."""
    visible = program.relations()

    target = repro.compile(program, semantics="barany").on(
        instance).exact().pdb.project(visible)
    simulated = repro.compile(to_grohe_simulation(program),
                              semantics="grohe").on(
        instance).exact().pdb.project(visible)
    assert simulated.allclose(target), "barany-in-grohe failed"

    target = repro.compile(program, semantics="grohe").on(
        instance).exact().pdb.project(visible)
    rewritten, _registry = to_barany_simulation(program)
    simulated = repro.compile(rewritten, semantics="barany").on(
        instance).exact().pdb.project(visible)
    assert simulated.allclose(target), "grohe-in-barany failed"


class TestGroheSimulation:
    def test_h_becomes_h_prime_shape(self, program_h):
        simulated = to_grohe_simulation(program_h)
        helpers = simulation_helper_relations(simulated)
        assert any(name.startswith("BSample#") for name in helpers)
        # Exactly one relay rule for the shared Flip<0.5>.
        relay_rules = [r for r in simulated.rules
                       if r.head.relation.startswith("BSample#")]
        assert len(relay_rules) == 1

    def test_g0(self, g0):
        assert_simulation_faithful(g0)

    def test_g0_prime(self, g0_prime):
        assert_simulation_faithful(g0_prime)

    def test_h(self, program_h):
        assert_simulation_faithful(program_h)

    def test_g_eps(self):
        assert_simulation_faithful(paper.example_1_1_g_eps(0.25))

    def test_program_with_parameters_from_data(self):
        program = Program.parse("""
            Quake(c, Flip<r>) :- City(c, r).
            Shake(c, Flip<r>) :- City(c, r).
        """)
        D = Instance.of(Fact("City", ("n", 0.5)),
                        Fact("City", ("d", 0.25)))
        assert_simulation_faithful(program, D)

    def test_shared_sample_correlates_relations(self):
        # Under [3], Quake and Shake share Flip<r> per parameter r.
        program = Program.parse("""
            Quake(c, Flip<r>) :- City(c, r).
            Shake(c, Flip<r>) :- City(c, r).
        """)
        D = Instance.of(Fact("City", ("n", 0.5)))
        pdb = repro.compile(program, semantics="barany").on(D).exact().pdb
        both = pdb.prob(lambda w: Fact("Quake", ("n", 1)) in w
                        and Fact("Shake", ("n", 1)) in w)
        assert both == pytest.approx(0.5)  # perfectly correlated
        pdb = repro.compile(program, semantics="grohe").on(D).exact().pdb
        both = pdb.prob(lambda w: Fact("Quake", ("n", 1)) in w
                        and Fact("Shake", ("n", 1)) in w)
        assert both == pytest.approx(0.25)  # independent


class TestTaggedDistribution:
    def test_tag_ignored_by_law(self):
        tagged = TaggedDistribution(DEFAULT_REGISTRY["Flip"])
        assert tagged.density((7, 0.3), 1) == pytest.approx(0.3)
        assert tagged.density((99, 0.3), 1) == pytest.approx(0.3)

    def test_param_arity_extended(self):
        tagged = TaggedDistribution(DEFAULT_REGISTRY["Flip"])
        assert tagged.param_arity == 2
        tagged.validate_params(("tag", 0.5))

    def test_sampling(self):
        tagged = TaggedDistribution(DEFAULT_REGISTRY["Flip"])
        rng = np.random.default_rng(0)
        samples = [tagged.sample((0, 0.9), rng) for _ in range(200)]
        assert np.mean(samples) > 0.75

    def test_support_and_moments_delegate(self):
        tagged = TaggedDistribution(DEFAULT_REGISTRY["Flip"])
        assert list(tagged.support((0, 0.5))) == [0, 1]
        assert tagged.mean((0, 0.5)) == pytest.approx(0.5)
        assert tagged.support_is_finite((0, 0.5))


class TestBaranySimulation:
    def test_tags_separate_rules(self, g0):
        rewritten, registry = to_barany_simulation(g0)
        terms = [rule.single_random_term()[1]
                 for rule in rewritten.rules]
        assert terms[0].params[0] != terms[1].params[0]
        assert "FlipTagged" in registry

    def test_registry_reuse_single_wrapper(self, g0):
        rewritten, registry = to_barany_simulation(g0)
        distributions = {rule.single_random_term()[1].distribution
                         for rule in rewritten.rules}
        assert len(distributions) == 1

    def test_earthquake_simulation(self):
        program = paper.example_3_4_program()
        instance = paper.example_3_4_instance(
            cities={"n": 0.25}, houses={"h": "n"}, businesses={})
        assert_simulation_faithful(program, instance)
