"""Tests for query lifting to PDBs (repro.query, Fact 2.6)."""

import pytest

import repro
from repro.core.program import Program
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.query.aggregates import Aggregate, agg_count
from repro.query import (aggregate_distribution, answer_probabilities,
                         boolean_probability, expected_aggregate,
                         query_distribution, statistic_distribution)
from repro.query.relalg import scan


@pytest.fixture
def flip_pdb(g0):
    return repro.compile(g0).on().exact().pdb


def r_count_query():
    return Aggregate(scan("R", "v"), (), {"n": agg_count()})


class TestExactLifting:
    def test_aggregate_distribution(self, flip_pdb):
        counts = aggregate_distribution(flip_pdb, r_count_query())
        assert counts.mass(1) == pytest.approx(0.5)
        assert counts.mass(2) == pytest.approx(0.5)

    def test_expected_aggregate(self, flip_pdb):
        assert expected_aggregate(flip_pdb, r_count_query()) == \
            pytest.approx(1.5)

    def test_boolean_probability(self, flip_pdb):
        ones = scan("R", "v").where(v=1)
        assert boolean_probability(flip_pdb, ones) == pytest.approx(0.75)

    def test_query_distribution_full_answers(self, flip_pdb):
        answers = query_distribution(flip_pdb, scan("R", "v"))
        assert answers.total_mass() == pytest.approx(1.0)
        assert len(answers) == 3  # {0}, {1}, {0,1} as answer relations

    def test_statistic_distribution(self, flip_pdb):
        sizes = statistic_distribution(flip_pdb, len)
        assert sizes.mass(1) == pytest.approx(0.5)

    def test_answer_probabilities(self, flip_pdb):
        marginals = answer_probabilities(flip_pdb, scan("R", "v"), "v")
        assert marginals[0] == pytest.approx(0.75)
        assert marginals[1] == pytest.approx(0.75)

    def test_subprobability_passes_through(self):
        world = Instance.of(Fact("R", (1,)))
        spdb = DiscretePDB(DiscreteMeasure({world: 0.5}), err=0.5)
        counts = aggregate_distribution(spdb, r_count_query())
        assert counts.total_mass() == pytest.approx(0.5)


class TestMonteCarloLifting:
    def test_estimates_match_exact(self, g0, flip_pdb):
        sampled = repro.compile(g0).on(
            seed=0, backend="scalar").sample(4000).pdb
        exact_counts = aggregate_distribution(flip_pdb, r_count_query())
        sampled_counts = aggregate_distribution(sampled,
                                                r_count_query())
        assert exact_counts.tv_distance(sampled_counts) < 0.03

    def test_boolean_probability_estimate(self, g0):
        sampled = repro.compile(g0).on(
            seed=1, backend="scalar").sample(3000).pdb
        ones = scan("R", "v").where(v=1)
        assert abs(boolean_probability(sampled, ones) - 0.75) < 0.04

    def test_truncated_mass_excluded(self):
        pdb = MonteCarloPDB([Instance.of(Fact("R", (1,)))] * 5,
                            truncated=5)
        counts = aggregate_distribution(pdb, r_count_query())
        assert counts.total_mass() == pytest.approx(0.5)

    def test_continuous_aggregates(self, heights_program,
                                   heights_instance):
        from repro.query.aggregates import agg_avg
        sampled = repro.compile(heights_program).on(
            heights_instance, seed=2, backend="scalar").sample(400).pdb
        mean_height = Aggregate(
            scan("PHeight", "person", "cm"), (), {"m": agg_avg("cm")})
        expectation = expected_aggregate(sampled, mean_height)
        # Default instance: NL(183.8) and PE(165.2), two persons each.
        assert abs(expectation - (183.8 + 165.2) / 2) < 2.0


class TestRemark49:
    """Projecting out auxiliary relations is a measurable query."""

    def test_keep_aux_then_project_equals_direct(self, g0):
        with_aux = repro.compile(g0).on(keep_aux=True).exact().pdb
        direct = repro.compile(g0).on().exact().pdb
        assert with_aux.project(["R"]).allclose(direct)
