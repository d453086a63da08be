"""Tests for PDB statistics (repro.pdb.stats)."""

import math

import pytest

import repro
from repro.errors import MeasureError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.stats import (expected_size, fact_marginals, map_world,
                             relation_summary, size_distribution,
                             summarize_pdb, world_entropy)


def world(*values):
    return Instance(Fact("R", (v,)) for v in values)


@pytest.fixture
def flip_pdb(g0):
    return repro.compile(g0).on().exact().pdb


class TestWorldEntropy:
    def test_g0_entropy(self, flip_pdb):
        # Outcomes 1/4, 1/4, 1/2 -> 1.5 bits.
        assert world_entropy(flip_pdb) == pytest.approx(1.5)

    def test_dirac_zero_entropy(self):
        pdb = DiscretePDB.deterministic(world(1))
        assert world_entropy(pdb) == pytest.approx(0.0)

    def test_err_counts_as_outcome(self):
        pdb = DiscretePDB(DiscreteMeasure({world(1): 0.5}), err=0.5)
        assert world_entropy(pdb) == pytest.approx(1.0)

    def test_natural_log_base(self, flip_pdb):
        assert world_entropy(flip_pdb, base=math.e) == \
            pytest.approx(1.5 * math.log(2))


class TestMapWorld:
    def test_g0_map(self, flip_pdb):
        best, probability = map_world(flip_pdb)
        assert probability == pytest.approx(0.5)
        assert best == world(0, 1)

    def test_tie_breaking_deterministic(self):
        pdb = DiscretePDB(DiscreteMeasure(
            {world(0): 0.5, world(1): 0.5}))
        assert map_world(pdb) == map_world(pdb)

    def test_empty_rejected(self):
        pdb = DiscretePDB(DiscreteMeasure.zero(), err=1.0)
        with pytest.raises(MeasureError):
            map_world(pdb)


class TestSizesAndMarginals:
    def test_expected_size(self, flip_pdb):
        assert expected_size(flip_pdb) == pytest.approx(1.5)

    def test_size_distribution(self, flip_pdb):
        sizes = size_distribution(flip_pdb)
        assert sizes.mass(1) == pytest.approx(0.5)
        assert sizes.mass(2) == pytest.approx(0.5)

    def test_fact_marginals_exact(self, flip_pdb):
        marginals = fact_marginals(flip_pdb)
        assert marginals[Fact("R", (0,))] == pytest.approx(0.75)
        assert marginals[Fact("R", (1,))] == pytest.approx(0.75)

    def test_fact_marginals_relation_filter(self, program_h):
        pdb = repro.compile(program_h).on().exact().pdb
        marginals = fact_marginals(pdb, relations=("R",))
        assert all(f.relation == "R" for f in marginals)

    def test_fact_marginals_monte_carlo(self, g0):
        pdb = repro.compile(g0).on(seed=0, backend="scalar").sample(3000).pdb
        marginals = fact_marginals(pdb)
        assert abs(marginals[Fact("R", (1,))] - 0.75) < 0.04


class TestRelationSummary:
    def test_summary_fields(self, flip_pdb):
        summary = relation_summary(flip_pdb, "R")
        assert summary.relation == "R"
        assert summary.expected_cardinality == pytest.approx(1.5)
        assert summary.min_cardinality == 1
        assert summary.max_cardinality == 2
        assert summary.certain_facts == 0

    def test_certain_facts_counted(self):
        program_output = DiscretePDB(DiscreteMeasure({
            Instance.of(Fact("A", (1,)), Fact("B", (1,))): 0.5,
            Instance.of(Fact("A", (1,))): 0.5,
        }))
        summary = relation_summary(program_output, "A")
        assert summary.certain_facts == 1
        summary = relation_summary(program_output, "B")
        assert summary.certain_facts == 0

    def test_monte_carlo_summary(self, g0):
        pdb = repro.compile(g0).on(seed=1, backend="scalar").sample(500).pdb
        summary = relation_summary(pdb, "R")
        assert 1 <= summary.min_cardinality <= \
            summary.max_cardinality <= 2


class TestSummarizePdb:
    def test_exact_summary_text(self, flip_pdb):
        text = summarize_pdb(flip_pdb)
        assert "3 worlds" in text
        assert "entropy" in text and "MAP world" in text

    def test_monte_carlo_summary_text(self, g0):
        pdb = repro.compile(g0).on(seed=2, backend="scalar").sample(100).pdb
        text = summarize_pdb(pdb)
        assert "Monte-Carlo PDB" in text
        assert "expected size" in text
