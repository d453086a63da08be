"""E5: Example 3.5 (continuous heights) - sampling and query layer."""

import pytest

from repro.api import compile as compile_program
from repro.distributions import Normal
from repro.measures.empirical import (ks_critical_value, ks_statistic,
                                      summarize)
from repro.query import Aggregate, agg_avg, expected_aggregate, scan
from repro.workloads import paper
from repro.workloads.generators import heights_instance


class TestE5Moments:
    def test_sampling_matches_moments(self, benchmark, heights_program):
        instance = paper.example_3_5_instance(
            moments={"NL": (183.8, 49.0)}, persons_per_country=4)
        session = compile_program(heights_program).on(instance,
                                                      seed=0)

        pdb = benchmark(lambda: session.sample(600).pdb)
        values = pdb.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")])
        summary = summarize(values)
        assert summary.mean_within(183.8)
        assert abs(summary.variance - 49.0) < 6.0

    def test_ks_against_generating_normal(self, benchmark,
                                          heights_program):
        instance = paper.example_3_5_instance(
            moments={"PE": (165.2, 36.0)}, persons_per_country=2)
        session = compile_program(heights_program).on(instance,
                                                      seed=1)
        normal = Normal()

        def pipeline():
            pdb = session.sample(800).pdb
            values = pdb.values_of(
                lambda D: [f.args[1] for f in D.facts_of("PHeight")])
            return values, ks_statistic(
                values, lambda x: normal.cdf((165.2, 36.0), x))

        values, stat = benchmark(pipeline)
        assert stat < ks_critical_value(len(values), alpha=0.001)


class TestE5QueryLayer:
    def test_expected_average_height(self, benchmark, heights_program):
        instance = paper.example_3_5_instance(persons_per_country=2)
        pdb = compile_program(heights_program).on(
            instance, seed=2).sample(800).pdb
        query = Aggregate(scan("PHeight", "p", "cm"), (),
                          {"m": agg_avg("cm")})
        value = benchmark(lambda: expected_aggregate(pdb, query))
        assert abs(value - (183.8 + 165.2) / 2) < 1.5


class TestE5Scaling:
    @pytest.mark.parametrize("n_countries,n_persons",
                             [(2, 10), (10, 10), (10, 50)])
    def test_sampling_throughput(self, benchmark, heights_program,
                                 n_countries, n_persons):
        instance = heights_instance(n_countries, n_persons, seed=0)
        session = compile_program(heights_program).on(instance,
                                                      seed=3)

        pdb = benchmark(lambda: session.sample(20).pdb)
        expected_heights = n_countries * n_persons
        assert all(len(D.facts_of("PHeight")) == expected_heights
                   for D in pdb.worlds)
