"""Theorem 6.1/6.2: the output SPDB is independent of the chase.

The strongest correctness statement of the paper: for every measurable
chase sequence (policy) and for the parallel chase, the induced SPDB is
identical.  For discrete programs we verify *exact equality* of the
enumerated SPDBs across a battery of policies and the parallel chase;
for continuous programs we verify statistical agreement of query
push-forwards (KS tests) across policies.
"""

import numpy as np
import pytest

import repro
from repro.core.exact import exact_parallel_spdb, exact_sequential_spdb
from repro.core.policies import standard_policies
from repro.core.program import Program
from repro.measures.discrete import DiscreteMeasure
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.pdb.database import DiscretePDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper
from repro.workloads.generators import (base_instance,
                                        random_discrete_program)


def assert_chase_independent(program, instance=None, tolerance=1e-9):
    """Exact SPDBs agree across all policies and the parallel chase."""
    reference = exact_sequential_spdb(program, instance)
    for policy in standard_policies():
        candidate = exact_sequential_spdb(program, instance,
                                          policy=policy)
        assert candidate.allclose(reference, tolerance), \
            f"policy {policy.name} deviates"
    parallel = exact_parallel_spdb(program, instance)
    assert parallel.allclose(reference, tolerance), \
        "parallel chase deviates"


class TestDiscretePrograms:
    def test_g0(self, g0):
        assert_chase_independent(g0)

    def test_g0_prime(self, g0_prime):
        assert_chase_independent(g0_prime)

    def test_g_eps(self):
        assert_chase_independent(paper.example_1_1_g_eps(0.25))

    def test_h_and_h_prime(self, program_h, program_h_prime):
        assert_chase_independent(program_h)
        assert_chase_independent(program_h_prime)

    def test_earthquake(self, earthquake_program, earthquake_instance):
        assert_chase_independent(earthquake_program,
                                 earthquake_instance)

    def test_barany_translation_also_independent(self, g0):
        session = repro.compile(g0, semantics="barany").on()
        reference = session.exact().pdb
        for policy in standard_policies():
            candidate = session.exact(policy=policy).pdb
            assert candidate.allclose(reference)
        parallel = session.exact(parallel=True).pdb
        assert parallel.allclose(reference)

    def test_dependent_sampling_chain(self):
        # Sampled values feeding later rule bodies - order sensitive
        # execution, order-insensitive semantics.
        program = Program.parse("""
            First(Flip<0.5>) :- true.
            Second(Flip<0.9>) :- First(1).
            Third(x, Flip<0.25>) :- First(x), Second(x).
        """)
        assert_chase_independent(program)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs(self, seed):
        program = random_discrete_program(
            n_base_rules=2, n_derived_rules=2, seed=seed)
        assert_chase_independent(program, base_instance(2))

    def test_theorem_6_2_pdb_input(self, g0):
        # Chase independence with a probabilistic input database.
        world_a = Instance.of(Fact("Seed", (1,)))
        world_b = Instance.empty()
        input_pdb = DiscretePDB(DiscreteMeasure(
            {world_a: 0.5, world_b: 0.5}))
        compiled = repro.compile(g0)
        reference = compiled.apply_to_pdb(input_pdb).pdb
        parallel = compiled.apply_to_pdb(input_pdb, parallel=True).pdb
        assert parallel.allclose(reference)
        for policy in standard_policies()[:3]:
            assert compiled.apply_to_pdb(input_pdb, policy=policy) \
                .pdb.allclose(reference)


class TestContinuousPrograms:
    """KS agreement of sampled query values across policies."""

    def extract_heights(self, pdb):
        return pdb.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")])

    def test_heights_policy_invariance(self, heights_program):
        instance = paper.example_3_5_instance(
            moments={"NL": (180.0, 30.0)}, persons_per_country=1)
        batteries = standard_policies()[:3]
        samples = []
        for index, policy in enumerate(batteries):
            pdb = repro.compile(heights_program).on(
                instance, seed=100 + index, backend="scalar",
                policy=policy).sample(900).pdb
            samples.append(self.extract_heights(pdb))
        critical = ks_critical_value(len(samples[0]), len(samples[1]),
                                     alpha=0.001)
        for other in samples[1:]:
            assert ks_two_sample(samples[0], other) < critical

    def test_sequential_vs_parallel_continuous(self, heights_program):
        instance = paper.example_3_5_instance(
            moments={"NL": (170.0, 40.0)}, persons_per_country=2)
        compiled = repro.compile(heights_program)
        sequential = compiled.on(instance, seed=7,
                                 backend="scalar").sample(700).pdb
        parallel = compiled.on(instance, seed=8, backend="scalar",
                               parallel=True).sample(700).pdb
        a = self.extract_heights(sequential)
        b = self.extract_heights(parallel)
        assert ks_two_sample(a, b) < ks_critical_value(
            len(a), len(b), alpha=0.001)

    def test_mixed_discrete_continuous_program(self):
        # A program mixing Flip gating with Normal sampling.
        program = Program.parse("""
            Active(s, Flip<0.5>) :- Sensor(s).
            Reading(s, Normal<0, 1>) :- Active(s, 1).
        """)
        instance = Instance.of(Fact("Sensor", ("a",)),
                               Fact("Sensor", ("b",)))
        compiled = repro.compile(program)
        a = compiled.on(instance, seed=9,
                        backend="scalar").sample(800).pdb
        b = compiled.on(instance, seed=10, backend="scalar",
                        parallel=True).sample(800).pdb
        # Discrete marginal agreement:
        fa = a.prob(lambda D: len(D.facts_of("Reading")) == 2)
        fb = b.prob(lambda D: len(D.facts_of("Reading")) == 2)
        assert abs(fa - 0.25) < 0.06 and abs(fb - 0.25) < 0.06
        # Continuous agreement:
        readings_a = a.values_of(
            lambda D: [f.args[1] for f in D.facts_of("Reading")])
        readings_b = b.values_of(
            lambda D: [f.args[1] for f in D.facts_of("Reading")])
        assert ks_two_sample(readings_a, readings_b) < \
            ks_critical_value(len(readings_a), len(readings_b),
                              alpha=0.001)
