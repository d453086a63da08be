"""Program-level property-based tests (hypothesis).

Each property quantifies over randomly generated weakly-acyclic
discrete programs and inputs, checking the paper's structural
invariants: mass conservation, chase independence, FD preservation,
engine agreement, projection/monotonicity laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.applicability import (IncrementalApplicability,
                                      NaiveApplicability)
from repro.core.chase import fire
from repro.core.exact import exact_parallel_spdb, exact_sequential_spdb
from repro.core.fd import check_all_fds
from repro.core.policies import (FirstPolicy, LastPolicy,
                                 RandomTiePolicy)
from repro.core.translate import translate
from repro.workloads.generators import (base_instance,
                                        random_discrete_program)

programs = st.builds(random_discrete_program,
                     n_base_rules=st.integers(1, 3),
                     n_derived_rules=st.integers(0, 3),
                     seed=st.integers(0, 500))
inputs = st.integers(1, 3).map(base_instance)


class TestMassConservation:
    @given(programs, inputs)
    @settings(max_examples=20, deadline=None)
    def test_exact_spdb_is_probability(self, program, instance):
        pdb = exact_sequential_spdb(program, instance)
        assert pdb.total_mass() + pdb.err_mass() == \
            pytest.approx(1.0, abs=1e-6)
        assert pdb.err_mass() == pytest.approx(0.0, abs=1e-9)

    @given(programs, inputs)
    @settings(max_examples=10, deadline=None)
    def test_parallel_mass(self, program, instance):
        pdb = exact_parallel_spdb(program, instance)
        assert pdb.total_mass() == pytest.approx(1.0, abs=1e-6)


class TestChaseIndependenceProperty:
    @given(programs, inputs, st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_policies_agree(self, program, instance, salt):
        reference = exact_sequential_spdb(program, instance)
        for policy in (LastPolicy(), RandomTiePolicy(salt)):
            assert exact_sequential_spdb(
                program, instance, policy=policy).allclose(reference)

    @given(programs, inputs)
    @settings(max_examples=10, deadline=None)
    def test_parallel_agrees(self, program, instance):
        sequential = exact_sequential_spdb(program, instance)
        parallel = exact_parallel_spdb(program, instance)
        assert parallel.allclose(sequential)


class TestChaseInvariants:
    @given(programs, inputs, st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_fd_and_termination(self, program, instance, seed):
        translated = translate(program)
        run = repro.compile(translated).on(
            instance, max_steps=5000).run(rng=seed)
        assert run.terminated  # generator emits weakly-acyclic programs
        assert check_all_fds(translated, run.instance)
        assert instance.issubset(run.instance)

    @given(programs, inputs, st.integers(0, 99))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree_along_chase(self, program, instance, seed):
        translated = translate(program)
        incremental = IncrementalApplicability(translated, instance)
        naive = NaiveApplicability(translated, instance)
        rng = np.random.default_rng(seed)
        for _ in range(200):
            a, b = incremental.applicable(), naive.applicable()
            assert a == b
            if not a:
                return
            new_fact = fire(translated, a[0], rng)
            incremental.add_fact(new_fact)
            naive.add_fact(new_fact)
        pytest.fail("chase exceeded 200 steps")


class TestSamplingConsistency:
    @given(programs)
    @settings(max_examples=5, deadline=None)
    def test_monte_carlo_approaches_exact(self, program):
        instance = base_instance(1)
        exact = exact_sequential_spdb(program, instance)
        sampled = repro.compile(program).on(
            instance, seed=0, backend="scalar").sample(1500).pdb
        # Compare the three most likely worlds (tolerance ~ 4σ).
        top = sorted(exact.worlds(), key=lambda wp: -wp[1])[:3]
        for world, probability in top:
            estimate = sampled.prob(lambda D, w=world: D == w)
            sigma = max((probability * (1 - probability)
                         / 1500) ** 0.5, 1e-3)
            assert abs(estimate - probability) < 5 * sigma


class TestProjectionLaws:
    @given(programs, inputs)
    @settings(max_examples=10, deadline=None)
    def test_keep_aux_projects_to_plain(self, program, instance):
        translated = translate(program)
        full = exact_sequential_spdb(translated, instance,
                                     keep_aux=True)
        plain = exact_sequential_spdb(translated, instance)
        assert full.project(translated.visible_relations()) \
            .allclose(plain)

    @given(programs, inputs)
    @settings(max_examples=10, deadline=None)
    def test_input_preserved_in_worlds(self, program, instance):
        pdb = exact_sequential_spdb(program, instance)
        for world, _ in pdb.worlds():
            assert instance.issubset(world)
