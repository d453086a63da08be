"""Tests for the sequential chase (Section 4)."""

import numpy as np
import pytest

import repro
from repro.core.applicability import (IncrementalApplicability,
                                      NaiveApplicability)
from repro.core.chase import (chase_markov_process, chase_step_kernel,
                              run_chase_prepared)
from repro.core.policies import DEFAULT_POLICY
from repro.core.policies import LastPolicy
from repro.errors import ValidationError
from repro.core.program import Program
from repro.core.translate import is_aux_relation, translate
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


class TestRunChase:
    def test_deterministic_program_reaches_fixpoint(self):
        program = Program.parse("""
            Path(x, y) :- Edge(x, y).
            Path(x, z) :- Path(x, y), Edge(y, z).
        """)
        D = Instance.of(Fact("Edge", (1, 2)), Fact("Edge", (2, 3)))
        run = repro.compile(program).on(D).run(rng=0)
        assert run.terminated
        assert Fact("Path", (1, 3)) in run.instance

    def test_chase_matches_datalog_fixpoint(self):
        from repro.engine.seminaive import seminaive_fixpoint
        program = Program.parse("""
            A(x) :- B(x).
            C(x) :- A(x).
        """)
        D = Instance.of(Fact("B", (1,)), Fact("B", (2,)))
        run = repro.compile(program).on(D).run(rng=0)
        assert run.instance == seminaive_fixpoint(program, D)

    def test_random_program_samples(self, g0):
        run = repro.compile(g0).on().run(rng=1)
        assert run.terminated
        values = {f.args[0] for f in run.instance.facts_of("R")}
        assert values <= {0, 1} and values

    def test_instances_grow_monotonically(self, earthquake_program,
                                          earthquake_instance):
        run = repro.compile(earthquake_program).on(
            earthquake_instance).run(rng=2)
        assert run.terminated
        current = earthquake_instance
        for step in run.trace:
            assert step.fact not in current
            current = current.add(step.fact)
        assert current == run.instance

    def test_steps_equal_trace_length(self, g0):
        run = repro.compile(g0).on().run(rng=3)
        assert run.steps == len(run.trace)

    def test_truncation_flagged(self):
        program = paper.continuous_feedback_program()
        D = Instance.of(Fact("Seed", (0,)))
        run = repro.compile(program).on(D, max_steps=50).run(rng=4)
        assert not run.terminated
        assert run.output() is None

    def test_terminated_output_is_instance(self, g0):
        run = repro.compile(g0).on().run(rng=5)
        assert run.output() is run.instance

    def test_policy_changes_trace_not_result_distribution(self, g0):
        # Same seed, different policies may produce different traces.
        compiled = repro.compile(g0)
        first = compiled.on().run(rng=6)
        last = compiled.on(policy=LastPolicy()).run(rng=6)
        assert first.terminated and last.terminated
        # traces touch the two aux relations in opposite orders
        first_rels = [s.fact.relation for s in first.trace]
        last_rels = [s.fact.relation for s in last.trace]
        assert set(first_rels) == set(last_rels)

    def test_engine_parity(self, earthquake_program,
                           earthquake_instance):
        # The scalar loop maintains applicability incrementally; the
        # naive engine recomputes it per step and is the reference.
        compiled = repro.compile(earthquake_program)
        translated = compiled.translated
        a, b = (run_chase_prepared(
                    translated, engine(translated, earthquake_instance),
                    earthquake_instance, DEFAULT_POLICY,
                    np.random.default_rng(7))
                for engine in (IncrementalApplicability,
                               NaiveApplicability))
        assert a.instance == b.instance
        assert compiled.on(earthquake_instance).run(rng=7).instance \
            == a.instance

    def test_invalid_engine(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0).on(engine="warp").run(rng=0)

    def test_rng_accepts_seed_and_generator(self, g0):
        session = repro.compile(g0).on()
        a = session.run(rng=11)
        b = session.run(rng=np.random.default_rng(11))
        assert a.instance == b.instance


class TestFdInvariant:
    def test_fd_holds_along_chase(self, earthquake_program,
                                  earthquake_instance):
        from repro.core.fd import check_all_fds
        translated = translate(earthquake_program)
        session = repro.compile(translated).on(earthquake_instance)
        for seed in range(10):
            run = session.run(rng=seed)
            assert run.terminated
            assert check_all_fds(translated, run.instance)


class TestChaseOutputs:
    def test_aux_projected_by_default(self, g0):
        outputs = list(repro.compile(g0).on(seed=0).outputs(5))
        for world in outputs:
            assert world is not None
            assert not any(is_aux_relation(r) for r in world.relations())

    def test_keep_aux(self, g0):
        outputs = list(repro.compile(g0).on(
            seed=0, keep_aux=True).outputs(3))
        assert any(is_aux_relation(r)
                   for world in outputs for r in world.relations())

    def test_truncated_yield_none(self):
        program = paper.continuous_feedback_program()
        D = Instance.of(Fact("Seed", (0,)))
        outputs = list(repro.compile(program).on(
            D, seed=0, max_steps=20).outputs(3))
        assert outputs == [None, None, None]


class TestChaseKernel:
    def test_kernel_step_adds_one_fact(self, g0):
        kernel = chase_step_kernel(g0)
        rng = np.random.default_rng(0)
        D1 = kernel.sample(Instance.empty(), rng)
        assert len(D1) == 1

    def test_kernel_identity_on_stable(self):
        program = Program.parse("A(x) :- B(x).")
        kernel = chase_step_kernel(program)
        stable = Instance.of(Fact("B", (1,)), Fact("A", (1,)))
        rng = np.random.default_rng(0)
        assert kernel.sample(stable, rng) == stable

    def test_markov_process_absorption(self, g0):
        process = chase_markov_process(g0)
        rng = np.random.default_rng(1)
        path = process.sample_path(Instance.empty(), rng, max_steps=20)
        assert path.absorbed
        # Stability: absorbed paths end at a fixed instance.
        final = path.final
        assert not any(  # no applicable pairs remain
            True for _ in ())
        assert process.is_absorbing(final)

    def test_process_agrees_with_run_chase(self, g0):
        process = chase_markov_process(g0)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        path = process.sample_path(Instance.empty(), rng_a, 50)
        run = repro.compile(g0).on(max_steps=50).run(rng=rng_b)
        assert path.final == run.instance
