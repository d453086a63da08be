"""Unit tests for the differential oracles (repro.testing.oracles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.program import Program
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.testing import (ChaseOrderOracle, ExactVsSampleOracle,
                           FixpointOracle, FuzzCase, InducedFDOracle,
                           PdbInputOracle, TerminationOracle,
                           default_oracles, evaluate, generate_case,
                           oracles_by_name)
from repro.testing.oracles import (compare_discrete_pdbs,
                                   compare_monte_carlo_pdbs,
                                   ks_agreement, marginals_agree,
                                   sampled_values,
                                   worlds_agree_chi_squared)


def _case(text: str, kind: str = "sampling",
          facts: tuple = ()) -> FuzzCase:
    return FuzzCase(0, kind, Program.parse(text), Instance(facts))


class TestOracleBattery:
    def test_names_are_unique_and_stable(self):
        names = [oracle.name for oracle in default_oracles()]
        assert len(names) == len(set(names))
        assert set(oracles_by_name()) == {
            "fixpoint", "chase-order", "exact-vs-sample",
            "pdb-input", "batched-scalar", "barany-agreement",
            "sharded-single", "induced-fds", "termination",
            "streaming-batch", "columnar-query", "conditioning",
            "static-dynamic"}


class TestSkipPreconditions:
    def test_fixpoint_skips_pure_random_programs(self):
        outcome = FixpointOracle().check(
            _case("R0(Flip<0.5>) :- true."))
        assert outcome.status == "skip"

    def test_chase_order_skips_non_weakly_acyclic(self):
        outcome = ChaseOrderOracle().check(
            _case("Q(0.5) :- true.\nQ(Normal<x, 1.0>) :- Q(x).",
                  kind="cyclic"))
        assert outcome.status == "skip"

    def test_exact_vs_sample_skips_continuous(self):
        outcome = ExactVsSampleOracle().check(
            _case("R0(Normal<0.0, 1.0>) :- true."))
        assert outcome.status == "skip"

    def test_induced_fds_skips_deterministic(self):
        outcome = InducedFDOracle().check(
            _case("D0(x) :- E0(x).", kind="deterministic"))
        assert outcome.status == "skip"

    def test_termination_skips_may_terminate_cycles(self):
        outcome = TerminationOracle().check(
            _case("Q(2) :- true.\nQ(DiscreteUniform<0, x>) :- Q(x).",
                  kind="cyclic"))
        assert outcome.status == "skip"


class TestOkOnKnownWorkloads:
    @pytest.mark.parametrize("kind", ["deterministic", "exact",
                                      "sampling", "cyclic"])
    def test_every_oracle_accepts_generated_cases(self, kind):
        case = generate_case(17, kind=kind)
        for oracle in default_oracles():
            outcome = evaluate(oracle, case)
            assert outcome.status in ("ok", "skip"), (
                f"{oracle.name} on {kind}: {outcome.detail}")

    def test_g0_example_passes_chase_order(self):
        case = _case("R(Flip<0.5>) :- true.\nR(Flip<0.5>) :- true.",
                     kind="exact")
        assert ChaseOrderOracle().check(case).status == "ok"
        assert ExactVsSampleOracle().check(case).status == "ok"


class TestComparisonHelpers:
    def test_compare_discrete_pdbs_detects_disagreement(self):
        world = Instance.of(Fact("R", (1,)))
        first = DiscretePDB.from_worlds([(world, 0.5),
                                         (Instance.empty(), 0.5)])
        second = DiscretePDB.from_worlds([(world, 0.7),
                                          (Instance.empty(), 0.3)])
        assert compare_discrete_pdbs(first, first) is None
        assert "disagree" in compare_discrete_pdbs(first, second)

    def test_compare_monte_carlo_pdbs(self):
        worlds = [Instance.of(Fact("R", (i,))) for i in range(3)]
        first = MonteCarloPDB(worlds, truncated=1)
        assert compare_monte_carlo_pdbs(first, first) is None
        other = MonteCarloPDB(list(reversed(worlds)), truncated=1)
        assert "worlds differ" in compare_monte_carlo_pdbs(first,
                                                           other)
        short = MonteCarloPDB(worlds, truncated=2)
        assert "truncation" in compare_monte_carlo_pdbs(first, short)

    def test_marginals_agree_flags_gross_bias(self):
        world = Instance.of(Fact("R", (1,)))
        exact = DiscretePDB.from_worlds([(world, 0.9),
                                         (Instance.empty(), 0.1)])
        # 1000 samples that almost never contain the fact.
        sampled = MonteCarloPDB([Instance.empty()] * 990
                                + [world] * 10)
        assert marginals_agree(exact, sampled) is not None
        fair = MonteCarloPDB([world] * 900
                             + [Instance.empty()] * 100)
        assert marginals_agree(exact, fair) is None

    def test_chi_squared_flags_world_outside_support(self):
        inside = Instance.of(Fact("R", (1,)))
        outside = Instance.of(Fact("R", (99,)))
        exact = DiscretePDB.from_worlds([(inside, 1.0)])
        sampled = MonteCarloPDB([inside] * 99 + [outside])
        detail = worlds_agree_chi_squared(exact, sampled)
        assert detail is not None and "outside exact support" in detail

    def test_chi_squared_accepts_faithful_samples(self):
        inside = Instance.of(Fact("R", (1,)))
        exact = DiscretePDB.from_worlds([(inside, 0.5),
                                         (Instance.empty(), 0.5)])
        sampled = MonteCarloPDB([inside] * 52
                                + [Instance.empty()] * 48)
        assert worlds_agree_chi_squared(exact, sampled) is None

    def test_ks_agreement_separates_shifted_samples(self):
        rng = np.random.default_rng(0)
        first = list(rng.normal(0.0, 1.0, size=400))
        second = list(rng.normal(0.0, 1.0, size=400))
        shifted = list(rng.normal(3.0, 1.0, size=400))
        assert ks_agreement(first, second) is None
        assert ks_agreement(first, shifted) is not None

    def test_ks_agreement_skips_tiny_samples(self):
        assert ks_agreement([0.0], [100.0]) is None

    def test_sampled_values_extracts_random_positions(self):
        worlds = [Instance.of(Fact("R0", ("key", 0.25)),
                              Fact("E0", (7,)))]
        pdb = MonteCarloPDB(worlds)
        values = sampled_values(pdb, {"R0": 1})
        assert values == [0.25]


class TestCrashConversion:
    def test_evaluate_turns_exceptions_into_failures(self):
        class ExplodingOracle(FixpointOracle):
            name = "exploding"

            def check(self, case):
                raise RuntimeError("boom")

        case = generate_case(0)
        outcome = evaluate(ExplodingOracle(), case)
        assert outcome.status == "fail"
        assert "boom" in outcome.detail


class TestPdbInputOracle:
    """apply_to_pdb vs generator rules (Theorem 4.8, second part)."""

    def test_agrees_on_generated_input_pdbs(self):
        seeds = [seed for seed in range(60)
                 if generate_case(seed).input_pdb is not None]
        assert len(seeds) >= 5
        for seed in seeds:
            outcome = PdbInputOracle().check(generate_case(seed))
            assert outcome.status == "ok", (seed, outcome.detail)

    def test_skips_without_input_pdb(self):
        outcome = PdbInputOracle().check(
            _case("R0(Flip<0.5>) :- true.", kind="exact"))
        assert outcome.status == "skip"

    def test_flags_a_correlated_input(self):
        # Marginals 1/2 each but perfectly correlated: the generator
        # rules rebuild the independent input, so the SPDBs differ.
        both = Instance.of(Fact("E0", (0,)), Fact("E0", (1,)))
        correlated = DiscretePDB(DiscreteMeasure(
            {both: 0.5, Instance.empty(): 0.5}))
        case = FuzzCase(0, "exact",
                        Program.parse("R0(x, Flip<0.5>) :- E0(x)."),
                        both, correlated)
        outcome = PdbInputOracle().check(case)
        assert outcome.status == "fail"
        assert "apply_to_pdb" in outcome.detail


class TestBaranyAgreementOracle:
    """The Grohe-vs-Bárány semantics oracle and its agreement class."""

    def _oracle(self):
        from repro.testing import BaranyAgreementOracle
        return BaranyAgreementOracle()

    def test_repeated_family_outside_class(self):
        # Example 1.1's G0: the semantics genuinely disagree here.
        case = _case("R(Flip<0.5>) :- true.\nR(Flip<0.5>) :- true.")
        oracle = self._oracle()
        assert not oracle.agreement_class(case.program)
        assert oracle.check(case).status == "skip"

    def test_carried_head_variable_outside_class(self):
        # One rule fans a constant parameter tuple over carried values:
        # Bárány shares one draw across x, Grohe draws per x.
        case = _case("R0(x, Flip<0.5>) :- E0(x).",
                     facts=(Fact("E0", (1,)), Fact("E0", (2,))))
        assert not self._oracle().agreement_class(case.program)

    def test_discrete_agreement_class_passes_exactly(self):
        case = _case("""
            R0(0, Flip<0.4>) :- true.
            R1(Bernoulli<0.7>) :- E0(x).
        """, kind="exact", facts=(Fact("E0", (1,)), Fact("E0", (2,))))
        oracle = self._oracle()
        assert oracle.agreement_class(case.program)
        assert oracle.check(case).status == "ok"

    def test_continuous_agreement_class_passes_statistically(self):
        case = _case("""
            S0(Normal<0.0, 1.0>) :- E0(x).
            S1(Exponential<1.5>) :- true.
        """, facts=(Fact("E0", (1,)),))
        outcome = self._oracle().check(case)
        assert outcome.status == "ok", outcome.detail

    def test_comparison_detects_genuine_disagreement(self):
        # Force G0 through the comparison: the exact SPDBs differ
        # (shared draw vs two independent draws), so the oracle's
        # comparison machinery must flag it.
        from repro.testing import BaranyAgreementOracle

        class Unfenced(BaranyAgreementOracle):
            @staticmethod
            def agreement_class(program):
                return True

        case = _case("R(Flip<0.5>) :- true.\nR(Flip<0.5>) :- true.",
                     kind="exact")
        outcome = Unfenced().check(case)
        assert outcome.status == "fail"
        assert "disagree" in outcome.detail


class TestColumnarConsistency:
    def test_batched_result_columnar_equals_materialized(self):
        import repro
        from repro.testing import BatchedVsScalarOracle
        from repro.workloads.paper import (example_3_4_instance,
                                           example_3_4_program)
        result = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=3).sample(
                300, backend="batched")
        assert result.backend == "batched"
        assert BatchedVsScalarOracle._columnar_consistency(result) \
            is None

    def test_batched_scalar_oracle_covers_cascades(self):
        # A cascading discrete case runs the multi-round path end to
        # end through the oracle (exact SPDB + columnar identity).
        from repro.testing import BatchedVsScalarOracle
        case = _case("""
            A0(Flip<0.5>) :- true.
            B0(Flip<0.5>) :- A0(1).
            C0(1) :- B0(1).
        """, kind="exact")
        outcome = BatchedVsScalarOracle().check(case)
        assert outcome.status == "ok", outcome.detail


class TestStreamingBatchOracle:
    def _oracle(self):
        from repro.testing.oracles import StreamingBatchOracle
        return StreamingBatchOracle(n_runs=300)

    def test_agrees_on_a_leaf_observation(self):
        # Flip<0.5> leaves have no downstream triggers, so the stream
        # accepts the observation and must match the one-shot answer.
        outcome = self._oracle().check(_case(
            "Out(x, Flip<0.5>) :- In(x).",
            facts=(Fact("In", (1,)), Fact("In", (2,)))))
        assert outcome.status == "ok", outcome.detail

    def test_skips_without_random_heads(self):
        outcome = self._oracle().check(_case(
            "B(x) :- A(x).", facts=(Fact("A", (1,)),)))
        assert outcome.status == "skip"
