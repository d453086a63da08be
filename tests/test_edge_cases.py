"""Edge-case and adversarial-input tests across the pipeline."""

import numpy as np
import pytest

import repro
from repro.core.exact import exact_sequential_spdb
from repro.core.parallel import run_parallel_chase
from repro.core.program import Program
from repro.core.atoms import Atom, atom
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm, Var
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.errors import DistributionError, ValidationError
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

FLIP = DEFAULT_REGISTRY["Flip"]


class TestUnusualHeads:
    def test_random_term_first_position(self):
        program = Program.parse("R(Flip<0.5>, x) :- B(x).")
        pdb = repro.compile(program).on(
            Instance.of(Fact("B", ("k",)))).exact().pdb
        assert pdb.marginal(Fact("R", (1, "k"))) == pytest.approx(0.5)

    def test_repeated_variable_in_head(self):
        program = Program.parse("Pair(x, x, Flip<0.5>) :- B(x).")
        pdb = repro.compile(program).on(
            Instance.of(Fact("B", (7,)))).exact().pdb
        total = pdb.marginal(Fact("Pair", (7, 7, 0))) + \
            pdb.marginal(Fact("Pair", (7, 7, 1)))
        assert total == pytest.approx(1.0)

    def test_constant_and_random_term_mixed(self):
        program = Program.parse('R("tag", Flip<0.5>, 3) :- true.')
        pdb = repro.compile(program).on().exact().pdb
        assert pdb.marginal(Fact("R", ("tag", 1, 3))) == \
            pytest.approx(0.5)

    def test_variable_used_as_param_and_column(self):
        # x appears both as a head column and a distribution parameter.
        program = Program.parse("R(x, Flip<x>) :- B(x).")
        pdb = repro.compile(program).on(
            Instance.of(Fact("B", (0.25,)))).exact().pdb
        assert pdb.marginal(Fact("R", (0.25, 1))) == pytest.approx(0.25)

    def test_duplicate_body_atom(self):
        program = Program.parse("H(x) :- B(x), B(x).")
        run = repro.compile(program).on(
            Instance.of(Fact("B", (1,)))).run(rng=0)
        assert Fact("H", (1,)) in run.instance


class TestDegenerateParameters:
    def test_flip_zero_and_one(self):
        pdb = repro.compile("A(Flip<0.0>) :- true.").on().exact().pdb
        assert pdb.marginal(Fact("A", (0,))) == pytest.approx(1.0)
        pdb = repro.compile("A(Flip<1.0>) :- true.").on().exact().pdb
        assert pdb.marginal(Fact("A", (1,))) == pytest.approx(1.0)

    def test_deterministic_branch_pruned(self):
        # Flip<1.0> has a single-support branch: no tree blowup.
        rules = "\n".join(f"A{i}(Flip<1.0>) :- true."
                          for i in range(20))
        pdb = repro.compile(Program.parse(rules)).on().exact().pdb
        assert pdb.support_size() == 1

    def test_binomial_n_zero(self):
        pdb = repro.compile(
            "K(Binomial<0, 0.5>) :- true.").on().exact().pdb
        assert pdb.marginal(Fact("K", (0,))) == pytest.approx(1.0)

    def test_invalid_param_surfaces_in_exact(self):
        program = Program.parse("Q(Flip<r>) :- P(r).")
        bad = Instance.of(Fact("P", (2.0,)))
        with pytest.raises(DistributionError):
            exact_sequential_spdb(program, bad)

    def test_invalid_param_surfaces_in_parallel(self):
        program = Program.parse("Q(Flip<r>) :- P(r).")
        bad = Instance.of(Fact("P", (-0.5,)))
        with pytest.raises(DistributionError):
            run_parallel_chase(program, bad, rng=0)


class TestEmptyAndTrivialInputs:
    def test_empty_input_no_matching_body(self):
        program = Program.parse("A(x) :- B(x).")
        run = repro.compile(program).on(Instance.empty()).run(rng=0)
        assert run.terminated and len(run.instance) == 0

    def test_exact_on_empty_input(self):
        program = Program.parse("A(x) :- B(x).")
        pdb = repro.compile(program).on(Instance.empty()).exact().pdb
        assert pdb.support_size() == 1
        assert pdb.prob_of_instance(Instance.empty()) == \
            pytest.approx(1.0)

    def test_input_facts_of_unknown_relations_kept(self):
        program = Program.parse("A(x) :- B(x).")
        extra = Instance.of(Fact("Unrelated", (1, 2)))
        run = repro.compile(program).on(extra).run(rng=0)
        assert Fact("Unrelated", (1, 2)) in run.instance

    def test_head_already_in_input(self):
        program = Program.parse("A(x) :- B(x).")
        D = Instance.of(Fact("B", (1,)), Fact("A", (1,)))
        run = repro.compile(program).on(D).run(rng=0)
        assert run.steps == 0


class TestValueIdentification:
    def test_flip_sample_matches_integer_guard(self):
        # Samples are ints 0/1; a guard atom Trig(x, 1) must match.
        program = Program.parse("""
            T(Flip<1.0>) :- true.
            Go(1) :- T(1).
        """)
        pdb = repro.compile(program).on().exact().pdb
        assert pdb.marginal(Fact("Go", (1,))) == pytest.approx(1.0)

    def test_float_and_int_keys_identified(self):
        # 1.0 in data matches integer 1 in a rule constant.
        program = Program.parse("A(x) :- B(x, 1).")
        D = Instance.of(Fact("B", ("k", 1.0)))
        run = repro.compile(program).on(D).run(rng=0)
        assert Fact("A", ("k",)) in run.instance

    def test_string_number_not_identified(self):
        program = Program.parse('A(x) :- B(x, "1").')
        D = Instance.of(Fact("B", ("k", 1)))
        run = repro.compile(program).on(D).run(rng=0)
        assert Fact("A", ("k",)) not in run.instance


class TestLargerStress:
    def test_deep_deterministic_chain(self):
        rules = "\n".join(f"T{i + 1}(x) :- T{i}(x)."
                          for i in range(100))
        program = Program.parse(rules)
        run = repro.compile(program).on(
            Instance.of(Fact("T0", (1,)))).run(rng=0)
        assert run.terminated
        assert Fact("T100", (1,)) in run.instance
        assert run.steps == 100

    def test_many_independent_samples_parallel(self):
        program = Program.parse("Out(i, Flip<0.5>) :- Item(i).")
        D = Instance(Fact("Item", (i,)) for i in range(200))
        run = run_parallel_chase(program, D, rng=0)
        assert run.terminated
        assert len(run.instance.facts_of("Out")) == 200

    def test_wide_joins(self):
        program = Program.parse(
            "J(a, d) :- R(a, b), S(b, c), T(c, d).")
        facts = []
        for i in range(10):
            facts += [Fact("R", (i, i + 1)), Fact("S", (i + 1, i + 2)),
                      Fact("T", (i + 2, i + 3))]
        run = repro.compile(program).on(Instance(facts)).run(rng=0)
        assert run.terminated
        assert len(run.instance.facts_of("J")) == 10


class TestProgramValidation:
    def test_extensional_head_rejected(self):
        with pytest.raises(ValidationError):
            Program([Rule(atom("B", "x"), (atom("C", "x"),))],
                    extensional=["B"])

    def test_variadic_categorical_in_programs(self):
        program = Program.parse(
            "C(Categorical<0.2, 0.3, 0.5>) :- true.")
        pdb = repro.compile(program).on().exact().pdb
        assert pdb.marginal(Fact("C", (2,))) == pytest.approx(0.5)

    def test_program_requires_rules(self):
        with pytest.raises(ValidationError):
            Program([])

    def test_three_random_terms_normalize(self):
        head = Atom("R", tuple(RandomTerm(FLIP, (Const(0.5),))
                               for _ in range(3)))
        program = Program([Rule(head, ())])
        pdb = repro.compile(program).on().exact().pdb
        assert pdb.total_mass() == pytest.approx(1.0)
        # 8 equally likely triples.
        assert pdb.support_size() == 8
        for world, probability in pdb.worlds():
            assert probability == pytest.approx(0.125)
