"""Tests for the deterministic Datalog engines (naive / semi-naive)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.program import Program
from repro.engine.seminaive import naive_fixpoint, seminaive_fixpoint
from repro.errors import UnsupportedProgramError
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads.generators import (random_graph_instance,
                                        transitive_closure_program)


@pytest.fixture
def tc_program():
    return transitive_closure_program()


def edges(*pairs):
    return Instance(Fact("Edge", p) for p in pairs)


class TestFixpoints:
    def test_transitive_closure(self, tc_program):
        D = edges((1, 2), (2, 3), (3, 4))
        result = seminaive_fixpoint(tc_program, D)
        paths = result.tuples_of("Path")
        assert (1, 4) in paths and (1, 2) in paths
        assert len(paths) == 6

    def test_cycle_terminates(self, tc_program):
        D = edges((1, 2), (2, 1))
        result = seminaive_fixpoint(tc_program, D)
        assert result.tuples_of("Path") == \
            {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_naive_equals_seminaive(self, tc_program):
        D = random_graph_instance(12, 25, seed=3)
        assert naive_fixpoint(tc_program, D) == \
            seminaive_fixpoint(tc_program, D)

    def test_bodiless_rules_fire_once(self):
        program = Program.parse("A(1) :- true. B(x) :- A(x).")
        result = seminaive_fixpoint(program, Instance.empty())
        assert Fact("A", (1,)) in result and Fact("B", (1,)) in result

    def test_input_preserved(self, tc_program):
        D = edges((1, 2))
        result = seminaive_fixpoint(tc_program, D)
        assert D.issubset(result)

    def test_no_rules_applicable(self, tc_program):
        D = Instance.of(Fact("Other", (1,)))
        assert seminaive_fixpoint(tc_program, D) == D

    def test_random_program_rejected(self):
        program = Program.parse("R(Flip<0.5>) :- true.")
        with pytest.raises(UnsupportedProgramError):
            seminaive_fixpoint(program, Instance.empty())
        with pytest.raises(UnsupportedProgramError):
            naive_fixpoint(program, Instance.empty())

    def test_max_iterations_bounds_work(self, tc_program):
        D = edges(*((i, i + 1) for i in range(10)))
        partial = seminaive_fixpoint(tc_program, D, max_iterations=1)
        full = seminaive_fixpoint(tc_program, D)
        assert partial.issubset(full)
        assert len(partial) < len(full)


class TestMultiRuleDatalog:
    def test_mutual_recursion(self):
        program = Program.parse("""
            Even(x) :- Zero(x).
            Odd(y) :- Even(x), Succ(x, y).
            Even(y) :- Odd(x), Succ(x, y).
        """)
        D = Instance([Fact("Zero", (0,))]
                     + [Fact("Succ", (i, i + 1)) for i in range(6)])
        result = seminaive_fixpoint(program, D)
        assert result.tuples_of("Even") == {(0,), (2,), (4,), (6,)}
        assert result.tuples_of("Odd") == {(1,), (3,), (5,)}

    def test_same_head_different_bodies(self):
        program = Program.parse("""
            Unit(h) :- House(h).
            Unit(b) :- Business(b).
        """)
        D = Instance.of(Fact("House", ("h1",)), Fact("Business", ("b1",)))
        result = seminaive_fixpoint(program, D)
        assert result.tuples_of("Unit") == {("h1",), ("b1",)}


class TestEngineEquivalenceProperty:
    @given(st.integers(4, 10), st.integers(5, 20), st.integers(0, 99))
    @settings(max_examples=15, deadline=None)
    def test_naive_seminaive_agree_on_random_graphs(self, n, m, seed):
        program = transitive_closure_program()
        D = random_graph_instance(n, m, seed=seed)
        assert naive_fixpoint(program, D) == \
            seminaive_fixpoint(program, D)


def _both(program, instance):
    naive = naive_fixpoint(program, instance)
    seminaive = seminaive_fixpoint(program, instance)
    assert naive == seminaive
    return naive


class TestEquivalenceEdgeCases:
    """Naive vs semi-naive on the degenerate shapes the fuzzer spans."""

    def test_empty_instance(self, tc_program):
        result = _both(tc_program, Instance.empty())
        assert result == Instance.empty()

    def test_empty_relations_referenced_in_bodies(self):
        program = Program.parse("""
            D0(x) :- Missing(x).
            D1(x, y) :- D0(x), AlsoMissing(x, y).
        """)
        instance = Instance.of(Fact("Unrelated", (1,)))
        result = _both(program, instance)
        assert result == instance  # nothing derivable, input preserved

    def test_constant_only_rules(self):
        program = Program.parse("""
            A(1) :- true.
            A(2) :- true.
            B("x", 3) :- true.
            C(y) :- A(y).
        """)
        result = _both(program, Instance.empty())
        assert result.tuples_of("A") == {(1,), (2,)}
        assert result.tuples_of("B") == {("x", 3)}
        assert result.tuples_of("C") == {(1,), (2,)}

    def test_constant_only_rule_gated_on_empty_body(self):
        program = Program.parse("D0(7) :- Missing(x).")
        result = _both(program, Instance.empty())
        assert result.tuples_of("D0") == set()

    def test_body_never_matches_due_to_constants(self):
        program = Program.parse('D0(x) :- E0(x, "nope").')
        instance = Instance.of(Fact("E0", (1, "a")),
                               Fact("E0", (2, "b")))
        result = _both(program, instance)
        assert result.tuples_of("D0") == set()

    def test_body_never_matches_due_to_repeated_variable(self):
        program = Program.parse("D0(x) :- E0(x, x).")
        instance = Instance.of(Fact("E0", (1, 2)), Fact("E0", (2, 3)))
        result = _both(program, instance)
        assert result.tuples_of("D0") == set()

    def test_duplicate_rules_change_nothing(self, tc_program):
        doubled = Program(tuple(tc_program.rules)
                          + tuple(tc_program.rules))
        D = edges((1, 2), (2, 3))
        assert _both(doubled, D) == _both(tc_program, D)

    def test_duplicate_bodies_different_heads(self):
        program = Program.parse("""
            D0(x) :- E0(x, y).
            D1(x) :- E0(x, y).
            D2(y) :- E0(x, y).
        """)
        instance = Instance.of(Fact("E0", (1, 2)))
        result = _both(program, instance)
        assert result.tuples_of("D0") == {(1,)}
        assert result.tuples_of("D1") == {(1,)}
        assert result.tuples_of("D2") == {(2,)}

    def test_derived_fact_already_in_input(self):
        program = Program.parse("D0(x) :- E0(x).")
        instance = Instance.of(Fact("E0", (1,)), Fact("D0", (1,)))
        result = _both(program, instance)
        assert result.tuples_of("D0") == {(1,)}

    def test_recursion_with_empty_seed_relation(self):
        program = Program.parse("""
            Even(x) :- Zero(x).
            Even(y) :- Even(x), Succ(x, y).
        """)
        instance = Instance(Fact("Succ", (i, i + 1)) for i in range(4))
        result = _both(program, instance)
        assert result.tuples_of("Even") == set()
