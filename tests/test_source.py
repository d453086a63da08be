"""Tests for surface-syntax serialization (repro.core.source)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.atoms import Atom, atom
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.source import (atom_to_source, constant_to_source,
                               program_to_source, rule_to_source,
                               term_to_source)
from repro.core.terms import Const, RandomTerm, Var
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.errors import ValidationError
from repro.workloads import paper


class TestTermSerialization:
    def test_variable(self):
        assert term_to_source(Var("x")) == "x"

    def test_constants(self):
        assert term_to_source(Const(3)) == "3"
        assert term_to_source(Const(0.5)) == "0.5"
        assert term_to_source(Const("Napa")) == '"Napa"'

    def test_string_escaping(self):
        rendered = constant_to_source('say "hi" \\ bye')
        program = Program.parse(f"R({rendered}) :- true.")
        assert program.rules[0].head.terms[0].value == 'say "hi" \\ bye'

    def test_random_term(self):
        flip = DEFAULT_REGISTRY["Flip"]
        term = RandomTerm(flip, (Const(0.5),))
        assert term_to_source(term) == "Flip<0.5>"

    def test_internal_variable_rejected(self):
        with pytest.raises(ValidationError):
            term_to_source(Var("y#0"))

    def test_internal_relation_rejected(self):
        with pytest.raises(ValidationError):
            atom_to_source(Atom("Result#0", (Var("x"),)))


class TestRuleSerialization:
    def test_bodiless_rule(self):
        rule = Rule(atom("R", 1), ())
        assert rule_to_source(rule) == "R(1) :- true."

    def test_rule_with_body(self):
        rule = Rule(atom("H", "x"), (atom("B", "x", "y"),))
        assert rule_to_source(rule) == "H(x) :- B(x, y)."


class TestRoundTrip:
    @pytest.mark.parametrize("maker", [
        paper.example_1_1_g0, paper.example_1_1_g0_prime,
        paper.section_6_2_h, paper.section_6_2_h_prime,
        paper.example_3_4_program, paper.example_3_5_program,
        paper.continuous_feedback_program,
        paper.discrete_cycle_program,
    ])
    def test_paper_programs_roundtrip(self, maker):
        program = maker()
        reparsed = Program.parse(program_to_source(program))
        assert reparsed.rules == program.rules

    def test_roundtrip_preserves_semantics(self, g0):
        reparsed = Program.parse(program_to_source(g0))
        assert repro.compile(reparsed).on().exact().pdb.allclose(
            repro.compile(g0).on().exact().pdb)

    def test_translated_programs_not_serializable(self, g0):
        normalized = Program.parse("""
            R(Flip<0.5>) :- true.
        """)
        # Normalized Split# rules are internal-only.
        from repro.core.normalize import normalize_rule
        from repro.core.atoms import Atom as A
        flip = DEFAULT_REGISTRY["Flip"]
        rule = Rule(A("R", (RandomTerm(flip, (Const(0.5),)),
                            RandomTerm(flip, (Const(0.5),)))), ())
        split = normalize_rule(rule, "0")[0]
        with pytest.raises(ValidationError):
            rule_to_source(split)
        assert normalized  # silence unused warning


class TestFuzzRoundTrip:
    relation_names = st.sampled_from(["R", "S", "Tv", "Head1"])
    variables = st.sampled_from(["x", "y", "z"])
    constants = st.one_of(
        st.integers(-20, 20),
        st.floats(-5, 5, allow_nan=False).map(lambda f: round(f, 3)),
        st.sampled_from(["a b", 'q"t', "Plain", "under_score"]))

    @given(st.lists(
        st.tuples(relation_names,
                  st.lists(st.one_of(variables.map(Var),
                                     constants.map(Const)),
                           min_size=1, max_size=3)),
        min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_deterministic_programs_roundtrip(self, heads):
        # Build fact-rules plus a copying rule per head relation; all
        # head variables must be body-bound, so ground the heads.
        rules = []
        for name, terms in heads:
            ground_terms = [t if isinstance(t, Const) else Const(0)
                            for t in terms]
            rules.append(Rule(Atom(name, ground_terms), ()))
        program = Program(rules)
        reparsed = Program.parse(program_to_source(program))
        assert reparsed.rules == program.rules
