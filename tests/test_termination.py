"""Tests for termination analysis (Section 6.3, Theorem 6.3)."""

import networkx as nx
import pytest

import repro
from repro.core.program import Program
from repro.core.termination import (analyze_termination,
                                    estimate_termination_probability,
                                    position_graph, weakly_acyclic)
from repro.core.translate import translate
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


class TestPositionGraph:
    def test_regular_edges(self):
        program = Program.parse("A(x) :- B(x).")
        graph = position_graph(translate(program))
        assert graph.has_edge(("B", 0), ("A", 0))

    def test_special_edges_to_existential_position(self):
        program = Program.parse("R(x, Flip<0.5>) :- B(x).")
        translated = translate(program)
        graph = position_graph(translated)
        aux = translated.existential_rules()[0].aux_relation
        specials = [(u, v) for u, v, d in graph.edges(data=True)
                    if d.get("special")]
        assert ((("B", 0), (aux, 2)) in specials)

    def test_no_special_edges_for_constant_heads(self):
        program = Program.parse("R(Flip<0.5>) :- B(x).")
        graph = position_graph(translate(program))
        assert not any(d.get("special")
                       for _, _, d in graph.edges(data=True))


class TestWeakAcyclicity:
    def test_paper_programs_weakly_acyclic(self):
        for program in (paper.example_1_1_g0(),
                        paper.example_3_4_program(),
                        paper.example_3_5_program(),
                        paper.section_6_2_h(),
                        paper.section_6_2_h_prime(),
                        paper.discrete_feedback_program()):
            assert weakly_acyclic(program), program

    def test_continuous_cycle_detected(self):
        report = analyze_termination(paper.continuous_feedback_program())
        assert not report.weakly_acyclic
        assert report.continuous_cycle
        assert report.almost_surely_diverges()
        assert "Normal" in report.cyclic_distributions

    def test_discrete_cycle_detected(self):
        report = analyze_termination(paper.discrete_cycle_program())
        assert not report.weakly_acyclic
        assert not report.continuous_cycle
        assert "Poisson" in report.cyclic_distributions

    def test_deterministic_recursion_is_fine(self):
        program = Program.parse("""
            Path(x, y) :- Edge(x, y).
            Path(x, z) :- Path(x, y), Edge(y, z).
        """)
        assert weakly_acyclic(program)

    def test_report_repr(self):
        good = analyze_termination(paper.example_1_1_g0())
        assert "weakly acyclic" in repr(good)
        bad = analyze_termination(paper.continuous_feedback_program())
        assert "continuous" in repr(bad)

    def test_special_cycle_edges_reported(self):
        report = analyze_termination(paper.discrete_cycle_program())
        assert report.special_cycles
        for source, target in report.special_cycles:
            assert isinstance(source, tuple) and isinstance(target, tuple)


class TestTheorem63:
    """Weak acyclicity ⇒ every chase terminates (spot-checked)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_weakly_acyclic_chases_terminate(self, seed,
                                             earthquake_program,
                                             earthquake_instance):
        assert weakly_acyclic(earthquake_program)
        run = repro.compile(earthquake_program).on(
            earthquake_instance, max_steps=2000).run(rng=seed)
        assert run.terminated


class TestEmpiricalTermination:
    def test_continuous_cycle_never_terminates(self):
        estimate = estimate_termination_probability(
            paper.continuous_feedback_program(),
            Instance.of(Fact("Seed", (0,))),
            n_runs=30, max_steps=300, rng=0)
        assert estimate.probability == 0.0

    def test_discrete_cycle_ast(self):
        estimate = estimate_termination_probability(
            paper.discrete_cycle_program(1.0),
            paper.trigger_instance(), n_runs=150, max_steps=3000,
            rng=1)
        assert estimate.probability == pytest.approx(1.0, abs=0.02)

    def test_weakly_acyclic_always_terminates(self):
        estimate = estimate_termination_probability(
            paper.example_1_1_g0(), None, n_runs=25, max_steps=100,
            rng=2)
        assert estimate.probability == 1.0
        # 2 samples + 1 or 2 companion firings (1 when both flips agree,
        # because the duplicate R fact satisfies the second head).
        assert 3.0 <= estimate.mean_steps_when_terminated <= 4.0

    def test_standard_error(self):
        estimate = estimate_termination_probability(
            paper.example_1_1_g0(), None, n_runs=25, max_steps=100,
            rng=3)
        assert estimate.standard_error() == 0.0
