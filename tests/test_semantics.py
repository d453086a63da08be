"""Tests for the output-SPDB verbs of the facade.

``Session.exact``, ``Session.sample``, ``CompiledProgram.apply_to_pdb``
and ``Session.mass_report`` (whose rows are
:class:`repro.core.semantics.MassReport`).
"""

import pytest

import repro
from repro.core.program import Program
from repro.errors import ValidationError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


class TestExactSpdb:
    def test_semantics_switch(self, g0):
        grohe = repro.compile(g0, semantics="grohe").on().exact().pdb
        barany = repro.compile(g0, semantics="barany").on().exact().pdb
        assert grohe.support_size() == 3
        assert barany.support_size() == 2

    def test_unknown_semantics(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0, semantics="quantum").on().exact().pdb

    def test_parallel_flag(self, g0):
        session = repro.compile(g0).on()
        assert session.exact(parallel=True).pdb.allclose(
            session.exact().pdb)

    def test_pretranslated_program_accepted(self, g0):
        from repro.core.translate import translate
        pdb = repro.compile(translate(g0)).on().exact().pdb
        assert pdb.support_size() == 3


class TestSampleSpdb:
    def test_converges_to_exact(self, g0):
        exact = repro.compile(g0).on().exact().pdb
        sampled = repro.compile(g0).on(
            seed=0, backend="scalar").sample(4000).pdb
        for world, probability in exact.worlds():
            estimate = sampled.prob(lambda D, w=world: D == w)
            assert abs(estimate - probability) < 0.04

    def test_barany_sampling(self, g0):
        sampled = repro.compile(g0, semantics="barany").on(
            seed=1, backend="scalar").sample(2000).pdb
        # only the two correlated outcomes appear
        supports = {frozenset(f.args[0] for f in D.facts_of("R"))
                    for D in sampled.worlds}
        assert supports == {frozenset({0}), frozenset({1})}

    def test_parallel_sampling(self, g0):
        sampled = repro.compile(g0).on(
            seed=2, backend="scalar", parallel=True).sample(1500).pdb
        exact = repro.compile(g0).on().exact().pdb
        for world, probability in exact.worlds():
            estimate = sampled.prob(lambda D, w=world: D == w)
            assert abs(estimate - probability) < 0.06

    def test_continuous_program(self, heights_program, heights_instance):
        sampled = repro.compile(heights_program).on(
            heights_instance, seed=3, backend="scalar").sample(50).pdb
        assert sampled.err_mass() == 0.0
        assert all(len(D.facts_of("PHeight")) == 4
                   for D in sampled.worlds)

    def test_truncation_counted(self):
        program = paper.continuous_feedback_program()
        D = Instance.of(Fact("Seed", (0,)))
        sampled = repro.compile(program).on(
            D, seed=4, backend="scalar", max_steps=30).sample(10).pdb
        assert sampled.err_mass() == pytest.approx(1.0)
        assert sampled.total_mass() == 0.0


class TestApplyToPdb:
    def test_mixture_over_input_worlds(self):
        program = Program.parse("Quake(c, Flip<r>) :- City(c, r).")
        world_a = Instance.of(Fact("City", ("x", 0.5)))
        world_b = Instance.of(Fact("City", ("x", 0.1)))
        input_pdb = DiscretePDB(DiscreteMeasure(
            {world_a: 0.5, world_b: 0.5}))
        output = repro.compile(program).apply_to_pdb(input_pdb).pdb
        # P(Quake(x,1)) = 0.5*0.5 + 0.5*0.1 = 0.3
        assert output.marginal(Fact("Quake", ("x", 1))) == \
            pytest.approx(0.3)
        assert output.total_mass() == pytest.approx(1.0)

    def test_input_error_mass_propagates(self):
        program = Program.parse("A(Flip<0.5>) :- true.")
        world = Instance.empty()
        input_pdb = DiscretePDB(DiscreteMeasure({world: 0.75}),
                                err=0.25)
        output = repro.compile(program).apply_to_pdb(input_pdb).pdb
        assert output.err_mass() == pytest.approx(0.25)
        assert output.total_mass() == pytest.approx(0.75)

    def test_dirac_input_equals_plain_exact(self, g0):
        input_pdb = DiscretePDB.deterministic(Instance.empty())
        compiled = repro.compile(g0)
        assert compiled.apply_to_pdb(input_pdb).pdb.allclose(
            compiled.on().exact().pdb)


class TestMassReport:
    def test_terminating_program_err_vanishes(self, g0):
        reports = repro.compile(g0).on().mass_report((1, 2, 3, 4, 8))
        assert reports[0].err_mass == pytest.approx(1.0)
        assert reports[-1].err_mass == pytest.approx(0.0)
        for report in reports:
            assert report.total == pytest.approx(1.0)

    def test_err_monotonically_nonincreasing(self, g0):
        reports = repro.compile(g0).on().mass_report((1, 2, 3, 4, 5, 6))
        errs = [r.err_mass for r in reports]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_discrete_cycle_keeps_err(self):
        program = paper.discrete_cycle_program(1.0)
        reports = repro.compile(program).on(
            paper.trigger_instance(), tolerance=1e-4).mass_report((2, 4))
        assert all(r.err_mass > 0.0 for r in reports)
        assert all(r.total == pytest.approx(1.0, abs=1e-3)
                   for r in reports)
