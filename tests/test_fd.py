"""Tests for induced functional dependencies (Section 3.5)."""

import pytest

import repro
from repro.core.fd import (FunctionalDependency, check_all_fds,
                           fd_violation_report, induced_fds)
from repro.core.program import Program
from repro.core.translate import translate, translate_barany
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


class TestFunctionalDependency:
    def test_holds_trivially_on_empty(self):
        fd = FunctionalDependency("R", (0,), 1)
        assert fd.holds_in(Instance.empty())

    def test_detects_violation(self):
        fd = FunctionalDependency("R", (0,), 1)
        good = Instance.of(Fact("R", (1, "a")), Fact("R", (2, "b")))
        bad = good.add(Fact("R", (1, "c")))
        assert fd.holds_in(good)
        assert not fd.holds_in(bad)
        violations = fd.violations(bad)
        assert violations == [((1,), {"a", "c"})]

    def test_multi_column_determinant(self):
        fd = FunctionalDependency("R", (0, 1), 2)
        D = Instance.of(Fact("R", (1, 1, "a")), Fact("R", (1, 2, "b")))
        assert fd.holds_in(D)
        assert not fd.holds_in(D.add(Fact("R", (1, 1, "z"))))

    def test_repr(self):
        fd = FunctionalDependency("R", (0, 1), 2)
        assert "R" in repr(fd) and "→" in repr(fd)


class TestInducedFds:
    def test_one_fd_per_aux_relation(self, g0):
        translated = translate(g0)
        fds = induced_fds(translated)
        assert len(fds) == 2
        for fd in fds:
            assert fd.relation.startswith("Result#")
            assert fd.dependent == max(fd.determinants) + 1

    def test_barany_fds(self, g0):
        translated = translate_barany(g0)
        fds = induced_fds(translated)
        assert len(fds) == 1  # shared auxiliary

    def test_lemma_3_10_along_chases(self):
        program = Program.parse("""
            Quake(c, Flip<r>) :- City(c, r).
            Hit(x, Flip<0.5>) :- Unit(x, c), Quake(c, 1).
        """)
        translated = translate(program)
        D = Instance.of(Fact("City", ("n", 0.5)),
                        Fact("City", ("d", 0.25)),
                        Fact("Unit", ("u1", "n")),
                        Fact("Unit", ("u2", "d")))
        session = repro.compile(translated).on(D)
        for seed in range(15):
            run = session.run(rng=seed)
            assert run.terminated
            # FD holds at EVERY prefix of the chase, not just the end.
            current = D
            assert check_all_fds(translated, current)
            for step in run.trace:
                current = current.add(step.fact)
                assert check_all_fds(translated, current)

    def test_violation_report_empty_for_chase_outputs(self, g0):
        translated = translate(g0)
        session = repro.compile(translated).on()
        runs = [session.run(rng=seed).instance for seed in range(5)]
        assert fd_violation_report(translated, runs) == []

    def test_violation_report_format(self):
        translated = translate(Program.parse("R(Flip<0.5>) :- true."))
        aux = translated.existential_rules()[0].aux_relation
        bad = Instance.of(Fact(aux, (0.5, 0)), Fact(aux, (0.5, 1)))
        report = fd_violation_report(translated, [bad])
        assert len(report) == 1
        assert "violated" in report[0]
