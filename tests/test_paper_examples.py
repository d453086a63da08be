"""Integration tests: every worked example of the paper, exact numbers.

These are the reproduction's ground-truth checks: the outcome tables of
Example 1.1 (``G0``, ``G'0``, ``Gε``) under both semantics, §6.2's
``H`` and ``H'``, the Example 3.4 alarm marginals (exact and Monte
Carlo) and Example 3.5's height moments.
"""

import numpy as np
import pytest

import repro
from repro.measures.empirical import summarize
from repro.pdb.facts import Fact
from repro.workloads import paper
from tests.conftest import assert_measures_close


def worlds_dict(pdb):
    return dict(pdb.worlds())


class TestExample11G0:
    """Example 1.1, program G0 (two identical Flip rules)."""

    def test_our_semantics(self, g0):
        pdb = repro.compile(g0, semantics="grohe").on().exact().pdb
        assert_measures_close(worlds_dict(pdb), paper.G0_EXPECTED_GROHE)
        assert pdb.err_mass() == 0.0

    def test_barany_semantics(self, g0):
        pdb = repro.compile(g0, semantics="barany").on().exact().pdb
        assert_measures_close(worlds_dict(pdb), paper.G0_EXPECTED_BARANY)

    def test_g0_double_prime_single_rule(self):
        # G''0 = one rule; under BOTH semantics: {R(1)} 1/2, {R(0)} 1/2.
        program = paper.example_1_1_g0_double_prime()
        for semantics in ("grohe", "barany"):
            pdb = repro.compile(
                program, semantics=semantics).on().exact().pdb
            assert_measures_close(worlds_dict(pdb),
                                  paper.G0_EXPECTED_BARANY)

    def test_g0_not_equivalent_to_single_rule_under_ours(self, g0):
        # The paper notes G0 and G''0 differ under the new semantics.
        two_rules = repro.compile(g0).on().exact().pdb
        one_rule = repro.compile(
            paper.example_1_1_g0_double_prime()).on().exact().pdb
        assert not two_rules.allclose(one_rule)


class TestExample11GPrime:
    """Example 1.1, program G'0 (Flip vs Flip')."""

    def test_renaming_invariance_of_our_semantics(self, g0, g0_prime):
        assert repro.compile(g0).on().exact().pdb.allclose(
            repro.compile(g0_prime).on().exact().pdb)

    def test_barany_sensitive_to_renaming(self, g0, g0_prime):
        renamed = repro.compile(g0_prime, semantics="barany").on().exact().pdb
        original = repro.compile(g0, semantics="barany").on().exact().pdb
        assert not renamed.allclose(original)
        assert_measures_close(worlds_dict(renamed),
                              paper.G0_PRIME_EXPECTED_BARANY)


class TestExample11GEps:
    """Example 1.1, Gε: continuity under ours, discontinuity under [3]."""

    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.125, 1e-3])
    def test_exact_values_as_displayed(self, epsilon):
        program = paper.example_1_1_g_eps(epsilon)
        pdb = repro.compile(program).on().exact().pdb
        assert_measures_close(worlds_dict(pdb),
                              paper.g_eps_expected(epsilon),
                              tolerance=1e-9)

    def test_both_semantics_agree_on_g_eps(self):
        # Distinct parameters => two independent samples either way.
        program = paper.example_1_1_g_eps(0.25)
        assert repro.compile(program).on().exact().pdb.allclose(
            repro.compile(program, semantics="barany").on().exact().pdb)

    def test_continuity_under_our_semantics(self, g0):
        # outcome(Gε) → outcome(G0) as ε → 0 under "grohe".
        limit = repro.compile(g0).on().exact().pdb
        for epsilon in (0.25, 0.0625, 1e-4):
            pdb = repro.compile(
                paper.example_1_1_g_eps(epsilon)).on().exact().pdb
            assert pdb.tv_distance(limit) <= epsilon + 1e-9

    def test_discontinuity_under_barany(self, g0):
        # outcome(Gε) does NOT approach outcome(G0) under [3]:
        # the TV distance stays >= 1/4 as ε → 0.
        limit = repro.compile(g0, semantics="barany").on().exact().pdb
        for epsilon in (0.25, 0.0625, 1e-4):
            pdb = repro.compile(paper.example_1_1_g_eps(epsilon),
                                semantics="barany").on().exact().pdb
            assert pdb.tv_distance(limit) >= 0.25

    def test_paper_prose_reading(self):
        # The printed probabilities match biases (1/2+ε, 1/2+ε).
        epsilon = 0.125
        prose = paper.g_eps_expected_paper_prose(epsilon)
        total = sum(prose.values())
        assert total == pytest.approx(1.0)
        world_one = paper._r_world(1)
        assert prose[world_one] == pytest.approx(
            0.25 + epsilon + epsilon ** 2)


class TestSection62HPrograms:
    def test_h_under_ours(self, program_h):
        pdb = repro.compile(program_h).on().exact().pdb
        assert_measures_close(worlds_dict(pdb), paper.H_EXPECTED_GROHE)

    def test_h_under_barany(self, program_h):
        pdb = repro.compile(program_h, semantics="barany").on().exact().pdb
        assert_measures_close(worlds_dict(pdb), paper.H_EXPECTED_BARANY)

    def test_h_prime_simulates_barany(self, program_h_prime):
        pdb = repro.compile(program_h_prime).on().exact().pdb.project(
            ["R", "S"])
        assert_measures_close(worlds_dict(pdb),
                              paper.H_PRIME_EXPECTED_RESTRICTED)

    def test_h_prime_keeps_a_in_full_output(self, program_h_prime):
        pdb = repro.compile(program_h_prime).on().exact().pdb
        # Full worlds contain the auxiliary predicate A (paper: worlds
        # are {R(v), S(v), A(v)}).
        for world, probability in pdb.worlds():
            values = {f.args[0] for f in world.facts_of("A")}
            assert len(values) == 1
            (v,) = values
            assert Fact("R", (v,)) in world
            assert Fact("S", (v,)) in world
            assert probability == pytest.approx(0.5)


class TestExample34Earthquake:
    def test_exact_alarm_marginals(self, earthquake_program,
                                   earthquake_instance):
        pdb = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        assert pdb.marginal(Fact("Alarm", ("house-1",))) == \
            pytest.approx(paper.alarm_probability_closed_form(0.03))
        assert pdb.marginal(Fact("Alarm", ("biz-1",))) == \
            pytest.approx(paper.alarm_probability_closed_form(0.01))

    def test_earthquake_marginal(self, earthquake_program,
                                 earthquake_instance):
        pdb = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        assert pdb.marginal(Fact("Earthquake", ("Napa", 1))) == \
            pytest.approx(0.1)

    def test_units_derived_deterministically(self, earthquake_program,
                                             earthquake_instance):
        pdb = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        assert pdb.marginal(Fact("Unit", ("house-1", "Napa"))) == \
            pytest.approx(1.0)

    def test_monte_carlo_agrees(self, earthquake_program,
                                earthquake_instance):
        exact = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        sampled = repro.compile(earthquake_program).on(
            earthquake_instance, seed=0, backend="scalar").sample(4000).pdb
        for unit in ("house-1", "biz-1"):
            f = Fact("Alarm", (unit,))
            se = max(sampled.prob_standard_error(
                lambda D, f=f: f in D), 1e-3)
            assert abs(sampled.marginal(f) - exact.marginal(f)) < 5 * se

    def test_burglary_uses_city_rate(self, earthquake_program,
                                     earthquake_instance):
        pdb = repro.compile(earthquake_program).on(
            earthquake_instance).exact().pdb
        assert pdb.marginal(Fact("Burglary", ("house-1", "Napa", 1))) \
            == pytest.approx(0.03)


class TestExample35Heights:
    def test_samples_match_moments(self, heights_program):
        instance = paper.example_3_5_instance(
            moments={"NL": (183.8, 49.0)}, persons_per_country=4)
        sampled = repro.compile(heights_program).on(
            instance, seed=1, backend="scalar").sample(800).pdb
        heights = sampled.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")])
        summary = summarize(heights)
        assert summary.mean_within(183.8)
        assert abs(summary.variance - 49.0) < 5.0

    def test_every_person_gets_one_height(self, heights_program,
                                          heights_instance):
        sampled = repro.compile(heights_program).on(
            heights_instance, seed=2, backend="scalar").sample(50).pdb
        for world in sampled.worlds:
            persons = {f.args[0] for f in world.facts_of("PHeight")}
            assert persons == {f.args[0] for f
                               in heights_instance.facts_of("PCountry")}

    def test_heights_differ_across_worlds(self, heights_program,
                                          heights_instance):
        # Continuous sampling: worlds are almost surely distinct.
        sampled = repro.compile(heights_program).on(
            heights_instance, seed=3, backend="scalar").sample(30).pdb
        assert len(set(sampled.worlds)) == 30

    def test_per_country_separation(self, heights_program):
        instance = paper.example_3_5_instance(
            moments={"NL": (183.8, 25.0), "PE": (165.2, 25.0)},
            persons_per_country=2)
        sampled = repro.compile(heights_program).on(
            instance, seed=4, backend="scalar").sample(500).pdb
        nl = summarize(sampled.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")
                       if f.args[0].startswith("nl")]))
        pe = summarize(sampled.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")
                       if f.args[0].startswith("pe")]))
        assert nl.mean - pe.mean > 10.0
