"""Tests for the static analyzer (repro.analysis).

Three layers under test: the lint diagnostics, the engine-capability
predictions (differentially, against what the engines actually do on
the paper's example programs and on hand-built translated programs
the batch gate refuses), and the surfaces - ``Session.analyze
(deep=True)``, the ``repro lint`` CLI subcommand and the server's
``analyze`` op.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import (FATAL_CODES, DeepReport, capability_report,
                            deep_analyze, fatal_diagnostics,
                            lint_program)
from repro.api import compile as compile_program
from repro.cli import main
from repro.core.atoms import Atom
from repro.core.observe import observe
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm, Var
from repro.core.termination import position_graph
from repro.core.translate import (AuxInfo, DetRule, ExistentialProgram,
                                  ExtRule)
from repro.distributions import DEFAULT_REGISTRY
from repro.engine.batched import BatchedChase, BatchUnsupported
from repro.errors import StreamingUnsupported
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.serving import ProgramServer
from repro.testing import FuzzCase, StaticDynamicOracle, run_fuzz
from repro.testing import runner as runner_module
from repro.workloads import paper


def lint(text: str, instance: Instance | None = None, **kwargs):
    return lint_program(Program.parse(text), instance=instance,
                        **kwargs)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def invalid_flip_program() -> Program:
    """``R(Flip<1.5>) :- true.`` built past the constructor guard.

    The parser validates constant parameters against Θ eagerly, so a
    statically-invalid program can only reach the linter through a
    channel that skipped :class:`RandomTerm` construction (e.g. a
    hand-built AST); the lint check is the defense-in-depth layer.
    """
    term = RandomTerm.__new__(RandomTerm)
    term.distribution = DEFAULT_REGISTRY["Flip"]
    term.params = (Const(1.5),)
    return Program([Rule(Atom("R", (term,)), [])])


# ---------------------------------------------------------------------------
# Lint checks
# ---------------------------------------------------------------------------

class TestLintChecks:
    def test_clean_program_is_clean(self):
        report = lint("Out(x) :- In(x).")
        assert report.ok() and report.ok("warning")
        # The only acceptable finding is the output-relation notice.
        assert {d.code for d in report.diagnostics} \
            <= {"write-only-relation"}

    def test_unused_variable(self):
        report = lint("Out(x) :- In(x), Other(y).")
        codes = [d.code for d in report.diagnostics]
        assert "unused-variable" in codes
        finding = report.by_code("unused-variable")[0]
        assert finding.subject == "y"
        assert finding.rule_index == 0

    def test_invalid_distribution_params_is_fatal(self):
        program = invalid_flip_program()
        report = lint_program(program)
        errors = report.by_code("invalid-distribution-params")
        assert errors and errors[0].severity == "error"
        assert "invalid-distribution-params" in FATAL_CODES
        assert fatal_diagnostics(program)

    def test_valid_params_are_not_fatal(self):
        assert not fatal_diagnostics(
            Program.parse("R(Flip<0.5>) :- true."))

    def test_duplicate_rule_alpha_equivalence(self):
        report = lint("Out(x) :- In(x).\nOut(y) :- In(y).")
        assert report.by_code("duplicate-rule")

    def test_write_only_relation(self):
        report = lint("Dead(x) :- In(x).\nLive(x) :- In(x).\n"
                      "Out(x) :- Live(x).")
        subjects = {d.subject
                    for d in report.by_code("write-only-relation")}
        # Dead and Out are both never read; both are flagged (the
        # hint says outputs are fine).
        assert "Dead" in subjects

    def test_unreachable_rule_on_instance(self):
        report = lint("Out(x) :- In(x), Missing(x).",
                      instance=Instance.from_dict({"In": [(1,)]}))
        assert report.by_code("unreachable-rule") \
            or report.by_code("empty-relation")

    def test_constant_foldable_param(self):
        report = lint(
            "Quake(c, Flip<r>) :- City(c, r).",
            instance=Instance.from_dict(
                {"City": [("napa", 0.1), ("davis", 0.1)]}))
        assert report.by_code("constant-foldable-param")

    def test_non_foldable_param_not_flagged(self):
        report = lint(
            "Quake(c, Flip<r>) :- City(c, r).",
            instance=Instance.from_dict(
                {"City": [("napa", 0.1), ("davis", 0.3)]}))
        assert not report.by_code("constant-foldable-param")


class TestWitnessCycles:
    """Weak-acyclicity witnesses replay against the position graph."""

    def replay(self, program: Program, semantics: str = "grohe"):
        compiled = compile_program(program, semantics=semantics)
        report = lint_program(program, semantics=semantics,
                              translated=compiled.translated)
        findings = report.by_code("weak-acyclicity-violation")
        assert findings, "expected a weak-acyclicity violation"
        graph = position_graph(compiled.translated)
        for finding in findings:
            cycle = [tuple(node) for node in finding.witness_cycle]
            assert len(cycle) >= 3
            assert cycle[0] == cycle[-1], "witness must close"
            # First hop is the special (existential) edge ...
            first = graph.get_edge_data(cycle[0], cycle[1])
            assert first is not None
            assert any(data["special"] for data in first.values())
            # ... and every later hop is a plain dataflow edge.
            for source, target in zip(cycle[1:], cycle[2:]):
                edges = graph.get_edge_data(source, target)
                assert edges is not None
                assert any(not data["special"]
                           for data in edges.values())
        return findings

    def test_continuous_cycle_is_error(self):
        findings = self.replay(paper.continuous_feedback_program())
        assert all(f.severity == "error" for f in findings)

    def test_discrete_cycle_is_warning(self):
        findings = self.replay(paper.discrete_cycle_program())
        assert all(f.severity == "warning" for f in findings)


# ---------------------------------------------------------------------------
# Capability predictions vs the engines (the acceptance programs)
# ---------------------------------------------------------------------------

def deep(program: Program, instance: Instance | None = None,
         semantics: str = "grohe") -> DeepReport:
    compiled = compile_program(program, semantics=semantics)
    return deep_analyze(compiled.translated, instance=instance,
                        termination=compiled.analyze())


X, Z, Y = Var("x"), Var("z"), Var("y")


def per_rule_program(heads, carried=(X, Z)) -> ExistentialProgram:
    """``R(x, z, Flip<0.5>) :- A(x, z).`` translated by hand.

    The per-rule auxiliary ``Result#0`` carries ``carried`` and one
    companion rule per entry of ``heads``, each with the body
    ``A(x, z), Result#0(carried, 0.5, y)``.
    """
    source = Program.parse("R(x, z, Flip<0.5>) :- A(x, z).")
    origin = source.rules[0]
    flip = DEFAULT_REGISTRY["Flip"]
    prefix = (*carried, Const(0.5))
    body = (Atom("A", (X, Z)),)
    aux_atom = Atom("Result#0", (*prefix, Y))
    rules = [ExtRule(0, "Result#0", prefix, len(carried), flip, body,
                     origin)]
    rules += [DetRule(index, head, (*body, aux_atom), origin)
              for index, head in enumerate(heads, start=1)]
    return ExistentialProgram(
        source, rules,
        {"Result#0": AuxInfo(flip, len(carried), len(prefix) + 1)},
        "grohe")


#: Hand-built per-rule translations the batched chase cannot prepare,
#: and the observation each one's likelihood posterior conditions on.
REFUSED_PROGRAMS = {
    "two-companions": (
        lambda: per_rule_program([Atom("R", (X, Z, Y)),
                                  Atom("R", (Z, X, Y))]),
        observe("R", 1, 2, 1)),
    "head-bound-by-rest": (
        lambda: per_rule_program([Atom("R", (X, Z, Y))], carried=(X,)),
        observe("R", 1, 1)),
    "head-without-existential": (
        lambda: per_rule_program([Atom("R", (X, Z, Const(0)))]),
        observe("R", 1, 2, 1)),
}


class TestCapabilitiesMatchRuntime:
    @pytest.mark.parametrize("name", sorted(REFUSED_PROGRAMS))
    def test_refused_program_declines_with_the_report_reason(self,
                                                              name):
        factory, observation = REFUSED_PROGRAMS[name]
        translated = factory()
        instance = Instance.of(Fact("A", (1, 2)), Fact("A", (3, 4)))
        batched = capability_report(translated).batched
        assert not batched.eligible
        reason = batched.reasons[0]
        with pytest.raises(BatchUnsupported) as declined:
            BatchedChase(translated, instance)
        assert str(declined.value) == reason
        session = compile_program(translated).on(instance, seed=4)
        sample = session.sample(30)
        assert sample.backend == "scalar"
        assert sample.diagnostics["fallback_reason"] == reason
        posterior = session.observe(observation).posterior(
            method="likelihood", n=30)
        assert posterior.diagnostics["backend"] == "scalar"
        assert posterior.diagnostics["fallback_reason"] == reason
        with pytest.raises(StreamingUnsupported) as refused:
            session.stream(30)
        assert reason in str(refused.value)

    @pytest.mark.parametrize("where", ["auxiliary atom", "companion head"])
    def test_term_kinds_are_batch_defects(self, where):
        # The layer emits heads as templates of constants, bound
        # variables and the sampled slot; any other term is refused.
        random_term = RandomTerm(DEFAULT_REGISTRY["Flip"], (Const(0.5),))
        if where == "auxiliary atom":
            translated = per_rule_program([Atom("R", (X, Z, Y))],
                                          carried=(X, random_term))
        else:
            translated = per_rule_program([Atom("R", (X, random_term,
                                                      Y))])
        batched = capability_report(translated).batched
        assert batched.reasons == (
            f"unexpected {where} term {random_term!r}",)
        with pytest.raises(BatchUnsupported, match="unexpected"):
            BatchedChase(translated, Instance.of(Fact("A", (1, 2))))

    def test_example_3_4_batched_and_columnar(self):
        program = paper.example_3_4_program()
        instance = paper.example_3_4_instance()
        report = deep(program, instance)
        caps = report.capabilities
        assert caps.weakly_acyclic
        assert caps.batched.eligible
        assert caps.columnar_lift.eligible
        assert set(caps.stable_relations) >= {"City", "House",
                                              "Business", "Unit"}
        assert "Earthquake" in caps.growable_relations
        session = compile_program(program).on(instance, seed=3,
                                              backend="batched")
        result = session.sample(100)
        assert result.backend == "batched"
        # Runtime confirms the stability classification: stable
        # relations carry the same facts in every world.
        reference = None
        for world in result.pdb.worlds:
            stable_facts = frozenset(
                fact for fact in world.facts
                if fact.relation in set(caps.stable_relations))
            reference = stable_facts if reference is None \
                else reference
            assert stable_facts == reference

    def test_example_3_4_streaming_unsafe_is_real(self):
        program = paper.example_3_4_program()
        instance = paper.example_3_4_instance()
        caps = deep(program, instance).capabilities
        # Earthquake/Burglary feed the Trig rules: observing them
        # regroups the batch, so the analyzer predicts "no" ...
        assert not caps.streaming_observations.eligible
        assert caps.streaming_observations.reasons
        # ... and the engine indeed declines such an observation.
        stream = compile_program(program).on(instance,
                                             seed=11).stream(50)
        with pytest.raises(StreamingUnsupported):
            stream.observe(observe("Earthquake", "Napa", 1))

    def test_example_3_5_everything_eligible(self):
        program = paper.example_3_5_program()
        instance = paper.example_3_5_instance()
        caps = deep(program, instance).capabilities
        for capability in caps.capabilities():
            assert capability.eligible, capability.name
        session = compile_program(program).on(instance, seed=7)
        assert session.sample(
            50, backend="batched").backend == "batched"
        stream = session.stream(80)
        from repro.pdb.stats import fact_marginals
        prior = fact_marginals(stream.posterior().pdb)
        target = next(fact for fact in prior
                      if fact.relation == "PHeight")
        stream.observe(observe("PHeight", target.args[0],
                               float(target.args[1])))
        assert stream.n_evidence == 1

    @pytest.mark.parametrize("factory, severity", [
        (paper.continuous_feedback_program, "error"),
        (paper.discrete_cycle_program, "warning"),
    ])
    def test_cyclic_programs_fall_back(self, factory, severity):
        program = factory()
        report = deep(program)
        caps = report.capabilities
        assert not caps.weakly_acyclic
        assert not caps.batched.eligible
        assert not caps.streaming_observations.eligible
        findings = report.lint.by_code("weak-acyclicity-violation")
        assert findings and findings[0].severity == severity
        instance = paper.trigger_instance() \
            if factory is paper.discrete_cycle_program \
            else paper.seed_instance()
        session = compile_program(program).on(
            instance, seed=5, max_steps=50, backend="batched")
        assert session.sample(10).backend == "scalar"

    def test_guided_blocking_reasons_on_example_3_4(self):
        caps = deep(paper.example_3_4_program(),
                    paper.example_3_4_instance()).capabilities
        blocked = [rule for rule in caps.rules
                   if rule.random and rule.guided_reachable is False]
        # The Trig rules read the growable Earthquake/Burglary
        # relations, so backward evidence propagation stops there.
        assert blocked
        assert all(rule.guided_blocking for rule in blocked)


# ---------------------------------------------------------------------------
# Session / serving surfaces
# ---------------------------------------------------------------------------

class TestAnalyzeSurfaces:
    def test_session_deep_analyze_cached(self):
        session = compile_program(paper.example_3_4_program()).on(
            paper.example_3_4_instance())
        first = session.analyze(deep=True)
        assert isinstance(first, DeepReport)
        assert session.analyze(deep=True) is first
        # The shallow call still returns the termination report.
        assert session.analyze().weakly_acyclic

    def test_compiled_deep_analyze_cached(self):
        compiled = compile_program("Out(Flip<0.5>) :- true.")
        assert compiled.analyze(deep=True) \
            is compiled.analyze(deep=True)

    def test_server_preflight_caches_deep_analysis(self):
        # The deep document is computed on request, from the report
        # the compiled program memoizes.
        server = ProgramServer()
        program = "Heads(x, Flip<0.5>) :- Coin(x)."
        request = {"op": "analyze", "program": program, "deep": True}
        first = server.handle(request)
        second = server.handle(request)
        assert first["ok"] and first["result"]["deep"] is True
        assert "lint" in first["result"]
        assert "capabilities" in first["result"]
        assert second == {**first, "compile_cached": True}
        assert server.stats["programs_compiled"] == 1
        # Shallow analyze stays the historical document.
        shallow = server.handle({"op": "analyze", "program": program})
        assert shallow["ok"] and "lint" not in shallow["result"]


class TestLintCli:
    @pytest.fixture
    def quake_file(self, tmp_path):
        path = tmp_path / "quake.gdl"
        path.write_text(paper.EARTHQUAKE_PROGRAM_TEXT)
        return str(path)

    @pytest.fixture
    def sloppy_file(self, tmp_path):
        path = tmp_path / "sloppy.gdl"
        path.write_text("Out(x) :- In(x), Other(y).\n")
        return str(path)

    def test_json_key_contract(self, quake_file):
        code, output = run_cli(["lint", quake_file, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"command", "ok", "fail_on",
                                "semantics", "n_rules", "counts",
                                "diagnostics", "capabilities"}
        assert payload["command"] == "lint"
        assert payload["ok"] is True
        assert payload["fail_on"] == "error"
        assert payload["n_rules"] == 7
        assert set(payload["counts"]) == {"error", "warning", "info"}
        caps = payload["capabilities"]["capabilities"]
        assert caps["batched"]["eligible"] is True
        assert caps["streaming_observations"]["eligible"] is False

    def test_fail_on_escalation(self, sloppy_file):
        code, _ = run_cli(["lint", sloppy_file])
        assert code == 0  # warnings only
        code, _ = run_cli(["lint", sloppy_file,
                           "--fail-on", "warning"])
        assert code == 1

    def test_diagnostics_have_stable_json_shape(self, sloppy_file):
        code, output = run_cli(["lint", sloppy_file, "--json",
                                "--fail-on", "warning"])
        assert code == 1
        payload = json.loads(output)
        assert payload["ok"] is False
        for diagnostic in payload["diagnostics"]:
            assert {"code", "severity", "message", "rule", "subject",
                    "fix_hint"} <= set(diagnostic)

    def test_analyze_deep_flag(self, quake_file):
        code, output = run_cli(["analyze", quake_file, "--deep",
                                "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["deep"] is True
        assert "lint" in payload and "capabilities" in payload


# ---------------------------------------------------------------------------
# The static-dynamic oracle and the lint gate of the fuzz loop
# ---------------------------------------------------------------------------

class TestStaticDynamicOracle:
    def test_passes_on_paper_example(self):
        case = FuzzCase(0, "sampling", paper.example_3_4_program(),
                        paper.example_3_4_instance())
        assert StaticDynamicOracle().check(case).status == "ok"

    def test_passes_on_cyclic_program(self):
        case = FuzzCase(1, "cyclic",
                        paper.discrete_cycle_program(),
                        paper.trigger_instance())
        outcome = StaticDynamicOracle().check(case)
        assert outcome.status in ("ok", "skip"), outcome.detail

    def test_fuzz_battery_holds(self):
        report = run_fuzz(budget=25, seed=123,
                          oracles=[StaticDynamicOracle()],
                          shrink=False)
        assert report.ok(), [d.detail for d in report.discrepancies]

    def test_lint_rejected_cases_are_counted(self, monkeypatch):
        bad = FuzzCase(0, "sampling", invalid_flip_program(),
                       Instance())
        monkeypatch.setattr(runner_module, "generate_case",
                            lambda seed, config=None: bad)
        report = run_fuzz(budget=3, seed=0,
                          oracles=[StaticDynamicOracle()],
                          shrink=False)
        assert report.lint_rejected == 3
        assert report.stats["static-dynamic"].checked == 0
        assert report.to_json()["lint_rejected"] == 3


# ---------------------------------------------------------------------------
# answer_probabilities vectorization: exact identity
# ---------------------------------------------------------------------------

class TestAnswerProbabilitiesIdentity:
    def test_one_pass_matches_per_value_scan(self):
        from repro.query import scan
        from repro.query.columnar import (_push_query,
                                          answer_probabilities)
        session = compile_program(
            "Heads(x, Flip<0.5>) :- Coin(x).").on(
            Instance.from_dict({"Coin": [("a",), ("b",), ("c",)]}),
            seed=13, backend="batched")
        pdb = session.sample(400).pdb
        query = scan("Heads", "coin", "side").where(side=1)

        def column_values(relation):
            index = relation.column_index("coin")
            return frozenset(row[index] for row in relation.rows)

        per_world = _push_query(pdb, query, column_values)
        values: set = set()
        for answer_set in per_world:
            values.update(answer_set)
        reference = {value: per_world.measure_of(
            lambda s, v=value: v in s)
            for value in sorted(values, key=repr)}
        assert answer_probabilities(pdb, query, "coin") == reference


# ---------------------------------------------------------------------------
# Deep report aggregation
# ---------------------------------------------------------------------------

class TestDeepReport:
    def test_to_json_shape(self):
        report = deep(paper.example_3_4_program(),
                      paper.example_3_4_instance())
        payload = report.to_json()
        assert {"weakly_acyclic", "continuous_cycle",
                "cyclic_distributions", "lint",
                "capabilities"} <= set(payload)
        assert payload["weakly_acyclic"] is True
        assert payload["lint"]["counts"]["error"] == 0

    def test_ok_threshold(self):
        report = deep(paper.continuous_feedback_program())
        assert not report.ok()          # error-severity cycle
        clean = deep(Program.parse(
            "Reach(x, y) :- Edge(x, y).\n"
            "Reach(x, z) :- Reach(x, y), Edge(y, z)."))
        assert clean.ok("info")

    def test_capability_report_standalone(self):
        compiled = compile_program(paper.example_3_5_program())
        caps = capability_report(compiled.translated)
        assert caps.batched.eligible
        assert caps.summary().startswith("capabilities[")
