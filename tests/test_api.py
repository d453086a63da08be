"""Tests for the compile-once / infer-many facade (repro.api).

Covers the satellite checklist of the facade PR:

* :class:`ChaseConfig` validation and immutability;
* compile-once caching - a translation-count regression test proving
  that ``Session.sample(n)`` performs exactly one translation;
* :class:`DeprecationWarning` emission from every legacy shim;
* behavioural equivalence of the facade with the legacy entry points.
"""

import dataclasses
import importlib
import warnings

import numpy as np
import pytest

import repro

# ``repro.core.translate`` the *module* (the package __init__ rebinds
# the attribute of the same name to the translate() function).
translate_module = importlib.import_module("repro.core.translate")
from repro.api import (DEFAULT_CONFIG, ChaseConfig, CompiledProgram,
                       InferenceResult, Session)
from repro.core.observe import observe
from repro.errors import MeasureError, ValidationError
from repro.pdb.events import ContainsFactEvent


@pytest.fixture
def g0():
    return repro.Program.parse("""
        R(Flip<0.5>) :- true.
        R(Flip<0.5>) :- true.
    """)


@pytest.fixture
def earthquake():
    program = repro.Program.parse("""
        Earthquake(c, Flip<0.1>)    :- City(c, r).
        Unit(h, c)                  :- House(h, c).
        Burglary(x, c, Flip<r>)     :- Unit(x, c), City(c, r).
        Trig(x, Flip<0.6>)          :- Unit(x, c), Earthquake(c, 1).
        Trig(x, Flip<0.9>)          :- Burglary(x, c, 1).
        Alarm(x)                    :- Trig(x, 1).
    """)
    instance = repro.Instance.from_dict({
        "City":  [("Napa", 0.03)],
        "House": [("h1", "Napa")],
    })
    return program, instance


# ---------------------------------------------------------------------------
# ChaseConfig
# ---------------------------------------------------------------------------

class TestChaseConfig:
    def test_defaults(self):
        config = ChaseConfig()
        assert config.engine == "incremental"
        assert config.streams == "spawn"
        assert not config.parallel
        assert config.policy is None
        assert config == DEFAULT_CONFIG

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ChaseConfig().engine = "naive"

    @pytest.mark.parametrize("overrides", [
        {"engine": "turbo"},
        {"streams": "vectorized"},
        {"max_steps": 0},
        {"max_steps": -5},
        {"max_steps": 1.5},
        {"max_depth": 0},
        {"tolerance": -1e-9},
        {"policy": "first"},
        {"seed": "seven"},
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValidationError):
            ChaseConfig(**overrides)

    def test_replace_produces_new_validated_config(self):
        config = ChaseConfig()
        other = config.replace(max_steps=5, engine="naive")
        assert other is not config
        assert other.max_steps == 5 and other.engine == "naive"
        assert config.max_steps != 5  # original untouched
        with pytest.raises(ValidationError):
            config.replace(max_steps=-1)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown ChaseConfig"):
            ChaseConfig().replace(max_stepz=10)

    def test_replace_noop_returns_self(self):
        config = ChaseConfig()
        assert config.replace() is config

    def test_spawn_rngs_are_independent_and_reproducible(self):
        config = ChaseConfig(seed=13)
        a = [rng.random() for rng in config.spawn_rngs(4)]
        b = [rng.random() for rng in config.spawn_rngs(4)]
        assert a == b                      # reproducible
        assert len(set(a)) == 4            # independent streams

    def test_shared_stream_is_one_generator(self):
        config = ChaseConfig(seed=13, streams="shared")
        rngs = config.spawn_rngs(5)
        assert all(rng is rngs[0] for rng in rngs)

    def test_generator_seed_passthrough(self):
        rng = np.random.default_rng(0)
        config = ChaseConfig(seed=rng, streams="shared")
        assert config.base_rng() is rng


class TestWorldRngs:
    """``spawn_rngs`` under ``"spawn"``: a lazy, memoized sequence."""

    @staticmethod
    def _draws(rngs):
        return [rng.random(3).tolist() for rng in rngs]

    @pytest.mark.parametrize("seed", [0, 123, 2**40 + 5])
    def test_int_seed_equals_seed_sequence_spawn(self, seed):
        children = np.random.SeedSequence(seed).spawn(6)
        assert self._draws(ChaseConfig(seed=seed).spawn_rngs(6)) == \
            self._draws(np.random.default_rng(c) for c in children)

    def test_fresh_seed_equals_spawn_of_its_recorded_entropy(self):
        rngs = ChaseConfig().spawn_rngs(6)
        children = np.random.SeedSequence(rngs.entropy).spawn(6)
        assert self._draws(rngs) == \
            self._draws(np.random.default_rng(c) for c in children)

    def test_sequence_protocol(self):
        rngs = ChaseConfig(seed=5).spawn_rngs(4)
        assert len(rngs) == 4
        listed = list(rngs)
        assert len(listed) == 4
        assert all(a is b for a, b in zip(listed, rngs))
        assert rngs[-1] is rngs[3] and rngs[-4] is rngs[0]
        assert [id(r) for r in rngs[1:3]] == [id(rngs[1]), id(rngs[2])]
        assert [id(r) for r in rngs[::-2]] == [id(rngs[3]), id(rngs[1])]
        for outside in (4, -5):
            with pytest.raises(IndexError):
                rngs[outside]

    def test_repeated_index_returns_the_same_generator(self):
        rngs = ChaseConfig(seed=5).spawn_rngs(3)
        first = rngs[2]
        first.random()
        assert rngs[2] is first

    def test_generator_seed_spawns_on_first_read_only(self):
        parent = np.random.default_rng(4)
        rngs = ChaseConfig(seed=parent).spawn_rngs(3)
        assert parent.bit_generator.seed_seq.n_children_spawned == 0
        middle = rngs[1]
        assert parent.bit_generator.seed_seq.n_children_spawned == 3
        assert rngs[1] is middle
        twin = np.random.default_rng(4).spawn(3)[1]
        assert middle.random() == twin.random()


# ---------------------------------------------------------------------------
# compile() / CompiledProgram
# ---------------------------------------------------------------------------

class TestCompile:
    def test_compile_text(self):
        compiled = repro.compile("R(Flip<0.5>) :- true.")
        assert isinstance(compiled, CompiledProgram)
        assert compiled.is_discrete()
        assert compiled.visible_relations == ("R",)

    def test_compile_program_object(self, g0):
        compiled = repro.compile(g0, semantics="barany")
        assert compiled.semantics == "barany"
        assert compiled.on().exact().pdb.support_size() == 2

    def test_compile_translated_program(self, g0):
        translated = g0.translate_barany()
        compiled = repro.compile(translated)
        assert compiled.semantics == "barany"
        assert compiled.translated is translated

    def test_compile_translated_semantics_clash(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0.translate(), semantics="barany")
        # ... in either direction: an explicit 'grohe' request cannot
        # silently reuse a barany translation.
        with pytest.raises(ValidationError):
            repro.compile(g0.translate_barany(), semantics="grohe")

    def test_parse_options_rejected_for_program_objects(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0, registry=repro.DEFAULT_REGISTRY)
        with pytest.raises(ValidationError):
            repro.compile(g0.translate(),
                          registry=repro.DEFAULT_REGISTRY)

    def test_bad_input_type(self):
        with pytest.raises(ValidationError):
            repro.compile(42)

    def test_bad_semantics(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0, semantics="exotic")

    def test_analyze_cached(self, g0):
        compiled = repro.compile(g0)
        assert compiled.analyze() is compiled.analyze()
        assert compiled.analyze().weakly_acyclic


class TestCompileOnceRegression:
    """``Session.sample(n)`` must translate the program exactly once."""

    def _counting(self, monkeypatch):
        calls = {"n": 0}
        original = translate_module.translate

        def counted(program):
            calls["n"] += 1
            return original(program)

        monkeypatch.setattr(translate_module, "translate", counted)
        return calls

    def test_sample_translates_exactly_once(self, monkeypatch, g0):
        calls = self._counting(monkeypatch)
        session = repro.compile(g0).on(seed=0)
        result = session.sample(40)
        assert result.n_runs == 40
        assert calls["n"] == 1

    def test_whole_session_lifecycle_translates_once(self, monkeypatch,
                                                     g0):
        calls = self._counting(monkeypatch)
        compiled = repro.compile(g0)
        session = compiled.on(seed=1)
        session.sample(25)
        session.sample(25)
        session.exact()
        session.marginal(repro.Fact("R", (1,)))
        compiled.analyze()
        compiled.on(seed=2).sample(10)     # second session, same cache
        assert calls["n"] == 1

    def test_legacy_path_translates_per_call(self, monkeypatch, g0):
        calls = self._counting(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            repro.sample_spdb(g0, n=5, rng=0)
            repro.sample_spdb(g0, n=5, rng=0)
        assert calls["n"] == 2

    def test_exact_result_cached_per_config(self, g0):
        session = repro.compile(g0).on()
        assert session.exact() is session.exact()
        deeper = session.exact(max_depth=300)
        assert deeper is not session.exact()
        assert deeper.pdb.allclose(session.exact().pdb)


# ---------------------------------------------------------------------------
# Session verbs
# ---------------------------------------------------------------------------

class TestSessionSample:
    def test_matches_legacy_sample_spdb_bit_for_bit(self, earthquake):
        program, instance = earthquake
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.sample_spdb(program, instance, n=200, rng=7)
        facade = repro.compile(program).on(
            instance, seed=7, streams="shared").sample(200).pdb
        assert [w.canonical_text() for w in legacy.worlds] == \
            [w.canonical_text() for w in facade.worlds]

    def test_spawn_streams_deterministic(self, earthquake):
        program, instance = earthquake
        compiled = repro.compile(program)
        a = compiled.on(instance, seed=3).sample(100).pdb
        b = compiled.on(instance, seed=3).sample(100).pdb
        assert [w.canonical_text() for w in a.worlds] == \
            [w.canonical_text() for w in b.worlds]

    def test_workers_match_sequential(self, earthquake):
        # Worker threads are a scalar-path feature (the batched
        # backend is already vectorized, and "auto" routes workers > 1
        # to the scalar loop), so pin the backend for the comparison.
        program, instance = earthquake
        compiled = repro.compile(program)
        sequential = compiled.on(instance, seed=5).sample(
            60, backend="scalar").pdb
        threaded_result = compiled.on(instance, seed=5).sample(
            60, workers=4)
        assert threaded_result.backend == "scalar"
        threaded = threaded_result.pdb
        assert [w.canonical_text() for w in sequential.worlds] == \
            [w.canonical_text() for w in threaded.worlds]

    def test_workers_require_spawn_streams(self, g0):
        session = repro.compile(g0).on(seed=0, streams="shared")
        with pytest.raises(ValidationError):
            session.sample(10, workers=2)

    def test_sample_rejects_nonpositive_n(self, g0):
        with pytest.raises(ValidationError):
            repro.compile(g0).on().sample(0)

    def test_sample_converges_to_exact(self, g0):
        session = repro.compile(g0).on(seed=0)
        exact = session.exact()
        sampled = session.sample(4000)
        fact = repro.Fact("R", (1,))
        assert abs(sampled.marginal(fact)
                   - exact.marginal(fact)) < 0.05

    def test_parallel_chase_config(self, g0):
        result = repro.compile(g0).on(seed=0,
                                      parallel=True).sample(100)
        assert result.err_mass() == 0.0
        assert result.n_runs == 100

    def test_outputs_stream(self, g0):
        outputs = list(repro.compile(g0).on(seed=0).outputs(5))
        assert len(outputs) == 5
        assert all(out is not None for out in outputs)


class TestSessionExact:
    def test_matches_legacy_exact_spdb(self, earthquake):
        program, instance = earthquake
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.exact_spdb(program, instance)
        facade = repro.compile(program).on(instance).exact().pdb
        assert facade.allclose(legacy)
        assert facade.marginal(repro.Fact("Alarm", ("h1",))) == \
            pytest.approx(0.08538)

    def test_result_type_and_diagnostics(self, g0):
        result = repro.compile(g0).on().exact()
        assert isinstance(result, InferenceResult)
        assert result.kind == "exact"
        assert result.elapsed >= 0.0
        assert result.total_mass() == pytest.approx(1.0)
        payload = result.to_dict()
        assert payload["kind"] == "exact"
        assert payload["err_mass"] == pytest.approx(0.0)

    def test_barany_semantics(self, g0):
        ours = repro.compile(g0).on().exact().pdb
        barany = repro.compile(g0,
                               semantics="barany").on().exact().pdb
        assert ours.support_size() == 3
        assert barany.support_size() == 2


class TestSessionPosterior:
    def test_exact_conditioning_matches_legacy(self, earthquake):
        program, instance = earthquake
        alarm = ContainsFactEvent(repro.Fact("Alarm", ("h1",)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.condition_exact(program, instance, [alarm])
        facade = repro.compile(program).on(instance).observe(
            alarm).posterior(method="exact").pdb
        assert facade.allclose(legacy)

    def test_rejection_posterior(self, earthquake):
        program, instance = earthquake
        alarm = ContainsFactEvent(repro.Fact("Alarm", ("h1",)))
        result = repro.compile(program).on(instance, seed=0).observe(
            alarm).posterior(method="rejection", n=4000)
        assert result.kind == "rejection"
        assert result.diagnostics["n_accepted"] > 0
        assert 0.0 < result.diagnostics["acceptance_rate"] < 1.0
        exact = repro.compile(program).on(instance).observe(
            alarm).posterior(method="exact")
        quake = repro.Fact("Earthquake", ("Napa", 1))
        assert abs(result.marginal(quake)
                   - exact.marginal(quake)) < 0.05

    def test_rejection_zero_acceptance_raises(self, g0):
        impossible = ContainsFactEvent(repro.Fact("R", (7,)))
        with pytest.raises(MeasureError, match="measure-zero"):
            repro.compile(g0).on(seed=0).observe(
                impossible).posterior(method="rejection", n=50)

    def test_likelihood_posterior(self):
        compiled = repro.compile("""
            Mu(Normal<0, 1>) :- true.
            X(Normal<m, 1>)  :- Mu(m).
        """)
        result = compiled.on(seed=2).observe(
            observe("X", 2.0)).posterior(method="likelihood", n=4000)
        assert result.kind == "likelihood"
        assert result.diagnostics["effective_sample_size"] > 100
        mean = result.pdb.weighted_mean(
            lambda D: [f.args[0] for f in D.facts_of("Mu")])
        assert abs(mean - 1.0) < 0.1

    def test_method_evidence_mismatch(self, g0):
        session = repro.compile(g0).on(seed=0)
        with pytest.raises(ValidationError):
            session.observe(observe("R", 1)).posterior(
                method="rejection")
        with pytest.raises(ValidationError):
            session.observe(lambda D: True).posterior(
                method="likelihood")

    def test_posterior_needs_evidence(self, g0):
        with pytest.raises(ValidationError, match="observe"):
            repro.compile(g0).on().posterior()

    def test_unknown_method(self, g0):
        session = repro.compile(g0).on().observe(lambda D: True)
        with pytest.raises(ValidationError, match="unknown posterior"):
            session.posterior(method="variational")

    def test_observe_validates_evidence(self, g0):
        session = repro.compile(g0).on()
        with pytest.raises(ValidationError):
            session.observe()
        with pytest.raises(ValidationError):
            session.observe("not evidence")

    def test_marginal_with_evidence_uses_posterior(self, earthquake):
        program, instance = earthquake
        alarm = ContainsFactEvent(repro.Fact("Alarm", ("h1",)))
        session = repro.compile(program).on(instance).observe(alarm)
        quake = repro.Fact("Earthquake", ("Napa", 1))
        posterior = session.marginal(quake)
        prior = repro.compile(program).on(instance).marginal(quake)
        assert posterior > prior


class TestSessionMisc:
    def test_run_single_chase(self, g0):
        run = repro.compile(g0).on(seed=0).run()
        assert run.terminated
        assert run.steps > 0

    def test_record_trace(self, g0):
        run = repro.compile(g0).on(seed=0, record_trace=True).run()
        assert run.trace is not None and len(run.trace) == run.steps

    def test_mass_report(self, g0):
        reports = repro.compile(g0).on().mass_report(budgets=(1, 8))
        assert [r.budget for r in reports] == [1, 8]
        assert reports[1].instance_mass == pytest.approx(1.0)

    def test_apply_to_pdb_matches_legacy(self, g0):
        input_pdb = repro.compile(g0).on().exact().pdb
        follow = repro.Program.parse("S(x) :- R(x).",
                                     extensional=("R",))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.apply_to_pdb(follow, input_pdb)
        facade = repro.compile(follow).apply_to_pdb(input_pdb).pdb
        assert facade.allclose(legacy)

    def test_configure_returns_new_session(self, g0):
        session = repro.compile(g0).on()
        other = session.configure(max_steps=17)
        assert other is not session
        assert other.config.max_steps == 17
        assert session.config.max_steps != 17

    def test_derived_sessions_share_caches(self, earthquake):
        program, instance = earthquake
        session = repro.compile(program).on(instance)
        prior = session.exact()
        alarm = ContainsFactEvent(repro.Fact("Alarm", ("h1",)))
        observed = session.observe(alarm)
        # The observed session conditions the already-enumerated
        # prior instead of re-running the chase-tree enumeration.
        assert observed._exact_cache is session._exact_cache
        assert observed.exact() is prior
        assert session.configure(seed=9)._engines is session._engines

    def test_session_repr(self, g0):
        session = repro.compile(g0).on().observe(lambda D: True)
        assert "Session" in repr(session)
        assert "1 evidence" in repr(session)


# ---------------------------------------------------------------------------
# Deprecation shims
# ---------------------------------------------------------------------------

class TestDeprecationShims:
    """Every legacy entry point warns exactly and keeps working."""

    def test_exact_spdb_warns(self, g0):
        with pytest.warns(DeprecationWarning, match="exact_spdb"):
            pdb = repro.exact_spdb(g0)
        assert pdb.support_size() == 3

    def test_sample_spdb_warns(self, g0):
        with pytest.warns(DeprecationWarning, match="sample_spdb"):
            pdb = repro.sample_spdb(g0, n=20, rng=0)
        assert pdb.n_runs == 20

    def test_run_chase_warns(self, g0):
        with pytest.warns(DeprecationWarning, match="run_chase"):
            run = repro.run_chase(g0, rng=0)
        assert run.terminated

    def test_chase_outputs_warns(self, g0):
        with pytest.warns(DeprecationWarning, match="chase_outputs"):
            outputs = list(repro.chase_outputs(g0, None, 3, rng=0))
        assert len(outputs) == 3

    def test_apply_to_pdb_warns(self, g0):
        prior = repro.compile(g0).on().exact().pdb
        follow = repro.Program.parse("S(x) :- R(x).",
                                     extensional=("R",))
        with pytest.warns(DeprecationWarning, match="apply_to_pdb"):
            repro.apply_to_pdb(follow, prior)

    def test_spdb_mass_report_warns(self, g0):
        with pytest.warns(DeprecationWarning,
                          match="spdb_mass_report"):
            reports = repro.spdb_mass_report(g0, budgets=(4,))
        assert reports[0].instance_mass == pytest.approx(1.0)

    def test_condition_exact_warns(self, g0):
        event = ContainsFactEvent(repro.Fact("R", (1,)))
        with pytest.warns(DeprecationWarning, match="condition_exact"):
            posterior = repro.condition_exact(g0, None, [event])
        assert posterior.total_mass() == pytest.approx(1.0)

    def test_condition_by_rejection_warns(self, g0):
        event = ContainsFactEvent(repro.Fact("R", (1,)))
        with pytest.warns(DeprecationWarning,
                          match="condition_by_rejection"):
            result = repro.condition_by_rejection(g0, None, [event],
                                                  n=100, rng=0)
        assert result.n_accepted > 0

    def test_likelihood_weighting_warns(self):
        program = repro.Program.parse("A(Flip<0.4>) :- true.")
        with pytest.warns(DeprecationWarning,
                          match="likelihood_weighting"):
            result = repro.likelihood_weighting(
                program, None, [observe("A", 1)], n=50, rng=0)
        assert result.posterior.n_worlds == 50

    def test_facade_emits_no_deprecation_warnings(self, earthquake):
        program, instance = earthquake
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compiled = repro.compile(program)
            session = compiled.on(instance, seed=0)
            session.sample(20)
            session.exact()
            session.observe(
                ContainsFactEvent(repro.Fact("Alarm", ("h1",)))
            ).posterior(method="exact")
            compiled.analyze()
