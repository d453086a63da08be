"""Tests for the compile-once / infer-many facade (repro.api).

Covers:

* :class:`ChaseConfig` validation and immutability;
* compile-once caching - a translation-count regression test proving
  that ``Session.sample(n)`` performs exactly one translation;
* the facade verbs, checked against the enumeration kernels they
  wrap;
* a facade that emits no :class:`DeprecationWarning`.
"""

import dataclasses
import hashlib
import importlib
import math
import warnings

import numpy as np
import pytest

import repro

# ``repro.core.translate`` the *module* (the package __init__ rebinds
# the attribute of the same name to the translate() function).
translate_module = importlib.import_module("repro.core.translate")
from repro.api import (DEFAULT_CONFIG, ChaseConfig, CompiledProgram,
                       InferenceResult, Session)
from repro.core.exact import exact_sequential_spdb
from repro.core.observe import observe
from repro.errors import MeasureError, ValidationError
from repro.pdb.database import mixture_pdb
from repro.pdb.events import ContainsFactEvent
from repro.query import scan


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
        assert config.backend == "batched"
        assert not config.parallel
        assert config.policy is None
        assert config == DEFAULT_CONFIG

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ChaseConfig().backend = "scalar"

    @pytest.mark.parametrize("overrides", [
        {"batch_min_group": 2},
        {"backend": "vectorized"},
        {"max_steps": 0},
        {"max_steps": -5},
        {"max_steps": 1.5},
        {"max_depth": 0},
        {"tolerance": -1e-9},
        {"policy": "first"},
        {"seed": "seven"},
        # Mistyped values as outside input (served JSON) sends them.
        {"parallel": "no"},
        {"keep_aux": "yes"},
        {"backend": "auto"},
        {"max_steps": True},
        {"max_depth": True},
        {"tolerance": True},
        {"tolerance": math.inf},
        {"tolerance": math.nan},
        {"seed": True},
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValidationError):
            ChaseConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"max_steps": np.int64(5)},
        {"max_depth": np.int32(7)},
        {"seed": np.int64(4)},
        {"parallel": np.True_},
        {"keep_aux": np.False_},
        {"tolerance": 0},
    ])
    def test_numpy_scalars_accepted(self, overrides):
        config = ChaseConfig(**overrides)
        (name, value), = overrides.items()
        assert getattr(config, name) == value

    def test_replace_produces_new_validated_config(self):
        config = ChaseConfig()
        other = config.replace(max_steps=5, backend="scalar")
        assert other is not config
        assert other.max_steps == 5 and other.backend == "scalar"
        assert config.max_steps != 5  # original untouched
        with pytest.raises(ValidationError):
            config.replace(max_steps=-1)

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown ChaseConfig"):
            ChaseConfig().replace(max_stepz=10)

    @pytest.mark.parametrize("entry", ["on", "configure", "replace",
                                       "run"])
    def test_engine_is_an_unknown_field(self, entry):
        # The scalar loop has one applicability engine; ``engine`` is
        # rejected like any other unknown field.
        compiled = repro.compile("R(Flip<0.5>) :- true.")
        with pytest.raises(ValidationError,
                           match="unknown ChaseConfig field.*engine"):
            if entry == "on":
                compiled.on(engine="incremental")
            elif entry == "configure":
                compiled.on().configure(engine="incremental")
            elif entry == "replace":
                ChaseConfig().replace(engine="incremental")
            else:
                compiled.on().run(rng=0, engine="incremental")

    @pytest.mark.parametrize("entry", ["on", "configure", "replace",
                                       "run"])
    @pytest.mark.parametrize("retired,match", [
        ({"record_trace": True}, "unknown ChaseConfig field.*record_trace"),
        ({"backend": "auto"}, "unknown sampling backend 'auto'"),
    ], ids=["record_trace", "auto_backend"])
    def test_retired_settings_are_rejected(self, entry, retired, match):
        # Session.run always records its trace, and "batched" is the
        # default backend; neither setting has anything left to pick.
        compiled = repro.compile("R(Flip<0.5>) :- true.")
        with pytest.raises(ValidationError, match=match):
            if entry == "on":
                compiled.on(**retired)
            elif entry == "configure":
                compiled.on().configure(**retired)
            elif entry == "replace":
                ChaseConfig().replace(**retired)
            else:
                compiled.on().run(rng=0, **retired)

    def test_replace_noop_returns_self(self):
        config = ChaseConfig()
        assert config.replace() is config

    def test_spawn_rngs_are_independent_and_reproducible(self):
        config = ChaseConfig(seed=13)
        a = [rng.random() for rng in config.spawn_rngs(4)]
        b = [rng.random() for rng in config.spawn_rngs(4)]
        assert a == b                      # reproducible
        assert len(set(a)) == 4            # independent streams

    def test_generator_seed_passthrough(self):
        rng = np.random.default_rng(0)
        config = ChaseConfig(seed=rng)
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
        with pytest.raises(TypeError):
            rngs[1:3]
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
        # The 1.x flat functions compiled per call; doing that by hand
        # still pays one translation per call, because the cache lives
        # on the CompiledProgram, not in a global table.
        calls = self._counting(monkeypatch)
        repro.compile(g0).on(seed=0).sample(5)
        repro.compile(g0).on(seed=0).sample(5)
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
        # One Generator threaded through n Session.run calls replays
        # the 1.x shared-stream sample_spdb(program, instance, n=200,
        # rng=7), pinned here by the digest of its worlds.
        program, instance = earthquake
        session = repro.compile(program).on(instance)
        visible = session.compiled.visible_relations
        rng = np.random.default_rng(7)
        worlds = [session.run(rng=rng).instance.restrict(visible)
                  for _ in range(200)]
        assert hashlib.sha256("\n".join(
            world.canonical_text() for world in worlds).encode(),
        ).hexdigest() == ("6c4f0f5e6f06899ada520d15d0238dda"
                          "8b9a8c3ff83b69c661a98d1811e6f09d")

    def test_spawn_streams_deterministic(self, earthquake):
        program, instance = earthquake
        compiled = repro.compile(program)
        a = compiled.on(instance, seed=3).sample(100).pdb
        b = compiled.on(instance, seed=3).sample(100).pdb
        assert [w.canonical_text() for w in a.worlds] == \
            [w.canonical_text() for w in b.worlds]

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
        result = repro.compile(g0).on(seed=0, backend="scalar",
                                      parallel=True).sample(100)
        assert result.backend == "scalar"
        assert result.err_mass() == 0.0
        assert result.n_runs == 100

    def test_outputs_stream(self, g0):
        outputs = list(repro.compile(g0).on(seed=0).outputs(5))
        assert len(outputs) == 5
        assert all(out is not None for out in outputs)


#: Every Session verb that takes a run count ``n``, on a one-coin
#: session (the posterior observes the coin).
N_VERBS = {
    "sample": lambda session, n: session.sample(n),
    "outputs": lambda session, n: session.outputs(n),
    "posterior": lambda session, n: session.observe(
        observe("R", 1)).posterior(method="likelihood", n=n),
    "stream": lambda session, n: session.stream(n),
    "marginal": lambda session, n: session.marginal(
        repro.Fact("R", (1,)), n=n),
    "query": lambda session, n: session.query(scan("R", "v"), n=n),
}


class TestRunCountValidation:
    @pytest.mark.parametrize("bad", [True, 2.5, "5", 0, -3], ids=repr)
    @pytest.mark.parametrize("verb", sorted(N_VERBS))
    def test_every_verb_rejects_a_bad_n(self, verb, bad):
        session = repro.compile("R(Flip<0.5>) :- true.").on(seed=0)
        with pytest.raises(ValidationError, match="n must be an int"):
            N_VERBS[verb](session, bad)

    @pytest.mark.parametrize("verb", sorted(N_VERBS))
    def test_every_verb_accepts_a_numpy_integer(self, verb):
        session = repro.compile("R(Flip<0.5>) :- true.").on(seed=0)
        N_VERBS[verb](session, np.int64(40))
        result = session.sample(np.int64(40))
        assert result.n_runs == 40 and type(result.n_runs) is int


class TestSessionExact:
    def test_matches_legacy_exact_spdb(self, earthquake):
        # The enumeration kernel the 1.x exact_spdb called directly.
        program, instance = earthquake
        legacy = exact_sequential_spdb(program.translate(), instance)
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
        # 1.x condition_exact: restrict-and-normalize the enumeration.
        legacy = exact_sequential_spdb(
            program.translate(), instance).condition(alarm)
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
        run = repro.compile(g0).on(seed=0).run()
        assert run.trace is not None and len(run.trace) == run.steps

    def test_mass_report(self, g0):
        reports = repro.compile(g0).on().mass_report(budgets=(1, 8))
        assert [r.budget for r in reports] == [1, 8]
        assert reports[1].instance_mass == pytest.approx(1.0)

    def test_apply_to_pdb_matches_legacy(self, g0):
        input_pdb = repro.compile(g0).on().exact().pdb
        follow = repro.Program.parse("S(x) :- R(x).",
                                     extensional=("R",))
        # 1.x apply_to_pdb: the mixture of per-input-world SPDBs.
        legacy = mixture_pdb([
            (weight, exact_sequential_spdb(follow.translate(), world))
            for world, weight in input_pdb.worlds()])
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
# Deprecation warnings
# ---------------------------------------------------------------------------

class TestDeprecationShims:
    """2.0 removed the warning shims; the facade warns about nothing."""

    def test_removed_names_are_gone(self):
        for name in ("exact_spdb", "sample_spdb", "apply_to_pdb",
                     "spdb_mass_report", "run_chase", "chase_outputs",
                     "likelihood_weighting", "condition_exact",
                     "condition_by_rejection"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.core, name)
        assert not hasattr(repro.api, "compiled_for")

    def test_session_is_the_one_conditioning_facade(self):
        for name in ("ConstrainedProgram", "RejectionResult"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.core, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.constraints")
        session_module = importlib.import_module("repro.api.session")
        assert not hasattr(session_module, "as_predicate")
        events = importlib.import_module("repro.pdb.events")
        both = events.conjunction([lambda world: True,
                                   events.ContainsFactEvent(
                                       repro.Fact("A", (1,)))])
        assert both(repro.Instance.of(repro.Fact("A", (1,))))
        assert not both(repro.Instance.empty())
        with pytest.raises(TypeError, match="not an event"):
            events.as_predicate("A(1)")

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
