"""Tests for the vectorized batch-chase backend (repro.engine.batched).

Four concerns:

* **registry tripwire** - every registered distribution implements
  ``sample_batch`` consistently with ``sample`` (same support, same
  value kind, matching moments); registering a family without batch
  coverage fails here;
* **scalar bit-identity** - ``backend="scalar"`` reproduces the
  prepared-loop draws run by run, and one Generator threaded through
  ``Session.run`` replays the 1.x shared-stream sampler;
* **law agreement** - batched vs scalar on the paper's Examples 3.4
  (discrete, cascading triggers) and 3.5 (continuous, single layer):
  same output distribution, checked against closed forms and by KS;
* **mechanics** - backend resolution (auto/scalar/batched), per-world
  splitting, fallbacks outside the supported class, budget semantics.
"""

import hashlib
import math

import numpy as np
import pytest

import repro
from repro.api.config import ChaseConfig
from repro.core.chase import run_chase_prepared, make_engine
from repro.core.policies import DEFAULT_POLICY, LastPolicy
from repro.distributions.mixture import FiniteMixture
from repro.distributions.continuous import Normal
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.engine.batched import BatchedChase, BatchUnsupported
from repro.errors import ValidationError
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads.paper import (alarm_probability_closed_form,
                                   continuous_feedback_program,
                                   example_3_4_instance,
                                   example_3_4_program,
                                   example_3_5_instance,
                                   example_3_5_program)

#: One valid parameter point per registered family - the tripwire
#: below asserts this table covers the registry exactly, so a new
#: family cannot land without batch-sampler coverage.
BATCH_PARAMS = {
    "Flip": (0.35,),
    "Bernoulli": (0.6,),
    "FlipPrime": (0.8,),
    "Binomial": (6, 0.45),
    "Poisson": (2.5,),
    "Geometric": (0.4,),
    "DiscreteUniform": (-2, 5),
    "Categorical": (0.1, 0.6, 0.3),
    "Normal": (1.0, 4.0),
    "LogNormal": (0.2, 0.5),
    "Exponential": (1.7,),
    "Uniform": (-1.0, 2.0),
    "Gamma": (2.0, 1.5),
    "Beta": (2.5, 1.5),
    "Laplace": (0.5, 1.2),
}

BATCH_N = 2000


class TestSampleBatchRegistry:
    def test_parameter_table_covers_registry_exactly(self):
        assert set(BATCH_PARAMS) == set(DEFAULT_REGISTRY.names())

    @pytest.mark.parametrize("name", sorted(BATCH_PARAMS))
    def test_batch_matches_scalar_support_and_kind(self, name):
        distribution = DEFAULT_REGISTRY[name]
        params = BATCH_PARAMS[name]
        rng = np.random.default_rng(7)
        batch = distribution.sample_batch(params, BATCH_N, rng)
        assert isinstance(batch, np.ndarray)
        assert batch.shape == (BATCH_N,)
        scalar_value = distribution.sample(params,
                                           np.random.default_rng(7))
        if distribution.is_discrete:
            assert isinstance(scalar_value, int)
            assert np.issubdtype(batch.dtype, np.integer)
        else:
            assert isinstance(scalar_value, float)
            assert np.issubdtype(batch.dtype, np.floating)
        # Every drawn value lies in the support of the scalar law.
        for value in batch[:200].tolist():
            assert distribution.density(params, value) > 0.0, \
                f"{name}: {value!r} outside the support"

    @pytest.mark.parametrize("name", sorted(BATCH_PARAMS))
    def test_batch_moments_match_declared(self, name):
        distribution = DEFAULT_REGISTRY[name]
        params = BATCH_PARAMS[name]
        batch = distribution.sample_batch(
            params, BATCH_N, np.random.default_rng(11))
        expected = distribution.mean(params)
        sigma = math.sqrt(distribution.variance(params) / BATCH_N)
        assert abs(float(batch.mean()) - expected) <= \
            6.0 * sigma + 1e-9, name

    @pytest.mark.parametrize("name", sorted(BATCH_PARAMS))
    def test_batch_ks_consistent_with_scalar(self, name):
        assert repro.distributions.verify_batch_consistency(
            DEFAULT_REGISTRY[name], BATCH_PARAMS[name], n=1500,
            seed=5), name

    def test_base_class_fallback_loops_scalar_sampler(self):
        class Odd(Normal):
            name = "OddNormal"
            # No sample_batch override: inherit the base-class loop...
            sample_batch = \
                repro.distributions.base.ParameterizedDistribution \
                .sample_batch

        batch = Odd().sample_batch((0.0, 1.0), 64,
                                   np.random.default_rng(0))
        assert batch.shape == (64,)

    def test_mixture_sample_batch_matches_law(self):
        mixture = FiniteMixture("Bimodal", [
            (0.5, Normal(), (-3.0, 0.25)),
            (0.5, Normal(), (3.0, 0.25)),
        ])
        rng = np.random.default_rng(3)
        batch = mixture.sample_batch((), 4000, rng)
        scalar = [mixture.sample((), rng) for _ in range(4000)]
        statistic = ks_two_sample(batch.tolist(), scalar)
        assert statistic <= 1.3 * ks_critical_value(4000, 4000, 1e-4)


class TestScalarBitIdentity:
    """``backend="scalar"`` must not move a single seeded draw."""

    def test_shared_streams_match_legacy_sampler(self):
        # One Generator shared by 80 Session.run calls replays the 1.x
        # shared-stream sample_spdb(program, instance, n=80, rng=23),
        # pinned here by the digest of its worlds.
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance())
        visible = session.compiled.visible_relations
        rng = np.random.default_rng(23)
        runs = [session.run(rng=rng) for _ in range(80)]
        assert all(run.terminated for run in runs)
        assert hashlib.sha256("\n".join(
            run.instance.restrict(visible).canonical_text()
            for run in runs).encode()).hexdigest() == (
            "361ad425a53dce16d3d8b5a4051b40b3"
            "4e51aa1b0566746b690fbac1f791ba4e")

    def test_spawn_streams_match_prepared_loop(self):
        program = example_3_4_program()
        instance = example_3_4_instance()
        compiled = repro.compile(program)
        facade = compiled.on(instance, seed=9,
                             backend="scalar").sample(40).pdb
        translated = compiled.translated
        visible = compiled.visible_relations
        base = make_engine(translated, instance)
        expected = []
        for rng in ChaseConfig(seed=9).spawn_rngs(40):
            run = run_chase_prepared(translated, base.fork(), instance,
                                     DEFAULT_POLICY, rng)
            expected.append(run.instance.restrict(visible))
        assert facade.worlds == expected


class TestBatchedLawAgreement:
    def test_example_3_4_marginals_match_closed_form(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=5)
        result = session.sample(4000, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] > 0       # quakes happen
        assert result.diagnostics["n_batched"] > 0     # most stay flat
        for unit, rate in (("house-1", 0.03), ("biz-1", 0.01)):
            expected = alarm_probability_closed_form(rate)
            estimate = result.marginal(Fact("Alarm", (unit,)))
            sigma = math.sqrt(expected * (1 - expected) / 4000)
            assert abs(estimate - expected) <= 6 * sigma + 0.01, unit

    def test_example_3_4_batched_vs_scalar_marginals(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance())
        batched = session.sample(3000, backend="batched", seed=1)
        scalar = session.sample(3000, backend="scalar", seed=2)
        marginals = scalar.fact_marginals()
        for fact, probability in batched.fact_marginals().items():
            sigma = math.sqrt(
                max(probability * (1 - probability) / 3000, 1e-12))
            assert abs(probability - marginals.get(fact, 0.0)) <= \
                6 * sigma + 0.02, fact

    def test_example_3_5_heights_ks_agreement(self):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)

        def heights(backend, seed):
            pdb = session.sample(500, backend=backend, seed=seed).pdb
            return [float(fact.args[1]) for world in pdb.worlds
                    for fact in world.facts_of("PHeight")]

        batched = heights("batched", 3)
        scalar = heights("scalar", 4)
        assert len(batched) == len(scalar) == 500 * 6
        statistic = ks_two_sample(batched, scalar)
        assert statistic <= 1.3 * ks_critical_value(
            len(batched), len(scalar), 1e-4)

    def test_exact_matches_batched_flip(self):
        compiled = repro.compile("R(Flip<0.3>) :- true.")
        exact = compiled.on().exact()
        batched = compiled.on(seed=8).sample(5000, backend="batched")
        fact = Fact("R", (1,))
        assert abs(batched.marginal(fact) - exact.marginal(fact)) \
            <= 0.03


class TestBackendResolution:
    def test_auto_picks_batched_for_eligible_program(self):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        assert session.sample(20).backend == "batched"

    def test_auto_respects_batch_unsafe_policy(self):
        class Skittish(LastPolicy):
            batch_safe = False

        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0, policy=Skittish())
        assert session.sample(20).backend == "scalar"
        # An honest policy stays batched (Theorem 6.1 covers it).
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0, policy=LastPolicy())
        assert session.sample(20).backend == "batched"

    def test_explicit_batched_falls_back_outside_class(self):
        # Non-weakly-acyclic: the batched backend must decline and the
        # fallback must be draw-for-draw the scalar loop.
        compiled = repro.compile(continuous_feedback_program())
        instance = Instance.of(Fact("Seed", (0,)))
        batched = compiled.on(instance, seed=3, max_steps=40).sample(
            6, backend="batched")
        scalar = compiled.on(instance, seed=3, max_steps=40).sample(
            6, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.worlds == scalar.pdb.worlds
        assert batched.pdb.truncated == scalar.pdb.truncated

    def test_barany_semantics_now_batches(self):
        # The shared-Sample# fan-out is vectorized since the companion
        # batching work; eligibility no longer excludes the Bárány
        # translation (non-weak-acyclicity still declines, below).
        text = "R(Flip<0.5>) :- true.\nS(Flip<0.5>) :- true."
        compiled = repro.compile(text, semantics="barany")
        batched = compiled.on(seed=2).sample(30, backend="batched")
        assert batched.backend == "batched"

    def test_barany_non_weakly_acyclic_falls_back_identically(self):
        compiled = repro.compile(continuous_feedback_program(),
                                 semantics="barany")
        instance = Instance.of(Fact("Seed", (0,)))
        batched = compiled.on(instance, seed=3, max_steps=40).sample(
            6, backend="batched")
        scalar = compiled.on(instance, seed=3, max_steps=40).sample(
            6, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.worlds == scalar.pdb.worlds

    def test_record_trace_and_parallel_fall_back(self):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        assert session.sample(
            10, record_trace=True).backend == "scalar"
        assert session.sample(10, parallel=True).backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            ChaseConfig(backend="quantum")

    def test_tight_budget_declines_to_scalar_semantics(self):
        # The batched prefix needs det fixpoint + 2 facts per firing;
        # a tighter budget must fall back to exact scalar truncation.
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0, max_steps=3)
        batched = session.sample(10, backend="batched")
        scalar = session.sample(10, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.truncated == scalar.pdb.truncated


class TestBatchedMechanics:
    def test_single_layer_program_never_splits(self):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        result = session.sample(200, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_layer_firings"] == 6
        assert result.n_truncated == 0

    def test_no_random_rules_yields_shared_fixpoint(self):
        compiled = repro.compile("""
            Path(x, y) :- Edge(x, y).
            Path(x, z) :- Path(x, y), Edge(y, z).
        """)
        instance = Instance.of(Fact("Edge", (1, 2)),
                               Fact("Edge", (2, 3)))
        result = compiled.on(instance, seed=0).sample(
            25, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_layer_firings"] == 0
        world = result.pdb.worlds[0]
        assert Fact("Path", (1, 3)) in world.facts
        assert all(w == world for w in result.pdb.worlds)

    def test_keep_aux_exposes_auxiliary_facts(self):
        session = repro.compile("R(Flip<0.5>) :- true.").on(seed=0)
        bare = session.sample(10, backend="batched")
        kept = session.sample(10, backend="batched", keep_aux=True)
        assert all(not any("#" in f.relation for f in w.facts)
                   for w in bare.pdb.worlds)
        assert all(any("#" in f.relation for f in w.facts)
                   for w in kept.pdb.worlds)

    def test_cascading_worlds_stay_grouped_not_split(self):
        # Every Flip=1 triggers a cascade; the multi-round loop keeps
        # the trigger-hit worlds grouped by signature (Hit=1) and runs
        # the Boom stage vectorized instead of splitting ~90% of the
        # batch to the scalar engine like the single-round backend did.
        compiled = repro.compile("""
            Hit(Flip<0.9>) :- true.
            Boom(x) :- Hit(1), Seed(x).
        """)
        instance = Instance.of(Fact("Seed", ("s",)))
        result = compiled.on(instance, seed=0).sample(
            300, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_groups"] == 2  # Hit=0 and Hit=1
        hit = Fact("Hit", (1,))
        boom = Fact("Boom", ("s",))
        hits = 0
        for world in result.pdb.worlds:
            assert (hit in world.facts) == (boom in world.facts)
            hits += hit in world.facts
        assert hits > 200  # ~90% of 300

    def test_batched_chase_accepts_barany_translation(self):
        program = repro.Program.parse("R(Flip<0.5>) :- true.")
        chase = BatchedChase(program.translate_barany(),
                             Instance.empty())
        assert len(chase.layer) == 1
        (firing,) = chase.layer
        assert firing.aux_relation.startswith("Sample#")
        assert firing.heads == (("R", (None,), 0),)

    def test_deterministic_given_seed(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance())
        a = session.sample(100, backend="batched", seed=13).pdb
        b = session.sample(100, backend="batched", seed=13).pdb
        assert a.worlds == b.worlds

    def test_batched_sampler_is_cached_on_the_session(self):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        session.sample(5, backend="batched")
        first = session._engines["batched"]
        session.sample(5, backend="batched")
        assert session._engines["batched"] is first
        assert isinstance(first, BatchedChase)


class TestLazyWorldRngs:
    """Only worlds that leave the batch build their own generator."""

    @pytest.fixture
    def built(self, monkeypatch) -> list:
        """Every per-world generator built from a root entropy."""
        from repro.api import config as config_module
        built: list = []
        world_rng = config_module.world_rng

        def spy(entropy, world):
            built.append(world)
            return world_rng(entropy, world)

        monkeypatch.setattr(config_module, "world_rng", spy)
        return built

    def test_example_3_4_builds_one_generator_per_split_world(
            self, handed_world_rngs, built):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=0)
        result = session.sample(5000, backend="batched")
        n_split = result.diagnostics["n_split"]
        assert 0 < n_split < 50
        assert [len(rngs) for rngs in handed_world_rngs] == [5000]
        assert len(built) == len(set(built)) == n_split

    def test_zero_split_example_3_5_builds_none(self, handed_world_rngs,
                                                built):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        result = session.sample(5000, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert [len(rngs) for rngs in handed_world_rngs] == [5000]
        assert built == []


CASCADE_CHAIN = """
    A(Flip<0.5>) :- true.
    B(Flip<0.5>) :- A(1).
    C(Flip<0.5>) :- B(1).
    D(1) :- C(1).
"""

CONTINUOUS_CASCADE = """
    Level(Normal<0, 1>) :- true.
    Next(Normal<x, 1>) :- Level(x).
"""

HIT_BOOM = """
    Hit(Flip<0.9>) :- true.
    Boom(x) :- Hit(1), Seed(x).
"""


class TestMultiRoundCascade:
    """The cascading batch loop: signature groups across rounds."""

    def test_example_3_4_runs_two_vectorized_rounds(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=7)
        result = session.sample(2000, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_rounds"] == 2
        # Trigger-hit worlds (~20%) regroup instead of going scalar;
        # only rare multi-trigger signatures can end up as singletons.
        assert result.diagnostics["n_split"] < 50
        assert result.diagnostics["n_batched"] > 1950

    def test_three_stage_chain_matches_exact_law(self):
        compiled = repro.compile(CASCADE_CHAIN)
        exact = compiled.on().exact()
        result = compiled.on(seed=11).sample(2000, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_rounds"] == 3
        assert result.diagnostics["n_split"] == 0
        # Terminal groups: A=0 | A=1,B=0 | B=1,C=0 | C=1 (cascaded).
        assert result.diagnostics["n_groups"] == 4
        for fact in (Fact("A", (1,)), Fact("B", (1,)),
                     Fact("C", (1,)), Fact("D", (1,))):
            expected = exact.marginal(fact)
            sigma = math.sqrt(expected * (1 - expected) / 2000)
            assert abs(result.marginal(fact) - expected) <= \
                6 * sigma + 0.01, fact

    def test_unhit_trigger_leaves_one_terminal_group(self):
        # The pinned trigger exists statically but no draw hits it at
        # this seed/size: the partition simply never creates the
        # trigger group, and every world stays in the all-None one.
        compiled = repro.compile("""
            Hit(Flip<0.001>) :- true.
            Boom(x) :- Hit(1), Seed(x).
        """)
        instance = Instance.of(Fact("Seed", ("s",)))
        result = compiled.on(instance, seed=1).sample(
            40, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_groups"] == 1
        assert all(Fact("Boom", ("s",)) not in world.facts
                   for world in result.pdb.worlds)

    def test_all_worlds_split_on_continuous_trigger(self):
        # A continuous always-trigger gives every world a unique
        # signature: all-singleton groups, which fall back to the
        # scalar engine under the default batch_min_group=2.
        session = repro.compile(CONTINUOUS_CASCADE).on(seed=2)
        result = session.sample(30, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] == 30
        assert result.diagnostics["n_batched"] == 0
        for world in result.pdb.worlds:
            assert len(world.facts_of("Next")) == 1

    def test_min_group_one_vectorizes_singleton_groups(self):
        session = repro.compile(CONTINUOUS_CASCADE).on(
            seed=2, batch_min_group=1)
        result = session.sample(12, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_rounds"] == 2
        assert result.diagnostics["n_groups"] == 12
        for world in result.pdb.worlds:
            assert len(world.facts_of("Next")) == 1

    def test_semi_join_prunes_unsatisfiable_trigger(self):
        # Hit(1) pins a trigger atom, but the rest of the Boom body
        # joins Blocker - a stable relation with no facts - so the
        # semi-join proves no firing can ever be enabled and the whole
        # batch stays in one group (no round 2, no splits).
        compiled = repro.compile("""
            Hit(Flip<0.5>) :- true.
            Boom(x) :- Hit(1), Blocker(x).
        """)
        result = compiled.on(seed=0).sample(100, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_groups"] == 1
        estimate = result.marginal(Fact("Hit", (1,)))
        assert abs(estimate - 0.5) <= 0.15

    def test_semi_join_refines_always_trigger_into_pins(self):
        # Pick's sampled value joins the stable Allowed relation; the
        # semi-join turns "any value triggers" into the finite pin set
        # {2}, so only Pick=2 worlds cascade (vectorized, as a group).
        compiled = repro.compile("""
            Pick(DiscreteUniform<0, 3>) :- true.
            Match(v) :- Pick(v), Allowed(v).
        """)
        instance = Instance.of(Fact("Allowed", (2,)))
        result = compiled.on(instance, seed=3).sample(
            400, backend="batched")
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_groups"] == 2
        match = Fact("Match", (2,))
        pick = Fact("Pick", (2,))
        for world in result.pdb.worlds:
            assert (pick in world.facts) == (match in world.facts)
        assert abs(result.marginal(pick) - 0.25) <= 0.1

    def test_budget_exhaustion_mid_round_truncates_like_scalar(self):
        # max_steps=2 lets round 1 fire (aux + head per world) but not
        # the Boom cascade: trigger-hit worlds must fall back and
        # truncate, exactly as the scalar loop would on those draws
        # (the backends use different streams, so the comparison is
        # structural: every Hit=1 world truncates, every Hit=0 world
        # is a genuine two-step output).
        compiled = repro.compile(HIT_BOOM)
        instance = Instance.of(Fact("Seed", ("s",)))
        batched = compiled.on(instance, seed=5, max_steps=2).sample(
            60, backend="batched")
        assert batched.backend == "batched"
        assert batched.diagnostics["n_split"] > 0
        assert batched.pdb.truncated > 0
        assert batched.pdb.truncated + len(batched.pdb.worlds) == 60
        for world in batched.pdb.worlds:
            assert Fact("Hit", (0,)) in world.facts
            assert Fact("Boom", ("s",)) not in world.facts

    def test_budget_exhaustion_exact_count_on_sure_trigger(self):
        # With a certain trigger every world cascades, so truncation
        # under max_steps=2 is deterministic and must agree with the
        # scalar backend exactly: all 40 runs truncate either way.
        program = HIT_BOOM.replace("0.9", "1.0")
        compiled = repro.compile(program)
        instance = Instance.of(Fact("Seed", ("s",)))
        batched = compiled.on(instance, seed=5, max_steps=2).sample(
            40, backend="batched")
        scalar = compiled.on(instance, seed=5, max_steps=2).sample(
            40, backend="scalar")
        assert batched.backend == "batched"
        assert batched.pdb.truncated == scalar.pdb.truncated == 40
        assert batched.err_mass() == scalar.err_mass() == 1.0

    def test_exact_budget_bound_keeps_tight_cascade_vectorized(self):
        # max_steps=3 is exactly enough for the full cascade (aux,
        # head, Boom).  The per-round bound counts only facts a world
        # can actually still add (shared facts + unbound columns, with
        # bound trigger facts not double-counted), so the trigger
        # group stays vectorized and every run terminates - same as
        # the scalar backend at the same budget.
        compiled = repro.compile(HIT_BOOM)
        instance = Instance.of(Fact("Seed", ("s",)))
        batched = compiled.on(instance, seed=5, max_steps=3).sample(
            60, backend="batched")
        scalar = compiled.on(instance, seed=5, max_steps=3).sample(
            60, backend="scalar")
        assert batched.diagnostics["n_split"] == 0
        assert batched.pdb.truncated == 0
        assert scalar.pdb.truncated == 0
        hit, boom = Fact("Hit", (1,)), Fact("Boom", ("s",))
        for world in batched.pdb.worlds:
            assert (hit in world.facts) == (boom in world.facts)

    def test_numpy_integer_batch_min_group_accepted(self):
        import numpy as np
        config = ChaseConfig(batch_min_group=np.int64(2))
        assert config.batch_min_group == 2
        with pytest.raises(ValidationError):
            ChaseConfig(batch_min_group=True)

    def test_scalar_fallback_draw_order_bit_identity(self):
        # Split worlds must continue with the world's own spawned
        # stream from exactly the batched prefix state: replaying the
        # layer draws and the per-world continuation by hand must
        # reproduce the ensemble draw-for-draw.
        n = 8
        compiled = repro.compile(CONTINUOUS_CASCADE)
        session = compiled.on(seed=13)
        result = session.sample(n, backend="batched")
        assert result.diagnostics["n_split"] == n

        translated = compiled.translated
        visible = compiled.visible_relations
        chase = BatchedChase(translated, Instance.empty())
        batch_rng = ChaseConfig(seed=13).base_rng()
        draws = chase._draw_layer(chase.layer, n, batch_rng)
        rngs = ChaseConfig(seed=13).spawn_rngs(n)
        expected = []
        for index in range(n):
            state = chase._engine.fork()
            facts = []
            for firing, column in zip(chase.layer, draws):
                sampled = column[index].item()
                facts.append(Fact(firing.aux_relation,
                                  firing.prefix + (sampled,)))
                facts.extend(firing.head_facts(sampled))
            for fact in facts:
                state.add_fact(fact)
            current = chase.closed.add_all(facts)
            steps = len(current) - len(chase.instance)
            run = run_chase_prepared(translated, state, current,
                                     DEFAULT_POLICY, rngs[index],
                                     10_000 - steps)
            assert run.terminated
            expected.append(run.instance.restrict(visible))
        assert result.pdb.worlds == expected

    def test_batch_min_group_validation(self):
        with pytest.raises(ValidationError):
            ChaseConfig(batch_min_group=0)
        with pytest.raises(ValidationError):
            ChaseConfig(batch_min_group=1.5)


H_BARANY = "R(Flip<0.5>) :- true.\nS(Flip<0.5>) :- true."

FANOUT_BARANY = "Out(x, Flip<0.5>) :- Item(x)."

GROWABLE_REST_BARANY = """
    A(Flip<0.5>) :- true.
    Out(x, Flip<0.5>) :- A(x).
"""

STAGED_SLOTS = """
    Stage(DiscreteUniform<0, 3>) :- true.
    Next(k, Flip<0.5>) :- Stage(s), Slot(s, k).
"""


def _staged_instance(n_stages=4, slots=3):
    return Instance(Fact("Slot", (s, f"slot-{s}-{k}"))
                    for s in range(n_stages) for k in range(slots))


class TestBaranyCompanionBatching:
    """Shared-``Sample#`` fan-out vectorized (the §6.2 translation)."""

    def test_shared_draw_fans_out_to_both_companions(self):
        # H under [3]'s semantics: R and S share one Flip draw; the
        # batch must emit both heads from a single column.
        compiled = repro.compile(H_BARANY, semantics="barany")
        result = compiled.on(seed=0).sample(400, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_layer_firings"] == 1
        for world in result.pdb.worlds:
            (r,) = world.facts_of("R")
            (s,) = world.facts_of("S")
            assert r.args == s.args  # perfectly correlated

    def test_h_program_matches_exact_barany_law(self):
        from repro.testing.oracles import (marginals_agree,
                                           worlds_agree_chi_squared)
        compiled = repro.compile(H_BARANY, semantics="barany")
        exact = compiled.on().exact().pdb
        result = compiled.on(seed=4).sample(3000, backend="batched")
        assert result.backend == "batched"
        assert marginals_agree(exact, result.pdb) is None
        assert worlds_agree_chi_squared(exact, result.pdb) is None

    def test_data_bound_fanout_shares_one_value(self):
        # One (Flip, 0.5) key, three Item matches: a single draw must
        # scatter into Out(a,v), Out(b,v), Out(c,v) with equal v.
        compiled = repro.compile(FANOUT_BARANY, semantics="barany")
        instance = Instance.of(Fact("Item", ("a",)),
                               Fact("Item", ("b",)),
                               Fact("Item", ("c",)))
        result = compiled.on(instance, seed=1).sample(
            300, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_layer_firings"] == 1
        for world in result.pdb.worlds:
            values = {fact.args[1] for fact in world.facts_of("Out")}
            assert len(values) == 1
            assert len(world.facts_of("Out")) == 3

    def test_continuous_barany_ks_matches_scalar(self):
        # Example 3.5 under the Bárány translation: heights are keyed
        # by (mu, sigma2), so each country's persons share one draw.
        compiled = repro.compile(example_3_5_program(),
                                 semantics="barany")
        instance = example_3_5_instance()

        def heights(backend, seed):
            pdb = compiled.on(instance, seed=seed).sample(
                400, backend=backend).pdb
            return [float(fact.args[1]) for world in pdb.worlds
                    for fact in world.facts_of("PHeight")]

        batched = heights("batched", 3)
        scalar = heights("scalar", 4)
        assert len(batched) == len(scalar) == 400 * 6
        statistic = ks_two_sample(batched, scalar)
        assert statistic <= 1.3 * ks_critical_value(
            len(batched), len(scalar), 1e-4)
        result = compiled.on(instance, seed=0).sample(
            50, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_layer_firings"] == 2
        assert result.diagnostics["n_split"] == 0
        for world in result.pdb.worlds:
            by_country: dict = {}
            for fact in world.facts_of("PHeight"):
                country = fact.args[0].split("-")[0]
                by_country.setdefault(country, set()).add(fact.args[1])
            assert all(len(values) == 1
                       for values in by_country.values())

    def test_growable_companion_rest_matches_exact_law(self):
        # Out's companion rest joins A - a growable relation - so
        # world-varying draws cannot stay columnar; every draw binds
        # into the signature and the incremental engine derives the
        # late companion heads.  The law must still match exact
        # enumeration (both semantics share one Sample#Flip key here,
        # so A(v) and Out(v, v) are fully correlated).
        compiled = repro.compile(GROWABLE_REST_BARANY,
                                 semantics="barany")
        from repro.testing.oracles import (marginals_agree,
                                           worlds_agree_chi_squared)
        exact = compiled.on().exact().pdb
        result = compiled.on(seed=6).sample(2000, backend="batched")
        assert result.backend == "batched"
        assert marginals_agree(exact, result.pdb) is None
        assert worlds_agree_chi_squared(exact, result.pdb) is None
        for world in result.pdb.worlds:
            (a,) = world.facts_of("A")
            (out,) = world.facts_of("Out")
            assert out.args == (a.args[0], a.args[0])

    def test_barany_cascade_trigger_groups(self):
        # A pinned trigger downstream of a shared draw: Out(x, 1)
        # worlds cascade to Boom per item, grouped (not split).
        compiled = repro.compile("""
            Out(x, Flip<0.9>) :- Item(x).
            Boom(x) :- Out(x, 1).
        """, semantics="barany")
        instance = Instance.of(Fact("Item", ("a",)),
                               Fact("Item", ("b",)))
        result = compiled.on(instance, seed=2).sample(
            300, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] == 0
        assert result.diagnostics["n_groups"] == 2
        for world in result.pdb.worlds:
            hit = Fact("Out", ("a", 1)) in world.facts
            assert (Fact("Boom", ("a",)) in world.facts) == hit
            assert (Fact("Boom", ("b",)) in world.facts) == hit

    def test_barany_columnar_marginals_match_materialized(self):
        compiled = repro.compile(FANOUT_BARANY, semantics="barany")
        instance = Instance.of(Fact("Item", ("a",)),
                               Fact("Item", ("b",)))
        result = compiled.on(instance, seed=9).sample(
            500, backend="batched")
        assert result.backend == "batched"
        columnar = result.fact_marginals()
        counts: dict = {}
        for world in result.pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        assert columnar == {fact: count / 500
                            for fact, count in counts.items()}
        probe = Fact("Out", ("a", 1))
        assert result.marginal(probe) == columnar[probe]


class TestPooledDraws:
    """Cross-round draw pooling: one sample_batch per key per round."""

    def _run_batch(self, chase, n, seed, pool):
        cfg = ChaseConfig(seed=seed)
        return chase.run_batch(n, cfg.base_rng(), cfg.spawn_rngs(n),
                               DEFAULT_POLICY, 10_000, 2, pool=pool)

    def test_same_key_groups_share_one_call(self):
        session = repro.compile(STAGED_SLOTS).on(
            _staged_instance(), seed=0)
        result = session.sample(400, backend="batched")
        assert result.backend == "batched"
        diag = result.diagnostics
        assert diag["n_rounds"] == 2
        assert diag["n_split"] == 0
        # Round 1: one DiscreteUniform call.  Round 2: the four stage
        # groups' Flip<0.5> firings (3 each) pool into a single call.
        assert diag["n_draw_calls"] == 2
        assert diag["n_pooled_draws"] > 0

    def test_pool_off_issues_per_group_calls(self):
        compiled = repro.compile(STAGED_SLOTS)
        chase = BatchedChase(compiled.translated, _staged_instance())
        pooled = self._run_batch(chase, 400, 7, pool=True)
        unpooled = self._run_batch(chase, 400, 7, pool=False)
        # 1 round-1 call either way; round 2 is 1 pooled call vs one
        # per surviving stage group.
        assert pooled.diagnostics["n_draw_calls"] == 2
        assert unpooled.diagnostics["n_draw_calls"] > 2
        assert pooled.diagnostics["n_pooled_draws"] \
            > unpooled.diagnostics["n_pooled_draws"]

    def test_pooled_law_matches_exact(self):
        from repro.testing.oracles import (marginals_agree,
                                           worlds_agree_chi_squared)
        session = repro.compile(STAGED_SLOTS).on(
            _staged_instance(), seed=5)
        exact = session.exact().pdb
        result = session.sample(2000, backend="batched")
        assert result.diagnostics["n_pooled_draws"] > 0
        assert marginals_agree(exact, result.pdb) is None
        assert worlds_agree_chi_squared(exact, result.pdb) is None

    def test_single_group_rounds_identical_pooled_or_not(self):
        # Mandated draw identity: with no cross-group pooling possible
        # (every wave has one task), the two schedules are the same
        # schedule - outcomes must match bit-for-bit, scalar fallback
        # runs included (split worlds draw from their own streams).
        compiled = repro.compile(CONTINUOUS_CASCADE)
        chase = BatchedChase(compiled.translated, Instance.empty())
        first = self._run_batch(chase, 10, 13, pool=True)
        second = self._run_batch(chase, 10, 13, pool=False)
        # Single-group waves throughout - the structural condition
        # under which the two schedules provably coincide.
        assert first.diagnostics["n_group_rounds"] == \
            first.diagnostics["n_rounds"]
        assert first.diagnostics["n_draw_calls"] == \
            second.diagnostics["n_draw_calls"]
        runs_a = {world: run.instance for world, run in
                  first.scalar_runs}
        runs_b = {world: run.instance for world, run in
                  second.scalar_runs}
        assert runs_a == runs_b and len(runs_a) == 10


class TestExactBudgetBoundary:
    """Fallback runs ending precisely at the remaining step budget."""

    def test_fallback_terminating_exactly_at_budget(self):
        # The cascade needs exactly 4 steps per world (Level aux +
        # head, Next aux + head).  Every world splits in round 1; the
        # fallback's remaining budget is exactly 2 - just enough - so
        # every run must terminate, same as the scalar backend.
        session = repro.compile(CONTINUOUS_CASCADE).on(
            seed=3, max_steps=4)
        batched = session.sample(12, backend="batched")
        scalar = session.sample(12, backend="scalar")
        assert batched.backend == "batched"
        assert batched.diagnostics["n_split"] == 12
        assert batched.pdb.truncated == 0 == scalar.pdb.truncated
        assert len(batched.pdb.worlds) == 12

    def test_fallback_one_step_short_truncates_like_scalar(self):
        session = repro.compile(CONTINUOUS_CASCADE).on(
            seed=3, max_steps=3)
        batched = session.sample(12, backend="batched")
        scalar = session.sample(12, backend="scalar")
        assert batched.backend == "batched"
        assert batched.pdb.truncated == 12 == scalar.pdb.truncated

    def test_fallback_steps_accounting_is_exact(self):
        # The reconstructed prefix counts facts-added; a fallback run
        # finishing at the budget must report steps == max_steps and
        # terminated == True (the off-by-one this guards: treating
        # "budget exhausted" and "finished on the last step" alike).
        compiled = repro.compile(CONTINUOUS_CASCADE)
        chase = BatchedChase(compiled.translated, Instance.empty())
        cfg = ChaseConfig(seed=13)
        outcome = chase.run_batch(4, cfg.base_rng(), cfg.spawn_rngs(4),
                                  DEFAULT_POLICY, 4, 2)
        assert outcome is not None
        assert len(outcome.scalar_runs) == 4
        for _world, run in outcome.scalar_runs:
            assert run.terminated
            assert run.steps == 4


class TestColumnarReads:
    """Marginal/aggregate queries straight off the sample columns."""

    def test_marginal_reads_do_not_materialize(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=9)
        result = session.sample(500, backend="batched")
        result.marginal(Fact("Alarm", ("house-1",)))
        result.fact_marginals()
        assert result.pdb.materialized is False
        result.pdb.worlds  # noqa: B018 - forcing materialization
        assert result.pdb.materialized is True

    def test_fact_marginals_match_materialized_counts(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=21)
        result = session.sample(600, backend="batched")
        columnar = result.fact_marginals()
        counts: dict = {}
        for world in result.pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        materialized = {fact: count / 600
                        for fact, count in counts.items()}
        assert columnar == materialized

    def test_single_fact_marginal_matches_materialized(self):
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=2)
        result = session.sample(400, backend="batched")
        probes = [Fact("Alarm", ("house-1",)),
                  Fact("Earthquake", ("Napa", 1)),
                  Fact("Trig", ("house-1", 1)),
                  Fact("Trig", ("house-1", 0)),
                  Fact("City", ("Napa", 0.03)),
                  Fact("Nowhere", (0,))]
        columnar = [result.marginal(fact) for fact in probes]
        worlds = result.pdb.worlds
        for fact, estimate in zip(probes, columnar):
            manual = sum(1 for world in worlds if fact in world) \
                / len(worlds)
            assert estimate == manual, fact

    def test_collision_of_two_rules_into_one_head(self):
        # Both rules emit Trig(u, v): per-world dedup must keep the
        # columnar counts identical to counting materialized sets.
        compiled = repro.compile("""
            Trig(x, Flip<0.6>) :- Unit(x).
            Trig(x, Flip<0.9>) :- Unit(x).
        """)
        instance = Instance.of(Fact("Unit", ("u",)))
        result = compiled.on(instance, seed=4).sample(
            500, backend="batched")
        columnar = result.fact_marginals()
        counts: dict = {}
        for world in result.pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        assert columnar == {fact: count / 500
                            for fact, count in counts.items()}
        probe = Fact("Trig", ("u", 1))
        assert result.marginal(probe) == columnar[probe]

    def test_keep_aux_columnar_marginals(self):
        session = repro.compile("R(Flip<0.5>) :- true.").on(
            seed=0, keep_aux=True)
        result = session.sample(200, backend="batched")
        columnar = result.fact_marginals()
        aux_facts = [fact for fact in columnar
                     if "#" in fact.relation]
        assert aux_facts, "keep_aux marginals must include auxiliaries"
        counts: dict = {}
        for world in result.pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        assert columnar == {fact: count / 200
                            for fact, count in counts.items()}

    def test_truncated_runs_excluded_from_columnar_reads(self):
        compiled = repro.compile(HIT_BOOM)
        instance = Instance.of(Fact("Seed", ("s",)))
        result = compiled.on(instance, seed=5, max_steps=2).sample(
            60, backend="batched")
        assert result.pdb.truncated > 0
        assert result.pdb.total_mass() == \
            (60 - result.pdb.truncated) / 60
        # Truncated (Hit=1) worlds carry no mass: marginal of Hit(1)
        # counts only the terminated ensemble.
        assert result.marginal(Fact("Hit", (1,))) == 0.0
