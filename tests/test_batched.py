"""Tests for the vectorized batch-chase backend (repro.engine.batched).

Four concerns:

* **registry tripwire** - ``sample_batch`` is the only sampler a family
  implements: every registered distribution, both mixture kinds and
  the Bárány tag wrapper draw ``sample`` as a one-draw batch, draw for
  draw, and their batches have the declared support, value kind and
  moments; registering a family without batch coverage fails here;
* **scalar bit-identity** - ``backend="scalar"`` reproduces the
  prepared-loop draws run by run, and one Generator threaded through
  ``Session.run`` replays the 1.x shared-stream sampler;
* **law agreement** - batched vs scalar on the paper's Examples 3.4
  (discrete, cascading triggers) and 3.5 (continuous, single layer):
  same output distribution, checked against closed forms and by KS;
* **mechanics** - backend resolution (auto/scalar/batched), signature
  grouping, fallbacks outside the supported class, budget semantics;
* **decline contract** - a batch that cannot stay vectorized to the end
  (a cascade round over budget or impossible to prepare) is declined
  whole and equals ``backend="scalar"`` world for world.
"""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

import repro
from repro.api.config import ChaseConfig
from repro.core.applicability import IncrementalApplicability
from repro.core.chase import run_chase_prepared
from repro.core.policies import DEFAULT_POLICY, LastPolicy
from repro.core.barany import TaggedDistribution
from repro.distributions.base import ParameterizedDistribution
from repro.distributions.mixture import FiniteMixture
from repro.distributions.continuous import Normal
from repro.distributions.discrete import Flip, Poisson
from repro.distributions.registry import DEFAULT_REGISTRY
from repro.engine import batched as batched_module
from repro.engine.batched import (ALWAYS, NEVER, PINNED, BatchedChase,
                                  _LayerFiring, _partition)
from repro.errors import (DistributionError, StreamingUnsupported,
                          ValidationError)
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads.generators import earthquake_city_instance
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

#: Every registered family at its ``BATCH_PARAMS`` point, a discrete and
#: a continuous mixture, and two Bárány-tagged families.
IDENTITY_CASES = [(DEFAULT_REGISTRY[name], params)
                  for name, params in sorted(BATCH_PARAMS.items())] + [
    (FiniteMixture("CoinOrCount", [(0.3, Flip(), (0.2,)),
                                   (0.7, Poisson(), (3.0,))]), ()),
    (FiniteMixture("Bimodal", [(0.25, Normal(), (-2.0, 1.0)),
                               (0.75, Normal(), (2.0, 0.5))]), ()),
    (TaggedDistribution(DEFAULT_REGISTRY["Normal"]), ("t", 0.5, 2.0)),
    (TaggedDistribution(DEFAULT_REGISTRY["Categorical"]), (3, 0.2, 0.8)),
]


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
        """One size-n batch has the law of n one-draw batches.

        Draw pooling hands a group a slice of a larger call, so a
        family's law must not depend on ``size``.
        """
        distribution = DEFAULT_REGISTRY[name]
        params = BATCH_PARAMS[name]
        rng = np.random.default_rng(5)
        batch = distribution.sample_batch(params, 1500, rng).tolist()
        scalar = [distribution.sample(params, rng) for _ in range(1500)]
        statistic = ks_two_sample([float(x) for x in batch],
                                  [float(x) for x in scalar])
        assert statistic <= 1.3 * ks_critical_value(1500, 1500, 1e-4), \
            name

    @pytest.mark.parametrize("distribution,params", IDENTITY_CASES,
                             ids=[d.name for d, _p in IDENTITY_CASES])
    def test_scalar_draw_is_one_draw_batch(self, distribution, params):
        scalar_rng = np.random.default_rng(13)
        batch_rng = np.random.default_rng(13)
        kind = int if distribution.is_discrete else float
        for _ in range(500):
            value = distribution.sample(params, scalar_rng)
            expected = distribution.sample_batch(params, 1,
                                                 batch_rng).item()
            assert value == expected
            assert type(value) is type(expected) is kind
        assert scalar_rng.bit_generator.state == \
            batch_rng.bit_generator.state

    def test_only_the_base_class_defines_sample(self):
        pending = list(ParameterizedDistribution.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls not in seen:
                seen.add(cls)
                pending.extend(cls.__subclasses__())
        assert {FiniteMixture, TaggedDistribution, Normal} <= seen
        assert [cls for cls in seen if cls.__module__.startswith("repro.")
                and "sample" in vars(cls)] == []

    def test_family_without_sample_batch_raises(self):
        class Bare(ParameterizedDistribution):
            name = "Bare"
            param_arity = 0

            def _check_params(self, params):
                return params

        rng = np.random.default_rng(0)
        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().sample_batch((), 4, rng)
        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().sample((), rng)

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
        base = IncrementalApplicability(translated, instance)
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
        # Quake and burglary worlds regroup by signature (singletons
        # included) and every world stays vectorized.
        assert result.diagnostics["n_groups"] > 1
        assert result.n_truncated == 0
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

    def test_any_policy_batches(self):
        # Theorem 6.1: the output law is the same under every policy,
        # so a policy never keeps a sample off the batch.
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0, policy=LastPolicy())
        result = session.sample(20)
        assert result.backend == "batched"
        assert result.pdb.worlds == session.sample(
            20, policy=None).pdb.worlds
        assert session.sample(
            20, backend="scalar").backend == "scalar"

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

    def test_parallel_batches_and_scalar_runs_it(self):
        # Theorem 5.6: the parallel chase has the sequential law, so
        # the batch stands for it; backend="scalar" runs it.
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        assert session.sample(10, parallel=True).backend == "batched"
        parallel = session.sample(10, parallel=True, backend="scalar")
        assert parallel.backend == "scalar"
        assert parallel.diagnostics["fallback_reason"] \
            == "backend='scalar' was requested"

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
        assert result.backend == "batched"
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
        assert result.backend == "batched"
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
    """Only the scalar loop builds per-world generators."""

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
        # At max_steps=15 the cascade rounds of the multi-trigger
        # groups overrun the step bound, so the batch declines whole
        # and the scalar loop builds every world's generator, once.
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=0, max_steps=15)
        result = session.sample(300, backend="batched")
        assert result.backend == "scalar"
        assert [len(rngs) for rngs in handed_world_rngs] == [300]
        assert built == list(range(300))

    def test_zero_split_example_3_5_builds_none(self, handed_world_rngs,
                                                built):
        session = repro.compile(example_3_5_program()).on(
            example_3_5_instance(), seed=0)
        result = session.sample(5000, backend="batched")
        assert result.backend == "batched"
        assert handed_world_rngs == []
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

#: A world takes 5 steps (Level's auxiliary and head, Seen(x, 0),
#: Seen(x, 1), Seen's auxiliary): the sampled Seen head always exists
#: already.  The batched round bound counts that head as new (6), so at
#: max_steps=5 the batch declines after round 1 and the scalar loop
#: ends every world exactly at the budget.
COLLIDING_CASCADE = """
    Level(Normal<0, 1>) :- true.
    Seen(x, Flip<0.5>) :- Level(x).
    Seen(x, 0) :- Level(x).
    Seen(x, 1) :- Level(x).
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
        # Trigger-hit worlds (~20%) regroup instead of going scalar,
        # rare one-world multi-trigger signatures included.
        assert sum(len(group.members)
                   for group in result.pdb._outcome.groups) == 2000

    def test_three_stage_chain_matches_exact_law(self):
        compiled = repro.compile(CASCADE_CHAIN)
        exact = compiled.on().exact()
        result = compiled.on(seed=11).sample(2000, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_rounds"] == 3
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
        assert result.backend == "batched"
        assert result.diagnostics["n_groups"] == 1
        assert all(Fact("Boom", ("s",)) not in world.facts
                   for world in result.pdb.worlds)

    def test_continuous_trigger_singletons_stay_vectorized(self):
        # A continuous always-trigger gives every world a unique
        # signature: all-singleton groups, each of which still runs
        # its next round vectorized.
        session = repro.compile(CONTINUOUS_CASCADE).on(seed=2)
        result = session.sample(30, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_rounds"] == 2
        assert result.diagnostics["n_groups"] == 30
        for world in result.pdb.worlds:
            assert len(world.facts_of("Next")) == 1

    def test_min_group_one_vectorizes_singleton_groups(self):
        # The retired field's only value is the default: passing it
        # explicitly changes nothing.
        session = repro.compile(CONTINUOUS_CASCADE).on(
            seed=2, batch_min_group=1)
        result = session.sample(12, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_rounds"] == 2
        assert result.diagnostics["n_groups"] == 12
        for world in result.pdb.worlds:
            assert len(world.facts_of("Next")) == 1
        default = repro.compile(CONTINUOUS_CASCADE).on(seed=2).sample(
            12, backend="batched")
        assert result.pdb.worlds == default.pdb.worlds

    def test_all_worlds_split_on_continuous_trigger(self):
        # A continuous always-trigger gives every world a unique
        # signature.  At max_steps=5 each one-world group's next round
        # overruns the round bound, so the batch declines whole: the
        # scalar loop runs every world, and none is truncated (see
        # COLLIDING_CASCADE).
        session = repro.compile(COLLIDING_CASCADE).on(seed=2, max_steps=5)
        result = session.sample(30, backend="batched")
        assert result.backend == "scalar"
        assert result.pdb.worlds == session.sample(
            30, backend="scalar").pdb.worlds
        assert result.pdb.truncated == 0
        for world in result.pdb.worlds:
            (level,) = world.facts_of("Level")
            x = level.args[0]
            assert world.facts_of("Seen") == {Fact("Seen", (x, 0)),
                                              Fact("Seen", (x, 1))}

    def test_cities_singleton_groups_stay_vectorized(self):
        # Four cities of four units: more than half of 100 worlds land in
        # one-world signature groups, and all of them stay batched.
        session = repro.compile(example_3_4_program()).on(
            earthquake_city_instance(4, 4, seed=0), seed=0)
        result = session.sample(100)
        assert result.backend == "batched"
        groups = result.pdb._outcome.groups
        assert sum(len(group.members) == 1 for group in groups) > 50
        assert sum(len(group.members) for group in groups) == 100

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
        assert result.backend == "batched"
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
        assert result.backend == "batched"
        assert result.diagnostics["n_groups"] == 2
        match = Fact("Match", (2,))
        pick = Fact("Pick", (2,))
        for world in result.pdb.worlds:
            assert (pick in world.facts) == (match in world.facts)
        assert abs(result.marginal(pick) - 0.25) <= 0.1

    def test_budget_exhaustion_mid_round_truncates_like_scalar(self):
        # max_steps=2 lets round 1 fire (aux + head per world) but not
        # the Boom cascade, so the batch declines whole and the scalar
        # loop truncates the trigger-hit worlds itself: every Hit=1
        # world truncates, every Hit=0 world is a genuine two-step
        # output, world for world as under backend="scalar".
        compiled = repro.compile(HIT_BOOM)
        instance = Instance.of(Fact("Seed", ("s",)))
        batched = compiled.on(instance, seed=5, max_steps=2).sample(
            60, backend="batched")
        scalar = compiled.on(instance, seed=5, max_steps=2).sample(
            60, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.worlds == scalar.pdb.worlds
        assert batched.pdb.truncated == scalar.pdb.truncated > 0
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
        assert batched.backend == "scalar"
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
        assert batched.backend == "batched"
        assert batched.pdb.truncated == 0
        assert scalar.pdb.truncated == 0
        hit, boom = Fact("Hit", (1,)), Fact("Boom", ("s",))
        for world in batched.pdb.worlds:
            assert (hit in world.facts) == (boom in world.facts)

    def test_numpy_integer_batch_min_group_accepted(self):
        # The retired field still parses its only value, 1.
        assert ChaseConfig().batch_min_group == 1
        assert ChaseConfig(batch_min_group=1).batch_min_group == 1
        config = ChaseConfig(batch_min_group=np.int64(1))
        assert config.batch_min_group == 1
        with pytest.raises(ValidationError):
            ChaseConfig(batch_min_group=True)

    def test_scalar_fallback_draw_order_bit_identity(self):
        # The step budget stops every world's cascade after round 1, so
        # the batch declines whole and draws nothing itself: replaying
        # the prepared scalar loop by hand - each world's own spawned
        # stream from the input instance - must reproduce the ensemble
        # draw for draw.
        n = 8
        compiled = repro.compile(COLLIDING_CASCADE)
        session = compiled.on(seed=13, max_steps=5)
        result = session.sample(n, backend="batched")
        assert result.backend == "scalar"

        translated = compiled.translated
        visible = compiled.visible_relations
        base = IncrementalApplicability(translated, Instance.empty())
        expected = []
        for rng in ChaseConfig(seed=13).spawn_rngs(n):
            run = run_chase_prepared(translated, base.fork(),
                                     Instance.empty(), DEFAULT_POLICY,
                                     rng, 5)
            assert run.terminated
            expected.append(run.instance.restrict(visible))
        assert result.pdb.worlds == expected

    def test_run_batch_rejects_retired_min_group(self):
        # The retired arguments fail loudly, positionally too: the
        # options after max_steps are keyword-only, and the per-world
        # generators and policy of a scalar continuation are gone.
        session = repro.compile(CONTINUOUS_CASCADE).on(seed=7)
        chase = session._batched_chase()
        cfg = session.config
        with pytest.raises(TypeError):
            chase.run_batch(12, cfg.base_rng(), 10_000, 8)
        with pytest.raises(TypeError, match="min_group"):
            chase.run_batch(12, cfg.base_rng(), 10_000, min_group=8)
        with pytest.raises(TypeError):
            chase.run_batch(12, cfg.base_rng(), cfg.spawn_rngs(12),
                            DEFAULT_POLICY, 10_000)

    def test_batch_min_group_validation(self):
        for retired in (2, 0, True, 1.5):
            with pytest.raises(ValidationError, match="retired"):
                ChaseConfig(batch_min_group=retired)
        with pytest.raises(ValidationError):
            ChaseConfig().replace(batch_min_group=2)


H_BARANY = "R(Flip<0.5>) :- true.\nS(Flip<0.5>) :- true."

FANOUT_BARANY = "Out(x, Flip<0.5>) :- Item(x)."

GROWABLE_REST_BARANY = """
    A(Flip<0.5>) :- true.
    Out(x, Flip<0.5>) :- A(x).
"""

LATE_GROWABLE_REST_BARANY = """
    A(Flip<0.5>) :- true.
    B(x, Flip<0.3>) :- A(x).
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
        assert result.diagnostics["n_groups"] == 2
        for world in result.pdb.worlds:
            hit = Fact("Out", ("a", 1)) in world.facts
            assert (Fact("Boom", ("a",)) in world.facts) == hit
            assert (Fact("Boom", ("b",)) in world.facts) == hit

    def test_late_growable_companion_rest_is_prepared_per_group(self):
        # Round 2 prepares the same Sample# firing, Flip<0.3>, in the
        # A=0 and the A=1 group.  Its companion rest joins A, a
        # growable relation, so the head templates differ per group -
        # B(0, v) in one, B(1, v) in the other - and the firing must
        # not reuse another group's preparation - also not from the
        # preparations a warm session keeps, so sample twice.
        from repro.testing.oracles import (marginals_agree,
                                           worlds_agree_chi_squared)
        compiled = repro.compile(LATE_GROWABLE_REST_BARANY,
                                 semantics="barany")
        exact = compiled.on().exact().pdb
        session = compiled.on(seed=3)
        for seed, cached in ((3, False), (4, True)):
            result = session.sample(2000, seed=seed, backend="batched")
            assert result.backend == "batched"
            assert (result.diagnostics["n_cached_rounds"] > 0) == cached
            assert result.diagnostics["n_rounds"] == 2
            for world in result.pdb.worlds:
                (a,) = world.facts_of("A")
                (b,) = world.facts_of("B")
                assert b.args[0] == a.args[0]
            assert marginals_agree(exact, result.pdb) is None
            assert worlds_agree_chi_squared(exact, result.pdb) is None

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

    def test_same_key_groups_share_one_call(self):
        session = repro.compile(STAGED_SLOTS).on(
            _staged_instance(), seed=0)
        result = session.sample(400, backend="batched")
        assert result.backend == "batched"
        diag = result.diagnostics
        assert diag["n_rounds"] == 2
        # Round 1: one DiscreteUniform call.  Round 2: the four stage
        # groups' Flip<0.5> firings (3 each) pool into a single call.
        assert diag["n_draw_calls"] == 2
        assert diag["n_pooled_draws"] > 0

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


class TestExactBudgetBoundary:
    """Declined batches whose runs end precisely at the step budget."""

    def test_fallback_terminating_exactly_at_budget(self):
        # The cascade needs exactly 5 steps per world, but round 2's
        # bound counts 6.  The batch declines after round 1, and the
        # scalar loop's budget of 5 is just enough: every run must
        # terminate, world for world as under backend="scalar".
        session = repro.compile(COLLIDING_CASCADE).on(
            seed=3, max_steps=5)
        batched = session.sample(12, backend="batched")
        scalar = session.sample(12, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.worlds == scalar.pdb.worlds
        assert batched.pdb.truncated == 0 == scalar.pdb.truncated
        assert len(batched.pdb.worlds) == 12
        # One step more and round 2 fits: the batch stays vectorized.
        roomy = session.sample(12, backend="batched", max_steps=6)
        assert roomy.backend == "batched"

    def test_fallback_one_step_short_truncates_like_scalar(self):
        session = repro.compile(CONTINUOUS_CASCADE).on(
            seed=3, max_steps=3)
        batched = session.sample(12, backend="batched")
        scalar = session.sample(12, backend="scalar")
        assert batched.backend == "scalar"
        assert batched.pdb.truncated == 12 == scalar.pdb.truncated

    def test_fallback_steps_accounting_is_exact(self):
        # The round bound of a cached node is exact: at max_steps=5 the
        # engine declines (round 2 counts 6) and at 6 it accepts.  A
        # scalar run finishing at the budget must report steps ==
        # max_steps and terminated == True (the off-by-one this
        # guards: treating "budget exhausted" and "finished on the
        # last step" alike).
        compiled = repro.compile(COLLIDING_CASCADE)
        chase = BatchedChase(compiled.translated, Instance.empty())
        cfg = ChaseConfig(seed=13)
        assert chase.run_batch(4, cfg.base_rng(), 5) is None
        outcome = chase.run_batch(4, cfg.base_rng(), 6)
        assert sorted(np.concatenate(
            [group.members for group in outcome.groups]).tolist()) \
            == [0, 1, 2, 3]
        session = compiled.on(seed=13, max_steps=5)
        for seed in range(4):
            run = session.run(rng=seed)
            assert run.terminated
            assert run.steps == 5


#: Round 2 of the A=0 group draws Normal<0.0, 0>, whose variance the
#: family rejects: a later round that cannot be prepared.
UNPREPARABLE_ROUND = """
    A(Flip<0.5>) :- true.
    B(Normal<0.0, x>) :- A(x).
"""


class TestDeclineContract:
    """A batch stays vectorized to the end or is declined whole."""

    @staticmethod
    def _tight_session():
        # Rare multi-trigger groups need a third round that overruns
        # max_steps=15; at n=2000 and seed 3 some worlds form them.
        return repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=3, max_steps=15)

    def test_mid_cascade_budget_decline_equals_scalar(self):
        session = self._tight_session()
        declined = session.sample(2000, backend="batched")
        scalar = session.sample(2000, backend="scalar")
        assert declined.backend == "scalar"
        assert declined.pdb.worlds == scalar.pdb.worlds
        assert declined.n_truncated == scalar.n_truncated == 15

    def test_unpreparable_round_raises_the_scalar_error(self):
        session = repro.compile(UNPREPARABLE_ROUND).on(seed=0)
        chase = session._batched_chase()
        assert chase.run_batch(50, session.config.base_rng(),
                               10_000) is None
        for backend in ("batched", "scalar"):
            with pytest.raises(DistributionError, match="variance"):
                session.sample(50, backend=backend)

    def test_stream_declines_on_mid_cascade_budget(self):
        with pytest.raises(StreamingUnsupported, match="declined"):
            self._tight_session().stream(2000)


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
        # A budget that truncates some worlds declines the batch: the
        # scalar loop's ensemble carries the truncations, and a batched
        # ensemble never holds a truncated world.
        compiled = repro.compile(HIT_BOOM)
        instance = Instance.of(Fact("Seed", ("s",)))
        result = compiled.on(instance, seed=5, max_steps=2).sample(
            60, backend="batched")
        assert result.backend == "scalar"
        assert result.pdb.truncated > 0
        assert result.pdb.total_mass() == \
            (60 - result.pdb.truncated) / 60
        # Truncated (Hit=1) worlds carry no mass: marginal of Hit(1)
        # counts only the terminated ensemble.
        assert result.marginal(Fact("Hit", (1,))) == 0.0


def _reference_partition(layer, draws):
    """The per-world Python partition the numpy one replaced.

    ``(signature, positions)`` per group, in first-seen order: each
    world's signature is built from ``tolist()`` values and the worlds
    are grouped with ``dict.setdefault``.
    """
    components = []
    for firing, values in zip(layer, draws):
        if firing.trigger == NEVER:
            components.append([None] * values.shape[0])
            continue
        listed = values.tolist()
        if firing.trigger == ALWAYS:
            components.append(listed)
        else:
            components.append([value if value in firing.pinned else None
                               for value in listed])
    partition: dict = {}
    for position, sig in enumerate(zip(*components)):
        partition.setdefault(sig, []).append(position)
    return list(partition.items())


def _firing(trigger, pins=(), finite=True):
    pinned = frozenset(pins)
    return _LayerFiring(
        aux_relation="R#", prefix=(), distribution_key=("Flip", (0.5,)),
        heads=(), trigger=trigger, pinned=pinned, finite=finite,
        pin_array=np.asarray(sorted(pinned)) if pinned else None)


class TestPartition:
    """The numpy signature partition against the per-world reference."""

    @staticmethod
    def _assert_matches_reference(layer, draws):
        size = len(draws[0])
        order, groups = _partition(layer, draws, size)
        permutation = np.arange(size) if order is None else order
        got = [(sig, permutation[start:stop].tolist())
               for sig, start, stop in groups]
        expected = _reference_partition(layer, draws)
        assert got == expected
        # Same Python scalars too: cache keys and facts hash the same.
        assert repr([sig for sig, _ in got]) == \
            repr([sig for sig, _ in expected])

    def test_mixed_columns(self):
        rng = np.random.default_rng(0)
        size = 500
        layer = (_firing(NEVER),
                 _firing(PINNED, (1,)),
                 _firing(PINNED, (0, 2, 5)),
                 _firing(PINNED, (2.5, 7)),
                 _firing(ALWAYS),
                 _firing(ALWAYS, finite=False))
        draws = [rng.normal(size=size),
                 rng.integers(0, 2, size),
                 rng.integers(0, 6, size),
                 rng.choice([2.5, 3.0, 7.0], size),
                 rng.integers(0, 3, size),
                 rng.normal(size=size).round(1)]
        self._assert_matches_reference(layer, draws)

    def test_unhit_pins_and_constant_columns_make_one_group(self):
        size = 40
        layer = (_firing(PINNED, (1,)), _firing(PINNED, (3, 4)),
                 _firing(ALWAYS), _firing(NEVER))
        draws = [np.zeros(size, dtype=np.int64),
                 np.zeros(size, dtype=np.int64),
                 np.full(size, 2.5), np.arange(size, dtype=float)]
        order, groups = _partition(layer, draws, size)
        assert order is None
        assert groups == [((None, None, 2.5, None), 0, size)]
        self._assert_matches_reference(layer, draws)

    def test_one_world_tasks(self):
        for value in (0, 1, 2):
            layer = (_firing(PINNED, (1,)), _firing(PINNED, (1, 2)),
                     _firing(ALWAYS, finite=False), _firing(NEVER))
            draws = [np.array([value]), np.array([value]),
                     np.array([0.25 * value]), np.array([9.0])]
            order, groups = _partition(layer, draws, 1)
            assert order is None and len(groups) == 1
            self._assert_matches_reference(layer, draws)

    def test_continuous_always_column_gives_singletons(self):
        rng = np.random.default_rng(3)
        layer = (_firing(ALWAYS, finite=False),)
        draws = [rng.normal(size=64)]
        order, groups = _partition(layer, draws, 64)
        assert len(groups) == 64
        self._assert_matches_reference(layer, draws)

    def test_wide_keys_are_recoded_not_overflowed(self):
        # Twelve always-columns of ~150 distinct values each: the
        # mixed radix passes 2**63, so the key must be re-coded.
        rng = np.random.default_rng(5)
        size = 300
        layer = tuple(_firing(ALWAYS) for _ in range(12))
        draws = [rng.integers(0, 150, size) for _ in layer]
        assert math.prod(len(np.unique(values)) for values in draws) \
            > 2 ** 63
        self._assert_matches_reference(layer, draws)
        # 65 one-pin columns every world hits, after one that splits
        # them: without re-coding, the first column's code would be
        # shifted out of the 64-bit key and the two groups would merge.
        layer = tuple(_firing(PINNED, (1,)) for _ in range(66))
        draws = [rng.integers(0, 2, size)] \
            + [np.ones(size, dtype=np.int64)] * 65
        self._assert_matches_reference(layer, draws)


class TestRoundCache:
    """Round transitions cached per BatchedChase (one warm session)."""

    def test_warm_cities_session_equals_fresh_sessions(self):
        # Seeds 18-29 cycle the step budget through 84-95, where the
        # batch declines or not depending on the budget, from the same
        # cached nodes.
        from repro.testing.oracles import compare_monte_carlo_pdbs
        compiled = repro.compile(example_3_4_program())
        instance = earthquake_city_instance(4, 4, seed=0)
        warm = compiled.on(instance)
        cached = declined = 0
        for seed in range(30):
            budget = {} if seed < 18 else {"max_steps": 66 + seed}
            result = warm.sample(100, seed=seed, **budget)
            fresh = compiled.on(instance, seed=seed, **budget).sample(100)
            assert result.backend == fresh.backend
            assert compare_monte_carlo_pdbs(result.pdb, fresh.pdb) is None
            if result.backend == "scalar":
                declined += 1
                continue
            # A fresh session reads only the one-trigger rounds its
            # own batch stored, so a second fresh session at the seed
            # reads as many; the warm one reads earlier batches' too.
            twin = compiled.on(instance, seed=seed, **budget).sample(100)
            assert twin.diagnostics["n_cached_rounds"] \
                == fresh.diagnostics["n_cached_rounds"]
            cached += result.diagnostics["n_cached_rounds"] \
                - fresh.diagnostics["n_cached_rounds"]
        assert cached > 0
        assert 0 < declined < 12

    def test_guided_posterior_after_plain_samples_equals_fresh(self):
        from repro.pdb.events import ContainsFactEvent
        compiled = repro.compile(example_3_4_program())
        instance = example_3_4_instance()
        evidence = ContainsFactEvent(Fact("Alarm", ("house-1",)))
        warm = compiled.on(instance)
        for seed in range(3):
            warm.sample(2000, seed=seed)
        chase = warm._batched_chase()
        assert chase._cached_facts > 0
        got = warm.observe(evidence).posterior(method="guided", n=2000,
                                               seed=7)
        fresh = compiled.on(instance).observe(evidence).posterior(
            method="guided", n=2000, seed=7)
        assert got.diagnostics["backend"] == "guided"
        assert "n_cached_rounds" not in got.diagnostics
        assert got.diagnostics == fresh.diagnostics
        assert got.fact_marginals() == fresh.fact_marginals()

    def test_fact_bound_zero_stores_nothing(self, monkeypatch):
        compiled = repro.compile(example_3_4_program())
        instance = earthquake_city_instance(4, 4, seed=0)
        expected = [compiled.on(instance).sample(100, seed=seed)
                    for seed in range(3)]
        monkeypatch.setattr(batched_module, "_ROUND_CACHE_FACTS", 0)
        session = compiled.on(instance)
        for seed, reference in enumerate(expected):
            result = session.sample(100, seed=seed)
            assert result.pdb.worlds == reference.pdb.worlds
            assert result.diagnostics["n_cached_rounds"] == 0
        chase = session._batched_chase()
        assert chase._root.children == {}
        assert chase._cached_facts == 0

    def test_concurrent_batches_keep_the_cache_consistent(self):
        compiled = repro.compile(example_3_4_program())
        instance = earthquake_city_instance(4, 4, seed=0)
        seeds = range(8)
        expected = {seed: compiled.on(instance, seed=seed).sample(100)
                    for seed in seeds}
        session = compiled.on(instance)
        chase = session._batched_chase()
        results = {}

        def work(seed):
            results[seed] = session.sample(100, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert results[seed].pdb.worlds == expected[seed].pdb.worlds

        def stored(node):
            for child in (node.children or {}).values():
                if child is not None:
                    yield child
                    yield from stored(child)

        assert chase._cached_facts == sum(len(node.shared)
                                          for node in stored(chase._root))
        assert chase._cached_facts > 0

    def test_continuous_cascade_stores_nothing(self):
        # Every signature carries a Normal draw: no transition recurs,
        # so none is stored and no preparation of one is memoized.
        session = repro.compile(CONTINUOUS_CASCADE).on(seed=2)
        chase = session._batched_chase()
        memoized = len(chase._prepared)
        for seed in range(3):
            result = session.sample(30, seed=seed, backend="batched")
            assert result.diagnostics["n_groups"] == 30
            assert result.diagnostics["n_cached_rounds"] == 0
        assert chase._root.children is None
        assert chase._cached_facts == 0
        assert len(chase._prepared) == memoized


#: Example 3.4's shape with a continuous second draw that a third rule
#: carries: a composed round holding the Normal always-triggers cannot
#: recur, so its own rounds run the whole cascade on its engine.
CONTINUOUS_THIRD_LEVEL = """
    L(k, Flip<0.6>) :- Key(k).
    T(k, Normal<0.0, 1.0>) :- L(k, 1).
    U(k, v, Flip<0.5>) :- T(k, v).
"""

#: Z follows from an L1 hit and from a T hit: a round composed from
#: an L0 hit and an L1 hit lists W, and a later T hit opens W again
#: in its one-trigger round, where the composed round must drop it.
CROSS_LEVEL = """
    L0(k, Flip<0.6>) :- Key(k).
    L1(k, Flip<0.6>) :- Key(k).
    T(k, Flip<0.6>) :- L0(k, 1).
    Z(k) :- T(k, 1).
    Z(k) :- L1(k, 1).
    W(k, Flip<0.5>) :- Z(k).
    U(k, Flip<0.5>) :- T(k, 1).
"""

#: A multi-random-term head: the Split# recombination joins two draws.
SPLIT_JOIN = """
    Pair(k, Flip<0.5>, Flip<0.5>) :- Key(k).
    Hit(k) :- Pair(k, 1, 1).
    Again(k, Flip<0.5>) :- Hit(k).
"""


def _keys(count: int) -> Instance:
    return Instance.from_dict({"Key": [(key,) for key in range(count)]})


class TestComposedRounds:
    """Missed rounds built from one-trigger rounds: the same batches."""

    @staticmethod
    def _same_batches(program, instance, batches,
                      max_steps: int = 10_000,
                      chase=BatchedChase) -> int:
        """Composing and whole-round chases agree; composed rounds."""
        from repro.testing.oracles import (_WholeRoundChase,
                                           compare_batch_outcomes)
        translated = repro.compile(program).translated
        composing = chase(translated, instance)
        whole = _WholeRoundChase(translated, instance)
        composed = 0
        for seed, size in batches:
            got = composing.run_batch(size, np.random.default_rng(seed),
                                      max_steps)
            want = whole.run_batch(size, np.random.default_rng(seed),
                                   max_steps)
            assert compare_batch_outcomes(got, want) is None, (seed, size)
            if got is not None:
                assert want.diagnostics["n_composed_rounds"] == 0
                composed += got.diagnostics["n_composed_rounds"]
        return composed

    def test_paper_programs_compose_where_no_body_joins_growables(self):
        from repro.analysis.capabilities import rounds_compose
        assert rounds_compose(
            repro.compile(example_3_4_program()).translated)
        assert rounds_compose(
            repro.compile(example_3_5_program()).translated)
        # Bárány's Trig companions read Earthquake, a growable relation.
        assert not rounds_compose(repro.compile(
            example_3_4_program(), semantics="barany").translated)
        assert not rounds_compose(repro.compile(SPLIT_JOIN).translated)

    @pytest.mark.parametrize("size", [1, 100, 2000])
    def test_cities_composed_equals_whole(self, size):
        composed = self._same_batches(
            example_3_4_program(), earthquake_city_instance(4, 4, seed=0),
            [(seed, size) for seed in range(4)])
        if size > 1:
            assert composed > 0

    def test_budgets_decline_alike(self):
        # A composed node records the budget the whole round needs:
        # at budgets 84-95 some cities batches decline, the same ones.
        from repro.testing.oracles import (_WholeRoundChase,
                                           compare_batch_outcomes)
        translated = repro.compile(example_3_4_program()).translated
        instance = earthquake_city_instance(4, 4, seed=0)
        composing = BatchedChase(translated, instance)
        whole = _WholeRoundChase(translated, instance)
        declined = 0
        for seed in range(12):
            got, want = (chase.run_batch(100, np.random.default_rng(seed),
                                         84 + seed)
                         for chase in (composing, whole))
            assert compare_batch_outcomes(got, want) is None, seed
            declined += got is None
        assert 0 < declined < 12

    def test_warm_composing_session_equals_fresh(self):
        from repro.testing.oracles import compare_monte_carlo_pdbs
        compiled = repro.compile(example_3_4_program())
        instance = earthquake_city_instance(4, 4, seed=0)
        warm = compiled.on(instance)
        composed = 0
        for seed in range(8):
            result = warm.sample(100, seed=seed)
            fresh = compiled.on(instance, seed=seed).sample(100)
            assert result.backend == fresh.backend == "batched"
            assert compare_monte_carlo_pdbs(result.pdb, fresh.pdb) is None
            composed += result.diagnostics["n_composed_rounds"]
        assert composed > 0

    def test_tight_budget_still_declines_world_for_world(self):
        assert self._same_batches(example_3_4_program(),
                                  example_3_4_instance(),
                                  [(3, 2000)], max_steps=15) == 0
        session = repro.compile(example_3_4_program()).on(
            example_3_4_instance(), seed=3)
        for seed in range(3):
            session.sample(2000, seed=seed)
        declined = session.sample(2000, max_steps=15)
        scalar = session.sample(2000, max_steps=15, backend="scalar")
        assert declined.backend == "scalar"
        assert declined.pdb.worlds == scalar.pdb.worlds

    def test_non_recurring_composed_rounds(self):
        assert self._same_batches(
            CONTINUOUS_THIRD_LEVEL, _keys(3),
            [(seed, 200) for seed in range(3)]) > 0

    def test_full_cache_mid_batch(self, monkeypatch):
        # About a dozen nodes fit: the cap fills inside the first
        # batch, and later misses meet parts that cannot be stored.
        monkeypatch.setattr(batched_module, "_ROUND_CACHE_FACTS", 600)
        assert self._same_batches(
            example_3_4_program(), earthquake_city_instance(4, 4, seed=0),
            [(seed, 100) for seed in range(6)]) > 0

    @pytest.mark.parametrize("chase", ["usual", "checked", "full"])
    def test_rounds_a_part_reopens(self, chase):
        # The checked chases also check every composed node's engine.
        from repro.testing.oracles import _CheckedChase, _FullCacheChase
        chase = {"usual": BatchedChase, "checked": _CheckedChase,
                 "full": _FullCacheChase}[chase]
        assert self._same_batches(
            CROSS_LEVEL, _keys(2), [(seed, 300) for seed in range(4)],
            chase=chase) > 0

    def test_split_join_never_composes(self):
        session = repro.compile(SPLIT_JOIN).on(_keys(3), seed=1)
        for seed in range(3):
            result = session.sample(500, seed=seed, backend="batched")
            assert result.backend == "batched"
            assert result.diagnostics["n_rounds"] >= 2
            assert result.diagnostics["n_composed_rounds"] == 0
