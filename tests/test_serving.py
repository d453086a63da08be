"""Sharded sampling: plans, per-world streams, invariance, pickling.

The serving layer's claims are identities, so the tests here assert
bit-equality, not statistics: shard plans tile the batch, shard
workers reconstruct exactly the streams ``ChaseConfig.spawn_rngs``
hands a single-process batch, output is invariant to the shard count
(both engines, both semantics), sharded scalar mode equals the
single-process scalar loop draw-for-draw, and every payload that
crosses the process boundary round-trips through pickle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.api.config import ChaseConfig
from repro.core.applicability import OverlayApplicability
from repro.core.policies import DEFAULT_POLICY
from repro.engine.batched import BatchOutcome, ColumnarMonteCarloPDB
from repro.errors import ChaseError, ValidationError
from repro.pdb.instances import Instance
from repro.serving import (ShardExecutor, ShardSpec, merge_shard_results,
                           sample_sharded, shard_plan, shard_rngs)
from repro.workloads.generators import (staged_slots_instance,
                                        staged_slots_program)

CASCADE = """
Trig(x, Flip<0.6>) :- Site(x).
Alarm(x, Flip<0.5>) :- Trig(x, 1).
"""

CONTINUOUS = "Temp(c, Normal<m, 2.0>) :- City(c, m)."


def _cities() -> Instance:
    return Instance.from_dict({"City": [("a", 10.0), ("b", 20.0)]})


def _sites(k: int = 3) -> Instance:
    return Instance.from_dict({"Site": [(i,) for i in range(k)]})


def _inline_sample(session, n, **cfg_overrides):
    """Sharded sampling through the inline (no-pool) executor."""
    cfg = session.config.replace(**cfg_overrides)
    with ShardExecutor(session.compiled.translated, session.instance,
                       cfg, inline=True) as executor:
        return sample_sharded(session, n, cfg, executor=executor)


def _ensemble(result):
    """(truncated, world list) - the draw-for-draw identity witness."""
    return (result.pdb.truncated, list(result.pdb.worlds))


# ---------------------------------------------------------------------------
# Shard plans and per-world streams
# ---------------------------------------------------------------------------


class TestShardPlan:
    def test_specs_tile_the_batch(self):
        plan = shard_plan(10, 3, seed=7)
        assert [spec.size for spec in plan.specs] == [4, 3, 3]
        covered = [world for spec in plan.specs
                   for world in spec.world_indices()]
        assert covered == list(range(10))

    def test_zero_size_shards_dropped(self):
        plan = shard_plan(2, 5, seed=0)
        assert len(plan.specs) == 2
        assert all(spec.size == 1 for spec in plan.specs)

    def test_int_seed_pins_entropy(self):
        assert shard_plan(8, 2, seed=11).entropy == 11
        assert shard_plan(8, 2, seed=11) == shard_plan(8, 2, seed=11)

    def test_none_seed_draws_shared_entropy(self):
        plan = shard_plan(8, 2, seed=None)
        assert all(spec.entropy == plan.entropy for spec in plan.specs)

    @pytest.mark.parametrize("n,shards", [(0, 2), (-1, 2), (5, 0),
                                          (True, 2), (5, True)])
    def test_validation(self, n, shards):
        with pytest.raises(ValidationError):
            shard_plan(n, shards)

    def test_shard_rngs_match_spawn_rngs(self):
        """Worker streams == ChaseConfig.spawn_rngs streams, per world."""
        cfg = ChaseConfig(seed=123)
        single = cfg.spawn_rngs(9)
        plan = shard_plan(9, 4, seed=123)
        for spec in plan.specs:
            for offset, rng in enumerate(shard_rngs(spec)):
                world = spec.start + offset
                expect = single[world].integers(0, 1 << 30, 4)
                assert rng.integers(0, 1 << 30, 4).tolist() \
                    == expect.tolist()


# ---------------------------------------------------------------------------
# Shard-count invariance (the central guarantee)
# ---------------------------------------------------------------------------


class TestShardInvariance:
    @pytest.mark.parametrize("engine", ["incremental", "naive"])
    def test_batched_mode_invariant_across_counts(self, engine):
        session = repro.compile(CASCADE).on(_sites(4), seed=31,
                                            engine=engine)
        results = [_inline_sample(session, 60, shards=k)
                   for k in (2, 3, 4)]
        assert all(r.diagnostics["mode"] == "batched" for r in results)
        reference = _ensemble(results[0])
        for result in results[1:]:
            assert _ensemble(result) == reference

    def test_barany_semantics_invariant(self):
        program = "Out(x, Flip<0.5>) :- In(x)."
        instance = Instance.from_dict({"In": [(1,), (2,)]})
        session = repro.compile(program,
                                semantics="barany").on(instance, seed=5)
        two = _inline_sample(session, 50, shards=2)
        three = _inline_sample(session, 50, shards=3)
        assert _ensemble(two) == _ensemble(three)

    def test_continuous_program_invariant(self):
        session = repro.compile(CONTINUOUS).on(_cities(), seed=13)
        two = _inline_sample(session, 40, shards=2)
        four = _inline_sample(session, 40, shards=4)
        assert _ensemble(two) == _ensemble(four)

    def test_scalar_mode_bit_identical_to_single_process(self):
        session = repro.compile(CASCADE).on(_sites(3), seed=17)
        sharded = _inline_sample(session, 40, shards=3,
                                 backend="scalar")
        single = session.configure(backend="scalar").sample(40)
        assert sharded.diagnostics["mode"] == "scalar"
        assert _ensemble(sharded) == _ensemble(single)

    def test_budget_decline_degrades_all_shards_to_scalar(self):
        # max_steps below the batched layer bound: every shard must
        # take the scalar route, bit-identical to the scalar loop.
        session = repro.compile(CASCADE).on(_sites(3), seed=23,
                                            max_steps=2)
        sharded = _inline_sample(session, 30, shards=3)
        assert sharded.diagnostics["mode"] == "scalar"
        single = session.configure(backend="scalar").sample(30)
        assert _ensemble(sharded) == _ensemble(single)

    def test_pool_matches_inline(self):
        """The real process pool returns what inline execution returns."""
        session = repro.compile(CASCADE).on(_sites(3), seed=41)
        inline = _inline_sample(session, 30, shards=2)
        pooled = session.sample(30, shards=2)
        assert pooled.backend == "sharded"
        assert _ensemble(pooled) == _ensemble(inline)

    def test_shards_one_takes_the_single_process_path(self):
        session = repro.compile(CASCADE).on(_sites(3), seed=3)
        result = session.sample(50, shards=1)
        assert result.backend == "batched"  # not "sharded"
        assert _ensemble(result) == _ensemble(session.sample(50))

    def test_marginals_columnar_merge_consistent(self):
        """Merged columnar marginal reads == materialized-world counts."""
        session = repro.compile(CASCADE).on(_sites(4), seed=29)
        result = _inline_sample(session, 80, shards=3)
        assert isinstance(result.pdb, ColumnarMonteCarloPDB)
        assert not result.pdb.materialized
        columnar = dict(result.fact_marginals())
        counts: dict = {}
        for world in result.pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        assert columnar == {fact: count / result.pdb.n_runs
                            for fact, count in counts.items()}


class TestShardValidation:
    def test_shared_streams_rejected(self):
        # Per-world spawn streams are the only scheme; "streams" is
        # not a config field.
        session = repro.compile(CASCADE).on(_sites(2), seed=1)
        with pytest.raises(ValidationError,
                           match="unknown ChaseConfig field"):
            session.sample(10, shards=2, streams="shared")

    def test_generator_seed_rejected(self):
        session = repro.compile(CASCADE).on(
            _sites(2), seed=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="int or None"):
            session.sample(10, shards=2)

    def test_config_field_validation(self):
        with pytest.raises(ValidationError):
            ChaseConfig(shards=0)
        with pytest.raises(ValidationError):
            ChaseConfig(shards=True)
        assert ChaseConfig(shards=4).shards == 4

    def test_mixed_mode_results_rejected_by_merge(self):
        session = repro.compile(CASCADE).on(_sites(2), seed=1)
        cfg = session.config.replace(shards=2)
        plan = shard_plan(20, 2, seed=1)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            results = executor.run(plan)
        import dataclasses
        forged = [results[0],
                  dataclasses.replace(results[1], mode="scalar",
                                      outcome=None, worlds=())]
        with pytest.raises(ChaseError, match="shard-invariant"):
            merge_shard_results(plan, forged,
                                session.compiled.visible_relations,
                                cfg, 0.0)


# ---------------------------------------------------------------------------
# Per-world draw mode in the batched engine
# ---------------------------------------------------------------------------


class TestPerWorldDrawMode:
    def _chase(self, n_sites=3, seed=7):
        session = repro.compile(CASCADE).on(_sites(n_sites), seed=seed)
        return session, session._batched_chase()

    def test_draw_mode_diagnostic_and_min_group(self):
        session, chase = self._chase()
        rngs = session.config.spawn_rngs(12)
        outcome = chase.run_batch(12, None, None, DEFAULT_POLICY,
                                  10_000, min_group=8,
                                  per_world_rngs=rngs)
        assert outcome.diagnostics["draw_mode"] == "per-world"
        # min_group forced to 1: no world went scalar just for being
        # in a small group (co-membership must not matter).
        assert outcome.diagnostics["n_split"] == 0

    def test_rng_count_mismatch_rejected(self):
        session, chase = self._chase()
        with pytest.raises(ChaseError, match="per_world_rngs"):
            chase.run_batch(5, None, None, DEFAULT_POLICY, 10_000,
                            per_world_rngs=session.config.spawn_rngs(4))

    def test_split_invariance_at_engine_level(self):
        session, chase = self._chase(n_sites=4, seed=19)
        rngs = session.config.spawn_rngs(20)
        whole = chase.run_batch(20, None, None, DEFAULT_POLICY, 10_000,
                                per_world_rngs=rngs)
        visible = session.compiled.visible_relations
        reference = ColumnarMonteCarloPDB(whole, visible).worlds
        merged: list = []
        for start, size in ((0, 7), (7, 13)):
            fresh = session.config.spawn_rngs(20)[start:start + size]
            part = chase.run_batch(size, None, None, DEFAULT_POLICY,
                                   10_000, per_world_rngs=fresh)
            merged.extend(ColumnarMonteCarloPDB(part, visible).worlds)
        assert merged == reference


# ---------------------------------------------------------------------------
# Pickle round-trips (the process boundary)
# ---------------------------------------------------------------------------


class TestPickleRoundTrips:
    def _roundtrip(self, value):
        return pickle.loads(pickle.dumps(value))

    def test_facts_and_instances(self):
        fact = repro.Fact("R", (1, "x", 2.5))
        assert self._roundtrip(fact) == fact
        instance = staged_slots_instance(n_stages=2, slots_per_stage=2,
                                         padding=5)
        restored = self._roundtrip(instance)
        assert restored == instance
        assert restored.facts_of("Stage") == instance.facts_of("Stage")

    @pytest.mark.parametrize("semantics", ["grohe", "barany"])
    def test_translated_program_reproduces_samples(self, semantics):
        compiled = repro.compile(CASCADE, semantics=semantics)
        translated = self._roundtrip(compiled.translated)
        original = compiled.on(_sites(2), seed=77).sample(25)
        restored = repro.compile(translated).on(_sites(2),
                                                seed=77).sample(25)
        assert list(restored.pdb.worlds) == list(original.pdb.worlds)

    def test_shard_plan_and_spec(self):
        plan = shard_plan(10, 3, seed=5)
        assert self._roundtrip(plan) == plan
        assert self._roundtrip(plan.specs[1]) == plan.specs[1]

    def test_batch_outcome_columnar_result(self):
        session = repro.compile(CASCADE).on(_sites(3), seed=9)
        chase = session._batched_chase()
        rngs = session.config.spawn_rngs(15)
        outcome = chase.run_batch(15, None, None, DEFAULT_POLICY,
                                  10_000, per_world_rngs=rngs)
        restored = self._roundtrip(outcome)
        assert isinstance(restored, BatchOutcome)
        visible = session.compiled.visible_relations
        assert ColumnarMonteCarloPDB(restored, visible).worlds \
            == ColumnarMonteCarloPDB(outcome, visible).worlds

    def test_shard_result_roundtrip(self):
        session = repro.compile(CASCADE).on(_sites(2), seed=12)
        cfg = session.config.replace(shards=2)
        plan = shard_plan(12, 2, seed=12)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            results = executor.run(plan)
        for result in results:
            restored = self._roundtrip(result)
            assert restored.spec == result.spec
            assert restored.mode == result.mode

    def test_chase_config_roundtrip(self):
        cfg = ChaseConfig(seed=3, shards=4, max_steps=500)
        assert self._roundtrip(cfg) == cfg


# ---------------------------------------------------------------------------
# Satellite: Session._fork_engine routes through overlay_fork
# ---------------------------------------------------------------------------


class TestOverlayForkRouting:
    def test_fork_is_overlay_with_shared_base(self):
        """Per-run forks are O(delta): no copy of the input fact set."""
        instance = staged_slots_instance(n_stages=4, slots_per_stage=4,
                                         padding=400)
        session = repro.compile(
            staged_slots_program(n_stages=4)).on(instance, seed=1)
        base = session._base_engine("incremental")
        fork = session._fork_engine("incremental")
        assert isinstance(fork, OverlayApplicability)
        # Delta layering, not copying: the fork references the base's
        # fact set and starts with an empty delta of its own.
        assert fork._parent_facts is base._fact_set
        assert len(fork._delta) == 0
        fork.add_fact(repro.Fact("Pad", (999_999,)))
        assert len(fork._delta) == 1
        assert len(base._fact_set) == len(instance)

    def test_naive_engine_still_plain_forks(self):
        session = repro.compile(CASCADE).on(_sites(2), seed=1,
                                            engine="naive")
        fork = session._fork_engine("naive")
        assert not isinstance(fork, OverlayApplicability)

    def test_scalar_output_unchanged_by_overlay_forks(self):
        """Overlay routing preserves seeded scalar output exactly."""
        session = repro.compile(CASCADE).on(_sites(3), seed=55,
                                            backend="scalar")
        base = session._base_engine("incremental")
        overlay_worlds = list(session.sample(30).pdb.worlds)
        # Replay with eager full forks - the pre-overlay behaviour.
        from repro.core.chase import run_chase_prepared
        cfg = session.config
        eager = []
        visible = session.compiled.visible_relations
        for rng in cfg.spawn_rngs(30):
            run = run_chase_prepared(session.compiled.translated,
                                     base.fork(), session.instance,
                                     DEFAULT_POLICY, rng, cfg.max_steps)
            assert run.terminated
            eager.append(run.instance.restrict(visible))
        assert overlay_worlds == eager


# ---------------------------------------------------------------------------
# Cross-shard group coalescing (content-addressed distribution keys)
# ---------------------------------------------------------------------------


class TestCrossShardCoalescing:
    def test_distribution_key_is_content_addressed(self):
        """Keys carry (distribution name, params), not process ids."""
        session = repro.compile(CASCADE).on(_sites(3), seed=9)
        outcome = session.sample(40).pdb._outcome
        keys = {firing.distribution_key
                for group in outcome.groups
                for firing, _values in group.columns}
        assert keys
        assert keys <= {("Flip", (0.6,)), ("Flip", (0.5,))}
        # And they survive pickling unchanged - the property the old
        # id()-based key could never have.
        assert {pickle.loads(pickle.dumps(key)) for key in keys} == keys

    def test_merged_group_count_matches_single_shard(self):
        """Equal-signature groups from different shards coalesce.

        Per-world draw mode makes the worlds bit-identical across
        shard counts, so after merging, k=3 must recover exactly the
        k=1 group structure rather than three disjoint copies of it.
        """
        session = repro.compile(CASCADE).on(_sites(4), seed=29)
        one = _inline_sample(session, 80, shards=1)
        three = _inline_sample(session, 80, shards=3)
        assert _ensemble(one) == _ensemble(three)
        assert one.diagnostics["n_groups"] > 0
        assert three.diagnostics["n_groups"] \
            == one.diagnostics["n_groups"]

    def test_merged_groups_answer_like_unmerged(self):
        """Coalescing is invisible to every marginal read."""
        session = repro.compile(CASCADE).on(_sites(3), seed=77)
        one = _inline_sample(session, 60, shards=1)
        three = _inline_sample(session, 60, shards=3)
        assert dict(one.fact_marginals()) == dict(three.fact_marginals())
