"""Sharded sampling: plans, per-world streams, identities, pickling.

The serving layer's claims are identities, so the tests here assert
bit-equality, not statistics: shard plans tile the batch, shard
workers reconstruct exactly the streams ``ChaseConfig.spawn_rngs``
hands a single-process batch, ``sample(n, shards=k)`` equals
``sample(n)`` world for world (batchable programs run in-process;
the scalar loop fans out draw-for-draw), and every payload that
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
from repro.serving import (ShardExecutor, merge_shard_results,
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
        assert all(r.backend == "batched" for r in results)
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
        assert sharded.backend == "sharded"
        assert _ensemble(sharded) == _ensemble(single)

    def test_budget_decline_degrades_all_shards_to_scalar(self):
        # max_steps below the batched layer bound: the engine
        # declines, so the scalar loop fans out, bit-identical to the
        # single-process scalar loop.
        session = repro.compile(CASCADE).on(_sites(3), seed=23,
                                            max_steps=2)
        sharded = _inline_sample(session, 30, shards=3)
        assert sharded.backend == "sharded"
        single = session.configure(backend="scalar").sample(30)
        assert _ensemble(sharded) == _ensemble(single)

    def test_pool_matches_inline(self):
        """The real process pool returns what inline execution returns."""
        session = repro.compile(CASCADE).on(_sites(3), seed=41,
                                            backend="scalar")
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
        """Sharded columnar marginal reads == materialized-world counts."""
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


class TestShardedEqualsUnsharded:
    """``sample(n, shards=k)`` is ``sample(n)``, world for world."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("program,semantics,instance", [
        (CASCADE, "grohe", _sites(4)),
        ("Out(x, Flip<0.5>) :- In(x).", "barany",
         Instance.from_dict({"In": [(1,), (2,)]})),
        (CONTINUOUS, "grohe", _cities()),
    ], ids=["cascade", "barany", "continuous"])
    def test_batchable_programs_run_in_process(self, program, semantics,
                                               instance, k):
        session = repro.compile(program, semantics=semantics).on(
            instance, seed=37)
        sharded = session.sample(50, shards=k)
        assert sharded.backend == "batched"
        assert "fallback_reason" in sharded.diagnostics
        assert _ensemble(sharded) == _ensemble(session.sample(50))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("overrides", [{"backend": "scalar"},
                                           {"max_steps": 2}],
                             ids=["scalar-backend", "budget-decline"])
    def test_scalar_batches_fan_out(self, overrides, k):
        session = repro.compile(CASCADE).on(_sites(3), seed=43,
                                            **overrides)
        sharded = _inline_sample(session, 40, shards=k)
        assert sharded.backend == "sharded"
        assert sharded.diagnostics["shards"] == k
        assert _ensemble(sharded) == _ensemble(session.sample(40))


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

    @pytest.mark.parametrize("n", [2.5, True, "5", 0, np.int64(4)],
                             ids=["float", "bool", "str", "zero",
                                  "numpy-int"])
    @pytest.mark.parametrize("entry", ["sample_sharded", "shard_plan",
                                       "server"])
    def test_one_run_count_check(self, entry, n):
        # Every entry point checks n as the Session verbs do: an int
        # (numpy ints too) of at least 1, with the same message.
        from repro.serving import ProgramServer
        from repro.workloads.paper import (example_3_4_instance,
                                           example_3_4_program)
        program = example_3_4_program()
        session = repro.compile(program).on(example_3_4_instance(),
                                            seed=1, shards=2)

        def call():
            if entry == "sample_sharded":
                return sample_sharded(session, n).n_runs
            if entry == "shard_plan":
                return shard_plan(n, 2, seed=1).n
            reply = ProgramServer().handle({
                "op": "sample", "program": CASCADE,
                "instance": {"Site": [[0], [1]]}, "n": n,
                "config": {"seed": 1}})
            if not reply["ok"]:
                raise ValidationError(reply["error"])
            return reply["result"]["n_runs"]

        if isinstance(n, np.integer):
            runs = call()
            assert runs == 4 and type(runs) is int
            return
        with pytest.raises(ValidationError,
                           match=r"n must be an int >= 1, got "
                                 + repr(n).replace(".", r"\.")):
            call()

    def test_results_off_the_plan_rejected_by_merge(self):
        session = repro.compile(CASCADE).on(_sites(2), seed=1,
                                            backend="scalar")
        cfg = session.config.replace(shards=2)
        plan = shard_plan(20, 2, seed=1)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            results = executor.run(plan)
        with pytest.raises(ChaseError, match="do not match the plan"):
            merge_shard_results(plan, results[:1], 0.0)


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
        cfg = session.config
        outcome = chase.run_batch(15, cfg.base_rng(), 10_000)
        restored = self._roundtrip(outcome)
        assert isinstance(restored, BatchOutcome)
        visible = session.compiled.visible_relations
        assert ColumnarMonteCarloPDB(restored, visible).worlds \
            == ColumnarMonteCarloPDB(outcome, visible).worlds

    def test_shard_result_roundtrip(self):
        session = repro.compile(CASCADE).on(_sites(2), seed=12,
                                            backend="scalar")
        cfg = session.config.replace(shards=2)
        plan = shard_plan(12, 2, seed=12)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            results = executor.run(plan)
        for result in results:
            assert self._roundtrip(result) == result

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
# Group structure under sharding (content-addressed distribution keys)
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
        """A sharded batch keeps the unsharded group structure.

        The batched engine samples the whole batch in one process
        whatever the shard count, so k=3 has exactly the k=1 groups,
        not three disjoint copies of them.
        """
        session = repro.compile(CASCADE).on(_sites(4), seed=29)
        one = _inline_sample(session, 80, shards=1)
        three = _inline_sample(session, 80, shards=3)
        assert _ensemble(one) == _ensemble(three)
        assert one.diagnostics["n_groups"] > 0
        assert three.diagnostics["n_groups"] \
            == one.diagnostics["n_groups"]

    def test_merged_groups_answer_like_unmerged(self):
        """The shard count is invisible to every marginal read."""
        session = repro.compile(CASCADE).on(_sites(3), seed=77)
        one = _inline_sample(session, 60, shards=1)
        three = _inline_sample(session, 60, shards=3)
        assert dict(one.fact_marginals()) == dict(three.fact_marginals())
