"""One sampling process: config validation, the run-count check,
pickling, overlay forks and content-addressed distribution keys.

``Session.sample`` runs every batch in the calling process (Theorem
6.1 lets one pooled chase order produce all ``n`` worlds), so there
is no ``shards`` field in ``ChaseConfig`` and every surface rejects
it by name.  The claims here are identities, so the tests assert
bit-equality, not statistics.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

import repro
from repro.api.config import ChaseConfig
from repro.core.applicability import OverlayApplicability
from repro.core.policies import DEFAULT_POLICY
from repro.engine.batched import BatchOutcome, ColumnarMonteCarloPDB
from repro.errors import ValidationError
from repro.pdb.instances import Instance
from repro.serving import ProgramServer
from repro.workloads.generators import (staged_slots_instance,
                                        staged_slots_program)

CASCADE = """
Trig(x, Flip<0.6>) :- Site(x).
Alarm(x, Flip<0.5>) :- Trig(x, 1).
"""


def _sites(k: int = 3) -> Instance:
    return Instance.from_dict({"Site": [(i,) for i in range(k)]})


class TestShardValidation:
    """``shards`` is not a config field: every surface rejects it."""

    SHARDS = r"unknown ChaseConfig field\(s\): shards"

    def test_shared_streams_rejected(self):
        # Per-world spawn streams are the only scheme; "streams" is
        # not a config field.
        session = repro.compile(CASCADE).on(_sites(2), seed=1)
        with pytest.raises(ValidationError,
                           match="unknown ChaseConfig field"):
            session.sample(10, streams="shared")

    def test_config_field_validation(self):
        names = [field.name for field in dataclasses.fields(ChaseConfig)]
        assert len(names) == 10
        assert "shards" not in names and "engine" not in names
        assert "record_trace" not in names
        with pytest.raises(ValidationError, match=self.SHARDS):
            ChaseConfig().replace(shards=2)

    @pytest.mark.parametrize("entry", ["sample", "on", "configure"])
    def test_session_surfaces_reject_shards(self, entry):
        compiled = repro.compile(CASCADE)
        with pytest.raises(ValidationError, match=self.SHARDS):
            if entry == "sample":
                compiled.on(_sites(2), seed=1).sample(10, shards=2)
            elif entry == "on":
                compiled.on(_sites(2), seed=1, shards=2)
            else:
                compiled.on(_sites(2), seed=1).configure(shards=2)

    @pytest.mark.parametrize("n", [2.5, True, "5", 0, np.int64(4)],
                             ids=["float", "bool", "str", "zero",
                                  "numpy-int"])
    @pytest.mark.parametrize("entry", ["sample", "server"])
    def test_one_run_count_check(self, entry, n):
        # Session.sample and the server's "n" field check n alike: an
        # int (numpy ints too) of at least 1, with the same message.
        def call():
            if entry == "sample":
                return repro.compile(CASCADE).on(
                    _sites(2), seed=1).sample(n).n_runs
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


# ---------------------------------------------------------------------------
# Pickle round-trips
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

    def test_scalar_sample_roundtrip(self):
        result = repro.compile(CASCADE).on(_sites(2), seed=12,
                                           backend="scalar").sample(12)
        restored = self._roundtrip(result.pdb)
        assert list(restored.worlds) == list(result.pdb.worlds)
        assert restored.truncated == result.pdb.truncated

    def test_chase_config_roundtrip(self):
        cfg = ChaseConfig(seed=3, max_steps=500)
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
        base = session._base_engine()
        fork = session._fork_engine()
        assert isinstance(fork, OverlayApplicability)
        # Delta layering, not copying: the fork references the base's
        # fact set and starts with an empty delta of its own.
        assert fork._parent_facts is base._fact_set
        assert len(fork._delta) == 0
        fork.add_fact(repro.Fact("Pad", (999_999,)))
        assert len(fork._delta) == 1
        assert len(base._fact_set) == len(instance)

    def test_scalar_output_unchanged_by_overlay_forks(self):
        """Overlay routing preserves seeded scalar output exactly."""
        session = repro.compile(CASCADE).on(_sites(3), seed=55,
                                            backend="scalar")
        base = session._base_engine()
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
# Content-addressed distribution keys
# ---------------------------------------------------------------------------


class TestDistributionKeys:
    def test_distribution_key_is_content_addressed(self):
        """Keys carry (distribution name, params), not object ids."""
        session = repro.compile(CASCADE).on(_sites(3), seed=9)
        outcome = session.sample(40).pdb._outcome
        keys = {outcome.firings[index].firing.distribution_key
                for group in outcome.groups
                for index in group.firings}
        assert keys
        assert keys <= {("Flip", (0.6,)), ("Flip", (0.5,))}
        # And they survive pickling unchanged - the property the old
        # id()-based key could never have.
        assert {pickle.loads(pickle.dumps(key)) for key in keys} == keys
