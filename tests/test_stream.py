"""Tests for streaming posteriors (repro.api.stream).

The contract under test: ``session.stream(n)`` samples a columnar
batch once, then every ``observe``/``retract`` updates per-world
weights and masks in place - never re-running the chase - while
agreeing with the one-shot ``posterior(method="likelihood")`` answer.
"""

import numpy as np
import pytest

import repro
from repro.api.stream import StreamingPosterior
from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import (MeasureError, StreamingUnsupported,
                          ValidationError)
from repro.pdb.facts import Fact
from repro.pdb.stats import fact_marginals
from repro.pdb.weighted import WeightedColumnarPDB
from repro.query import Aggregate, agg_count, agg_max, columnar, scan
from repro.serving import protocol

CASCADE = """
    Trig(x, Flip<0.6>) :- Site(x).
    Alarm(x, Flip<0.5>) :- Trig(x, 1).
"""

SITE = repro.Instance.of(Fact("Site", ("a",)))


def cascade_session(seed=7, **overrides):
    return repro.compile(CASCADE).on(SITE, seed=seed, **overrides)


class TestStreamBasics:
    def test_stream_returns_streaming_posterior(self):
        stream = cascade_session().stream(64)
        assert isinstance(stream, StreamingPosterior)
        assert stream.n_worlds == 64
        assert stream.n_evidence == 0
        assert stream.resamples == 0

    def test_prior_matches_plain_sampling(self):
        stream = cascade_session().stream(4000)
        prior = stream.marginal(Fact("Trig", ("a", 1)))
        assert abs(prior - 0.6) < 0.04

    def test_observation_shifts_the_posterior(self):
        # P(Trig=1 | Alarm sample = 1) = 0.6*0.5 / (0.6*0.5 + 0.4*1)
        # = 3/7: unfired Alarm rules keep likelihood factor 1.
        stream = cascade_session().stream(4000)
        stream.observe(repro.observe("Alarm", "a", 1))
        posterior = stream.marginal(Fact("Trig", ("a", 1)))
        assert abs(posterior - 3 / 7) < 0.04

    def test_agrees_with_one_shot_likelihood_weighting(self):
        evidence = repro.observe("Alarm", "a", 1)
        stream = cascade_session(seed=3).stream(3000)
        stream.observe(evidence)
        one_shot = cascade_session(seed=3).observe(evidence) \
            .posterior(method="likelihood", n=3000)
        fact = Fact("Trig", ("a", 1))
        assert abs(stream.marginal(fact) - one_shot.marginal(fact)) < 0.05

    def test_fact_evidence_masks_worlds(self):
        stream = cascade_session().stream(3000)
        stream.observe(Fact("Trig", ("a", 1)))
        assert stream.n_alive < stream.n_worlds
        assert stream.marginal(Fact("Trig", ("a", 1))) == 1.0
        assert abs(stream.marginal(Fact("Alarm", ("a", 1))) - 0.5) < 0.05

    def test_event_evidence_masks_worlds(self):
        stream = cascade_session().stream(2000)
        stream.observe(lambda world: Fact("Trig", ("a", 0)) in world)
        assert stream.marginal(Fact("Trig", ("a", 0))) == 1.0
        assert stream.marginal(Fact("Alarm", ("a", 1))) == 0.0

    def test_posterior_result_carries_diagnostics(self):
        stream = cascade_session().stream(500)
        stream.observe(repro.observe("Alarm", "a", 1))
        result = stream.posterior()
        assert result.kind == "stream"
        assert result.n_runs == 500
        assert result.effective_sample_size is not None
        assert 0 < result.effective_sample_size <= 500
        assert result.diagnostics["n_evidence"] == 1
        marginals = fact_marginals(result.pdb)
        assert marginals[Fact("Site", ("a",))] == pytest.approx(1.0)


class TestIncrementalExactness:
    def test_incremental_equals_pre_seeded_stream(self):
        # Evidence applied one observe() at a time must land on the
        # same weights as a stream opened over a session that already
        # carries the evidence (stream() replays session.evidence).
        evidence = repro.observe("Alarm", "a", 1)
        incremental = cascade_session().stream(1500)
        incremental.observe(evidence)
        seeded = cascade_session().observe(evidence).stream(1500)
        np.testing.assert_array_equal(incremental.weights,
                                      seeded.weights)
        fact = Fact("Trig", ("a", 1))
        assert incremental.marginal(fact) == seeded.marginal(fact)

    def test_retraction_restores_the_prior_exactly(self):
        stream = cascade_session().stream(1200)
        fact = Fact("Trig", ("a", 1))
        before = stream.marginal(fact)
        weights_before = stream.weights.copy()
        token = stream.observe(repro.observe("Alarm", "a", 1))
        assert stream.marginal(fact) != before
        stream.retract(token)
        assert stream.marginal(fact) == before
        np.testing.assert_array_equal(stream.weights, weights_before)

    def test_mask_retraction_revives_worlds(self):
        stream = cascade_session().stream(1000)
        token = stream.observe(Fact("Trig", ("a", 1)))
        assert stream.n_alive < stream.n_worlds
        stream.retract(token)
        assert stream.n_alive == stream.n_worlds


class TestEdgeCases:
    def test_retract_of_never_observed_token(self):
        stream = cascade_session().stream(100)
        with pytest.raises(ValidationError, match="never observed"):
            stream.retract(123)

    def test_double_retract(self):
        stream = cascade_session().stream(100)
        token = stream.observe(Fact("Site", ("a",)))
        stream.retract(token)
        with pytest.raises(ValidationError, match="retracted"):
            stream.retract(token)

    def test_duplicate_observation_key(self):
        stream = cascade_session().stream(200)
        stream.observe(repro.observe("Alarm", "a", 1))
        with pytest.raises(ValidationError, match="retract"):
            stream.observe(repro.observe("Alarm", "a", 0))

    def test_all_zero_weights_is_a_clear_error(self):
        # Flip density at 5 is zero everywhere: the evidence has zero
        # likelihood and the posterior must refuse, not emit NaNs.
        session = repro.compile("R(Flip<0.5>) :- true.").on(
            repro.Instance.empty(), seed=1)
        stream = session.stream(200)
        stream.observe(repro.observe("R", 5))
        with pytest.raises(MeasureError, match="zero"):
            stream.posterior()
        with pytest.raises(MeasureError):
            stream.marginal(Fact("R", (5,)))

    def test_single_surviving_world(self):
        # Continuous draws are a.s. distinct, so conditioning on one
        # sampled fact leaves exactly one world alive.
        session = repro.compile(
            "Temp(Normal<20.0, 4.0>) :- true.").on(
            repro.Instance.empty(), seed=5)
        stream = session.stream(50)
        marginals = fact_marginals(stream.posterior().pdb)
        target = next(fact for fact in marginals
                      if fact.relation == "Temp")
        stream.observe(target)
        assert stream.n_alive == 1
        assert stream.marginal(target) == 1.0
        assert stream.effective_sample_size() == pytest.approx(1.0)

    def test_trigger_value_observation_declined(self):
        # Trig=1 is a pinned trigger value: forcing it would require
        # replaying the downstream Alarm layer, so the stream declines
        # (StreamingUnsupported) instead of answering wrongly.
        stream = cascade_session().stream(400)
        with pytest.raises(StreamingUnsupported):
            stream.observe(repro.observe("Trig", "a", 1))

    def test_declined_observation_leaves_stream_usable(self):
        stream = cascade_session().stream(400)
        before = stream.weights.copy()
        with pytest.raises(StreamingUnsupported):
            stream.observe(repro.observe("Trig", "a", 1))
        np.testing.assert_array_equal(stream.weights, before)
        assert stream.n_evidence == 0
        stream.observe(repro.observe("Alarm", "a", 1))
        assert stream.n_evidence == 1

    def test_shared_streams_rejected(self):
        # Per-world spawn streams are the only scheme; "streams" is
        # not a config field.
        session = cascade_session()
        with pytest.raises(ValidationError,
                           match="unknown ChaseConfig field"):
            session.stream(50, streams="shared")

    def test_generator_seed_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            cascade_session(seed=rng).stream(50)

    def test_resample_threshold_validation(self):
        with pytest.raises(ValidationError, match="resample_threshold"):
            cascade_session(resample_threshold=1.5)
        with pytest.raises(ValidationError, match="resample_threshold"):
            cascade_session(resample_threshold=True)


class TestSessionInterplay:
    def test_one_shot_posterior_still_works_after_stream(self):
        session = cascade_session()
        stream = session.stream(800)
        stream.observe(repro.observe("Alarm", "a", 1))
        result = session.observe(repro.observe("Alarm", "a", 1)) \
            .posterior(method="likelihood", n=800)
        fact = Fact("Trig", ("a", 1))
        assert abs(result.marginal(fact) - 3 / 7) < 0.08
        # The stream is unaffected by the session-side query.
        assert stream.n_evidence == 1
        assert abs(stream.marginal(fact) - 3 / 7) < 0.08

    def test_plain_sampling_still_works_after_stream(self):
        session = cascade_session()
        session.stream(200)
        sampled = session.sample(500)
        assert abs(sampled.marginal(Fact("Trig", ("a", 1))) - 0.6) < 0.1


class TestResampling:
    def test_resample_triggers_and_is_deterministic(self):
        streams = []
        for _repeat in range(2):
            stream = cascade_session(resample_threshold=1.0).stream(2000)
            stream.observe(repro.observe("Alarm", "a", 1))
            streams.append(stream)
        first, second = streams
        assert first.resamples > 0
        assert first.resamples == second.resamples
        np.testing.assert_array_equal(first.weights, second.weights)
        fact = Fact("Trig", ("a", 1))
        assert first.marginal(fact) == second.marginal(fact)
        assert abs(first.marginal(fact) - 3 / 7) < 0.05

    def test_resample_preserves_the_posterior(self):
        stream = cascade_session().stream(4000)
        stream.observe(repro.observe("Alarm", "a", 1))
        fact = Fact("Trig", ("a", 1))
        before = stream.marginal(fact)
        stream.resample()
        assert stream.resamples == 1
        # Systematic resampling is low-variance: the marginal moves by
        # at most one particle weight's worth.
        assert abs(stream.marginal(fact) - before) < 0.03

    def test_fresh_seed_resamples_from_the_world_streams_root(
            self, monkeypatch, handed_world_rngs):
        # The stream builds no per-world sampling stream; resampling
        # streams are worlds n, n+1, ... of one root entropy, drawn
        # once for a fresh (None) seed.
        from repro.api import stream as stream_module
        resample_roots = []
        world_rng = stream_module.world_rng

        def spy(entropy, world):
            resample_roots.append((entropy, world))
            return world_rng(entropy, world)

        monkeypatch.setattr(stream_module, "world_rng", spy)
        stream = cascade_session(seed=None).stream(50)
        stream.observe(repro.observe("Alarm", "a", 1))
        stream.resample()
        stream.resample()
        assert handed_world_rngs == []
        assert resample_roots == [(stream._entropy, 50),
                                  (stream._entropy, 51)]

    def test_pre_resample_evidence_cannot_be_retracted(self):
        stream = cascade_session().stream(1000)
        token = stream.observe(repro.observe("Alarm", "a", 1))
        stream.resample()
        with pytest.raises(ValidationError, match="resampl"):
            stream.retract(token)


class TestRetractFreesEvidence:
    def test_observe_retract_cycles_retain_no_memory(self):
        # Every applied observation keeps an n-float weight delta for
        # its undo; a retracted one must be dropped, or a long-lived
        # served stream grows ~80 KB per cycle at n=10k.
        import gc
        import tracemalloc

        stream = cascade_session().stream(10_000)
        evidence = repro.observe("Alarm", "a", 1)
        stream.retract(stream.observe(evidence))
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(100):
                stream.retract(stream.observe(evidence))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stream.n_evidence == 0
        assert retained < 1_000_000, f"{retained} bytes retained"


#: The served sensor pipeline: 2^8 Flaky patterns over eight sensors.
SENSOR_PIPELINE = """
    Lifetime(s, Exponential<0.1>) :- Sensor(s, mu).
    Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
    Flaky(s, Flip<0.05>)          :- Sensor(s, mu).
    Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
"""


class TestSingletonGroups:
    def test_observe_on_eight_sensor_stream_at_default_config(self):
        # Rare Flaky patterns form one-world signature groups.  They
        # stay columnar, so the stream opens and an observed Reading
        # re-weights every world.
        instance = repro.Instance.from_dict(
            {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
        stream = repro.compile(SENSOR_PIPELINE).on(
            instance, seed=0).stream(10_000)
        stream.observe(repro.observe("Reading", "t3", 19.0))
        assert stream.n_evidence == 1
        assert stream.n_alive == 10_000
        assert sum(len(group.members) == 1
                   for group in stream._outcome.groups) > 0


class TestCopyOnWrite:
    def test_snapshot_keeps_its_table_across_a_forced_observe(self):
        # Observing Reading forces the observed value into that
        # firing's draws.  The stream swaps in a forced copy; a
        # posterior taken before keeps reading the draws it was taken
        # over, byte for byte, through the observe and the retract.
        from repro.serving import protocol
        instance = repro.Instance.from_dict(
            {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
        stream = repro.compile(SENSOR_PIPELINE).on(
            instance, seed=0).stream(2000)
        snapshot = stream.posterior()

        def table(result):
            return protocol.encode_line(
                protocol.marginals_payload(result.pdb))

        before = table(snapshot)
        token = stream.observe(repro.observe("Reading", "t3", 19.0))
        assert Fact("Reading", ("t3", 19.0)) \
            in stream.posterior().fact_marginals()
        assert table(snapshot) == before
        stream.retract(token)
        assert table(snapshot) == before
        assert table(stream.posterior()) == before


class TestFactEvent:
    def test_fact_event_reads_the_batch_columnar(self):
        # ContainsFactEvent is the one fact event; a bare Fact is its
        # shorthand.  Either masks the same worlds off the merged scan
        # and never expands the batch into worlds.
        from repro.pdb.events import ContainsFactEvent
        instance = repro.Instance.from_dict(
            {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
        stream = repro.compile(SENSOR_PIPELINE).on(
            instance, seed=0).stream(2000)
        flaky = Fact("Flaky", ("t1", 1))
        prior = stream._pdb
        token = stream.observe(ContainsFactEvent(flaky))
        by_event = stream.weights
        assert 0 < stream.n_alive < 2000
        stream.retract(token)
        stream.observe(flaky)
        np.testing.assert_array_equal(stream.weights, by_event)
        assert prior.materializations == 0
        # A forcing observation re-reads the active mask on the new
        # ensemble, columnar too.
        stream.observe(repro.observe("Reading", "t3", 19.0))
        assert stream._pdb is not prior
        assert stream.marginal(flaky) == pytest.approx(1.0, abs=1e-12)
        assert stream._pdb.materializations == 0


def sensor_stream(n=2000):
    instance = repro.Instance.from_dict(
        {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
    return repro.compile(SENSOR_PIPELINE).on(instance, seed=0).stream(n)


def anomaly_plan():
    """count(Flaky(s, 1) joined with Anomaly): reads no Reading."""
    return Aggregate(scan("Flaky", "s", "f").where(f=1)
                     .join(scan("Anomaly", "s", "a")), (),
                     {"n": agg_count()})


def reading_plan():
    """max(Reading(t3)): reads the relation an observation forces."""
    return Aggregate(scan("Reading", "s", "v").where(s="t3"), (),
                     {"m": agg_max("v")})


def answered(stream, plan) -> dict:
    payload = protocol.query_payload(stream.posterior().query(plan))
    del payload["elapsed_seconds"]
    return payload


def reread(stream, plan) -> dict:
    """The push-forward over a fresh ensemble, which holds no index."""
    fresh = ColumnarMonteCarloPDB(stream._outcome, stream._visible)
    return dict(columnar.query_distribution(
        WeightedColumnarPDB(fresh, stream.weights), plan).items())


@pytest.fixture
def evaluations(monkeypatch):
    """Every plan the columnar planner evaluates, in call order."""
    calls = []
    evaluate = columnar._evaluate

    def counted(pdb, query):
        calls.append(query)
        return evaluate(pdb, query)

    monkeypatch.setattr(columnar, "_evaluate", counted)
    return calls


class TestAnswerIndex:
    """A streamed plan is evaluated once per state of what it reads."""

    def test_cycles_over_other_relations_evaluate_once(self,
                                                       evaluations):
        # Observing Reading forces Reading's draws only; the anomaly
        # count reads Flaky and Anomaly, so 50 observe/query/retract
        # cycles share one evaluation and answer as a fresh stream
        # given the same reading does.
        stream = sensor_stream()
        plan = anomaly_plan()
        rng = np.random.default_rng(1)
        for cycle in range(50):
            sensor = f"t{cycle % 8}"
            value = float(rng.normal(18.0 + 0.5 * (cycle % 8), 1.4))
            evidence = repro.observe("Reading", sensor, value)
            token = stream.observe(evidence)
            payload = answered(stream, plan)
            stream.retract(token)
            if cycle % 10 == 0:
                fresh = sensor_stream()
                fresh.observe(evidence)
                assert answered(fresh, anomaly_plan()) == payload
        assert sum(1 for query in evaluations if query is plan) == 1

    def test_a_plan_over_the_forced_relation_reads_each_state(
            self, evaluations):
        stream = sensor_stream()
        plan = reading_plan()
        prior = stream.posterior().query(plan).expected_aggregate()
        assert prior != 19.25
        token = stream.observe(repro.observe("Reading", "t3", 19.25))
        assert stream.posterior().query(plan).expected_aggregate() \
            == pytest.approx(19.25, abs=1e-12)
        assert len(evaluations) == 2
        stream.retract(token)
        assert stream.posterior().query(plan).expected_aggregate() \
            == prior
        assert len(evaluations) == 3
        stream.observe(repro.observe("Reading", "t3", 18.0))
        assert stream.posterior().query(plan).expected_aggregate() \
            == pytest.approx(18.0, abs=1e-12)
        assert len(evaluations) == 4

    def test_masks_and_resampling_keep_the_index(self, evaluations):
        stream = sensor_stream()
        plan = anomaly_plan()
        prior = answered(stream, plan)
        token = stream.observe(Fact("Flaky", ("t1", 1)))
        masked = answered(stream, plan)
        assert masked != prior
        assert dict(stream.posterior().query(plan).distribution()
                    .items()) == reread(stream, anomaly_plan())
        stream.retract(token)
        assert answered(stream, plan) == prior
        stream.observe(Fact("Flaky", ("t2", 1)))
        stream.observe(repro.observe("Reading", "t2", 19.0))
        stream.resample()
        assert stream.resamples == 1
        assert dict(stream.posterior().query(plan).distribution()
                    .items()) == reread(stream, anomaly_plan())
        assert sum(1 for query in evaluations if query is plan) == 1


class TestSlidingWindow:
    def test_window_auto_retracts_oldest(self):
        windowed = cascade_session().stream(1500, max_window=1)
        windowed.observe(repro.observe("Alarm", "a", 1))
        windowed.observe(Fact("Trig", ("a", 1)))
        assert windowed.n_evidence == 1
        # Equivalent to a fresh stream holding only the newest item.
        fresh = cascade_session().stream(1500)
        fresh.observe(Fact("Trig", ("a", 1)))
        np.testing.assert_array_equal(windowed.weights, fresh.weights)

    def test_window_validation(self):
        with pytest.raises(ValidationError, match="max_window"):
            cascade_session().stream(100, max_window=0)
