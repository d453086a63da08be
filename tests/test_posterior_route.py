"""One posterior route: every Monte-Carlo method batches or runs one loop.

``Session.posterior`` sends ``likelihood``, ``rejection``, ``guided``
and ``auto`` through one batched route; a call the eligibility check
refuses, or a batch the engine declines, runs the one scalar loop
(:func:`repro.core.chase.run_chase_prepared`) and says why.  These
tests pin the contracts that route shares across methods and
backends: the step budget, zero-density observations, the
eligibility answer, ``auto``'s choices, the weight scale and the one
fact event.
"""

import math

import pytest

import repro
from repro.core.observe import observe
from repro.core.policies import LastPolicy
from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import StreamingUnsupported, ValidationError
from repro.pdb.events import (AtLeastEvent, ContainsFactEvent, FactSet,
                              Interval)
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.serving.protocol import posterior_payload
from repro.workloads.paper import discrete_cycle_program, trigger_instance

#: The two routes every contract below holds on, by the config they
#: add: ``"auto"`` keeps the default backend, which batches wherever
#: the gate admits the call and the engine keeps the batch, and
#: ``"scalar"`` pins the scalar loop.
BACKENDS = {"auto": {}, "scalar": {"backend": "scalar"}}

CASCADE = """
    Trig(x, Flip<0.6>) :- Site(x).
    Alarm(x, Flip<0.5>) :- Trig(x, 1).
"""
SITE = Instance.of(Fact("Site", ("a",)))
TRIG = Fact("Trig", ("a", 1))

DIE = """
    Roll(d, DiscreteUniform<1, 1000>) :- Die(d).
    Win(d) :- Roll(d, 1000).
"""


def _cascade(**overrides):
    return repro.compile(CASCADE).on(SITE, **overrides)


class TestStepBudget:
    """One rule for ``max_steps``: a run that ends exactly at the budget
    terminated; a budget every run overruns says so."""

    PROGRAM = "R(Flip<0.5>) :- true."

    @staticmethod
    def _run(verb, session):
        if verb == "sample":
            return session.sample(20)
        if verb == "likelihood":
            return session.observe(observe("R", 1)).posterior(
                method="likelihood", n=20)
        return session.observe(lambda world: True).posterior(
            method="rejection", n=20)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("verb", ["sample", "likelihood",
                                      "rejection"])
    def test_run_ending_at_the_budget_terminates(self, verb, backend):
        session = repro.compile(self.PROGRAM).on(
            seed=1, max_steps=2, **BACKENDS[backend])
        assert self._run(verb, session).n_truncated == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("verb", ["likelihood", "rejection"])
    def test_every_run_truncated_names_the_budget(self, verb, backend):
        session = repro.compile(self.PROGRAM).on(
            seed=1, max_steps=1, **BACKENDS[backend])
        with pytest.raises(ValidationError, match="increase max_steps"):
            self._run(verb, session)


class TestZeroDensityObservation:
    """An observed value the law cannot produce weighs its worlds zero;
    worlds that never draw it keep their weight."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("method", ["likelihood", "guided", "auto"])
    @pytest.mark.parametrize("program,value", [
        (CASCADE, 2),
        ("""Trig(x, Flip<0.6>) :- Site(x).
            Alarm(x, Normal<0.0, 1.0>) :- Trig(x, 1).""", 50.0),
    ], ids=["flip", "normal"])
    def test_only_worlds_without_the_draw_survive(self, program, value,
                                                  method, backend):
        session = repro.compile(program).on(SITE, seed=3,
                                            **BACKENDS[backend])
        result = session.observe(observe("Alarm", "a", value)) \
            .posterior(method=method, n=200)
        assert result.marginal(TRIG) == 0.0
        assert 0.0 < result.diagnostics["mean_weight"] < 1.0


class TestOneEligibilityAnswer:
    """``sample``, every posterior method and ``stream`` ask one check.

    It asks two questions - ``backend="scalar"``, and a program the
    capability report refuses - and the chase order is neither.
    """

    #: CASCADE plus a Poisson cycle that never fires on SITE: the
    #: program is not weakly acyclic, so the report refuses it.
    CYCLIC = CASCADE + """
        Chain(v, Poisson<1.0>) :- Trigger(v).
        Trigger(w) :- Chain(v, w).
    """

    REFUSALS = {"backend": (CASCADE, {"backend": "scalar"}),
                "program": (CYCLIC, {})}

    ORDERS = {"policy": {"policy": LastPolicy()},
              "parallel": {"parallel": True}}

    VERBS = ["sample", "likelihood", "rejection", "guided", "auto",
             "stream"]

    @staticmethod
    def _run(session, verb):
        if verb == "sample":
            return session.sample(50)
        evidence = ContainsFactEvent(TRIG) if verb == "rejection" \
            else observe("Alarm", "a", 1)
        return session.observe(evidence).posterior(method=verb, n=50)

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    @pytest.mark.parametrize("verb", VERBS)
    def test_refused_call_runs_the_scalar_loop(self, verb, refusal):
        program, overrides = self.REFUSALS[refusal]
        session = repro.compile(program).on(SITE, seed=5, **overrides)
        if verb == "stream":
            with pytest.raises(StreamingUnsupported):
                session.stream(50)
            return
        result = self._run(session, verb)
        assert result.backend == "scalar"
        reason = result.diagnostics["fallback_reason"]
        if refusal == "backend":
            assert reason == "backend='scalar' was requested"
        else:
            assert reason == repro.compile(program).analyze(
                deep=True).capabilities.batched.reasons[0]

    @pytest.mark.parametrize("order", sorted(ORDERS))
    @pytest.mark.parametrize("verb", VERBS)
    def test_chase_order_never_refuses_the_batch(self, verb, order):
        # Theorems 6.1 and 5.6: every policy and the parallel chase
        # share the output law the batch samples.
        session = _cascade(seed=5, **self.ORDERS[order])
        if verb == "stream":
            session.stream(50)
            return
        result = self._run(session, verb)
        assert result.backend == ("guided" if verb in ("guided", "auto")
                                  else "batched")
        assert "fallback_reason" not in result.diagnostics

    def test_eligible_call_batches_every_method(self):
        session = _cascade(seed=5)
        assert session.sample(50).backend == "batched"
        observed = session.observe(observe("Alarm", "a", 1))
        assert observed.posterior(method="likelihood",
                                  n=50).backend == "batched"
        assert observed.posterior(method="guided",
                                  n=50).backend == "guided"
        assert session.observe(ContainsFactEvent(TRIG)).posterior(
            method="rejection", n=50).backend == "batched"
        session.stream(50)


class TestAuto:
    def test_frequent_event_stays_rejection_in_one_batch(self):
        result = _cascade(seed=2).observe(ContainsFactEvent(TRIG)) \
            .posterior(method="auto", n=400)
        assert result.kind == "rejection"
        assert result.diagnostics["auto"] == "rejection"
        assert result.backend == "batched"
        assert result.diagnostics["n_proposed"] == 400
        assert result.marginal(TRIG) == 1.0

    def test_rare_die_event_escalates_to_guided(self):
        session = repro.compile(DIE).on(
            Instance.of(Fact("Die", ("d1",))), seed=2)
        result = session.observe(
            ContainsFactEvent(Fact("Win", ("d1",)))).posterior(
            method="auto", n=3000)
        assert result.kind == "guided"
        assert result.diagnostics["auto"] == "guided"
        assert result.diagnostics["unguided_acceptance"] < 0.1
        assert result.diagnostics["acceptance_rate"] == 1.0

    def test_observations_go_to_guided(self):
        result = _cascade(seed=2).observe(observe("Alarm", "a", 1)) \
            .posterior(method="auto", n=400)
        assert result.kind == "guided"
        assert result.diagnostics["auto"] == "guided"
        # Worlds without Trig(a, 1) never draw Alarm: P = 0.3 / 0.7.
        assert abs(result.marginal(TRIG) - 3 / 7) < 0.1

    def test_ineligible_program_runs_the_scalar_loop(self):
        session = repro.compile(discrete_cycle_program()).on(
            trigger_instance(), seed=7)
        result = session.observe(observe("Chain", 0, 1)).posterior(
            method="auto", n=64)
        assert result.backend == "scalar"
        assert result.diagnostics["auto"] == "likelihood"
        assert "weakly acyclic" in result.diagnostics["fallback_reason"]

    def test_mixed_evidence_on_an_ineligible_program(self):
        session = repro.compile(discrete_cycle_program()).on(
            trigger_instance(), seed=7)
        result = session.observe(
            observe("Chain", 0, 1),
            lambda world: len(world) > 1).posterior(method="auto", n=64)
        assert result.backend == "scalar"
        assert result.diagnostics["n_accepted"] > 0
        assert result.effective_sample_size > 0


class TestWeightScale:
    """Every path reports weights on the likelihood scale."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("method", ["likelihood", "guided", "auto"])
    def test_mean_weight_is_the_evidence_probability(self, method,
                                                     backend):
        result = repro.compile("A(Flip<0.3>) :- true.").on(
            seed=0, **BACKENDS[backend]).observe(observe("A", 1)).posterior(
            method=method, n=500)
        assert result.diagnostics["mean_weight"] == pytest.approx(0.3)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_density_is_the_weight(self, backend):
        result = repro.compile("X(Normal<0, 1>) :- true.").on(
            seed=5, **BACKENDS[backend]).observe(observe("X", 0.0)).posterior(
            method="likelihood", n=30)
        peak = 1.0 / math.sqrt(2 * math.pi)
        assert all(w == pytest.approx(peak) for w in result.pdb.weights)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_batched_likelihood_answers_the_weighted_api(self, backend):
        result = _cascade(seed=4, **BACKENDS[backend]).observe(
            observe("Alarm", "a", 1)).posterior(method="likelihood",
                                                n=300)
        pdb = result.pdb
        assert isinstance(pdb, repro.WeightedPDB)
        assert len(pdb.worlds) == len(pdb.weights) == 300
        assert pdb.prob(lambda world: TRIG in world) \
            == pytest.approx(result.marginal(TRIG))
        assert abs(result.marginal(TRIG) - 3 / 7) < 0.1
        assert pdb.weighted_mean(lambda world: [len(world)]) > 1.0
        assert len(pdb.values_of(lambda world: [len(world)])) == 300
        assert pdb.to_discrete().marginal(TRIG) \
            == pytest.approx(result.marginal(TRIG))


class TestGuidedDiagnostics:
    """Truncated regions and truncated runs are counted apart."""

    def test_payload_separates_regions_from_runs(self):
        tall = AtLeastEvent(FactSet("Height", "ada",
                                    Interval(190.0, math.inf)), 1)
        result = repro.compile(
            "Height(p, Normal<170.0, 100.0>) :- Person(p).").on(
            Instance.of(Fact("Person", ("ada",))), seed=3).observe(
            tall).posterior(method="guided", n=200)
        payload = posterior_payload(result)
        assert payload["n_truncated"] == 0
        assert payload["diagnostics"]["n_truncated_regions"] == 1
        assert "n_truncated" not in payload["diagnostics"]


#: The served 8-sensor pipeline: Flaky(t1, 1) holds in about 5 % of
#: its worlds, so ``auto`` escalates to guided.
SENSORS = """
    Lifetime(s, Exponential<0.1>) :- Sensor(s, mu).
    Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
    Flaky(s, Flip<0.05>)          :- Sensor(s, mu).
    Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
"""
SENSOR_DATA = Instance.from_dict(
    {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
FLAKY = Fact("Flaky", ("t1", 1))


class TestFactEvidence:
    """One fact event: ``ContainsFactEvent``, read columnar on a batch.

    A bare :class:`Fact` is shorthand for it at both conditioning
    entry points, which check evidence alike; the posterior route's
    event check reads it off the merged scan, so it never expands the
    batch into worlds.
    """

    @pytest.fixture
    def expansions(self, monkeypatch):
        """Every ensemble whose worlds get materialized."""
        expanded = []
        materialize = ColumnarMonteCarloPDB._materialize_slots

        def spy(pdb):
            expanded.append(pdb)
            return materialize(pdb)

        monkeypatch.setattr(ColumnarMonteCarloPDB, "_materialize_slots",
                            spy)
        return expanded

    @pytest.mark.parametrize("method", ["guided", "auto"])
    def test_fact_event_posterior_never_materializes(self, method,
                                                     expansions):
        result = repro.compile(SENSORS).on(SENSOR_DATA, seed=3).observe(
            ContainsFactEvent(FLAKY)).posterior(method=method, n=2000)
        assert result.kind == "guided"
        assert result.diagnostics["backend"] == "guided"
        if method == "auto":
            assert result.diagnostics["unguided_acceptance"] < 0.1
        assert result.pdb._columnar.materializations == 0
        assert expansions == []
        assert result.diagnostics["acceptance_rate"] == 1.0
        assert result.marginal(FLAKY) == 1.0

    @pytest.mark.parametrize("method", ["rejection", "guided", "auto",
                                        "exact"])
    def test_bare_fact_is_its_event(self, method):
        session = _cascade(seed=5)
        by_fact = session.observe(TRIG)
        by_event = session.observe(ContainsFactEvent(TRIG))
        assert [type(item) for item in by_fact.evidence] \
            == [ContainsFactEvent]
        first = posterior_payload(by_fact.posterior(method=method,
                                                    n=300))
        second = posterior_payload(by_event.posterior(method=method,
                                                      n=300))
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second

    def test_entry_points_reject_alike(self):
        session = _cascade(seed=5)
        stream = session.stream(50)
        for junk in ("Trig(a, 1)", 7, None):
            with pytest.raises(ValidationError) as by_session:
                session.observe(junk)
            with pytest.raises(ValidationError) as by_stream:
                stream.observe(junk)
            assert str(by_session.value) == str(by_stream.value)
            assert str(by_session.value).startswith("not evidence")
        assert stream.n_evidence == 0
