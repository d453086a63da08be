"""E14/E15: scaling behaviour of the core pipelines.

Chase throughput vs instance size, exact-inference tree size vs
branching, parallel-chase fan-out, query evaluation on PDBs and
program-server throughput - all driven through the compile-once
facade.
"""

import math
import time

import pytest

from repro.api import compile as compile_program
from repro.core.exact import exact_sequential_spdb
from repro.core.observe import observe
from repro.core.program import Program
from repro.pdb.events import (AtLeastEvent, ContainsFactEvent, Equals,
                              FactSet, Interval)
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.query import (Aggregate, agg_count, aggregate_distribution,
                         scan)
from repro.serving import ProgramServer, protocol
from repro.workloads.generators import (bernoulli_grid_program,
                                        earthquake_city_instance,
                                        items_instance)
from repro.workloads.paper import example_3_4_program


class TestE14ChaseScaling:
    @pytest.mark.parametrize("n_cities", [10, 40])
    def test_sequential_chase(self, benchmark, n_cities):
        instance = earthquake_city_instance(n_cities, 4, seed=0)
        session = compile_program(example_3_4_program()).on(instance)
        run = benchmark(lambda: session.run(rng=0))
        assert run.terminated

    @pytest.mark.parametrize("n_items", [50, 400])
    def test_parallel_fanout(self, benchmark, n_items):
        instance = items_instance(n_items)
        session = compile_program(bernoulli_grid_program()).on(
            instance, parallel=True)
        run = benchmark(lambda: session.run(rng=0))
        assert run.terminated and run.steps == 2


class TestE14ExactTreeScaling:
    @pytest.mark.parametrize("n_flips", [4, 8, 12])
    def test_tree_growth(self, benchmark, n_flips):
        # n independent flips: 2^n leaf worlds.
        rules = "\n".join(f"F{i}(Flip<0.5>) :- true."
                          for i in range(n_flips))
        program = Program.parse(rules)
        pdb = benchmark(lambda: exact_sequential_spdb(program))
        assert pdb.support_size() == 2 ** n_flips
        assert pdb.total_mass() == pytest.approx(1.0)


class TestE14SamplerScaling:
    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    @pytest.mark.parametrize("n_samples", [100, 1000])
    def test_monte_carlo_throughput(self, benchmark, n_samples,
                                    backend):
        instance = earthquake_city_instance(5, 4, seed=1)
        session = compile_program(example_3_4_program()).on(instance,
                                                            seed=0)
        pdb = benchmark(lambda: session.sample(n_samples,
                                               backend=backend).pdb)
        assert pdb.n_runs == n_samples

    def test_monte_carlo_error_decay(self, benchmark):
        # Estimator error shrinks ~ 1/sqrt(n): the workhorse fact
        # behind every Monte-Carlo comparison in this suite.
        compiled = compile_program("R(Flip<0.3>) :- true.")
        from repro.pdb.facts import Fact
        f = Fact("R", (1,))

        def errors():
            out = []
            for n, seed in ((200, 0), (5000, 1)):
                pdb = compiled.on(seed=seed).sample(n).pdb
                out.append(abs(pdb.marginal(f) - 0.3))
            return out

        small_n, large_n = benchmark(errors)
        assert large_n <= small_n + 0.02


class TestE15ServingScaling:
    """Program-server throughput (E15)."""

    def test_server_request_throughput(self, benchmark):
        # Mixed-workload requests/sec through the transport-free
        # handler - the steady-state cost of a served request once
        # the caches are warm.  Zero recompilation is asserted via
        # the same counter the acceptance criterion names.
        coin = "Heads(x, Flip<0.5>) :- Coin(x)."
        cascade = ("Trig(x, Flip<0.6>) :- Site(x).\n"
                   "Alarm(x, Flip<0.5>) :- Trig(x, 1).")
        coins = {"Coin": [[0], [1]]}
        sites = {"Site": [[0], [1], [2]]}
        requests = [
            {"op": "ping"},
            {"op": "analyze", "program": coin},
            {"op": "sample", "program": coin, "instance": coins,
             "n": 100, "config": {"seed": 1}},
            {"op": "marginal", "program": coin, "instance": coins,
             "fact": ["Heads", [0, 1]], "n": 100,
             "config": {"seed": 2}},
            {"op": "sample", "program": cascade, "instance": sites,
             "n": 100, "config": {"seed": 3}},
        ]
        server = ProgramServer()

        def serve_mixed():
            for request in requests:
                reply = server.handle(request)
                assert reply["ok"], reply
            return server.stats["requests"]

        serve_mixed()  # warm both program/session caches
        benchmark(serve_mixed)
        assert server.stats["programs_compiled"] == 2
        assert server.stats["errors"] == 0
        # 4 of every 5 requests reach the compile cache; only the
        # first call's 2 compiles ever miss.
        assert server.stats["program_cache_hits"] \
            == server.stats["requests"] * 4 // 5 - 2


class TestE16StreamingScaling:
    """Streaming-posterior update cost vs the one-shot chase (E16).

    The streaming contract: once the 10k-world batch is sampled, an
    ``observe()`` is a handful of numpy passes over per-world weight
    arrays - O(evidence), not O(program) - so an evidence update must
    be far cheaper than re-running ``posterior(method="likelihood")``
    from scratch over the same ensemble.
    """

    N_WORLDS = 10_000
    N_CITIES = 20

    @classmethod
    def _session(cls, seed: int = 0):
        instance = Instance.from_dict(
            {"City": [(f"c{i}",) for i in range(cls.N_CITIES)]})
        return compile_program(
            "Temp(c, Normal<20.0, 4.0>) :- City(c).").on(instance,
                                                         seed=seed)

    def test_stream_observe_cycle(self, benchmark):
        stream = self._session().stream(self.N_WORLDS)
        evidence = observe("Temp", "c0", 21.5)

        def cycle():
            stream.retract(stream.observe(evidence))

        benchmark(cycle)
        assert stream.n_evidence == 0
        assert stream.n_worlds == self.N_WORLDS

    def test_stream_open(self, benchmark):
        session = self._session()
        stream = benchmark(lambda: session.stream(self.N_WORLDS))
        assert stream.n_worlds == self.N_WORLDS

    def test_observe_cheaper_than_fresh_posterior(self):
        # The acceptance-criterion assertion: a per-observe update on
        # the 10k-world stream is >= 10x cheaper than a fresh
        # likelihood-weighted posterior on the scalar loop.  The fresh
        # side is timed on a 20x smaller run count - a strict lower
        # bound on the full job (the scalar weighted chase is linear
        # in n) - to keep the benchmark's wall clock in seconds, not
        # minutes.  The batched posterior is not linear at small n,
        # so the bound pins backend="scalar".
        session = self._session()
        evidence = observe("Temp", "c0", 21.5)
        stream = session.stream(self.N_WORLDS)
        conditioned = session.observe(evidence)

        def observe_cycle():
            stream.retract(stream.observe(evidence))

        def fresh_posterior():
            conditioned.posterior(method="likelihood",
                                  n=self.N_WORLDS // 20,
                                  backend="scalar")

        observe_cycle()  # warm the mask/weight buffers
        fresh_posterior()
        per_observe = float("inf")
        fresh_lower_bound = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            observe_cycle()
            per_observe = min(per_observe,
                              time.perf_counter() - start)
            start = time.perf_counter()
            fresh_posterior()
            fresh_lower_bound = min(fresh_lower_bound,
                                    time.perf_counter() - start)
        assert fresh_lower_bound > 10 * per_observe, (
            f"streaming observe ({per_observe * 1e3:.2f} ms) is not "
            f">= 10x cheaper than a fresh posterior (>= "
            f"{fresh_lower_bound * 1e3:.2f} ms at n/20)")


class TestE14QueryScaling:
    @pytest.mark.parametrize("n_worlds", [100, 1000])
    def test_query_over_pdb(self, benchmark, n_worlds):
        instance = earthquake_city_instance(4, 4, seed=2)
        pdb = compile_program(example_3_4_program()).on(
            instance, seed=1).sample(n_worlds).pdb

        def query():
            # A fresh plan object per round: answers are memoized per
            # (ensemble, plan object), and the evaluation is what is
            # timed here.
            return Aggregate(scan("Alarm", "unit"), (),
                             {"n": agg_count()})

        distribution = benchmark(
            lambda: aggregate_distribution(pdb, query()))
        assert distribution.total_mass() == pytest.approx(1.0)


class TestE17ColumnarQueryPushdown:
    """Compiled columnar plans vs the materializing path (E17).

    The pushdown contract: a structural join+aggregate over a
    10k-world columnar batch compiles to mask/reduction passes over
    the sample arrays and never expands the grouped worlds, so it must
    beat evaluating the same plan per materialized world by a wide
    margin.  The materializing side is timed on a fresh columnar view
    of the *same* batch outcome each round - re-materializing is that
    path's real cost, exactly what the pushdown exists to avoid.
    """

    N_WORLDS = 10_000

    def test_join_aggregate_speedup(self):
        from repro.engine.batched import ColumnarMonteCarloPDB
        from repro.measures.discrete import DiscreteMeasure
        from repro.query.columnar import explain

        instance = earthquake_city_instance(4, 4, seed=2)
        session = compile_program(example_3_4_program()).on(instance,
                                                            seed=1)
        pdb = session.sample(self.N_WORLDS).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)

        def plan():
            # Fresh per call: the answer index is memoized per plan
            # object, and the pushdown's evaluation is what is timed.
            return Aggregate(
                scan("Alarm", "unit").join(scan("House", "unit", "city")),
                (), {"n": agg_count()})

        query = plan()
        assert explain(pdb, query) == "columnar"
        visible = session.compiled.visible_relations

        def columnar():
            return aggregate_distribution(pdb, plan())

        def materializing():
            fresh = ColumnarMonteCarloPDB(pdb._outcome, visible)
            counts = [next(iter(query.evaluate(world).rows))[0]
                      for world in fresh.worlds]
            return DiscreteMeasure.from_samples(counts).scale(
                fresh.total_mass())

        compiled_answer = columnar()  # warm (and correctness anchor)
        assert pdb.materializations == 0, \
            "the columnar plan expanded the grouped worlds"
        assert materializing() == compiled_answer
        pushdown = float("inf")
        materialized = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            columnar()
            pushdown = min(pushdown, time.perf_counter() - start)
            start = time.perf_counter()
            materializing()
            materialized = min(materialized,
                               time.perf_counter() - start)
        assert pdb.materializations == 0
        assert materialized > 5 * pushdown, (
            f"columnar pushdown ({pushdown * 1e3:.1f} ms) is not "
            f">= 5x faster than the materializing path "
            f"({materialized * 1e3:.1f} ms) on "
            f"{self.N_WORLDS} worlds")


    SENSOR_PROGRAM = """
        Lifetime(s, Exponential<0.1>) :- Sensor(s, mu).
        Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
        Flaky(s, Flip<0.05>)          :- Sensor(s, mu).
        Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
    """
    #: count(Flaky(s, 1) joined with Anomaly(s, a)), as a served plan.
    ANOMALY_COUNT_PLAN = {
        "op": "aggregate", "group_by": [],
        "aggregates": {"n": {"fn": "count", "column": None}},
        "source": {
            "op": "join",
            "left": {"op": "where", "equalities": {"f": 1},
                     "source": {"op": "scan", "relation": "Flaky",
                                "columns": ["s", "f"]}},
            "right": {"op": "scan", "relation": "Anomaly",
                      "columns": ["s", "a"]}}}

    def test_streamed_query_payload(self, benchmark):
        # A served stream_query: the anomaly count on the 8-sensor,
        # 10k-world stream after one observation, read through
        # query_payload (distribution, P(non-empty), expectation)
        # with the plan parsed per call like a request.
        instance = Instance.from_dict(
            {"Sensor": [(f"t{i}", 18.0 + 0.5 * i) for i in range(8)]})
        stream = compile_program(self.SENSOR_PROGRAM).on(
            instance, seed=0).stream(self.N_WORLDS)
        stream.observe(observe("Reading", "t3", 19.0))

        def query():
            return protocol.query_payload(stream.posterior().query(
                protocol.parse_plan(self.ANOMALY_COUNT_PLAN)))

        payload = benchmark(query)
        assert payload["strategy"] == "columnar"
        assert payload["n_runs"] == self.N_WORLDS
        assert sum(answer["probability"] for answer in payload["answers"]) \
            == pytest.approx(1.0)
        assert stream.posterior().pdb._columnar.materializations == 0


class TestE18GuidedConditioning:
    """Guided conditioning vs rejection on rare evidence (E18).

    Backward evidence propagation (repro.core.backward) turns a
    1-in-1000 discrete event into truncated proposals with acceptance
    1.0, so the cost of one posterior-effective world must undercut
    rejection's by far more than an order of magnitude - >= 20x is
    the gate here, with about 70-100x the typical observed ratio on a
    warm session (rejection keeps its accepted worlds columnar) -
    while the importance-weighted marginals stay law-exact (anchored
    against ``method="exact"`` on the same session, and against the
    closed-form truncated normal on the continuous side).
    """

    DIE_TEXT = """
        Roll(d, DiscreteUniform<1, 1000>) :- Die(d).
        Win(d) :- Roll(d, 1000).
    """
    HEIGHT_TEXT = "Height(p, Normal<170.0, 100.0>) :- Person(p)."

    @classmethod
    def _die_session(cls):
        return compile_program(cls.DIE_TEXT) \
            .on(Instance.of(Fact("Die", ("d1",)))) \
            .observe(ContainsFactEvent(Fact("Win", ("d1",))))

    def test_guided_rare_event_throughput(self, benchmark):
        session = self._die_session()
        result = benchmark(
            lambda: session.posterior(method="guided", n=512, seed=3))
        assert result.diagnostics["acceptance_rate"] == 1.0
        assert result.diagnostics["n_pinned"] == 1

    def test_guided_beats_rejection_20x(self):
        session = self._die_session()
        # Untimed: the first call also builds the capability report,
        # the batch sampler and the backward plan, which both timed
        # calls then share.
        session.posterior(method="guided", n=512, seed=3)
        start = time.perf_counter()
        guided = session.posterior(method="guided", n=512, seed=3)
        guided_cost = (time.perf_counter() - start) \
            / guided.diagnostics["n_accepted"]
        start = time.perf_counter()
        rejection = session.posterior(method="rejection", n=6000,
                                      seed=5)
        rejection_cost = (time.perf_counter() - start) \
            / rejection.diagnostics["n_accepted"]
        assert rejection_cost > 20 * guided_cost, (
            f"guided conditioning ({guided_cost * 1e6:.0f} us per "
            f"posterior world) is not >= 20x cheaper than rejection "
            f"({rejection_cost * 1e6:.0f} us per accepted world at "
            f"acceptance "
            f"{rejection.diagnostics['acceptance_rate']:.4f})")
        # exact marginal agreement: conditioning on Win forces the
        # winning roll with probability one, and guided must report
        # that *exactly* (weights are uniform across proposals)
        exact = session.posterior(method="exact")
        for f in (Fact("Roll", ("d1", 1000)), Fact("Win", ("d1",))):
            assert exact.pdb.marginal(f) == pytest.approx(1.0)
            assert guided.pdb.marginal(f) == pytest.approx(1.0)

    def test_continuous_truncation_agreement(self, benchmark):
        """Height >= 190 under N(170, 100): acceptance 1.0 and the
        posterior mean of the closed-form truncated normal."""
        tall = AtLeastEvent(
            FactSet("Height", Equals("ada"),
                    Interval(190.0, float("inf"))), 1)
        session = compile_program(self.HEIGHT_TEXT) \
            .on(Instance.of(Fact("Person", ("ada",)))).observe(tall)
        result = benchmark(
            lambda: session.posterior(method="guided", n=1500, seed=3))
        assert result.diagnostics["acceptance_rate"] == 1.0
        assert result.diagnostics["n_truncated_regions"] == 1
        mean = result.pdb.expectation(
            lambda w: next(iter(w.facts_of("Height"))).args[1])
        z = 2.0  # (190 - 170) / sigma
        hazard = (math.exp(-z * z / 2) / math.sqrt(2 * math.pi)) \
            / (1 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
        closed_form = 170.0 + 10.0 * hazard
        assert abs(mean - closed_form) < 0.4, (
            f"guided posterior mean {mean:.2f} vs closed-form "
            f"truncated normal {closed_form:.2f}")
