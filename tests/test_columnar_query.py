"""The columnar query pushdown: Session.query, planner, wire, shims.

Covers the unified query entry points (``Session.query`` /
``InferenceResult.query`` -> ``QueryResult``), the columnar planner's
strategy selection and its zero-materialization guarantee (served
queries never expand a world), the whole-batch planner's exact
identities and its
one-evaluation-per-plan memo, the relational-plan wire codec, the
served ``query`` op, the ``repro query`` CLI contract, and the
canonical ``repro.query`` imports (the ``repro.query.lifted`` shims
are gone since 2.0).
"""

import importlib
import io
import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import QueryResult, compile as compile_program
from repro.core.observe import observe
from repro.distributions.discrete import Flip
from repro.distributions.registry import default_registry
from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import ValidationError
from repro.ordering import tuple_sort_key
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB
from repro.query import (Aggregate, agg_avg, agg_count, agg_sum,
                         aggregate_answer, boolean_probability,
                         expected_aggregate, explain, plan_vectorizable,
                         query_answers, query_distribution, scan,
                         scanned_relations)
from repro.query import columnar
from repro.query.relalg import Scan
from repro.serving import ProgramServer, protocol
from repro.testing.oracles import ColumnarQueryOracle
from repro.workloads.generators import earthquake_city_instance
from repro.workloads.paper import example_3_4_instance, example_3_4_program

TEMP_PROGRAM = "Temp(c, Normal<20.0, 4.0>) :- City(c)."
COIN_PROGRAM = "Heads(x, Flip<0.5>) :- Coin(x)."


def cities(*names) -> Instance:
    return Instance.from_dict({"City": [(name,) for name in names]})


def temp_session(seed: int = 5, **config):
    return compile_program(TEMP_PROGRAM).on(
        cities("amsterdam", "delft"), seed=seed, **config)


def avg_plan():
    return Aggregate(
        scan("Temp", "city", "celsius").where(city="delft"),
        (), {"t": agg_avg("celsius")})


class TestSessionQuery:
    def test_exact_path_on_discrete_program(self):
        session = compile_program(COIN_PROGRAM).on(
            Instance.from_dict({"Coin": [("a",), ("b",)]}))
        plan = Aggregate(
            scan("Heads", "coin", "side").where(side=1),
            (), {"n": agg_count()})
        result = session.query(plan)
        assert isinstance(result, QueryResult)
        assert result.result.kind == "exact"
        assert result.expected_aggregate() == pytest.approx(1.0)
        answers = result.aggregate_distribution()
        assert answers.mass(0) == pytest.approx(0.25)
        assert answers.mass(2) == pytest.approx(0.25)

    def test_columnar_path_on_continuous_program(self):
        result = temp_session().query(avg_plan(), n=2000)
        assert result.result.backend == "batched"
        assert result.strategy() == "columnar"
        assert abs(result.expected_aggregate() - 20.0) < 0.3
        assert result.boolean_probability() == 1.0
        # The accessor answered without expanding the grouped worlds.
        assert result.pdb.materializations == 0
        assert not result.pdb.materialized

    def test_lifted_fast_path_on_stable_scan(self):
        result = temp_session().query(Scan("City", ("city",)), n=200)
        assert result.strategy() == "lifted"
        distribution = result.distribution()
        assert len(dict(distribution.items())) == 1  # one shared answer
        assert result.boolean_probability() == 1.0
        assert result.pdb.materializations == 0

    def test_opaque_select_falls_back(self):
        plan = scan("Temp", "city", "celsius").select(
            lambda row: row["celsius"] > 20.0)
        assert not plan_vectorizable(plan)
        result = temp_session().query(plan, n=100)
        assert result.strategy() == "fallback"
        assert 0.0 < result.boolean_probability() < 1.0

    def test_evidence_routes_to_posterior(self):
        session = temp_session().observe(
            observe("Temp", "amsterdam", 26.0))
        result = session.query(avg_plan(), n=400)
        assert result.result.kind == "likelihood"
        assert abs(result.expected_aggregate() - 20.0) < 1.0

    def test_inference_result_query_matches_session_query(self):
        session = temp_session()
        sampled = session.sample(300)
        direct = sampled.query(avg_plan())
        routed = session.query(avg_plan(), n=300)
        assert direct.distribution() == routed.distribution()

    def test_streamed_posterior_queries_without_collapsing(self):
        session = temp_session(seed=9)
        stream = session.stream(600)
        stream.observe(observe("Temp", "amsterdam", 24.0))
        result = stream.posterior().query(avg_plan())
        assert isinstance(result.pdb, WeightedColumnarPDB)
        assert result.strategy() == "columnar"
        assert abs(result.expected_aggregate() - 20.0) < 0.5
        # Identity against naive weighted evaluation.
        pdb = result.pdb
        expected: dict = {}
        for world, weight in zip(pdb.worlds, pdb.weights):
            if weight <= 0.0:
                continue
            key = avg_plan().evaluate(world).canonical()
            expected[key] = expected.get(key, 0.0) + weight
        total = pdb.total_weight()
        columnar = dict(result.distribution().items())
        assert set(columnar) == set(expected)
        for key, mass in expected.items():
            assert columnar[key] == pytest.approx(mass / total)


class TestPlanAnalysis:
    def test_scanned_relations_walks_the_tree(self):
        plan = Aggregate(
            scan("Alarm", "unit").join(scan("House", "unit", "city")),
            (), {"n": agg_count()})
        assert scanned_relations(plan) == frozenset(
            {"Alarm", "House"})

    def test_query_answers_matches_per_world_evaluation(self):
        pdb = temp_session().sample(250).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        plan = avg_plan()
        compiled = query_answers(pdb, plan)
        assert pdb.materializations == 0
        naive = [plan.evaluate(world) for world in pdb.world_slots()]
        assert compiled == naive

    def test_explain_over_every_representation(self):
        session = temp_session()
        pdb = session.sample(100).pdb
        assert explain(pdb, avg_plan()) == "columnar"
        assert explain(pdb, Scan("City", ("city",))) == "lifted"
        opaque = scan("Temp", "c", "v").select(lambda row: True)
        assert explain(pdb, opaque) == "fallback"
        exact = compile_program(COIN_PROGRAM).on(
            Instance.from_dict({"Coin": [("a",)]})).exact().pdb
        assert explain(exact, scan("Heads", "x", "v")) == "worlds"


SENSOR_PROGRAM = """
    Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
    Flaky(s, Flip<0.3>)           :- Sensor(s, mu).
    Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
"""


def sensor_pdb(n=1500, sensors=6, seed=2):
    instance = Instance.from_dict(
        {"Sensor": [(f"t{i}", 18.0 + i) for i in range(sensors)]})
    return compile_program(SENSOR_PROGRAM).on(
        instance, seed=seed).sample(n).pdb


def cities_pdb(n=300, seed=4, **config):
    return compile_program(example_3_4_program()).on(
        earthquake_city_instance(4, 4, seed=0), seed=seed,
        **config).sample(n).pdb




SENSOR_PLANS = (
    Aggregate(scan("Flaky", "s", "f").where(f=1)
              .join(scan("Anomaly", "s", "a")), (), {"n": agg_count()}),
    scan("Anomaly", "s", "a").project("s"),
    Scan("Anomaly"),
    Aggregate(Scan("Anomaly"), (), {"n": agg_count()}),
    Aggregate(scan("Flaky", "s", "f"), ("f",), {"n": agg_count()}),
    Aggregate(scan("Reading", "s", "v").where(s="t1"), (),
              {"v": agg_avg("v")}),
    scan("Sensor", "s", "mu").project("s")
    .difference(scan("Flaky", "s", "f").where(f=1).project("s")),
)
CITY_PLANS = (
    Aggregate(scan("Alarm", "unit").join(scan("House", "unit", "city")),
              (), {"n": agg_count()}),
    scan("Alarm", "unit"),
    Aggregate(scan("Earthquake", "city", "e"), ("e",),
              {"n": agg_count()}),
    scan("Burglary", "unit", "city", "b").where(b=1).project("city")
    .union(scan("Alarm", "unit").rename(unit="city")),
)


class TestWholeBatchPlanner:
    """One vectorized pass over every group answers like each world.

    Each case checks, per plan: the per-slot answers against
    ``plan.evaluate(world)``; the push-forward against the oracle's
    naive measure, plain and importance-weighted; and the boolean /
    expected-aggregate readings against the per-slot sums they reduce
    (sequential weighted sums, ``math.fsum`` aggregates) - all exact.
    """

    @staticmethod
    def _weights(pdb):
        weights = np.random.default_rng(0).exponential(size=pdb.n_runs)
        weights[::5] = 0.0
        return weights

    def _check(self, pdb, plans):
        naive_measure = ColumnarQueryOracle._naive_measure
        weights = self._weights(pdb)
        weighted = WeightedColumnarPDB(pdb, weights)
        for plan in plans:
            before = pdb.materializations
            compiled = query_answers(pdb, plan)
            assert pdb.materializations == before
            naive = [plan.evaluate(world) for world in pdb.world_slots()]
            assert compiled == naive
            assert query_distribution(pdb, plan) == naive_measure(
                naive, total=pdb.total_mass())
            assert query_distribution(weighted, plan) == naive_measure(
                naive, weights=weights.tolist(),
                total=weighted.total_weight())

            hits = sum(1 for relation in naive if len(relation) > 0)
            assert boolean_probability(pdb, plan) == hits / pdb.n_runs
            hit = 0.0
            for weight, relation in zip(weights.tolist(), naive):
                if len(relation) > 0 and weight > 0.0:
                    hit += weight
            assert boolean_probability(weighted, plan) \
                == hit / weighted.total_weight()

            if isinstance(plan, Aggregate) and not plan.group_by:
                values = [float(aggregate_answer(relation))
                          for relation in naive]
                assert expected_aggregate(pdb, plan) == \
                    math.fsum(values) / pdb.n_runs
                assert expected_aggregate(weighted, plan) == math.fsum(
                    weight * value
                    for weight, value in zip(weights.tolist(), values)
                    if weight > 0.0) / weighted.total_weight()

    def test_sensor_batch_with_many_groups(self):
        pdb = sensor_pdb()
        assert len(pdb._outcome.groups) > 20
        self._check(pdb, SENSOR_PLANS)

    @pytest.mark.parametrize("max_steps", [68, 60])
    def test_cities_batch_with_scalar_fallback_slots(self, max_steps):
        # Cascade rounds that overrun the step budget decline the
        # whole batch, at 68 as at 60: the ensemble is the scalar
        # loop's, world for world, truncated worlds included, and the
        # plans are answered per world with the truncated mass left
        # out.
        pdb = cities_pdb(n=100, max_steps=max_steps)
        scalar = cities_pdb(n=100, max_steps=max_steps, backend="scalar")
        assert not isinstance(pdb, ColumnarMonteCarloPDB)
        assert pdb.worlds == scalar.worlds
        assert pdb.truncated == scalar.truncated > 0
        naive_measure = ColumnarQueryOracle._naive_measure
        for plan in CITY_PLANS:
            assert explain(pdb, plan) == "worlds"
            assert query_distribution(pdb, plan) == naive_measure(
                [plan.evaluate(world) for world in pdb.worlds],
                total=pdb.total_mass())

    def test_cities_batch_merged_scan(self):
        pdb = compile_program(example_3_4_program()).on(
            earthquake_city_instance(3, 3, seed=1), seed=6).sample(240).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        self._check(pdb, CITY_PLANS)

    def test_merged_constant_rows_meet_by_value(self, monkeypatch):
        # Facts derived from sampled values differ from group to group:
        # merged over the batch, Chosen and Marked hold about a thousand
        # distinct rows each.  Constant rows must meet through value
        # buckets; comparing them pairwise is quadratic (~10^6 cell
        # comparisons here, and minutes at a few thousand rows).
        program = """
            Pick(i, DiscreteUniform<1, 3000>) :- Item(i).
            Mark(i, DiscreteUniform<1, 3000>) :- Item(i).
            Chosen(v) :- Pick(i, v).
            Marked(v) :- Mark(i, v).
        """
        pdb = compile_program(program).on(
            Instance.from_dict({"Item": [("a",), ("b",), ("c",)]}),
            seed=1).sample(300).pdb
        calls = []
        cell_eq = columnar._cell_eq
        monkeypatch.setattr(columnar, "_cell_eq", lambda a, b:
                            calls.append(1) or cell_eq(a, b))
        plans = (
            Aggregate(scan("Chosen", "v").join(scan("Marked", "v")), (),
                      {"n": agg_count()}),
            scan("Chosen", "v").union(scan("Marked", "v")),
            scan("Chosen", "v").difference(scan("Marked", "v")),
            scan("Chosen", "v").intersect(scan("Marked", "v")),
        )
        compiled = [query_answers(pdb, plan) for plan in plans]
        assert len(calls) < 5_000
        assert pdb.materializations == 0
        for plan, answers in zip(plans, compiled):
            assert answers == [plan.evaluate(world)
                               for world in pdb.world_slots()]

    def test_query_payload_evaluates_the_plan_once(self, monkeypatch):
        calls = []
        evaluate = columnar._evaluate

        def counted(pdb, query):
            calls.append(query)
            return evaluate(pdb, query)

        monkeypatch.setattr(columnar, "_evaluate", counted)
        result = temp_session().query(
            Aggregate(scan("Temp", "city", "celsius"), (),
                      {"n": agg_count()}), n=300)
        payload = protocol.query_payload(result)
        assert payload["strategy"] == "columnar"
        assert payload["expected_aggregate"] == 2.0
        assert payload["boolean_probability"] == 1.0
        assert len(calls) == 1

    def test_streamed_query_payload_evaluates_once(self, monkeypatch):
        calls = []
        evaluate = columnar._evaluate
        monkeypatch.setattr(columnar, "_evaluate", lambda pdb, query:
                            calls.append(query) or evaluate(pdb, query))
        stream = temp_session(seed=9).stream(500)
        stream.observe(observe("Temp", "amsterdam", 24.0))
        protocol.query_payload(stream.posterior().query(avg_plan()))
        assert len(calls) == 1


class TestAnswerIndexLifetime:
    """An ensemble keeps the answer index of the plan it answered last.

    ``with_firings`` hands it on while no swapped firing emits a
    relation the plan read; ``subset`` and a plan answered world by
    world start over.
    """

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        evaluate = columnar._evaluate
        monkeypatch.setattr(columnar, "_evaluate", lambda pdb, query:
                            calls.append(query) or evaluate(pdb, query))
        return calls

    @staticmethod
    def _forced(pdb, relation):
        """``pdb`` with every draw of ``relation``'s first firing 0.5."""
        index, fired = next(
            (index, fired) for index, fired
            in enumerate(pdb._outcome.firings)
            if fired.firing.heads[0][0] == relation)
        return pdb.with_firings([(index, replace(
            fired, values=np.full(len(fired.worlds), 0.5)))])

    def test_swaps_of_other_relations_carry_the_index(self,
                                                      evaluations):
        pdb = sensor_pdb(n=300)
        flaky, reading = SENSOR_PLANS[0], SENSOR_PLANS[5]
        query_answers(pdb, flaky)
        forced = self._forced(pdb, "Reading")
        assert query_answers(forced, flaky) == query_answers(pdb, flaky)
        assert evaluations == [flaky]
        fresh = ColumnarMonteCarloPDB(forced._outcome, forced._visible)
        assert query_answers(forced, flaky) \
            == query_answers(fresh, SENSOR_PLANS[0])
        query_answers(forced, reading)
        again = self._forced(forced, "Reading")
        assert query_answers(again, reading) \
            == [reading.evaluate(world) for world in again.world_slots()]
        assert [query for query in evaluations if query is reading] \
            == [reading, reading]

    def test_subset_starts_without_an_index(self, evaluations):
        pdb = sensor_pdb(n=300)
        plan = SENSOR_PLANS[0]
        full = query_answers(pdb, plan)
        keep = np.arange(pdb.n_runs) % 3 != 0
        kept = pdb.subset(keep)
        assert kept._answers is None
        assert query_answers(kept, plan) \
            == [full[index] for index in np.flatnonzero(keep)]
        assert evaluations == [plan, plan]

    def test_a_fallback_index_is_never_carried(self, evaluations):
        pdb = sensor_pdb(n=300)
        plan = scan("Flaky", "s", "f").select(lambda row: row["f"] == 1)
        assert explain(pdb, plan) == "fallback"
        answers = query_answers(pdb, plan)
        forced = self._forced(pdb, "Reading")
        assert forced._answers is None
        assert query_answers(forced, plan) == answers
        assert evaluations == [plan, plan]


class TestServedQueries:
    """Queries over batched columnar results expand zero worlds."""

    def test_join_aggregate_answers_without_materializing(self):
        result = temp_session(seed=3).sample(240)
        pdb = result.pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        plan = Aggregate(
            scan("Temp", "city", "celsius")
            .join(scan("City", "city")),
            (), {"t": agg_avg("celsius")})
        bound = result.query(plan)
        assert bound.strategy() == "columnar"
        assert abs(bound.expected_aggregate() - 20.0) < 0.6
        assert bound.boolean_probability() == 1.0
        assert dict(bound.distribution().items())
        # The acceptance tripwire: the whole join+aggregate pipeline
        # over the batched result expanded zero worlds.
        assert pdb.materializations == 0
        assert not pdb.materialized

    def test_server_query_op(self):
        server = ProgramServer()
        reply = server.handle({
            "op": "query", "program": TEMP_PROGRAM,
            "instance": {"City": [["amsterdam"], ["delft"]]},
            "n": 200, "config": {"seed": 4},
            "plan": {
                "op": "aggregate",
                "source": {"op": "scan", "relation": "Temp",
                           "columns": ["city", "celsius"]},
                "group_by": [],
                "aggregates": {"t": {"fn": "avg",
                                     "column": "celsius"}}}})
        assert reply["ok"], reply
        result = reply["result"]
        assert result["command"] == "query"
        assert result["strategy"] == "columnar"
        assert result["n_runs"] == 200
        assert abs(result["expected_aggregate"] - 20.0) < 0.8
        assert result["answers"]
        assert sum(entry["probability"]
                   for entry in result["answers"]) == pytest.approx(
                       1.0, abs=1e-9)


class TestPlanCodec:
    def test_roundtrip_nested_plan(self):
        plan = Aggregate(
            scan("Temp", "town", "celsius").where(town="delft")
            .join(scan("City", "city").rename(city="town")
                  .project("town")),
            ("town",), {"total": agg_sum("celsius"),
                        "n": agg_count()})
        payload = protocol.plan_payload(plan)
        assert protocol.plan_payload(
            protocol.parse_plan(payload)) == payload

    def test_every_binary_op_roundtrips(self):
        left = scan("Heads", "x", "v")
        right = scan("Heads", "x", "v").where(v=1)
        for combined in (left.union(right), left.difference(right),
                         left.intersect(right), left.join(right)):
            payload = protocol.plan_payload(combined)
            assert protocol.plan_payload(
                protocol.parse_plan(payload)) == payload

    def test_opaque_select_is_rejected(self):
        plan = scan("Temp", "c", "v").select(lambda row: True)
        with pytest.raises(ValidationError):
            protocol.plan_payload(plan)

    def test_unknown_op_is_rejected(self):
        with pytest.raises(ValidationError):
            protocol.parse_plan({"op": "teleport"})

    def test_aggregate_needing_column_without_one_is_rejected(self):
        with pytest.raises(ValidationError):
            protocol.parse_plan({
                "op": "aggregate",
                "source": {"op": "scan", "relation": "R"},
                "group_by": [],
                "aggregates": {"s": {"fn": "sum", "column": None}}})


class TestDeprecatedLiftedShims:
    """``repro.query.lifted`` is gone; ``repro.query`` never warns."""

    def _pdb(self):
        return temp_session(seed=11).sample(150).pdb

    def test_lifted_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.query.lifted")

    def test_canonical_imports_do_not_warn(self):
        pdb = self._pdb()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.query import query_distribution
            query_distribution(pdb, Scan("City", ("city",)))


class TestQueryCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "temp.gdl"
        path.write_text(TEMP_PROGRAM + "\n")
        data = tmp_path / "cities.json"
        data.write_text(json.dumps(
            {"City": [["amsterdam"], ["delft"]]}))
        return str(path), str(data)

    @staticmethod
    def _run(argv):
        from repro.cli import main
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    PLAN = json.dumps({
        "op": "aggregate",
        "source": {"op": "scan", "relation": "Temp",
                   "columns": ["city", "celsius"]},
        "group_by": [],
        "aggregates": {"t": {"fn": "avg", "column": "celsius"}}})

    def test_json_contract(self, program_file):
        program, data = program_file
        code, output = self._run(
            ["query", program, "--data", data, "--plan", self.PLAN,
             "-n", "300", "--seed", "2", "--json"])
        assert code == 0
        document = json.loads(output)
        assert document["command"] == "query"
        assert document["strategy"] == "columnar"
        assert document["kind"] == "sample"
        assert document["n_runs"] == 300
        assert document["plan"] == json.loads(self.PLAN)
        assert abs(document["expected_aggregate"] - 20.0) < 0.8
        assert all({"columns", "rows", "probability"}
                   <= set(entry) for entry in document["answers"])

    def test_plan_from_file_and_text_mode(self, program_file,
                                          tmp_path):
        program, data = program_file
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(self.PLAN)
        code, output = self._run(
            ["query", program, "--data", data,
             "--plan", f"@{plan_path}", "-n", "200"])
        assert code == 0
        assert "strategy columnar" in output
        assert "P(non-empty) = 1.000000" in output
        assert "E[aggregate]" in output

    def test_observe_routes_to_posterior(self, program_file):
        program, data = program_file
        code, output = self._run(
            ["query", program, "--data", data, "--plan", self.PLAN,
             "-n", "150", "--observe", "Temp,amsterdam,24.0",
             "--json"])
        assert code == 0
        document = json.loads(output)
        assert document["kind"] == "likelihood"

    def test_bad_plan_is_a_usage_error(self, program_file):
        program, data = program_file
        code, _ = self._run(
            ["query", program, "--data", data, "--plan", "not json"])
        assert code == 2

    def test_seeded_runs_are_reproducible(self, program_file):
        program, data = program_file
        argv = ["query", program, "--data", data, "--plan", self.PLAN,
                "-n", "120", "--seed", "6", "--json"]
        first = json.loads(self._run(argv)[1])
        second = json.loads(self._run(argv)[1])
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second


MIXED_ARITY_PROGRAM = """
    R(x, Flip<0.5>) :- S(x).
    R(Flip<0.3>) :- true.
"""
#: Hit(u, 1) is derived for the Sure unit, so every world holds it as a
#: shared fact while the sampled Hit(u, v) may equal it; Boom splits
#: the batch into signature groups on the sampled value.
SHARED_CONSTANT_PROGRAM = """
    Hit(x, Flip<0.5>) :- Unit(x).
    Hit(x, 1) :- Unit(x), Sure(x).
    Boom(x) :- Hit(x, 0).
"""
#: Two templates sampling into different positions of one relation:
#: a world where both draw 1 holds P(1, 1) once.
CROSS_POSITION_PROGRAM = """
    P(Flip<0.5>, 1) :- true.
    P(1, Flip<0.5>) :- true.
"""


#: A constant R(1.0) in the C = 1 worlds and a sampled R(1) in the
#: C = 0 worlds: one fact listed by two merged-scan rows.
INT_FLOAT_PROGRAM = """
    C(Flip<0.5>) :- true.
    R(1.0) :- C(1).
    R(Flip<0.5>) :- C(0).
"""
#: Two template rows whose sample cell comes before the constant that
#: tells them apart: their facts interleave in canonical order.
INTERLEAVED_PROGRAM = "R(Normal<0.0, 1.0>, c) :- C(c)."


class BoolFlip(Flip):
    """A coin whose sample columns have numpy's bool dtype."""

    name = "BoolFlip"

    def sample_batch(self, params, size, rng):
        (p,) = self.validate_params(params)
        return rng.random(size) < p


def _fact_batch(name):
    if name == "int-float":
        return compile_program(INT_FLOAT_PROGRAM).on(
            seed=6).sample(300).pdb
    if name == "interleaved":
        return compile_program(INTERLEAVED_PROGRAM).on(
            Instance.from_dict({"C": [("a",), ("b",)]}),
            seed=7).sample(300).pdb
    if name == "bool-dtype":
        registry = default_registry()
        registry.register(BoolFlip())
        return compile_program(
            "R(BoolFlip<0.5>, c) :- C(c).\nR(1, c) :- D(c).",
            registry=registry).on(
            Instance.from_dict({"C": [("a",), ("b",)], "D": [("a",)]}),
            seed=9).sample(300).pdb
    if name == "mixed-arity":
        # Numeric keys: R(1, v) and R(w) must never be compared.
        return compile_program(MIXED_ARITY_PROGRAM).on(
            Instance.from_dict({"S": [(1,), (2,)]}),
            seed=3).sample(300).pdb
    if name == "shared-constant":
        return compile_program(SHARED_CONSTANT_PROGRAM).on(
            Instance.from_dict({"Unit": [("u",), ("w",)],
                                "Sure": [("u",)]}),
            seed=8).sample(300).pdb
    if name == "cross-position":
        return compile_program(CROSS_POSITION_PROGRAM).on(
            seed=5).sample(300).pdb
    if name == "sensor":
        return sensor_pdb(n=300)
    if name == "cities":
        return cities_pdb()
    if name == "cities-100":
        return cities_pdb(n=100, seed=0)
    if name == "cities-likelihood":
        return compile_program(example_3_4_program()).on(
            earthquake_city_instance(4, 4, seed=0), seed=0).observe(
            observe("Earthquake", "city-1", 1)).posterior(
            method="likelihood", n=100).pdb
    if name == "barany":
        return compile_program(example_3_4_program(),
                               semantics="barany").on(
            example_3_4_instance(), seed=2).sample(300).pdb
    return cities_pdb(n=100, max_steps=60)


def _dict_fact_totals(pdb, weights=None) -> dict:
    """Fact totals as a dict over the merged scan, in row order.

    The reader the canonical table replaced, kept as the reference its
    rows must equal: facts meet in a dict keyed by :class:`Fact`
    (equal facts keep the first row's), totals add up in row order.
    """
    planner = columnar._fact_planner(pdb, None)
    names = set(planner._sample_columns())
    names.update(name for index in planner.group_indices
                 for name in pdb._outcome.groups[index].shared.relations()
                 if pdb._shows(name))
    member_weights = None if weights is None else weights[planner.members]
    totals: dict = {}
    for relation in sorted(names):
        for cells, mask in planner._relation_rows(relation):
            present = slice(None) if mask is True else mask
            row_weights = None if member_weights is None \
                else member_weights[present]
            samples = [position for position, cell in enumerate(cells)
                       if isinstance(cell, np.ndarray)]
            if not samples:
                if row_weights is None:
                    total = planner.n if mask is True \
                        else int(np.count_nonzero(mask))
                else:
                    total = float(row_weights.sum())
                fact = Fact(relation, cells)
                totals[fact] = totals.get(fact, 0) + total
                continue
            position, = samples
            column = cells[position][present]
            if row_weights is None:
                values, counts = np.unique(column, return_counts=True)
            else:
                values, inverse = np.unique(column, return_inverse=True)
                counts = np.bincount(inverse, weights=row_weights)
            for value, count in zip(values.tolist(), counts.tolist()):
                fact = Fact(relation, cells[:position] + (value,)
                            + cells[position + 1:])
                totals[fact] = totals.get(fact, 0) + count
    return totals


def _sorted_then_built(totals: dict, total: float) -> list:
    """A reply's marginals list as it was built: sort, then one entry
    per :class:`Fact`."""
    return [{"fact": protocol.fact_payload(fact),
             "probability": totals[fact] / total}
            for fact in sorted(totals, key=Fact.sort_key)]


class TestFactReaders:
    """Fact tables, masks and marginals equal counts over the worlds.

    The readers of :mod:`repro.query.columnar` take every grouped
    world from the planner's merged scan; each batch here is compared
    against the materialized ``world_slots`` - plain counts exactly,
    weighted totals against a :class:`WeightedPDB` over the same
    worlds within 1e-12 relative.
    """

    @pytest.mark.parametrize("name", [
        "mixed-arity", "shared-constant", "cross-position", "sensor",
        "cities", "cities-100", "cities-likelihood", "barany",
        "cities-truncated", "int-float", "interleaved", "bool-dtype"])
    def test_reads_equal_world_counts(self, name):
        from repro.pdb.stats import fact_marginals
        from repro.pdb.weighted import WeightedPDB
        pdb = _fact_batch(name)
        weights = None
        if isinstance(pdb, WeightedColumnarPDB):
            # A likelihood posterior: its own batch and weights.
            pdb, weights = pdb._columnar, pdb.weights
        if name == "cities-truncated":
            # Its budget truncates some worlds, which declines the
            # whole batch: the ensemble is the scalar loop's, world for
            # world, and holds no columnar reader to check.
            scalar = cities_pdb(n=100, max_steps=60, backend="scalar")
            assert not isinstance(pdb, ColumnarMonteCarloPDB)
            assert pdb.worlds == scalar.worlds
            assert pdb.truncated == scalar.truncated > 0
            return
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        if weights is None:
            weights = TestWholeBatchPlanner._weights(pdb)
        weighted = WeightedColumnarPDB(pdb, weights)
        table = fact_marginals(pdb)
        weighted_table = fact_marginals(weighted)
        ordered = sorted(table, key=Fact.sort_key)
        probes = ordered[::max(1, len(ordered) // 40)] + [
            Fact("R", (1, 1, 1)), Fact("Hit", ("u", 1.0)),
            Fact("P", (1, 1, 1)), Fact("Nowhere", (0,))]
        masks = [columnar.fact_mask(pdb, fact) for fact in probes]
        marginals = [pdb.marginal(fact) for fact in probes]
        weighted_marginals = [weighted.marginal(fact) for fact in probes]
        assert pdb.materializations == 0

        slots = pdb.world_slots()
        counts: dict = {}
        for world in slots:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        assert table == {fact: count / pdb.n_runs
                         for fact, count in counts.items()}
        for fact, mask, marginal in zip(probes, masks, marginals):
            assert mask.tolist() == [fact in world for world in slots], \
                fact
            assert marginal == counts.get(fact, 0) / pdb.n_runs, fact

        reference = WeightedPDB(slots, weights)
        expected = fact_marginals(reference)
        assert weighted_table.keys() == expected.keys()
        for fact, value in expected.items():
            assert math.isclose(weighted_table[fact], value,
                                rel_tol=1e-12, abs_tol=0.0), fact
        for fact, value in zip(probes, weighted_marginals):
            assert math.isclose(value, reference.marginal(fact),
                                rel_tol=1e-12, abs_tol=0.0), fact

    @pytest.mark.parametrize("name", [
        "mixed-arity", "shared-constant", "cross-position", "sensor",
        "cities", "int-float", "interleaved", "bool-dtype"])
    def test_table_is_canonical_and_replies_list_it(self, name):
        """Plain and weighted: canonical order, the old bytes."""
        from repro.pdb.stats import fact_marginals, marginal_table
        pdb = _fact_batch(name)
        weights = TestWholeBatchPlanner._weights(pdb)
        weighted = WeightedColumnarPDB(pdb, weights)
        for ensemble, ensemble_weights in ((pdb, None),
                                           (weighted, weights)):
            table = marginal_table(ensemble)
            keys = [(relation, tuple_sort_key(args))
                    for relation, args, _ in table]
            assert keys == sorted(keys)
            marginals = fact_marginals(ensemble)
            assert list(marginals) == sorted(marginals, key=Fact.sort_key)
            assert list(marginals.values()) \
                == [probability for _, _, probability in table]
            reference = _sorted_then_built(
                _dict_fact_totals(pdb, ensemble_weights),
                pdb.n_runs if ensemble_weights is None
                else ensemble.total_weight())
            if ensemble_weights is None:
                reply = protocol.sample_payload(SimpleNamespace(
                    pdb=ensemble, elapsed=0.0, backend="batched"))
            else:
                reply = protocol.posterior_payload(SimpleNamespace(
                    pdb=ensemble, kind="likelihood", n_runs=pdb.n_runs,
                    n_truncated=0, elapsed=0.0,
                    effective_sample_size=None, diagnostics={}))
            listed = [protocol.encode_line(entry)
                      for entry in reply["marginals"]]
            expected = [protocol.encode_line(entry) for entry in reference]
            assert len(listed) == len(expected)
            assert next((pair for pair in zip(listed, expected)
                         if pair[0] != pair[1]), None) is None
        assert pdb.materializations == 0
        assert ColumnarQueryOracle._check_table(
            pdb, columnar.fact_totals(pdb)) is None
        if len(table) > 1:
            detail = ColumnarQueryOracle._check_table(
                pdb, columnar.fact_totals(pdb)[::-1])
            assert "canonical order" in detail

    @pytest.mark.parametrize("name", [
        "mixed-arity", "shared-constant", "cross-position", "sensor",
        "cities", "cities-100", "cities-likelihood", "barany",
        "int-float", "interleaved", "bool-dtype"])
    def test_event_mask_reads_fact_events(self, name):
        """A fact event's mask is membership, world for world.

        ``event_mask`` answers a ``ContainsFactEvent`` off the merged
        scan - for every fact of the table, an absent fact and an
        auxiliary-relation fact, hidden or kept - without
        materializing; mixed with an event it has to test per world,
        it is the per-world conjunction.
        """
        from repro.pdb.events import (ContainsFactEvent, CountingEvent,
                                      FactSet)
        from repro.pdb.stats import fact_marginals
        pdb = _fact_batch(name)
        if isinstance(pdb, WeightedColumnarPDB):
            pdb = pdb._columnar
        kept = ColumnarMonteCarloPDB(pdb._outcome, pdb._visible,
                                     keep_aux=True)
        facts = sorted(fact_marginals(pdb), key=Fact.sort_key)
        relation, args = facts[-1].relation, facts[-1].args
        absent = Fact(relation, args[:-1] + ("absent",))
        aux = min((fact for fact in fact_marginals(kept)
                   if not pdb._shows(fact.relation)),
                  key=Fact.sort_key)
        probes = facts + [absent, aux]
        masks = [columnar.event_mask(pdb, [ContainsFactEvent(fact)])
                 for fact in probes]
        kept_mask = columnar.event_mask(kept, [ContainsFactEvent(aux)])
        assert pdb.materializations == kept.materializations == 0

        slots = pdb.world_slots()
        for fact, mask in zip(probes, masks):
            assert mask.tolist() == [fact in world for world in slots], \
                fact
        assert not masks[-1].any() and not masks[-2].any()
        expected = [aux in world for world in kept.world_slots()]
        assert kept_mask.tolist() == expected and any(expected)

        table = fact_marginals(pdb)
        fact = max(facts, key=lambda f: (table[f] < 1.0, table[f]))
        block = FactSet(fact.relation, *[None] * len(fact.args))
        holding = next(world for world in slots if fact in world)
        events = [ContainsFactEvent(fact),
                  CountingEvent(block, block.count_in(holding))]
        expected = [all(event.contains(world) for event in events)
                    for world in slots]
        assert columnar.event_mask(pdb, events).tolist() == expected
        assert any(expected)

    @staticmethod
    def _keep_masks(pdb) -> dict:
        """Seeded random masks, one group's members and one world."""
        size = pdb.n_runs
        masks = {}
        for seed, share in ((1, 0.5), (2, 0.1), (3, 0.9)):
            mask = np.random.default_rng(seed).random(size) < share
            mask[seed % size] = True
            masks[f"random-{share}"] = mask
        masks["first-group"] = np.zeros(size, dtype=bool)
        masks["first-group"][pdb._outcome.groups[0].members] = True
        masks["one-world"] = np.zeros(size, dtype=bool)
        masks["one-world"][size // 2] = True
        return masks

    @pytest.mark.parametrize("name", [
        "int-float", "bool-dtype", "mixed-arity", "cities-100",
        "barany", "sensor"])
    def test_subset_equals_the_kept_worlds(self, name):
        """A batch restricted to a mask reads like its kept worlds.

        ``subset`` renumbers the kept worlds in every group and
        firing; its fact table, fact masks and one plan's answers
        equal those of a :class:`MonteCarloPDB` over the kept
        ``world_slots`` - read columnar, without materializing - and
        its own slots are those worlds, in order.
        """
        import random

        from repro.pdb.database import MonteCarloPDB
        from repro.pdb.stats import marginal_table
        pdb = _fact_batch(name)
        table = columnar.fact_totals(pdb)
        oracle = ColumnarQueryOracle()
        plan = oracle._random_plan(random.Random(7),
                                   oracle._arities(table),
                                   oracle._constants(table))
        slots = pdb.world_slots()
        outcome = pdb._outcome
        for label, keep in self._keep_masks(pdb).items():
            sub = pdb.subset(keep)
            kept = [world for world, ok in zip(slots, keep) if ok]
            reference = MonteCarloPDB(kept)
            facts = [Fact(relation, args) for relation, args, _
                     in marginal_table(reference)]
            probes = facts[::max(1, len(facts) // 20)] + [
                Fact("Nowhere", (0,))]
            assert sub.n_runs == len(kept)
            assert sub.marginal_table() == marginal_table(reference)
            for fact in probes:
                assert columnar.fact_mask(sub, fact).tolist() \
                    == [fact in world for world in kept], fact
            assert query_answers(sub, plan) \
                == [plan.evaluate(world) for world in kept]
            assert query_distribution(sub, plan) \
                == query_distribution(reference, plan)
            assert sub.materializations == 0
            assert sub.world_slots() == kept
            if label == "first-group" and len(outcome.groups) > 1:
                # One group kept: the others go, and so do the draws
                # of every firing off its path, emptied in place.
                assert len(sub._outcome.groups) == 1
                path = set(outcome.groups[0].firings)
                assert [len(fired.worlds) == 0
                        for fired in sub._outcome.firings] \
                    == [index not in path
                        for index in range(len(outcome.firings))]

    def test_subset_rejects_a_bad_mask(self):
        pdb = _fact_batch("int-float")
        for keep in (np.zeros(pdb.n_runs, dtype=bool),
                     np.ones(pdb.n_runs - 1, dtype=bool)):
            with pytest.raises(ValidationError, match="subset needs"):
                pdb.subset(keep)

    def test_equal_facts_keep_the_first_rows_args(self):
        """The constant R(1.0) row comes first; a sampled 1 joins it."""
        pdb = _fact_batch("int-float")
        rows = [(args, total) for relation, args, total
                in columnar.fact_totals(pdb) if relation == "R"]
        assert [args for args, _ in rows] == [(0,), (1.0,)]
        assert isinstance(rows[1][0][0], float)
        counts = dict.fromkeys((0, 1), 0)
        for world in pdb.world_slots():
            for fact in world.facts_of("R"):
                counts[fact.args[0]] += 1
        assert [total for _, total in rows] == [counts[0], counts[1]]
        sampled = [world for world in pdb.world_slots()
                   if Fact("C", (0,)) in world
                   and Fact("R", (1,)) in world]
        assert sampled and len(sampled) < counts[1]

    def test_template_rows_interleave(self):
        """R(x, c) over two c: facts alternate between the two rows."""
        pdb = _fact_batch("interleaved")
        listed = [args[1] for relation, args, _ in columnar.fact_totals(pdb)
                  if relation == "R"]
        assert sorted(set(listed)) == ["a", "b"]
        assert listed != sorted(listed)
        assert len(listed) == 2 * pdb.n_runs

    def test_streamed_fact_reads_do_not_materialize(self):
        session = compile_program(SENSOR_PROGRAM).on(
            Instance.from_dict({"Sensor": [("t0", 18.0),
                                           ("t1", 19.0)]}),
            seed=4)
        stream = session.stream(400)
        stream.observe(observe("Reading", "t0", 19.5))
        stream.observe(Fact("Flaky", ("t1", 0)))
        probe = Fact("Flaky", ("t0", 1))
        streamed = stream.marginal(probe)
        posterior = stream.posterior()
        table = posterior.fact_marginals()
        assert stream._pdb.materializations == 0
        assert math.isclose(table[Fact("Flaky", ("t1", 0))], 1.0,
                            rel_tol=1e-12)
        assert math.isclose(streamed, table[probe], rel_tol=1e-12)
        assert math.isclose(streamed, posterior.pdb.prob(
            lambda world: probe in world), rel_tol=1e-12)


class TestExpectedSizeColumnarIdentity:
    def test_expected_size_reads_columns(self):
        from repro.pdb.stats import expected_size
        pdb = temp_session(seed=13).sample(200).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        columnar = expected_size(pdb)
        assert pdb.materializations == 0
        naive = pdb.expectation(len)
        assert columnar == naive


def _pairwise_dedup(rows: list) -> list:
    """The merged scan's dedup before it was indexed, as a reference.

    Rows holding samples are compared with every earlier row; constant
    rows meet earlier constant rows through a dict keyed by value.
    """
    _and, _minus, _or, _prune = (columnar._and, columnar._minus,
                                 columnar._or, columnar._prune)
    out: list = []
    sampled: list = []
    constant_masks: dict = {}
    for cells, mask in rows:
        constant = not columnar._has_sample(cells)
        for prev_cells, prev_mask in (sampled if constant else out):
            dup = _and(columnar._row_eq(cells, prev_cells), prev_mask)
            mask = _prune(_minus(mask, dup))
            if mask is False:
                break
        if constant and mask is not False:
            mask = _prune(_minus(mask, constant_masks.get(cells, False)))
        if mask is False:
            continue
        out.append((cells, mask))
        if constant:
            constant_masks[cells] = _or(constant_masks.get(cells, False),
                                        mask)
        else:
            sampled.append((cells, mask))
    return out


_WORLDS = 6


@st.composite
def _scan_rows(draw):
    """Rows of one or two arities: constants, ``1`` and ``1.0``
    among them, sample columns in any position, partial and empty
    masks."""
    constants = st.sampled_from([0, 1, 1.0, 2, "a", "b"])
    samples = st.builds(
        np.array, st.lists(st.sampled_from([0, 1, 2]),
                           min_size=_WORLDS, max_size=_WORLDS),
        st.sampled_from([np.int64, np.float64]))
    masks = st.one_of(
        st.just(True),
        st.builds(np.array, st.lists(st.booleans(), min_size=_WORLDS,
                                     max_size=_WORLDS),
                  st.just(bool)))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                            unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        arity = draw(st.sampled_from(arities))
        cells = tuple(draw(st.one_of(constants, samples))
                      for _ in range(arity))
        rows.append((cells, draw(masks)))
    return rows


def _present(rows: list) -> list:
    """The rows present in some world.

    A row whose mask array is empty is absent everywhere; the pairwise
    scan keeps one only when no row came before it, the indexed one
    when no row it can equal did.  The merged scan never makes one.
    """
    return [(cells, mask) for cells, mask in rows
            if mask is True or mask.any()]


class TestIndexedDedup:
    @settings(max_examples=300, deadline=None)
    @given(_scan_rows())
    def test_equals_the_pairwise_dedup(self, rows):
        indexed = _present(columnar._dedup(rows))
        expected = _present(_pairwise_dedup(rows))
        assert len(indexed) == len(expected)
        for (cells, mask), (ref_cells, ref_mask) in zip(indexed,
                                                        expected):
            # The same input row (its cells object), present in the
            # same worlds.
            assert cells is ref_cells
            assert np.broadcast_to(mask, _WORLDS).tolist() \
                == np.broadcast_to(ref_mask, _WORLDS).tolist()

    def test_compares_only_rows_that_can_be_equal(self, monkeypatch):
        column = np.array([0, 1, 2, 1])
        rows = [((f"u{i}", column), True) for i in range(40)]
        rows += [((f"u{i}", 1), True) for i in range(40)]
        calls = []
        row_eq = columnar._row_eq
        monkeypatch.setattr(columnar, "_row_eq", lambda a, b:
                            calls.append(1) or row_eq(a, b))
        deduped = columnar._dedup(rows)
        assert len(calls) == 40
        assert [cells for cells, _ in deduped] \
            == [cells for cells, _ in _pairwise_dedup(rows)]
