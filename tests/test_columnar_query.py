"""The columnar query pushdown: Session.query, planner, wire, shims.

Covers the unified query entry points (``Session.query`` /
``InferenceResult.query`` -> ``QueryResult``), the columnar planner's
strategy selection and its zero-materialization guarantee (including
over a *sharded* merged ensemble - served queries never expand a
world), the relational-plan wire codec, the served ``query`` op, the
``repro query`` CLI contract, and the canonical ``repro.query``
imports (the ``repro.query.lifted`` shims are gone since 2.0).
"""

import importlib
import io
import json
import warnings

import pytest

from repro.api import QueryResult, compile as compile_program
from repro.core.observe import observe
from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import ValidationError
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB
from repro.query import (Aggregate, agg_avg, agg_count, agg_sum,
                         explain, plan_vectorizable, query_answers,
                         scan, scanned_relations)
from repro.query.relalg import Scan
from repro.serving import (ProgramServer, ShardExecutor, protocol,
                           sample_sharded)

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
        for world, weight in pdb._iter_weighted():
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
        naive = [None if world is None else plan.evaluate(world)
                 for world in pdb.world_slots()]
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


class TestShardedServedQueries:
    """Served queries over sharded columnar results: zero worlds."""

    def test_sharded_merge_answers_without_materializing(self):
        session = temp_session(seed=3)
        cfg = session.config.replace(shards=2)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            result = sample_sharded(session, 240, cfg,
                                    executor=executor)
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
        # over the merged shard result expanded zero worlds.
        assert pdb.materializations == 0
        assert not pdb.materialized

    def test_server_query_op_with_shards(self):
        server = ProgramServer()
        reply = server.handle({
            "op": "query", "program": TEMP_PROGRAM,
            "instance": {"City": [["amsterdam"], ["delft"]]},
            "n": 200, "config": {"seed": 4, "shards": 2},
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


class TestExpectedSizeColumnarIdentity:
    def test_expected_size_reads_columns(self):
        from repro.pdb.stats import expected_size
        pdb = temp_session(seed=13).sample(200).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        columnar = expected_size(pdb)
        assert pdb.materializations == 0
        naive = pdb.expectation(len)
        assert columnar == naive
