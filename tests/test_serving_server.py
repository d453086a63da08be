"""ProgramServer: caches, dispatch, error replies, socket transport.

Everything here runs in-process (the subprocess `repro serve` smoke
lives in test_serving_cli.py): the transport-free ``handle`` contract,
the zero-recompilation cache counters, LRU eviction, the protocol
codecs, and the threading socket server with concurrent clients.
"""

from __future__ import annotations

import re
import threading

import pytest

import repro
from repro.api.config import ChaseConfig
from repro.errors import ValidationError
from repro.pdb.events import ContainsFactEvent
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.serving import (ProgramServer, ServingClient, serve_socket)
from repro.serving.protocol import (decode_line, encode_line,
                                    evidence_payload, instance_payload,
                                    parse_evidence, parse_fact,
                                    parse_instance)
from repro.serving.server import program_sha, request_over_socket

COIN = "Heads(x, Flip<0.5>) :- Coin(x)."
CASCADE = """
Trig(x, Flip<0.6>) :- Site(x).
Alarm(x, Flip<0.5>) :- Trig(x, 1).
"""


def _coins(k: int = 2) -> dict:
    return {"Coin": [[i] for i in range(k)]}


def _strip_elapsed(result: dict) -> dict:
    """Sample documents modulo the only nondeterministic field."""
    return {key: value for key, value in result.items()
            if key != "elapsed_seconds"}


# ---------------------------------------------------------------------------
# Protocol codecs
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_fact_codec(self):
        fact = Fact("R", (1, "x", 2.5))
        assert parse_fact({"relation": "R", "args": [1, "x", 2.5]}) \
            == fact
        assert parse_fact(["R", [1, "x", 2.5]]) == fact
        for bad in ("R", {"relation": "R"}, ["R"], ["R", [1], 2], 7):
            with pytest.raises(ValidationError):
                parse_fact(bad)

    def test_instance_codec_roundtrip(self):
        instance = Instance.from_dict(
            {"A": [(1,), (2,)], "B": [("x", 3)]})
        assert parse_instance(instance_payload(instance)) == instance
        assert parse_instance(None) == Instance.empty()
        assert parse_instance(
            [{"relation": "A", "args": [1]}]) \
            == Instance.from_dict({"A": [(1,)]})
        with pytest.raises(ValidationError):
            parse_instance({"A": "not-rows"})
        with pytest.raises(ValidationError):
            parse_instance(42)

    def test_line_framing(self):
        payload = {"op": "ping", "z": 1, "a": 2}
        line = encode_line(payload)
        assert "\n" not in line
        assert decode_line(line) == payload
        with pytest.raises(ValidationError, match="bad JSON"):
            decode_line("{nope")
        with pytest.raises(ValidationError, match="JSON object"):
            decode_line("[1, 2]")

    def test_one_evidence_codec(self):
        # One decoder: a fact payload is the event that the fact
        # holds.  The encoder takes that event, or a bare Fact as its
        # shorthand, and writes the one wire form back.
        fact = Fact("Trig", ("a", 1))
        wire = {"fact": {"relation": "Trig", "args": ["a", 1]}}
        decoded = parse_evidence(wire)
        assert isinstance(decoded, ContainsFactEvent)
        assert decoded.f == fact
        assert evidence_payload(decoded) == evidence_payload(fact) \
            == wire
        observation = repro.observe("Alarm", "a", 1)
        assert parse_evidence(evidence_payload(observation)) \
            == observation
        with pytest.raises(ValidationError, match="cannot encode"):
            evidence_payload(ContainsFactEvent(fact) | ContainsFactEvent(
                Fact("Trig", ("a", 0))))
        with pytest.raises(ValidationError, match="not evidence"):
            evidence_payload("Trig(a, 1)")

    def test_program_sha_separates_semantics(self):
        assert program_sha(COIN, "grohe") \
            != program_sha(COIN, "barany")
        assert program_sha(COIN, "grohe") == program_sha(COIN, "grohe")


# ---------------------------------------------------------------------------
# Dispatch + caching
# ---------------------------------------------------------------------------


class TestProgramServer:
    def test_ping_reports_stats(self):
        server = ProgramServer()
        reply = server.handle({"op": "ping"})
        assert reply["ok"] and reply["op"] == "ping"
        assert reply["stats"]["requests"] == 1
        assert reply["stats"]["programs_compiled"] == 0

    def test_sample_matches_cli_contract_and_session(self):
        server = ProgramServer()
        reply = server.handle({"op": "sample", "program": COIN,
                               "instance": _coins(), "n": 200,
                               "config": {"seed": 7}})
        assert reply["ok"] and not reply["compile_cached"]
        result = reply["result"]
        assert set(result) == {"command", "n_runs", "n_terminated",
                               "n_truncated", "err_mass",
                               "elapsed_seconds", "backend",
                               "marginals"}
        assert result["n_runs"] == 200 and result["n_truncated"] == 0
        direct = repro.compile(COIN).on(
            parse_instance(_coins()), seed=7).sample(200)
        expect = {(m.relation, m.args): p
                  for m, p in direct.fact_marginals().items()}
        served = {(m["fact"]["relation"], tuple(m["fact"]["args"])):
                  m["probability"] for m in result["marginals"]}
        assert served == expect

    def test_marginals_with_fresh_seeds_enumerate_once(self, monkeypatch):
        # Enumeration reads none of seed, backend or max_steps,
        # so served marginals with fresh seeds share one exact result;
        # a different tolerance enumerates again.
        import repro.api.session as session_module
        from repro.workloads.paper import (EARTHQUAKE_PROGRAM_TEXT,
                                           example_3_4_instance)
        calls = []
        enumerate_tree = session_module.exact_sequential_spdb

        def counting(*args, **kwargs):
            calls.append(kwargs.get("tolerance"))
            return enumerate_tree(*args, **kwargs)

        monkeypatch.setattr(session_module, "exact_sequential_spdb",
                            counting)
        server = ProgramServer()
        request = {"op": "marginal", "program": EARTHQUAKE_PROGRAM_TEXT,
                   "instance": instance_payload(example_3_4_instance()),
                   "fact": ["Alarm", ["house-1"]]}
        replies = [server.handle({**request, "config": {"seed": seed}})
                   for seed in range(100)]
        assert all(reply["ok"] for reply in replies)
        assert len({reply["result"]["probability"]
                    for reply in replies}) == 1
        assert len(calls) == 1
        ((session, _lock),) = server._sessions.values()
        assert len(session._exact_cache) == 1
        reply = server.handle({**request, "config": {"seed": 100,
                                                     "tolerance": 1e-9}})
        assert reply["ok"] and len(calls) == 2 and calls[1] == 1e-9
        assert len(session._exact_cache) == 2

    def test_zero_recompilation_across_requests(self):
        """The acceptance-criterion counter: one compile, then hits."""
        server = ProgramServer()
        first = server.handle({"op": "sample", "program": COIN,
                               "instance": _coins(), "n": 50,
                               "config": {"seed": 1}})
        second = server.handle({"op": "sample", "program": COIN,
                                "instance": _coins(), "n": 50,
                                "config": {"seed": 1}})
        third = server.handle({"op": "marginal", "program": COIN,
                               "instance": _coins(), "n": 50,
                               "fact": ["Heads", [0, 1]],
                               "config": {"seed": 1}})
        assert first["ok"] and second["ok"] and third["ok"]
        assert not first["compile_cached"]
        assert second["compile_cached"] and third["compile_cached"]
        assert server.stats["programs_compiled"] == 1
        assert server.stats["program_cache_hits"] == 2
        assert server.stats["sessions_created"] == 1
        assert server.stats["session_cache_hits"] == 2
        assert _strip_elapsed(first["result"]) \
            == _strip_elapsed(second["result"])

    def test_configured_sessions_share_engines(self):
        """configure() must derive, not rebuild, the warm session."""
        server = ProgramServer()
        server.handle({"op": "sample", "program": COIN,
                       "instance": _coins(), "n": 20,
                       "config": {"seed": 1}})
        base, _lock = next(iter(server._sessions.values()))
        engines_before = base._engines
        server.handle({"op": "sample", "program": COIN,
                       "instance": _coins(), "n": 20,
                       "config": {"seed": 2, "keep_aux": True}})
        assert next(iter(server._sessions.values()))[0]._engines \
            is engines_before
        assert server.stats["sessions_created"] == 1

    def test_program_lru_eviction(self):
        server = ProgramServer(max_programs=1)
        server.handle({"op": "analyze", "program": COIN})
        server.handle({"op": "analyze", "program": CASCADE})
        # COIN was evicted: compiling it again is a miss.
        reply = server.handle({"op": "analyze", "program": COIN})
        assert not reply["compile_cached"]
        assert server.stats["programs_compiled"] == 3
        assert len(server._programs) == 1

    def test_session_lru_eviction(self):
        server = ProgramServer(max_sessions=1)
        for k in (1, 2, 1):
            server.handle({"op": "sample", "program": COIN,
                           "instance": _coins(k), "n": 10,
                           "config": {"seed": 1}})
        assert server.stats["sessions_created"] == 3
        assert len(server._sessions) == 1

    def test_analyze_and_mass_report_documents(self):
        server = ProgramServer()
        analyze = server.handle({"op": "analyze", "program": COIN})
        assert analyze["result"]["verdict"] == "terminating"
        assert analyze["result"]["discrete"] is True
        mass = server.handle({"op": "mass_report", "program": COIN,
                              "instance": _coins(1),
                              "budgets": [1, 2]})
        assert mass["ok"]
        reports = mass["result"]["reports"]
        assert [r["budget"] for r in reports] == [1, 2]
        assert all(abs(r["instance_mass"] + r["err_mass"] - 1.0) < 1e-9
                   for r in reports)

    def test_marginal_matches_exact(self):
        server = ProgramServer()
        reply = server.handle({"op": "marginal", "program": COIN,
                               "instance": _coins(1), "n": 4000,
                               "fact": ["Heads", [0, 1]],
                               "config": {"seed": 11}})
        assert reply["ok"]
        assert abs(reply["result"]["probability"] - 0.5) < 0.05

    def test_sharded_request_through_server(self):
        # "shards" is not a config field: a request naming it gets
        # the config's error reply, and the same request without it
        # is sampled in the serving process.
        server = ProgramServer()
        request = {"op": "sample", "program": CASCADE,
                   "instance": {"Site": [[0], [1]]}, "n": 40}
        sharded = server.handle({**request,
                                 "config": {"seed": 3, "shards": 2}})
        with pytest.raises(ValidationError) as raised:
            ChaseConfig().replace(shards=2)
        assert sharded == {"ok": False, "error": str(raised.value)}
        assert "shards" in sharded["error"]
        single = server.handle({**request, "config": {"seed": 3}})
        assert single["ok"] and single["result"]["backend"] == "batched"

    @pytest.mark.parametrize("request_payload,needle", [
        ({"op": "nope"}, "unknown op"),
        ({"op": "sample"}, "program"),
        ({"op": "sample", "program": "  "}, "program"),
        # The Session verbs' run-count check, and its message.
        ({"op": "sample", "program": COIN, "n": 0},
         "n must be an int >= 1, got 0"),
        ({"op": "sample", "program": COIN, "n": True},
         "n must be an int >= 1, got True"),
        ({"op": "sample", "program": COIN, "config": [1]}, "config"),
        ({"op": "sample", "program": COIN,
          "config": {"bogus_field": 1}}, "bogus_field"),
        ({"op": "marginal", "program": COIN, "fact": "Heads"}, "fact"),
        ({"op": "mass_report", "program": COIN, "budgets": []},
         "budgets"),
        ({"op": "sample", "program": "This is not datalog ((("},
         "ok"),
        # 2.0 dropped the "shared" stream scheme with the field.
        ({"op": "sample", "program": COIN,
          "config": {"streams": "shared"}}, "unknown ChaseConfig field"),
        # A truthy string must not switch on the parallel chase.
        ({"op": "sample", "program": COIN,
          "config": {"parallel": "no"}}, "parallel must be a bool"),
        # Session.run records its trace and "batched" is the default
        # backend: neither setting is left to pick.
        ({"op": "sample", "program": COIN,
          "config": {"record_trace": True}}, "record_trace"),
        ({"op": "sample", "program": COIN,
          "config": {"backend": "auto"}},
         "unknown sampling backend 'auto'"),
    ])
    def test_errors_become_replies_not_exceptions(self, request_payload,
                                                  needle):
        server = ProgramServer()
        reply = server.handle(request_payload)
        assert reply["ok"] is False
        if needle != "ok":
            assert needle in reply["error"]
        # The server survives and keeps serving.
        assert server.handle({"op": "ping"})["ok"]
        assert server.stats["errors"] >= 1

    def test_engine_config_is_an_error_reply(self):
        # The scalar loop has one applicability engine: "engine" is
        # not a config field, and the reply is the config's error.
        server = ProgramServer()
        reply = server.handle({"op": "sample", "program": COIN,
                               "instance": _coins(), "n": 10,
                               "config": {"seed": 1,
                                          "engine": "incremental"}})
        with pytest.raises(ValidationError) as raised:
            ChaseConfig().replace(engine="incremental")
        assert reply == {"ok": False, "error": str(raised.value)}

    @pytest.mark.parametrize("request_payload,needle", [
        ({"op": "mass_report", "program": COIN, "budgets": [True]},
         "budgets"),
        ({"op": "sample", "program": COIN, "semantics": 5},
         "unknown semantics 5"),
        ({"op": "analyze", "program": COIN, "semantics": ["grohe"]},
         "unknown semantics"),
        ({"op": "sample", "program": COIN,
          "instance": {"Coin": [[[1, 2]]]}}, "instance row of 'Coin'"),
        ({"op": "sample", "program": COIN,
          "instance": {"Coin": [[{"a": 1}]]}}, "instance row of 'Coin'"),
        ({"op": "sample", "program": COIN,
          "instance": [["Coin", [[1]]]]}, "fact 'args'"),
        ({"op": "marginal", "program": COIN, "instance": _coins(),
          "fact": ["Heads", [[0], 1]]}, "fact 'args'"),
        ({"op": "posterior", "program": COIN, "instance": _coins(),
          "method": "rejection", "observe": [{"fact": ["Heads",
                                                       [[0], 1]]}]},
         "fact 'args'"),
        ({"op": "posterior", "program": COIN, "instance": _coins(),
          "observe": [{"relation": "Heads", "carried": [[0]],
                       "value": 1}]}, "observation 'carried'"),
        ({"op": "query", "program": COIN, "instance": _coins(),
          "plan": {"op": "scan", "relation": "Heads"},
          "observe": [{"relation": "Heads", "carried": [{"a": 0}],
                       "value": 1}]}, "observation 'carried'"),
        ({"op": "posterior", "program": COIN, "instance": _coins(),
          "observe": [{"relation": "Heads", "carried": [0],
                       "value": [1]}]}, "'value' must hold scalar"),
        ({"op": "stream_observe", "stream_id": ["s1"],
          "observe": {"fact": ["Heads", [0, 1]]}}, "'stream_id'"),
        ({"op": "stream_close", "stream_id": {"id": "s1"}},
         "'stream_id'"),
    ], ids=["budgets-bool", "semantics-int", "semantics-list",
            "instance-row-list", "instance-row-object",
            "instance-fact-list", "marginal-fact-args",
            "posterior-fact-args", "posterior-carried",
            "query-carried-object", "posterior-value-list",
            "stream-id-list",
            "stream-id-object"])
    def test_malformed_values_are_validation_replies(
            self, request_payload, needle):
        # A malformed value is a validation error naming its field:
        # never a leaked Python exception (an unhashable list or
        # object, a semantics that is not a string) nor a bool taken
        # for an int.
        server = ProgramServer()
        reply = server.handle(request_payload)
        assert reply["ok"] is False
        assert needle in reply["error"]
        assert not re.match(r"\w+(Error|Exception)\b", reply["error"])
        assert server.stats["errors"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            ProgramServer(max_programs=0)
        with pytest.raises(ValidationError):
            ProgramServer(max_sessions=0)
        with pytest.raises(ValidationError):
            ProgramServer(max_streams=0)


# ---------------------------------------------------------------------------
# Socket transport (in-process)
# ---------------------------------------------------------------------------


@pytest.fixture()
def running_server():
    server = ProgramServer()
    tcp = serve_socket(server, port=0)
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, tcp.server_address
    finally:
        tcp.shutdown()
        tcp.server_close()
        thread.join(timeout=5)


class TestSocketTransport:
    def test_request_over_socket(self, running_server):
        _server, (host, port) = running_server
        reply = request_over_socket(host, port, {"op": "ping"})
        assert reply["ok"] and "stats" in reply

    def test_client_verbs(self, running_server):
        _server, (host, port) = running_server
        with ServingClient(host, port) as client:
            assert client.ping()["ok"]
            document = client.sample(COIN, n=100, instance=_coins(),
                                     seed=5)
            assert document["command"] == "sample"
            assert document["n_runs"] == 100
            probability = client.marginal(COIN, ["Heads", [0, 1]],
                                          n=100, instance=_coins(),
                                          seed=5)
            assert 0.0 <= probability <= 1.0
            assert client.analyze(COIN)["verdict"] == "terminating"
            reports = client.mass_report(COIN, budgets=[1, 2],
                                         instance=_coins(1))["reports"]
            assert len(reports) == 2

    def test_client_raises_on_server_error(self, running_server):
        _server, (host, port) = running_server
        with ServingClient(host, port) as client:
            with pytest.raises(repro.ReproError, match="unknown op"):
                client.result({"op": "bogus"})

    def test_malformed_line_gets_error_reply(self, running_server):
        import socket as socket_module
        _server, (host, port) = running_server
        with socket_module.create_connection((host, port)) as conn:
            conn.sendall(b"{not json\n")
            with conn.makefile("r", encoding="utf-8") as reader:
                reply = decode_line(reader.readline())
        assert reply["ok"] is False and "bad JSON" in reply["error"]

    def test_concurrent_clients_zero_recompilation(self, running_server):
        server, (host, port) = running_server
        documents: list = []
        errors: list = []

        def worker(seed: int) -> None:
            try:
                with ServingClient(host, port) as client:
                    documents.append(client.sample(
                        COIN, n=60, instance=_coins(), seed=seed))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(documents) == 3
        assert all(doc["n_runs"] == 60 for doc in documents)
        assert server.stats["programs_compiled"] == 1
        assert server.stats["program_cache_hits"] == 2
        assert server.stats["sessions_created"] == 1


# ---------------------------------------------------------------------------
# Concurrency: per-session locks + warm executors
# ---------------------------------------------------------------------------


class TestServerConcurrency:
    def test_sessions_do_not_serialize_each_other(self):
        """Holding one program's session lock must not block others."""
        server = ProgramServer()
        coin = {"op": "sample", "program": COIN, "instance": _coins(),
                "n": 10, "config": {"seed": 1}}
        cascade = {"op": "sample", "program": CASCADE,
                   "instance": {"Site": [[0]]}, "n": 10,
                   "config": {"seed": 1}}
        server.handle(dict(coin))
        server.handle(dict(cascade))
        lock = server.session_lock(program_sha(COIN, "grohe"),
                                   parse_instance(_coins()))
        done = threading.Event()
        replies: list = []

        def blocked_worker() -> None:
            replies.append(server.handle(dict(coin)))
            done.set()

        lock.acquire()
        try:
            thread = threading.Thread(target=blocked_worker,
                                      daemon=True)
            thread.start()
            # The COIN request is stuck behind its session lock ...
            assert not done.wait(0.3)
            # ... while a CASCADE request on this thread completes.
            assert server.handle(dict(cascade))["ok"]
        finally:
            lock.release()
        assert done.wait(10)
        thread.join(timeout=10)
        assert replies and replies[0]["ok"]


    def test_locks_live_and_die_with_their_sessions(self):
        """No lock outlives everything that can reach its session.

        2000 one-fact instances cycle through a 4-session LRU while a
        stream stays open on an evicted session: the server then holds
        the 4 cached sessions' locks plus the stream's, and no
        container of it grows with the number of instances it saw.
        """
        rlock = type(threading.RLock())

        def held_locks(value, found) -> set:
            if isinstance(value, rlock):
                found.add(id(value))
            elif isinstance(value, dict):
                for item in value.values():
                    held_locks(item, found)
            elif isinstance(value, (list, tuple, set)):
                for item in value:
                    held_locks(item, found)
            return found

        server = ProgramServer(max_sessions=4)
        opened = server.handle({"op": "stream_open", "program": COIN,
                                "instance": _coins(), "n": 20,
                                "config": {"seed": 1}})
        assert opened["ok"]
        for k in range(2000):
            assert server.handle({"op": "sample", "program": COIN,
                                  "instance": {"Coin": [[k]]}, "n": 1,
                                  "config": {"seed": k}})["ok"]
        state = {name: value for name, value in vars(server).items()
                 if name != "_lock"}
        assert len(held_locks(state, set())) \
            <= server.max_sessions + len(server._streams) == 5
        assert all(len(value) <= 32 for value in state.values()
                   if isinstance(value, (dict, list, set)))
        stream_id = opened["result"]["stream_id"]
        assert server.handle({"op": "stream_posterior",
                              "stream_id": stream_id})["ok"]


# ---------------------------------------------------------------------------
# Posterior + streaming ops
# ---------------------------------------------------------------------------


def _marginal_of(result: dict, relation: str, args: list) -> float:
    return next(m["probability"] for m in result["marginals"]
                if m["fact"] == {"relation": relation, "args": args})


class TestPosteriorOp:
    def test_likelihood_posterior_document(self):
        server = ProgramServer()
        reply = server.handle({
            "op": "posterior", "program": CASCADE,
            "instance": {"Site": [["a"]]}, "n": 3000,
            "observe": [{"relation": "Alarm", "carried": ["a"],
                         "value": 1}],
            "config": {"seed": 2}})
        assert reply["ok"]
        result = reply["result"]
        assert result["command"] == "posterior"
        assert result["method"] == "likelihood"
        assert result["n_runs"] == 3000
        assert result["effective_sample_size"] > 0
        # P(Trig=1 | Alarm sample = 1) = 3/7.
        assert abs(_marginal_of(result, "Trig", ["a", 1]) - 3 / 7) \
            < 0.05

    def test_fact_evidence_conditions_by_rejection(self):
        server = ProgramServer()
        reply = server.handle({
            "op": "posterior", "program": CASCADE,
            "instance": {"Site": [["a"]]}, "n": 1500,
            "method": "rejection",
            "observe": [{"fact": {"relation": "Trig",
                                  "args": ["a", 1]}}],
            "config": {"seed": 4}})
        assert reply["ok"]
        result = reply["result"]
        assert result["method"] == "rejection"
        assert _marginal_of(result, "Trig", ["a", 1]) == 1.0

    def test_missing_evidence_is_an_error_reply(self):
        server = ProgramServer()
        reply = server.handle({"op": "posterior", "program": CASCADE,
                               "instance": {"Site": [["a"]]},
                               "observe": []})
        assert reply["ok"] is False
        assert "observe" in reply["error"]


class TestStreamOps:
    def _open(self, server, n=1500, **extra):
        return server.handle({"op": "stream_open", "program": CASCADE,
                              "instance": {"Site": [["a"]]}, "n": n,
                              "config": {"seed": 2}, **extra})

    def test_stream_lifecycle(self):
        server = ProgramServer()
        opened = self._open(server)
        assert opened["ok"]
        state = opened["result"]
        stream_id = state["stream_id"]
        assert state["n_worlds"] == 1500 and state["n_evidence"] == 0
        observed = server.handle({
            "op": "stream_observe", "stream_id": stream_id,
            "observe": {"relation": "Alarm", "carried": ["a"],
                        "value": 1}})
        assert observed["ok"]
        assert observed["result"]["n_evidence"] == 1
        token = observed["result"]["token"]
        posterior = server.handle({"op": "stream_posterior",
                                   "stream_id": stream_id})
        assert posterior["ok"]
        result = posterior["result"]
        assert result["method"] == "stream"
        assert abs(_marginal_of(result, "Trig", ["a", 1]) - 3 / 7) \
            < 0.07
        retracted = server.handle({"op": "stream_observe",
                                   "stream_id": stream_id,
                                   "retract": token})
        assert retracted["ok"]
        assert retracted["result"]["n_evidence"] == 0
        closed = server.handle({"op": "stream_close",
                                "stream_id": stream_id})
        assert closed["ok"] and closed["result"]["closed"] is True
        gone = server.handle({"op": "stream_posterior",
                              "stream_id": stream_id})
        assert gone["ok"] is False and "unknown stream_id" in gone["error"]

    def test_fact_evidence_masks_stream_worlds(self):
        server = ProgramServer()
        stream_id = self._open(server)["result"]["stream_id"]
        observed = server.handle({
            "op": "stream_observe", "stream_id": stream_id,
            "observe": {"fact": {"relation": "Trig",
                                 "args": ["a", 1]}}})
        assert observed["ok"]
        assert observed["result"]["n_alive"] \
            < observed["result"]["n_worlds"]

    def test_unsupported_observation_is_an_error_reply(self):
        server = ProgramServer()
        stream_id = self._open(server)["result"]["stream_id"]
        reply = server.handle({
            "op": "stream_observe", "stream_id": stream_id,
            "observe": {"relation": "Trig", "carried": ["a"],
                        "value": 1}})
        assert reply["ok"] is False
        # The stream survives the declined observation.
        assert server.handle({"op": "stream_posterior",
                              "stream_id": stream_id})["ok"]

    def test_stream_lru_eviction(self):
        server = ProgramServer(max_streams=1)
        first = self._open(server, n=100)["result"]["stream_id"]
        second = self._open(server, n=100)["result"]["stream_id"]
        assert server.handle({"op": "stream_posterior",
                              "stream_id": first})["ok"] is False
        assert server.handle({"op": "stream_posterior",
                              "stream_id": second})["ok"]
        assert server.stats["streams_opened"] == 2


class TestClientStreamVerbs:
    def test_posterior_and_stream_over_socket(self, running_server):
        _server, (host, port) = running_server
        evidence = {"relation": "Alarm", "carried": ["a"], "value": 1}
        with ServingClient(host, port) as client:
            document = client.posterior(
                CASCADE, [evidence], n=2000,
                instance={"Site": [["a"]]}, seed=2)
            assert document["method"] == "likelihood"
            assert abs(_marginal_of(document, "Trig", ["a", 1])
                       - 3 / 7) < 0.06
            state = client.stream_open(CASCADE, n=1200,
                                       instance={"Site": [["a"]]},
                                       seed=2)
            stream_id = state["stream_id"]
            observed = client.stream_observe(stream_id, evidence)
            assert observed["n_evidence"] == 1
            streamed = client.stream_posterior(stream_id)
            assert streamed["method"] == "stream"
            assert abs(_marginal_of(streamed, "Trig", ["a", 1])
                       - 3 / 7) < 0.07
            client.stream_retract(stream_id, observed["token"])
            assert client.stream_posterior(stream_id)["diagnostics"][
                "n_evidence"] == 0
            assert client.stream_close(stream_id)["closed"] is True

    def test_fact_event_evidence_over_socket(self, running_server):
        # The client encodes ContainsFactEvent, and a bare Fact as its
        # shorthand, into the one wire form: the same reply either way.
        _server, (host, port) = running_server
        trig = Fact("Trig", ("a", 1))
        with ServingClient(host, port) as client:
            documents = [
                _strip_elapsed(client.posterior(
                    CASCADE, [evidence], n=600, method="guided",
                    instance={"Site": [["a"]]}, seed=3))
                for evidence in (ContainsFactEvent(trig), trig)]
            assert documents[0] == documents[1]
            assert documents[0]["method"] == "guided"
            assert _marginal_of(documents[0], "Trig", ["a", 1]) == 1.0
            stream_id = client.stream_open(
                CASCADE, n=600, instance={"Site": [["a"]]},
                seed=3)["stream_id"]
            by_event = client.stream_observe(stream_id,
                                             ContainsFactEvent(trig))
            assert 0 < by_event["n_alive"] < 600
            client.stream_retract(stream_id, by_event["token"])
            by_fact = client.stream_observe(stream_id, trig)
            assert by_fact["n_alive"] == by_event["n_alive"]
