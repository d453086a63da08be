"""A long-lived program server over the JSON-lines protocol.

:class:`ProgramServer` is the transport-free core: it caches compiled
programs by source hash (LRU) and warm sessions by (program, instance)
so repeated requests hit zero recompilation and zero applicability
re-bootstrap, and answers one request dict with one response dict.
Two thin transports wrap it: :func:`serve_stdio` (one JSON object per
stdin line, one per stdout line) and :func:`serve_socket` (a threading
TCP server speaking the same lines over each connection).  Both are
exposed as ``repro serve``.

Request objects carry ``op`` plus op-specific fields::

    {"op": "ping"}
    {"op": "analyze", "program": "...", "semantics": "grohe"}
    {"op": "sample", "program": "...", "instance": {"R": [[1]]},
     "n": 1000, "config": {"seed": 7, "shards": 2}}
    {"op": "marginal", "program": "...", "fact": ["R", [1]], "n": 500}
    {"op": "query", "program": "...", "n": 500,
     "plan": {"op": "aggregate", "group_by": [],
              "aggregates": {"n": {"fn": "count", "column": null}},
              "source": {"op": "scan", "relation": "R"}}}
    {"op": "mass_report", "program": "...", "budgets": [1, 2, 4]}

Responses are ``{"ok": true, "result": ..., "program_sha": ...,
"compile_cached": ...}`` or ``{"ok": false, "error": ...}`` - the
``result`` of ``sample``/``analyze``/``mass_report`` is byte-for-byte
the corresponding CLI ``--json`` document
(:mod:`repro.serving.protocol`).
"""

from __future__ import annotations

import hashlib
import os
import socket
import socketserver
import threading
from collections import OrderedDict

from repro.api.session import CompiledProgram, Session
from repro.api.session import compile as compile_program
from repro.errors import ReproError, ValidationError
from repro.pdb.facts import Fact
from repro.serving import protocol
from repro.serving.sharding import ShardExecutor, sample_sharded

#: Ops accepted by :meth:`ProgramServer.handle`.
OPS = ("ping", "analyze", "sample", "marginal", "query", "mass_report",
       "posterior", "stream_open", "stream_observe",
       "stream_posterior", "stream_query", "stream_close")

#: Ops addressed to an open stream (by ``stream_id``, no program text).
_STREAM_OPS = ("stream_observe", "stream_posterior", "stream_query",
               "stream_close")


class _FactEvent:
    """Containment predicate for served fact evidence (printable)."""

    def __init__(self, fact: Fact):
        self.fact = fact

    def __call__(self, instance) -> bool:
        return self.fact in instance

    def __repr__(self) -> str:
        return f"contains({self.fact!r})"


def program_sha(source: str, semantics: str) -> str:
    """The cache key: sha256 over semantics + program source."""
    digest = hashlib.sha256()
    digest.update(semantics.encode())
    digest.update(b"\n")
    digest.update(source.encode())
    return digest.hexdigest()


class ProgramServer:
    """Transport-free request handler with compile and session caches.

    ``max_programs`` / ``max_sessions`` bound the two LRUs (a session
    holds its program's warm applicability engines and batched
    sampler, so the session cache is the larger memory commitment).
    ``handle`` is thread-safe.  The global lock guards only cache and
    stats mutation; inference runs under a per-(program, instance)
    *session* lock, so concurrent clients working on distinct
    programs/instances chase in parallel, and only requests racing on
    the same warm session (whose engine caches are not thread-safe)
    serialize against each other.

    Sharded requests run on warm, LRU-cached
    :class:`~repro.serving.sharding.ShardExecutor` pools
    (``max_executors`` bound; spawning a process pool per request
    would dominate the request cost) - evicted and
    :meth:`close`-d executors shut their pools down.  Streaming
    sessions (``stream_open`` ..) are held in a bounded registry
    keyed by server-issued ``stream_id``.
    """

    def __init__(self, max_programs: int = 32,
                 max_sessions: int = 32,
                 max_executors: int = 8,
                 max_streams: int = 32):
        if max_programs < 1 or max_sessions < 1 \
                or max_executors < 1 or max_streams < 1:
            raise ValidationError(
                "max_programs, max_sessions, max_executors and "
                "max_streams must be >= 1")
        self.max_programs = max_programs
        self.max_sessions = max_sessions
        self.max_executors = max_executors
        self.max_streams = max_streams
        self._programs: OrderedDict[str, CompiledProgram] = \
            OrderedDict()
        self._sessions: OrderedDict[tuple, Session] = OrderedDict()
        self._session_locks: dict[tuple, threading.RLock] = {}
        self._executors: OrderedDict[tuple, ShardExecutor] = \
            OrderedDict()
        self._streams: OrderedDict[str, tuple] = OrderedDict()
        #: Pre-flight deep-analysis payloads, keyed by program sha
        #: alongside the compile cache (same LRU lifetime).
        self._analyses: dict[str, dict] = {}
        self._stream_counter = 0
        self._lock = threading.RLock()
        self.stats = {
            "requests": 0,
            "errors": 0,
            "programs_compiled": 0,
            "program_cache_hits": 0,
            "sessions_created": 0,
            "session_cache_hits": 0,
            "executors_created": 0,
            "executor_cache_hits": 0,
            "streams_opened": 0,
            "analyses_precomputed": 0,
        }

    def close(self) -> None:
        """Shut down every cached shard executor and drop open streams."""
        with self._lock:
            executors = list(self._executors.values())
            self._executors.clear()
            self._streams.clear()
        for executor in executors:
            executor.close()

    # -- caches -------------------------------------------------------------

    def program_for(self, source: str,
                    semantics: str = "grohe",
                    ) -> tuple[str, CompiledProgram, bool]:
        """(sha, compiled program, was-cache-hit) for program text."""
        if not isinstance(source, str) or not source.strip():
            raise ValidationError(
                "request needs a non-empty 'program' string")
        sha = program_sha(source, semantics)
        with self._lock:
            compiled = self._programs.get(sha)
            if compiled is not None:
                self._programs.move_to_end(sha)
                self.stats["program_cache_hits"] += 1
                return sha, compiled, True
            compiled = compile_program(source, semantics=semantics)
            # Translate eagerly: the point of the cache is that the
            # hot path never pays compilation again.  The pre-flight
            # static analysis (lint + capability predictions) rides
            # along: it is cheap, cached by the same sha, and lets an
            # "analyze" op (or an operator's dashboard) explain a
            # program's fallbacks before any sampling request runs.
            compiled.translated
            self._analyses[sha] = protocol.analyze_payload(
                compiled, deep=True)
            self._programs[sha] = compiled
            self.stats["programs_compiled"] += 1
            self.stats["analyses_precomputed"] += 1
            while len(self._programs) > self.max_programs:
                dropped, _ = self._programs.popitem(last=False)
                self._analyses.pop(dropped, None)
            return sha, compiled, False

    def analysis_for(self, sha: str,
                     compiled: CompiledProgram) -> dict:
        """The pre-flight deep-analysis payload for a cached program.

        Normally already present (``program_for`` computes it on
        compile); recomputed only if the entry was evicted between
        the compile and this lookup.
        """
        with self._lock:
            payload = self._analyses.get(sha)
            if payload is None:
                payload = protocol.analyze_payload(compiled,
                                                   deep=True)
                self._analyses[sha] = payload
            return payload

    def session_for(self, sha: str, compiled: CompiledProgram,
                    instance) -> Session:
        """The warm base session for (program, instance), LRU-cached.

        Request-specific configs derive from the base via
        ``Session.configure``, which *shares* the engine caches - so
        a config change never discards the applicability bootstrap or
        the batched sampler.
        """
        key = (sha, instance)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self.stats["session_cache_hits"] += 1
                return session
            session = compiled.on(instance)
            self._sessions[key] = session
            self.stats["sessions_created"] += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
            return session

    def session_lock(self, sha: str, instance) -> threading.RLock:
        """The per-(program, instance) inference lock, get-or-create.

        Locks are keyed like sessions but never evicted (a lock is a
        few hundred bytes; evicting one while a thread holds it would
        let a re-created twin run concurrently on the same session).
        """
        key = (sha, instance)
        with self._lock:
            lock = self._session_locks.get(key)
            if lock is None:
                lock = threading.RLock()
                self._session_locks[key] = lock
            return lock

    def executor_for(self, sha: str, instance, compiled, cfg,
                     ) -> ShardExecutor:
        """A warm shard executor for (program, instance, config).

        LRU-cached so the hot path reuses live pool workers instead of
        spawning a ``mp.Pool`` per request; evicted executors shut
        their pools down.  Construction itself is lazy-cheap (the pool
        starts on first use), so it happens under the global lock.
        """
        key = (sha, instance, cfg)
        evicted = []
        with self._lock:
            executor = self._executors.get(key)
            if executor is not None:
                self._executors.move_to_end(key)
                self.stats["executor_cache_hits"] += 1
                return executor
            executor = ShardExecutor(
                compiled.translated, instance, cfg,
                processes=min(cfg.shards or 1, os.cpu_count() or 1))
            self._executors[key] = executor
            self.stats["executors_created"] += 1
            while len(self._executors) > self.max_executors:
                evicted.append(self._executors.popitem(last=False)[1])
        for stale in evicted:
            stale.close()
        return executor

    # -- request handling ---------------------------------------------------

    def handle(self, request: dict) -> dict:
        """One response object for one request object (never raises)."""
        with self._lock:
            self.stats["requests"] += 1
        try:
            return self._dispatch(request)
        except ReproError as error:
            with self._lock:
                self.stats["errors"] += 1
            return {"ok": False, "error": str(error)}
        except Exception as error:  # noqa: BLE001 - server survives
            with self._lock:
                self.stats["errors"] += 1
            return {"ok": False,
                    "error": f"{type(error).__name__}: {error}"}

    def _dispatch(self, request: dict) -> dict:
        if not isinstance(request, dict):
            raise ValidationError(
                f"request must be an object, got {request!r}")
        op = request.get("op")
        if op == "ping":
            with self._lock:
                return {"ok": True, "op": "ping",
                        "stats": dict(self.stats)}
        if op not in OPS:
            raise ValidationError(
                f"unknown op {op!r}; known ops: {', '.join(OPS)}")
        if op in _STREAM_OPS:
            return self._dispatch_stream(op, request)
        semantics = request.get("semantics", "grohe")
        sha, compiled, cached = self.program_for(
            request.get("program"), semantics)
        if op == "analyze":
            if request.get("deep"):
                result = self.analysis_for(sha, compiled)
            else:
                result = protocol.analyze_payload(compiled)
            return self._reply(op, sha, cached, result)
        instance = protocol.parse_instance(request.get("instance"))
        session = self.session_for(sha, compiled, instance)
        overrides = request.get("config") or {}
        if not isinstance(overrides, dict) \
                or not all(isinstance(key, str) for key in overrides):
            raise ValidationError(
                "'config' must be an object of ChaseConfig fields")
        with self.session_lock(sha, instance):
            if overrides:
                session = session.configure(**overrides)
            result = self._run_session_op(op, request, sha, compiled,
                                          instance, session)
        return self._reply(op, sha, cached, result)

    def _run_session_op(self, op: str, request: dict, sha: str,
                        compiled, instance, session) -> dict:
        """One session-bound op, under the caller-held session lock."""
        if op == "sample":
            cfg = session.config
            if cfg.shards is not None and cfg.shards > 1:
                executor = self.executor_for(sha, instance, compiled,
                                             cfg)
                sampled = sample_sharded(session, self._n(request),
                                         cfg, executor=executor)
            else:
                sampled = session.sample(self._n(request))
            return protocol.sample_payload(sampled)
        if op == "marginal":
            fact = protocol.parse_fact(request.get("fact"))
            probability = session.marginal(fact, n=self._n(request))
            return {"command": "marginal",
                    "fact": protocol.fact_payload(fact),
                    "probability": probability}
        if op == "query":
            plan = protocol.parse_plan(request.get("plan"))
            if "observe" in request:
                session = session.observe(*self._evidence(request))
            cfg = session.config
            if cfg.shards is not None and cfg.shards > 1 \
                    and not session.evidence \
                    and not compiled.is_discrete():
                # Same sharded fan-out as ``sample``; the plan then
                # compiles over the merged columnar outcome, so no
                # world is ever materialized end to end.
                executor = self.executor_for(sha, instance, compiled,
                                             cfg)
                sampled = sample_sharded(session, self._n(request),
                                         cfg, executor=executor)
                return protocol.query_payload(sampled.query(plan))
            return protocol.query_payload(
                session.query(plan, n=self._n(request)))
        if op == "posterior":
            evidence = self._evidence(request)
            method = request.get("method", "likelihood")
            result = session.observe(*evidence).posterior(
                method=method, n=self._n(request))
            return protocol.posterior_payload(result)
        if op == "stream_open":
            return self._open_stream(request, sha, instance, session)
        budgets = request.get("budgets", (1, 2, 4, 8, 16, 32))
        if not isinstance(budgets, (list, tuple)) or not budgets \
                or not all(isinstance(budget, int) and budget > 0
                           for budget in budgets):
            raise ValidationError(
                "'budgets' must be a non-empty list of positive ints")
        return protocol.mass_report_payload(
            session.mass_report(tuple(budgets)))

    @staticmethod
    def _evidence(request: dict) -> list:
        payloads = request.get("observe")
        if not isinstance(payloads, (list, tuple)) or not payloads:
            raise ValidationError(
                "'observe' must be a non-empty list of evidence "
                "payloads")
        evidence = []
        for payload in payloads:
            item = protocol.parse_evidence(payload)
            if isinstance(item, Fact):
                # Session.observe takes events/predicates for facts;
                # "the fact holds" is containment.
                item = _FactEvent(item)
            evidence.append(item)
        return evidence

    # -- streaming ----------------------------------------------------------

    def _open_stream(self, request: dict, sha: str, instance,
                     session) -> dict:
        max_window = request.get("max_window")
        stream = session.stream(self._n(request), max_window)
        with self._lock:
            self._stream_counter += 1
            stream_id = f"s{self._stream_counter}"
            self._streams[stream_id] = \
                (stream, self.session_lock(sha, instance))
            self.stats["streams_opened"] += 1
            while len(self._streams) > self.max_streams:
                self._streams.popitem(last=False)
        return {"command": "stream_open", "stream_id": stream_id,
                **self._stream_state(stream)}

    def _dispatch_stream(self, op: str, request: dict) -> dict:
        stream_id = request.get("stream_id")
        with self._lock:
            entry = self._streams.get(stream_id)
            if entry is not None:
                self._streams.move_to_end(stream_id)
        if entry is None:
            raise ValidationError(
                f"unknown stream_id {stream_id!r}; it was never "
                "opened, or was closed or evicted")
        stream, lock = entry
        if op == "stream_close":
            with self._lock:
                self._streams.pop(stream_id, None)
            result = {"command": "stream_close", "closed": True}
            return {"ok": True, "op": op, "stream_id": stream_id,
                    "result": result}
        with lock:
            if op == "stream_posterior":
                result = protocol.posterior_payload(stream.posterior())
            elif op == "stream_query":
                # The streamed posterior stays a weighted *columnar*
                # ensemble; the plan compiles over its arrays without
                # collapsing the weights into materialized worlds.
                plan = protocol.parse_plan(request.get("plan"))
                result = protocol.query_payload(
                    stream.posterior().query(plan))
            elif "retract" in request:
                token = request["retract"]
                if isinstance(token, bool) \
                        or not isinstance(token, int):
                    raise ValidationError(
                        f"'retract' must be an evidence token (int), "
                        f"got {token!r}")
                stream.retract(token)
                result = {"command": "stream_observe",
                          "retracted": token,
                          **self._stream_state(stream)}
            else:
                evidence = protocol.parse_evidence(
                    request.get("observe"))
                token = stream.observe(evidence)
                result = {"command": "stream_observe", "token": token,
                          **self._stream_state(stream)}
        return {"ok": True, "op": op, "stream_id": stream_id,
                "result": result}

    @staticmethod
    def _stream_state(stream) -> dict:
        return {"n_worlds": stream.n_worlds,
                "n_alive": stream.n_alive,
                "n_evidence": stream.n_evidence,
                "resamples": stream.resamples,
                "effective_sample_size":
                    stream.effective_sample_size()}

    @staticmethod
    def _n(request: dict) -> int:
        n = request.get("n", 1000)
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise ValidationError(f"'n' must be a positive int, got {n!r}")
        return n

    def _reply(self, op: str, sha: str, cached: bool,
               result: dict) -> dict:
        return {"ok": True, "op": op, "program_sha": sha,
                "compile_cached": cached, "result": result}


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


def serve_stdio(server: ProgramServer, in_stream, out_stream) -> int:
    """JSON-lines over stdio: one request line in, one response out.

    Returns the number of requests served (EOF ends the loop; blank
    lines are skipped; malformed lines get an error response rather
    than killing the loop).
    """
    served = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            response = server.handle(protocol.decode_line(line))
        except ValidationError as error:
            response = {"ok": False, "error": str(error)}
        print(protocol.encode_line(response), file=out_stream,
              flush=True)
        served += 1
    return served


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                response = self.server.program_server.handle(
                    protocol.decode_line(line))
            except ValidationError as error:
                response = {"ok": False, "error": str(error)}
            self.wfile.write(
                (protocol.encode_line(response) + "\n").encode())
            self.wfile.flush()


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_socket(server: ProgramServer, host: str = "127.0.0.1",
                 port: int = 0) -> _ThreadingServer:
    """A threading TCP server speaking the JSON-lines protocol.

    Binds immediately (``port=0`` picks a free port - read it from
    ``returned.server_address``) but does not serve; call
    ``serve_forever()`` (typically on a thread) and ``shutdown()`` /
    ``server_close()`` to stop.  Each connection may pipeline any
    number of request lines.
    """
    tcp = _ThreadingServer((host, port), _LineHandler)
    tcp.program_server = server
    return tcp


def request_over_socket(host: str, port: int, payload: dict,
                        timeout: float = 60.0) -> dict:
    """One request/response round-trip on a fresh connection."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((protocol.encode_line(payload) + "\n").encode())
        with conn.makefile("r", encoding="utf-8") as reader:
            line = reader.readline()
    if not line:
        raise ReproError("server closed the connection without a reply")
    return protocol.decode_line(line)
