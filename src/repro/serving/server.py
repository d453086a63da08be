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
     "n": 1000, "config": {"seed": 7}}
    {"op": "marginal", "program": "...", "fact": ["R", [1]], "n": 500}
    {"op": "query", "program": "...", "n": 500,
     "plan": {"op": "aggregate", "group_by": [],
              "aggregates": {"n": {"fn": "count", "column": null}},
              "source": {"op": "scan", "relation": "R"}}}
    {"op": "mass_report", "program": "...", "budgets": [1, 2, 4]}
    {"op": "posterior", "program": "...", "n": 1000,
     "observe": [{"fact": ["R", [1]]}], "method": "rejection"}

A ``posterior`` without ``method`` takes :meth:`Session.posterior
<repro.api.session.Session.posterior>`'s default: ``likelihood`` for
observations only, ``rejection`` for ``{"fact": ...}`` events only and
``auto`` for a mix; a ``marginal`` or ``query`` with ``observe``
conditions the same way.  A stream reuses its last ``stream_query``
plan while the plan's wire text stays the same, so its ensemble's
answer index still serves it (:mod:`repro.api.stream`).

Responses are ``{"ok": true, "result": ..., "program_sha": ...,
"compile_cached": ...}`` or ``{"ok": false, "error": ...}`` - the
``result`` of ``sample``/``analyze``/``mass_report`` is byte-for-byte
the corresponding CLI ``--json`` document
(:mod:`repro.serving.protocol`).
"""

from __future__ import annotations

import hashlib
import socket
import socketserver
import threading
from collections import OrderedDict

from repro.api.config import _check_runs, _is_int
from repro.api.session import SEMANTICS, CompiledProgram, Session
from repro.api.session import compile as compile_program
from repro.errors import ReproError, ValidationError
from repro.serving import protocol

#: Ops accepted by :meth:`ProgramServer.handle`.
OPS = ("ping", "analyze", "sample", "marginal", "query", "mass_report",
       "posterior", "stream_open", "stream_observe",
       "stream_posterior", "stream_query", "stream_close")

#: Ops addressed to an open stream (by ``stream_id``, no program text).
_STREAM_OPS = ("stream_observe", "stream_posterior", "stream_query",
               "stream_close")


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
    stats mutation; inference runs under the warm session's own lock,
    kept in its LRU entry, so concurrent clients working on distinct
    programs/instances chase in parallel, and only requests racing on
    the same warm session (whose engine caches are not thread-safe)
    serialize against each other.

    Streaming sessions (``stream_open`` ..) are held in a bounded
    registry keyed by the ``stream_id`` the server hands out, each
    with its session's lock and the last plan it was queried with.
    """

    def __init__(self, max_programs: int = 32,
                 max_sessions: int = 32,
                 max_streams: int = 32):
        if max_programs < 1 or max_sessions < 1 or max_streams < 1:
            raise ValidationError(
                "max_programs, max_sessions and max_streams must be "
                ">= 1")
        self.max_programs = max_programs
        self.max_sessions = max_sessions
        self.max_streams = max_streams
        self._programs: OrderedDict[str, CompiledProgram] = \
            OrderedDict()
        self._sessions: OrderedDict[
            tuple, tuple[Session, threading.RLock]] = OrderedDict()
        self._streams: OrderedDict[str, tuple] = OrderedDict()
        self._stream_counter = 0
        self._lock = threading.RLock()
        self.stats = {
            "requests": 0,
            "errors": 0,
            "programs_compiled": 0,
            "program_cache_hits": 0,
            "sessions_created": 0,
            "session_cache_hits": 0,
            "streams_opened": 0,
        }

    def close(self) -> None:
        """Drop every open stream."""
        with self._lock:
            self._streams.clear()

    # -- caches -------------------------------------------------------------

    def program_for(self, source: str,
                    semantics: str = "grohe",
                    ) -> tuple[str, CompiledProgram, bool]:
        """(sha, compiled program, was-cache-hit) for program text."""
        if not isinstance(source, str) or not source.strip():
            raise ValidationError(
                "request needs a non-empty 'program' string")
        if semantics not in SEMANTICS:
            raise ValidationError(
                f"unknown semantics {semantics!r}; "
                f"use one of {SEMANTICS}")
        sha = program_sha(source, semantics)
        with self._lock:
            compiled = self._programs.get(sha)
            if compiled is not None:
                self._programs.move_to_end(sha)
                self.stats["program_cache_hits"] += 1
                return sha, compiled, True
            compiled = compile_program(source, semantics=semantics)
            # Translate eagerly: the point of the cache is that the
            # hot path never pays compilation again.
            compiled.translated
            self._programs[sha] = compiled
            self.stats["programs_compiled"] += 1
            while len(self._programs) > self.max_programs:
                self._programs.popitem(last=False)
            return sha, compiled, False

    def session_for(self, sha: str, compiled: CompiledProgram,
                    instance) -> tuple[Session, threading.RLock]:
        """The warm base session for (program, instance) and its lock.

        LRU-cached.  Request-specific configs derive from the base via
        ``Session.configure``, which *shares* the engine caches - so
        a config change never discards the applicability bootstrap or
        the batched sampler - and inference on any of them runs under
        the returned lock.
        """
        key = (sha, instance)
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                self._sessions.move_to_end(key)
                self.stats["session_cache_hits"] += 1
                return entry
            entry = (compiled.on(instance), threading.RLock())
            self._sessions[key] = entry
            self.stats["sessions_created"] += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
            return entry

    def session_lock(self, sha: str, instance) -> threading.RLock | None:
        """The inference lock of the cached (program, instance) session.

        None when no such session is cached.  A lock lives in its
        session's LRU entry and leaves with it: a request keeps the
        lock it was handed with the session, and an open stream its
        own session's lock, so a lock lives exactly as long as
        something can reach its session.  A session re-created after
        eviction gets a new lock; it shares no engine cache with its
        evicted twin, so the two may run at once.
        """
        with self._lock:
            entry = self._sessions.get((sha, instance))
            return None if entry is None else entry[1]

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
            result = protocol.analyze_payload(
                compiled, deep=bool(request.get("deep")))
            return self._reply(op, sha, cached, result)
        instance = protocol.parse_instance(request.get("instance"))
        session, lock = self.session_for(sha, compiled, instance)
        overrides = request.get("config") or {}
        if not isinstance(overrides, dict) \
                or not all(isinstance(key, str) for key in overrides):
            raise ValidationError(
                "'config' must be an object of ChaseConfig fields")
        with lock:
            if overrides:
                session = session.configure(**overrides)
            result = self._run_session_op(op, request, session, lock)
        return self._reply(op, sha, cached, result)

    def _run_session_op(self, op: str, request: dict, session,
                        lock: threading.RLock) -> dict:
        """One session-bound op, under the caller-held session lock."""
        if op == "sample":
            return protocol.sample_payload(
                session.sample(self._n(request)))
        if op == "marginal":
            fact = protocol.parse_fact(request.get("fact"))
            if "observe" in request:
                session = session.observe(*self._evidence(request))
            probability = session.marginal(fact, n=self._n(request))
            return {"command": "marginal",
                    "fact": protocol.fact_payload(fact),
                    "probability": probability}
        if op == "query":
            plan = protocol.parse_plan(request.get("plan"))
            if "observe" in request:
                session = session.observe(*self._evidence(request))
            return protocol.query_payload(
                session.query(plan, n=self._n(request)))
        if op == "posterior":
            evidence = self._evidence(request)
            result = session.observe(*evidence).posterior(
                method=request.get("method"), n=self._n(request))
            return protocol.posterior_payload(result)
        if op == "stream_open":
            return self._open_stream(request, session, lock)
        budgets = request.get("budgets", (1, 2, 4, 8, 16, 32))
        if not isinstance(budgets, (list, tuple)) or not budgets \
                or not all(_is_int(budget) and budget > 0
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
        return [protocol.parse_evidence(payload)
                for payload in payloads]

    # -- streaming ----------------------------------------------------------

    def _open_stream(self, request: dict, session,
                     lock: threading.RLock) -> dict:
        """Open a stream that keeps its session's lock for its ops."""
        max_window = request.get("max_window")
        stream = session.stream(self._n(request), max_window)
        with self._lock:
            self._stream_counter += 1
            stream_id = f"s{self._stream_counter}"
            # The third slot is the stream's last parsed plan, as
            # [wire text, plan] (see _stream_plan).
            self._streams[stream_id] = (stream, lock, [None, None])
            self.stats["streams_opened"] += 1
            while len(self._streams) > self.max_streams:
                self._streams.popitem(last=False)
        return {"command": "stream_open", "stream_id": stream_id,
                **self._stream_state(stream)}

    def _dispatch_stream(self, op: str, request: dict) -> dict:
        stream_id = request.get("stream_id")
        if not isinstance(stream_id, str):
            raise ValidationError(
                f"'stream_id' must be a string, got {stream_id!r}")
        with self._lock:
            entry = self._streams.get(stream_id)
            if entry is not None:
                self._streams.move_to_end(stream_id)
        if entry is None:
            raise ValidationError(
                f"unknown stream_id {stream_id!r}; it was never "
                "opened, or was closed or evicted")
        stream, lock, last_plan = entry
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
                plan = self._stream_plan(last_plan, request.get("plan"))
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
    def _stream_plan(last_plan: list, payload):
        """The plan of a ``stream_query``: the last one, if unchanged.

        ``last_plan`` is the stream's ``[wire text, plan]`` slot.  The
        ensemble keeps the answer index of the plan *object* it last
        answered, so a stream asked the same plan again must be
        handed the same object; equal canonical wire text
        (:func:`protocol.encode_line`) means an equal plan.  Other
        text parses as a new plan, which then takes the slot.
        """
        text = protocol.encode_line(payload)
        if last_plan[0] != text:
            last_plan[:] = [text, protocol.parse_plan(payload)]
        return last_plan[1]

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
        return _check_runs(request.get("n", 1000))

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
