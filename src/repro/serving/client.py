"""A small client for the ``repro serve`` JSON-lines socket protocol.

One persistent connection per client, requests pipelined in order;
thread-safe (a lock serializes round-trips on the shared socket).  For
one-shot scripting, :func:`repro.serving.server.request_over_socket`
avoids keeping a connection at all.

>>> client = ServingClient("127.0.0.1", port)      # doctest: +SKIP
>>> client.sample("R(Flip<0.5>) :- true.", n=500)  # doctest: +SKIP
{'command': 'sample', ...}
"""

from __future__ import annotations

import socket
import threading

from repro.errors import ReproError
from repro.serving import protocol


class ServingClient:
    """A connected JSON-lines client for a running program server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._conn = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._conn.makefile("r", encoding="utf-8")

    # -- plumbing -----------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """Send one request object, return the raw response object."""
        line = protocol.encode_line(payload) + "\n"
        with self._lock:
            self._conn.sendall(line.encode())
            reply = self._reader.readline()
        if not reply:
            raise ReproError(
                "server closed the connection without a reply")
        return protocol.decode_line(reply)

    def result(self, payload: dict) -> dict:
        """Like :meth:`request`, but unwrap ``result`` or raise."""
        response = self.request(payload)
        if not response.get("ok"):
            raise ReproError(
                f"server error: {response.get('error', 'unknown')}")
        return response.get("result", response)

    def close(self) -> None:
        self._reader.close()
        self._conn.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- convenience verbs --------------------------------------------------

    def ping(self) -> dict:
        """Server liveness + cache statistics."""
        return self.request({"op": "ping"})

    def sample(self, program: str, n: int = 1000,
               instance: dict | None = None,
               semantics: str = "grohe", **config) -> dict:
        """The ``repro sample --json`` document, served."""
        return self.result({"op": "sample", "program": program,
                            "semantics": semantics, "n": n,
                            "instance": instance,
                            "config": config or None})

    def marginal(self, program: str, fact, n: int = 1000,
                 instance: dict | None = None, observe=None,
                 semantics: str = "grohe", **config) -> float:
        """Marginal probability of one output fact.

        With ``observe`` (evidence items, as :meth:`posterior` takes
        them), the marginal is taken under the posterior.
        """
        payload = {"op": "marginal", "program": program,
                   "semantics": semantics, "fact": fact, "n": n,
                   "instance": instance, "config": config or None}
        if observe is not None:
            payload["observe"] = self._evidence_payloads(observe)
        return self.result(payload)["probability"]

    def query(self, program: str, plan, n: int = 1000,
              instance: dict | None = None, observe=None,
              semantics: str = "grohe", **config) -> dict:
        """Serve a relational plan; the ``repro query --json`` document.

        ``plan`` is a :class:`~repro.query.relalg.Query` (encoded
        transparently; structural nodes only) or an already-encoded
        wire plan dict.  With ``observe``, the plan is answered under
        the posterior.
        """
        payload = {"op": "query", "program": program,
                   "semantics": semantics, "n": n,
                   "instance": instance,
                   "plan": plan if isinstance(plan, dict)
                   else protocol.plan_payload(plan),
                   "config": config or None}
        if observe is not None:
            payload["observe"] = self._evidence_payloads(observe)
        return self.result(payload)

    def analyze(self, program: str, semantics: str = "grohe") -> dict:
        """The ``repro analyze --json`` document, served."""
        return self.result({"op": "analyze", "program": program,
                            "semantics": semantics})

    def mass_report(self, program: str, budgets=None,
                    instance: dict | None = None,
                    semantics: str = "grohe") -> dict:
        """Figure-1 mass accounting across depth budgets."""
        payload = {"op": "mass_report", "program": program,
                   "semantics": semantics, "instance": instance}
        if budgets is not None:
            payload["budgets"] = list(budgets)
        return self.result(payload)

    # -- posteriors and streams ---------------------------------------------

    @staticmethod
    def _evidence_payloads(evidence) -> list:
        return [item if isinstance(item, dict)
                else protocol.evidence_payload(item)
                for item in evidence]

    def posterior(self, program: str, observe, n: int = 1000,
                  method: str | None = None,
                  instance: dict | None = None,
                  semantics: str = "grohe", **config) -> dict:
        """One-shot posterior document given evidence payloads.

        ``observe`` is a list of evidence items - wire payloads
        (dicts) or :class:`~repro.core.observe.Observation` /
        :class:`~repro.pdb.events.ContainsFactEvent` values (a bare
        :class:`~repro.pdb.facts.Fact` is shorthand for the event),
        encoded by :func:`~repro.serving.protocol.evidence_payload`.
        Without ``method`` the server picks it from the evidence, as
        :meth:`Session.posterior
        <repro.api.session.Session.posterior>` does.
        """
        return self.result({"op": "posterior", "program": program,
                            "semantics": semantics, "n": n,
                            "method": method, "instance": instance,
                            "observe": self._evidence_payloads(observe),
                            "config": config or None})

    def stream_open(self, program: str, n: int = 1000,
                    instance: dict | None = None,
                    semantics: str = "grohe",
                    max_window: int | None = None, **config) -> dict:
        """Open a server-side streaming posterior; returns its state.

        The returned document carries the ``stream_id`` every
        follow-up call addresses.
        """
        return self.result({"op": "stream_open", "program": program,
                            "semantics": semantics, "n": n,
                            "instance": instance,
                            "max_window": max_window,
                            "config": config or None})

    def stream_observe(self, stream_id: str, evidence) -> dict:
        """Apply one evidence item to an open stream; returns state."""
        payload = evidence if isinstance(evidence, dict) \
            else protocol.evidence_payload(evidence)
        return self.result({"op": "stream_observe",
                            "stream_id": stream_id,
                            "observe": payload})

    def stream_retract(self, stream_id: str, token: int) -> dict:
        """Exactly undo one previously observed evidence item."""
        return self.result({"op": "stream_observe",
                            "stream_id": stream_id, "retract": token})

    def stream_posterior(self, stream_id: str) -> dict:
        """The stream's current posterior document."""
        return self.result({"op": "stream_posterior",
                            "stream_id": stream_id})

    def stream_query(self, stream_id: str, plan) -> dict:
        """Answer a relational plan under the stream's posterior."""
        return self.result({"op": "stream_query",
                            "stream_id": stream_id,
                            "plan": plan if isinstance(plan, dict)
                            else protocol.plan_payload(plan)})

    def stream_close(self, stream_id: str) -> dict:
        """Release the server-side stream."""
        return self.result({"op": "stream_close",
                            "stream_id": stream_id})
