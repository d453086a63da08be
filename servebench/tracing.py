"""Spans around the calls into each layer, wrapped from outside.

Nothing under ``src/`` knows it is traced: :class:`Tracer` replaces a
layer's public function (a module attribute or a class attribute) with
a wrapper that records a :class:`Span` and calls the original, and
puts every original back on :meth:`Tracer.restore`.  Spans carry a
name, start, end, parent span and the id of the timed unit (request)
that caused them; they are held in memory and written out when the run
ends.  :func:`layer_metrics` turns them into the per-layer table.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Traced units whose counts are reported.  The first units of a run
#: are fixed by the seed, so counts over them repeat exactly.
COUNT_WINDOW = 10


@dataclass
class Span:
    """One call into a layer: what, when, caused by what."""

    index: int
    name: str
    request: object
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and restores the originals.

    Spans are recorded only while :attr:`request` is set (the harness
    sets it to the unit index before each traced unit) and only on
    threads other than ``ignore_thread`` - the benchmark's client runs
    in the same process as the server and calls some of the same
    functions (``protocol.encode_line``), which are not server work.
    """

    def __init__(self, ignore_thread: int | None = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.request: object = None
        self.ignore_thread = ignore_thread
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             record: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``record(span, args, result)`` may add attributes (counts) to
        the span after the call returns.
        """
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.request is None \
                    or threading.get_ident() == tracer.ignore_thread:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, tracer.request,
                        stack[-1].index if stack else None,
                        tracer._clock())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer._clock()
                stack.pop()
            if record is not None:
                record(span, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original,
                              attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, name, record)`` target, then restore."""
        try:
            for owner, attr, name, record in targets:
                self.wrap(owner, attr, name, record)
            yield self
        finally:
            self.restore()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in microseconds."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name, "request": span.request,
                    "id": span.index, "parent": span.parent,
                    "start_us": round((span.start - origin) * 1e6, 1),
                    "end_us": round((span.end - origin) * 1e6, 1),
                    **span.attrs}) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped: the layers' public functions
# ---------------------------------------------------------------------------


def _count_rngs(span, _args, result) -> None:
    span.attrs["n"] = len(result)


def _batch_counts(span, args, result) -> None:
    span.attrs["size"] = args[1]
    info = result.diagnostics if result is not None else {}
    for key in ("n_rounds", "n_groups", "n_draw_calls", "n_split"):
        span.attrs[key] = info.get(key, 0)


def layer_targets() -> list[tuple]:
    """``(owner, attr, span name, record)`` for every traced call.

    Owners are the attributes the callers look up at call time, so a
    wrapper sees every call: module globals where a module calls its
    own import (``protocol.fact_marginals``, ``batched.
    run_chase_prepared``), class attributes for methods.
    """
    from repro.api import config, session, stream
    from repro.distributions.base import ParameterizedDistribution
    from repro.engine import batched
    from repro.query import columnar
    from repro.serving import protocol, server

    targets = [
        (server.ProgramServer, "handle", "serving.handle", None),
        (protocol, "encode_line", "serving.encode", None),
        (protocol, "sample_payload", "serving.payload", None),
        (protocol, "posterior_payload", "serving.payload", None),
        (protocol, "query_payload", "serving.payload", None),
        (protocol, "fact_marginals", "pdb.marginals", None),
        (session.Session, "sample", "api.sample", None),
        (session.Session, "stream", "stream.open", None),
        (config.ChaseConfig, "spawn_rngs", "api.rng_spawn", _count_rngs),
        (batched.BatchedChase, "__init__", "engine.prepare", None),
        (batched.BatchedChase, "run_batch", "engine.run_batch",
         _batch_counts),
        (batched, "run_chase_prepared", "chase.run", None),
        (batched.ColumnarMonteCarloPDB, "_materialize_slots",
         "pdb.materialize", None),
        (stream.StreamingPosterior, "observe", "stream.observe", None),
        (stream.StreamingPosterior, "retract", "stream.retract", None),
    ]
    for function in ("query_distribution", "boolean_probability",
                     "expected_aggregate", "aggregate_distribution",
                     "answer_probabilities", "explain"):
        targets.append((columnar, function, "query.answer", None))
    pending, seen = [ParameterizedDistribution], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for method in ("sample_batch", "sample_batch_truncated"):
            if method in vars(cls):
                targets.append((cls, method, "distributions.draw", None))
    return targets


# ---------------------------------------------------------------------------
# From spans to the per-layer table
# ---------------------------------------------------------------------------


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


class SpanIndex:
    """Spans grouped by request, with parent links resolved."""

    def __init__(self, spans: list[Span]):
        self.by_id = {span.index: span for span in spans}
        self.children: dict[int, list[Span]] = {}
        self.by_request: dict[object, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
            self.by_request.setdefault(span.request, []).append(span)

    def outer(self, request, name: str) -> list[Span]:
        """``name`` spans of a request not nested in another ``name``."""
        return [span for span in self.by_request.get(request, ())
                if span.name == name and (
                    span.parent is None
                    or self.by_id[span.parent].name != name)]

    def total(self, request, name: str) -> float:
        return sum(span.duration for span in self.outer(request, name))

    def self_total(self, request, name: str) -> float:
        return sum(self_time(span, self.children.get(span.index, []))
                   for span in self.outer(request, name))


#: The per-layer metrics, in report order.
PER_LAYER = (
    "serving.handle_ms", "serving.transport_ms", "serving.encode_ms",
    "serving.payload_ms", "serving.compiles", "serving.sessions_created",
    "api.sample_ms", "api.rng_spawn_ms", "api.rngs_spawned",
    "engine.prepare_ms", "engine.run_batch_ms", "engine.run_batch_self_ms",
    "engine.rounds", "engine.groups", "engine.draw_calls",
    "engine.split_worlds", "engine.batched_share",
    "chase.run_ms", "chase.runs",
    "distributions.draw_ms", "distributions.draw_calls",
    "pdb.marginals_ms", "pdb.materializations",
    "query.answer_ms",
    "stream.open_ms", "stream.observe_ms", "stream.retract_ms",
    "stream.ess",
    "trace.overhead_ms",
)
#: Per-unit times: metric -> (span name, "total" | "self").
UNIT_TIMES = {
    "serving.handle_ms": ("serving.handle", "total"),
    "serving.encode_ms": ("serving.encode", "total"),
    "serving.payload_ms": ("serving.payload", "self"),
    "api.sample_ms": ("api.sample", "total"),
    "api.rng_spawn_ms": ("api.rng_spawn", "total"),
    "engine.run_batch_ms": ("engine.run_batch", "total"),
    "engine.run_batch_self_ms": ("engine.run_batch", "self"),
    "chase.run_ms": ("chase.run", "total"),
    "distributions.draw_ms": ("distributions.draw", "total"),
    "pdb.marginals_ms": ("pdb.marginals", "total"),
    "query.answer_ms": ("query.answer", "total"),
    "stream.observe_ms": ("stream.observe", "total"),
    "stream.retract_ms": ("stream.retract", "total"),
}
#: Times paid once per set-up: metric -> span name.
SETUP_TIMES = {
    "engine.prepare_ms": "engine.prepare",
    "stream.open_ms": "stream.open",
}
#: Exact counts per unit over the count window: metric -> (span name,
#: attribute summed, or None to count the spans themselves).
UNIT_COUNTS = {
    "api.rngs_spawned": ("api.rng_spawn", "n"),
    "engine.rounds": ("engine.run_batch", "n_rounds"),
    "engine.groups": ("engine.run_batch", "n_groups"),
    "engine.draw_calls": ("engine.run_batch", "n_draw_calls"),
    "engine.split_worlds": ("engine.run_batch", "n_split"),
    "chase.runs": ("chase.run", None),
    "distributions.draw_calls": ("distributions.draw", None),
    "pdb.materializations": ("pdb.materialize", None),
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(index: SpanIndex, traced: list, untraced: list,
                  setups: list, server_stats: dict) -> dict:
    """The per-layer table: ``{name: (value, unit, samples)}``.

    ``traced``/``untraced`` are the harness units timed with and
    without the wrappers (interleaved in one loop), ``setups`` the
    request ids of the traced set-ups.  Times are per-unit medians;
    counts are exact per-unit means over the first
    :data:`COUNT_WINDOW` traced units.
    """
    metrics: dict = {}
    requests = [unit.index for unit in traced]
    for metric, (name, how) in UNIT_TIMES.items():
        read = index.total if how == "total" else index.self_total
        metrics[metric] = (_median(read(r, name) * 1e3 for r in requests),
                           "ms", len(requests))
    metrics["serving.transport_ms"] = (
        _median((unit.latency_s - index.total(unit.index,
                                              "serving.handle")) * 1e3
                for unit in traced), "ms", len(traced))
    for metric, name in SETUP_TIMES.items():
        metrics[metric] = (_median(index.total(s, name) * 1e3
                                   for s in setups), "ms", len(setups))
    window = requests[:COUNT_WINDOW]
    per_unit = max(len(window), 1)
    sums: dict = {}
    for metric, (name, attr) in UNIT_COUNTS.items():
        spans = [span for r in window for span in index.outer(r, name)]
        sums[metric] = sum(span.attrs[attr] if attr else 1
                           for span in spans)
        metrics[metric] = (sums[metric] / per_unit, "count", len(window))
    size = sum(span.attrs["size"] for r in window
               for span in index.outer(r, "engine.run_batch"))
    metrics["engine.batched_share"] = (
        1.0 - sums["engine.split_worlds"] / size if size else 1.0,
        "share", len(window))
    metrics["serving.compiles"] = (server_stats["programs_compiled"],
                                   "count", 1)
    metrics["serving.sessions_created"] = (
        server_stats["sessions_created"], "count", 1)
    ess = [unit.extras["ess"] for unit in traced if "ess" in unit.extras]
    metrics["stream.ess"] = (_median(ess), "worlds", len(ess))
    metrics["trace.overhead_ms"] = (
        (_median(u.latency_s for u in traced)
         - _median(u.latency_s for u in untraced)) * 1e3,
        "ms", min(len(traced), len(untraced)))
    return {name: metrics[name] for name in PER_LAYER}
