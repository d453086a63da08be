"""Tests of the benchmark itself: statistics, failures, spans, wrappers.

Run with ``PYTHONPATH=src python3 -m pytest servebench/tests -q``.
"""

import inspect
import itertools
import json
import time
from pathlib import Path

import pytest

import harness
import tracing
from harness import Outcome, Unit


def _units(latencies_ms, problems=None):
    problems = problems or [None] * len(latencies_ms)
    return [Unit(i, ms / 1e3, 100, problem, {}, harness.CALIBRATION_S)
            for i, (ms, problem) in enumerate(zip(latencies_ms, problems))]


# -- percentiles and sample counts -------------------------------------------


def test_percentiles_are_nearest_rank_observed_values():
    values = list(range(1, 101))             # 1..100
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(reversed(values), 90) == 90
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.percentile([1, 2, 3, 4], 50) == 2


def test_p90_needs_ten_samples_beyond_it():
    assert harness.samples_beyond(90, 100) == 10
    assert harness.supported(90, 100)
    assert not harness.supported(90, 99)
    assert harness.supported(50, 20)
    assert not harness.supported(50, 19)
    assert not harness.supported(90, 0)


def test_summary_reports_sample_counts():
    summary = harness.summarize(_units(range(1, 101)))
    assert summary["latency_p50_ms"] == (50.0, "ms", 100)
    assert summary["latency_p90_ms"][0] == pytest.approx(90.0)
    assert summary["requests_per_s"][0] == pytest.approx(100 / 5.05)
    assert summary["requests_per_s"][1:] == ("1/s", 100)
    assert summary["ok_share"] == (1.0, "share", 100)
    assert summary["reply_kib"][0] == pytest.approx(100 / 1024)


def test_latencies_are_scaled_to_the_reference_speed():
    fast, slow = _units([10.0, 10.0])
    slow.calibration_s = 2 * harness.CALIBRATION_S     # machine half as fast
    assert fast.reference_s == pytest.approx(0.010)
    assert slow.reference_s == pytest.approx(0.005)
    assert harness.summarize([slow, slow])["latency_p50_ms"][0] == \
        pytest.approx(5.0)


# -- failure accounting ------------------------------------------------------


class FakeClock:
    """A clock that only moves when a unit says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_error_reply_and_deadline_overrun_count_as_failed():
    clock = FakeClock()
    reconnects = []

    def unit(index):
        clock.now += 0.01
        if index == 3:
            return Outcome(50, "error reply: boom")
        if index == 5:
            clock.now += 2.0                  # overruns the 1 s deadline
        if index == 7:
            raise TimeoutError("timed out")
        return Outcome(100)

    units, _wall = harness.closed_loop(
        unit, seconds=0.5, deadline_s=1.0, min_units=20,
        on_error=reconnects.append, clock=clock)
    failed = {u.index: u.problem for u in units if not u.ok}
    assert set(failed) == {3, 5, 7}
    assert failed[3] == "error reply: boom"
    assert failed[5].startswith("deadline overrun")
    assert failed[7].startswith("TimeoutError")
    assert len(reconnects) == 1               # only after the exception
    summary = harness.summarize(units)
    assert summary["ok_share"][0] == pytest.approx(1 - 3 / len(units))
    # A failed unit is recorded at no less than the deadline.
    assert all(u.latency_s >= 1.0 for u in units if not u.ok)
    assert summary["requests_per_s"][2] == len(units) - 3


def test_loop_stops_at_the_hard_cap_even_below_min_units():
    clock = FakeClock()

    def unit(_index):
        clock.now += 10.0
        return Outcome(1)

    units, _ = harness.closed_loop(unit, seconds=1, deadline_s=60,
                                   min_units=100, max_seconds=50,
                                   clock=clock)
    assert len(units) == 5


def test_loop_runs_on_until_min_units():
    clock = FakeClock()

    def unit(_index):
        clock.now += 1.0
        return Outcome(1)

    units, _ = harness.closed_loop(unit, seconds=3, deadline_s=60,
                                   min_units=8, clock=clock)
    assert len(units) == 8


# -- spans and self time -----------------------------------------------------


def _span(index, name, parent, start, end, request=0):
    return tracing.Span(index, name, request, parent, start, end)


def test_self_time_is_parent_minus_children():
    parent = _span(0, "engine.run_batch", None, 0.0, 10.0)
    children = [_span(1, "distributions.draw", 0, 1.0, 3.0),
                _span(2, "chase.run", 0, 4.0, 8.5)]
    assert tracing.self_time(parent, children) == pytest.approx(3.5)
    index = tracing.SpanIndex([parent] + children)
    assert index.self_total(0, "engine.run_batch") == pytest.approx(3.5)
    assert index.total(0, "engine.run_batch") == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    parent = _span(0, "p", None, 0.0, 10.0)
    children = [_span(1, "c", 0, 1.0, 5.0), _span(2, "c", 0, 4.0, 6.0)]
    assert tracing.self_time(parent, children) == pytest.approx(5.0)


def test_nested_same_name_spans_count_once():
    outer = _span(0, "query.answer", None, 0.0, 4.0)
    inner = _span(1, "query.answer", 0, 1.0, 2.0)
    index = tracing.SpanIndex([outer, inner])
    assert index.total(0, "query.answer") == pytest.approx(4.0)


def test_tracer_records_parent_request_and_counts():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self, n):
            return list(range(n))

        def outer(self, n):
            return self.inner(n)

    def count(span, args, result):
        span.attrs["n"] = len(result)

    targets = [(Layer, "outer", "outer", None),
               (Layer, "inner", "inner", count)]
    with tracer.installed(targets):
        Layer().outer(3)                      # no request set: not traced
        tracer.request = 7
        Layer().outer(4)
        tracer.request = None
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.request) == ("outer", None, 7)
    assert (inner.name, inner.parent, inner.attrs) == \
        ("inner", outer.index, {"n": 4})
    assert outer.start < inner.start < inner.end < outer.end


def test_tracer_ignores_the_client_thread():
    import threading
    tracer = tracing.Tracer(ignore_thread=threading.get_ident())

    class Layer:
        def call(self):
            return 1

    with tracer.installed([(Layer, "call", "call", None)]):
        tracer.request = 0
        Layer().call()
        worker = threading.Thread(target=Layer().call)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert [span.name for span in tracer.spans] == ["call"]


def test_spans_are_written_as_json_lines(tmp_path):
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def call(self):
            return None

    with tracer.installed([(Layer, "call", "layer.call", None)]):
        tracer.request = "setup-0"
        Layer().call()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    (line,) = path.read_text().splitlines()
    assert json.loads(line) == {"name": "layer.call", "request": "setup-0",
                                "id": 0, "parent": None,
                                "start_us": 0.0, "end_us": 1e6}


# -- wrappers restore the originals ------------------------------------------


def test_wrappers_restore_the_original_functions():
    targets = tracing.layer_targets()
    before = [(owner, attr, inspect.getattr_static(owner, attr),
               attr in vars(owner)) for owner, attr, _n, _r in targets]
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        for owner, attr, original, _own in before:
            assert inspect.getattr_static(owner, attr) is not original
    for owner, attr, original, own in before:
        assert inspect.getattr_static(owner, attr) is original
        assert (attr in vars(owner)) == own


def test_wrappers_are_restored_when_the_body_raises():
    class Layer:
        def call(self):
            return 1

    original = Layer.__dict__["call"]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed([(Layer, "call", "c", None)]):
            raise RuntimeError("unit failed")
    assert Layer.__dict__["call"] is original


def test_inherited_methods_are_restored_by_deletion():
    class Base:
        def call(self):
            return "base"

    class Child(Base):
        pass

    with tracing.Tracer().installed([(Child, "call", "c", None)]):
        assert "call" in vars(Child)
    assert "call" not in vars(Child)
    assert Child().call() == "base"


# -- the benchmark's own contract ---------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    import run
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    summary = harness.summarize(_units([1.0] * 100))
    end_to_end = list(summary) + ["peak_rss_mib", "setup_s"]
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end
    assert [m["name"] for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_a_traced_request_yields_every_layer_metric():
    from repro.serving.server import ProgramServer
    import workloads
    tracer = tracing.Tracer()
    server = ProgramServer()
    load = workloads.make("ex34-paper", 0)
    with tracer.installed(tracing.layer_targets()):
        tracer.request = 1
        began = time.perf_counter()
        reply = server.handle(load.request(1))
        latency = time.perf_counter() - began
    assert reply["ok"]
    unit = Unit(1, latency, 0, None, {}, harness.CALIBRATION_S)
    metrics = tracing.layer_metrics(tracing.SpanIndex(tracer.spans),
                                    [unit], [unit], [], server.stats)
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["api.rngs_spawned"][0] in (0, load.n)
    assert metrics["engine.prepare_ms"][0] == 0.0   # no set-up traced
    assert metrics["serving.compiles"][0] == 1
    assert metrics["pdb.materializations"][0] == 0
