"""Closed-loop runner, failure accounting and the timing statistics.

Everything here is independent of the program under test: a *unit* is
a callable, given the unit's index, that performs one timed piece of
client work (one request, or one observe/query/retract cycle) and
reports what it received.  :func:`closed_loop` times units back to
back - the next unit starts only after the previous one returned - and
classifies each as ok or failed; :func:`summarize` turns the unit
list into the end-to-end figures.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np

#: Samples a reported percentile needs strictly beyond it.
MIN_BEYOND = 10
#: The calibration workload's time on the reference machine.  Timings
#: are reported in reference time (see :func:`summarize`).
CALIBRATION_S = 0.006


def calibrate() -> float:
    """Seconds a fixed interpreter-and-allocator workload takes now.

    Integer arithmetic in a Python loop, building, encoding and
    decoding a thousand small JSON rows, and masks over a 10,000-slot
    array: the same kinds of work the served requests do, so its time
    tracks the machine's current speed for them (a pure arithmetic
    loop alone missed the slowdowns that hit allocation-heavy and
    columnar requests).  The cyclic garbage collector is off while it
    runs: its allocations would otherwise now and then trigger a
    collection of the server's whole heap, and the calibration would
    time that instead of the machine.
    """
    gc.disable()
    try:
        began = time.perf_counter()
        total = 0
        for value in range(20_000):
            total += value
        rows = [{"a": i, "b": str(i), "c": [i, i + 0.5]}
                for i in range(1000)]
        json.loads(json.dumps(rows))
        slots = np.arange(10_000)
        for modulus in range(3, 23):
            int(np.count_nonzero(slots % modulus == 1))
        return time.perf_counter() - began
    finally:
        gc.enable()


@dataclass
class Outcome:
    """What one unit returned: reply bytes, a problem, and extras.

    ``problem`` is None for a correct reply, otherwise a one-line
    reason (error reply, failed per-unit check).  ``extras`` carries
    per-unit readings a workload wants reported (e.g. the stream ESS).
    """

    reply_bytes: int
    problem: str | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class Unit:
    """One timed unit as the loop recorded it."""

    index: int
    latency_s: float
    reply_bytes: int
    problem: str | None
    extras: dict
    #: The calibration workload timed just before the unit.
    calibration_s: float

    @property
    def reference_s(self) -> float:
        """The latency scaled to the reference machine speed."""
        return self.latency_s * CALIBRATION_S / self.calibration_s

    @property
    def ok(self) -> bool:
        return self.problem is None


def rank_index(q: float, n: int) -> int:
    """0-based nearest-rank index of the ``q``-th percentile of ``n``."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0, math.ceil(q / 100.0 * n) - 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a value that was actually observed."""
    ordered = sorted(values)
    return ordered[rank_index(q, len(ordered))]


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie strictly above the percentile."""
    return n - rank_index(q, n) - 1


def supported(q: float, n: int) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return n > 0 and samples_beyond(q, n) >= MIN_BEYOND


def closed_loop(run_unit: Callable[[int], Outcome], seconds: float,
                deadline_s: float, min_units: int = 100,
                max_seconds: float = 120.0,
                on_error: Callable[[BaseException], None] | None = None,
                around: Callable[[int], ContextManager] | None = None,
                clock: Callable[[], float] = time.perf_counter,
                ) -> tuple[list[Unit], float]:
    """Run units back to back; returns (units, loop wall seconds).

    The loop stops once ``seconds`` have passed *and* ``min_units``
    were timed, or unconditionally after ``max_seconds``.  A unit that
    raises (a socket timeout, a dropped connection, an error reply the
    client turned into an exception) or that takes longer than
    ``deadline_s`` counts as failed; ``on_error`` is called after an
    exception so the caller can reconnect.  Failed units are recorded
    at no less than the deadline: a failure misses any latency limit.
    ``around(index)``, if given, is a context entered outside the
    unit's timing (the traced run installs its wrappers there).  Each
    unit is preceded, outside its timing, by :func:`calibrate`.
    """
    units: list[Unit] = []
    start = clock()
    index = 0
    while True:
        elapsed = clock() - start
        if elapsed >= max_seconds or (elapsed >= seconds
                                      and len(units) >= min_units):
            break
        calibration_s = calibrate()
        with around(index) if around else nullcontext():
            began = clock()
            raised = None
            try:
                outcome = run_unit(index)
            except Exception as error:  # noqa: BLE001 - the loop goes on
                raised = error
                outcome = Outcome(0, f"{type(error).__name__}: {error}")
            latency = clock() - began
        if raised is not None and on_error is not None:
            on_error(raised)
        problem = outcome.problem
        if problem is None and latency > deadline_s:
            problem = f"deadline overrun ({latency:.3f} s > {deadline_s} s)"
        if problem is not None:
            latency = max(latency, deadline_s)
        units.append(Unit(index, latency, outcome.reply_bytes, problem,
                          outcome.extras, calibration_s))
        index += 1
    return units, clock() - start


def summarize(units: list[Unit]) -> dict:
    """End-to-end figures of one loop, each with its sample count.

    Returns ``{name: (value, unit, samples)}``.  Times are *reference*
    times: each unit's latency is scaled by the reference time of the
    calibration workload over its time just before that unit.  The
    speed of a shared machine drifts by tens of percent within
    seconds; the calibration tracks that drift, so scaled figures
    repeat across runs where raw wall times do not.

    Latency percentiles run over every attempted unit (failures at
    their recorded, at least deadline-long, latency); throughput is
    successful units per second of the loop's unit time, and reply
    size the mean over successful units.
    """
    if not units:
        raise ValueError("the loop timed no units")
    latencies_ms = [unit.reference_s * 1e3 for unit in units]
    good = [unit for unit in units if unit.ok]
    attempted = len(units)
    reply = statistics.fmean(unit.reply_bytes for unit in good) / 1024 \
        if good else 0.0
    return {
        "latency_p50_ms": (percentile(latencies_ms, 50.0), "ms",
                           attempted),
        "latency_p90_ms": (percentile(latencies_ms, 90.0), "ms",
                           attempted),
        "requests_per_s": (len(good) / (sum(latencies_ms) / 1e3), "1/s",
                           len(good)),
        "reply_kib": (reply, "KiB", len(good)),
        "ok_share": (len(good) / attempted, "share", attempted),
    }
