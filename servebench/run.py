#!/usr/bin/env python3
"""Served-request benchmark of the program server, end to end.

Starts a :class:`~repro.serving.server.ProgramServer` behind
``serve_socket`` in this process, drives one workload through one
client connection as a closed loop, checks the replies, and prints a
table followed by one JSON line::

    python3 servebench/run.py --workload ex34-paper --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' public functions (see ``tracing.py``), traces every other unit
and reports the per-layer metrics.  The program is imported from the
``src/`` directory next to this one and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("ex34-paper", "ex34-cities", "ex35-heights", "sensor-stream")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Timed units every run reaches, so p90 has ten samples beyond it.
MIN_UNITS = 100
#: Hard cap on the timed loop, seconds (the run must end within 180).
MAX_LOOP_S = 120.0


class Served:
    """A program server on a local socket plus one measured client."""

    def __init__(self, deadline_s: float):
        from repro.serving.server import ProgramServer, serve_socket
        from workloads import MeasuredClient
        self.deadline_s = deadline_s
        self.server = ProgramServer()
        self.tcp = serve_socket(self.server)
        self.thread = threading.Thread(target=self.tcp.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.client = MeasuredClient(*self.tcp.server_address,
                                     timeout=deadline_s)

    def reconnect(self, _error=None) -> None:
        """A fresh connection, after a timeout left a reply pending."""
        from workloads import MeasuredClient
        self.client.close()
        self.client = MeasuredClient(*self.tcp.server_address,
                                     timeout=self.deadline_s)

    def close(self) -> None:
        self.client.close()
        self.tcp.shutdown()
        self.tcp.server_close()
        self.server.close()
        self.thread.join(timeout=10)


def import_program() -> None:
    """Import ``repro`` from the checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {unit:<7} n={samples}")


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> dict:
    import harness
    import tracing
    import workloads
    # One CPU for the client, the server threads and the calibration,
    # so the calibration times the processor the server runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.make(workload_name, seed)
    tracer = targets = None
    if trace:
        tracer = tracing.Tracer(ignore_thread=threading.get_ident())
        targets = tracing.layer_targets()

    @contextmanager
    def traced(request):
        with tracer.installed(targets):
            tracer.request = request
            try:
                yield
            finally:
                tracer.request = None

    # Set up SETUPS times, from a new server each time; the last one
    # serves the timed loop.
    setup_s = []
    served = None
    for attempt in range(SETUPS):
        if served is not None:
            served.close()
            # Free the previous server now, so the peak memory is that
            # of one server, whenever the collector would have run.
            gc.collect()
        scale = harness.CALIBRATION_S / harness.calibrate()
        with traced(f"setup-{attempt}") if trace else nullcontext():
            began = time.perf_counter()
            served = Served(workloads.DEADLINE_S)
            workload.setup(served.client, attempt)
            setup_s.append((time.perf_counter() - began) * scale)

    def unit(index: int):
        return workload.unit(served.client, index)

    def around(index: int):
        return traced(index) if trace and index % 2 else nullcontext()

    try:
        units, wall = harness.closed_loop(
            unit, seconds, workloads.DEADLINE_S, min_units=MIN_UNITS,
            max_seconds=MAX_LOOP_S, on_error=served.reconnect,
            around=around)
        stats = dict(served.server.stats)
    finally:
        served.close()

    failed = [unit for unit in units if not unit.ok]
    checks = workload.verdicts()
    correct = bool(checks) and all(check.passed for check in checks) \
        and len(failed) < len(units)
    speed = harness.CALIBRATION_S \
        / statistics.median(unit.calibration_s for unit in units)
    print(f"workload {workload_name}  seed {seed}  trace {int(trace)}  "
          f"units {len(units)}  failed {len(failed)}  "
          f"loop {wall:.1f} s  speed {speed:.3f} x reference  raw p50 "
          f"{harness.percentile([u.latency_s * 1e3 for u in units], 50):.1f}"
          f" ms")
    for check in checks:
        print(f"  check {check.name:<26} "
              f"{'pass' if check.passed else 'FAIL'}  {check.detail}")
    for unit_ in failed[:5]:
        print(f"  failed unit {unit_.index}: {unit_.problem}")

    if trace:
        index = tracing.SpanIndex(tracer.spans)
        metrics = tracing.layer_metrics(
            index, [u for u in units if u.index % 2],
            [u for u in units if not u.index % 2],
            [f"setup-{attempt}" for attempt in range(SETUPS)], stats)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{workload_name}-{seed}.jsonl"
        tracer.write(spans_path)
        print_table(f"per-layer (traced units, spans in "
                    f"{spans_path.relative_to(HERE.parent)})", metrics)
    else:
        metrics = harness.summarize(units)
        if not harness.supported(90.0, len(units)):
            print(f"  note: {len(units)} units leave fewer than "
                  f"{harness.MIN_BEYOND} samples beyond p90")
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB", 1)
        metrics["setup_s"] = (statistics.median(setup_s), "s",
                              len(setup_s))
        print_table("end-to-end", metrics)
    return {"correct": correct, "attempted": len(units),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit_name}
                        for name, (value, unit_name, _n)
                        in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (RuntimeError, OSError) as error:
        # A set-up that fails or cannot reach the server: nothing was
        # measured, so no result is printed.
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
