"""Shared fixtures/helpers for the benchmark harness.

Every benchmark both *asserts* its experiment's reproduced values
(so ``pytest benchmarks/`` doubles as a reproduction check) and *times*
the pipeline via pytest-benchmark.  Test classes carry their experiment
id in their names (``TestE13FacadeAmortization``, ...), and
``benchmarks/perf_report.py`` keys the regression gate by test node id.
"""

from __future__ import annotations

import pytest

from repro.api import compile as compile_program
from repro.workloads import paper


def facade_exact(program, instance=None, semantics="grohe",
                 **overrides):
    """Exact SPDB through the compile-once facade (benchmark shorthand)."""
    return compile_program(program, semantics=semantics) \
        .on(instance, **overrides).exact().pdb


def assert_close_map(actual: dict, expected: dict,
                     tolerance: float = 1e-9) -> None:
    keys = set(actual) | set(expected)
    for key in keys:
        a = actual.get(key, 0.0)
        e = expected.get(key, 0.0)
        assert abs(a - e) <= tolerance, f"{key!r}: {a} vs {e}"


@pytest.fixture
def earthquake_program():
    return paper.example_3_4_program()


@pytest.fixture
def earthquake_instance():
    return paper.example_3_4_instance()


@pytest.fixture
def heights_program():
    return paper.example_3_5_program()
