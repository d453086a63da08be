"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator; tests needing other seeds build their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def g0():
    return paper.example_1_1_g0()


@pytest.fixture
def g0_prime():
    return paper.example_1_1_g0_prime()


@pytest.fixture
def program_h():
    return paper.section_6_2_h()


@pytest.fixture
def program_h_prime():
    return paper.section_6_2_h_prime()


@pytest.fixture
def earthquake_program():
    return paper.example_3_4_program()


@pytest.fixture
def earthquake_instance():
    return paper.example_3_4_instance()


@pytest.fixture
def heights_program():
    return paper.example_3_5_program()


@pytest.fixture
def heights_instance():
    return paper.example_3_5_instance(persons_per_country=2)


@pytest.fixture
def handed_world_rngs(monkeypatch) -> list:
    """The per-world generator sequence of every
    ``ChaseConfig.spawn_rngs`` call the test makes, in call order."""
    from repro.api.config import ChaseConfig
    handed: list = []
    spawn_rngs = ChaseConfig.spawn_rngs

    def spy(self, n):
        rngs = spawn_rngs(self, n)
        handed.append(rngs)
        return rngs

    monkeypatch.setattr(ChaseConfig, "spawn_rngs", spy)
    return handed


@pytest.fixture
def small_instance() -> Instance:
    return Instance.of(Fact("R", (1, "a")), Fact("R", (2, "b")),
                       Fact("S", (1,)))


def assert_measures_close(actual: dict, expected: dict,
                          tolerance: float = 1e-9) -> None:
    """Compare instance->probability dictionaries pointwise."""
    keys = set(actual) | set(expected)
    for key in keys:
        a = actual.get(key, 0.0)
        e = expected.get(key, 0.0)
        assert abs(a - e) <= tolerance, \
            f"mass mismatch at {key!r}: {a} vs {e}"
