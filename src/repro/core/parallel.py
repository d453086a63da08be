"""The parallel probabilistic chase (Section 5).

A parallel chase step (Definition 5.1) fires *all* applicable pairs of
``App(D)`` simultaneously: deterministic firings add their head facts,
and every existential firing draws its sample independently - the
product-measure structure the paper makes explicit (and justifies via
Fubini: the order of the independent draws is irrelevant).

Because applicable pairs are keyed by their ground head instantiation
(see :mod:`repro.core.applicability`), distinct existential firings
target distinct auxiliary prefixes, so the simultaneous extension never
violates the induced functional dependencies (Lemma 3.10) - including
under the Bárány translation, where several source rules may share an
auxiliary relation and are collapsed into a single firing.

Unlike the sequential chase, the parallel chase needs no policy: the
parallel chase step from an instance is unique (remark after
Definition 5.1), which is also why its tree ``T_App,D0`` is determined
by the root instance alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.applicability import (IncrementalApplicability,
                                      NaiveApplicability)
from repro.core.chase import (DEFAULT_MAX_STEPS, ChaseRun, ChaseStep,
                              _as_rng, _as_translated, fire)
from repro.core.program import Program
from repro.core.translate import ExistentialProgram
from repro.measures.kernels import SamplerKernel
from repro.measures.markov import MarkovProcess
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


def run_parallel_chase(program: Program | ExistentialProgram,
                       instance: Instance | None = None,
                       rng: np.random.Generator | int | None = None,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       record_trace: bool = False) -> ChaseRun:
    """Run one parallel chase to termination or budget exhaustion.

    ``max_steps`` counts *parallel* steps (tree levels); each step may
    add many facts.  The firing configuration ``ℓ(D)`` of Section 5.1
    is simply the multiset of rules behind the applicable firings.
    """
    translated = _as_translated(program)
    instance = instance if instance is not None else Instance.empty()
    state = IncrementalApplicability(translated, instance)
    return run_parallel_chase_prepared(translated, state, instance,
                                       _as_rng(rng), max_steps,
                                       record_trace)


def run_parallel_chase_prepared(translated: ExistentialProgram,
                                state, instance: Instance,
                                rng: np.random.Generator,
                                max_steps: int = DEFAULT_MAX_STEPS,
                                record_trace: bool = False) -> ChaseRun:
    """Parallel-chase hot loop over a pre-built applicability state.

    Batched callers (:meth:`repro.api.Session.sample`) construct the
    engine once and ``fork()`` it per run; ``state`` must reflect
    exactly ``instance`` and is consumed.
    """
    current = instance
    trace: list[ChaseStep] | None = [] if record_trace else None

    for step_count in range(max_steps):
        applicable = state.applicable()
        if not applicable:
            return ChaseRun(current, True, step_count,
                            tuple(trace) if trace is not None else None)
        # All firings sample against the *current* instance, then the
        # extensions are applied jointly (Ext of Definition 3.7).
        new_facts: list[Fact] = []
        for firing in applicable:
            new_fact = fire(translated, firing, rng)
            new_facts.append(new_fact)
            if trace is not None:
                trace.append(ChaseStep(firing, new_fact))
        for new_fact in new_facts:
            state.add_fact(new_fact)
        current = current.add_all(new_facts)

    terminated = not state.applicable()
    return ChaseRun(current, terminated, max_steps,
                    tuple(trace) if trace is not None else None)


def firing_configuration(program: Program | ExistentialProgram,
                         instance: Instance) -> dict[int, int]:
    """The firing configuration ``ℓ(D)``: rule index -> firing count.

    (Section 5.1: ``ℓ_i = |{ā : (φ̂_i, ā) ∈ App(D)}|``.)  Only rules
    with at least one applicable firing appear.
    """
    translated = _as_translated(program)
    configuration: dict[int, int] = {}
    for firing in NaiveApplicability(translated, instance).applicable():
        configuration[firing.rule_index] = \
            configuration.get(firing.rule_index, 0) + 1
    return configuration


def parallel_step_kernel(program: Program | ExistentialProgram,
                         ) -> SamplerKernel:
    """The parallel step kernel ``step_App`` (Proposition 5.3).

    Identity on instances without applicable pairs, one full parallel
    extension otherwise.
    """
    translated = _as_translated(program)

    def step(instance: Instance, rng: np.random.Generator) -> Instance:
        engine = NaiveApplicability(translated, instance)
        applicable = engine.applicable()
        if not applicable:
            return instance
        return instance.add_all(
            fire(translated, firing, rng) for firing in applicable)

    return SamplerKernel(step)


def parallel_markov_process(program: Program | ExistentialProgram,
                            ) -> MarkovProcess:
    """The parallel chase as a Markov process (Corollary 5.4)."""
    translated = _as_translated(program)

    def is_absorbing(instance: Instance) -> bool:
        return not NaiveApplicability(translated, instance).applicable()

    return MarkovProcess(parallel_step_kernel(translated), is_absorbing)
