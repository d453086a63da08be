"""The sequential probabilistic chase (Section 4).

A sequential chase step ``D --φ̂(ā)--> (𝒟, µ)`` (Definition 4.1) fires
one applicable pair chosen by a policy (a measurable selection of
``App``): deterministic rules add their ground head with probability 1
(Eq. 4.B); existential rules sample the new value from the rule's
parameterized distribution (Eq. 4.A) and add the auxiliary fact.

Running steps until no pair is applicable realizes one path of the
chase tree ``T_app,D0`` (Definition 4.2); the induced Markov process
(Proposition 4.6 / Corollary 4.7) is exposed as a kernel on instances
through :func:`chase_step_kernel`, and the path-to-instance projection
``lim-inst`` (Section 4.2) appears operationally as the
absorbed/truncated distinction of :class:`ChaseRun`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.applicability import (ApplicabilityEngine, Firing,
                                      NaiveApplicability)
from repro.core.policies import DEFAULT_POLICY, ChasePolicy
from repro.core.program import Program
from repro.core.translate import (ExistentialProgram,
                                  validate_params_in_theta)
from repro.errors import ChaseError
from repro.measures.kernels import SamplerKernel
from repro.measures.markov import MarkovProcess
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

#: Default step budget: ample for terminating programs of test scale,
#: finite so that almost-surely-non-terminating programs yield ``err``.
DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class ChaseStep:
    """One executed chase step: the firing chosen and the fact added."""

    firing: Firing
    fact: Fact


@dataclass(frozen=True)
class ChaseRun:
    """The outcome of one sequential chase.

    ``terminated`` distinguishes finite chase paths (which denote
    instances) from budget-truncated ones (which stand in for the
    infinite paths that the semantics maps to ``err``).  ``instance`` is
    the final instance either way - for truncated runs it is the last
    *intermediate* instance and must not be read as program output.
    """

    instance: Instance
    terminated: bool
    steps: int
    trace: tuple[ChaseStep, ...] | None = None
    #: Product of the densities of the observed draws the run forced
    #: (likelihood weighting); 1.0 for a run that observed nothing.
    weight: float = 1.0

    def output(self) -> Instance | None:
        """The program output: the instance, or None (= err)."""
        return self.instance if self.terminated else None


def _as_translated(program: Program | ExistentialProgram,
                   ) -> ExistentialProgram:
    if isinstance(program, ExistentialProgram):
        return program
    return program.translate()


def fire(translated: ExistentialProgram, firing: Firing,
         rng: np.random.Generator) -> Fact:
    """Execute one firing: ground head fact, or sampled auxiliary fact.

    This is the operational content of a chase step's measure µ: for
    existential firings the new value is drawn from ``ψ⟨ā⟩`` (Eq. 4.A),
    for deterministic ones the Dirac measure on the extended instance
    (Eq. 4.B).
    """
    return _fire(translated, firing, rng, None)[0]


def _fire(translated: ExistentialProgram, firing: Firing,
          rng: np.random.Generator,
          observed: dict | None) -> tuple[Fact, float]:
    """:func:`fire` plus likelihood weighting: ``(fact, weight factor)``.

    ``observed`` maps ``(auxiliary relation, carried values)`` to an
    observed value (:func:`repro.core.observe._observation_index`).  A
    matching existential firing adds the observed value instead of
    sampling one, and its density ``ψ⟨ā⟩(v)`` is the factor; every
    other firing has factor 1.0.
    """
    if not firing.existential:
        return firing.fact(), 1.0
    info = translated.aux_info.get(firing.relation)
    if info is None:
        raise ChaseError(f"unknown auxiliary relation {firing.relation!r}")
    ext_rule = translated.rules[firing.rule_index]
    params = validate_params_in_theta(ext_rule,
                                      firing.values[info.n_carried:])
    if observed:
        value = observed.get(
            (firing.relation, firing.values[:info.n_carried]))
        if value is not None:
            return (firing.fact(value),
                    float(info.distribution.density(params, value)))
    return firing.fact(info.distribution.sample(params, rng)), 1.0


def run_chase_prepared(translated: ExistentialProgram,
                       state: ApplicabilityEngine,
                       instance: Instance,
                       policy: ChasePolicy,
                       rng: np.random.Generator,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       record_trace: bool = False,
                       observed: dict | None = None) -> ChaseRun:
    """Run one sequential chase from a pre-built applicability state.

    Definition 4.2's chase path: the translated program, the root
    instance ``D_0`` and a measurable chase sequence (``policy``).
    Callers (:meth:`repro.api.Session.run` and ``sample``) build the
    engine *once* per (program, instance) pair and hand each run a
    cheap ``fork()`` instead of re-matching every rule body from
    scratch.  ``state`` must reflect exactly ``instance``; it is
    consumed.

    This is the one scalar loop of every Monte-Carlo verb: ``sample``
    and every posterior method run it for a batch the batched backend
    (:mod:`repro.engine.batched`) cannot take or declines.  With an
    ``observed`` index the run is likelihood-weighted: observed draws
    are forced and ``ChaseRun.weight`` is the product of their
    densities (:func:`_fire`).  A run that reaches ``max_steps`` with
    nothing left applicable terminated; otherwise it is truncated.
    """
    current = instance
    trace: list[ChaseStep] | None = [] if record_trace else None
    weight = 1.0

    for step_count in range(max_steps):
        applicable = state.applicable()
        if not applicable:
            return ChaseRun(current, True, step_count,
                            tuple(trace) if trace is not None else None,
                            weight)
        firing = policy.select(current, applicable)
        new_fact, factor = _fire(translated, firing, rng, observed)
        weight *= factor
        state.add_fact(new_fact)
        current = current.add(new_fact)
        if trace is not None:
            trace.append(ChaseStep(firing, new_fact))

    terminated = not state.applicable()
    return ChaseRun(current, terminated, max_steps,
                    tuple(trace) if trace is not None else None, weight)


def chase_step_kernel(program: Program | ExistentialProgram,
                      policy: ChasePolicy | None = None,
                      ) -> SamplerKernel:
    """The chase-step stochastic kernel ``step_app`` (Proposition 4.6).

    On instances with applicable pairs it samples one chase step; on
    instances without, it is the identity kernel.  Recomputes ``App``
    per invocation (kernels are stateless by definition) - use
    ``repro.compile(program).on(instance).run()`` for efficient full
    runs.
    """
    translated = _as_translated(program)
    policy = policy or DEFAULT_POLICY

    def step(instance: Instance, rng: np.random.Generator) -> Instance:
        engine = NaiveApplicability(translated, instance)
        applicable = engine.applicable()
        if not applicable:
            return instance
        firing = policy.select(instance, applicable)
        return instance.add(fire(translated, firing, rng))

    return SamplerKernel(step)


def chase_markov_process(program: Program | ExistentialProgram,
                         policy: ChasePolicy | None = None,
                         ) -> MarkovProcess:
    """The chase as a Markov process on instances (Corollary 4.7)."""
    translated = _as_translated(program)

    def is_absorbing(instance: Instance) -> bool:
        return not NaiveApplicability(translated, instance).applicable()

    return MarkovProcess(chase_step_kernel(translated, policy),
                         is_absorbing)


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
