"""repro: Generative Datalog with continuous distributions.

A faithful, executable reproduction of

    Grohe, Kaminski, Katoen, Lindner.
    *Generative Datalog with Continuous Distributions.*  PODS 2020.

The package implements the full pipeline of the paper: GDatalog syntax
(Section 3), the translation to existential Datalog (3.A/3.B), rule
applicability and measurable-selection chase policies (Section 3.3),
the sequential probabilistic chase as a Markov process (Section 4), the
parallel chase (Section 5), exact and Monte-Carlo output SPDBs, the
Bárány-semantics simulations (Section 6.2), and termination analysis
(Section 6.3) - plus the substrates all of this stands on: probabilistic
databases (Section 2.3), parameterized distributions (Definition 2.1),
discrete measures and stochastic kernels (Section 2.1), a deterministic
Datalog engine, and a relational-algebra/aggregate query layer
(Fact 2.6).

Quickstart
----------

Compile once, infer many: :func:`repro.compile` caches the translation
and every other per-program artifact; the returned
:class:`~repro.api.CompiledProgram` binds input data via ``.on(...)``
and answers queries through a fluent :class:`~repro.api.Session`.

>>> import repro
>>> compiled = repro.compile('''
...     Earthquake(c, Flip<0.1>) :- City(c, r).
... ''')
>>> data = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
>>> session = compiled.on(data)
>>> result = session.exact()
>>> round(result.marginal(repro.Fact("Earthquake", ("Napa", 1))), 3)
0.1

Monte-Carlo semantics (the only option for continuous programs) runs
through the same session - the program is translated exactly once no
matter how many runs you draw:

>>> sampled = session.sample(2000, seed=0)
>>> abs(sampled.marginal(
...     repro.Fact("Earthquake", ("Napa", 1))) - 0.1) < 0.05
True

Conditioning is a fluent step: ``session.observe(event)
.posterior(method="rejection")`` (or ``method="likelihood"`` for
sample-level observations, ``method="exact"`` for discrete programs).
The session is the one entry point for every inference mode, and the
one conditioning facade (``session.stream(n)`` conditions the same
evidence incrementally).  The fact event is
:class:`~repro.pdb.events.ContainsFactEvent`; a bare :class:`Fact`
passed as evidence is shorthand for it.

The :mod:`repro.testing` subsystem differential-fuzzes all of the
above: seeded random workloads spanning the grammar, oracles asserting
the paper's agreement theorems across engine pairs, auto-shrinking of
discrepancies, and a persisted reproducer corpus (``repro fuzz`` on
the command line).
"""

from repro.api import (DEFAULT_CONFIG, ChaseConfig, CompiledProgram,
                       InferenceResult, Session, StreamingPosterior,
                       compile)
from repro.core import (Atom, ChasePolicy, ChaseRun, Const,
                        ExistentialProgram, Firing, FirstPolicy,
                        LastPolicy, PriorityPolicy, Program, RandomTerm,
                        RandomTiePolicy, RoundRobinPolicy, Rule,
                        TerminationReport, Var, analyze_termination,
                        atom, chase_markov_process, chase_step_kernel,
                        normalize_program, observe,
                        parallel_markov_process, program_to_source,
                        run_parallel_chase, standard_policies,
                        to_barany_simulation, to_grohe_simulation,
                        translate, translate_barany, weakly_acyclic)
from repro.distributions import (DEFAULT_REGISTRY, DistributionRegistry,
                                 ParameterizedDistribution)
from repro.errors import (ChaseError, DistributionError, MeasureError,
                          ParseError, ReproError, SchemaError,
                          StreamingUnsupported, UnsupportedProgramError,
                          ValidationError)
from repro.measures import DiscreteMeasure, Kernel, MarkovProcess
from repro.pdb import (AtLeastEvent, ContainsFactEvent, CountingEvent,
                       DiscretePDB, Event, Fact, FactSet, Instance,
                       Interval, MonteCarloPDB, Schema, relation)
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB

__version__ = "2.0.0"

__all__ = [
    "Atom", "ChaseConfig", "ChaseError", "ChasePolicy", "ChaseRun",
    "CompiledProgram", "Const", "DEFAULT_CONFIG",
    "InferenceResult", "Session", "compile",
    "observe", "program_to_source", "StreamingPosterior",
    "StreamingUnsupported", "WeightedColumnarPDB", "WeightedPDB",
    "AtLeastEvent", "ContainsFactEvent", "CountingEvent",
    "DEFAULT_REGISTRY", "DiscreteMeasure", "DiscretePDB",
    "DistributionError", "DistributionRegistry", "Event",
    "ExistentialProgram", "Fact", "FactSet", "Firing", "FirstPolicy",
    "Instance", "Interval", "Kernel", "LastPolicy", "MarkovProcess",
    "MeasureError", "MonteCarloPDB", "ParameterizedDistribution",
    "ParseError", "PriorityPolicy", "Program", "RandomTerm",
    "RandomTiePolicy", "ReproError", "RoundRobinPolicy", "Rule",
    "Schema", "SchemaError", "TerminationReport",
    "UnsupportedProgramError", "ValidationError", "Var",
    "analyze_termination", "atom",
    "chase_markov_process", "chase_step_kernel",
    "normalize_program", "parallel_markov_process",
    "relation", "run_parallel_chase",
    "standard_policies", "to_barany_simulation",
    "to_grohe_simulation", "translate", "translate_barany",
    "weakly_acyclic", "__version__",
]
