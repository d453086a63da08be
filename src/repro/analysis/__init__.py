"""Static program analysis: lint, capability prediction, verification.

The paper's semantics is only well-defined on syntactically delimited
program classes (weak acyclicity for termination, parameter domains Θ
for the distribution families), and every fast path the engines built
is likewise gated by structural properties of the translated program.
This package decides all of it *statically*, before a single world is
sampled:

* :mod:`~repro.analysis.lint` - ten structural checks producing
  :class:`~repro.analysis.diagnostics.Diagnostic` findings (unused
  variables, unreachable rules, invalid parameters, weak-acyclicity
  violations with explicit witness cycles, ...);
* :mod:`~repro.analysis.capabilities` - a
  :class:`~repro.analysis.capabilities.CapabilityReport` predicting,
  per program and per rule with blocking reasons, eligibility for the
  batched backend, pooled draws, Bárány companion batching, streaming
  observation safety, guided-conditioning reachability and columnar
  query lifting.  Its batched verdict is the batch gate itself: the
  session and :class:`~repro.engine.batched.BatchedChase` decline a
  program with the report's first reason
  (:func:`~repro.analysis.capabilities.batch_defects`);
* :mod:`~repro.analysis.report` - the combined
  :class:`~repro.analysis.report.DeepReport` behind
  ``Session.analyze(deep=True)``, ``repro lint`` and the serving
  ``analyze`` op.

The predictions are differentially verified against the engines by
the ``static-dynamic`` fuzz oracle in the default battery
(:mod:`repro.testing.oracles`): predicted batch-eligible programs
must not decline to scalar, predicted-stable relations must never
grow in any sampled world, predicted streaming-safe observations must
not raise ``StreamingUnsupported``, and lint-clean programs must
compile and chase without a program error.

Quickstart::

    import repro
    compiled = repro.compile("Earthquake(c, Flip<r>) :- City(c, r).")
    report = compiled.analyze(deep=True)
    assert report.capabilities.batched.eligible
    print(report.summary())
"""

from repro.analysis.capabilities import (Capability, CapabilityReport,
                                         RuleCapability, batch_defects,
                                         capability_report,
                                         collect_companions,
                                         collect_growable)
from repro.analysis.diagnostics import (ERROR, INFO, SEVERITIES,
                                        WARNING, Diagnostic,
                                        LintReport, severity_rank)
from repro.analysis.lint import (FATAL_CODES, fatal_diagnostics,
                                 lint_program)
from repro.analysis.report import DeepReport, deep_analyze

__all__ = [
    "Capability", "CapabilityReport", "DeepReport", "Diagnostic",
    "ERROR", "FATAL_CODES", "INFO", "LintReport", "RuleCapability",
    "SEVERITIES", "WARNING", "batch_defects", "capability_report",
    "collect_companions", "collect_growable", "deep_analyze",
    "fatal_diagnostics", "lint_program", "severity_rank",
]
