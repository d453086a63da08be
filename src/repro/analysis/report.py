"""The combined deep-analysis report: termination + lint + capability.

:func:`deep_analyze` is the one entry point the surfaces share:
``Session.analyze(deep=True)``, ``repro lint`` / ``repro analyze
--deep`` and the serving ``analyze`` op with ``"deep": true`` all
produce this :class:`DeepReport`, on request.  Through
``CompiledProgram.analyze`` and ``Session.analyze`` its capability
layer is the report the batch gate already holds, so only the lint
layer is new work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.capabilities import (CapabilityReport,
                                         capability_report)
from repro.analysis.diagnostics import LintReport
from repro.analysis.lint import lint_program
from repro.core.termination import (TerminationReport,
                                    analyze_termination)
from repro.core.translate import ExistentialProgram
from repro.pdb.instances import Instance


@dataclass(frozen=True)
class DeepReport:
    """Everything the static analyzer knows about one program."""

    termination: TerminationReport
    lint: LintReport
    capabilities: CapabilityReport

    def ok(self, fail_on: str = "error") -> bool:
        """Lint verdict at the given severity threshold."""
        return self.lint.ok(fail_on)

    def to_json(self) -> dict:
        report = self.termination
        return {
            "weakly_acyclic": report.weakly_acyclic,
            "continuous_cycle": report.continuous_cycle,
            "cyclic_distributions": list(report.cyclic_distributions),
            "lint": self.lint.to_json(),
            "capabilities": self.capabilities.to_json(),
        }

    def summary(self) -> str:
        acyclic = "weakly acyclic" if self.termination.weakly_acyclic \
            else "NOT weakly acyclic"
        return (f"{acyclic}; {self.lint.summary()}; "
                f"{self.capabilities.summary()}")


def deep_analyze(translated: ExistentialProgram,
                 instance: Instance | None = None,
                 termination: TerminationReport | None = None,
                 capabilities: CapabilityReport | None = None,
                 ) -> DeepReport:
    """Run all three analysis layers over a translated program.

    ``instance`` enables the instance-aware lint checks
    (semi-join unreachability, constant-foldable parameters);
    ``termination`` and ``capabilities`` short-circuit recomputation
    when the caller already holds the cached reports.

    >>> from repro.core.program import Program
    >>> report = deep_analyze(
    ...     Program.parse("R(Flip<0.5>) :- true.").translate())
    >>> report.capabilities.batched.eligible
    True
    """
    if termination is None:
        termination = analyze_termination(translated)
    lint = lint_program(translated.source,
                        semantics=translated.semantics,
                        instance=instance,
                        translated=translated)
    if capabilities is None:
        capabilities = capability_report(translated, termination)
    return DeepReport(termination=termination, lint=lint,
                      capabilities=capabilities)
