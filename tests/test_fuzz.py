"""The suite's budgeted differential-fuzz pass.

Every pytest run fuzzes a little (``--fuzz-budget``, default set in
:mod:`repro.testing.pytest_plugin`); CI runs a larger fixed-seed pass
through ``repro fuzz --budget 200 --seed 0`` on top.  A failure here
prints the per-oracle detail and the shrunk reproducer - persist it
with ``repro fuzz --corpus tests/fuzz_corpus`` to pin it permanently.
"""

from __future__ import annotations

from repro.testing import default_oracles, run_fuzz


def _format_failures(report) -> str:
    lines = [report.summary()]
    for discrepancy in report.discrepancies:
        lines.append(f"[{discrepancy.oracle}] "
                     f"{discrepancy.case.describe()}")
        lines.append(f"  {discrepancy.detail}")
        lines.append("  shrunk reproducer:")
        lines.extend(f"    {line}" for line in
                     discrepancy.shrunk.program.pretty().splitlines())
        for fact in discrepancy.shrunk.instance.sorted_facts():
            lines.append(f"    input {fact!r}")
    return "\n".join(lines)


class TestBudgetedFuzzPass:
    def test_all_oracles_agree(self, fuzz_budget, fuzz_seed):
        report = run_fuzz(budget=fuzz_budget, seed=fuzz_seed)
        assert report.n_cases == fuzz_budget
        assert report.ok(), _format_failures(report)

    def test_every_oracle_exercised(self, fuzz_budget, fuzz_seed):
        """The budget must actually reach each oracle (no dead checks).

        ``checked`` counts include skips; what matters is that every
        oracle got at least one *runnable* case.  The rarest runnable
        case is the pdb-input oracle's: about one generated case in
        nine carries an input PDB, and at the default seed the first
        one is case 15.
        """
        report = run_fuzz(budget=max(fuzz_budget, 16), seed=fuzz_seed)
        for oracle in default_oracles():
            stats = report.stats[oracle.name]
            assert stats.checked == report.n_cases
            assert stats.ok > 0, \
                f"oracle {oracle.name} never ran a case to completion"

    def test_report_is_deterministic(self):
        first = run_fuzz(budget=4, seed=11)
        second = run_fuzz(budget=4, seed=11)
        first_json = first.to_json()
        second_json = second.to_json()
        # Wall-clock fields are the only permitted nondeterminism.
        for payload in (first_json, second_json):
            payload.pop("elapsed_seconds")
            for stats in payload["oracles"].values():
                stats.pop("seconds")
        assert first_json == second_json
