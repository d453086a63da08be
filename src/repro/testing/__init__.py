"""Differential fuzzing for the GDatalog engines (``repro.testing``).

The paper's correctness story is a collection of *agreement theorems*:
the probabilistic chase defines the same distribution no matter the
chase order (Theorems 5.6 / 6.1), Monte-Carlo sampling converges to
the exact SPDB, and every reachable instance satisfies the induced
functional dependencies (Lemma 3.10).  This subsystem turns those
theorems into an unbounded, automatic test generator:

* :mod:`~repro.testing.fuzz` - seeded random workloads spanning the
  grammar (all registered distributions, recursion, weak acyclicity on
  and off);
* :mod:`~repro.testing.oracles` - paired pipelines that must agree
  (naive vs semi-naive, sequential vs parallel, exact vs sampled,
  input-PDB mixtures vs generator rules, FDs, termination analysis);
* :mod:`~repro.testing.shrink` - delta-debugging minimizer for
  discrepancies;
* :mod:`~repro.testing.corpus` - persisted reproducers replayed by the
  pytest suite forever after;
* :mod:`~repro.testing.runner` - the budgeted loop behind the
  ``repro fuzz`` CLI subcommand and the pytest fuzz pass.

Quickstart::

    from repro.testing import run_fuzz
    report = run_fuzz(budget=200, seed=0,
                      corpus_dir="tests/fuzz_corpus")
    assert report.ok(), report.summary()

or from the shell::

    repro fuzz --budget 200 --seed 0 --corpus tests/fuzz_corpus
"""

from repro.testing.corpus import (ReplayResult, case_to_payload,
                                  iter_corpus, load_reproducer,
                                  payload_to_case, replay_corpus,
                                  replay_file, save_reproducer)
from repro.testing.fuzz import (CONTINUOUS, DEFAULT_FUZZ_CONFIG,
                                FINITE_DISCRETE, INFINITE_DISCRETE,
                                KINDS, CoverageTracker, FuzzCase,
                                FuzzConfig, case_features, case_seed,
                                distribution_parameters, generate_case,
                                generate_case_guided,
                                random_value_positions, rebuild_case)
from repro.testing.oracles import (BaranyAgreementOracle,
                                   BatchedVsScalarOracle,
                                   ChaseOrderOracle, ExactVsSampleOracle,
                                   FixpointOracle, InducedFDOracle,
                                   Oracle, OracleOutcome,
                                   PdbInputOracle, StaticDynamicOracle,
                                   TerminationOracle,
                                   default_oracles, oracles_by_name)
from repro.testing.runner import (Discrepancy, FuzzReport, OracleStats,
                                  evaluate, run_fuzz)
from repro.testing.shrink import (case_rank, case_size, literal_cost,
                                  relation_count, shrink_case)

__all__ = [
    "CONTINUOUS", "BaranyAgreementOracle", "BatchedVsScalarOracle",
    "ChaseOrderOracle", "DEFAULT_FUZZ_CONFIG",
    "Discrepancy", "ExactVsSampleOracle", "FINITE_DISCRETE",
    "FixpointOracle", "FuzzCase", "FuzzConfig",
    "FuzzReport", "INFINITE_DISCRETE", "InducedFDOracle", "KINDS",
    "Oracle", "OracleOutcome", "OracleStats", "PdbInputOracle",
    "ReplayResult",
    "StaticDynamicOracle",
    "TerminationOracle", "CoverageTracker", "case_features",
    "case_rank", "case_seed", "case_size",
    "case_to_payload", "literal_cost", "relation_count",
    "default_oracles", "distribution_parameters", "evaluate",
    "generate_case", "generate_case_guided", "iter_corpus",
    "load_reproducer",
    "oracles_by_name", "payload_to_case", "random_value_positions",
    "rebuild_case", "replay_corpus", "replay_file", "run_fuzz",
    "save_reproducer", "shrink_case",
]
