"""Relational algebra, aggregates, and their lifting to PDBs.

The plan language (:mod:`repro.query.relalg`,
:mod:`repro.query.aggregates`) builds ordinary relational-algebra
trees; the lifted entry points re-exported here push a plan through a
whole probabilistic database.  They are implemented by
:mod:`repro.query.columnar`, which *compiles* structural plans to
numpy mask/reduction passes over a batched ensemble's sample arrays
(with a lifted fast path when the plan only reads stable relations)
and falls back to per-world evaluation otherwise.  Prefer the facade:
``Session.query(plan)`` / ``InferenceResult.query(plan)`` return a
:class:`repro.api.QueryResult` wrapping the same machinery.

Structural vs opaque selections - the planner's contract:

* ``query.where(column=value, ...)`` records the equality constraints
  *structurally*, so the planner can translate them into vectorized
  boolean masks over the sample columns (and servers can encode them
  on the wire).  Use it whenever the predicate is a conjunction of
  equalities.
* ``query.select(callable)`` keeps the predicate *opaque* - an escape
  hatch for arbitrary row logic.  Opaque plans still answer correctly
  everywhere, but force the transparent per-world fallback (worlds are
  materialized) and cannot be served remotely.

:func:`repro.query.columnar.explain` reports which strategy a plan
gets over a given PDB (``"lifted"``, ``"columnar"``, ``"fallback"``
or ``"worlds"``).
"""

from repro.query.aggregates import (Aggregate, AggregateFunction, agg_avg,
                                    agg_count, agg_max, agg_min, agg_sum,
                                    agg_var, aggregate_answer,
                                    aggregate_value)
from repro.query.columnar import (aggregate_distribution,
                                  answer_probabilities,
                                  boolean_probability, expected_aggregate,
                                  explain, plan_vectorizable,
                                  query_answers, query_distribution,
                                  scanned_relations,
                                  statistic_distribution)
from repro.query.relalg import (Difference, Extend, Intersection,
                                NaturalJoin, Product, Project, Query,
                                Relation, Rename, Scan, Select, Union,
                                scan)

__all__ = [
    "Aggregate", "AggregateFunction", "Difference", "Extend",
    "Intersection", "NaturalJoin", "Product", "Project", "Query",
    "Relation", "Rename", "Scan", "Select", "Union", "agg_avg",
    "agg_count", "agg_max", "agg_min", "agg_sum", "agg_var",
    "aggregate_answer", "aggregate_distribution", "aggregate_value",
    "answer_probabilities", "boolean_probability", "expected_aggregate",
    "explain", "plan_vectorizable", "query_answers",
    "query_distribution", "scan", "scanned_relations",
    "statistic_distribution",
]
