"""Aggregate queries (count/sum/avg/min/max with grouping).

Fact 2.6 covers aggregate queries as measurable functions on PDBs; this
module provides the instance-level evaluation, and
:mod:`repro.query.columnar` pushes the results forward to
distributions over aggregate values.

An :class:`Aggregate` wraps a relational query, a list of group-by
columns, and named aggregate specifications.  Evaluation yields a
:class:`repro.query.relalg.Relation` whose columns are the group-by
columns followed by the aggregate columns.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.errors import SchemaError
from repro.query.relalg import Query, Relation


class AggregateFunction:
    """A named aggregate over a list of column values."""

    def __init__(self, name: str, column: str | None,
                 fold: Callable[[list], Any]):
        self.name = name
        self.column = column
        self.fold = fold

    def __call__(self, values: list) -> Any:
        return self.fold(values)


def agg_count(column: str | None = None) -> AggregateFunction:
    """``COUNT(*)`` (column ignored; present for symmetry)."""
    return AggregateFunction("count", column, len)


def agg_sum(column: str) -> AggregateFunction:
    """``SUM(column)`` over the group."""
    return AggregateFunction("sum", column, math.fsum)


def agg_avg(column: str) -> AggregateFunction:
    """``AVG(column)`` over the group (error on empty groups)."""
    def fold(values: list) -> float:
        if not values:
            raise SchemaError("avg of an empty group")
        return math.fsum(values) / len(values)
    return AggregateFunction("avg", column, fold)


def agg_min(column: str) -> AggregateFunction:
    """``MIN(column)`` over the group."""
    return AggregateFunction("min", column, min)


def agg_max(column: str) -> AggregateFunction:
    """``MAX(column)`` over the group."""
    return AggregateFunction("max", column, max)


def agg_var(column: str) -> AggregateFunction:
    """Population variance of the group values."""
    def fold(values: list) -> float:
        if not values:
            raise SchemaError("var of an empty group")
        mean = math.fsum(values) / len(values)
        return math.fsum((v - mean) ** 2 for v in values) / len(values)
    return AggregateFunction("var", column, fold)


class Aggregate(Query):
    """Group-by aggregation over a source query.

    >>> from repro.query.relalg import scan
    >>> q = Aggregate(scan("Height", "person", "cm"),
    ...               group_by=(), aggregates={"avg_cm": agg_avg("cm")})

    The output columns are ``group_by + tuple(aggregates)``.  With an
    empty ``group_by`` the result has exactly one row (aggregating the
    whole relation; empty input yields count 0 and raises for
    aggregates undefined on empty input, mirroring SQL's semantics for
    ``avg``/``min``/``max`` with no rows being NULL - here: an error
    for those, 0 for count and sum).
    """

    def __init__(self, source: Query, group_by: Iterable[str],
                 aggregates: dict[str, AggregateFunction]):
        self.source = source
        self.group_by = tuple(group_by)
        self.aggregates = dict(aggregates)
        if not self.aggregates:
            raise SchemaError("aggregate query needs at least one "
                              "aggregate function")

    def evaluate(self, instance) -> Relation:
        relation = self.source.evaluate(instance)
        group_indices = [relation.column_index(name)
                         for name in self.group_by]
        value_indices = {
            out_name: (relation.column_index(func.column)
                       if func.column is not None else None)
            for out_name, func in self.aggregates.items()}

        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            key = tuple(row[i] for i in group_indices)
            groups.setdefault(key, []).append(row)
        if not self.group_by and not groups:
            groups[()] = []

        out_columns = self.group_by + tuple(self.aggregates)
        out_rows = []
        for key, rows in groups.items():
            aggregated = []
            for out_name, func in self.aggregates.items():
                index = value_indices[out_name]
                values = [row[index] for row in rows] \
                    if index is not None else list(rows)
                if not rows and func.name in ("count", "sum"):
                    aggregated.append(0)
                else:
                    aggregated.append(func(values))
            out_rows.append(key + tuple(aggregated))
        return Relation(out_columns, out_rows)


def aggregate_answer(relation: Relation, column: str | None = None):
    """Extract the single value of a (group-free) aggregate answer.

    The relation-level half of :func:`aggregate_value`, shared with the
    columnar planner (:mod:`repro.query.columnar`), which produces the
    answer relations without ever evaluating against an instance.
    """
    rows = list(relation.rows)
    if len(rows) != 1:
        raise SchemaError(
            f"expected one result row, got {len(rows)}")
    if column is None:
        if len(relation.columns) != 1:
            raise SchemaError(
                f"ambiguous aggregate column among {relation.columns!r}")
        return rows[0][0]
    return rows[0][relation.column_index(column)]


def aggregate_value(query: Query, instance, column: str | None = None):
    """Evaluate a (group-free) aggregate and return its single value.

    ``column`` selects among multiple aggregate columns; defaults to the
    only one.
    """
    return aggregate_answer(query.evaluate(instance), column)
