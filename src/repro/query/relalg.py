"""Relational algebra over instances (Fact 2.6's query class).

The paper relies on the measurability of relational-algebra views both
for the applicability multifunction (Lemma 3.6 evaluates ``App`` "as
the result of a relational algebra view") and for post-processing
program outputs (Remark 4.9).  This module implements the algebra as
composable :class:`Query` trees evaluated over instances; the lifting
to (S)PDBs - the push-forward along the induced measurable function -
lives in :mod:`repro.query.columnar`.

Queries produce :class:`Relation` values: named column tuples with set
semantics, convertible back to instances.  Columns are referenced by
name; see each operator for its column discipline.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import SchemaError
from repro.ordering import tuple_sort_key
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


class Relation:
    """An in-memory relation: named columns and a set of rows."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Iterable[str], rows: Iterable[tuple]):
        self.columns = tuple(columns)
        self.rows = frozenset(tuple(row) for row in rows)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"row {row!r} does not fit columns {self.columns!r}")

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaError(
                f"unknown column {name!r}; have {self.columns!r}"
            ) from None

    def sorted_rows(self) -> list[tuple]:
        return sorted(self.rows, key=tuple_sort_key)

    def to_instance(self, relation_name: str) -> Instance:
        return Instance(Fact(relation_name, row) for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Relation)
                and self.columns == other.columns
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.columns, self.rows))

    def __repr__(self) -> str:
        return (f"Relation({list(self.columns)!r}, "
                f"{len(self.rows)} rows)")

    def canonical(self) -> tuple:
        """Hashable canonical form (used as a push-forward point)."""
        return (self.columns, tuple(self.sorted_rows()))


class Query:
    """A relational-algebra expression evaluated against instances."""

    def evaluate(self, instance: Instance) -> Relation:
        raise NotImplementedError

    def __call__(self, instance: Instance) -> Relation:
        return self.evaluate(instance)

    # -- fluent combinators ---------------------------------------------------

    def select(self, predicate: Callable[[dict], bool]) -> "Select":
        return Select(self, predicate)

    def where(self, **equalities: Any) -> "Select":
        """Select rows whose named columns equal the given constants.

        Unlike :meth:`select`, the column/value pairs are recorded
        *structurally* on the returned :class:`Select` (its
        ``equalities`` attribute), so the columnar planner
        (:mod:`repro.query.columnar`) can compile them into boolean
        masks over sample arrays instead of calling back into Python
        per row.  Use :meth:`select` for predicates that genuinely
        need arbitrary code.
        """
        return Select(self, None, equalities=dict(equalities))

    def project(self, *columns: str) -> "Project":
        return Project(self, columns)

    def rename(self, **mapping: str) -> "Rename":
        return Rename(self, mapping)

    def join(self, other: "Query") -> "NaturalJoin":
        return NaturalJoin(self, other)

    def union(self, other: "Query") -> "Union":
        return Union(self, other)

    def difference(self, other: "Query") -> "Difference":
        return Difference(self, other)

    def intersect(self, other: "Query") -> "Intersection":
        return Intersection(self, other)

    def product(self, other: "Query") -> "Product":
        return Product(self, other)


class Scan(Query):
    """Read one stored relation; columns default to ``c0, c1, ...``."""

    def __init__(self, relation: str, columns: Iterable[str] | None = None):
        self.relation = relation
        self.columns = tuple(columns) if columns is not None else None

    def evaluate(self, instance: Instance) -> Relation:
        rows = instance.tuples_of(self.relation)
        if self.columns is not None:
            return Relation(self.columns, rows)
        arity = max((len(r) for r in rows), default=0)
        return Relation([f"c{i}" for i in range(arity)], rows)


class Select(Query):
    """σ: keep rows satisfying a predicate over the named-row dict.

    Two flavours share this node:

    * ``Select(source, predicate)`` - an opaque Python callable; the
      honest escape hatch, evaluated row by row everywhere.
    * ``Select(source, None, equalities={...})`` - a conjunction of
      column == constant tests recorded structurally (what
      :meth:`Query.where` builds); the columnar planner vectorizes
      these, and :meth:`evaluate` applies them directly.
    """

    def __init__(self, source: Query,
                 predicate: Callable[[dict], bool] | None,
                 equalities: dict[str, Any] | None = None):
        if (predicate is None) == (equalities is None):
            raise SchemaError(
                "Select needs exactly one of a predicate callable or "
                "an equalities mapping")
        self.source = source
        self.predicate = predicate
        self.equalities = dict(equalities) if equalities is not None \
            else None

    def evaluate(self, instance: Instance) -> Relation:
        relation = self.source.evaluate(instance)
        if self.equalities is not None:
            indices = [(relation.column_index(name), value)
                       for name, value in self.equalities.items()]
            kept = [row for row in relation.rows
                    if all(row[i] == value for i, value in indices)]
        else:
            kept = [row for row in relation.rows
                    if self.predicate(dict(zip(relation.columns, row)))]
        return Relation(relation.columns, kept)


class Project(Query):
    """π: keep (and reorder) the named columns; set semantics dedupes."""

    def __init__(self, source: Query, columns: Iterable[str]):
        self.source = source
        self.columns = tuple(columns)

    def evaluate(self, instance: Instance) -> Relation:
        relation = self.source.evaluate(instance)
        indices = [relation.column_index(name) for name in self.columns]
        return Relation(self.columns,
                        {tuple(row[i] for i in indices)
                         for row in relation.rows})


class Rename(Query):
    """ρ: rename columns via an ``old -> new`` mapping."""

    def __init__(self, source: Query, mapping: dict[str, str]):
        self.source = source
        self.mapping = dict(mapping)

    def evaluate(self, instance: Instance) -> Relation:
        relation = self.source.evaluate(instance)
        columns = tuple(self.mapping.get(name, name)
                        for name in relation.columns)
        return Relation(columns, relation.rows)


class NaturalJoin(Query):
    """⋈: join on all shared column names (hash join)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def evaluate(self, instance: Instance) -> Relation:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        shared = [name for name in left.columns if name in right.columns]
        left_key = [left.column_index(name) for name in shared]
        right_key = [right.column_index(name) for name in shared]
        right_extra = [i for i, name in enumerate(right.columns)
                       if name not in shared]
        index: dict[tuple, list[tuple]] = {}
        for row in right.rows:
            key = tuple(row[i] for i in right_key)
            index.setdefault(key, []).append(row)
        columns = left.columns + tuple(right.columns[i]
                                       for i in right_extra)
        rows = []
        for row in left.rows:
            key = tuple(row[i] for i in left_key)
            for other in index.get(key, ()):
                rows.append(row + tuple(other[i] for i in right_extra))
        return Relation(columns, rows)


class Product(Query):
    """×: Cartesian product (column names must be disjoint)."""

    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def evaluate(self, instance: Instance) -> Relation:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise SchemaError(
                f"product requires disjoint columns; shared {overlap!r}")
        return Relation(left.columns + right.columns,
                        (l + r for l in left.rows for r in right.rows))


class _SameSchema(Query):
    def __init__(self, left: Query, right: Query):
        self.left = left
        self.right = right

    def _operands(self, instance: Instance) -> tuple[Relation, Relation]:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        if left.columns != right.columns:
            raise SchemaError(
                f"set operation needs equal columns: {left.columns!r} "
                f"vs {right.columns!r}")
        return left, right


class Union(_SameSchema):
    """∪ (set semantics)."""

    def evaluate(self, instance: Instance) -> Relation:
        left, right = self._operands(instance)
        return Relation(left.columns, left.rows | right.rows)


class Difference(_SameSchema):
    """∖ (set semantics)."""

    def evaluate(self, instance: Instance) -> Relation:
        left, right = self._operands(instance)
        return Relation(left.columns, left.rows - right.rows)


class Intersection(_SameSchema):
    """∩ (set semantics)."""

    def evaluate(self, instance: Instance) -> Relation:
        left, right = self._operands(instance)
        return Relation(left.columns, left.rows & right.rows)


class Extend(Query):
    """Add a computed column from the named-row dict."""

    def __init__(self, source: Query, column: str,
                 compute: Callable[[dict], Any]):
        self.source = source
        self.column = column
        self.compute = compute

    def evaluate(self, instance: Instance) -> Relation:
        relation = self.source.evaluate(instance)
        if self.column in relation.columns:
            raise SchemaError(f"column {self.column!r} already exists")
        rows = [row + (self.compute(dict(zip(relation.columns, row))),)
                for row in relation.rows]
        return Relation(relation.columns + (self.column,), rows)


def scan(relation: str, *columns: str) -> Scan:
    """Convenience constructor: ``scan("City", "name", "rate")``."""
    return Scan(relation, columns or None)
