"""Columnar query pushdown: relational plans over batch sample arrays.

The batched engine (:mod:`repro.engine.batched`) keeps an ``n``-world
ensemble columnar - a shared closed instance per group plus one numpy
array of sampled values per layer firing.  Every query entry point
used to force ``.worlds`` (materializing ``n`` instances) before
evaluating a plan per world; this module instead *compiles* a
:class:`~repro.query.relalg.Query` tree down to numpy operations over
those arrays:

* selections (:meth:`Query.where`'s structural equalities) become
  boolean masks over the sample columns;
* equality joins compare columns elementwise, keyed by world id (all
  arrays of a group are aligned with its member worlds);
* aggregates reduce per world - pure-count aggregates as one vector
  sum over presence masks, value folds via the *same* fold callables
  the per-world evaluator uses, so results are bit-identical;
* a **lifted fast path** skips per-world evaluation entirely whenever
  the plan only scans *stable* relations - relations the batch's
  stable-relation analysis proves can never gain a fact after the
  shared fixpoint (:attr:`BatchOutcome.growable`).  Such a plan has
  the same answer in every terminated world, so one evaluation against
  the shared closed instance answers all ``n`` worlds at once (the
  first-order-model-counting shortcut specialized to this ensemble).

Plans the compiler cannot vectorize - opaque ``select(callable)``
predicates, :class:`~repro.query.relalg.Extend`, nested aggregates -
fall back *transparently* to the per-world evaluator (via
``world_slots``; the answer is identical, only slower).

The module also hosts the unified push-forward implementation behind
:meth:`repro.api.Session.query`: one dispatch covering exact PDBs,
plain and columnar Monte-Carlo ensembles, and weighted (posterior)
ensembles including the streamed :class:`WeightedColumnarPDB`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import SchemaError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB, MonteCarloPDB, PDBBase
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB
from repro.query.aggregates import Aggregate, aggregate_answer
from repro.query.relalg import (Difference, Extend, Intersection,
                                NaturalJoin, Product, Project, Query,
                                Relation, Rename, Scan, Select, Union)


class _Unsupported(Exception):
    """Internal: the plan (or this group's data) is not vectorizable."""


# ---------------------------------------------------------------------------
# Plan analysis
# ---------------------------------------------------------------------------


def scanned_relations(query: Query) -> frozenset | None:
    """Every stored relation the plan reads, or None on unknown nodes."""
    relations: set[str] = set()
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            relations.add(node.relation)
        elif isinstance(node, (Select, Project, Rename, Extend,
                               Aggregate)):
            stack.append(node.source)
        elif isinstance(node, (NaturalJoin, Product, Union, Difference,
                               Intersection)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            return None
    return frozenset(relations)


def plan_vectorizable(query: Query, _root: bool = True) -> bool:
    """Whether the columnar compiler handles every node of the plan.

    Opaque ``select(callable)`` predicates, :class:`Extend`, nested
    aggregates and unknown node types evaluate per world instead.
    """
    if isinstance(query, Aggregate):
        return _root and plan_vectorizable(query.source, _root=False)
    if isinstance(query, Scan):
        return True
    if isinstance(query, Select):
        return query.equalities is not None \
            and plan_vectorizable(query.source, _root=False)
    if isinstance(query, (Project, Rename)):
        return plan_vectorizable(query.source, _root=False)
    if isinstance(query, (NaturalJoin, Product, Union, Difference,
                          Intersection)):
        return plan_vectorizable(query.left, _root=False) \
            and plan_vectorizable(query.right, _root=False)
    return False


def explain(pdb: PDBBase, query: Query) -> str:
    """Which evaluation strategy :func:`query_answers` would pick.

    ``"lifted"`` - one evaluation against the shared closed instance
    answers every world (stable-relation fast path); ``"columnar"`` -
    vectorized per-group compilation; ``"fallback"`` - per-world
    evaluation over lazily built world slots; ``"worlds"`` - not a
    columnar ensemble at all (exact or materialized-world paths).
    """
    if isinstance(pdb, WeightedColumnarPDB):
        return explain(pdb._columnar, query)
    if not isinstance(pdb, ColumnarMonteCarloPDB):
        return "worlds"
    scanned = scanned_relations(query)
    growable = pdb.growable_relations
    if scanned is not None and growable is not None \
            and pdb.stable_view() is not None \
            and not (scanned & growable):
        return "lifted"
    return "columnar" if plan_vectorizable(query) else "fallback"


# ---------------------------------------------------------------------------
# Mask algebra: presence masks are True (all worlds) or a bool array
# ---------------------------------------------------------------------------


def _and(a, b):
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return a & b


def _or(a, b):
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return a | b


def _minus(a, b):
    """``a and not b``."""
    if a is False or b is True:
        return False
    if b is False:
        return a
    if a is True:
        return ~b
    return a & ~b


def _prune(mask):
    """Collapse an all-False array to the False sentinel."""
    if isinstance(mask, np.ndarray) and not mask.any():
        return False
    return mask


_NUMERIC = (bool, int, float, np.integer, np.floating)


def _cell_eq(a, b):
    """Elementwise equality of two cells: True, False, or a mask.

    A cell is either a scalar constant or a per-world numpy array of
    sampled values.  Sample columns hold numbers only, so a
    non-numeric constant can never match one (mirroring the columnar
    marginal reader's dispatch).
    """
    a_is_array = isinstance(a, np.ndarray)
    b_is_array = isinstance(b, np.ndarray)
    if not a_is_array and not b_is_array:
        return bool(a == b)
    if a_is_array and b_is_array:
        return np.equal(a, b)
    scalar = b if a_is_array else a
    array = a if a_is_array else b
    if not isinstance(scalar, _NUMERIC):
        return False
    return np.equal(array, scalar)


def _row_eq(cells_a: tuple, cells_b: tuple):
    acc = True
    for a, b in zip(cells_a, cells_b):
        eq = _cell_eq(a, b)
        if eq is False:
            return False
        acc = _and(acc, eq)
    return acc


def _dedup(rows: list) -> list:
    """Enforce per-world set semantics on a list of (cells, mask) rows.

    For every world, among rows equal *in that world*, only the first
    stays present - exactly the dedup a per-world ``frozenset`` of
    rows performs.  O(rows² · n), with row counts that are tiny in
    practice (a handful of templates per relation).
    """
    out: list = []
    for cells, mask in rows:
        for prev_cells, prev_mask in out:
            dup = _and(_row_eq(cells, prev_cells), prev_mask)
            mask = _prune(_minus(mask, dup))
            if mask is False:
                break
        if mask is not False:
            out.append((cells, mask))
    return out


def _column_index(columns: tuple, name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise SchemaError(
            f"unknown column {name!r}; have {columns!r}") from None


class _Table:
    """One group's columnar relation: rows of scalar-or-array cells."""

    __slots__ = ("columns", "rows", "n")

    def __init__(self, columns: tuple, rows: list, n: int):
        self.columns = tuple(columns)
        self.rows = rows
        self.n = n


# ---------------------------------------------------------------------------
# The per-group compiler
# ---------------------------------------------------------------------------


class _GroupPlanner:
    """Evaluates a plan over one columnar group's shared view + columns."""

    def __init__(self, pdb: ColumnarMonteCarloPDB, group_index: int):
        group = pdb._outcome.groups[group_index]
        self.n = len(group.members)
        self.shared: Instance = pdb._group_view(group_index)
        self.templates: list[tuple] = []
        for firing, values in group.columns:
            for template in pdb._column_templates(firing):
                self.templates.append((template, values))

    # -- node dispatch ------------------------------------------------------

    def table(self, query: Query) -> _Table:
        if isinstance(query, Scan):
            return self._scan(query)
        if isinstance(query, Select):
            return self._select(query)
        if isinstance(query, Project):
            return self._project(query)
        if isinstance(query, Rename):
            return self._rename(query)
        if isinstance(query, NaturalJoin):
            return self._join(query)
        if isinstance(query, Product):
            return self._product(query)
        if isinstance(query, Union):
            return self._union(query)
        if isinstance(query, Difference):
            return self._difference(query)
        if isinstance(query, Intersection):
            return self._intersection(query)
        raise _Unsupported(type(query).__name__)

    # -- leaves -------------------------------------------------------------

    def _scan(self, query: Scan) -> _Table:
        rows: list[tuple] = [tuple(row)
                             for row in self.shared.tuples_of(
                                 query.relation)]
        for (relation, args, position), values in self.templates:
            if relation != query.relation:
                continue
            cells = list(args)
            cells[position] = values
            rows.append(tuple(cells))
        arities = {len(cells) for cells in rows}
        if query.columns is not None:
            columns = query.columns
            if any(arity != len(columns) for arity in arities):
                # The per-world evaluator raises SchemaError; let it.
                raise _Unsupported("scan arity mismatch")
        else:
            if not arities:
                return _Table((), [], self.n)
            if len(arities) != 1:
                raise _Unsupported("mixed-arity scan")
            columns = tuple(f"c{i}" for i in range(arities.pop()))
        return _Table(columns, _dedup([(cells, True) for cells in rows]),
                      self.n)

    # -- unary operators ----------------------------------------------------

    def _select(self, query: Select) -> _Table:
        if query.equalities is None:
            raise _Unsupported("opaque Select predicate")
        table = self.table(query.source)
        tests = [(_column_index(table.columns, name), value)
                 for name, value in query.equalities.items()]
        rows = []
        for cells, mask in table.rows:
            for index, value in tests:
                mask = _prune(_and(mask, _cell_eq(cells[index], value)))
                if mask is False:
                    break
            if mask is not False:
                rows.append((cells, mask))
        return _Table(table.columns, rows, self.n)

    def _project(self, query: Project) -> _Table:
        table = self.table(query.source)
        indices = [_column_index(table.columns, name)
                   for name in query.columns]
        rows = [(tuple(cells[i] for i in indices), mask)
                for cells, mask in table.rows]
        return _Table(query.columns, _dedup(rows), self.n)

    def _rename(self, query: Rename) -> _Table:
        table = self.table(query.source)
        columns = tuple(query.mapping.get(name, name)
                        for name in table.columns)
        return _Table(columns, table.rows, self.n)

    # -- binary operators ---------------------------------------------------

    def _join(self, query: NaturalJoin) -> _Table:
        left = self.table(query.left)
        right = self.table(query.right)
        shared = [name for name in left.columns
                  if name in right.columns]
        left_key = [_column_index(left.columns, name)
                    for name in shared]
        right_key = [_column_index(right.columns, name)
                     for name in shared]
        right_extra = [i for i, name in enumerate(right.columns)
                       if name not in shared]
        columns = left.columns + tuple(right.columns[i]
                                       for i in right_extra)
        rows = []
        for left_cells, left_mask in left.rows:
            for right_cells, right_mask in right.rows:
                mask = _and(left_mask, right_mask)
                for li, ri in zip(left_key, right_key):
                    mask = _prune(_and(mask, _cell_eq(left_cells[li],
                                                      right_cells[ri])))
                    if mask is False:
                        break
                if mask is False:
                    continue
                rows.append((left_cells + tuple(right_cells[i]
                                                for i in right_extra),
                             mask))
        return _Table(columns, rows, self.n)

    def _product(self, query: Product) -> _Table:
        left = self.table(query.left)
        right = self.table(query.right)
        overlap = set(left.columns) & set(right.columns)
        if overlap:
            raise SchemaError(
                f"product requires disjoint columns; shared {overlap!r}")
        rows = []
        for left_cells, left_mask in left.rows:
            for right_cells, right_mask in right.rows:
                mask = _prune(_and(left_mask, right_mask))
                if mask is not False:
                    rows.append((left_cells + right_cells, mask))
        return _Table(left.columns + right.columns, rows, self.n)

    def _operands(self, query) -> tuple[_Table, _Table]:
        left = self.table(query.left)
        right = self.table(query.right)
        if left.columns != right.columns:
            raise SchemaError(
                f"set operation needs equal columns: {left.columns!r} "
                f"vs {right.columns!r}")
        return left, right

    def _union(self, query: Union) -> _Table:
        left, right = self._operands(query)
        return _Table(left.columns, _dedup(left.rows + right.rows),
                      self.n)

    def _difference(self, query: Difference) -> _Table:
        left, right = self._operands(query)
        rows = []
        for cells, mask in left.rows:
            for right_cells, right_mask in right.rows:
                hit = _and(_row_eq(cells, right_cells), right_mask)
                mask = _prune(_minus(mask, hit))
                if mask is False:
                    break
            if mask is not False:
                rows.append((cells, mask))
        return _Table(left.columns, rows, self.n)

    def _intersection(self, query: Intersection) -> _Table:
        left, right = self._operands(query)
        rows = []
        for cells, mask in left.rows:
            present = False
            for right_cells, right_mask in right.rows:
                present = _or(present, _and(_row_eq(cells, right_cells),
                                            right_mask))
                if present is True:
                    break
            mask = _prune(_and(mask, present))
            if mask is not False:
                rows.append((cells, mask))
        return _Table(left.columns, rows, self.n)

    # -- per-world assembly -------------------------------------------------

    def _listed_rows(self, table: _Table) -> list[tuple]:
        """(cells-with-arrays-listed, mask-listed) per row."""
        listed = []
        for cells, mask in table.rows:
            cell_lists = tuple(cell.tolist()
                               if isinstance(cell, np.ndarray) else None
                               for cell in cells)
            mask_list = None if mask is True else mask.tolist()
            listed.append((cells, cell_lists, mask_list))
        return listed

    def world_rows(self, table: _Table) -> list[list[tuple]]:
        """The dedup'd row set of every member world, as value tuples."""
        per_world: list[list[tuple]] = [[] for _ in range(self.n)]
        for cells, cell_lists, mask_list in self._listed_rows(table):
            if mask_list is None and all(values is None
                                         for values in cell_lists):
                constant = tuple(cells)
                for rows in per_world:
                    rows.append(constant)
                continue
            for position, rows in enumerate(per_world):
                if mask_list is not None and not mask_list[position]:
                    continue
                rows.append(tuple(
                    cell if values is None else values[position]
                    for cell, values in zip(cells, cell_lists)))
        return per_world

    def assemble(self, table: _Table) -> list[Relation]:
        """One answer :class:`Relation` per member world."""
        columns = table.columns
        cache: dict[frozenset, Relation] = {}
        answers = []
        for rows in self.world_rows(table):
            key = frozenset(rows)
            answer = cache.get(key)
            if answer is None:
                answer = Relation(columns, key)
                cache[key] = answer
            answers.append(answer)
        return answers

    def aggregate_answers(self, query: Aggregate) -> list[Relation]:
        """Per-world aggregate results, segmented reductions per world.

        Pure-count aggregates without grouping reduce as one vector
        sum over the presence masks; everything else extracts the
        per-world value lists and applies the *same* fold callables
        the per-world evaluator uses (``math.fsum`` etc.), so results
        are bit-identical including empty-group error semantics.
        """
        table = self.table(query.source)
        group_indices = [_column_index(table.columns, name)
                         for name in query.group_by]
        value_indices = {
            out_name: (_column_index(table.columns, func.column)
                       if func.column is not None else None)
            for out_name, func in query.aggregates.items()}
        out_columns = query.group_by + tuple(query.aggregates)

        if not query.group_by and all(
                func.name == "count"
                for func in query.aggregates.values()):
            counts = np.zeros(self.n, dtype=np.int64)
            for _cells, mask in table.rows:
                if mask is True:
                    counts += 1
                else:
                    counts += mask
            width = len(query.aggregates)
            cache: dict[int, Relation] = {}
            answers = []
            for count in counts.tolist():
                answer = cache.get(count)
                if answer is None:
                    answer = Relation(out_columns, [(count,) * width])
                    cache[count] = answer
                answers.append(answer)
            return answers

        answers = []
        for world_rows in self.world_rows(table):
            groups: dict[tuple, list[tuple]] = {}
            for row in world_rows:
                key = tuple(row[i] for i in group_indices)
                groups.setdefault(key, []).append(row)
            if not query.group_by and not groups:
                groups[()] = []
            out_rows = []
            for key, rows in groups.items():
                aggregated = []
                for out_name, func in query.aggregates.items():
                    index = value_indices[out_name]
                    values = [row[index] for row in rows] \
                        if index is not None else list(rows)
                    if not rows and func.name in ("count", "sum"):
                        aggregated.append(0)
                    else:
                        aggregated.append(func(values))
                out_rows.append(key + tuple(aggregated))
            answers.append(Relation(out_columns, out_rows))
        return answers


# ---------------------------------------------------------------------------
# Slot-aligned answers for a columnar ensemble
# ---------------------------------------------------------------------------


def query_answers(pdb: ColumnarMonteCarloPDB,
                  query: Query) -> list[Relation | None]:
    """Answer relation per world *slot* (None = truncated world).

    The core columnar evaluator: lifted fast path when the plan only
    touches stable relations, vectorized per-group compilation when
    every node is supported, transparent per-world fallback otherwise.
    Scalar-fallback runs always evaluate per world (their instances
    already exist); none of the strategies ever materializes the
    grouped worlds except the explicit fallback.
    """
    outcome = pdb._outcome
    slots: list[Relation | None] = [None] * outcome.size

    lifted, answer = _lifted_answer(pdb, query)
    if lifted:
        for group in outcome.groups:
            for world in group.members.tolist():
                slots[world] = answer
        for index, _world in pdb._scalar_slots():
            slots[index] = answer
        return slots

    if not plan_vectorizable(query):
        return _fallback_slots(pdb, query)
    try:
        per_group = []
        for group_index in range(len(outcome.groups)):
            planner = _GroupPlanner(pdb, group_index)
            if isinstance(query, Aggregate):
                per_group.append(planner.aggregate_answers(query))
            else:
                per_group.append(planner.assemble(planner.table(query)))
    except _Unsupported:
        return _fallback_slots(pdb, query)
    for group, answers in zip(outcome.groups, per_group):
        for world, answer in zip(group.members.tolist(), answers):
            slots[world] = answer
    for index, world in pdb._scalar_slots():
        slots[index] = query.evaluate(world)
    return slots


def _lifted_answer(pdb: ColumnarMonteCarloPDB, query: Query):
    scanned = scanned_relations(query)
    if scanned is None:
        return False, None
    growable = pdb.growable_relations
    base = pdb.stable_view()
    if growable is None or base is None or (scanned & growable):
        return False, None
    return True, query.evaluate(base)


def _fallback_slots(pdb: ColumnarMonteCarloPDB,
                    query: Query) -> list[Relation | None]:
    return [None if world is None else query.evaluate(world)
            for world in pdb.world_slots()]


def _posts(slots: list, post: Callable[[Relation], Any]) -> list:
    """``post`` over the non-None slots in order, cached per identity.

    The lifted fast path and the assembly cache reuse one Relation
    object across worlds; computing its image once keeps the
    push-forward O(distinct answers), not O(worlds).
    """
    cache: dict[int, Any] = {}
    images = []
    for relation in slots:
        if relation is None:
            continue
        key = id(relation)
        if key not in cache:
            cache[key] = post(relation)
        images.append(cache[key])
    return images


# ---------------------------------------------------------------------------
# The unified push-forward dispatch (Session.query's engine)
# ---------------------------------------------------------------------------


def _push_world(pdb: PDBBase, f: Callable[[Instance], Any],
                ) -> DiscreteMeasure:
    """Push-forward of a per-world function (world-materializing)."""
    if isinstance(pdb, DiscretePDB):
        return pdb.push_distribution(f)
    if isinstance(pdb, ColumnarMonteCarloPDB):
        values = [f(world) for world in pdb.world_slots()
                  if world is not None]
        if not values:
            return DiscreteMeasure.zero()
        return DiscreteMeasure.from_samples(values).scale(
            pdb.total_mass())
    if isinstance(pdb, MonteCarloPDB):
        if not pdb.worlds:
            return DiscreteMeasure.zero()
        empirical = DiscreteMeasure.from_samples(
            [f(world) for world in pdb.worlds])
        return empirical.scale(pdb.total_mass())
    if isinstance(pdb, WeightedColumnarPDB):
        masses: dict = {}
        for world, weight in pdb._iter_weighted():
            image = f(world)
            masses[image] = masses.get(image, 0.0) + weight
        if not masses:
            return DiscreteMeasure.zero()
        return DiscreteMeasure(
            {point: mass / pdb.total_weight()
             for point, mass in masses.items()})
    if isinstance(pdb, WeightedPDB):
        masses = {}
        for world, weight in zip(pdb.worlds, pdb.weights):
            image = f(world)
            masses[image] = masses.get(image, 0.0) + weight
        return DiscreteMeasure(
            {point: mass / pdb.total_weight()
             for point, mass in masses.items()})
    raise TypeError(f"not a PDB: {pdb!r}")


def _push_query(pdb: PDBBase, query: Query,
                post: Callable[[Relation], Any]) -> DiscreteMeasure:
    """Push-forward of ``post(query(D))``, columnar where possible."""
    if isinstance(pdb, ColumnarMonteCarloPDB):
        images = _posts(query_answers(pdb, query), post)
        if not images:
            return DiscreteMeasure.zero()
        return DiscreteMeasure.from_samples(images).scale(
            pdb.total_mass())
    if isinstance(pdb, WeightedColumnarPDB):
        slots = query_answers(pdb._columnar, query)
        weights = pdb.weights
        cache: dict[int, Any] = {}
        masses: dict = {}
        for index, relation in enumerate(slots):
            if relation is None:
                continue
            weight = float(weights[index])
            if weight <= 0.0:
                continue
            key = id(relation)
            if key not in cache:
                cache[key] = post(relation)
            image = cache[key]
            masses[image] = masses.get(image, 0.0) + weight
        if not masses:
            return DiscreteMeasure.zero()
        return DiscreteMeasure(
            {point: mass / pdb.total_weight()
             for point, mass in masses.items()})
    return _push_world(pdb, lambda instance:
                       post(query.evaluate(instance)))


def query_distribution(pdb: PDBBase, query: Query) -> DiscreteMeasure:
    """Push-forward distribution of a query's full answer relation."""
    return _push_query(pdb, query,
                       lambda relation: relation.canonical())


def statistic_distribution(pdb: PDBBase,
                           statistic: Callable[[Instance], Any],
                           ) -> DiscreteMeasure:
    """Push-forward distribution of an arbitrary world statistic.

    An arbitrary function of the world cannot be compiled; columnar
    ensembles evaluate it over lazily built world slots.
    """
    return _push_world(pdb, statistic)


def aggregate_distribution(pdb: PDBBase, query: Query,
                           column: str | None = None) -> DiscreteMeasure:
    """Distribution of a single-valued aggregate query."""
    return _push_query(pdb, query, lambda relation:
                       aggregate_answer(relation, column))


def boolean_probability(pdb: PDBBase, query: Query) -> float:
    """Probability that the query returns a non-empty answer."""
    if isinstance(pdb, ColumnarMonteCarloPDB):
        hits = sum(1 for relation in query_answers(pdb, query)
                   if relation is not None and len(relation) > 0)
        return hits / pdb.n_runs
    if isinstance(pdb, WeightedColumnarPDB):
        slots = query_answers(pdb._columnar, query)
        hit = 0.0
        for index, relation in enumerate(slots):
            if relation is None or len(relation) == 0:
                continue
            weight = float(pdb.weights[index])
            if weight > 0.0:
                hit += weight
        return hit / pdb.total_weight()
    return pdb.prob(lambda instance:
                    len(query.evaluate(instance)) > 0)


def expected_aggregate(pdb: PDBBase, query: Query,
                       column: str | None = None) -> float:
    """Expected value of a numeric single-valued aggregate."""
    if isinstance(pdb, ColumnarMonteCarloPDB):
        total = math.fsum(
            float(aggregate_answer(relation, column))
            for relation in query_answers(pdb, query)
            if relation is not None)
        return total / pdb.n_runs
    if isinstance(pdb, WeightedColumnarPDB):
        slots = query_answers(pdb._columnar, query)
        weighted = math.fsum(
            float(pdb.weights[index])
            * float(aggregate_answer(relation, column))
            for index, relation in enumerate(slots)
            if relation is not None and float(pdb.weights[index]) > 0.0)
        return weighted / pdb.total_weight()
    return pdb.expectation(lambda instance: float(
        aggregate_answer(query.evaluate(instance), column)))


def answer_probabilities(pdb: PDBBase, query: Query,
                         column: str) -> dict[Any, float]:
    """Per-answer marginals: P(value ∈ q(D)) per observed value."""
    def column_values(relation: Relation) -> frozenset:
        index = relation.column_index(column)
        return frozenset(row[index] for row in relation.rows)

    per_world = _push_query(pdb, query, column_values)
    # One pass over the pushed-forward measure instead of one
    # ``measure_of`` scan per distinct value: each support point (an
    # answer set) contributes its mass to every value it contains.
    # Per-value masses are gathered in support order and fsum'd, so
    # the result is bit-identical to the per-value scans.
    contributions: dict[Any, list[float]] = {}
    for answer_set, mass in per_world.items():
        for value in answer_set:
            contributions.setdefault(value, []).append(mass)
    return {value: math.fsum(contributions[value])
            for value in sorted(contributions, key=repr)}
