"""Columnar query pushdown: relational plans over batch sample arrays.

The batched engine (:mod:`repro.engine.batched`) keeps an ``n``-world
ensemble columnar - a shared closed instance per signature group plus
one numpy array of sampled values per firing, kept once for every
group that fired it.  Instead of forcing ``.worlds`` (materializing
``n`` instances) and evaluating a plan per world, this module
*compiles* a :class:`~repro.query.relalg.Query` tree down to numpy
operations that run **once per plan over the whole batch**:

* a scan merges the rows of every group into cells laid across all
  grouped worlds - a constant, or an array of sampled values put in
  place with one gather or scatter per row - each row with a presence
  mask over those worlds;
* selections (:meth:`Query.where`'s structural equalities) become
  boolean masks over the sample columns;
* equality joins compare columns elementwise, keyed by world;
* the plan's per-world answers are reduced to an **answer index**: one
  answer id per world plus the list of distinct answer relations.
  Pure-count aggregates are one vector sum over the presence masks;
  every other answer is assembled once per distinct row set, value
  folds via the *same* fold the per-world evaluator uses
  (:meth:`Aggregate.fold`), so results are bit-identical;
* a **lifted fast path** skips per-world evaluation entirely whenever
  the plan only scans *stable* relations - relations the batch's
  stable-relation analysis proves can never gain a fact after the
  shared fixpoint (:attr:`BatchOutcome.growable`).  Such a plan has
  the same answer in every world, so one evaluation against the
  shared closed instance answers all ``n`` worlds at once (the
  first-order-model-counting shortcut specialized to this ensemble).

The merged scan is also the only code that lists a batch's facts:
:func:`fact_totals` (the per-fact counts behind marginal tables, plain
or weighted, in canonical fact order) and :func:`fact_mask` (the
worlds holding one fact, behind single-fact marginals) read its rows,
already deduplicated per world, so a fact marginal - the simplest
query - can never disagree with the query path.  :func:`event_mask`
is the one event check of Monte-Carlo conditioning, for the posterior
route and the stream alike: a
:class:`~repro.pdb.events.ContainsFactEvent` reads :func:`fact_mask`,
so fact evidence never materializes a batch's worlds.

Plans the compiler cannot vectorize - opaque ``select(callable)``
predicates, :class:`~repro.query.relalg.Extend`, nested aggregates -
fall back *transparently* to the per-world evaluator (via
``world_slots``; the answer is identical, only slower).  Every world
of a batch is columnar: the batched engine declines a batch it cannot
keep vectorized to the end.

A query's push-forward (Remark 4.9) needs each world's answer exactly
once, so the answer index is memoized per (columnar ensemble, plan
object): every accessor of one
:class:`~repro.api.results.QueryResult` reduces over a single
evaluation with numpy.  The module also hosts the unified push-forward
implementation behind :meth:`repro.api.Session.query`: one dispatch
covering exact PDBs, plain and columnar Monte-Carlo ensembles, and
weighted (posterior) ensembles including the streamed
:class:`WeightedColumnarPDB`.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.batched import ColumnarMonteCarloPDB
from repro.errors import SchemaError
from repro.measures.discrete import DiscreteMeasure
from repro.ordering import tuple_sort_key
from repro.pdb.database import DiscretePDB, MonteCarloPDB, PDBBase
from repro.pdb.events import ContainsFactEvent, EventLike, conjunction
from repro.pdb.facts import Fact, normalize_value
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB
from repro.query.aggregates import Aggregate, aggregate_answer
from repro.query.relalg import (Difference, Extend, Intersection,
                                NaturalJoin, Product, Project, Query,
                                Relation, Rename, Scan, Select, Union)


class _Unsupported(Exception):
    """Internal: the plan (or this batch's data) is not vectorizable."""


# ---------------------------------------------------------------------------
# Plan analysis
# ---------------------------------------------------------------------------


def _scans(query: Query) -> list[Scan] | None:
    """Every :class:`Scan` node of the plan, or None on unknown nodes."""
    scans: list[Scan] = []
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            scans.append(node)
        elif isinstance(node, (Select, Project, Rename, Extend,
                               Aggregate)):
            stack.append(node.source)
        elif isinstance(node, (NaturalJoin, Product, Union, Difference,
                               Intersection)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            return None
    return scans


def scanned_relations(query: Query) -> frozenset | None:
    """Every stored relation the plan reads, or None on unknown nodes."""
    scans = _scans(query)
    return None if scans is None \
        else frozenset(node.relation for node in scans)


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
    one vectorized evaluation over every signature group of the batch
    at once; ``"fallback"`` - per-world evaluation over lazily built
    world slots; ``"worlds"`` - not a columnar ensemble at all (exact
    or materialized-world paths).
    """
    view = _columnar_view(pdb)
    if view is None:
        return "worlds"
    scanned = scanned_relations(query)
    if scanned is not None and not (scanned & view[0].growable_relations):
        return "lifted"
    return "columnar" if plan_vectorizable(query) else "fallback"


def _columnar_view(pdb: PDBBase):
    """``(ensemble, weights, total)`` of a columnar PDB, else None.

    A plain :class:`ColumnarMonteCarloPDB` brings no weights (None) and
    totals ``n_runs``; a :class:`WeightedColumnarPDB` brings its
    importance weights and their total.
    """
    if isinstance(pdb, WeightedColumnarPDB):
        return pdb._columnar, pdb.weights, pdb.total_weight()
    if isinstance(pdb, ColumnarMonteCarloPDB):
        return pdb, None, pdb.n_runs
    return None


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
    non-numeric constant can never match one.
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
    if len(cells_a) != len(cells_b):
        return False  # a relation used at two arities
    acc = True
    for a, b in zip(cells_a, cells_b):
        eq = _cell_eq(a, b)
        if eq is False:
            return False
        acc = _and(acc, eq)
    return acc


def _has_sample(cells: tuple) -> bool:
    """Whether any of the cells is a per-world sample array."""
    return any(isinstance(cell, np.ndarray) for cell in cells)


def _by_constant_key(rows: list, indices: list[int]) -> tuple[dict, list]:
    """Row positions by the constant values of their key cells.

    A row with a sample array among its key cells may match any key,
    so it lands in the returned wildcard list instead.
    """
    buckets: dict[tuple, list[int]] = {}
    wildcards: list[int] = []
    for position, (cells, _mask) in enumerate(rows):
        key = tuple(cells[i] for i in indices)
        if _has_sample(key):
            wildcards.append(position)
        else:
            buckets.setdefault(key, []).append(position)
    return buckets, wildcards


def _matching(rows: list, index: tuple[dict, list], key: tuple) -> list:
    """The rows that may equal ``key`` on the indexed cells, in order."""
    if _has_sample(key):
        return rows
    buckets, wildcards = index
    return [rows[position] for position
            in sorted(buckets.get(key, []) + wildcards)]


def _dedup(rows: list) -> list:
    """Enforce per-world set semantics on a list of (cells, mask) rows.

    For every world, among rows equal *in that world*, only the first
    stays present - exactly the dedup a per-world ``frozenset`` of
    rows performs.  Two constant rows are equal in a world exactly
    when their values are, so they meet through a dict keyed by value.
    A row holding sample arrays is compared only with the earlier rows
    it can equal: rows of its arity whose first cell is the same
    constant or a sample cell, and every row of its arity when its own
    first cell is a sample cell (the join's constant-key index, kept
    as the rows arrive).
    """
    out: list = []
    constant_masks: dict[tuple, Any] = {}
    # Positions in ``out``: rows with samples by (arity, first cell),
    # constant rows likewise, and rows opening with a sample cell by
    # arity.
    sampled_heads: dict[tuple, list[int]] = {}
    constant_heads: dict[tuple, list[int]] = {}
    sampled_open: dict[int, list[int]] = {}
    for cells, mask in rows:
        constant = not _has_sample(cells)
        arity = len(cells)
        head = (arity, cells[0]) if arity \
            and not isinstance(cells[0], np.ndarray) else None
        if constant:
            candidates = sampled_heads.get(head, []) \
                + sampled_open.get(arity, [])
        elif head is None:
            candidates = [position for position, (prev_cells, _)
                          in enumerate(out) if len(prev_cells) == arity]
        else:
            candidates = sampled_heads.get(head, []) \
                + constant_heads.get(head, []) \
                + sampled_open.get(arity, [])
        for position in candidates:
            prev_cells, prev_mask = out[position]
            dup = _and(_row_eq(cells, prev_cells), prev_mask)
            mask = _prune(_minus(mask, dup))
            if mask is False:
                break
        if constant and mask is not False:
            mask = _prune(_minus(mask, constant_masks.get(cells, False)))
        if mask is False:
            continue
        position = len(out)
        out.append((cells, mask))
        if constant:
            constant_masks[cells] = _or(constant_masks.get(cells, False),
                                        mask)
            constant_heads.setdefault(head, []).append(position)
        elif head is None:
            sampled_open.setdefault(arity, []).append(position)
        else:
            sampled_heads.setdefault(head, []).append(position)
    return out


def _column_index(columns: tuple, name: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise SchemaError(
            f"unknown column {name!r}; have {columns!r}") from None


class _Table:
    """A columnar relation: rows of scalar-or-array cells with masks."""

    __slots__ = ("columns", "rows", "n")

    def __init__(self, columns: tuple, rows: list, n: int):
        self.columns = tuple(columns)
        self.rows = rows
        self.n = n


# ---------------------------------------------------------------------------
# The whole-batch compiler
# ---------------------------------------------------------------------------


class _BatchPlanner:
    """Evaluates a plan once over a set of columnar groups, merged.

    The groups' members are laid end to end as positions ``0..n-1``
    (:attr:`members` maps a position to its world id).  A cell is a
    constant or an ``n``-wide array of sampled values; a row's mask is
    True (present at every position) or an ``n``-wide bool array.  An
    array cell holds valid values wherever its row is present, and
    every operator only narrows masks, so values outside a row's
    groups are never read.  ``relations`` names the relations scans
    may read (None: all of them); the fact readers below scan through
    the same :meth:`_relation_rows`.
    """

    def __init__(self, pdb: ColumnarMonteCarloPDB,
                 group_indices: list[int], relations: frozenset | None):
        groups = [pdb._outcome.groups[index] for index in group_indices]
        sizes = [len(group.members) for group in groups]
        self.pdb = pdb
        self.groups = groups
        self.group_indices = group_indices
        self.relations = relations
        self.members = np.concatenate([group.members
                                       for group in groups])
        self.n = len(self.members)
        self.owner = np.repeat(np.arange(len(groups)), sizes)
        self._relations: dict[str, list] = {}
        self._columns: dict[str, list] | None = None
        #: Each world's position, -1 outside the groups (built on use).
        self._position: np.ndarray | None = None

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

    def _coverage(self, groups: list[int]):
        """The mask of the positions of the given (local) groups."""
        if len(groups) == len(self.group_indices):
            return True
        hit = np.zeros(len(self.group_indices), dtype=bool)
        hit[groups] = True
        return hit[self.owner]

    def _sample_columns(self) -> dict[str, list]:
        """The sampled rows of every scanned relation, by relation.

        One row per (template, dtype, occurrence) - occurrence counts
        the earlier firings of a group's path with that template and
        dtype (:attr:`~repro.engine.batched._Fired.twins`) - in order
        of first appearance, group by group and along each path.  A
        row's ``n``-wide column holds its firings' draws
        (:meth:`_sample_row`), and its mask covers their worlds; two
        firings of one row never share a world.
        """
        if self._columns is not None:
            return self._columns
        firings = self.pdb._outcome.firings
        templates_of: dict[int, list] = {}
        rows: dict[tuple, tuple] = {}
        for index in self._fired():
            fired = firings[index]
            templates = templates_of.get(id(fired.firing))
            if templates is None:
                templates = templates_of[id(fired.firing)] = [
                    template for template
                    in self.pdb._column_templates(fired.firing)
                    if self.relations is None
                    or template[0] in self.relations]
            dtype = fired.values.dtype
            for template in templates:
                occurrence = sum(
                    1 for twin in fired.twins
                    if template in firings[twin].firing.heads
                    and firings[twin].values.dtype == dtype) \
                    if fired.twins else 0
                key = (template, dtype, occurrence)
                entry = rows.get(key)
                if entry is None:
                    entry = rows[key] = (template, [])
                entry[1].append(fired)
        self._columns = {}
        for template, row_firings in rows.values():
            self._columns.setdefault(template[0], []).append(
                self._sample_row(template, row_firings))
        return self._columns

    def _fired(self) -> list[int]:
        """The firings the groups' paths fired, in first-seen order.

        A firing an earlier group listed comes with its whole path
        before it, so each path is new only past its last listed
        firing.
        """
        listed: set = set()
        order: list[int] = []
        for group in self.groups:
            path = group.firings
            start = len(path)
            while start and path[start - 1] not in listed:
                start -= 1
            fresh = path[start:]
            listed.update(fresh)
            order.extend(fresh)
        return order

    def _sample_row(self, template: tuple, firings: list) -> tuple:
        """One sampled row: its firings' draws, put in place at once.

        A firing over every world is its row's only one, and its
        column is one gather at the planner's members.  Otherwise the
        firings' worlds and draws are joined and scattered to the
        planner positions of those worlds, where 0 fills the rest.
        """
        first = firings[0]
        _, args, position = template
        cells = list(args)
        if len(first.worlds) == self.pdb._outcome.size:
            cells[position] = first.values[self.members]
            return tuple(cells), True
        worlds = np.concatenate([fired.worlds for fired in firings])
        values = np.concatenate([fired.values for fired in firings])
        if self._position is None:
            self._position = np.full(self.pdb._outcome.size, -1,
                                     dtype=np.intp)
            self._position[self.members] = np.arange(self.n)
        where = self._position[worlds]
        if len(self._position) > self.n:
            # Worlds outside the planner's groups have no position.
            kept = where >= 0
            where, values = where[kept], values[kept]
        column = np.zeros(self.n, dtype=first.values.dtype)
        column[where] = values
        cells[position] = column
        if len(where) == self.n:
            return tuple(cells), True
        mask = np.zeros(self.n, dtype=bool)
        mask[where] = True
        return tuple(cells), mask

    def _relation_rows(self, relation: str) -> list:
        """Every row ``relation`` has in any group, dedup'd per world.

        Every group's ``shared`` holds the batch's base instance, so
        the base's rows are read once, present everywhere; each group
        adds only the rest of its ``shared``, which a relation outside
        :attr:`BatchOutcome.growable` never has.  Those tuples are
        keyed by value (and type, so ``1`` and ``1.0`` stay apart),
        sampled rows come from :meth:`_sample_columns`.  Shared rows
        come first, as in a single group's scan.
        """
        rows = self._relations.get(relation)
        if rows is not None:
            return rows
        shared: dict[tuple, tuple] = {}
        rows = []
        outcome = self.pdb._outcome
        if self.pdb._shows(relation):
            base = outcome.base.facts_of(relation)
            rows = [(fact.args, True) for fact in base]
            grows = relation in outcome.growable
            for local, group in enumerate(self.groups if grows else ()):
                for fact in group.shared.facts_of(relation) - base:
                    row = fact.args
                    key = (row, tuple(map(type, row)))
                    shared.setdefault(key, (row, []))[1].append(local)
        rows.extend((row, self._coverage(groups))
                    for row, groups in shared.values())
        rows.extend(self._sample_columns().get(relation, ()))
        rows = _dedup(rows)
        self._relations[relation] = rows
        return rows

    def _scan(self, query: Scan) -> _Table:
        rows = self._relation_rows(query.relation)
        if len({len(cells) for cells, _ in rows}) > 1:
            raise _Unsupported("mixed-arity scan")
        arity = len(rows[0][0]) if rows else None
        if query.columns is not None:
            if arity is not None and arity != len(query.columns):
                # The per-world evaluator raises SchemaError; let it.
                raise _Unsupported("scan arity mismatch")
            return _Table(query.columns, rows, self.n)
        if arity is None:
            return _Table((), [], self.n)
        return _Table(tuple(f"c{i}" for i in range(arity)), rows, self.n)

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
        index = _by_constant_key(right.rows, right_key)
        rows = []
        for left_cells, left_mask in left.rows:
            key = tuple(left_cells[i] for i in left_key)
            for right_cells, right_mask in _matching(right.rows, index,
                                                     key):
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
        index = _by_constant_key(right.rows, list(range(len(right.columns))))
        rows = []
        for cells, mask in left.rows:
            for right_cells, right_mask in _matching(right.rows, index,
                                                     cells):
                hit = _and(_row_eq(cells, right_cells), right_mask)
                mask = _prune(_minus(mask, hit))
                if mask is False:
                    break
            if mask is not False:
                rows.append((cells, mask))
        return _Table(left.columns, rows, self.n)

    def _intersection(self, query: Intersection) -> _Table:
        left, right = self._operands(query)
        index = _by_constant_key(right.rows, list(range(len(right.columns))))
        rows = []
        for cells, mask in left.rows:
            present = False
            for right_cells, right_mask in _matching(right.rows, index,
                                                     cells):
                present = _or(present, _and(_row_eq(cells, right_cells),
                                            right_mask))
                if present is True:
                    break
            mask = _prune(_and(mask, present))
            if mask is not False:
                rows.append((cells, mask))
        return _Table(left.columns, rows, self.n)

    # -- answers ------------------------------------------------------------

    def answers(self, query: Query) -> tuple[np.ndarray, list[Relation]]:
        """A key per position, and the answer relation of every key.

        Positions with equal keys have equal answers.  Keys are
        numbered in order of first position, so answers are built in
        the order a per-world evaluation would meet them.
        """
        if not isinstance(query, Aggregate):
            table = self.table(query)
            keys, first = _row_set_keys(table)
            return keys, [Relation(table.columns, rows)
                          for rows in _rows_at(table, first)]
        table = self.table(query.source)
        if not query.group_by and all(
                func.name == "count" for func in query.aggregates.values()):
            counts = np.zeros(self.n, dtype=np.int64)
            for _cells, mask in table.rows:
                counts += mask  # True adds one everywhere
            keys, first = _factorize(counts)
            width = len(query.aggregates)
            columns = tuple(query.aggregates)
            return keys, [Relation(columns, [(count,) * width])
                          for count in counts[first].tolist()]
        keys, first = _row_set_keys(table)
        return keys, [query.fold(Relation(table.columns, rows))
                      for rows in _rows_at(table, first)]


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``values`` in order of first position.

    Returns the id of every position and the first position of every
    id.
    """
    _, first, inverse = np.unique(values, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _row_set_keys(table: _Table) -> tuple[np.ndarray, np.ndarray]:
    """A row-set id per position, numbered as by :func:`_factorize`.

    Every row adds one code per sample cell (0 where the row is
    absent, else 1 + the value's rank) or, when all its cells are
    constants, its presence; positions whose codes all agree hold
    equal row sets.  Codes are folded into one id per position after
    each step, so the ids stay below ``n``.
    """
    keys = np.zeros(table.n, dtype=np.int64)
    for cells, mask in table.rows:
        codes = [np.unique(cell, return_inverse=True,
                           equal_nan=False)[1] + 1
                 for cell in cells if isinstance(cell, np.ndarray)]
        if mask is not True:
            codes = [np.where(mask, code, 0) for code in codes] \
                or [mask.astype(np.int64)]
        for code in codes:
            keys = np.unique(keys * (int(code.max()) + 1) + code,
                             return_inverse=True)[1]
    return _factorize(keys)


def _rows_at(table: _Table, positions: np.ndarray) -> list[list[tuple]]:
    """The rows present at each of ``positions``, in table order."""
    per_position: list[list[tuple]] = [[] for _ in range(len(positions))]
    for cells, mask in table.rows:
        present = None if mask is True else mask[positions].tolist()
        listed = [cell[positions].tolist()
                  if isinstance(cell, np.ndarray) else None
                  for cell in cells]
        for slot, rows in enumerate(per_position):
            if present is None or present[slot]:
                rows.append(tuple(cell if values is None else values[slot]
                                  for cell, values in zip(cells, listed)))
    return per_position


# ---------------------------------------------------------------------------
# Fact reads: the merged scan answers marginals and fact tables too
# ---------------------------------------------------------------------------


def _live_groups(pdb: ColumnarMonteCarloPDB) -> list[int]:
    """Indices of the batch's groups with at least one member."""
    return [index for index, group in enumerate(pdb._outcome.groups)
            if len(group.members)]


def _fact_planner(pdb: ColumnarMonteCarloPDB,
                  relations: frozenset | None) -> _BatchPlanner:
    """A planner over every non-empty group (every world is in one)."""
    return _BatchPlanner(pdb, _live_groups(pdb), relations)


def fact_totals(pdb: ColumnarMonteCarloPDB, relations=None,
                weights: np.ndarray | None = None,
                ) -> list[tuple[str, tuple, Any]]:
    """Total (weighted) count of every fact of the ensemble's worlds.

    Returns ``(relation, args, total)`` rows in canonical fact order
    (:meth:`Fact.sort_key`), one per distinct fact.  ``relations``
    restricts the table to those relation names (None: every
    relation).  ``weights`` is a per-world-index vector (length
    ``size``); with None the totals are plain integer counts.  Callers
    normalize themselves (by ``size`` for frequencies, by the total
    weight for self-normalized posterior estimates).

    The worlds are read off the merged scan, whose rows are already
    deduplicated per world: a constant row counts the positions where
    it is present, and a template row - exactly one sample cell -
    counts each distinct sampled value over those positions
    (:func:`_row_facts`); :func:`_in_order` lays the rows' facts out
    in canonical order.
    """
    planner = _fact_planner(pdb, None if relations is None
                            else frozenset(relations))
    names = set(planner._sample_columns())
    names.update(name for index in planner.group_indices
                 for name in pdb._outcome.groups[index].shared.relations()
                 if pdb._shows(name))
    if relations is not None:
        names.intersection_update(relations)
    member_weights = None if weights is None \
        else weights[planner.members]
    table: list[tuple[str, tuple, Any]] = []
    for relation in sorted(names):
        runs = [_row_facts(relation, cells, mask, planner.n,
                           member_weights)
                for cells, mask in planner._relation_rows(relation)]
        table.extend(_in_order(relation, runs))
    return table


def _row_facts(relation: str, cells: tuple, mask, n: int,
               member_weights: np.ndarray | None) -> tuple:
    """One merged-scan row's facts with their totals, in key order.

    Returns ``(low, high, facts)``: ``facts`` lists ``(relation, args,
    total)`` sorted by :func:`tuple_sort_key` of ``args``, and ``low``
    and ``high`` are the keys of the first and the last.
    ``np.unique`` hands a template row's values over sorted, and for a
    numeric column that is their key order, so only the two ends need
    a key; a column of any other dtype has its values normalized (as
    :class:`Fact` does) and sorted by key.
    """
    present = slice(None) if mask is True else mask
    row_weights = None if member_weights is None \
        else member_weights[present]
    samples = [position for position, cell in enumerate(cells)
               if isinstance(cell, np.ndarray)]
    if not samples:
        if row_weights is None:
            total = n if mask is True else int(np.count_nonzero(mask))
        else:
            total = float(row_weights.sum())
        key = tuple_sort_key(cells)
        return key, key, [(relation, cells, total)]
    position, = samples
    column = cells[position][present]
    if row_weights is None:
        values, counts = np.unique(column, return_counts=True)
    else:
        values, inverse = np.unique(column, return_inverse=True)
        counts = np.bincount(inverse, weights=row_weights)
    head, tail = cells[:position], cells[position + 1:]
    numeric = values.dtype.kind in "iuf"
    listed = values.tolist() if numeric \
        else [normalize_value(value) for value in values.tolist()]
    facts = [(relation, head + (value,) + tail, total)
             for value, total in zip(listed, counts.tolist())]
    if not numeric:
        facts.sort(key=lambda fact: tuple_sort_key(fact[1]))
    return (tuple_sort_key(facts[0][1]), tuple_sort_key(facts[-1][1]),
            facts)


def _in_order(relation: str, runs: list) -> list:
    """One relation's facts, in canonical order.

    ``runs`` are :func:`_row_facts` of the merged scan's rows, in row
    order.  Sorted by their low keys, runs whose key ranges overlap no
    other are in place as they are.  Overlapping runs (a sample cell
    before a distinguishing constant, or one fact listed by several
    rows, e.g. ``1`` and ``1.0``) merge fact by fact: equal facts keep
    the first row's args and add up their totals in row order, then
    sort stably by key.
    """
    clusters: list[list[int]] = []
    high = None
    for index in sorted(range(len(runs)), key=lambda i: runs[i][0]):
        low, run_high, _facts = runs[index]
        if clusters and low <= high:
            clusters[-1].append(index)
            high = max(high, run_high)
        else:
            clusters.append([index])
            high = run_high
    facts: list = []
    for cluster in clusters:
        if len(cluster) == 1:
            facts.extend(runs[cluster[0]][2])
            continue
        totals: dict[tuple, Any] = {}
        for index in sorted(cluster):
            for _relation, args, total in runs[index][2]:
                totals[args] = totals.get(args, 0) + total
        facts.extend((relation, args, total) for args, total in sorted(
            totals.items(), key=lambda fact: tuple_sort_key(fact[0])))
    return facts


def fact_mask(pdb: ColumnarMonteCarloPDB, fact: Fact) -> np.ndarray:
    """Per-world-index membership of ``fact``.

    A merged-scan row holds the fact where it is present and every
    cell equals the fact's argument; a sample cell never equals a
    non-numeric argument, and a row of another arity never matches.
    """
    mask = np.zeros(pdb.n_runs, dtype=bool)
    planner = _fact_planner(pdb, frozenset((fact.relation,)))
    held = False
    for cells, present in planner._relation_rows(fact.relation):
        held = _or(held, _and(present, _row_eq(cells, fact.args)))
        if held is True:
            mask[planner.members] = True
            return mask
    if held is not False:
        mask[planner.members[held]] = True
    return mask


def event_mask(worlds: ColumnarMonteCarloPDB | Sequence[Instance],
               events: Sequence[EventLike]) -> np.ndarray:
    """Per-world-index: which worlds satisfy every event.

    The one event check of Monte-Carlo conditioning (the posterior
    route's and the stream's).  On a columnar ensemble each
    :class:`~repro.pdb.events.ContainsFactEvent` reads
    :func:`fact_mask`, so fact evidence never materializes the
    worlds; any other event is tested on ``world_slots()``, and only
    on the worlds still accepted.  On a list of worlds it is the
    conjunction, world by world.
    """
    columnar = isinstance(worlds, ColumnarMonteCarloPDB)
    mask = np.ones(worlds.n_runs if columnar else len(worlds), dtype=bool)
    rest = []
    for event in events:
        if columnar and isinstance(event, ContainsFactEvent):
            mask &= fact_mask(worlds, event.f)
        else:
            rest.append(event)
    if rest and mask.any():
        slots = worlds.world_slots() if columnar else worlds
        satisfied = conjunction(rest)
        for index in np.flatnonzero(mask).tolist():
            mask[index] = satisfied(slots[index])
    return mask


# ---------------------------------------------------------------------------
# The answer index of a columnar ensemble
# ---------------------------------------------------------------------------


#: The last plan evaluated per columnar ensemble: pdb -> (plan, ids,
#: answers).  Ensembles are immutable, so an entry stays valid for as
#: long as its pdb lives.
_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _answer_index(pdb: ColumnarMonteCarloPDB,
                  query: Query) -> tuple[np.ndarray, list[Relation]]:
    """The plan's answer in every world slot, as an index.

    Returns ``(ids, answers)``: ``ids[i]`` is world ``i``'s position in
    ``answers``, and ``answers`` lists the distinct answer relations in
    order of first world.  Evaluated once per (ensemble, plan object)
    pair and memoized - the lifted fast path when the plan only
    touches stable relations, one vectorized pass over every
    signature group when each node is supported, the transparent
    per-world fallback otherwise.
    """
    memo = _MEMO.get(pdb)
    if memo is not None and memo[0] is query:
        return memo[1], memo[2]
    ids, answers = _evaluate(pdb, query)
    _MEMO[pdb] = (query, ids, answers)
    return ids, answers


def query_answers(pdb: ColumnarMonteCarloPDB,
                  query: Query) -> list[Relation]:
    """Answer relation per world *slot*.

    The per-slot view of :func:`_answer_index`.  None of the strategies
    ever materializes the grouped worlds except the explicit fallback.
    """
    ids, answers = _answer_index(pdb, query)
    return [answers[answer] for answer in ids.tolist()]


def _evaluate(pdb: ColumnarMonteCarloPDB,
              query: Query) -> tuple[np.ndarray, list[Relation]]:
    size = pdb._outcome.size
    lifted = _lifted_answer(pdb, query)
    if lifted is not None:
        return _index(np.zeros(size, dtype=np.int64), [lifted])
    if not plan_vectorizable(query):
        return _fallback(pdb, query)
    # Every world is a member of one group, so every code is set.
    codes = np.empty(size, dtype=np.int64)
    relations: list[Relation] = []
    scanned = scanned_relations(query)
    try:
        for groups in _schema_classes(pdb, query):
            planner = _BatchPlanner(pdb, groups, scanned)
            keys, answers = planner.answers(query)
            codes[planner.members] = keys + len(relations)
            relations.extend(answers)
    except _Unsupported:
        return _fallback(pdb, query)
    return _index(codes, relations)


def _schema_classes(pdb: ColumnarMonteCarloPDB,
                    query: Query) -> list[list[int]]:
    """The batch's non-empty groups, split so each part has one schema.

    A scan without explicit columns names them after the arity it
    finds, and a relation with no row in a group scans as zero columns
    there - the plan's schema may differ between groups.  Groups that
    agree on the arities of every such relation are planned together;
    without column-less scans that is all of them.
    """
    groups = _live_groups(pdb)
    relations = sorted({node.relation for node in _scans(query)
                        if node.columns is None})
    if not relations:
        return [groups]
    classes: dict[tuple, list[int]] = {}
    for index in groups:
        key = tuple(_arities(pdb, index, relation)
                    for relation in relations)
        classes.setdefault(key, []).append(index)
    return list(classes.values())


def _arities(pdb: ColumnarMonteCarloPDB, index: int,
             relation: str) -> frozenset:
    group = pdb._outcome.groups[index]
    arities = {len(fact.args)
               for fact in group.shared.facts_of(relation)} \
        if pdb._shows(relation) else set()
    for fired in group.firings:
        arities.update(len(args) for name, args, _position
                       in pdb._column_templates(
                           pdb._outcome.firings[fired].firing)
                       if name == relation)
    return frozenset(arities)


def _lifted_answer(pdb: ColumnarMonteCarloPDB,
                   query: Query) -> Relation | None:
    """The one answer of every world, when the plan reads stable data."""
    scanned = scanned_relations(query)
    if scanned is None or (scanned & pdb.growable_relations):
        return None
    return query.evaluate(pdb.stable_view())


def _fallback(pdb: ColumnarMonteCarloPDB,
              query: Query) -> tuple[np.ndarray, list[Relation]]:
    relations = [query.evaluate(world) for world in pdb.world_slots()]
    return _index(np.arange(len(relations)), relations)


def _first_seen(ids: np.ndarray) -> list[int]:
    """The distinct values of ``ids``, in order of first slot."""
    used, first = np.unique(ids, return_index=True)
    return used[np.argsort(first)].tolist()


def _index(codes: np.ndarray,
           relations: list[Relation]) -> tuple[np.ndarray, list[Relation]]:
    """Merge equal relations into answer ids numbered by first slot.

    ``codes`` maps each world slot to one of ``relations``.
    """
    answer_of = np.zeros(len(relations), dtype=np.intp)
    answers: list[Relation] = []
    seen: dict[Relation, int] = {}
    for code in _first_seen(codes):
        relation = relations[code]
        answer = seen.get(relation)
        if answer is None:
            answer = seen[relation] = len(answers)
            answers.append(relation)
        answer_of[code] = answer
    ids = answer_of[codes]
    ids.flags.writeable = False
    return ids, answers


def _images(ids: np.ndarray, answers: list[Relation],
            post: Callable[[Relation], Any]) -> tuple[list, np.ndarray]:
    """``post`` over the answers ``ids`` reaches, in first-slot order.

    Returns the distinct images (first-slot order) and, per answer id,
    its image's position among them.
    """
    images: dict = {}
    image_of = np.zeros(len(answers), dtype=np.intp)
    for answer in _first_seen(ids):
        image_of[answer] = images.setdefault(post(answers[answer]),
                                             len(images))
    return list(images), image_of


def _aggregate_values(ids: np.ndarray, answers: list[Relation],
                      column: str | None) -> np.ndarray:
    """The numeric aggregate value of each of ``ids``' answers, per slot."""
    values = np.zeros(len(answers))
    for answer in _first_seen(ids):
        values[answer] = float(aggregate_answer(answers[answer], column))
    return values[ids]


# ---------------------------------------------------------------------------
# The unified push-forward dispatch (Session.query's engine)
# ---------------------------------------------------------------------------


def _push_world(pdb: PDBBase, f: Callable[[Instance], Any],
                ) -> DiscreteMeasure:
    """Push-forward of a per-world function (world-materializing)."""
    if isinstance(pdb, DiscretePDB):
        return pdb.push_distribution(f)
    if isinstance(pdb, MonteCarloPDB):
        if not pdb.worlds:
            return DiscreteMeasure.zero()
        empirical = DiscreteMeasure.from_samples(
            [f(world) for world in pdb.worlds])
        return empirical.scale(pdb.total_mass())
    if isinstance(pdb, WeightedPDB):
        masses: dict = {}
        for world, weight in zip(pdb.worlds, pdb.weights):
            image = f(world)
            masses[image] = masses.get(image, 0.0) + weight
        return DiscreteMeasure(
            {point: mass / pdb.total_weight()
             for point, mass in masses.items()})
    raise TypeError(f"not a PDB: {pdb!r}")


def _live_answers(pdb: PDBBase, query: Query):
    """The answer index over a columnar PDB's worlds of positive weight.

    Returns ``(ids, answers, weights, total)`` (see
    :func:`_answer_index`) - a plain ensemble's worlds weigh 1 each -
    or None when ``pdb`` is not columnar.  Unit weights sum exactly,
    so the weighted reductions below give a plain ensemble the counts
    it would get by counting.
    """
    view = _columnar_view(pdb)
    if view is None:
        return None
    ensemble, weights, total = view
    ids, answers = _answer_index(ensemble, query)
    if weights is None:
        return ids, answers, np.ones(len(ids)), total
    live = weights > 0.0
    return ids[live], answers, weights[live], total


def _push_query(pdb: PDBBase, query: Query,
                post: Callable[[Relation], Any]) -> DiscreteMeasure:
    """Push-forward of ``post(query(D))``, columnar where possible.

    Over columnar ensembles ``post`` runs once per distinct answer;
    weights are summed per image with ``np.bincount``, which adds in
    slot order like the per-world loop it replaces.
    """
    live = _live_answers(pdb, query)
    if live is None:
        return _push_world(pdb, lambda instance:
                           post(query.evaluate(instance)))
    ids, answers, weights, total = live
    if not len(ids):
        return DiscreteMeasure.zero()
    images, image_of = _images(ids, answers, post)
    masses = np.bincount(image_of[ids], weights=weights,
                         minlength=len(images))
    return DiscreteMeasure(
        {image: mass / total
         for image, mass in zip(images, masses.tolist())})


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
    live = _live_answers(pdb, query)
    if live is None:
        return pdb.prob(lambda instance:
                        len(query.evaluate(instance)) > 0)
    ids, answers, weights, total = live
    hit = np.bincount(_nonempty(answers)[ids], weights=weights,
                      minlength=2)[1]
    return float(hit) / total


def _nonempty(answers: list[Relation]) -> np.ndarray:
    return np.array([len(relation) > 0 for relation in answers],
                    dtype=np.intp)


def expected_aggregate(pdb: PDBBase, query: Query,
                       column: str | None = None) -> float:
    """Expected value of a numeric single-valued aggregate."""
    live = _live_answers(pdb, query)
    if live is None:
        return pdb.expectation(lambda instance: float(
            aggregate_answer(query.evaluate(instance), column)))
    ids, answers, weights, total = live
    values = _aggregate_values(ids, answers, column)
    return math.fsum((weights * values).tolist()) / total


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
