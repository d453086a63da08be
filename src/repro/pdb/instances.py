"""Database instances: finite *sets* of facts.

The paper works exclusively with set instances and set semantics
(Section 2.3): the sample space ``D`` is the set of all finite,
duplicate-free collections of facts.  :class:`Instance` is an immutable,
hashable wrapper around a ``frozenset`` of :class:`repro.pdb.facts.Fact`
objects, with relation-wise access helpers used throughout the chase.

Immutability matters: exact SPDBs are dictionaries keyed by instances,
the paper's Lemma C.4 ("no instance labels two chase-tree nodes") is
checked on hashable instances, and chase steps produce *new* instances
(``ext(D, ...) = D ∪ {f}``, Definition 3.7) rather than mutating.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.pdb.facts import Fact, sorted_facts
from repro.pdb.schema import Schema


class Instance:
    """An immutable finite set of facts.

    >>> D = Instance.of(Fact("R", (1,)), Fact("S", (2, 3)))
    >>> len(D)
    2
    >>> Fact("R", (1,)) in D
    True
    """

    __slots__ = ("_facts", "_by_relation", "_hash")

    def __init__(self, facts: Iterable[Fact] = ()):
        fact_set = frozenset(facts)
        by_relation: dict[str, frozenset[Fact]] = {}
        grouping: dict[str, set[Fact]] = {}
        for f in fact_set:
            grouping.setdefault(f.relation, set()).add(f)
        for name, group in grouping.items():
            by_relation[name] = frozenset(group)
        object.__setattr__(self, "_facts", fact_set)
        object.__setattr__(self, "_by_relation", by_relation)
        object.__setattr__(self, "_hash", hash(fact_set))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Instance is immutable")

    def __reduce__(self) -> tuple:
        # Slotted + immutable: reconstruct through the constructor
        # (which rebuilds the per-relation index) so instances
        # round-trip through pickle.
        return (Instance, (tuple(self._facts),))

    # -- construction -----------------------------------------------------

    @classmethod
    def of(cls, *facts: Fact) -> "Instance":
        """Build an instance from facts given as arguments."""
        return cls(facts)

    @classmethod
    def empty(cls) -> "Instance":
        return _EMPTY

    @classmethod
    def from_dict(cls, relations: dict[str, Iterable[tuple]]) -> "Instance":
        """Build from ``{"R": [(1, 2), ...], ...}`` tuple listings."""
        facts: list[Fact] = []
        for name, rows in relations.items():
            facts.extend(Fact(name, row) for row in rows)
        return cls(facts)

    # -- set interface ----------------------------------------------------

    def __contains__(self, f: Fact) -> bool:
        return f in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    def relations(self) -> tuple[str, ...]:
        """Names of relations with at least one fact, sorted."""
        return tuple(sorted(self._by_relation))

    def facts_of(self, relation: str) -> frozenset[Fact]:
        """All facts of one relation (empty frozenset if none)."""
        return self._by_relation.get(relation, frozenset())

    def tuples_of(self, relation: str) -> frozenset[tuple]:
        """Argument tuples of one relation."""
        return frozenset(f.args for f in self.facts_of(relation))

    def count(self, predicate: Callable[[Fact], bool]) -> int:
        """Number of facts satisfying ``predicate``."""
        return sum(1 for f in self._facts if predicate(f))

    # -- algebra ----------------------------------------------------------

    def add(self, f: Fact) -> "Instance":
        """``self ∪ {f}`` - the paper's ``ext`` on the instance side."""
        if f in self._facts:
            return self
        return Instance(self._facts | {f})

    def add_all(self, facts: Iterable[Fact]) -> "Instance":
        """``self ∪ facts`` - the parallel extension ``Ext`` (Def. 3.7)."""
        new = frozenset(facts) - self._facts
        if not new:
            return self
        return Instance(self._facts | new)

    def union(self, other: "Instance") -> "Instance":
        return self.add_all(other._facts)

    def difference(self, other: "Instance") -> "Instance":
        return Instance(self._facts - other._facts)

    def intersection(self, other: "Instance") -> "Instance":
        return Instance(self._facts & other._facts)

    def restrict(self, relations: Iterable[str]) -> "Instance":
        """Sub-instance containing only the named relations.

        This is the measurable projection of Remark 4.9 used to discard
        the auxiliary relations introduced by the Datalog-with-existentials
        translation.
        """
        keep = set(relations)
        return Instance(f for f in self._facts if f.relation in keep)

    def without_relations(self, relations: Iterable[str]) -> "Instance":
        """Sub-instance dropping the named relations."""
        drop = set(relations)
        return Instance(f for f in self._facts if f.relation not in drop)

    def issubset(self, other: "Instance") -> bool:
        return self._facts <= other._facts

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Instance)
                and self._hash == other._hash
                and self._facts == other._facts)

    def __hash__(self) -> int:
        return self._hash

    def sorted_facts(self) -> list[Fact]:
        """Facts in canonical order - the deterministic serialization."""
        return sorted_facts(self._facts)

    def canonical_text(self) -> str:
        """A stable text rendering; equal instances yield equal text."""
        return "{" + "; ".join(repr(f) for f in self.sorted_facts()) + "}"

    def __repr__(self) -> str:
        if len(self._facts) > 8:
            shown = ", ".join(repr(f) for f in self.sorted_facts()[:8])
            return f"Instance({shown}, ... [{len(self._facts)} facts])"
        return "Instance(" + ", ".join(
            repr(f) for f in self.sorted_facts()) + ")"

    def validate(self, schema: Schema) -> None:
        """Raise unless every fact fits ``schema``."""
        for f in self._facts:
            schema.validate_fact(f.relation, f.args)


_EMPTY = Instance(())
