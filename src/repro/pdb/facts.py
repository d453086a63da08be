"""Facts: ground atoms ``R(a_1, ..., a_n)`` over a schema.

The set of facts ``F_S`` over a schema ``S`` is a standard Borel space
(Section 2.3): the disjoint union, over relation symbols ``R``, of the
product of ``R``'s attribute domains.  A :class:`Fact` is a point of
this space; :class:`repro.pdb.events.FactSet` describes its measurable
subsets.

Facts are immutable, hashable and totally ordered (via the canonical
value order of :mod:`repro.ordering`), so they can live in frozensets
(instances), serve as dictionary keys (exact SPDBs) and be enumerated
deterministically (chase policies).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import SchemaError
from repro.ordering import tuple_sort_key, value_sort_key


def normalize_value(value: Any) -> Any:
    """Normalize attribute values to canonical Python representatives.

    Booleans become ints (``True`` -> 1) so that a ``Flip`` sample and an
    integer constant ``1`` denote the same point of the attribute domain,
    matching the paper's untyped treatment where ``Flip`` samples live in
    ``{0, 1}``.  Integral floats stay floats: ``1.0`` and ``1`` hash
    equal in Python, which is exactly the identification we want.
    """
    if isinstance(value, bool):
        return int(value)
    return value


class Fact:
    """An immutable ground fact ``relation(args)``.

    >>> Fact("R", (1, "x"))
    R(1, 'x')
    """

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: str, args: Iterable[Any]):
        if not relation:
            raise SchemaError("fact relation name must be non-empty")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args",
                           tuple(normalize_value(a) for a in args))
        object.__setattr__(self, "_hash", hash((relation, self.args)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Fact is immutable")

    def __reduce__(self) -> tuple:
        # Slotted + immutable: default unpickling would go through
        # __setattr__; reconstruct through the constructor instead so
        # facts (and the instances and columnar results holding them)
        # round-trip through pickle.
        return (Fact, (self.relation, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Fact)
                and self._hash == other._hash
                and self.relation == other.relation
                and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """Deterministic total order: by relation name, then args."""
        return (self.relation, tuple_sort_key(self.args))

    def __lt__(self, other: "Fact") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"

    def replace(self, position: int, value: Any) -> "Fact":
        """A copy of this fact with one argument substituted."""
        args = list(self.args)
        args[position] = value
        return Fact(self.relation, args)


def fact(relation: str, *args: Any) -> Fact:
    """Convenience constructor: ``fact("R", 1, "x")``."""
    return Fact(relation, args)


def sorted_facts(facts: Iterable[Fact]) -> list[Fact]:
    """Facts in the canonical deterministic order."""
    return sorted(facts, key=Fact.sort_key)


__all__ = ["Fact", "fact", "normalize_value", "sorted_facts",
           "value_sort_key"]
