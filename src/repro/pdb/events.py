"""Measurable fact sets and the counting events generating the PDB σ-algebra.

Section 2.3: the σ-algebra ``D`` on the space of instances is generated
by *counting events* ``C(F, n)`` - the set of instances containing
exactly ``n`` facts from a measurable set of facts ``F``.  This module
provides:

* :class:`Condition` trees describing measurable subsets of a single
  attribute domain (equality, finite sets, intervals, negation, ...),
* :class:`FactSet` - a measurable set of facts: a relation name plus a
  condition per position (or a union of such blocks),
* :class:`Event` combinators - :class:`CountingEvent` ``C(F, n)``,
  boolean algebra (:class:`AndEvent`, :class:`OrEvent`,
  :class:`NotEvent`), and threshold variants ``|D ∩ F| >= n`` which are
  countable unions of counting events,
* :data:`EventLike` - the instance evidence that conditioning takes
  (an event or a predicate on instances) - with :func:`as_predicate`
  and :func:`conjunction` to evaluate it on one instance.

Events are *predicates on instances* here, but their structured form
mirrors the generators of the σ-algebra: every event built from these
combinators denotes a measurable set of the paper's instance space.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import MeasureError
from repro.pdb.facts import Fact, normalize_value
from repro.pdb.instances import Instance


# ---------------------------------------------------------------------------
# Conditions on a single attribute value (measurable subsets of a domain)
# ---------------------------------------------------------------------------

class Condition:
    """A measurable subset of one attribute domain."""

    def matches(self, value: Any) -> bool:
        raise NotImplementedError

    def __call__(self, value: Any) -> bool:
        return self.matches(value)


class AnyValue(Condition):
    """The whole domain."""

    def matches(self, value: Any) -> bool:
        return True

    def __repr__(self) -> str:
        return "*"


class Equals(Condition):
    """The singleton ``{constant}``."""

    def __init__(self, constant: Any):
        self.constant = normalize_value(constant)

    def matches(self, value: Any) -> bool:
        return normalize_value(value) == self.constant

    def __repr__(self) -> str:
        return f"={self.constant!r}"


class OneOf(Condition):
    """A finite set of constants."""

    def __init__(self, constants: Iterable[Any]):
        self.constants = frozenset(normalize_value(c) for c in constants)

    def matches(self, value: Any) -> bool:
        return normalize_value(value) in self.constants

    def __repr__(self) -> str:
        return f"∈{set(self.constants)!r}"


class Interval(Condition):
    """A real interval with configurable endpoint closure.

    ``Interval(0, 1)`` is the closed interval ``[0, 1]``;
    ``Interval(0, 1, closed_left=False)`` is ``(0, 1]``; infinite
    endpoints give rays.
    """

    def __init__(self, low: float = float("-inf"),
                 high: float = float("inf"),
                 closed_left: bool = True, closed_right: bool = True):
        if low > high:
            raise MeasureError("interval with low > high is empty; "
                               "use NothingValue instead")
        self.low = float(low)
        self.high = float(high)
        self.closed_left = closed_left
        self.closed_right = closed_right

    def matches(self, value: Any) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        x = float(value)
        if self.closed_left:
            if x < self.low:
                return False
        elif x <= self.low:
            return False
        if self.closed_right:
            if x > self.high:
                return False
        elif x >= self.high:
            return False
        return True

    def __repr__(self) -> str:
        left = "[" if self.closed_left else "("
        right = "]" if self.closed_right else ")"
        return f"{left}{self.low}, {self.high}{right}"


class NotCondition(Condition):
    """Relative complement of a condition."""

    def __init__(self, inner: Condition):
        self.inner = inner

    def matches(self, value: Any) -> bool:
        return not self.inner.matches(value)

    def __repr__(self) -> str:
        return f"¬{self.inner!r}"


def as_condition(spec: Any) -> Condition:
    """Coerce a literal or condition into a :class:`Condition`.

    ``None`` means "any value"; bare constants mean equality; iterables
    of constants mean membership.
    """
    if isinstance(spec, Condition):
        return spec
    if spec is None:
        return AnyValue()
    if isinstance(spec, (set, frozenset, list)):
        return OneOf(spec)
    return Equals(spec)


# ---------------------------------------------------------------------------
# Measurable sets of facts
# ---------------------------------------------------------------------------

class FactSet:
    """A measurable set of facts over one relation.

    ``FactSet("R", 1, None)`` denotes all facts ``R(1, y)``;
    ``FactSet("Height", None, Interval(150, 200))`` denotes height facts
    with value in ``[150, 200]``.  Use :meth:`union` for multi-relation
    fact sets (the disjoint-union structure of the fact space).
    """

    def __init__(self, relation: str, *conditions: Any):
        self.relation = relation
        self.conditions = tuple(as_condition(c) for c in conditions)

    def contains(self, f: Fact) -> bool:
        if f.relation != self.relation:
            return False
        if len(self.conditions) != len(f.args):
            return False
        return all(cond.matches(value)
                   for cond, value in zip(self.conditions, f.args))

    def count_in(self, instance: Instance) -> int:
        """``|D ∩ F|`` - how many facts of ``instance`` lie in this set."""
        return sum(1 for f in instance.facts_of(self.relation)
                   if self.contains(f))

    def union(self, other: "FactSetLike") -> "FactSetUnion":
        return FactSetUnion([self, other])

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.conditions)
        return f"FactSet({self.relation}({inner}))"


class FactSetUnion:
    """A finite union of :class:`FactSet` blocks (possibly many relations)."""

    def __init__(self, parts: Iterable["FactSetLike"]):
        flattened: list[FactSet] = []
        for part in parts:
            if isinstance(part, FactSetUnion):
                flattened.extend(part.parts)
            elif isinstance(part, FactSet):
                flattened.append(part)
            else:
                raise MeasureError(f"not a fact set: {part!r}")
        self.parts = tuple(flattened)

    def contains(self, f: Fact) -> bool:
        return any(part.contains(f) for part in self.parts)

    def count_in(self, instance: Instance) -> int:
        # A fact may satisfy several blocks; count each fact once.
        return sum(1 for f in instance.facts if self.contains(f))

    def union(self, other: "FactSetLike") -> "FactSetUnion":
        return FactSetUnion([self, other])

    def __repr__(self) -> str:
        return " ∪ ".join(repr(p) for p in self.parts)


FactSetLike = FactSet | FactSetUnion


def single_fact_set(f: Fact) -> FactSet:
    """The singleton fact set ``{f}``."""
    return FactSet(f.relation, *[Equals(a) for a in f.args])


# ---------------------------------------------------------------------------
# Events: measurable sets of instances
# ---------------------------------------------------------------------------

class Event:
    """A measurable set of database instances."""

    def contains(self, instance: Instance) -> bool:
        raise NotImplementedError

    def __call__(self, instance: Instance) -> bool:
        return self.contains(instance)

    def __and__(self, other: "Event") -> "Event":
        return AndEvent([self, other])

    def __or__(self, other: "Event") -> "Event":
        return OrEvent([self, other])

    def __invert__(self) -> "Event":
        return NotEvent(self)


class CountingEvent(Event):
    """``C(F, n)``: instances with exactly ``n`` facts from ``F``.

    These are the generators of the instance σ-algebra (Section 2.3).
    """

    def __init__(self, fact_set: FactSetLike, n: int):
        if n < 0:
            raise MeasureError("counting events need n >= 0")
        self.fact_set = fact_set
        self.n = n

    def contains(self, instance: Instance) -> bool:
        return self.fact_set.count_in(instance) == self.n

    def __repr__(self) -> str:
        return f"C({self.fact_set!r}, {self.n})"


class AtLeastEvent(Event):
    """``|D ∩ F| >= n`` - a countable union of counting events."""

    def __init__(self, fact_set: FactSetLike, n: int):
        if n < 0:
            raise MeasureError("threshold events need n >= 0")
        self.fact_set = fact_set
        self.n = n

    def contains(self, instance: Instance) -> bool:
        return self.fact_set.count_in(instance) >= self.n

    def __repr__(self) -> str:
        return f"C≥({self.fact_set!r}, {self.n})"


class ContainsFactEvent(Event):
    """Instances containing a specific ground fact."""

    def __init__(self, f: Fact):
        self.f = f

    def contains(self, instance: Instance) -> bool:
        return self.f in instance

    def __repr__(self) -> str:
        return f"Contains({self.f!r})"


class AndEvent(Event):
    def __init__(self, parts: Iterable[Event]):
        self.parts = tuple(parts)

    def contains(self, instance: Instance) -> bool:
        return all(p.contains(instance) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(p) for p in self.parts) + ")"


class OrEvent(Event):
    def __init__(self, parts: Iterable[Event]):
        self.parts = tuple(parts)

    def contains(self, instance: Instance) -> bool:
        return any(p.contains(instance) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(p) for p in self.parts) + ")"


class NotEvent(Event):
    def __init__(self, inner: Event):
        self.inner = inner

    def contains(self, instance: Instance) -> bool:
        return not self.inner.contains(instance)

    def __repr__(self) -> str:
        return f"¬{self.inner!r}"


class TrueEvent(Event):
    """The whole instance space."""

    def contains(self, instance: Instance) -> bool:
        return True

    def __repr__(self) -> str:
        return "⊤"


class PredicateEvent(Event):
    """An event given by an arbitrary Python predicate.

    Escape hatch: the predicate must denote a measurable set for the
    semantics to be meaningful, which the library cannot verify.  All
    built-in combinators above are measurable by construction; prefer
    them when possible.
    """

    def __init__(self, predicate, description: str = "predicate"):
        self.predicate = predicate
        self.description = description

    def contains(self, instance: Instance) -> bool:
        return bool(self.predicate(instance))

    def __repr__(self) -> str:
        return f"Event<{self.description}>"


#: Instance evidence: an :class:`Event`, or a predicate on instances
#: (which must denote a measurable set, as :class:`PredicateEvent`'s).
EventLike = Event | Callable[[Instance], bool]


def as_predicate(event: EventLike) -> Callable[[Instance], bool]:
    """The membership test of one event or predicate."""
    if isinstance(event, Event):
        return event.contains
    if callable(event):
        return event
    raise TypeError(f"not an event: {event!r}")


def conjunction(events: Sequence[EventLike],
                ) -> Callable[[Instance], bool]:
    """The membership test of the intersection of ``events``."""
    predicates = [as_predicate(event) for event in events]
    return lambda instance: all(p(instance) for p in predicates)
