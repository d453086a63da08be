"""Rule applicability: the multifunction ``App`` (Section 3.3).

A pair ``(φ̂, ā)`` is applicable in ``D`` when ``D ⊨ φ̂_b(ā)`` and
``D ⊭ φ̂_h(ā)`` - the body holds but the (possibly existential) head
does not.  ``App(D)`` is the finite set of applicable pairs; measurable
selections of ``App`` are the chase policies of
:mod:`repro.core.policies`.

**Keying of pairs.**  We identify an applicable pair by the *ground
instantiation of its head*: for a deterministic rule the head fact, for
an existential rule the auxiliary relation plus the ground prefix
(carried head values + parameters).  Body valuations that differ only
in projected-away variables collapse to one :class:`Firing`.  This
matches the paper's usage (Section 3.4 takes the head to contain
exactly the rule's free variables) and is what makes the induced
functional dependencies (Lemma 3.10) and sequential/parallel
equivalence (Theorem 6.1) hold for the parallel chase, where all
applicable pairs fire simultaneously with independent samples: distinct
firings have distinct auxiliary prefixes by construction.

Three engines compute ``App``:

* :class:`NaiveApplicability` re-evaluates every rule body per call -
  simple and obviously correct;
* :class:`IncrementalApplicability` maintains the applicable set across
  fact insertions (delta matching for new candidates, head-satisfaction
  removal) - the engine the chase actually uses.  Agreement of the two
  is property-tested; the speedup is measured in experiment E13;
* :class:`OverlayApplicability` layers a copy-on-write delta over a
  *frozen* :class:`IncrementalApplicability` - forking costs O(delta)
  instead of O(instance), which is what the batched chase's
  per-signature-group forks ride on.

``fork()`` is part of the engine interface proper: every engine
produces an independent copy whose mutations never leak into the
original or into sibling forks (property-tested across all three
engines in ``tests/test_applicability.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.translate import (DetRule, ExistentialProgram, ExtRule,
                                  TranslatedRule)
from repro.engine.matching import (IndexedSource, OverlaySource,
                                   match_atoms, match_atoms_with_pinned)
from repro.ordering import tuple_sort_key
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


@dataclass(frozen=True)
class Firing:
    """One applicable pair, keyed by its ground head instantiation.

    ``relation`` is the head relation (deterministic rules) or the
    auxiliary relation (existential rules); ``values`` the ground head
    arguments (deterministic) or the auxiliary prefix (existential).
    ``rule_index`` records the lowest-index translated rule producing
    this firing (deterministic tie-breaking only - the firing's effect
    is fully determined by ``relation``/``values``/``existential``).
    """

    rule_index: int
    relation: str
    values: tuple
    existential: bool

    def key(self) -> tuple:
        """Identity of the pair (excludes the representative index)."""
        return (self.existential, self.relation, self.values)

    def sort_key(self) -> tuple:
        """Canonical deterministic order used by policies."""
        return (self.rule_index, self.relation,
                tuple_sort_key(self.values))

    def fact(self, sampled=None) -> Fact:
        """The fact this firing adds (existential firings need a sample)."""
        if self.existential:
            return Fact(self.relation, self.values + (sampled,))
        return Fact(self.relation, self.values)

    def __repr__(self) -> str:
        kind = "∃" if self.existential else " "
        return f"Firing{kind}({self.relation}{self.values!r})"


class ApplicabilityEngine:
    """Interface: compute/maintain ``App(D)`` for a translated program."""

    def __init__(self, translated: ExistentialProgram):
        self.translated = translated

    def applicable(self) -> list[Firing]:
        """Current applicable firings in canonical order."""
        raise NotImplementedError

    def add_fact(self, f: Fact) -> None:
        """Advance the underlying instance by one fact."""
        raise NotImplementedError

    def fork(self) -> "ApplicabilityEngine":
        """An independent copy of the engine state.

        Mutating the fork (``add_fact``) must never affect the original
        engine or any sibling fork, and vice versa - exact enumeration
        branches states on this, and the batched chase forks one engine
        per signature group per round.
        """
        raise NotImplementedError


def _firing_of(rule: TranslatedRule, binding) -> Firing:
    if isinstance(rule, ExtRule):
        return Firing(rule.index, rule.aux_relation,
                      rule.prefix_values(binding), True)
    assert isinstance(rule, DetRule)
    head_fact = rule.head_fact(binding)
    return Firing(rule.index, head_fact.relation, head_fact.args, False)


def _head_satisfied(firing: Firing, fact_set: set[Fact],
                    aux_prefixes: dict[str, set[tuple]]) -> bool:
    if firing.existential:
        prefixes = aux_prefixes.get(firing.relation)
        return prefixes is not None and firing.values in prefixes
    return Fact(firing.relation, firing.values) in fact_set


def _collect_aux_prefixes(translated: ExistentialProgram,
                          facts: Iterable[Fact],
                          ) -> dict[str, set[tuple]]:
    prefixes: dict[str, set[tuple]] = {}
    for f in facts:
        if f.relation in translated.aux_relations:
            prefixes.setdefault(f.relation, set()).add(f.args[:-1])
    return prefixes


class NaiveApplicability(ApplicabilityEngine):
    """Reference engine: full recomputation of ``App`` on demand."""

    def __init__(self, translated: ExistentialProgram,
                 instance: Instance):
        super().__init__(translated)
        self._facts: set[Fact] = set(instance.facts)

    def add_fact(self, f: Fact) -> None:
        self._facts.add(f)

    def instance(self) -> Instance:
        return Instance(self._facts)

    def applicable(self) -> list[Firing]:
        source = IndexedSource(self._facts)
        aux_prefixes = _collect_aux_prefixes(self.translated, self._facts)
        found: dict[tuple, Firing] = {}
        for rule in self.translated.rules:
            for binding in match_atoms(rule.body, source):
                firing = _firing_of(rule, binding)
                if _head_satisfied(firing, self._facts, aux_prefixes):
                    continue
                key = firing.key()
                existing = found.get(key)
                if existing is None or firing.rule_index < \
                        existing.rule_index:
                    found[key] = firing
        return sorted(found.values(), key=Firing.sort_key)

    def fork(self) -> "NaiveApplicability":
        copy = NaiveApplicability.__new__(NaiveApplicability)
        ApplicabilityEngine.__init__(copy, self.translated)
        copy._facts = set(self._facts)
        return copy


class IncrementalApplicability(ApplicabilityEngine):
    """Delta-maintained ``App``: the chase's production engine.

    Soundness relies on Datalog monotonicity: bodies once satisfied stay
    satisfied (facts are only added), and heads once satisfied stay
    satisfied.  Hence the applicable set changes only by (a) removal
    when a new fact satisfies a firing's head, and (b) insertion of
    firings whose body match uses the new fact.
    """

    def __init__(self, translated: ExistentialProgram,
                 instance: Instance,
                 source: IndexedSource | None = None):
        super().__init__(translated)
        # A caller that already indexed the instance (e.g. the batched
        # chase, whose shared fixpoint hands back its warm source) may
        # pass it in; it must mirror ``instance`` exactly and is owned
        # by the engine afterwards.  The check is by *content*, not
        # count: a same-size but content-mismatched source would be
        # accepted by a length test and silently corrupt every body
        # match of the chase.
        if source is not None:
            if len(source) != len(instance) \
                    or any(f not in source for f in instance.facts):
                raise ValueError(
                    f"prebuilt source disagrees with the instance: "
                    f"{len(source)} source facts vs {len(instance)} "
                    "instance facts, or differing content")
        self._source = source if source is not None \
            else IndexedSource(instance.facts)
        self._fact_set: set[Fact] = set(instance.facts)
        self._aux_prefixes = _collect_aux_prefixes(translated,
                                                   instance.facts)
        # body-relation -> [(rule, body position)]
        self._dispatch: dict[str, list[tuple[TranslatedRule, int]]] = {}
        for rule in translated.rules:
            for position, body_atom in enumerate(rule.body):
                self._dispatch.setdefault(body_atom.relation, []).append(
                    (rule, position))
        self._applicable: dict[tuple, Firing] = {}
        self._bootstrap()

    def _bootstrap(self) -> None:
        for rule in self.translated.rules:
            for binding in match_atoms(rule.body, self._source):
                self._consider(_firing_of(rule, binding))

    def _consider(self, firing: Firing) -> None:
        if _head_satisfied(firing, self._fact_set, self._aux_prefixes):
            return
        key = firing.key()
        existing = self._applicable.get(key)
        if existing is None or firing.rule_index < existing.rule_index:
            self._applicable[key] = firing

    def add_fact(self, f: Fact) -> None:
        if f in self._fact_set:
            return
        self._fact_set.add(f)
        self._source.add_fact(f)
        # (a) head satisfaction: retire firings this fact settles.
        if f.relation in self.translated.aux_relations:
            prefix = f.args[:-1]
            self._aux_prefixes.setdefault(f.relation, set()).add(prefix)
            self._applicable.pop((True, f.relation, prefix), None)
        self._applicable.pop((False, f.relation, f.args), None)
        # (b) new body matches pinned on the new fact.
        for rule, position in self._dispatch.get(f.relation, ()):
            for binding in match_atoms_with_pinned(
                    rule.body, self._source, position, f):
                self._consider(_firing_of(rule, binding))

    def retire_existential(self, relation: str, prefix: tuple) -> None:
        """Mark an existential firing's head as satisfied *abstractly*.

        Registers the auxiliary prefix (so the firing leaves the
        applicable set and never re-enters) without inserting a
        concrete auxiliary fact.  The batched chase uses this for layer
        firings whose sampled value varies across the worlds of a
        group: the prefix - the head identity of the pair, Section
        3.3's keying - is shared, while the fact itself is not.
        """
        self._aux_prefixes.setdefault(relation, set()).add(prefix)
        self._applicable.pop((True, relation, prefix), None)

    def applicable(self) -> list[Firing]:
        return sorted(self._applicable.values(), key=Firing.sort_key)

    def has_applicable(self) -> bool:
        return bool(self._applicable)

    def instance(self) -> Instance:
        return Instance(self._fact_set)

    @property
    def source(self):
        """The engine's fact source (read access for body matching).

        The batched chase matches Bárány companion bodies against the
        engine's current source; callers must not mutate it directly.
        """
        return self._source

    def fork(self) -> "IncrementalApplicability":
        copy = IncrementalApplicability.__new__(IncrementalApplicability)
        ApplicabilityEngine.__init__(copy, self.translated)
        copy._source = IndexedSource(self._fact_set)
        copy._fact_set = set(self._fact_set)
        copy._aux_prefixes = {name: set(prefixes) for name, prefixes
                              in self._aux_prefixes.items()}
        copy._dispatch = self._dispatch  # immutable after init
        copy._applicable = dict(self._applicable)
        return copy


class _LayeredFactSet:
    """Set-like view: a frozen base fact set plus a private delta.

    Supports exactly what :class:`IncrementalApplicability`'s hot loop
    needs (membership, add, iteration, len); the layers stay disjoint
    because :meth:`add` refuses base facts.
    """

    __slots__ = ("_base", "_delta")

    def __init__(self, base, delta: set):
        self._base = base
        self._delta = delta

    def __contains__(self, f: Fact) -> bool:
        return f in self._delta or f in self._base

    def add(self, f: Fact) -> None:
        if f not in self._base:
            self._delta.add(f)

    def __iter__(self) -> Iterator[Fact]:
        yield from self._base
        yield from self._delta

    def __len__(self) -> int:
        return len(self._base) + len(self._delta)


class OverlayApplicability(IncrementalApplicability):
    """A copy-on-write fork of a *frozen* incremental engine.

    ``IncrementalApplicability.fork()`` re-indexes the whole fact set -
    O(instance) per fork, which dominated the batched chase's
    per-signature-group setup on large closed instances.  An overlay
    instead shares the parent's indexes through an
    :class:`~repro.engine.matching.OverlaySource` and keeps its own
    additions in a delta layer, so construction and :meth:`fork` cost
    O(delta + |App| + aux prefixes) - independent of the closed
    instance's size.

    **Contract:** the parent engine must not gain facts while any
    overlay of it is alive (the batched chase freezes its base engine
    by construction - rounds always fork).  Lazy index materialization
    inside the parent's source is fine; it does not change logical
    content.  Overlays fork into sibling overlays over the *same*
    frozen parent, never into chains, so lookup depth stays constant
    across cascade rounds.
    """

    def __init__(self, parent: IncrementalApplicability):
        ApplicabilityEngine.__init__(self, parent.translated)
        if isinstance(parent, OverlayApplicability):
            # Flatten: overlay an overlay by copying its delta rather
            # than stacking lookup layers.
            self._parent_facts = parent._parent_facts
            self._delta = set(parent._delta)
            self._source = parent._source.fork()
        else:
            self._parent_facts = parent._fact_set
            self._delta = set()
            self._source = OverlaySource(parent._source)
        self._fact_set = _LayeredFactSet(self._parent_facts, self._delta)
        # Aux-prefix sets and the applicable map are small (one entry
        # per pending/settled existential firing); plain copies keep
        # the parent untouchable without copy-on-write bookkeeping.
        self._aux_prefixes = {name: set(prefixes) for name, prefixes
                              in parent._aux_prefixes.items()}
        self._applicable = dict(parent._applicable)
        self._dispatch = parent._dispatch  # immutable after init

    def fork(self) -> "OverlayApplicability":
        """A sibling overlay over the same frozen parent (O(delta))."""
        return OverlayApplicability(self)

    def instance(self) -> Instance:
        return Instance(iter(self._fact_set))


def overlay_fork(engine: IncrementalApplicability,
                 ) -> OverlayApplicability:
    """The cheapest independent fork of an incremental-family engine.

    Overlays fork as overlays; a plain (frozen-from-now-on)
    :class:`IncrementalApplicability` is wrapped without copying its
    indexes.  The caller asserts the base engine will not be mutated
    for as long as the fork lives.
    """
    return OverlayApplicability(engine)


def applicable_pairs(translated: ExistentialProgram,
                     instance: Instance) -> list[Firing]:
    """One-shot ``App(D)`` (naive engine)."""
    return NaiveApplicability(translated, instance).applicable()
