"""Backward evidence propagation: feasible regions for guided conditioning.

Rejection sampling collapses on rare evidence and likelihood weighting
degenerates to a handful of effective samples - yet the deterministic
fragment of a translated GDatalog program exposes enough structure to
solve evidence *backwards*.  Given observed evidence (instance events
and/or sample-level :class:`~repro.core.observe.Observation`\\ s), this
module derives, for each existential firing that can reach the
evidence, a **feasible region** (:class:`repro.distributions.regions.
Region`): the set of values the draw must land in for the evidence to
have a chance of holding.  The batched chase then samples those draws
from the *truncated* law (:meth:`ParameterizedDistribution.
sample_batch_truncated`) with exact importance weights, turning
exponential rejection into O(1) acceptance on discrete pin sets.

Soundness rests on one invariant: every derived region is a
**necessary condition** - an over-approximation of the feasible set.
The walk only ever *weakens* constraints (dropping join conditions,
giving up on opaque events, capping recursion), never strengthens
them, so the truncated proposal's support always covers the posterior
support and self-normalized importance weighting stays law-exact.
Anything the analysis cannot prove is recorded in
:attr:`BackwardPlan.given_up` and simply not constrained; correctness
then falls to the caller's post-hoc event verification.

The derivation walks *producers* backwards:

* a goal fact over a **stable** relation (one outside the batched
  chase's growable set) either already holds in the shared closed
  instance or is impossible - stable relations never grow;
* a goal over a growable relation reaches it through some
  deterministic rule head; each producing rule contributes one or
  more **scenarios** - conjunctions ``{(aux relation, ground prefix):
  Region}`` of draw constraints - and alternative producers are
  disjuncts;
* a *companion* rule (3.B) ties the head's random position to the
  auxiliary draw: when the rest of its body is confined to stable
  relations, enumerating the matches over the closed instance grounds
  the auxiliary prefix exactly, and the head condition at the sampled
  slot becomes that firing's region.

Evidence is satisfiable iff *some* scenario is; a draw key is
constrained only when it appears in **every** scenario (with the
union of its per-scenario regions) - the necessity argument for
disjunctive evidence.  An empty scenario set short-circuits: the
evidence is unreachable and the posterior undefined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.terms import Const, Var
from repro.core.translate import DetRule, ExistentialProgram
from repro.distributions.regions import Region
from repro.engine.matching import match_atoms
from repro.pdb.events import (AndEvent, AnyValue, AtLeastEvent,
                              Condition, ContainsFactEvent,
                              CountingEvent, Equals, FactSet,
                              FactSetUnion, Interval, OneOf, OrEvent,
                              TrueEvent)
from repro.pdb.facts import Fact

#: Producer-recursion depth cap; beyond it the walk gives up (TRUE).
_MAX_DEPTH = 6
#: Cap on scenarios per disjunction/conjunction product.
_MAX_SCENARIOS = 64
#: Cap on stable-body match enumeration per companion rule.
_MAX_SOLUTIONS = 64


class _Conj(Condition):
    """Conjunction of conditions (internal: head-binding propagation)."""

    def __init__(self, parts: Sequence[Condition]):
        self.parts = tuple(parts)

    def matches(self, value: Any) -> bool:
        return all(part.matches(value) for part in self.parts)

    def __repr__(self) -> str:
        return " ∧ ".join(repr(p) for p in self.parts) or "*"


def region_from_condition(cond: Condition) -> Region | None:
    """The region a value condition denotes, or None when opaque.

    ``None`` means "no constraint derivable" - the sound default for
    :class:`~repro.pdb.events.AnyValue`, negations and unknown
    condition types.  A :class:`_Conj` intersects its representable
    parts and drops the rest (weaker, still necessary).
    """
    if isinstance(cond, Equals):
        return Region.point(cond.constant)
    if isinstance(cond, OneOf):
        return Region.pins(cond.constants)
    if isinstance(cond, Interval):
        return Region.interval(cond.low, cond.high,
                               cond.closed_left, cond.closed_right)
    if isinstance(cond, _Conj):
        region = None
        for part in cond.parts:
            sub = region_from_condition(part)
            if sub is None:
                continue
            region = sub if region is None else region.intersect(sub)
        return region
    return None


@dataclass(frozen=True)
class BackwardPlan:
    """The backward pass's output: draw regions plus diagnostics.

    ``pin_regions`` are observation-derived single-point regions keyed
    by ``(aux relation, carried values)`` - the same key
    :func:`~repro.core.observe._observation_index` uses, so guided
    pinning forces exactly the firings likelihood weighting would
    (with the pin's prior mass/density as the weight factor).
    ``event_regions`` are event-derived regions keyed by ``(aux
    relation, full ground prefix)`` - a key that identifies *one* draw
    per world, which is what makes truncating it a per-draw necessary
    condition.  ``given_up`` records every conservative weakening;
    ``satisfiable=False`` means no chase derivation can reach the
    evidence at all (conditioning is undefined).
    """

    pin_regions: dict = field(default_factory=dict)
    event_regions: dict = field(default_factory=dict)
    given_up: tuple = ()
    satisfiable: bool = True

    @property
    def regions(self) -> dict:
        """The combined lookup table for the batched engine."""
        return {**self.event_regions, **self.pin_regions}

    @property
    def n_pinned(self) -> int:
        """Regions that are finite pin sets (discrete-style)."""
        return sum(1 for region in self.regions.values()
                   if not region.intervals)

    @property
    def n_truncated(self) -> int:
        """Regions with interval parts (continuous truncations)."""
        return sum(1 for region in self.regions.values()
                   if region.intervals)


def backward_plan(translated: ExistentialProgram, closed_source,
                  growable: frozenset,
                  observations: Sequence = (),
                  events: Sequence = ()) -> BackwardPlan:
    """Propagate evidence backwards through the deterministic fragment.

    ``closed_source`` is the batched chase's fact source mirroring the
    shared deterministic fixpoint (stable relations are final there);
    ``growable`` its growable-relation set
    (:func:`~repro.analysis.capabilities.collect_growable`).
    Both are duck-typed so the module stays import-light.
    """
    notes: list[str] = []
    pin_regions: dict = {}
    if observations:
        from repro.core.observe import _observation_index
        index = _observation_index(translated, list(observations))
        pin_regions = {key: Region.point(value)
                       for key, value in index.items()}
    walker = _BackwardWalker(translated, closed_source, growable, notes)
    scenarios: list[dict] = [{}]
    for event in events:
        scenarios = _and_scenarios(scenarios,
                                   walker.event_scenarios(event), notes)
        if not scenarios:
            return BackwardPlan(pin_regions, {}, tuple(notes),
                                satisfiable=False)
    event_regions: dict = {}
    if scenarios:
        for key in scenarios[0]:
            if not all(key in scenario for scenario in scenarios[1:]):
                continue
            region = scenarios[0][key]
            for scenario in scenarios[1:]:
                region = region.union(scenario[key])
            event_regions[key] = region
    return BackwardPlan(pin_regions, event_regions, tuple(notes))


def _merge_scenarios(first: dict, second: dict) -> dict | None:
    """Conjoin two scenarios; None when a shared key's regions clash."""
    merged = dict(first)
    for key, region in second.items():
        if key in merged:
            met = merged[key].intersect(region)
            if met.is_empty:
                return None
            merged[key] = met
        else:
            merged[key] = region
    return merged


def _and_scenarios(first: list[dict], second: list[dict],
                   notes: list) -> list[dict]:
    """Cross-product conjunction of scenario lists (capped)."""
    combined: list[dict] = []
    for a in first:
        for b in second:
            merged = _merge_scenarios(a, b)
            if merged is None:
                continue
            combined.append(merged)
            if len(combined) > _MAX_SCENARIOS:
                notes.append("conjunction exceeded the scenario cap; "
                             "constraints dropped")
                return [{}]
    return combined


class _BackwardWalker:
    """One backward pass over a (translated program, closed source)."""

    def __init__(self, translated: ExistentialProgram, source,
                 growable: frozenset, notes: list):
        self.translated = translated
        self.source = source
        self.growable = growable
        self.notes = notes
        self._producers: dict[str, list[DetRule]] = {}
        for rule in translated.rules:
            if isinstance(rule, DetRule):
                self._producers.setdefault(rule.head.relation,
                                           []).append(rule)

    def _give_up(self, why: str) -> list[dict]:
        """TRUE (no constraint) with the reason recorded."""
        self.notes.append(why)
        return [{}]

    # -- event decomposition -------------------------------------------------

    def event_scenarios(self, event) -> list[dict]:
        """Scenario disjunction whose OR the event *implies*."""
        if isinstance(event, TrueEvent):
            return [{}]
        if isinstance(event, ContainsFactEvent):
            return self._fact_scenarios(event.f)
        if isinstance(event, AndEvent):
            scenarios: list[dict] = [{}]
            for part in event.parts:
                scenarios = _and_scenarios(
                    scenarios, self.event_scenarios(part), self.notes)
                if not scenarios:
                    return []
            return scenarios
        if isinstance(event, OrEvent):
            combined: list[dict] = []
            for part in event.parts:
                combined.extend(self.event_scenarios(part))
                if len(combined) > _MAX_SCENARIOS:
                    return self._give_up(
                        "disjunction exceeded the scenario cap")
            return combined
        if isinstance(event, (CountingEvent, AtLeastEvent)):
            if event.n < 1:
                # "exactly/at least zero" carries only negative
                # information; truncating towards it would not be a
                # necessary condition.
                return self._give_up(
                    f"{type(event).__name__}(n={event.n}) carries no "
                    "positive constraint")
            return self._fact_set_scenarios(event.fact_set)
        return self._give_up(
            f"opaque evidence {event!r} cannot be propagated backwards")

    def _fact_scenarios(self, f: Fact) -> list[dict]:
        if not isinstance(f, Fact):
            # e.g. ContainsFactEvent misused with a FactSet payload -
            # degrade conservatively instead of crashing the walk
            return self._give_up(
                f"fact evidence carries a non-fact payload {f!r}")
        return self._goal(f.relation,
                          tuple(Equals(arg) for arg in f.args), 0, ())

    def _fact_set_scenarios(self, fact_set) -> list[dict]:
        if isinstance(fact_set, FactSetUnion):
            combined: list[dict] = []
            for part in fact_set.parts:
                combined.extend(self._fact_set_scenarios(part))
                if len(combined) > _MAX_SCENARIOS:
                    return self._give_up(
                        "fact-set union exceeded the scenario cap")
            return combined
        if isinstance(fact_set, FactSet):
            return self._goal(fact_set.relation, fact_set.conditions,
                              0, ())
        return self._give_up(f"opaque fact set {fact_set!r}")

    # -- producer analysis ---------------------------------------------------

    def _goal(self, relation: str, conds: tuple, depth: int,
              stack: tuple) -> list[dict]:
        """Scenarios for "some fact of ``relation`` matching ``conds``
        is in the final instance"; ``[]`` means provably impossible."""
        if self._closed_match(relation, conds):
            # Already derivable without any draw: the goal imposes no
            # constraint.  (For stable relations this is complete.)
            return [{}]
        if relation not in self.growable:
            return []
        if relation in self.translated.aux_relations:
            return self._give_up(
                f"evidence reaches auxiliary relation {relation!r}")
        if depth >= _MAX_DEPTH:
            return self._give_up(
                f"backward reach through {relation!r} exceeded the "
                "depth cap")
        if relation in stack:
            return self._give_up(
                f"recursive reach through {relation!r}")
        scenarios: list[dict] = []
        for rule in self._producers.get(relation, ()):
            scenarios.extend(self._rule_scenarios(
                rule, conds, depth, stack + (relation,)))
            if len(scenarios) > _MAX_SCENARIOS:
                return self._give_up(
                    f"producers of {relation!r} exceeded the scenario "
                    "cap")
        return scenarios

    def _closed_match(self, relation: str, conds: tuple) -> bool:
        for f in self.source.facts_of(relation):
            if len(f.args) != len(conds):
                continue
            if all(cond.matches(value)
                   for cond, value in zip(conds, f.args)):
                return True
        return False

    def _rule_scenarios(self, rule: DetRule, conds: tuple, depth: int,
                        stack: tuple) -> list[dict]:
        """Scenarios under which ``rule`` produces a matching fact."""
        head = rule.head
        if len(head.terms) != len(conds):
            return []
        binding_conds: dict[Var, list] = {}
        for term, cond in zip(head.terms, conds):
            if isinstance(term, Const):
                if not cond.matches(term.value):
                    return []
            elif isinstance(term, Var):
                binding_conds.setdefault(term, []).append(cond)
            else:
                return self._give_up(
                    f"unexpected head term {term!r} in {rule!r}")
        eq_binding: dict[Var, Any] = {}
        for var, cond_list in binding_conds.items():
            values = [c.constant for c in cond_list
                      if isinstance(c, Equals)]
            if not values:
                continue
            value = values[0]
            if any(other != value for other in values[1:]):
                return []
            if not all(c.matches(value) for c in cond_list):
                return []
            eq_binding[var] = value
        aux_atoms = [atom for atom in rule.body
                     if atom.relation in self.translated.aux_relations]
        if aux_atoms:
            if len(aux_atoms) > 1:
                return self._give_up(
                    f"rule {rule!r} joins several auxiliary atoms")
            return self._companion_scenarios(
                rule, aux_atoms[0], conds, binding_conds, eq_binding,
                depth, stack)
        return self._body_scenarios(rule.body, binding_conds,
                                    eq_binding, depth, stack)

    def _atom_conditions(self, atom, binding_conds: dict,
                         ) -> tuple | None:
        """Per-position conditions a body atom inherits from the head."""
        conds: list[Condition] = []
        for term in atom.terms:
            if isinstance(term, Const):
                conds.append(Equals(term.value))
            elif isinstance(term, Var):
                bound = binding_conds.get(term)
                conds.append(_Conj(bound) if bound else _ANY)
            else:
                return None
        return tuple(conds)

    def _body_scenarios(self, atoms, binding_conds: dict,
                        eq_binding: dict, depth: int,
                        stack: tuple) -> list[dict]:
        """Conjoin the body atoms as independent reachability subgoals.

        Cross-atom join constraints beyond equality-ground variables
        are deliberately ignored - dropping a conjunct only weakens
        the derived condition, which keeps it necessary.
        """
        scenarios: list[dict] = [{}]
        for atom in atoms:
            sub_conds = self._atom_conditions(atom, binding_conds)
            if sub_conds is None:
                return self._give_up(
                    f"opaque body atom {atom!r}")
            sub = self._goal(atom.relation, sub_conds, depth + 1, stack)
            if not sub:
                return []
            scenarios = _and_scenarios(scenarios, sub, self.notes)
            if not scenarios:
                return []
        return scenarios

    def _companion_scenarios(self, rule: DetRule, aux_atom,
                             conds: tuple, binding_conds: dict,
                             eq_binding: dict, depth: int,
                             stack: tuple) -> list[dict]:
        """Scenarios for a (3.B) companion producing the goal fact.

        The head condition at the existential slot becomes the draw's
        region; the rest of the body, when confined to stable
        relations, is enumerated against the closed instance to ground
        the auxiliary prefix exactly (one scenario per match - each
        match is an alternative firing, so alternatives stay
        disjuncts and the necessity argument survives).
        """
        existential = aux_atom.terms[-1]
        draw_conds = [cond for term, cond in zip(rule.head.terms, conds)
                      if term == existential]
        region = region_from_condition(_Conj(draw_conds)) \
            if draw_conds else None
        if region is not None and region.is_empty:
            return []
        rest = [atom for atom in rule.body if atom is not aux_atom]
        if region is None \
                or any(atom.relation in self.growable for atom in rest):
            # Either no draw condition is representable, or the
            # companion body reaches growable relations (the stable
            # enumeration below would be incomplete).  Keep the
            # reachability subgoals, drop the draw constraint.
            if region is not None:
                self.notes.append(
                    f"dropped draw constraint on {aux_atom.relation!r}:"
                    " companion body reaches growable relations")
            return self._body_scenarios(rest, binding_conds,
                                        eq_binding, depth, stack)
        scenarios: list[dict] = []
        restricted = {var: value for var, value in eq_binding.items()
                      if var != existential}
        for count, solution in enumerate(
                match_atoms(rest, self.source, restricted)):
            if count >= _MAX_SOLUTIONS:
                return self._give_up(
                    f"companion matches of {aux_atom.relation!r} "
                    "exceeded the solution cap")
            if not self._solution_admissible(solution, binding_conds,
                                             existential):
                continue
            prefix = self._ground_prefix(aux_atom, solution, eq_binding)
            if prefix is None:
                # Reachable, but the firing is not identified: the
                # goal holds without constraining any single draw.
                scenarios.append({})
            else:
                scenarios.append({(aux_atom.relation, prefix): region})
            if len(scenarios) > _MAX_SCENARIOS:
                return self._give_up(
                    f"companion matches of {aux_atom.relation!r} "
                    "exceeded the scenario cap")
        return scenarios

    @staticmethod
    def _solution_admissible(solution: dict, binding_conds: dict,
                             existential) -> bool:
        """Whether a body match satisfies the non-equality head conds."""
        for var, cond_list in binding_conds.items():
            if var == existential or var not in solution:
                continue
            value = solution[var]
            if not all(cond.matches(value) for cond in cond_list):
                return False
        return True

    @staticmethod
    def _ground_prefix(aux_atom, solution: dict,
                       eq_binding: dict) -> tuple | None:
        """The fully ground auxiliary prefix, or None if underivable."""
        prefix: list = []
        for term in aux_atom.terms[:-1]:
            if isinstance(term, Const):
                prefix.append(term.value)
            elif isinstance(term, Var):
                if term in solution:
                    prefix.append(solution[term])
                elif term in eq_binding:
                    prefix.append(eq_binding[term])
                else:
                    return None
            else:
                return None
        return tuple(prefix)


_ANY = AnyValue()
