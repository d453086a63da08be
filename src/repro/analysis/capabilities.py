"""Static capability prediction: which fast paths a program can take.

Every fast path this repository built is gated by *structural*
properties of the translated program: the batched backend needs weak
acyclicity and well-formed companion heads, Bárány companion batching
needs stable companion rests, streaming observation forcing needs a
provably trigger-free sample relation, guided conditioning needs a
backward-walkable derivation, and columnar query lifting needs stable
scanned relations.  At runtime these surface as
``diagnostics["fallback_reason"]`` / :class:`~repro.api.stream.
StreamingUnsupported` / scalar declines.

:func:`capability_report` decides all of them statically - per
program, and per rule with the blocking reason - so callers can
explain why a program will fall back before a single world is
sampled.  Predictions are *sound* in the direction the
``static-dynamic`` fuzz oracle asserts: eligibility claims are
conservative (a predicted-eligible program must not decline at
runtime; an ineligible prediction may still occasionally succeed).

The batched capability is not a prediction but the gate itself.
:func:`batch_defects` lists every structural reason the batched chase
declines a program: :class:`repro.engine.batched.BatchedChase` raises
its first one, and :meth:`repro.api.session.Session._batch_refusal`
answers every Monte-Carlo verb from the report's reasons, so the
report's reason *is* the runtime reason.  :func:`collect_growable`
and :func:`collect_companions` are shared the same way.  The other
capabilities restate, statically, decisions made in
:mod:`repro.engine.batched` and :func:`repro.core.backward.
backward_plan`; each docstring names its runtime twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.termination import (TerminationReport,
                                    analyze_termination)
from repro.core.terms import Const, Var
from repro.core.translate import (DetRule, ExistentialProgram, ExtRule)
from repro.errors import DistributionError

STABLE, GROWABLE = "stable", "growable"


@dataclass(frozen=True)
class Capability:
    """One predicted capability: eligible, or why not.

    ``reasons`` is non-empty exactly when ``eligible`` is False;
    ``notes`` carries caveats that do not block eligibility (e.g. how
    the config meets it).
    ``detail`` is a per-relation / per-rule breakdown.
    """

    name: str
    eligible: bool
    reasons: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "eligible": self.eligible,
            "reasons": list(self.reasons),
            "notes": list(self.notes),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class RuleCapability:
    """Per source rule: is it batchable / guidable, and if not, why."""

    rule_index: int
    head_relation: str
    random: bool
    batched: bool
    blocking: str = ""
    guided_reachable: bool | None = None
    guided_blocking: str = ""

    def to_json(self) -> dict:
        return {
            "rule": self.rule_index,
            "head": self.head_relation,
            "random": self.random,
            "batched": self.batched,
            "blocking": self.blocking,
            "guided_reachable": self.guided_reachable,
            "guided_blocking": self.guided_blocking,
        }


@dataclass(frozen=True)
class CapabilityReport:
    """The full static capability frontier of one translated program."""

    semantics: str
    weakly_acyclic: bool
    batched: Capability
    pooled_draws: Capability
    barany_batching: Capability
    streaming_observations: Capability
    guided_conditioning: Capability
    columnar_lift: Capability
    rules: tuple[RuleCapability, ...] = ()
    stable_relations: frozenset = frozenset()
    growable_relations: frozenset = frozenset()

    def capabilities(self) -> tuple[Capability, ...]:
        return (self.batched, self.pooled_draws, self.barany_batching,
                self.streaming_observations, self.guided_conditioning,
                self.columnar_lift)

    def to_json(self) -> dict:
        return {
            "semantics": self.semantics,
            "weakly_acyclic": self.weakly_acyclic,
            "capabilities": {capability.name: capability.to_json()
                             for capability in self.capabilities()},
            "stable_relations": sorted(self.stable_relations),
            "growable_relations": sorted(self.growable_relations),
            "rules": [rule.to_json() for rule in self.rules],
        }

    def summary(self) -> str:
        verdicts = ", ".join(
            f"{capability.name}={'yes' if capability.eligible else 'no'}"
            for capability in self.capabilities())
        return f"capabilities[{self.semantics}]: {verdicts}"


# ---------------------------------------------------------------------------
# Structural analyses shared with the engine, and the batch gate
# ---------------------------------------------------------------------------

def collect_growable(translated: ExistentialProgram) -> frozenset:
    """Relations that may gain facts after the shared fixpoint.

    Seeded with the auxiliary relations (every layer firing adds one)
    and closed under rule heads whose bodies touch a growable
    relation; the complement (the *stable* relations) can never gain
    a fact after the shared deterministic fixpoint, in any world -
    which licenses the batched chase's semi-join pruning against the
    closed instance.
    """
    growable = set(translated.aux_relations)
    changed = True
    while changed:
        changed = False
        for rule in translated.rules:
            head = rule.head.relation if isinstance(rule, DetRule) \
                else rule.aux_relation
            if head in growable:
                continue
            if any(atom.relation in growable for atom in rule.body):
                growable.add(head)
                changed = True
    return frozenset(growable)


def rounds_compose(translated: ExistentialProgram,
                   growable: frozenset | None = None) -> bool:
    """Whether every cascade round is the union of one-trigger rounds.

    True when no rule body joins two atoms over growable relations
    (``growable`` defaults to :func:`collect_growable`).  Datalog is
    monotone, so every fact a cascade round derives then follows from
    one trigger alone, and the batched chase may build a round from
    the rounds its single triggers open (``BatchedChase._compose``).
    A (3.B) companion rule reads its auxiliary atom beside the random
    rule's body; under the per-rule translation it only re-derives
    the head the batched layer already emitted with the auxiliary
    fact, so it is exempt.  Under the Bárány translation it is exempt
    only when its other atoms are stable.
    """
    if growable is None:
        growable = collect_growable(translated)
    for rule in translated.rules:
        atoms = [atom for atom in rule.body
                 if atom.relation in growable]
        if len(atoms) < 2:
            continue
        companion = isinstance(rule, DetRule) and sum(
            atom.relation in translated.aux_relations
            for atom in atoms) == 1
        if not (companion and translated.semantics == "grohe"):
            return False
    return True


def collect_companions(translated: ExistentialProgram) -> dict:
    """aux relation -> list of (companion DetRule, its aux body atom)."""
    companions: dict[str, list] = {}
    for rule in translated.rules:
        if not isinstance(rule, DetRule):
            continue
        for atom in rule.body:
            if atom.relation in translated.aux_relations:
                companions.setdefault(atom.relation, []).append(
                    (rule, atom))
    return companions


def batch_defects(translated: ExistentialProgram,
                  companions: dict | None = None,
                  ) -> list[tuple[str, str]]:
    """Every structural reason the batched chase declines a program.

    ``(relation, reason)`` pairs; empty when the batched chase can
    prepare the program (:func:`capability_report` adds weak
    acyclicity).  ``companions`` defaults to
    :func:`collect_companions`.  Every auxiliary needs (3.B)
    companions whose heads the layer can emit as templates
    (:func:`_companion_defect`), exactly one under the per-rule
    (grohe) translation; under the Bárány translation a shared
    ``Sample#`` auxiliary feeds one per random rule with its
    (distribution, arity) key, the fan-out the batched chase
    vectorizes.  Constant parameter tuples outside Θ are listed too.
    ``BatchedChase`` raises
    :class:`~repro.engine.batched.BatchUnsupported` with the first
    reason.  The translators build no program with a defect; only
    hand-built translated programs meet one.
    """
    if companions is None:
        companions = collect_companions(translated)
    defects: list[tuple[str, str]] = []
    for relation in sorted(translated.aux_relations):
        pairs = companions.get(relation, ())
        if not pairs:
            defects.append((relation, f"auxiliary relation {relation!r} "
                            "has no companion rule"))
        elif translated.semantics == "grohe" and len(pairs) > 1:
            defects.append((relation, (
                f"auxiliary relation {relation!r} has {len(pairs)} "
                "companion rules under the per-rule translation")))
        for companion, aux_atom in pairs:
            defect = _companion_defect(companion, aux_atom,
                                       translated.semantics)
            if defect:
                defects.append((relation, defect))
    for ext in translated.existential_rules():
        defect = _static_param_defect(ext)
        if defect:
            defects.append((ext.aux_relation, defect))
    return defects


def _companion_defect(companion: DetRule, aux_atom,
                      semantics: str) -> str | None:
    """Why the layer cannot emit this companion's head, or None.

    The batched chase grounds the head into a template with the
    sampled value's slot left open, so the existential variable must
    appear exactly once in the head, every other head term must be a
    constant or a bound variable, and the auxiliary atom's prefix
    terms must be variables or constants.  A head variable is bound by
    the auxiliary atom's prefix; under the Bárány translation the
    companion's rest of body is matched too, but under the per-rule
    translation the head is ground from the auxiliary fact alone.
    """
    existential = aux_atom.terms[-1]
    prefix = aux_atom.terms[:-1]
    for term in prefix:
        if not isinstance(term, (Var, Const)):
            return f"unexpected auxiliary atom term {term!r}"
    head = companion.head
    mentions = sum(1 for term in head.terms if term == existential)
    if mentions == 0:
        return (f"companion head {head!r} does not mention the "
                "existential variable")
    if mentions > 1:
        return f"existential variable repeats in companion head {head!r}"
    bound = set(prefix)
    if semantics == "barany":
        bound.update(term for atom in companion.body
                     if atom is not aux_atom for term in atom.terms)
    for term in head.terms:
        if term == existential or isinstance(term, Const):
            continue
        if not isinstance(term, Var):
            return f"unexpected companion head term {term!r}"
        if term not in bound:
            return (f"companion head variable {term!r} is not bound by "
                    + ("the companion body" if semantics == "barany"
                       else f"the auxiliary atom {aux_atom!r}"))
    return None


def _static_param_defect(ext: ExtRule) -> str | None:
    """Constant parameter tuples outside Θ fail at prepare time."""
    params = ext.prefix_terms[ext.n_carried:]
    if not all(isinstance(term, Const) for term in params):
        return None
    values = tuple(term.value for term in params)
    try:
        ext.distribution.validate_params(values)
    except DistributionError as invalid:
        return (f"parameters {values!r} of {ext.distribution.name} "
                f"are outside Θ: {invalid}")
    return None


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

#: How the config meets the static eligibility - not a property of
#: the program, so reported as a note.
_CONFIG_NOTE = ("backend='scalar' runs the scalar loop; every policy "
                "and the parallel chase batch (Theorems 5.6 and 6.1)")


def capability_report(translated: ExistentialProgram,
                      termination: TerminationReport | None = None,
                      ) -> CapabilityReport:
    """Predict every engine capability of a translated program.

    >>> from repro.core.program import Program
    >>> report = capability_report(
    ...     Program.parse("R(Flip<0.5>) :- true.").translate())
    >>> report.batched.eligible
    True
    """
    if termination is None:
        termination = analyze_termination(translated)
    growable = collect_growable(translated)
    companions = collect_companions(translated)
    visible = tuple(translated.visible_relations())
    stable = frozenset(relation for relation in visible
                       if relation not in growable)
    ext_rules = [rule for rule in translated.rules
                 if isinstance(rule, ExtRule)]

    batched = _predict_batched(translated, termination, companions)
    pooled = _predict_pooled(batched, ext_rules)
    barany = _predict_barany(translated, batched, companions,
                             growable)
    streaming = _predict_streaming(translated, batched, companions)
    guided = _predict_guided(translated, companions, growable,
                             ext_rules)
    columnar = _predict_columnar(batched, stable, visible, growable)
    rules = _per_rule(translated, batched, guided, ext_rules)
    return CapabilityReport(
        semantics=translated.semantics,
        weakly_acyclic=termination.weakly_acyclic,
        batched=batched,
        pooled_draws=pooled,
        barany_batching=barany,
        streaming_observations=streaming,
        guided_conditioning=guided,
        columnar_lift=columnar,
        rules=rules,
        stable_relations=stable,
        growable_relations=frozenset(growable) - set(
            translated.aux_relations))


def _predict_batched(translated, termination, companions) -> Capability:
    """The batch gate: weak acyclicity plus :func:`batch_defects`.

    ``Session._batch_refusal`` refuses a call with the first reason
    (unless the call asked for ``backend="scalar"``, see
    :data:`_CONFIG_NOTE`), and ``BatchedChase`` raises the first
    structural one.
    """
    reasons: list[str] = []
    detail: dict = {}
    if not termination.weakly_acyclic:
        kind = "continuous" if termination.continuous_cycle \
            else "discrete"
        reasons.append(
            f"not weakly acyclic ({kind} special cycle through "
            f"{', '.join(sorted(termination.cyclic_distributions))})"
            ": Theorem 6.1's order-independence argument does not "
            "apply")
    for relation, defect in batch_defects(translated, companions):
        reasons.append(defect)
        detail.setdefault(relation, []).append(defect)
    return Capability("batched", not reasons, tuple(reasons),
                      notes=(_CONFIG_NOTE,), detail=detail)


def _predict_pooled(batched: Capability, ext_rules) -> Capability:
    """Cross-group draw pooling rides on the batched cascade."""
    if not batched.eligible:
        return Capability(
            "pooled_draws", False,
            ("requires the batched backend",) + batched.reasons)
    if not ext_rules:
        return Capability(
            "pooled_draws", False,
            ("no random rules: nothing to pool",))
    return Capability("pooled_draws", True)


def _predict_barany(translated, batched: Capability, companions,
                    growable) -> Capability:
    """Columnar companion fan-out needs stable companion rests.

    Restates ``BatchedChase._companion_heads``'s ``rests_stable``
    flag: a companion rest-of-body touching a growable relation binds
    every world-varying draw into the trigger signature (all-singleton
    groups) - distributionally exact but no longer columnar.
    """
    if translated.semantics != "barany":
        return Capability(
            "barany_batching", batched.eligible,
            () if batched.eligible else batched.reasons,
            notes=("per-rule (grohe) translation: each companion "
                   "head is a function of its auxiliary fact alone, "
                   "fan-out batching is trivial",))
    reasons: list[str] = []
    detail: dict = {}
    for relation, pairs in sorted(companions.items()):
        touched = sorted({
            atom.relation
            for companion, aux_atom in pairs
            for atom in companion.body
            if atom is not aux_atom and atom.relation in growable})
        detail[relation] = {"rests_stable": not touched,
                            "growable_rests": touched}
        if touched:
            reasons.append(
                f"companion rests of {relation!r} touch growable "
                f"relation(s) {', '.join(touched)}: draws bind into "
                "trigger signatures (all-singleton groups)")
    if not batched.eligible:
        reasons = ["requires the batched backend",
                   *batched.reasons, *reasons]
    return Capability("barany_batching", not reasons, tuple(reasons),
                      detail=detail)


def _predict_streaming(translated, batched: Capability,
                       companions) -> Capability:
    """When is observation forcing *provably* exact, statically?

    :func:`repro.engine.batched.observation_effects` admits an
    observation when its trigger analysis is NEVER (or the pinned
    value stays outside every pin).  Every trigger analysis is NEVER
    when *no rule body reads any sampled head relation*: worlds are
    then never regrouped and the batch has no cascade round that
    could decline.  That condition is per-program, not
    per-auxiliary - a cascade round that overruns the step budget
    declines the whole batch, so the stream cannot open for an
    observation of any auxiliary.
    """
    read_by: dict[str, list[str]] = {}
    for rule in translated.rules:
        for atom in rule.body:
            if atom.relation in translated.aux_relations:
                continue
            read_by.setdefault(atom.relation, []).append(
                f"rule {rule.index}")
    reasons: list[str] = []
    detail: dict = {}
    for relation, pairs in sorted(companions.items()):
        sampled_heads = sorted({companion.head.relation
                                for companion, _atom in pairs})
        triggering = [head for head in sampled_heads
                      if head in read_by]
        detail[relation] = {"sampled_relations": sampled_heads,
                            "triggering": triggering}
        for head in triggering:
            reasons.append(
                f"sampled relation {head!r} feeds rule bodies "
                f"({', '.join(read_by[head][:3])}): observations may "
                "force downstream firing (runtime trigger analysis "
                "decides case by case)")
    if not batched.eligible:
        reasons = ["requires the batched backend",
                   *batched.reasons, *reasons]
    return Capability(
        "streaming_observations", not reasons, tuple(reasons),
        notes=("prediction is conservative: a triggering program may "
               "still accept individual observations whose value "
               "misses every pin",),
        detail=detail)


def _predict_guided(translated, companions, growable,
                    ext_rules) -> Capability:
    """Backward-walk reachability of each random rule.

    Restates the give-up conditions of :mod:`repro.core.backward`:
    evidence on a companion head reaches the draw when the companion
    body carries exactly one auxiliary atom and its rests stay on
    stable relations (growable rests drop the draw constraints).
    Disjoint derivations of the same head relation only *weaken* pins
    (reported as a note, not a blocker).
    """
    derivers: dict[str, int] = {}
    for rule in translated.rules:
        if isinstance(rule, DetRule):
            derivers[rule.head.relation] = \
                derivers.get(rule.head.relation, 0) + 1
    reasons: list[str] = []
    notes: list[str] = []
    detail: dict = {}
    for ext in ext_rules:
        pairs = companions.get(ext.aux_relation, ())
        entry = {"reachable": True, "blocking": "",
                 "sampled_relations": sorted(
                     {c.head.relation for c, _ in pairs})}
        blocking = ""
        if not pairs:
            blocking = "no companion rule: evidence cannot name " \
                       "the draw"
        for companion, aux_atom in pairs:
            if blocking:
                break
            aux_atoms = [atom for atom in companion.body
                         if atom.relation in translated.aux_relations]
            if len(aux_atoms) > 1:
                blocking = (
                    f"companion of {ext.aux_relation!r} joins "
                    f"{len(aux_atoms)} auxiliary atoms: the backward "
                    "walk gives up on multi-draw bodies")
                break
            rest_growable = sorted({
                atom.relation for atom in companion.body
                if atom is not aux_atom
                and atom.relation in growable})
            if rest_growable:
                blocking = (
                    f"companion rests of {ext.aux_relation!r} touch "
                    f"growable relation(s) {', '.join(rest_growable)}"
                    ": matched prefixes are not final, draw "
                    "constraints are dropped")
                break
            shared = sum(derivers.get(companion.head.relation, 0)
                         for companion, _ in pairs)
            if shared > len(pairs):
                notes.append(
                    f"{companion.head.relation!r} has "
                    f"{shared - len(pairs)} non-companion "
                    "derivation(s): pins weaken to disjunctions")
        entry["reachable"] = not blocking
        entry["blocking"] = blocking
        detail[ext.aux_relation] = entry
        if blocking:
            reasons.append(blocking)
    if not ext_rules:
        return Capability("guided_conditioning", False,
                          ("no random rules: nothing to guide",))
    return Capability("guided_conditioning", not reasons,
                      tuple(reasons), notes=tuple(dict.fromkeys(notes)),
                      detail=detail)


def _predict_columnar(batched: Capability, stable, visible,
                      growable) -> Capability:
    """Which relations a columnar query plan can lift.

    Restates :func:`repro.query.columnar.explain`: a plan is lifted
    when every scanned relation is stable (one evaluation over the
    closed instance serves all worlds); growable relations stay
    answerable by the whole-batch columnar pass.
    """
    detail = {relation: (STABLE if relation in stable else GROWABLE)
              for relation in visible}
    reasons: list[str] = []
    if not batched.eligible:
        reasons.append("requires the batched backend")
        reasons.extend(batched.reasons)
    if not stable:
        reasons.append("no stable visible relation: every scan "
                       "touches world-varying facts")
    return Capability(
        "columnar_lift", not reasons, tuple(reasons),
        notes=("plans over growable relations still compile to "
               "columnar masks; only the lifted single-evaluation "
               "fast path needs stability",),
        detail=detail)


def _per_rule(translated, batched: Capability, guided: Capability,
              ext_rules) -> tuple[RuleCapability, ...]:
    """Attribute program-level blockers back to source rules."""
    source = translated.source

    def origin_index(ext) -> int | None:
        if ext.origin is None:
            return None
        for index, rule in enumerate(source.rules):
            if rule is ext.origin or rule == ext.origin:
                return index
        return None

    by_aux = {ext.aux_relation: ext for ext in ext_rules}
    aux_of_origin: dict[int, str] = {}
    for ext in ext_rules:
        index = origin_index(ext)
        if index is not None:
            aux_of_origin.setdefault(index, ext.aux_relation)
    cyclic_origins: dict[int, str] = {}
    if not batched.eligible:
        for reason in batched.reasons:
            for aux, ext in by_aux.items():
                index = origin_index(ext)
                if f"{aux!r}" in reason and index is not None:
                    cyclic_origins.setdefault(index, reason)
    rules = []
    for index, rule in enumerate(source.rules):
        random = rule.is_random()
        blocking = ""
        if not batched.eligible:
            blocking = cyclic_origins.get(index, batched.reasons[0])
        reachable = None
        guided_blocking = ""
        if random:
            aux = aux_of_origin.get(index)
            entry = guided.detail.get(aux, {}) if aux else {}
            reachable = bool(entry.get("reachable", False))
            guided_blocking = entry.get("blocking", "")
        rules.append(RuleCapability(
            rule_index=index,
            head_relation=rule.head.relation,
            random=random,
            batched=batched.eligible,
            blocking=blocking,
            guided_reachable=reachable,
            guided_blocking=guided_blocking))
    return tuple(rules)
