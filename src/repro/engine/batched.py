"""Vectorized batch chase: advance B independent runs at once.

``Session.sample(n)`` replays the sequential chase ``n`` times; for the
large class of programs whose randomness sits in "layers" above a
deterministic base (Examples 3.4/3.5 of the paper, and most
statistical-modelling workloads in the Bárány-et-al. tradition), almost
all of that work is identical across runs.  :class:`BatchedChase`
exploits the structure with a *multi-round* cascade:

1. **Shared deterministic prefix.**  The deterministic fragment of the
   translated program ``Ĝ`` is a plain Datalog program; its least
   fixpoint over the input instance is computed *once* per batch via
   :func:`repro.engine.seminaive.seminaive_closure` and shared by all
   ``B`` worlds (no random facts exist yet, so every world agrees).
2. **Vectorized sampling layers.**  The existential firings applicable
   on the closed instance are identical across worlds.  Each firing's
   ``B`` independent draws are produced by a *single* call to the
   distribution's numpy sampler (:meth:`sample_batch`); within a
   round, *all* same-(distribution, parameters) requests - across
   firings *and* across signature groups - pool into one call whose
   flat result is sliced back per request (the draws are iid, so the
   product law is unchanged).  The per-world sampled values live in
   columnar numpy arrays - the batch's fact store, one array per
   firing of a round's group, kept once however many signature groups
   the group later splits into - and are only materialized into
   :class:`Fact` objects on demand (:class:`ColumnarMonteCarloPDB`
   answers marginal queries straight off the arrays).  Both the
   auxiliary fact ``R_i(ā, y)`` and its (3.B) companion heads are
   emitted columnar: under the per-rule (grohe) translation the
   single companion head is fully determined by the firing's ground
   prefix, and under the Bárány translation the shared ``Sample#``
   auxiliary's fan-out - every companion rule body matched against
   the round's fact source - is enumerated once per firing into head
   templates that every draw scatters into.
3. **Cascading signature groups.**  A sampled fact may enable further
   firings (e.g. ``Trig(x, ...) :- ..., Earthquake(c, 1)``).  A static
   *trigger analysis* over the translated rule bodies classifies each
   layer firing as never / always / pinned-value triggering, with a
   **semi-join check**: a candidate body atom only counts as a trigger
   if the *rest* of its rule body is satisfiable over the stable
   (never-growing) relations of the shared closed instance, which also
   refines "any value triggers" into a finite pin set when the sampled
   position joins a stable relation.  Trigger-hit worlds are then
   *grouped by their enabled-trigger signature* - the tuple of sampled
   values that actually hit a trigger - and each group runs the next
   deterministic cascade + existential layer vectorized again, one
   ``sample_batch`` call per (distribution, params) per *round* thanks
   to the pooling above.  The partition codes each world's signature
   as one integer and groups the worlds with numpy, in first-seen
   order.  Rounds advance as breadth-first waves, so every group at
   the same cascade depth draws together.  Group forks are
   copy-on-write: each signature group starts from an
   :class:`~repro.core.applicability.OverlayApplicability` - a delta
   overlay over the frozen base engine - so forking costs O(delta)
   instead of re-indexing the whole closed instance.  The step from a
   round to the next depends only on the round and the signature,
   never on the request or its worlds, so each :class:`BatchedChase`
   caches these transitions (a tree of round nodes keyed by
   signature, bounded by the facts its nodes hold); a warm session
   repeats no trigger insert, cascade or firing preparation it has
   already done.  Where no rule body joins two growable atoms, a
   missed round whose signature hits several firings is the union of
   the cached rounds its single triggers open, and is built that way
   (:meth:`BatchedChase._compose`).  Every group continues
   vectorized, one-world groups included, or the batch is declined
   whole: a round that would overrun the step budget or cannot be
   prepared (a distribution/validation error from parameters read off
   data) makes :meth:`BatchedChase.run_batch` return None, and the
   caller runs the sequential chase for every world.  Either way the
   sampled law is *exactly* the sequential-chase law: the batched run
   is itself a legitimate chase order, and for the weakly acyclic
   programs this backend accepts, Theorem 6.1 makes the output
   distribution independent of that order.

The grouping is sound because, within a group, the worlds agree on
every fact that could ever participate in a rule-body match: sampled
values that missed every pin can - by the instance-independent part of
the trigger analysis plus the permanence of stable relations - never
match any body atom, so they are invisible to applicability, and all
other facts are shared.  Under the Bárány translation one extra
condition guards the columnar (world-varying) case: every companion
rule's rest-of-body must be confined to stable relations, so the
enumerated head-template set is final; a companion rest touching a
growable relation instead forces every draw into the signature, where
the incremental engine derives late companion matches exactly.

The backend never silently approximates, and it decides what it
declines in two places.  Whether a program may batch at all is a
static property of ``Ĝ`` - weak acyclicity plus well-formed companion
heads - decided once by the capability analysis
(:func:`~repro.analysis.capabilities.batch_defects`): the session
reads the report's reason and runs the scalar loop for a refused
call, and :class:`BatchedChase` raises :exc:`BatchUnsupported` with
the same reason if built anyway.  A batch the engine accepted is
declined only at run time, with a ``None`` return, when some round
overruns the step budget or cannot be prepared.  A batch result
therefore holds no truncated world: every world ran the cascade to
its end.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.capabilities import (batch_defects,
                                         collect_companions,
                                         collect_growable,
                                         rounds_compose)
from repro.core.applicability import (IncrementalApplicability,
                                      overlay_fork)
# Unused here: servebench's tracer wraps this module attribute by name.
from repro.core.chase import run_chase_prepared  # noqa: F401
from repro.core.terms import Const, Var
from repro.core.translate import (DetRule, ExistentialProgram,
                                  validate_params_in_theta)
from repro.engine.matching import IndexedSource, body_holds, match_atoms
from repro.engine.seminaive import seminaive_closure
from repro.errors import (ChaseError, DistributionError, MeasureError,
                          StreamingUnsupported, ValidationError)
from repro.pdb.database import MonteCarloPDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

#: Trigger classifications of a layer firing's sampled fact.
NEVER, ALWAYS, PINNED = "never", "always", "pinned"

#: Cap on *distinct pin values* when refining an always-trigger into a
#: pin set by enumerating the stable rest-of-body matches - beyond it
#: the pin set stops paying for itself as a grouping key.
_SEMIJOIN_PIN_CAP = 64
#: Cap on raw enumerated solutions (duplicate-heavy joins can repeat
#: the same pin value many times; bound the walk, not the refinement).
_SEMIJOIN_SOLUTION_CAP = 4096
#: Cap on the facts the cached round nodes of one :class:`BatchedChase`
#: hold (the sum of their ``shared`` sizes).  Once it is reached no
#: further transition is stored; later ones are computed as usual.
_ROUND_CACHE_FACTS = 16_384
#: Largest signature key the partition builds before re-coding.
_KEY_LIMIT = int(np.iinfo(np.int64).max)


class BatchUnsupported(ChaseError):
    """The program is outside the batched backend's class.

    :class:`BatchedChase` raises it on construction, with the first
    reason :func:`~repro.analysis.capabilities.batch_defects` lists.
    The facade never meets it: ``Session._batch_refusal`` reads the
    same reasons off the capability report and sends a refused call
    to the scalar loop before any engine is built.
    """


@dataclass(frozen=True)
class _LayerFiring:
    """One existential firing of a vectorized sampling layer, prepared.

    ``heads`` are the (3.B) companion head templates this firing's
    draw fans out to - ``(relation, args, position)`` triples with
    ``None`` standing in at ``position`` for the sampled value.  Under
    the per-rule (grohe) translation there is exactly one; under the
    Bárány translation a shared ``Sample#`` auxiliary may feed several
    companion rules and several body matches each, so one draw can
    emit many heads.  ``trigger`` / ``pinned`` summarize the static
    analysis of whether any emitted head fact can enable further
    firings (``pinned`` holds the sampled values that would - only
    numeric values matter, samples are numbers; ``pin_array`` holds
    them sorted, for the partition).  ``finite`` says whether the
    draw has a small finite support
    (:meth:`~repro.distributions.base.ParameterizedDistribution.
    finite_support_values`), so that its values recur across batches.
    """

    aux_relation: str
    prefix: tuple
    distribution_key: tuple
    heads: tuple
    trigger: str
    pinned: frozenset
    finite: bool = True
    pin_array: np.ndarray | None = field(default=None, compare=False,
                                         repr=False)
    #: The firing's :meth:`~repro.core.applicability.Firing.sort_key`:
    #: a layer lists its firings in this order, the ``applicable()``
    #: order, which is also the order a composed round restores.
    sort_key: tuple = field(default=(), compare=False, repr=False)

    def head_facts(self, sampled) -> list[Fact]:
        """The companion head facts for one sampled value."""
        facts = []
        for relation, args, position in self.heads:
            filled = list(args)
            filled[position] = sampled
            facts.append(Fact(relation, tuple(filled)))
        return facts


@dataclass(frozen=True, eq=False)
class _Fired:
    """One layer firing's draws in one round of a batch.

    ``worlds`` are the ascending batch world indices of the signature
    group that fired it in that round, ``values`` their sampled values
    (aligned with ``worlds``).  Every group the round's worlds end in
    holds the firing, so its draws are kept once, however many groups
    read them.  ``twins`` are the earlier firings on the same path
    that emit one of ``firing.heads`` too (two rules with one head
    shape, say): a world holds both facts, which the merged scan keeps
    in separate rows.
    """

    firing: _LayerFiring
    worlds: np.ndarray
    values: np.ndarray
    twins: tuple


@dataclass(frozen=True)
class _ColumnarGroup:
    """Worlds that finished the cascade together, still columnar.

    ``members`` are the batch-wide world indices, ascending; ``shared``
    is the instance every member holds in common (closed fixpoint +
    all signature-bound trigger facts + deterministic cascade facts);
    ``firings`` index :attr:`BatchOutcome.firings` with the firings
    the group's path fired, in firing order - a member's sampled value
    of each is at its position in that firing's ``worlds``.
    """

    members: np.ndarray
    shared: Instance
    firings: tuple


@dataclass(frozen=True)
class BatchOutcome:
    """Everything :meth:`BatchedChase.run_batch` produced for a batch.

    ``groups`` hold every world, each vectorized to termination: every
    world index in ``range(size)`` is a member of exactly one group.
    ``firings`` keep every draw of the batch once, one
    :class:`_Fired` per (round group, layer firing), in firing order:
    a firing's ``worlds`` are exactly the members of the groups that
    list it, and a path lists earlier rounds' firings first.

    ``base``/``growable`` carry the chase's stable-relation analysis
    (:func:`~repro.analysis.capabilities.collect_growable`) forward to
    consumers: the shared closed instance and the set of relations
    that may gain facts after it.  Every group's ``shared`` contains
    ``base``, and every relation *outside* ``growable`` holds exactly
    ``base``'s facts in **every** world, which is what licenses the
    columnar query planner's lifted fast path and its one read of the
    base in the merged scan (:mod:`repro.query.columnar`).
    """

    size: int
    groups: tuple
    diagnostics: dict
    base: Instance
    growable: frozenset
    firings: tuple = ()


#: Cache-miss marker of :meth:`BatchedChase._transition`.
_MISSING = object()


@dataclass(eq=False)
class _RoundNode:
    """One cascade state, shared by every batch that reaches it.

    ``engine`` and ``shared`` hold the state after the node's trigger
    facts and deterministic cascade; ``layer`` is the existential
    layer fired next (empty: terminal, and ``engine`` is dropped).
    ``added`` holds the facts the round added to its parent's
    ``shared``.  ``unbound_facts`` counts the per-world facts of
    earlier rounds' columns whose sampled value stayed world-varying
    (signature component None) - one auxiliary plus the head templates
    per such column.  They are the only facts *not* already inside
    ``shared``.  ``need`` is the step budget a world needs to reach
    the node and fire its layer: facts over the input instance,
    unbound ones included, plus the layer's step bound.

    ``recurs`` says whether the transitions out of the node can repeat
    across batches: no ancestor's signature, and no signature of this
    layer, carries a value drawn from an infinite support (False for
    a terminal node, which has no transitions).
    ``children`` caches those transitions by signature (a node, or
    None for a round that cannot be prepared); it is None when they
    are not stored.

    A *composed* node (:meth:`BatchedChase._compose`) is built without
    an engine.  ``sources`` names, per layer firing, the one-trigger
    round whose layer holds it and its index there; ``held`` keys the
    firings of its layer and of its composed ancestors' layers, which
    one-trigger rounds of its parts may list again.  Its engine is
    built on first use (:meth:`BatchedChase._engine_of`).  Nodes are
    never mutated after they are built, apart from ``children`` and
    that one engine.
    """

    engine: IncrementalApplicability | None
    shared: Instance
    layer: tuple
    unbound_facts: int
    need: int
    recurs: bool
    added: frozenset = frozenset()
    sources: tuple = ()
    held: frozenset = frozenset()
    children: dict | None = None


@dataclass
class _Round:
    """One pending vectorized round of a world group (internal).

    ``path`` indexes the batch's firings the group fired so far;
    ``emitted`` maps each head template those firings emit to the
    firings emitting it (the source of :attr:`_Fired.twins`).
    """

    node: _RoundNode
    members: np.ndarray
    path: tuple
    emitted: dict

    @property
    def layer(self) -> tuple:
        return self.node.layer


class BatchedChase:
    """A prepared batch sampler for one (translated program, instance).

    Construction raises :exc:`BatchUnsupported` with the first
    structural defect of the program
    (:func:`~repro.analysis.capabilities.batch_defects`), then
    performs all per-(program, instance) work: the shared
    deterministic fixpoint, the applicability bootstrap on the closed
    instance (reusing the fixpoint's warm indexes), companion lookup,
    the growable-relation analysis and the first layer's trigger
    analysis.  :meth:`run_batch` then costs one vectorized draw per
    (firing group, round) plus columnar bookkeeping, and the instance
    caches the round transitions and firing preparations it computes,
    so sessions keep it (:meth:`repro.api.Session.sample` stores it
    alongside the scalar engine base).
    """

    def __init__(self, translated: ExistentialProgram,
                 instance: Instance):
        companions = collect_companions(translated)
        defects = batch_defects(translated, companions)
        if defects:
            raise BatchUnsupported(defects[0][1])
        self.translated = translated
        self.instance = instance
        det_rules = translated.deterministic_rules()
        if det_rules:
            self.closed, closed_source = seminaive_closure(det_rules,
                                                           instance)
        else:
            self.closed = instance
            closed_source = IndexedSource(instance.facts)
        self.det_steps = len(self.closed) - len(instance)
        # The semi-join source and the base engine share the warm
        # index.  Invariant: ``self._engine`` is never mutated (rounds
        # always fork), so the source keeps mirroring ``self.closed``
        # and stays valid for stable-relation semi-joins in every
        # later round (stable relations never grow).
        self._closed_source = closed_source
        self._engine = IncrementalApplicability(translated, self.closed,
                                                source=closed_source)
        self._companions = companions
        self._body_atoms = self._collect_body_atoms()
        self._growable = collect_growable(translated)
        # Whether a missed round may be built from one-trigger rounds
        # (see _compose).
        self._composes = rounds_compose(translated, self._growable)
        # Firing preparations that hold in every round (see
        # _prepare_firing), filled only by rounds that can recur.
        self._prepared: dict = {}
        self.layer = tuple(self._prepare_firing(firing,
                                                self._closed_source,
                                                self._prepared)
                           for firing in self._engine.applicable())
        recurs = _layer_recurs(self.layer)
        self._root = _RoundNode(
            self._engine, self.closed, self.layer, 0,
            self.det_steps + self._layer_step_bound(self.layer), recurs,
            children={} if recurs else None)
        #: Facts held by the cached nodes' ``shared`` instances, and
        #: the count past which no node is stored.
        self._cached_facts = 0
        self._cache_cap = _ROUND_CACHE_FACTS
        self._cache_lock = threading.Lock()

    # -- preparation --------------------------------------------------------

    @property
    def closed_source(self):
        """The fact source mirroring the shared closed instance.

        Public for the backward evidence pass
        (:func:`repro.core.backward.backward_plan`), which semi-joins
        stable relations against it exactly like the trigger analysis.
        """
        return self._closed_source

    @property
    def growable(self) -> frozenset:
        """Relations that may gain facts after the shared fixpoint."""
        return self._growable

    def _collect_body_atoms(self) -> dict:
        """relation -> (rule, body position) anywhere in ``Ĝ``.

        Auxiliary relations are excluded on purpose: under the per-rule
        translation an auxiliary fact only ever matches its own
        companion's auxiliary atom, and the companion's head is emitted
        directly by the layer (its ground head is a function of the
        auxiliary fact alone).
        """
        by_relation: dict[str, list] = {}
        for rule in self.translated.rules:
            for position, atom in enumerate(rule.body):
                if atom.relation in self.translated.aux_relations:
                    continue
                by_relation.setdefault(atom.relation, []).append(
                    (rule, position))
        return by_relation

    def _prepare_firing(self, firing, source, memo: dict) -> _LayerFiring:
        """Analyze one applicable existential firing against ``source``.

        ``source`` is the fact source of the round preparing the
        firing (the shared closed instance for the first layer, the
        group's overlay source afterwards); Bárány companion bodies
        are matched against it to enumerate the head templates the
        firing's draw fans out to.  ``memo`` keeps the results that
        cannot depend on ``source``: per-rule (grohe) firings, and
        Bárány firings whose companion rests all lie on stable relations.
        """
        if firing in memo:
            return memo[firing]
        ext = self.translated.rules[firing.rule_index]
        info = self.translated.aux_info[firing.relation]
        prefix = firing.values
        params = validate_params_in_theta(ext, prefix[info.n_carried:])
        companions = self._companions[firing.relation]
        if self.translated.semantics == "barany":
            heads, rests_stable = self._companion_heads(
                companions, prefix, source)
        else:
            companion, aux_atom = companions[0]
            heads = (self._ground_companion_head(companion, aux_atom,
                                                 prefix),)
            # Under the per-rule translation the companion head is a
            # function of the auxiliary fact alone, so later body
            # matches can only re-derive the already-emitted head.
            rests_stable = True
        support = info.distribution.finite_support_values(params)
        trigger, pinned = self._trigger_analysis(heads, support)
        if not rests_stable and trigger != ALWAYS:
            # Some companion rest-of-body touches a growable relation:
            # new companion matches (new heads for an already-sampled
            # value) may appear in later rounds, so a world-varying
            # sampled value cannot stay columnar.  Binding every draw
            # into the signature hands the fan-out to the incremental
            # engine, which derives late companion heads exactly.
            trigger, pinned = ALWAYS, frozenset()
        prepared = _LayerFiring(
            aux_relation=firing.relation,
            prefix=prefix,
            # Content-addressed: distribution names are unique within a
            # program's registry, so (name, params) identifies the draw
            # law, and _draw_wave pools every same-key draw of a wave
            # into one sample_batch call.  Unlike a process-local id(),
            # the key also survives pickling.
            distribution_key=(info.distribution.name, params),
            heads=heads,
            trigger=trigger,
            pinned=pinned,
            finite=support is not None,
            pin_array=np.asarray(sorted(pinned)) if pinned else None,
            sort_key=firing.sort_key())
        if rests_stable:
            memo[firing] = prepared
        return prepared

    def _companion_heads(self, companions, prefix: tuple,
                         source) -> tuple[tuple, bool]:
        """All (3.B) head templates a shared-``Sample#`` draw fans to.

        For each companion rule whose auxiliary atom unifies with the
        ground prefix, the rest of the rule body is matched against
        ``source``; every solution grounds one head template (with
        ``None`` at the existential slot).  Also reports whether every
        rest-of-body is confined to *stable* relations - only then is
        the template set final across later cascade rounds, which is
        the soundness condition for keeping world-varying draws
        columnar.
        """
        heads: list = []
        seen: set = set()
        rests_stable = True
        for companion, aux_atom in companions:
            binding: dict = {}
            compatible = True
            for term, value in zip(aux_atom.terms[:-1], prefix):
                # The gate admits only variable and constant terms.
                if isinstance(term, Const):
                    compatible = term.value == value
                else:
                    compatible = binding.setdefault(term, value) == value
                if not compatible:
                    break
            if not compatible:
                continue
            existential = aux_atom.terms[-1]
            rest = [atom for atom in companion.body
                    if atom is not aux_atom]
            if any(atom.relation in self._growable for atom in rest):
                rests_stable = False
            for solution in match_atoms(rest, source, binding):
                template = self._ground_head_template(
                    companion.head, existential, solution)
                if template not in seen:
                    seen.add(template)
                    heads.append(template)
        return tuple(heads), rests_stable

    def _ground_companion_head(self, companion: DetRule, aux_atom,
                               prefix: tuple) -> tuple:
        """The grohe companion head template ground from the prefix.

        The auxiliary atom's terms are the carried head terms, the
        distribution parameters and finally the existential variable;
        matching them against the ground prefix binds every variable
        the companion head mentions (head variables are carried terms).
        """
        binding: dict = {}
        existential = aux_atom.terms[-1]
        for term, value in zip(aux_atom.terms[:-1], prefix):
            if isinstance(term, Var):
                binding[term] = value
        return self._ground_head_template(companion.head, existential,
                                          binding)

    @staticmethod
    def _ground_head_template(head, existential, binding: dict) -> tuple:
        """``(relation, args-with-None, sample position)`` of one head.

        The gate (:func:`~repro.analysis.capabilities.batch_defects`)
        admits only heads that mention the existential variable once
        and whose other terms are constants or variables ``binding``
        holds.
        """
        head_args = tuple(
            None if term == existential
            else term.value if isinstance(term, Const)
            else binding[term]
            for term in head.terms)
        return (head.relation, head_args,
                head.terms.index(existential))

    def _trigger_analysis(self, heads: tuple,
                          support: tuple | None) -> tuple[str, frozenset]:
        """Classify whether any emitted head fact can enable firings.

        Each emitted fact is fixed across worlds except at its sample
        position.  It can only enable a new firing by matching some
        rule-body atom; for each candidate atom the fixed columns
        either rule the match out entirely, or pin the sampled value to
        concrete constants, or leave it free (any sample triggers), and
        the semi-join refinement of :meth:`_atom_pin` discards
        candidates whose stable rest-of-body cannot hold.  Pins outside
        the distribution's (finite) support are dropped - those values
        are unreachable.  Worlds whose samples hit a pin (or any world,
        under ``always``) leave the current group; the rest provably
        never enable a firing through these facts.
        """
        pinned: set = set()
        for relation, head_args, position in heads:
            for rule, atom_index in self._body_atoms.get(relation, ()):
                verdict = self._atom_pin(rule, atom_index, head_args,
                                         position)
                if verdict is None:
                    continue
                if verdict is ALWAYS:
                    return ALWAYS, frozenset()
                pinned.update(verdict)
        numeric = {value for value in pinned
                   if isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        if support is not None:
            in_support = set(support)
            numeric = {value for value in numeric if value in in_support}
        if numeric:
            return PINNED, frozenset(numeric)
        return NEVER, frozenset()

    def _atom_pin(self, rule, atom_index: int, head_args: tuple,
                  position: int):
        """None (can never match) | ALWAYS | set of pinned sample values.

        First the fixed columns of the emitted fact are unified with
        the atom; then the *rest* of the rule body, restricted to
        stable relations, is semi-joined against the shared closed
        instance under the resulting binding.  An unsatisfiable stable
        rest rules the trigger out permanently (stable relations never
        grow), and when the sampled position's variable itself joins a
        stable relation, enumerating the stable matches turns "any
        sample triggers" into a finite pin set.
        """
        atom = rule.body[atom_index]
        if atom.arity != len(head_args):
            return None
        binding: dict = {}
        for index, term in enumerate(atom.terms):
            if index == position:
                continue
            value = head_args[index]
            if isinstance(term, Const):
                if term.value != value:
                    return None
            elif isinstance(term, Var):
                if term in binding and binding[term] != value:
                    return None
                binding[term] = value
            else:
                return None
        sample_term = atom.terms[position]
        if isinstance(sample_term, Const):
            pins = {sample_term.value}
            sample_var = None
        elif isinstance(sample_term, Var):
            if sample_term in binding:
                pins = {binding[sample_term]}
                sample_var = None
            else:
                pins = None
                sample_var = sample_term
        else:
            return None
        rest = [a for i, a in enumerate(rule.body)
                if i != atom_index and a.relation not in self._growable]
        if not rest:
            return ALWAYS if pins is None else pins
        if pins is not None:
            if not body_holds(rest, self._closed_source, binding):
                return None
            return pins
        if not any(sample_var == variable
                   for a in rest for variable in a.variables()):
            return ALWAYS if body_holds(rest, self._closed_source,
                                        binding) else None
        values: set = set()
        for count, solution in enumerate(
                match_atoms(rest, self._closed_source, binding)):
            if count >= _SEMIJOIN_SOLUTION_CAP \
                    or len(values) > _SEMIJOIN_PIN_CAP:
                return ALWAYS
            values.add(solution[sample_var])
        if not values:
            return None
        return values

    # -- execution ----------------------------------------------------------

    @staticmethod
    def _layer_step_bound(layer: tuple) -> int:
        """Per-world facts a fired layer can add: aux + heads each."""
        return sum(1 + len(firing.heads) for firing in layer)

    def run_batch(self, size: int, batch_rng: np.random.Generator,
                  max_steps: int, *, regions: dict | None = None,
                  log_weights=None) -> BatchOutcome | None:
        """Sample ``size`` chase runs, all vectorized; None declines.

        Every signature group continues vectorized, whatever its size.
        When some group's next round would overrun ``max_steps`` or
        cannot be prepared, the whole batch is declined: the method
        returns None and the caller runs the sequential chase for
        every world (Theorem 6.1 makes either chase order law-exact).
        Draws pool across groups: within a round, all signature
        groups' same-(distribution, parameters) draws are served by
        one ``sample_batch`` call (:meth:`_draw_wave`; the draws are
        iid, so slicing one flat array per request keeps the product
        law).

        Round transitions come from this instance's cache when an
        earlier batch computed them (:meth:`_transition`); the
        diagnostics count those group rounds as ``n_cached_rounds``.
        The cache stops growing once its nodes hold
        :data:`_ROUND_CACHE_FACTS` facts, and never stores a round
        that cannot recur (a signature value from an infinite
        support).  A cached node records the step budget it needs
        rather than the budget of the batch that built it, so one
        node serves every ``max_steps``: a batch declines on a node
        that needs more than ``max_steps``, exactly where a cascade
        counted against this batch's budget would overrun it.  A
        missed round whose signature hits several firings is built
        from cached one-trigger rounds where the program allows it
        (:meth:`_compose`); ``n_composed_rounds`` counts those group
        rounds.

        Theorem 6.1 makes one pooled chase order of all ``size``
        worlds law-exact, so a batch this method accepts runs here,
        in one process.

        ``regions`` switches the batch to *guided conditioning*: a
        mapping from ``(aux relation, full prefix)`` and/or ``(aux
        relation, carried prefix)`` keys to feasible
        :class:`~repro.distributions.regions.Region` objects (the
        backward evidence pass's output).  Matching firings draw from
        the region-truncated law via ``sample_batch_truncated`` - one
        pooled call per (distribution, params, region) - and each
        world's accumulated log importance weight (log prior mass of
        its constrained draws' regions) is added into ``log_weights``,
        a caller-allocated float array of length ``size``.  A declined
        guided batch leaves the caller to pick a different method: the
        sequential chase would sample constrained firings
        unconstrained.  Contradictory region intersections raise
        :class:`~repro.errors.MeasureError` (evidence with zero prior
        mass).
        """
        root = self._root
        if regions and log_weights is None:
            raise ChaseError(
                "guided regions need a caller-allocated log_weights "
                "array")
        # Conservative budget bound: prefix facts + one auxiliary and
        # the head templates per firing.  Tighter-budget callers get
        # exact truncation semantics from the scalar loop instead.
        if root.need > max_steps:
            return None
        diagnostics = {"n_firings": len(root.layer),
                       "n_rounds": 0, "n_groups": 0,
                       "n_group_rounds": 0, "n_cached_rounds": 0,
                       "n_composed_rounds": 0,
                       "n_draw_calls": 0, "n_pooled_draws": 0}
        all_members = np.arange(size)
        if not root.layer:
            diagnostics["n_groups"] = 1
            group = _ColumnarGroup(all_members, self.closed, ())
            return BatchOutcome(size, (group,), diagnostics,
                                base=self.closed,
                                growable=self._growable)

        groups: list[_ColumnarGroup] = []
        firings: list[_Fired] = []
        # Firing preparations of rounds that cannot recur, kept for
        # this batch only (see _next_round).
        batch_memo: dict = {}
        # Rounds advance as breadth-first waves: every signature group
        # at the same cascade depth draws in the same wave, which is
        # what lets same-key draws pool across groups.
        wave = [_Round(root, all_members, (), {})]
        while wave:
            diagnostics["n_rounds"] += 1
            wave_draws = self._draw_wave(wave, batch_rng, diagnostics,
                                         regions, log_weights)
            next_wave: list[_Round] = []
            for task, draws in zip(wave, wave_draws):
                diagnostics["n_group_rounds"] += 1
                node = task.node
                members = task.members
                path, emitted = self._record(task, draws, firings)
                order, partition = _partition(node.layer, draws,
                                              len(members))
                if order is not None:
                    # One permutation makes every group a contiguous
                    # run of ascending worlds.
                    members = members[order]
                for sig, start, stop in partition:
                    sub_members = members[start:stop]
                    if all(c is None for c in sig):
                        # No sampled value enabled anything: terminal.
                        groups.append(_ColumnarGroup(
                            sub_members, node.shared, path))
                        diagnostics["n_groups"] += 1
                        continue
                    child = self._transition(node, sig, diagnostics,
                                             batch_memo)
                    if child is None or child.need > max_steps:
                        return None
                    if child.layer:
                        next_wave.append(_Round(child, sub_members,
                                                path, emitted))
                    else:
                        groups.append(_ColumnarGroup(
                            sub_members, child.shared, path))
                        diagnostics["n_groups"] += 1
            wave = next_wave
        return BatchOutcome(size, tuple(groups), diagnostics,
                            base=self.closed, growable=self._growable,
                            firings=tuple(firings))

    @staticmethod
    def _record(task: _Round, draws: list,
                firings: list) -> tuple[tuple, dict]:
        """Keep a drawn round's firings once; the path and heads after.

        Appends one :class:`_Fired` per layer firing to ``firings``
        and returns the round's path (the task's, then the new
        indices) and its ``emitted`` map, both shared by every group
        the round's worlds go on in.
        """
        start = len(firings)
        emitted = dict(task.emitted)
        for firing, values in zip(task.layer, draws):
            index = len(firings)
            twins: tuple = ()
            for head in firing.heads:
                earlier = emitted.get(head, ())
                twins += earlier
                emitted[head] = earlier + (index,)
            if len(firing.heads) > 1:
                twins = tuple(sorted(set(twins)))
            firings.append(_Fired(firing, task.members, values, twins))
        return task.path + tuple(range(start, len(firings))), emitted

    def _transition(self, node: _RoundNode, sig: tuple,
                    diagnostics: dict,
                    batch_memo: dict) -> _RoundNode | None:
        """The node signature ``sig`` leads to from ``node``.

        None means the round cannot be prepared (structure, or a
        distribution/validation error), which is as deterministic in
        ``(node, sig)`` as the node itself.  Either answer is read
        from ``node.children`` when an earlier group computed it, and
        stored there otherwise - unless ``node`` stores no children
        (see :class:`_RoundNode`), or the cached nodes already hold
        :data:`_ROUND_CACHE_FACTS` facts; the transition is then
        computed exactly the same way and simply not kept.  A miss is
        composed from one-trigger rounds when :meth:`_parts` finds
        them, and runs the whole cascade (:meth:`_round`) otherwise.
        """
        children = node.children
        if children is not None:
            child = children.get(sig, _MISSING)
            if child is not _MISSING:
                diagnostics["n_cached_rounds"] += 1
                return child
        parts = self._parts(node, sig)
        if parts is None:
            child = self._round(node, sig, batch_memo)
        else:
            diagnostics["n_composed_rounds"] += 1
            child = self._compose(
                node, sig, [self._part(parent, one, batch_memo)
                            for parent, one in parts])
        self._store(node, sig, child)
        return child

    def _store(self, node: _RoundNode, sig: tuple,
               child: _RoundNode | None) -> None:
        """Keep ``child`` as ``node``'s transition, if the cache may."""
        children = node.children
        if children is None:
            return
        with self._cache_lock:
            # A concurrent batch may have stored an equal node.
            if sig not in children \
                    and self._cached_facts < self._cache_cap:
                if child is not None:
                    self._cached_facts += len(child.shared)
                    if child.recurs:
                        child.children = {}
                children[sig] = child

    def _round(self, node: _RoundNode, sig: tuple,
               batch_memo: dict) -> _RoundNode | None:
        """:meth:`_next_round`, with None for a round it cannot prepare."""
        try:
            return self._next_round(node, sig, batch_memo)
        except (DistributionError, ValidationError):
            return None

    def _part(self, parent: _RoundNode, one: tuple,
              batch_memo: dict) -> _RoundNode | None:
        """The one-trigger round ``one`` opens from ``parent``, cached."""
        child = parent.children.get(one, _MISSING)
        if child is _MISSING:
            child = self._round(parent, one, batch_memo)
            self._store(parent, one, child)
        return child

    def _parts(self, node: _RoundNode, sig: tuple) -> list | None:
        """Where the one-trigger rounds of ``sig``'s hits live, or None.

        Returns one ``(parent, one-hit signature)`` pair per hit: the
        node itself, or for a composed node the part whose layer holds
        the firing.  None leaves the round to :meth:`_round`: the
        program does not compose, the node's transitions cannot recur,
        the signature hits one firing of an engine-backed node, or
        some part is neither cached nor storable under the fact cap.
        Composing then would compute rounds no later batch reads.
        """
        if not self._composes or not node.recurs:
            return None
        hits = [index for index, value in enumerate(sig)
                if value is not None]
        if len(hits) < (1 if node.sources else 2):
            return None
        parts = []
        for index in hits:
            parent, position = node.sources[index] if node.sources \
                else (node, index)
            one = [None] * len(parent.layer)
            one[position] = sig[index]
            one = tuple(one)
            children = parent.children
            if children is None or (
                    one not in children
                    and self._cached_facts >= self._cache_cap):
                return None
            parts.append((parent, one))
        return parts

    def _compose(self, node: _RoundNode, sig: tuple,
                 parts: list) -> _RoundNode | None:
        """The round ``sig`` opens from ``node``, united from its parts.

        ``parts`` are the one-trigger rounds of ``sig``'s hits.  When
        no rule body joins two atoms over growable relations
        (:func:`~repro.analysis.capabilities.rounds_compose`), every
        fact of the cascade follows from a single trigger, so the
        round's facts are the union of its parts' and its layer is
        the union of their layers - less the firings ``node.held``
        keys, which earlier rounds on the path already settled - in
        ``applicable()`` order.  A part that cannot be prepared holds
        a firing the whole round would prepare too, so the round
        cannot be prepared either.
        """
        if any(part is None for part in parts):
            return None
        shared = node.shared.add_all(
            frozenset().union(*(part.added for part in parts)))
        chosen: dict = {}
        for part in parts:
            for index, firing in enumerate(part.layer):
                key = (firing.aux_relation, firing.prefix)
                if key in node.held:
                    continue
                best = chosen.get(key)
                if best is None or firing.sort_key < best[0].sort_key:
                    chosen[key] = (firing, part, index)
        entries = sorted(chosen.values(),
                         key=lambda entry: entry[0].sort_key)
        return self._child(
            node, sig, None, shared,
            tuple(firing for firing, _part, _index in entries),
            sources=tuple((part, index)
                          for _firing, part, index in entries),
            held=node.held.union(chosen))

    def _child(self, node: _RoundNode, sig: tuple, engine, shared,
               layer: tuple, **fields) -> _RoundNode:
        """The node after ``node``'s round ``sig``, given its state."""
        # Per-world steps: shared facts plus the auxiliary and
        # head-template facts of every *unbound* column - bound
        # columns' facts are already inside ``shared``, counting them
        # again would force needless declines near the budget.
        unbound_facts = node.unbound_facts \
            + sum(1 + len(firing.heads)
                  for component, firing in zip(sig, node.layer)
                  if component is None)
        steps = len(shared) - len(self.instance) + unbound_facts
        if not layer:
            return _RoundNode(None, shared, (), unbound_facts, steps,
                              False, **fields)
        return _RoundNode(engine, shared, layer, unbound_facts,
                          steps + self._layer_step_bound(layer),
                          node.recurs and _layer_recurs(layer), **fields)

    def _engine_of(self, node: _RoundNode) -> IncrementalApplicability:
        """The node's engine; a composed node builds it on first use.

        It forks the engine of the part holding the node's first
        layer firing, adds the facts of ``shared`` the part lacks, and
        retires every existential firing then applicable outside the
        node's layer: those are the firings earlier rounds on the
        node's path settled.  A part settles no firing the node keeps
        pending, so what remains pending is exactly the layer.
        """
        engine = node.engine
        if engine is None:
            part = node.sources[0][0]
            engine = overlay_fork(part.engine)
            for fact in node.shared.facts - part.shared.facts:
                engine.add_fact(fact)
            pending = {(firing.aux_relation, firing.prefix)
                       for firing in node.layer}
            for firing in engine.applicable():
                if firing.existential \
                        and (firing.relation, firing.values) \
                        not in pending:
                    engine.retire_existential(firing.relation,
                                              firing.values)
            node.engine = engine
        return engine

    def _next_round(self, node: _RoundNode, sig: tuple,
                    batch_memo: dict) -> _RoundNode:
        """Advance ``node`` by the cascade round signature ``sig`` opens.

        Adds the signature's trigger facts to a fork of the node's
        engine, runs the deterministic cascade to its end (finite:
        only deterministic rules fire inside it) and prepares the next
        existential layer; a node without one is terminal.  Raises a
        :class:`~repro.errors.DistributionError` /
        :class:`~repro.errors.ValidationError` from the next layer's
        parameters (read off data: the gate rules out constant ones
        outside Θ).

        The result depends on ``(node, sig)`` alone - no worlds, no
        budget (``batch_memo`` only memoizes firing preparations that
        hold in every round) - which is what lets :meth:`_transition`
        cache it.  It records the budget it needs instead (``need``).
        Testing ``need > max_steps`` equals counting the cascade
        against ``max_steps`` and checking the next layer's bound: the
        count only grows, and it starts within ``max_steps`` because
        the parent admitted its whole layer's bound.
        """
        engine = overlay_fork(self._engine_of(node))
        # The facts this round adds to ``shared``.  Building an
        # Instance copies all of its facts, so it is built once, after
        # the cascade.
        added: set[Fact] = set()
        for component, firing in zip(sig, node.layer):
            if component is None:
                # The sampled fact varies across the group's worlds
                # but provably matches no body atom; retire the pair
                # abstractly so it never re-fires.
                engine.retire_existential(firing.aux_relation,
                                          firing.prefix)
                continue
            aux = Fact(firing.aux_relation,
                       firing.prefix + (component,))
            engine.add_fact(aux)
            added.add(aux)
            for head in firing.head_facts(component):
                engine.add_fact(head)
                added.add(head)
        while True:
            applicable = engine.applicable()
            deterministic = [firing for firing in applicable
                             if not firing.existential]
            if not deterministic:
                break
            for firing in deterministic:
                fact = firing.fact()
                engine.add_fact(fact)
                added.add(fact)
        # The instance keeps the preparations of rounds that can
        # recur.  A round that cannot may hold firings no later batch
        # asks for again, so its preparations go to ``batch_memo``,
        # which dies with the batch.
        memo = self._prepared if node.recurs else batch_memo
        layer = tuple(self._prepare_firing(firing, engine.source, memo)
                      for firing in applicable if firing.existential)
        return self._child(node, sig, engine,
                           node.shared.add_all(added), layer,
                           added=frozenset(added))

    def _firing_region(self, firing: _LayerFiring, regions: dict | None):
        """The feasible region constraining one firing's draw (or None).

        Event-derived regions are keyed by the full ground prefix
        (identifying exactly one draw per world); observation pins by
        the carried prefix (forcing every matching firing, mirroring
        likelihood weighting).  Both apply at once by intersection; an
        empty intersection means the evidence items contradict each
        other on this draw, so no world has positive posterior mass.
        """
        if not regions:
            return None
        region = regions.get((firing.aux_relation, firing.prefix))
        info = self.translated.aux_info[firing.aux_relation]
        carried = firing.prefix[:info.n_carried]
        pin = regions.get((firing.aux_relation, carried))
        if pin is not None and pin is not region:
            region = pin if region is None else region.intersect(pin)
            if region.is_empty:
                raise MeasureError(
                    f"evidence items contradict each other on the "
                    f"draw of {firing.aux_relation!r} with prefix "
                    f"{firing.prefix!r}: the feasible region is empty")
        return region

    def _draw_wave(self, wave: list, rng: np.random.Generator,
                   diagnostics: dict,
                   regions: dict | None = None,
                   log_weights=None) -> list[list]:
        """Per-task draw arrays for one wave, same-key calls pooled.

        Each (firing, signature group) of the wave is one draw
        *request*.  Requests sharing a (distribution, parameters) key
        - across every group of the round - are served by a single
        ``sample_batch`` call whose flat result is sliced back per
        request in request order; the draws are iid, so any split of
        the flat array preserves the product law (the same argument
        that lets one firing's draws share a call within a group).

        With ``regions``, constrained requests pool on (distribution,
        params, region) and draw via ``sample_batch_truncated``; the
        call's per-draw log importance weight is accumulated into
        ``log_weights`` for every member world (iid given the key, so
        the pooled slicing argument carries over unchanged).  A
        single-point region where the law has zero density is not
        drawn: its member worlds get the point and log weight
        ``-inf``, as a likelihood-weighted scalar run observing that
        value gets weight 0.

        ``diagnostics`` gains ``n_draw_calls`` (``sample_batch``
        invocations) and ``n_pooled_draws`` (requests merged into a
        call they would not have had to themselves).
        """
        requests: list[tuple[int, int, tuple, int]] = []
        firing_regions: list = []
        for task_index, task in enumerate(wave):
            count = len(task.members)
            for firing_index, firing in enumerate(task.layer):
                region = self._firing_region(firing, regions)
                key = firing.distribution_key
                if region is not None:
                    key = key + (region,)
                requests.append((task_index, firing_index, key, count))
                firing_regions.append(region)
        by_key: dict[tuple, list[int]] = {}
        for request_index, (_t, _f, key, _c) in enumerate(requests):
            by_key.setdefault(key, []).append(request_index)
        draws: list[list] = [[None] * len(task.layer) for task in wave]
        for members in by_key.values():
            task_index, firing_index, _key, _count = \
                requests[members[0]]
            firing = wave[task_index].layer[firing_index]
            region = firing_regions[members[0]]
            info = self.translated.aux_info[firing.aux_relation]
            _name, params = firing.distribution_key
            total = sum(requests[member][3] for member in members)
            point = None if region is None else region.single_point()
            if region is None:
                flat = np.asarray(info.distribution.sample_batch(
                    params, total, rng))
                log_w = None
            elif point is not None \
                    and not info.distribution.density(params, point[0]) > 0:
                # A pinned value the law cannot produce: the member
                # worlds weigh zero and draw nothing, so no other draw
                # changes (the posterior raises only if every world
                # weighs zero, like the scalar loop's).
                flat = np.full(total, point[0])
                log_w = -np.inf
            else:
                flat, log_w = info.distribution.sample_batch_truncated(
                    params, region, total, rng)
                flat = np.asarray(flat)
                diagnostics["n_guided_draws"] = \
                    diagnostics.get("n_guided_draws", 0) + total
            if flat.shape != (total,):
                raise ChaseError(
                    f"{info.distribution.name}.sample_batch returned "
                    f"shape {flat.shape}, expected ({total},)")
            offset = 0
            for member in members:
                t_index, f_index, _k, count = requests[member]
                draws[t_index][f_index] = flat[offset:offset + count]
                offset += count
                if log_w is not None:
                    log_weights[wave[t_index].members] += log_w
            diagnostics["n_draw_calls"] += 1
            diagnostics["n_pooled_draws"] += len(members) - 1
        return draws


def _layer_recurs(layer: tuple) -> bool:
    """Whether a layer's signatures can repeat across batches.

    Only an always-trigger puts every world's own value into the
    signature; drawn from an infinite support (a continuous family,
    Poisson, Geometric) that value never comes back.  Pinned values
    and finite supports do.
    """
    return all(firing.finite for firing in layer
               if firing.trigger == ALWAYS)


def _column_codes(firing: _LayerFiring, values: np.ndarray):
    """``(codes, width)`` grouping one column's worlds, or None.

    Codes lie in ``range(width)``.  None means the column splits
    nothing: a never-trigger, a pin set no world hit, or an
    always-trigger every world drew the same value for.
    """
    if firing.trigger == ALWAYS:
        distinct, codes = np.unique(values, return_inverse=True,
                                    equal_nan=False)
        return (codes, len(distinct)) if len(distinct) > 1 else None
    if firing.trigger == PINNED:
        pins = firing.pin_array
        if len(pins) == 1:
            codes = values == pins[0]
        else:
            index = np.searchsorted(pins, values)
            hit = pins[np.minimum(index, len(pins) - 1)] == values
            codes = np.where(hit, index + 1, 0)
        return (codes, len(pins) + 1) if codes.any() else None
    return None


def _signature(layer: tuple, draws: list, world: int) -> tuple:
    """One world's enabled-trigger signature for a fired layer.

    A component is the sampled value when it can enable a firing (an
    always-trigger, or a pinned value the draw actually hit) and None
    otherwise.  Worlds sharing a signature agree on every fact visible
    to rule matching, so they continue as one group.
    """
    sig = []
    for firing, values in zip(layer, draws):
        if firing.trigger == NEVER:
            sig.append(None)
            continue
        value = values.item(world)
        sig.append(value if firing.trigger == ALWAYS
                   or value in firing.pinned else None)
    return tuple(sig)


def _world_keys(layer: tuple, draws: list) -> np.ndarray | None:
    """One ``int64`` key per world, equal iff the signatures are.

    Mixed radix over the columns' codes (:func:`_column_codes`); the
    key is re-coded to its distinct values whenever the radix would
    overflow ``int64``.  None when no column splits the worlds.
    """
    key = None
    radix = 1
    for firing, values in zip(layer, draws):
        coded = _column_codes(firing, values)
        if coded is None:
            continue
        codes, width = coded
        if key is None:
            key, radix = codes.astype(np.int64), width
            continue
        if radix * width > _KEY_LIMIT:
            distinct, key = np.unique(key, return_inverse=True)
            radix = len(distinct)
        key = key * width + codes
        radix *= width
    return key


def _partition(layer: tuple, draws: list, size: int):
    """Group a fired layer's ``size`` worlds by signature.

    Returns ``(order, groups)``.  ``order`` permutes the worlds so
    that every group is one contiguous run (None: they already are),
    and ``groups`` lists ``(signature, start, stop)`` runs of the
    permuted worlds.  Groups come in the order their first world
    appears, and each keeps its worlds in ascending order - the order
    the pooled draw slicing of later waves relies on.  A constant key
    (:func:`_world_keys`) - one-world tasks included - is one group.
    Each signature is read off the group's first world.
    """
    if size == 0:
        return None, []
    key = _world_keys(layer, draws) if size > 1 else None
    if key is None or not (key != key[0]).any():
        return None, [(_signature(layer, draws, 0), 0, size)]
    _distinct, first, inverse = np.unique(key, return_index=True,
                                          return_inverse=True)
    # Rank the distinct keys by their first world: first-seen order.
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    labels = rank[inverse]
    order = np.argsort(labels, kind="stable")
    stops = np.cumsum(np.bincount(labels)).tolist()
    groups = []
    start = 0
    for world, stop in zip(first[by_first].tolist(), stops):
        groups.append((_signature(layer, draws, world), start, stop))
        start = stop
    return order, groups


# ---------------------------------------------------------------------------
# Columnar possible-world ensemble
# ---------------------------------------------------------------------------

_PENDING = object()


class ColumnarMonteCarloPDB(MonteCarloPDB):
    """A Monte-Carlo SPDB backed by a :class:`BatchOutcome`.

    Worlds are *not* materialized up front: ``marginal`` and
    ``marginal_table`` delegate to the fact readers of
    :mod:`repro.query.columnar` (:func:`~repro.query.columnar.
    fact_mask`, :func:`~repro.query.columnar.fact_totals`), which read
    the sample arrays through the query planner's merged relation
    scan, and the full ``worlds`` list is built lazily on first access
    for callers that genuinely need the instances (events,
    expectations, world-distribution tests).  Results are identical
    either way - the columnar reads are exact counts over the same
    ensemble.  Every world ran the cascade to its end (a batch that
    would truncate one is declined), so none is truncated.
    """

    truncated = 0

    def __init__(self, outcome: BatchOutcome,
                 visible: tuple[str, ...], keep_aux: bool = False):
        # Deliberately skips MonteCarloPDB.__init__: ``_worlds`` is a
        # lazy property here.
        self._outcome = outcome
        self._visible = tuple(visible)
        self._visible_set = frozenset(visible)
        self._keep_aux = bool(keep_aux)
        self._slots: list[Instance] | None = None
        #: How many times the grouped worlds were expanded into per-world
        #: instances.  A tripwire for "columnar" paths that secretly
        #: materialize: stays 0 as long as only columnar reads (marginal
        #: scans, compiled queries) touch this PDB.
        self.materializations = 0
        #: The last plan's answer index, ``(plan, relations read, ids,
        #: answers)``, read and written by :func:`repro.query.columnar.
        #: _answer_index`; relations read is None when the plan was
        #: answered world by world.
        self._answers: tuple | None = None

    # -- columnar plumbing --------------------------------------------------

    @property
    def materialized(self) -> bool:
        """Whether the world list has been built (diagnostics/tests)."""
        return self._slots is not None

    @property
    def growable_relations(self) -> frozenset:
        """Relations that may gain facts after the shared fixpoint.

        Relations outside this set hold exactly :meth:`stable_view`'s
        facts in every world, which is what the columnar query
        planner's lifted fast path relies on.
        """
        return self._outcome.growable

    def stable_view(self) -> Instance:
        """The shared closed instance, restricted the way worlds are.

        For every relation outside :attr:`growable_relations`, this
        view's facts equal that relation's facts in **every** world:
        stable relations never gain a fact after the shared fixpoint.
        """
        return self._view(self._outcome.base)

    def _view(self, instance: Instance) -> Instance:
        return instance if self._keep_aux \
            else instance.restrict(self._visible)

    def _shows(self, relation: str) -> bool:
        """Whether the worlds keep ``relation``'s facts.

        The visible relations, or every relation with ``keep_aux``.
        """
        return self._keep_aux or relation in self._visible_set

    def _column_templates(self, firing: _LayerFiring) -> list[tuple]:
        """(relation, args-with-None, sample position) fact templates.

        Restricted to the visible schema unless auxiliaries are kept:
        companion heads of *normalized* multi-random-term rules are
        ``Split#`` helper relations, which are implementation detail
        exactly like the ``Result#`` auxiliaries.
        """
        if self._keep_aux:
            templates = list(firing.heads)
            templates.append((firing.aux_relation,
                              firing.prefix + (None,),
                              len(firing.prefix)))
            return templates
        return [template for template in firing.heads
                if template[0] in self._visible_set]

    @property
    def _worlds(self) -> list[Instance]:
        return self.world_slots()

    def world_slots(self) -> list[Instance]:
        """Output instance per *world index*, built on first use.

        The lazy ``worlds`` list itself: slot ``i`` is world ``i``'s
        output, so per-world weight/mask vectors (the streaming
        layer's bookkeeping) align with it positionally.
        """
        if self._slots is None:
            self._slots = self._materialize_slots()
        return self._slots

    def _materialize_slots(self) -> list[Instance]:
        self.materializations += 1
        outcome = self._outcome
        # Each world's sampled facts, in firing order (its path's).
        sampled_facts: list[list[Fact]] = [[] for _ in range(outcome.size)]
        for fired in outcome.firings:
            firing = fired.firing
            for world, sampled in zip(fired.worlds.tolist(),
                                      fired.values.tolist()):
                facts = sampled_facts[world]
                if self._keep_aux:
                    facts.append(Fact(firing.aux_relation,
                                      firing.prefix + (sampled,)))
                    facts.extend(firing.head_facts(sampled))
                else:
                    facts.extend(f for f in firing.head_facts(sampled)
                                 if f.relation in self._visible_set)
        slots: list = [_PENDING] * outcome.size
        for group in outcome.groups:
            base = self._view(group.shared)
            for world in group.members.tolist():
                slots[world] = base.add_all(sampled_facts[world])
        missing = sum(1 for slot in slots if slot is _PENDING)
        if missing:
            raise ChaseError(
                f"batch outcome left {missing} worlds unaccounted for")
        return slots

    # -- fast reads ---------------------------------------------------------

    @property
    def n_runs(self) -> int:
        return self._outcome.size

    def total_mass(self) -> float:
        return 1.0

    def marginal(self, f: Fact) -> float:
        """Exact ensemble frequency of ``f``, read columnar."""
        from repro.query.columnar import fact_mask
        return int(np.count_nonzero(fact_mask(self, f))) \
            / self._outcome.size

    def marginal_table(self, relations: tuple[str, ...] | None = None,
                       ) -> list[tuple[str, tuple, float]]:
        """``(relation, args, marginal)`` of every output fact, columnar.

        In canonical fact order.  :func:`repro.pdb.stats.
        marginal_table` and :func:`~repro.pdb.stats.fact_marginals`
        dispatch here, so batch results answer complete marginal
        tables without materializing the ensemble.
        """
        from repro.query.columnar import fact_totals
        size = self._outcome.size
        return [(relation, args, count / size) for relation, args, count
                in fact_totals(self, relations)]

    def subset(self, keep: np.ndarray) -> "ColumnarMonteCarloPDB":
        """The ensemble of the worlds ``keep`` marks, still columnar.

        ``keep`` is one bool per world index, at least one of them
        True.  The kept worlds are renumbered ``0..k-1`` in their
        order, in every group's ``members`` and every firing's
        ``worlds`` (``values`` stay aligned); a group left without
        members is dropped, and a firing without worlds stays, empty,
        so the groups' firing indices and the twins keep their
        meaning.  World ``i`` of the result is the ``i``-th kept
        world, fact for fact, so the result equals a
        :class:`~repro.pdb.database.MonteCarloPDB` over the kept
        ``world_slots()`` without building any of them.  Rejection
        posteriors are this restriction of their batch.
        """
        outcome = self._outcome
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (outcome.size,) or not keep.any():
            raise ValidationError(
                f"subset needs a mask of {outcome.size} worlds with "
                "at least one kept")
        # A kept world's new index: how many kept worlds precede it.
        rank = np.cumsum(keep) - 1
        groups = []
        for group in outcome.groups:
            held = keep[group.members]
            if held.any():
                groups.append(replace(group,
                                      members=rank[group.members[held]]))
        firings = []
        for fired in outcome.firings:
            held = keep[fired.worlds]
            firings.append(replace(fired, worlds=rank[fired.worlds[held]],
                                   values=fired.values[held]))
        kept = replace(outcome, size=int(np.count_nonzero(keep)),
                       groups=tuple(groups), firings=tuple(firings))
        return ColumnarMonteCarloPDB(kept, self._visible,
                                     keep_aux=self._keep_aux)

    def with_firings(self, replacements) -> "ColumnarMonteCarloPDB":
        """The ensemble with some firings' draws swapped, still columnar.

        ``replacements`` are ``(index, fired)`` pairs naming the
        :attr:`BatchOutcome.firings` to swap; the groups and every
        other firing are shared, never copied or written.  A stream's
        forced observation and its retract go through here.  The
        answer index carries over when no swapped firing emits a
        relation the indexed plan read (:meth:`_column_templates`,
        old and new): a world's answer is a function of those
        relations' facts alone, so it cannot have moved.  An index
        answered world by world read everything and starts over.
        """
        firings = list(self._outcome.firings)
        touched = set()
        for index, fired in replacements:
            for swapped in (firings[index], fired):
                touched.update(template[0] for template
                               in self._column_templates(swapped.firing))
            firings[index] = fired
        pdb = ColumnarMonteCarloPDB(
            replace(self._outcome, firings=tuple(firings)),
            self._visible, keep_aux=self._keep_aux)
        held = self._answers
        if held is not None and held[1] is not None \
                and held[1].isdisjoint(touched):
            pdb._answers = held
        return pdb

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "columnar"
        return f"ColumnarMonteCarloPDB(<{self.n_runs} worlds, {state}>)"


# ---------------------------------------------------------------------------
# Observed-sample effects on a finished batch (streaming evidence)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservedColumn:
    """One fired firing an observation touches in a finished batch.

    ``firing_index`` indexes :attr:`BatchOutcome.firings`.
    ``log_density`` is the log importance factor ``log ψ⟨ā⟩(v)`` of
    each of the firing's worlds (``-inf`` when the observed value has
    zero density).  ``force`` says whether the firing's sampled values
    must be overwritten with the observed value to match what a
    likelihood-weighted chase would have emitted; when False every
    world already holds the observed value (it was bound into the
    group signatures), so only the weight applies.
    """

    firing_index: int
    log_density: float
    force: bool


def observation_effects(outcome: BatchOutcome,
                        translated: ExistentialProgram,
                        aux_relation: str, carried: tuple,
                        value) -> list[ObservedColumn]:
    """Where (and whether) an observation lands on a finished batch.

    This is the batched counterpart of the scalar loop's forced
    observed draws (:func:`repro.core.chase.run_chase_prepared`): for
    each fired firing matching ``(aux_relation, carried)``, decide
    whether forcing the observed ``value`` into its already-sampled
    worlds reproduces the likelihood-weighted chase *exactly*.  It
    does iff the value's trigger status matches what the worlds
    actually cascaded on:

    * ``NEVER`` trigger - no sampled value ever enables a downstream
      firing, so forcing is always exact;
    * ``PINNED``, sampled values outside the pin set (unbound) and
      ``value`` also outside - forcing is exact; ``value`` inside the
      pin set would have enabled firings these worlds never ran;
    * ``PINNED``/``ALWAYS``, sampled values bound into the signatures
      - the cascade already reflects them, so the observation is exact
      iff it *equals* each of them (weight-only).

    A pinned firing's worlds are all bound or all unbound whenever no
    rule above refuses: a bound world holds a pin, which only a
    refused observation equals.  Any other combination raises
    :class:`StreamingUnsupported`; callers fall back to the one-shot
    weighted chase.  Worlds that never fired a matching firing keep
    factor 1, exactly like the scalar scheme.
    """
    info = translated.aux_info[aux_relation]
    effects: list[ObservedColumn] = []
    for index, fired in enumerate(outcome.firings):
        firing = fired.firing
        if firing.aux_relation != aux_relation \
                or firing.prefix[:info.n_carried] != carried:
            continue
        _name, params = firing.distribution_key
        density = float(info.distribution.density(params, value))
        log_density = math.log(density) if density > 0 \
            else -math.inf
        values = fired.values
        if firing.trigger == NEVER:
            bound = values[:0]
        elif firing.trigger == ALWAYS:
            bound = values
        else:
            bound = values[np.isin(values, firing.pin_array)]
        for sampled in np.unique(bound):
            if not value == sampled:
                raise StreamingUnsupported(
                    f"observed {aux_relation!r}{carried!r} = {value!r} "
                    f"contradicts the signature-bound sample "
                    f"{sampled!r}; these worlds cascaded on it")
        if len(bound) == len(values):
            effects.append(ObservedColumn(index, log_density, False))
            continue
        if firing.trigger == PINNED and value in firing.pinned:
            raise StreamingUnsupported(
                f"observed {aux_relation!r}{carried!r} = {value!r} "
                "is a trigger value; forcing it would enable "
                "firings the sampled worlds never ran")
        effects.append(ObservedColumn(index, log_density, True))
    return effects
