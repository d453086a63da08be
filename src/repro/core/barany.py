"""Mutual simulation of the two semantics (Section 6.2).

The paper proves its semantics and that of Bárány et al. [3]
inter-simulate by program rewriting:

* **[3] inside ours** (:func:`to_grohe_simulation`): pull sampling out
  into shared relay rules.  For every distribution/arity used by random
  rules we introduce

  .. code-block:: text

      BNeed#ψ(p̄)          ← body_j            (one per random rule j)
      BSample#ψ(p̄, ψ⟨p̄⟩)  ← BNeed#ψ(p̄)        (a single sampling rule)
      R(.., y, ..)         ← body_j, BSample#ψ(p̄, y)

  The single sampling rule samples once per parameter valuation under
  our per-rule semantics - precisely [3]'s keying of samples by
  (distribution name, parameters).  This generalizes the paper's
  ``H ↦ H'`` example (which needs no relay because the bodies are ⊤).

* **Ours inside [3]** (:func:`to_barany_simulation`): tag each rule's
  distribution with a unique constant so no two rules share a
  (distribution, parameters) key - the paper's "tagging individual
  applications with additional parameters".  Tagging uses a same-law
  wrapper (:class:`TaggedDistribution`, an aliased distribution) whose
  first parameter is ignored by the law.

Equivalence statements (verified by tests/benchmarks, experiment E3):
for every discrete program ``G``,

* ``repro.compile(to_grohe_simulation(G), semantics="grohe")
  .on().exact().pdb`` projected to ``G``'s relations equals
  ``repro.compile(G, semantics="barany").on().exact().pdb``;
* ``repro.compile(to_barany_simulation(G), semantics="barany")
  .on().exact().pdb`` projected equals
  ``repro.compile(G, semantics="grohe").on().exact().pdb``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm, Var
from repro.distributions.base import ParameterizedDistribution
from repro.distributions.registry import (AliasedDistribution,
                                          DistributionRegistry)

#: Markers of simulation helper relations ('#' keeps them unparseable).
NEED_PREFIX = "BNeed#"
RELAY_PREFIX = "BSample#"


def is_simulation_relation(name: str) -> bool:
    return name.startswith(NEED_PREFIX) or name.startswith(RELAY_PREFIX)


def _fresh_var(rule: Rule, tag: str) -> Var:
    used = {v.name for v in rule.body_variable_set()}
    used.update(v.name for v in rule.head.variable_set())
    candidate = f"b#{tag}"
    while candidate in used:
        candidate += "'"
    return Var(candidate)


def to_grohe_simulation(program: Program) -> Program:
    """Rewrite so that *our* semantics reproduces [3]'s on ``program``.

    See module docstring.  Deterministic rules pass through; helper
    relations are recognizable via :func:`is_simulation_relation` and
    should be projected away when comparing outputs.
    """
    if not program.is_normal_form():
        program = program.normalized()
    relay_rules: dict[str, Rule] = {}
    rewritten: list[Rule] = []
    for rule in program.rules:
        if not rule.is_random():
            rewritten.append(rule)
            continue
        position, random_term = rule.single_random_term()
        distribution = random_term.distribution
        arity = len(random_term.params)
        key = f"{distribution.name}#{arity}"
        need_relation = f"{NEED_PREFIX}{key}"
        relay_relation = f"{RELAY_PREFIX}{key}"
        params = tuple(random_term.params)

        if params:
            rewritten.append(Rule(Atom(need_relation, params), rule.body))
        else:
            # Zero parameters: no need-relation (atoms need arity >= 1);
            # the relay samples unconditionally, matching H' of §6.2.
            pass
        if key not in relay_rules:
            if params:
                relay_params = tuple(
                    Var(f"q#{i}") for i in range(arity))
                relay_rules[key] = Rule(
                    Atom(relay_relation,
                         relay_params + (RandomTerm(distribution,
                                                    relay_params),)),
                    (Atom(need_relation, relay_params),))
            else:
                relay_rules[key] = Rule(
                    Atom(relay_relation,
                         (RandomTerm(distribution, ()),)), ())

        fresh = _fresh_var(rule, key)
        head_terms = list(rule.head.terms)
        head_terms[position] = fresh
        rewritten.append(Rule(
            Atom(rule.head.relation, head_terms),
            rule.body + (Atom(relay_relation, params + (fresh,)),)))
    rewritten.extend(relay_rules[key] for key in sorted(relay_rules))
    return Program(rewritten, registry=program.registry)


def simulation_helper_relations(program: Program) -> tuple[str, ...]:
    """Helper relations introduced by :func:`to_grohe_simulation`."""
    names = set()
    for rule in program.rules:
        if is_simulation_relation(rule.head.relation):
            names.add(rule.head.relation)
        for body_atom in rule.body:
            if is_simulation_relation(body_atom.relation):
                names.add(body_atom.relation)
    return tuple(sorted(names))


class TaggedDistribution(AliasedDistribution):
    """A law with one ignored leading "tag" parameter.

    ``Tagged(ψ)⟨t, θ⟩ = ψ⟨θ⟩`` for every tag ``t``: the tag carries no
    probabilistic content, but under [3]'s semantics it separates the
    sample keys of different rules.  Every law method forwards to ``ψ``
    without the tag (:class:`AliasedDistribution`), so the tagged family
    samples, truncates and inverts exactly as ``ψ`` does.  Note the
    tagged family is *not* identifiable in the tag coordinate -
    intentionally so; it is a simulation device, not a modelling
    distribution.
    """

    def __init__(self, inner: ParameterizedDistribution):
        super().__init__(inner, f"{inner.name}Tagged")
        if inner.param_arity >= 0:
            self.param_arity = inner.param_arity + 1

    def _inner_params(self, params: Sequence[Any]) -> tuple:
        params = tuple(params)
        if not params:
            raise ValueError("tagged distribution needs a tag parameter")
        return params[1:]

    def validate_params(self, params: Sequence[Any]) -> tuple:
        params = tuple(params)
        inner = self._inner.validate_params(self._inner_params(params))
        return (params[0],) + inner


def to_barany_simulation(program: Program,
                         ) -> tuple[Program, DistributionRegistry]:
    """Rewrite so that [3]'s semantics reproduces *ours* on ``program``.

    Every random term ``ψ⟨p̄⟩`` of rule ``i`` becomes
    ``ψTagged⟨i, p̄⟩``; distinct rules then never share a sample key
    under [3].  Returns the rewritten program together with the
    extended registry containing the tagged families.
    """
    if not program.is_normal_form():
        program = program.normalized()
    registry = program.registry.copy()
    tagged_cache: dict[str, TaggedDistribution] = {}

    def tagged(distribution: ParameterizedDistribution,
               ) -> TaggedDistribution:
        wrapper = tagged_cache.get(distribution.name)
        if wrapper is None:
            wrapper = TaggedDistribution(distribution)
            tagged_cache[distribution.name] = wrapper
            if wrapper.name not in registry:
                registry.register(wrapper)
        return wrapper

    rewritten: list[Rule] = []
    for index, rule in enumerate(program.rules):
        if not rule.is_random():
            rewritten.append(rule)
            continue
        position, random_term = rule.single_random_term()
        wrapper = tagged(random_term.distribution)
        head_terms = list(rule.head.terms)
        head_terms[position] = RandomTerm(
            wrapper, (Const(index),) + tuple(random_term.params))
        rewritten.append(Rule(Atom(rule.head.relation, head_terms),
                              rule.body))
    return Program(rewritten, registry=registry), registry
