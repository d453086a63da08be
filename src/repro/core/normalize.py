"""Normalization: one random term per rule (Section 3.2's assumption).

The paper's proofs assume each probabilistic rule contains exactly one
parameterized distribution, remarking that multiple distributions are
handled "using their product densities".  :func:`normalize_program`
realizes that remark as a semantics-preserving rewrite: a rule

.. code-block:: text

    R(..ψ_1⟨p̄_1⟩.., ..ψ_2⟨p̄_2⟩..) ← body

becomes

.. code-block:: text

    Split#i#1(c̄, p̄_all, ψ_1⟨p̄_1⟩) ← body
    Split#i#2(c̄, p̄_all, ψ_2⟨p̄_2⟩) ← body
    R(..y_1.., ..y_2..) ← body, Split#i#1(c̄, p̄_all, y_1),
                                Split#i#2(c̄, p̄_all, y_2)

where ``c̄`` are the deterministic head terms and ``p̄_all`` the
concatenated parameters of *all* random terms.  Keying every split
relation by the full ``(c̄, p̄_all)`` tuple reproduces the product
semantics exactly: one joint (independent) sample per ground head
instantiation, matching the functional dependency the unsplit rule
would induce ``(c̄, p̄_all) → (y_1, ..., y_j)``.
"""

from __future__ import annotations

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import RandomTerm, Term, Var

#: Marker prefix of normalization helper relations (unparseable: '#').
SPLIT_PREFIX = "Split#"


def is_split_relation(name: str) -> bool:
    """Whether a relation was introduced by normalization."""
    return name.startswith(SPLIT_PREFIX)


def _fresh_var(rule: Rule, tag: str) -> Var:
    used = {v.name for v in rule.body_variable_set()}
    used.update(v.name for v in rule.head.variable_set())
    candidate = f"v#{tag}"
    while candidate in used:
        candidate += "'"
    return Var(candidate)


def normalize_rule(rule: Rule, rule_tag: str) -> list[Rule]:
    """Rewrite one rule into single-random-term normal form.

    Rules already in normal form are returned unchanged (singleton
    list); see the module docstring for the rewrite.
    """
    random_positions = rule.head.random_positions()
    if len(random_positions) <= 1:
        return [rule]

    carried_terms: list[Term] = [
        term for i, term in enumerate(rule.head.terms)
        if i not in random_positions]
    all_params: list[Term] = []
    for position in random_positions:
        term = rule.head.terms[position]
        assert isinstance(term, RandomTerm)
        all_params.extend(term.params)
    shared_columns = tuple(carried_terms) + tuple(all_params)

    new_rules: list[Rule] = []
    recombination_body: list[Atom] = list(rule.body)
    replacement: dict[int, Var] = {}
    for split_index, position in enumerate(random_positions):
        term = rule.head.terms[position]
        assert isinstance(term, RandomTerm)
        split_relation = f"{SPLIT_PREFIX}{rule_tag}#{split_index}"
        new_rules.append(Rule(
            Atom(split_relation, shared_columns + (term,)), rule.body))
        fresh = _fresh_var(rule, f"{rule_tag}#{split_index}")
        replacement[position] = fresh
        recombination_body.append(
            Atom(split_relation, shared_columns + (fresh,)))

    head_terms = [replacement.get(i, term)
                  for i, term in enumerate(rule.head.terms)]
    new_rules.append(Rule(Atom(rule.head.relation, head_terms),
                          recombination_body))
    return new_rules


def normalize_program(program: Program) -> Program:
    """Rewrite every multi-random-term rule; fixpoint of the program.

    Returns the program unchanged (same object) when already normal.
    """
    if program.is_normal_form():
        return program
    rewritten: list[Rule] = []
    for index, rule in enumerate(program.rules):
        rewritten.extend(normalize_rule(rule, str(index)))
    return Program(rewritten, schema=None, registry=program.registry)
