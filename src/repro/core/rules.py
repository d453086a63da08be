"""GDatalog rules (Definition 3.3) and their well-formedness checks.

A rule ``φ = φ_h(x̄) ← φ_b(x̄)`` has an intensional head atom whose free
variables are among the body's, and a body that is a conjunction of
deterministic atoms.  Rules with a random atom in the head are *random*
rules; the rest are *deterministic*.

The paper's proofs assume each random rule contains exactly one
parameterized distribution; :class:`Rule` enforces the well-formedness
constraints and exposes the structure the translation (Section 3.2)
needs.  Multi-random-term heads are accepted at construction and
rewritten into the single-term normal form by
:mod:`repro.core.normalize` (the paper notes the generalization "using
product densities"; the rewrite realizes it with auxiliary relations).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.atoms import Atom
from repro.core.terms import Const, RandomTerm, Var
from repro.errors import ValidationError
from repro.pdb.schema import Schema


class Rule:
    """A GDatalog rule ``head ← body_1, ..., body_k``.

    An empty body is the paper's ``⊤`` (the rule fires unconditionally,
    on the empty valuation).
    """

    __slots__ = ("head", "body", "label")

    def __init__(self, head: Atom, body: Iterable[Atom] = (),
                 label: str | None = None):
        self.head = head
        self.body = tuple(body)
        self.label = label
        self._validate()

    def _validate(self) -> None:
        for body_atom in self.body:
            if body_atom.is_random():
                raise ValidationError(
                    f"rule body must be deterministic, found random atom "
                    f"{body_atom!r}")
        body_variables = self.body_variable_set()
        head_variables = self.head.variable_set()
        unbound = head_variables - body_variables
        if unbound:
            names = ", ".join(sorted(v.name for v in unbound))
            raise ValidationError(
                f"head variables not bound in body: {names} "
                f"(rule {self!r}); GDatalog requires range restriction")

    # -- structure ------------------------------------------------------------

    def is_random(self) -> bool:
        """Whether the head contains a random term."""
        return self.head.is_random()

    def random_terms(self) -> tuple[RandomTerm, ...]:
        return self.head.random_terms()

    def single_random_term(self) -> tuple[int, RandomTerm]:
        """The unique random position and term of a normal-form rule.

        Raises if the rule is deterministic or has several random terms
        (callers should normalize first; see
        :func:`repro.core.normalize.normalize_program`).
        """
        positions = self.head.random_positions()
        if len(positions) != 1:
            raise ValidationError(
                f"expected exactly one random term, found {len(positions)} "
                f"in {self!r}")
        position = positions[0]
        term = self.head.terms[position]
        assert isinstance(term, RandomTerm)
        return position, term

    def is_normal_form(self) -> bool:
        """Deterministic, or exactly one random term in the head."""
        return len(self.head.random_positions()) <= 1

    def body_variable_set(self) -> frozenset[Var]:
        variables: set[Var] = set()
        for body_atom in self.body:
            variables.update(body_atom.variables())
        return frozenset(variables)

    def frontier(self) -> tuple[Var, ...]:
        """Body variables used by the head, in first-occurrence order.

        These are the variables whose valuation identifies one firing of
        the rule - the ``x̄`` of the translation (3.A)/(3.B).
        """
        head_variables = self.head.variable_set()
        seen: list[Var] = []
        for body_atom in self.body:
            for variable in body_atom.variables():
                if variable in head_variables and variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    def all_variables(self) -> tuple[Var, ...]:
        """All body variables in first-occurrence order (the body's x̄)."""
        seen: list[Var] = []
        for body_atom in self.body:
            for variable in body_atom.variables():
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rule)
                and self.head == other.head
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.head!r} ← ⊤"
        body_text = ", ".join(repr(a) for a in self.body)
        return f"{self.head!r} ← {body_text}"

    # -- validation ----------------------------------------------------------------

    def validate_against(self, schema: Schema,
                         extensional: frozenset[str]) -> None:
        """Check schema typing and the I/E separation of Definition 3.3.

        Heads must be intensional; extensional relations may only occur
        in bodies.
        """
        if self.head.relation in extensional:
            raise ValidationError(
                f"rule head {self.head!r} uses extensional relation; heads "
                "must be intensional (Definition 3.3)")
        self.head.validate_against(schema, intensional=True)
        for body_atom in self.body:
            body_atom.validate_against(schema, intensional=False)
        self._validate_random_typing(schema)

    def _validate_random_typing(self, schema: Schema) -> None:
        relation_schema = schema.get(self.head.relation)
        if relation_schema is None:
            return
        for position in self.head.random_positions():
            term = self.head.terms[position]
            assert isinstance(term, RandomTerm)
            domain = relation_schema.domains[position]
            if term.distribution.is_discrete:
                continue  # numeric samples; checked dynamically
            if domain.is_discrete():
                raise ValidationError(
                    f"continuous distribution {term.distribution.name} "
                    f"cannot fill discrete domain {domain} in {self!r}")


def fact_rule(head: Atom) -> Rule:
    """A bodiless rule ``head ← ⊤`` (ground heads act as facts)."""
    return Rule(head, ())


def iter_constants(rule: Rule) -> Iterator[Const]:
    """All constants appearing anywhere in a rule."""
    atoms = (rule.head, *rule.body)
    for atom_ in atoms:
        for term in atom_.terms:
            if isinstance(term, Const):
                yield term
            elif isinstance(term, RandomTerm):
                for param in term.params:
                    if isinstance(param, Const):
                        yield param
