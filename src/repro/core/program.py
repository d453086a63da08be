"""GDatalog programs: finite collections of rules (Definition 3.3).

A :class:`Program` owns its rules, the (optional) schema, and the
distribution family ``Ψ`` used by its random terms.  It exposes the
derived structure needed downstream: intensional/extensional relation
split, the Datalog-with-existentials translation (via
:mod:`repro.core.translate`), normalization, and validation.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.rules import Rule
from repro.distributions.registry import DEFAULT_REGISTRY, \
    DistributionRegistry
from repro.errors import ValidationError
from repro.pdb.schema import Schema


class Program:
    """An immutable GDatalog program.

    Parameters
    ----------
    rules:
        The rules, in source order (order is irrelevant semantically -
        Theorem 6.1 - but used for deterministic tie-breaking).
    extensional:
        Names of extensional relations.  If omitted, every relation that
        never occurs in a rule head is treated as extensional - the
        usual Datalog convention.
    schema:
        Optional typed schema for validation.
    registry:
        The distribution family ``Ψ``; defaults to the standard family.
    """

    def __init__(self, rules: Iterable[Rule],
                 extensional: Iterable[str] | None = None,
                 schema: Schema | None = None,
                 registry: DistributionRegistry | None = None):
        self.rules = tuple(rules)
        self.schema = schema
        self.registry = registry or DEFAULT_REGISTRY
        if not self.rules:
            raise ValidationError("a program must contain at least one rule")

        head_relations = frozenset(r.head.relation for r in self.rules)
        body_relations = frozenset(
            a.relation for r in self.rules for a in r.body)
        if extensional is None:
            self.extensional = frozenset(body_relations - head_relations)
        else:
            self.extensional = frozenset(extensional)
            clash = self.extensional & head_relations
            if clash:
                raise ValidationError(
                    f"extensional relations in rule heads: {sorted(clash)}")
        self.intensional = frozenset(
            head_relations | (body_relations - self.extensional))
        self._validate()

    def _validate(self) -> None:
        for rule in self.rules:
            if self.schema is not None:
                rule.validate_against(self.schema, self.extensional)

    # -- construction ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str,
              registry: DistributionRegistry | None = None,
              schema: Schema | None = None,
              extensional: Iterable[str] | None = None) -> "Program":
        """Parse the textual GDatalog syntax (see :mod:`repro.core.parser`).

        >>> program = Program.parse('''
        ...     Earthquake(c, Flip<0.1>) :- City(c, r).
        ... ''')
        """
        from repro.core.parser import parse_program
        rules = parse_program(text, registry or DEFAULT_REGISTRY)
        return cls(rules, extensional=extensional, schema=schema,
                   registry=registry or DEFAULT_REGISTRY)

    # -- structure ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def random_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_random())

    def deterministic_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_random())

    def is_deterministic(self) -> bool:
        """Whether the program is plain Datalog (no random rules)."""
        return not any(r.is_random() for r in self.rules)

    def is_discrete(self) -> bool:
        """Whether every random term uses a discrete distribution.

        Discrete programs admit exact chase enumeration
        (:mod:`repro.core.exact`); continuous ones require sampling.
        """
        return all(term.distribution.is_discrete
                   for rule in self.rules
                   for term in rule.random_terms())

    def is_normal_form(self) -> bool:
        """At most one random term per rule (the proofs' assumption)."""
        return all(rule.is_normal_form() for rule in self.rules)

    def distributions_used(self) -> tuple[str, ...]:
        names = {term.distribution.name
                 for rule in self.rules for term in rule.random_terms()}
        return tuple(sorted(names))

    def relations(self) -> tuple[str, ...]:
        return tuple(sorted(self.intensional | self.extensional))

    def head_relations(self) -> frozenset[str]:
        return frozenset(r.head.relation for r in self.rules)

    # -- derived programs --------------------------------------------------------

    def translate(self):
        """The associated Datalog-with-existentials program ``Ĝ``
        (Section 3.2, this paper's per-rule semantics)."""
        from repro.core.translate import translate
        return translate(self)

    def translate_barany(self):
        """The translation matching Bárány et al.'s semantics (§6.2):
        samples keyed by (distribution name, parameters)."""
        from repro.core.translate import translate_barany
        return translate_barany(self)

    def normalized(self) -> "Program":
        """Rewrite to single-random-term normal form
        (:func:`repro.core.normalize.normalize_program`)."""
        from repro.core.normalize import normalize_program
        return normalize_program(self)

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Program)
                and self.rules == other.rules
                and self.extensional == other.extensional)

    def __hash__(self) -> int:
        return hash((self.rules, self.extensional))

    def __repr__(self) -> str:
        lines = [repr(rule) for rule in self.rules]
        return "Program(\n  " + "\n  ".join(lines) + "\n)"

    def pretty(self) -> str:
        """Multi-line source-like rendering."""
        return "\n".join(repr(rule) for rule in self.rules)


def program_of(*rules: Rule, **kwargs) -> Program:
    """Convenience constructor from rule arguments."""
    return Program(rules, **kwargs)
