"""Deterministic Datalog evaluation: naive and semi-naive fixpoints.

GDatalog degenerates to plain Datalog when no rule is random; moreover
the *deterministic* rules of a translated program ``Ĝ`` (the (3.B)
companions and all originally-deterministic rules) form a Datalog
program whose fixpoint the chase interleaves with sampling.  This
module implements the classic bottom-up engines:

* :func:`naive_fixpoint` - re-derive everything until nothing is new
  (the reference implementation for differential testing);
* :func:`seminaive_fixpoint` - delta-driven: each iteration only joins
  rule bodies that touch at least one newly-derived fact.

Both return the least fixpoint ``T_P^ω(D)`` as a new instance.  They are
exposed publicly (a usable Datalog engine in their own right) and are
benchmarked against each other in the engine-ablation experiment (E13).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.program import Program
from repro.core.rules import Rule
from repro.engine.matching import (IndexedSource, match_atoms,
                                   match_atoms_with_pinned)
from repro.errors import UnsupportedProgramError
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


def _require_deterministic(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    rules = tuple(rules)
    for rule in rules:
        if rule.is_random():
            raise UnsupportedProgramError(
                f"Datalog evaluation requires deterministic rules; "
                f"{rule!r} samples")
    return rules


def naive_fixpoint(program: Program | Sequence[Rule],
                   instance: Instance,
                   max_iterations: int | None = None) -> Instance:
    """Least fixpoint by naive iteration.

    Every iteration evaluates every rule body over the whole current
    instance.  Quadratic and slow - kept as the differential-testing
    baseline for :func:`seminaive_fixpoint`.
    """
    rules = _require_deterministic(
        program.rules if isinstance(program, Program) else program)
    current = instance
    iterations = 0
    while True:
        source = IndexedSource(current.facts)
        new_facts: set[Fact] = set()
        for rule in rules:
            for binding in match_atoms(rule.body, source):
                derived = rule.head.ground(binding)
                if derived not in current:
                    new_facts.add(derived)
        if not new_facts:
            return current
        current = current.add_all(new_facts)
        iterations += 1
        if max_iterations is not None and iterations >= max_iterations:
            return current


def seminaive_fixpoint(program: Program | Sequence[Rule],
                       instance: Instance,
                       max_iterations: int | None = None) -> Instance:
    """Least fixpoint by semi-naive (delta) iteration.

    Iteration ``i`` only considers body matches that use at least one
    fact derived in iteration ``i − 1``, by pinning each body atom to
    each delta fact in turn.  First iteration seeds with the full
    instance as delta (covering bodiless rules via the empty match).
    """
    closed, _source = seminaive_closure(program, instance,
                                        max_iterations)
    return closed


def seminaive_closure(program: Program | Sequence[Rule],
                      instance: Instance,
                      max_iterations: int | None = None,
                      ) -> tuple[Instance, IndexedSource]:
    """:func:`seminaive_fixpoint` plus its warm :class:`IndexedSource`.

    The returned source mirrors the returned instance exactly, with
    every per-signature hash index the evaluation built still attached.
    Callers that keep matching against the fixpoint (the batched chase
    bootstraps its applicability engine on it) reuse the source instead
    of re-indexing the closed instance from scratch.
    """
    rules = _require_deterministic(
        program.rules if isinstance(program, Program) else program)
    source = IndexedSource(instance.facts)
    all_facts: set[Fact] = set(instance.facts)

    # Iteration 0: full evaluation (equivalently: delta = everything).
    delta: set[Fact] = set()
    for rule in rules:
        for binding in match_atoms(rule.body, source):
            derived = rule.head.ground(binding)
            if derived not in all_facts:
                delta.add(derived)

    # Group rules by body relation for delta dispatch.
    by_relation: dict[str, list[tuple[Rule, int]]] = {}
    for rule in rules:
        for position, body_atom in enumerate(rule.body):
            by_relation.setdefault(body_atom.relation, []).append(
                (rule, position))

    iterations = 0
    while delta:
        for f in delta:
            all_facts.add(f)
            source.add_fact(f)
        next_delta: set[Fact] = set()
        for f in delta:
            for rule, position in by_relation.get(f.relation, ()):
                for binding in match_atoms_with_pinned(
                        rule.body, source, position, f):
                    derived = rule.head.ground(binding)
                    if derived not in all_facts and \
                            derived not in next_delta:
                        next_delta.add(derived)
        delta = next_delta
        iterations += 1
        if max_iterations is not None and iterations >= max_iterations:
            for f in delta:
                all_facts.add(f)
                source.add_fact(f)
            break
    return Instance(all_facts), source
