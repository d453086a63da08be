"""Exact chase-tree enumeration for discrete programs.

For programs whose random terms all use discrete distributions, the
chase tree (Definition 4.2 / 5.2) is countably branching and every
branch probability is computable in closed form.  This module
enumerates the tree and pushes the path measure forward along
``lim-inst`` (Section 4.2) *exactly*, producing a
:class:`repro.pdb.database.DiscretePDB`:

* finite (stable) paths contribute their probability to their final
  instance;
* paths cut off by the depth budget, and tail mass beyond a
  distribution's truncated support (Poisson, Geometric), contribute to
  the explicit ``err`` mass - the sub-probability deficit of
  Definition 2.7.  For weakly-acyclic programs with finite-support
  distributions the err mass is exactly 0.

Both tree flavours are supported: sequential (needs a policy -
Theorem 6.1 says the result does not depend on it, which tests verify)
and parallel (policy-free; branches are product distributions over all
simultaneously-firing existential pairs, Definition 5.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.applicability import Firing
from repro.core.chase import make_engine
from repro.core.policies import DEFAULT_POLICY, ChasePolicy
from repro.core.program import Program
from repro.core.translate import (ExistentialProgram,
                                  validate_params_in_theta)
from repro.errors import UnsupportedProgramError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

#: Default bound on chase-tree depth (number of steps along a path).
DEFAULT_MAX_DEPTH = 200
#: Default truncation tolerance for infinite discrete supports.
DEFAULT_SUPPORT_TOLERANCE = 1e-12


def _require_discrete(translated: ExistentialProgram) -> None:
    for name, info in translated.aux_info.items():
        if not info.distribution.is_discrete:
            raise UnsupportedProgramError(
                f"exact enumeration needs discrete distributions; "
                f"{name} samples {info.distribution.name} (continuous). "
                "Use Session.sample(n) for Monte-Carlo semantics "
                "instead.")


def _branches(translated: ExistentialProgram, firing: Firing,
              tolerance: float) -> tuple[list[tuple[Fact, float]], float]:
    """Branching of one firing: ``[(fact, probability)]`` and residue.

    Deterministic firings have a single branch of probability 1
    (Eq. 4.B); existential firings branch over the (truncated) support
    of ``ψ⟨ā⟩`` (Eq. 4.A).
    """
    if not firing.existential:
        return [(firing.fact(), 1.0)], 0.0
    info = translated.aux_info[firing.relation]
    ext_rule = translated.rules[firing.rule_index]
    params = validate_params_in_theta(
        ext_rule, firing.values[info.n_carried:])
    support, residue = info.distribution.truncated_support(
        params, tolerance)
    return [(firing.fact(value), mass) for value, mass in support], residue


def exact_sequential_spdb(program: Program | ExistentialProgram,
                          instance: Instance | None = None,
                          policy: ChasePolicy | None = None,
                          max_depth: int = DEFAULT_MAX_DEPTH,
                          tolerance: float = DEFAULT_SUPPORT_TOLERANCE,
                          keep_aux: bool = False) -> DiscretePDB:
    """Exact output SPDB via the sequential chase tree.

    Enumerates ``T_app,D0`` depth-first with exact branch probabilities.
    ``max_depth`` bounds path length; unresolved mass goes to ``err``.

    >>> pdb = exact_sequential_spdb(Program.parse("R(Flip<0.5>) :- true."))
    >>> sorted(round(p, 3) for _, p in pdb.worlds())
    [0.5, 0.5]
    """
    translated = _as_translated(program)
    _require_discrete(translated)
    instance = instance if instance is not None else Instance.empty()
    policy = policy or DEFAULT_POLICY

    outcome_masses: dict[Instance, float] = {}
    err_mass = 0.0
    # Depth-first worklist of (engine, instance, probability, depth).
    stack = [(make_engine(translated, instance), instance, 1.0, 0)]
    while stack:
        engine, current, probability, depth = stack.pop()
        applicable = engine.applicable()
        if not applicable:
            outcome_masses[current] = \
                outcome_masses.get(current, 0.0) + probability
            continue
        if depth >= max_depth:
            err_mass += probability
            continue
        firing = policy.select(current, applicable)
        branches, residue = _branches(translated, firing, tolerance)
        err_mass += probability * residue
        for branch_index, (new_fact, mass) in enumerate(branches):
            # The last branch may reuse this node's engine (no fork).
            child = engine if branch_index == len(branches) - 1 \
                else engine.fork()
            child.add_fact(new_fact)
            stack.append((child, current.add(new_fact),
                          probability * mass, depth + 1))

    return _finalize(translated, outcome_masses, err_mass, keep_aux)


def exact_parallel_spdb(program: Program | ExistentialProgram,
                        instance: Instance | None = None,
                        max_depth: int = DEFAULT_MAX_DEPTH,
                        tolerance: float = DEFAULT_SUPPORT_TOLERANCE,
                        keep_aux: bool = False) -> DiscretePDB:
    """Exact output SPDB via the parallel chase tree (Definition 5.2).

    Each node branches over the product of all its existential firings'
    supports - the product measure of Definition 5.1 - while all
    deterministic firings extend every branch.
    """
    translated = _as_translated(program)
    _require_discrete(translated)
    instance = instance if instance is not None else Instance.empty()

    outcome_masses: dict[Instance, float] = {}
    err_mass = 0.0
    stack = [(make_engine(translated, instance), instance, 1.0, 0)]
    while stack:
        engine, current, probability, depth = stack.pop()
        applicable = engine.applicable()
        if not applicable:
            outcome_masses[current] = \
                outcome_masses.get(current, 0.0) + probability
            continue
        if depth >= max_depth:
            err_mass += probability
            continue
        deterministic_facts: list[Fact] = []
        existential_branches: list[list[tuple[Fact, float]]] = []
        covered = 1.0
        for firing in applicable:
            branches, residue = _branches(translated, firing, tolerance)
            if firing.existential:
                existential_branches.append(branches)
                covered *= (1.0 - residue)
            else:
                deterministic_facts.append(branches[0][0])
        err_mass += probability * (1.0 - covered)
        combinations = itertools.product(*existential_branches) \
            if existential_branches else [()]
        for combination in combinations:
            mass = 1.0
            new_facts = list(deterministic_facts)
            for new_fact, branch_mass in combination:
                mass *= branch_mass
                new_facts.append(new_fact)
            child = engine.fork()
            for new_fact in new_facts:
                child.add_fact(new_fact)
            stack.append((child, current.add_all(new_facts),
                          probability * mass, depth + 1))

    return _finalize(translated, outcome_masses, err_mass, keep_aux)


def _finalize(translated: ExistentialProgram,
              outcome_masses: dict[Instance, float], err_mass: float,
              keep_aux: bool) -> DiscretePDB:
    measure = DiscreteMeasure(outcome_masses)
    pdb = DiscretePDB(measure, err_mass)
    if keep_aux:
        return pdb
    return pdb.project(translated.visible_relations())


def _as_translated(program: Program | ExistentialProgram,
                   ) -> ExistentialProgram:
    if isinstance(program, ExistentialProgram):
        return program
    return program.translate()


# ---------------------------------------------------------------------------
# Explicit chase trees (diagnostics, Figure 1, Lemma C.4 checks)
# ---------------------------------------------------------------------------

@dataclass
class ChaseNode:
    """A node of an explicitly materialized (bounded) chase tree.

    ``firing`` is None at leaves (no applicable pair - the paper's
    ``(,)`` label) and at budget-cut nodes (marked ``truncated``).
    ``children`` pairs each child with its branch probability.
    """

    instance: Instance
    probability: float
    depth: int
    firing: Firing | None = None
    truncated: bool = False
    children: list["ChaseNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["ChaseNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> Iterator["ChaseNode"]:
        for node in self.iter_nodes():
            if node.is_leaf():
                yield node


def enumerate_chase_tree(program: Program | ExistentialProgram,
                         instance: Instance | None = None,
                         policy: ChasePolicy | None = None,
                         max_depth: int = 25,
                         tolerance: float = DEFAULT_SUPPORT_TOLERANCE,
                         ) -> ChaseNode:
    """Materialize the (bounded) sequential chase tree ``T_app,D0``.

    Intended for inspection and tests (e.g. Lemma C.4: no instance
    labels two nodes); use :func:`exact_sequential_spdb` for semantics.
    """
    translated = _as_translated(program)
    _require_discrete(translated)
    instance = instance if instance is not None else Instance.empty()
    policy = policy or DEFAULT_POLICY

    root = ChaseNode(instance, 1.0, 0)
    worklist = [(make_engine(translated, instance), root)]
    while worklist:
        engine, node = worklist.pop()
        applicable = engine.applicable()
        if not applicable:
            continue
        if node.depth >= max_depth:
            node.truncated = True
            continue
        firing = policy.select(node.instance, applicable)
        node.firing = firing
        branches, _residue = _branches(translated, firing, tolerance)
        for branch_index, (new_fact, mass) in enumerate(branches):
            child_engine = engine if branch_index == len(branches) - 1 \
                else engine.fork()
            child_engine.add_fact(new_fact)
            child = ChaseNode(node.instance.add(new_fact),
                              node.probability * mass, node.depth + 1)
            node.children.append(child)
            worklist.append((child_engine, child))
    return root
