"""Termination analysis: weak acyclicity and beyond (Section 6.3).

Theorem 6.3 (from [3, Theorem 3.10]): weakly acyclic GDatalog programs
terminate on every input.  Weak acyclicity is the classical criterion
for existential rules, evaluated on the translated program ``Ĝ``:

* build the *position graph* whose nodes are (relation, position)
  pairs;
* for every rule and every variable ``x`` occurring at body position
  ``π`` and head position ``π'``: a **regular** edge ``π → π'``;
* for every existential rule, every body position ``π`` of every
  variable that appears in the head, and the existential position
  ``π''``: a **special** edge ``π ⇒ π''``;
* the program is weakly acyclic iff no cycle traverses a special edge.

Section 6.3 argues further that a cycle through a *continuous*
distribution is fatal: fresh continuous samples almost surely avoid
every finite set, so the rule keeps firing and the program is almost
surely non-terminating.  Cycles through *discrete* distributions may
still terminate with positive probability (the paper leaves bounds to
future work); :func:`estimate_termination_probability` provides the
empirical estimator used by experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.applicability import IncrementalApplicability
from repro.core.chase import run_chase_prepared
from repro.core.policies import DEFAULT_POLICY, ChasePolicy
from repro.core.program import Program
from repro.core.terms import Var
from repro.core.translate import (DetRule, ExistentialProgram, ExtRule,
                                  translate)
from repro.pdb.instances import Instance

Position = tuple[str, int]


def position_graph(translated: ExistentialProgram) -> nx.MultiDiGraph:
    """The dependency graph over (relation, position) nodes.

    Edges carry ``special=True`` for existential edges and a ``rule``
    attribute with the translated-rule index (for diagnostics).
    """
    graph = nx.MultiDiGraph()
    for rule in translated.rules:
        body_positions: dict[Var, list[Position]] = {}
        for body_atom in rule.body:
            for position, term in enumerate(body_atom.terms):
                if isinstance(term, Var):
                    body_positions.setdefault(term, []).append(
                        (body_atom.relation, position))
        if isinstance(rule, DetRule):
            head_positions = [(rule.head.relation, i, term)
                              for i, term in enumerate(rule.head.terms)]
            existential_position = None
        else:
            assert isinstance(rule, ExtRule)
            head_positions = [(rule.aux_relation, i, term)
                              for i, term
                              in enumerate(rule.prefix_terms)]
            existential_position = (rule.aux_relation,
                                    len(rule.prefix_terms))
        head_variables: set[Var] = set()
        for relation, index, term in head_positions:
            if isinstance(term, Var):
                head_variables.add(term)
                for source in body_positions.get(term, ()):
                    graph.add_edge(source, (relation, index),
                                   special=False, rule=rule.index)
        if existential_position is not None:
            graph.add_node(existential_position)
            for variable in head_variables:
                for source in body_positions.get(variable, ()):
                    graph.add_edge(source, existential_position,
                                   special=True, rule=rule.index)
    return graph


@dataclass
class TerminationReport:
    """Result of the static termination analysis.

    ``weakly_acyclic`` implies termination of every chase (Thm 6.3).
    ``special_cycles`` lists (source, target) special edges lying on a
    cycle; ``continuous_cycle`` flags whether any such cycle feeds a
    continuous distribution - the almost-surely-non-terminating case of
    Section 6.3.
    """

    weakly_acyclic: bool
    special_cycles: list[tuple[Position, Position]] = \
        field(default_factory=list)
    continuous_cycle: bool = False
    cyclic_distributions: tuple[str, ...] = ()

    def almost_surely_diverges(self) -> bool:
        """Heuristic per Section 6.3: a continuous special cycle."""
        return self.continuous_cycle

    def __repr__(self) -> str:
        if self.weakly_acyclic:
            return "TerminationReport(weakly acyclic ⇒ terminating)"
        kind = "continuous" if self.continuous_cycle else "discrete"
        return (f"TerminationReport(not weakly acyclic; {kind} cycle "
                f"through {sorted(self.cyclic_distributions)})")


def analyze_termination(program: Program | ExistentialProgram,
                        ) -> TerminationReport:
    """Static analysis: weak acyclicity + cycle classification.

    >>> report = analyze_termination(
    ...     Program.parse("R(Flip<0.5>) :- true."))
    >>> report.weakly_acyclic
    True
    """
    translated = program if isinstance(program, ExistentialProgram) \
        else translate(program)
    graph = position_graph(translated)
    plain = nx.DiGraph()
    plain.add_nodes_from(graph.nodes)
    special_edges = []
    for source, target, data in graph.edges(data=True):
        plain.add_edge(source, target)
        if data.get("special"):
            special_edges.append((source, target))

    bad_edges = [(source, target) for source, target in special_edges
                 if nx.has_path(plain, target, source)]
    if not bad_edges:
        return TerminationReport(True)

    cyclic_distributions = set()
    continuous = False
    for _source, target in bad_edges:
        relation = target[0]
        info = translated.aux_info.get(relation)
        if info is not None:
            cyclic_distributions.add(info.distribution.name)
            if not info.distribution.is_discrete:
                continuous = True
    return TerminationReport(False, bad_edges, continuous,
                             tuple(sorted(cyclic_distributions)))


def weakly_acyclic(program: Program | ExistentialProgram) -> bool:
    """Shorthand for ``analyze_termination(program).weakly_acyclic``."""
    return analyze_termination(program).weakly_acyclic


@dataclass(frozen=True)
class TerminationEstimate:
    """Empirical termination behaviour over sampled chases."""

    n_runs: int
    terminated: int
    max_steps: int
    mean_steps_when_terminated: float

    @property
    def probability(self) -> float:
        return self.terminated / self.n_runs

    def standard_error(self) -> float:
        p = self.probability
        return float(np.sqrt(max(p * (1 - p) / self.n_runs, 0.0)))


def estimate_termination_probability(
        program: Program | ExistentialProgram,
        instance: Instance | None = None,
        n_runs: int = 200,
        max_steps: int = 1000,
        rng: np.random.Generator | int | None = None,
        policy: ChasePolicy | None = None) -> TerminationEstimate:
    """Monte-Carlo estimate of P(chase terminates within ``max_steps``).

    For weakly acyclic programs this is 1 for any sufficient budget;
    for continuous special cycles it is (almost surely) 0 for *every*
    budget; for discrete cycles it estimates the AST behaviour the
    paper marks as future work.
    """
    translated = program if isinstance(program, ExistentialProgram) \
        else translate(program)
    rng = np.random.default_rng(rng) \
        if not isinstance(rng, np.random.Generator) else rng
    root = instance if instance is not None else Instance.empty()
    base = IncrementalApplicability(translated, root)
    chase_policy = policy or DEFAULT_POLICY
    terminated = 0
    steps_sum = 0
    for _ in range(n_runs):
        run = run_chase_prepared(translated, base.fork(), root,
                                 chase_policy, rng,
                                 max_steps=max_steps)
        if run.terminated:
            terminated += 1
            steps_sum += run.steps
    mean_steps = steps_sum / terminated if terminated else float("nan")
    return TerminationEstimate(n_runs, terminated, max_steps, mean_steps)
