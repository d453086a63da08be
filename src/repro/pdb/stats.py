"""Summary statistics of (sub-)probabilistic databases.

Convenience analyses on top of the PDB representations: world-level
entropy, most-probable world (MAP), expected instance size, complete
fact-marginal tables (in canonical fact order), and per-relation
summaries.  All functions work on exact, Monte-Carlo and weighted
PDBs through the common interface (estimates in the latter cases);
the sizes, tables and summaries read columnar ensembles without
materializing their worlds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MeasureError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.database import DiscretePDB, MonteCarloPDB, PDBBase
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB


def world_entropy(pdb: DiscretePDB, base: float = 2.0) -> float:
    """Shannon entropy of the world distribution (exact PDBs).

    The error event counts as one more outcome when it has mass, so the
    value is the entropy of the full sub-probability decomposition.
    """
    masses = [probability for _, probability in pdb.worlds()
              if probability > 0.0]
    if pdb.err_mass() > 0.0:
        masses.append(pdb.err_mass())
    if not masses:
        raise MeasureError("entropy of an empty PDB")
    return -sum(p * math.log(p, base) for p in masses)


def map_world(pdb: DiscretePDB) -> tuple[Instance, float]:
    """The most probable world and its probability (ties: canonical).

    Raises if the PDB has no instance mass at all.
    """
    worlds = pdb.worlds()
    if not worlds:
        raise MeasureError("MAP of a PDB with no instance mass")
    return max(worlds, key=lambda pair: (pair[1],
                                         pair[0].canonical_text()))


def expected_size(pdb: PDBBase) -> float:
    """Expected number of facts in a drawn world.

    Columnar ensembles answer from their per-fact ensemble counts:
    ``Σ_D |D| = Σ_f count(f)``, and both sides are exact integers, so
    the value is bit-identical to ``expectation(len)`` without
    materializing any world.  A weighted columnar posterior sums its
    fact marginals the same way, ``E|D| = Σ_f P(f)``.
    """
    from repro.engine.batched import ColumnarMonteCarloPDB
    if isinstance(pdb, ColumnarMonteCarloPDB):
        from repro.query.columnar import fact_totals
        total = sum(int(count) for _relation, _args, count
                    in fact_totals(pdb))
        return total / pdb.n_runs
    if isinstance(pdb, WeightedColumnarPDB):
        return math.fsum(probability for _relation, _args, probability
                         in pdb.marginal_table())
    return pdb.expectation(len)


def marginal_table(pdb: PDBBase,
                   relations: tuple[str, ...] | None = None,
                   ) -> list[tuple[str, tuple, float]]:
    """``(relation, args, marginal)`` of every fact in any world.

    The rows of :func:`fact_marginals` in the same canonical fact
    order (:meth:`Fact.sort_key`), without a :class:`Fact` per row.
    Columnar ensembles (the batched backend's
    :class:`~repro.engine.batched.ColumnarMonteCarloPDB` and its
    weighted posterior) read them straight off their sample arrays,
    already in order; the reply payloads of
    :mod:`repro.serving.protocol` list them as they come.
    """
    columnar = getattr(pdb, "marginal_table", None)
    if columnar is not None:
        return columnar(relations)
    return [(fact.relation, fact.args, probability)
            for fact, probability in fact_marginals(pdb, relations).items()]


def fact_marginals(pdb: PDBBase,
                   relations: tuple[str, ...] | None = None,
                   ) -> dict[Fact, float]:
    """Marginal probability of every fact appearing in any world.

    Restricted to ``relations`` when given.  For exact PDBs the values
    are exact; for Monte-Carlo PDBs they are frequencies.  For every
    kind of PDB the dict iterates in canonical fact order
    (:meth:`Fact.sort_key`).

    Columnar ensembles answer from their sample arrays (see
    :func:`marginal_table`) - same frequencies, no world
    materialization; the other kinds sum over their worlds and sort
    once.
    """
    columnar = getattr(pdb, "marginal_table", None)
    if columnar is not None:
        return {Fact(relation, args): probability
                for relation, args, probability in columnar(relations)}
    totals = _world_marginals(pdb, relations)
    return {fact: totals[fact]
            for fact in sorted(totals, key=Fact.sort_key)}


def _world_marginals(pdb: PDBBase,
                     relations: tuple[str, ...] | None,
                     ) -> dict[Fact, float]:
    """Every fact's marginal, summed over materialized worlds."""
    if isinstance(pdb, DiscretePDB):
        totals: dict[Fact, float] = {}
        for world, probability in pdb.worlds():
            for fact in world.facts:
                if relations is None or fact.relation in relations:
                    totals[fact] = totals.get(fact, 0.0) + probability
        return totals
    if isinstance(pdb, MonteCarloPDB):
        counts: dict[Fact, int] = {}
        for world in pdb.worlds:
            for fact in world.facts:
                if relations is None or fact.relation in relations:
                    counts[fact] = counts.get(fact, 0) + 1
        return {fact: count / pdb.n_runs
                for fact, count in counts.items()}
    if isinstance(pdb, WeightedPDB):
        weighted: dict[Fact, float] = {}
        for world, weight in zip(pdb.worlds, pdb.weights):
            for fact in world.facts:
                if relations is None or fact.relation in relations:
                    weighted[fact] = weighted.get(fact, 0.0) + weight
        total = pdb.total_weight()
        return {fact: mass / total for fact, mass in weighted.items()}
    raise TypeError(f"not a PDB: {pdb!r}")


def size_distribution(pdb: DiscretePDB) -> DiscreteMeasure:
    """Exact distribution of the instance size ``|D|``."""
    return pdb.push_distribution(len)


@dataclass(frozen=True)
class RelationSummary:
    """Per-relation view of a PDB's output."""

    relation: str
    expected_cardinality: float
    min_cardinality: int
    max_cardinality: int
    certain_facts: int  # marginal == 1 (up to tolerance)


def relation_summary(pdb: PDBBase, relation: str,
                     tolerance: float = 1e-9) -> RelationSummary:
    """Cardinality and certainty profile of one output relation.

    The cardinalities are the law of the count query
    ``Aggregate(Scan(relation), (), {"n": agg_count()})`` - compiled to
    numpy over columnar ensembles, so no world is materialized - and
    the certain facts are read off :func:`marginal_table`.  Every PDB
    kind answers, weighted posteriors included.
    """
    from repro.query.aggregates import Aggregate, agg_count
    from repro.query.columnar import (aggregate_distribution,
                                      expected_aggregate)
    from repro.query.relalg import Scan
    count = Aggregate(Scan(relation), (), {"n": agg_count()})
    sizes = [size for size, _mass in
             aggregate_distribution(pdb, count).items()]
    if not sizes:
        raise MeasureError("summary of a PDB with no worlds")
    total = pdb.total_mass()
    certain = sum(1 for _relation, _args, probability
                  in marginal_table(pdb, (relation,))
                  if probability >= total - tolerance)
    return RelationSummary(relation, expected_aggregate(pdb, count),
                           min(sizes), max(sizes), certain)


def summarize_pdb(pdb: PDBBase) -> str:
    """A human-readable multi-line summary of a PDB."""
    lines = []
    if isinstance(pdb, DiscretePDB):
        lines.append(f"exact PDB: {pdb.support_size()} worlds, "
                     f"mass {pdb.total_mass():.6g}, "
                     f"err {pdb.err_mass():.6g}")
        lines.append(f"entropy: {world_entropy(pdb):.4f} bits")
        world, probability = map_world(pdb)
        lines.append(f"MAP world (p={probability:.6g}): "
                     f"{world.canonical_text()}")
    elif isinstance(pdb, MonteCarloPDB):
        lines.append(f"Monte-Carlo PDB: {pdb.n_runs - pdb.truncated} "
                     f"worlds, {pdb.truncated} truncated")
    elif isinstance(pdb, WeightedPDB):
        lines.append(f"weighted PDB: {pdb.n_worlds} worlds, ESS "
                     f"{pdb.effective_sample_size():.1f}")
    lines.append(f"expected size: {expected_size(pdb):.4f} facts")
    return "\n".join(lines)
