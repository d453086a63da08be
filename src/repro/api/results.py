"""The unified result object returned by every facade inference call.

Whatever the method - exact enumeration, Monte-Carlo sampling,
rejection conditioning, likelihood weighting - a
:class:`repro.api.Session` hands back one :class:`InferenceResult`
carrying the produced (sub-)probabilistic database together with run
counts, error mass and timing diagnostics.  Query helpers delegate to
the wrapped PDB, so downstream code does not need to care which
representation (exact, ensemble, weighted) the method produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.pdb.database import PDBBase
from repro.pdb.events import Event
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.query.relalg import Query


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one facade inference call.

    ``pdb`` is the produced (sub-)probabilistic database - a
    :class:`~repro.pdb.database.DiscretePDB` (``kind="exact"``), a
    :class:`~repro.pdb.database.MonteCarloPDB` (``kind="sample"``,
    lazy :class:`~repro.engine.batched.ColumnarMonteCarloPDB` when
    batched; ``kind="rejection"``, the accepted worlds - when batched,
    the batch's :meth:`~repro.engine.batched.ColumnarMonteCarloPDB.
    subset` of them, just as lazy) or a
    :class:`~repro.pdb.weighted.WeightedPDB` (``kind="likelihood"``,
    ``"guided"`` and ``"stream"``; the lazy
    :class:`~repro.pdb.weighted.WeightedColumnarPDB` over a batch).
    ``elapsed`` is wall-clock seconds spent inside the call;
    ``diagnostics`` carries method-specific extras (acceptance rate,
    effective sample size, mean importance weight, cache hits, ...).
    """

    pdb: PDBBase
    kind: str
    elapsed: float
    n_runs: int | None = None
    n_truncated: int | None = None
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def backend(self) -> str | None:
        """Which sampling backend produced this result (if sampled).

        ``"scalar"`` or ``"batched"`` for ``kind="sample"`` results.
        Every Monte-Carlo posterior reports ``"batched"`` or ``"scalar"``
        too (``"guided"`` for a guided batch; a scalar posterior also
        carries ``diagnostics["fallback_reason"]``), and a stream
        ``"stream"``; None for exact results.  ``"batched"`` means
        every world stayed vectorized to the end: a batch the engine
        declines, also in the middle of its cascade, runs the scalar
        loop and reports ``"scalar"``.  Batched
        samples additionally report ``n_rounds`` (cascade depth of the
        multi-round batch
        loop), ``n_groups`` (terminal signature groups) and
        ``n_cached_rounds`` (group rounds whose transition the
        session's round cache already held - from an earlier batch,
        or stored as part of a composed round earlier in the same
        batch - so it varies with how warm the session is) and
        ``n_composed_rounds`` (missed group rounds built from cached
        one-trigger rounds) in ``diagnostics``, and their
        ``pdb`` answers ``marginal`` / ``fact_marginals``
        straight from the columnar sample arrays - worlds materialize
        only when accessed.
        """
        return self.diagnostics.get("backend")

    @property
    def effective_sample_size(self) -> float | None:
        """ESS of the importance weights, if this result carries any.

        ``(Σw)² / Σw²`` for likelihood-weighted and streamed
        posteriors - the number of equally-weighted samples the
        estimate is worth.  None for unweighted results (exact,
        plain sampling, rejection).
        """
        ess = self.diagnostics.get("effective_sample_size")
        if ess is not None:
            return ess
        size = getattr(self.pdb, "effective_sample_size", None)
        return size() if callable(size) else None

    # -- delegation to the wrapped PDB --------------------------------------

    def marginal(self, fact: Fact) -> float:
        """(Estimated) probability that ``fact`` holds in the output."""
        return self.pdb.marginal(fact)

    def prob(self, event: Event | Callable[[Instance], bool]) -> float:
        """(Estimated) probability of an instance event."""
        return self.pdb.prob(event)

    def expectation(self,
                    statistic: Callable[[Instance], float]) -> float:
        """(Estimated) expectation of a numeric world statistic."""
        return self.pdb.expectation(statistic)

    def err_mass(self) -> float:
        """Mass of the error event (non-terminating chase paths)."""
        return self.pdb.err_mass()

    def total_mass(self) -> float:
        """Mass assigned to genuine instances (``<= 1``)."""
        return self.pdb.total_mass()

    def fact_marginals(self,
                       relations: tuple[str, ...] | None = None,
                       ) -> dict[Fact, float]:
        """Marginals of every output fact (optionally restricted).

        The dict iterates in canonical fact order (:meth:`Fact.sort_key`).
        """
        from repro.pdb.stats import fact_marginals
        return fact_marginals(self.pdb, relations=relations)

    def query(self, query: Query) -> "QueryResult":
        """Bind a relational-algebra plan to this result's PDB.

        Returns a :class:`QueryResult` whose accessors push the plan
        forward through whatever representation this result carries -
        compiled to numpy over columnar ensembles, evaluated per world
        or per exact branch otherwise.
        """
        return QueryResult(self.pdb, query, self)

    def __repr__(self) -> str:
        runs = f", runs {self.n_runs}" if self.n_runs is not None else ""
        return (f"InferenceResult({self.kind}{runs}, "
                f"mass {self.total_mass():.6g}, "
                f"err {self.err_mass():.6g}, "
                f"{self.elapsed * 1e3:.1f} ms)")


@dataclass(frozen=True)
class QueryResult:
    """A relational query bound to a produced PDB - every reading of it.

    The single façade for query answers, independent of how inference
    ran: the same accessors work over exact enumerations
    (:class:`~repro.pdb.database.DiscretePDB`), sampled ensembles
    (plain or columnar) and weighted posteriors (materialized or
    streamed).  Over columnar ensembles the plan is compiled to numpy
    by :mod:`repro.query.columnar` - including a lifted fast path when
    the plan only reads stable relations - so no accessor here
    materializes worlds unless the plan genuinely cannot be vectorized.
    A columnar ensemble keeps the answer index of the plan object it
    answered last, so every accessor reduces over one evaluation; a
    stream's ensemble keeps it across weights, masks and forced draws
    of relations the plan does not read (:mod:`repro.api.stream`).
    """

    pdb: PDBBase
    query: Query
    #: The inference result that produced ``pdb``, when built through
    #: the facade (``Session.query`` / ``InferenceResult.query``) -
    #: carries run counts, timing and diagnostics for reporting.
    result: "InferenceResult | None" = None

    def distribution(self):
        """Push-forward distribution of the full answer relation.

        Points are canonical forms - ``(columns, sorted rows)`` tuples
        (:meth:`~repro.query.relalg.Relation.canonical`).
        """
        from repro.query.columnar import query_distribution
        return query_distribution(self.pdb, self.query)

    def boolean_probability(self) -> float:
        """Probability that the answer relation is non-empty."""
        from repro.query.columnar import boolean_probability
        return boolean_probability(self.pdb, self.query)

    def expected_aggregate(self, column: str | None = None) -> float:
        """Expected value of a numeric single-valued aggregate plan."""
        from repro.query.columnar import expected_aggregate
        return expected_aggregate(self.pdb, self.query, column)

    def aggregate_distribution(self, column: str | None = None):
        """Distribution of a single-valued aggregate plan's value."""
        from repro.query.columnar import aggregate_distribution
        return aggregate_distribution(self.pdb, self.query, column)

    def answer_probabilities(self,
                             column: str) -> "dict[Any, float]":
        """P(value ∈ answer) for every value the column ever takes."""
        from repro.query.columnar import answer_probabilities
        return answer_probabilities(self.pdb, self.query, column)

    def strategy(self) -> str:
        """How the plan evaluates over this PDB (diagnostics).

        One of ``"lifted"``, ``"columnar"``, ``"fallback"`` or
        ``"worlds"`` - see :func:`repro.query.columnar.explain`.
        """
        from repro.query.columnar import explain
        return explain(self.pdb, self.query)

    def __repr__(self) -> str:
        return (f"QueryResult({type(self.query).__name__} over "
                f"{type(self.pdb).__name__}, {self.strategy()})")
