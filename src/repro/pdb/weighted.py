"""Weighted possible-world ensembles (self-normalized importance sampling).

Likelihood weighting (:mod:`repro.core.observe`) produces worlds with
non-uniform importance weights; :class:`WeightedPDB` holds such an
ensemble and answers queries as self-normalized estimates

    P(E) ≈ Σ w_i · 1[D_i ∈ E] / Σ w_i.

The quality of the estimates is governed by the effective sample size
``ESS = (Σw)² / Σw²``; callers should check :meth:`effective_sample_size`
before trusting the numbers, as usual with importance sampling.

The posteriors of ``Session.posterior`` weight each world by its
evidence likelihood (the product of its observed densities and, for
guided draws, the prior mass of their feasible regions), so their
mean weight estimates the probability of the evidence.
:class:`WeightedColumnarPDB` is the same ensemble over a batched run:
its worlds stay columnar until a caller reads them.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import MeasureError
from repro.pdb.database import DiscretePDB, PDBBase
from repro.pdb.events import Event
from repro.pdb.instances import Instance
from repro.measures.discrete import DiscreteMeasure


class WeightedPDB(PDBBase):
    """Possible worlds with importance weights (posterior estimates).

    All probabilities are *normalized* (posterior semantics): the
    weights' scale cancels.  Worlds with zero weight are kept (they
    document rejected evidence) but carry no mass.
    """

    def __init__(self, worlds: Sequence[Instance],
                 weights: Sequence[float]):
        self._worlds = list(worlds)
        self._weights = [float(w) for w in weights]
        if len(self._worlds) != len(self._weights):
            raise MeasureError("worlds/weights length mismatch")
        if not self._worlds:
            raise MeasureError("weighted PDB needs at least one world")
        self._total = self._checked_total()

    @staticmethod
    def _sum(values) -> float:
        """Sum weights exactly (:class:`WeightedColumnarPDB`: numpy)."""
        return math.fsum(values)

    def _checked_total(self) -> float:
        if np.any(np.asarray(self._weights) < 0):
            raise MeasureError("negative importance weight")
        total = self._sum(self._weights)
        if total <= 0.0:
            raise MeasureError(
                "all importance weights are zero - the evidence has "
                "zero likelihood under the program")
        return total

    @property
    def worlds(self) -> list[Instance]:
        return self._worlds

    @property
    def weights(self) -> Sequence[float]:
        return self._weights

    @property
    def n_worlds(self) -> int:
        return len(self._weights)

    @property
    def n_runs(self) -> int:
        """Alias of ``n_worlds`` (ensemble-size duck type)."""
        return len(self._weights)

    def total_weight(self) -> float:
        return self._total

    def effective_sample_size(self) -> float:
        """``(Σw)² / Σw²`` - the importance-sampling quality measure."""
        squared = self._sum(np.square(self._weights))
        if squared <= 0.0:
            return 0.0
        return self._total * self._total / squared

    # -- PDBBase ------------------------------------------------------------

    def prob(self, event: Event | Callable[[Instance], bool]) -> float:
        test = event.contains if isinstance(event, Event) else event
        hit = math.fsum(w for world, w in zip(self._worlds,
                                              self._weights)
                        if test(world))
        return hit / self._total

    def err_mass(self) -> float:
        return 0.0  # posterior over terminating worlds by construction

    def total_mass(self) -> float:
        return 1.0

    def map_worlds(self, transform: Callable[[Instance], Instance],
                   ) -> "WeightedPDB":
        return WeightedPDB([transform(w) for w in self._worlds],
                           self._weights)

    def expectation(self, statistic: Callable[[Instance], float],
                    ) -> float:
        weighted = math.fsum(w * statistic(world)
                             for world, w in zip(self._worlds,
                                                 self._weights))
        return weighted / self._total

    # -- extras -------------------------------------------------------------

    def values_of(self, extract: Callable[[Instance], Iterable[float]],
                  ) -> list[tuple[float, float]]:
        """``(value, weight)`` pairs flattened over all worlds."""
        collected: list[tuple[float, float]] = []
        for world, weight in zip(self._worlds, self._weights):
            for value in extract(world):
                collected.append((value, weight))
        return collected

    def weighted_mean(self, extract: Callable[[Instance],
                                              Iterable[float]]) -> float:
        """Self-normalized mean of extracted per-world values."""
        pairs = self.values_of(extract)
        total = math.fsum(w for _, w in pairs)
        if total <= 0.0:
            raise MeasureError("no values to average")
        return math.fsum(v * w for v, w in pairs) / total

    def to_discrete(self) -> DiscretePDB:
        """Collapse to an exact PDB over the distinct worlds."""
        masses: dict[Instance, float] = {}
        for world, weight in zip(self._worlds, self._weights):
            masses[world] = masses.get(world, 0.0) + weight
        measure = DiscreteMeasure(
            {w: m / self._total for w, m in masses.items()})
        return DiscretePDB(measure)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(<{self.n_worlds} worlds, ESS "
                f"{self.effective_sample_size():.1f}>)")


class WeightedColumnarPDB(WeightedPDB):
    """A :class:`WeightedPDB` over a *columnar* batch ensemble.

    The lazy counterpart of :class:`WeightedPDB`, as
    :class:`repro.engine.batched.ColumnarMonteCarloPDB` is of
    :class:`~repro.pdb.database.MonteCarloPDB`: it wraps a columnar
    ensemble together with a per-world-index weight vector (worlds
    masked out by event evidence carry weight zero).  Marginal and
    full fact-table queries weight the fact readers of
    :mod:`repro.query.columnar` (a fact's world mask, the per-fact
    totals), which read the sample columns directly; ``worlds`` is
    built only when a caller asks a per-world question (``prob`` /
    ``expectation`` with an arbitrary predicate, ``values_of``).
    Weights stay one numpy vector, summed with numpy.
    """

    def __init__(self, columnar, weights):
        # Deliberately skips WeightedPDB.__init__: ``_worlds`` is a
        # lazy property here.
        self._columnar = columnar
        self._weights = np.asarray(weights, dtype=float)
        if self._weights.shape != (columnar.n_runs,):
            raise MeasureError(
                f"weight vector shape {self._weights.shape} does not "
                f"match the ensemble size ({columnar.n_runs})")
        self._total = self._checked_total()

    @staticmethod
    def _sum(values) -> float:
        return float(np.sum(values))

    @property
    def _worlds(self) -> list[Instance]:
        return self._columnar.world_slots()

    def marginal(self, f) -> float:
        from repro.query.columnar import fact_mask
        mask = fact_mask(self._columnar, f)
        return float(self._weights[mask].sum()) / self._total

    def marginal_table(self, relations=None):
        """``(relation, args, posterior marginal)`` of every output fact.

        Read columnar, in canonical fact order: the duck-typed hook of
        :func:`repro.pdb.stats.marginal_table`, like the unweighted
        columnar ensemble's.
        """
        from repro.query.columnar import fact_totals
        return [(relation, args, total / self._total)
                for relation, args, total
                in fact_totals(self._columnar, relations, self._weights)]
