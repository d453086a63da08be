"""Probabilistic databases: probability measures over instances.

Section 2.3 / Definition 2.7: a (standard) PDB is a probability measure
on the space of instances; a *sub*-probabilistic database (SPDB) is a
sub-probability measure, with the deficit read as the probability of an
error event ``err`` (made explicit through the space ``D_err``).  The
output of a GDatalog program is an SPDB (Theorems 4.8/5.5), the deficit
being the mass of non-terminating chase paths.

Two computational representations, one interface (:class:`PDBBase`):

* :class:`DiscretePDB` - an explicit finitely-supported measure over
  instances plus explicit ``err`` mass.  Exact chase enumeration
  produces these; all probabilities are exact rational-like floats.
* :class:`MonteCarloPDB` - an ensemble of sampled possible worlds, with
  truncated (potentially non-terminating) runs counted toward ``err``.
  Continuous programs produce these; probabilities are estimates.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Sequence

from repro.errors import MeasureError
from repro.measures.discrete import DiscreteMeasure
from repro.pdb.events import Event
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

#: Sentinel for the error element of ``D_err`` (Definition 2.7).
ERR = "err"


class PDBBase:
    """Common interface of exact and Monte-Carlo (S)PDBs."""

    def prob(self, event: Event | Callable[[Instance], bool]) -> float:
        """(Estimated) probability that a drawn instance lies in ``event``.

        The error element never satisfies an event: events are subsets
        of the instance space ``D``, and ``err`` lies outside it.
        """
        raise NotImplementedError

    def err_mass(self) -> float:
        """The (estimated) mass of the error event."""
        raise NotImplementedError

    def total_mass(self) -> float:
        """Mass assigned to genuine instances (``<= 1``)."""
        raise NotImplementedError

    def marginal(self, f: Fact) -> float:
        """(Estimated) probability that the fact ``f`` holds."""
        return self.prob(lambda instance: f in instance)

    def map_worlds(self, transform: Callable[[Instance], Instance],
                   ) -> "PDBBase":
        """Push the PDB forward along an instance transformation.

        For measurable ``transform`` this realizes Fact 2.6 (queries are
        measurable functions on PDBs): the result is again an (S)PDB.
        """
        raise NotImplementedError

    def project(self, relations: Iterable[str]) -> "PDBBase":
        """Restrict every world to the given relations (Remark 4.9)."""
        keep = tuple(relations)
        return self.map_worlds(lambda instance: instance.restrict(keep))

    def without_relations(self, relations: Iterable[str]) -> "PDBBase":
        """Drop the given relations from every world (Remark 4.9)."""
        drop = tuple(relations)
        return self.map_worlds(
            lambda instance: instance.without_relations(drop))

    def expectation(self, statistic: Callable[[Instance], float]) -> float:
        """(Estimated) expectation of a numeric statistic of the world.

        Computed conditionally on no error, scaled by the instance mass:
        ``∫ statistic dP`` over ``D`` only.
        """
        raise NotImplementedError


class DiscretePDB(PDBBase):
    """An exact SPDB: finitely-supported measure over instances + err mass.

    Invariant: ``measure.total_mass() + err <= 1 + tolerance``.  A full
    PDB has ``err == 0`` and measure mass 1.
    """

    def __init__(self, measure: DiscreteMeasure, err: float = 0.0):
        for world in measure:
            if not isinstance(world, Instance):
                raise MeasureError(
                    f"DiscretePDB worlds must be instances, got {world!r}")
        if err < -1e-9:
            raise MeasureError("negative error mass")
        total = measure.total_mass() + err
        if total > 1.0 + 1e-6:
            raise MeasureError(
                f"sub-probability violated: total mass {total}")
        self.measure = measure
        self.err = max(float(err), 0.0)

    # -- constructors -------------------------------------------------------

    @classmethod
    def deterministic(cls, instance: Instance) -> "DiscretePDB":
        """The Dirac PDB concentrated on one instance."""
        return cls(DiscreteMeasure.dirac(instance))

    @classmethod
    def from_worlds(cls, worlds: Iterable[tuple[Instance, float]],
                    err: float = 0.0) -> "DiscretePDB":
        return cls(DiscreteMeasure(dict(worlds)), err)

    # -- PDBBase ------------------------------------------------------------

    def prob(self, event: Event | Callable[[Instance], bool]) -> float:
        test = event.contains if isinstance(event, Event) else event
        return self.measure.measure_of(test)

    def err_mass(self) -> float:
        return self.err

    def total_mass(self) -> float:
        return self.measure.total_mass()

    def map_worlds(self, transform: Callable[[Instance], Instance],
                   ) -> "DiscretePDB":
        return DiscretePDB(self.measure.push_forward(transform), self.err)

    def expectation(self, statistic: Callable[[Instance], float]) -> float:
        return self.measure.expectation(statistic)

    # -- exact-only operations -----------------------------------------------

    def worlds(self) -> list[tuple[Instance, float]]:
        """``(instance, probability)`` pairs, canonically ordered."""
        pairs = list(self.measure.items())
        pairs.sort(key=lambda pair: pair[0].canonical_text())
        return pairs

    def support_size(self) -> int:
        return len(self.measure)

    def prob_of_instance(self, instance: Instance) -> float:
        return self.measure.mass(instance)

    def tv_distance(self, other: "DiscretePDB") -> float:
        """Total-variation distance on ``D_err`` (err is one more point)."""
        worlds = self.measure.support() | other.measure.support()
        l1 = sum(abs(self.measure.mass(w) - other.measure.mass(w))
                 for w in worlds)
        return 0.5 * (l1 + abs(self.err - other.err))

    def allclose(self, other: "DiscretePDB", tolerance: float = 1e-9) -> bool:
        """Pointwise agreement of world probabilities and error mass."""
        return (self.measure.allclose(other.measure, tolerance)
                and abs(self.err - other.err) <= tolerance)

    def push_distribution(self, f: Callable[[Instance], Hashable],
                          ) -> DiscreteMeasure:
        """Push-forward of the world measure along a statistic.

        This is the exact form of a query's output distribution
        (Fact 2.6): ``f`` maps worlds to query answers.
        """
        return self.measure.push_forward(f)

    def condition(self, event: Event | Callable[[Instance], bool],
                  ) -> "DiscretePDB":
        """Conditional PDB given an event (extension beyond the paper).

        The paper's future-work section discusses conditioning; for
        events of positive probability on exact SPDBs it is simply a
        normalized restriction.  Error mass is conditioned away.
        """
        test = event.contains if isinstance(event, Event) else event
        restricted = self.measure.restrict(test)
        total = restricted.total_mass()
        if total <= 0.0:
            raise MeasureError("conditioning on a null event")
        return DiscretePDB(restricted.scale(1.0 / total), 0.0)

    def __repr__(self) -> str:
        return (f"DiscretePDB(<{self.support_size()} worlds, mass "
                f"{self.total_mass():.6g}, err {self.err:.6g}>)")


class MonteCarloPDB(PDBBase):
    """An SPDB represented by sampled possible worlds.

    ``worlds`` are the instances of terminating runs; ``truncated``
    counts runs cut off by the step budget (mass attributed to ``err``).
    Estimates come with ``1/sqrt(n)`` Monte-Carlo error; the class
    exposes standard errors where meaningful.
    """

    def __init__(self, worlds: Sequence[Instance], truncated: int = 0):
        self._worlds = list(worlds)
        self.truncated = int(truncated)
        if self.truncated < 0:
            raise MeasureError("negative truncation count")
        if not self._worlds and not self.truncated:
            raise MeasureError("Monte-Carlo PDB needs at least one run")

    @property
    def n_runs(self) -> int:
        return len(self._worlds) + self.truncated

    @property
    def worlds(self) -> list[Instance]:
        return self._worlds

    # -- PDBBase ------------------------------------------------------------

    def prob(self, event: Event | Callable[[Instance], bool]) -> float:
        test = event.contains if isinstance(event, Event) else event
        hits = sum(1 for world in self._worlds if test(world))
        return hits / self.n_runs

    def err_mass(self) -> float:
        return self.truncated / self.n_runs

    def total_mass(self) -> float:
        return len(self._worlds) / self.n_runs

    def map_worlds(self, transform: Callable[[Instance], Instance],
                   ) -> "MonteCarloPDB":
        return MonteCarloPDB([transform(world) for world in self._worlds],
                             self.truncated)

    def expectation(self, statistic: Callable[[Instance], float]) -> float:
        return math.fsum(statistic(world) for world in self._worlds) \
            / self.n_runs

    # -- estimation helpers ----------------------------------------------------

    def prob_standard_error(self, event: Event | Callable[[Instance], bool],
                            ) -> float:
        p = self.prob(event)
        return math.sqrt(max(p * (1 - p) / self.n_runs, 0.0))

    def values_of(self, extract: Callable[[Instance], Iterable[float]],
                  ) -> list[float]:
        """Flatten a per-world numeric extraction over all worlds.

        Typical use: collect all sampled heights to compare against the
        generating Normal distribution.
        """
        collected: list[float] = []
        for world in self._worlds:
            collected.extend(extract(world))
        return collected

    def to_discrete(self) -> DiscretePDB:
        """Empirical exact PDB (merging equal sampled worlds)."""
        measure = DiscreteMeasure.from_samples(self._worlds) \
            .scale(self.total_mass()) if self._worlds \
            else DiscreteMeasure.zero()
        return DiscretePDB(measure, self.err_mass())

    def __repr__(self) -> str:
        return (f"MonteCarloPDB(<{len(self._worlds)} worlds, "
                f"{self.truncated} truncated>)")


def mixture_pdb(components: Sequence[tuple[float, DiscretePDB]],
                ) -> DiscretePDB:
    """Mixture of exact SPDBs with the given weights.

    This realizes Theorem 4.8's second part operationally: a program
    applied to a probabilistic *input* database is the mixture, over
    input worlds, of the per-world output SPDBs.  The output's error
    mass is the weighted sum of the components' errors; any deficit of
    the weights below 1 (the input's own error mass) is the caller's
    to account for, as :meth:`repro.api.CompiledProgram.apply_to_pdb`
    does by adding the input's ``err_mass()``.
    """
    weight_total = math.fsum(weight for weight, _ in components)
    if weight_total > 1.0 + 1e-6:
        raise MeasureError("mixture weights exceed 1")
    measure = DiscreteMeasure.zero()
    err = 0.0
    for weight, component in components:
        measure = measure.add(component.measure.scale(weight))
        err += weight * component.err
    return DiscretePDB(measure, err)
