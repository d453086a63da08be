"""Conditioning the generative output on constraints (PPDL, §7).

The paper reproduces only the *generative* half of Probabilistic
Programming Datalog; the second half of [3] conditions the generated
distribution on logical constraints, and the paper's conclusion flags
the continuous case as delicate (conditioning on measure-zero events
invites the Borel-Kolmogorov paradox).  This module implements the
unambiguous part as an extension, run through
``Session.observe(*constraints).posterior(method=...)``:

* **Exact conditioning** (``method="exact"``) for discrete programs:
  restrict-and-normalize the enumerated SPDB on a
  *positive-probability* event.  Error mass is conditioned away (we
  condition on "the chase terminates AND the event holds" - the only
  meaningful reading on instances).
* **Rejection sampling** (``method="rejection"``) for arbitrary
  programs: sample worlds, keep those satisfying the event.  Sound
  whenever the event has positive probability; for continuous programs
  this limits constraints to "thick" events (interval conditions,
  counting events), exactly the boundary the paper draws.  Zero
  acceptance raises with a pointer to the measure-zero discussion
  rather than silently looping.
* :class:`ConstrainedProgram` - a generative program packaged with
  constraint events, mirroring [3]'s PPDL = GDatalog + constraints.

Constraints are :class:`repro.pdb.events.Event` objects or Boolean
relational queries (non-empty answer = satisfied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.program import Program
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.events import Event
from repro.pdb.instances import Instance

ConstraintLike = Event | Callable[[Instance], bool]


def _as_predicate(constraint: ConstraintLike,
                  ) -> Callable[[Instance], bool]:
    if isinstance(constraint, Event):
        return constraint.contains
    if callable(constraint):
        return constraint
    raise TypeError(f"not a constraint: {constraint!r}")


def _conjunction(constraints: Sequence[ConstraintLike],
                 ) -> Callable[[Instance], bool]:
    predicates = [_as_predicate(c) for c in constraints]
    return lambda instance: all(p(instance) for p in predicates)


@dataclass(frozen=True)
class RejectionResult:
    """Posterior sample with acceptance accounting.

    ``posterior`` holds the accepted worlds; ``acceptance_rate`` is the
    fraction of *terminating* runs that satisfied the constraints (the
    Monte-Carlo estimate of the constraint probability);
    ``n_truncated`` counts budget-truncated runs (excluded from both).
    """

    posterior: MonteCarloPDB
    n_proposed: int
    n_accepted: int
    n_truncated: int

    @property
    def acceptance_rate(self) -> float:
        terminated = self.n_proposed - self.n_truncated
        if terminated == 0:
            return 0.0
        return self.n_accepted / terminated


class ConstrainedProgram:
    """PPDL-style package: a generative program plus constraints.

    The generative part is a GDatalog program; the constraints condition
    its output SPDB.  ``exact`` is available for discrete programs,
    ``sample`` (rejection) for all programs.
    """

    def __init__(self, program: Program,
                 constraints: Sequence[ConstraintLike] = ()):
        self.program = program
        self.constraints = tuple(constraints)

    def observe(self, constraint: ConstraintLike) -> "ConstrainedProgram":
        """A new package with one more constraint."""
        return ConstrainedProgram(self.program,
                                  self.constraints + (constraint,))

    def _session(self, instance: Instance | None, kwargs: dict):
        """A facade session; ``rng`` seeds its per-run spawn streams."""
        from repro.api.session import compile
        semantics = kwargs.pop("semantics", "grohe")
        rng = kwargs.pop("rng", None)
        if rng is not None:
            kwargs.setdefault("seed", rng)
        return compile(self.program, semantics=semantics).on(instance,
                                                             **kwargs)

    def exact(self, instance: Instance | None = None,
              **kwargs) -> DiscretePDB:
        """Exact posterior (discrete programs).

        Without constraints this conditions on the trivially-true
        event: restrict-and-normalize away the err mass.
        """
        session = self._session(instance, kwargs)
        if not self.constraints:
            return session.exact().pdb.condition(lambda _instance: True)
        return session.observe(*self.constraints).posterior(
            method="exact").pdb

    def sample(self, instance: Instance | None = None, n: int = 1000,
               **kwargs) -> RejectionResult:
        """Rejection-sampled posterior (any program)."""
        evidence = self.constraints or (lambda _instance: True,)
        result = self._session(instance, kwargs).observe(
            *evidence).posterior(method="rejection", n=n)
        return RejectionResult(result.pdb, n,
                               result.diagnostics["n_accepted"],
                               result.n_truncated)

    def prior(self, instance: Instance | None = None,
              **kwargs) -> DiscretePDB:
        """The unconditioned output SPDB (discrete programs)."""
        return self._session(instance, kwargs).exact().pdb

    def __repr__(self) -> str:
        return (f"ConstrainedProgram({len(self.program)} rules, "
                f"{len(self.constraints)} constraints)")
