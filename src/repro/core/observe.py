"""Likelihood weighting: conditioning on sample-level observations.

The paper's conclusion warns that conditioning a continuous GDatalog
program on logical constraints invites measure-zero trouble (the
Borel-Kolmogorov paradox).  There is, however, one family of
conditioning events that *is* unambiguous even in the continuous case:
fixing the value of an individual **sample** - i.e. disintegrating
along a sample coordinate of the chase.  Operationally this is the
classic *likelihood weighting* scheme for Bayesian networks, lifted to
GDatalog:

* an :class:`Observation` pins the random attribute of one rule head:
  "the sample produced for head relation ``R`` with carried values
  ``c̄`` equals ``v``";
* during each chase run, an existential firing matching an observation
  does not sample: it *forces* the observed value and multiplies the
  run's importance weight by the density ``ψ⟨ā⟩(v)``;
* the resulting weighted ensemble (:class:`repro.pdb.weighted.WeightedPDB`)
  is a self-normalized estimate of the posterior.

``Session.observe(*observations).posterior(method="likelihood")`` runs
the scheme; this module holds the observation type and the index that
both chase backends read: the scalar loop forces indexed draws in
:func:`repro.core.chase.run_chase_prepared`, and the batched backend
pins them as single-point regions (:mod:`repro.core.backward`).  It
also holds :func:`as_evidence`, the one check of what the two
conditioning entry points (``Session.observe`` and
``StreamingPosterior.observe``) accept.

For discrete programs this provably agrees with exact conditioning on
the corresponding fact event (tested); for continuous programs it
computes the density-weighted posterior that rejection sampling cannot
reach (e.g. the textbook Normal-Normal update, see the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.translate import ExistentialProgram, ExtRule
from repro.errors import ValidationError
from repro.pdb.events import ContainsFactEvent, Event, EventLike
from repro.pdb.facts import Fact, normalize_value


@dataclass(frozen=True)
class Observation:
    """Evidence on one sample: head relation + carried values ↦ value.

    ``carried`` are the ground values of the head's *deterministic*
    argument positions in order (the random position excluded).  For a
    head ``PHeight(p, Normal⟨µ, σ²⟩)`` observing person ``ada``'s height:
    ``Observation("PHeight", ("ada",), 172.5)``.
    """

    relation: str
    carried: tuple
    value: object

    def __post_init__(self):
        object.__setattr__(self, "carried",
                           tuple(normalize_value(v)
                                 for v in self.carried))
        object.__setattr__(self, "value", normalize_value(self.value))


def observe(relation: str, *carried_then_value) -> Observation:
    """Convenience constructor: last argument is the observed value.

    >>> observe("PHeight", "ada", 172.5)
    Observation(relation='PHeight', carried=('ada',), value=172.5)
    """
    if not carried_then_value:
        raise ValidationError("observe needs at least the value")
    return Observation(relation, tuple(carried_then_value[:-1]),
                       carried_then_value[-1])


#: Evidence the conditioning entry points accept; a bare :class:`Fact`
#: is shorthand for its :class:`~repro.pdb.events.ContainsFactEvent`.
Evidence = Observation | Fact | EventLike


def as_evidence(item: Evidence) -> Observation | EventLike:
    """One evidence item, checked, with a bare fact as its event.

    ``ContainsFactEvent`` is the one fact event: a :class:`Fact`
    becomes ``ContainsFactEvent(fact)``, the event that the fact
    holds.  Observations, events and predicates on instances pass as
    they are; anything else raises :class:`ValidationError`.
    """
    if isinstance(item, Fact):
        return ContainsFactEvent(item)
    if isinstance(item, (Observation, Event)) or callable(item):
        return item
    raise ValidationError(
        f"not evidence: {item!r} (expected an Observation, a Fact, an "
        "Event, or a predicate on instances)")


def _observation_index(translated: ExistentialProgram,
                       observations: Sequence[Observation],
                       ) -> dict[tuple, object]:
    """Map (aux relation, carried values) to observed values.

    Raises when an observation names a relation no random rule heads -
    silent typos would otherwise produce unweighted prior samples.
    """
    by_relation: dict[str, list[ExtRule]] = {}
    for rule in translated.existential_rules():
        if rule.origin is not None:
            by_relation.setdefault(rule.origin.head.relation,
                                   []).append(rule)
    index: dict[tuple, object] = {}
    for observation in observations:
        rules = by_relation.get(observation.relation)
        if not rules:
            raise ValidationError(
                f"no random rule produces {observation.relation!r}; "
                "cannot observe its sample")
        for rule in rules:
            index[(rule.aux_relation, observation.carried)] = \
                observation.value
    return index
