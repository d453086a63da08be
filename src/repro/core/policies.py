"""Chase policies: measurable selections of ``App`` (Lemma 3.6).

The sequential chase needs, at every instance ``D`` with applicable
pairs, a *choice* of one pair - mathematically a measurable selection
``app`` of the multifunction ``App`` (whose existence Lemma 3.6
establishes via Kuratowski/Ryll-Nardzewski).  Operationally a policy is
a deterministic **function of the applicable set and the instance
alone**: no hidden mutable state, so the same instance always yields
the same choice.  This discipline is what makes our policies honest
selections, and it is what the chase-independence experiments
(Theorem 6.1) quantify over.

Provided policies:

* :class:`FirstPolicy` / :class:`LastPolicy` - extremes of the
  canonical firing order (rule index, then value order);
* :class:`PriorityPolicy` - a user-supplied rule-index priority;
* :class:`RandomTiePolicy` - pseudo-random choice derived from a salted
  hash of the canonicalized instance: different salts give genuinely
  different selections, yet each salt is a pure function ``D ↦ App(D)``;
* :class:`RoundRobinPolicy` - rotates by ``|D| mod k``; again a pure
  function of ``D``.
"""

from __future__ import annotations

import hashlib

from repro.core.applicability import Firing
from repro.errors import ChaseError
from repro.pdb.instances import Instance


class ChasePolicy:
    """A measurable selection: chooses one applicable firing.

    A policy orders ``Session.run``, ``exact`` and the scalar sampling
    loop.  The batched backend samples the same output law under every
    policy that keeps the contract of :meth:`select` (Theorem 6.1), so
    no policy keeps a call off it.
    """

    #: Human-readable name used in reports and benchmarks.
    name: str = "policy"

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        """Pick one firing.  ``applicable`` is canonically sorted and
        non-empty; implementations must be deterministic in
        ``(instance, applicable)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<policy {self.name}>"


class FirstPolicy(ChasePolicy):
    """Always the canonically first applicable firing."""

    name = "first"

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        _require_nonempty(applicable)
        return applicable[0]


class LastPolicy(ChasePolicy):
    """Always the canonically last applicable firing."""

    name = "last"

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        _require_nonempty(applicable)
        return applicable[-1]


class PriorityPolicy(ChasePolicy):
    """Prefer firings of earlier rules in a given priority order.

    ``priority`` lists translated-rule indices, most preferred first;
    unlisted rules come after all listed ones, in canonical order.
    """

    def __init__(self, priority: list[int], name: str = "priority"):
        self.priority = {index: position
                         for position, index in enumerate(priority)}
        self.name = name

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        _require_nonempty(applicable)
        return min(applicable,
                   key=lambda firing: (
                       self.priority.get(firing.rule_index,
                                         len(self.priority)),
                       firing.sort_key()))


class RandomTiePolicy(ChasePolicy):
    """Pseudo-random, state-free selection.

    The choice index is derived from a SHA-256 hash of the salt and the
    instance's canonical text.  Distinct salts behave like independent
    random selections; each fixed salt is a deterministic function of
    the instance, i.e. a legitimate selection of ``App``.
    """

    def __init__(self, salt: int = 0):
        self.salt = int(salt)
        self.name = f"hash[{self.salt}]"

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        _require_nonempty(applicable)
        digest = hashlib.sha256(
            f"{self.salt}|{instance.canonical_text()}".encode()).digest()
        index = int.from_bytes(digest[:8], "big") % len(applicable)
        return applicable[index]


class RoundRobinPolicy(ChasePolicy):
    """Rotate the starting rule with the instance size.

    ``|D| mod len(applicable)`` picks the slot - deterministic in ``D``
    yet spreading choices across rules as the chase proceeds.
    """

    name = "round-robin"

    def select(self, instance: Instance,
               applicable: list[Firing]) -> Firing:
        _require_nonempty(applicable)
        return applicable[len(instance) % len(applicable)]


def _require_nonempty(applicable: list[Firing]) -> None:
    if not applicable:
        raise ChaseError("policy invoked with no applicable firings; "
                         "the chase should have stopped (App = {(,)})")


#: The default selection used when callers do not specify one.
DEFAULT_POLICY = FirstPolicy()


def standard_policies() -> list[ChasePolicy]:
    """The policy battery used by chase-independence experiments (E6)."""
    return [FirstPolicy(), LastPolicy(), RoundRobinPolicy(),
            RandomTiePolicy(1), RandomTiePolicy(2), RandomTiePolicy(3)]
