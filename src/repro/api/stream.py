"""Streaming evidence: incremental posteriors over a sampled batch.

``session.observe(...).posterior()`` restarts inference from scratch on
every call - O(program) per observation.  A
:class:`StreamingPosterior` instead samples the columnar prior ensemble
*once* (:class:`repro.engine.batched.ColumnarMonteCarloPDB`) and then
updates it in place per evidence item, O(evidence):

* a sample-level :class:`~repro.core.observe.Observation` multiplies a
  per-world log-weight vector by the observation density - one numpy
  op over the batch's sample columns - and *forces* the observed value
  into the matching columns, exactly what a likelihood-weighted chase
  would have emitted (the batched counterpart of
  :func:`repro.core.observe._fire_observed`);
* an instance event (:class:`~repro.pdb.events.Event`, predicate, or a
  single :class:`~repro.pdb.facts.Fact`) becomes a boolean world mask
  (rejection-style conditioning on the already-sampled ensemble);
* :meth:`~StreamingPosterior.retract` undoes either kind exactly -
  evidence records carry their weight delta and the pre-forcing column
  arrays - and ``max_window`` turns the stream into a sliding window
  by auto-retracting the oldest evidence.

Exactness is policed, not assumed: when forcing an observed value into
the pre-sampled worlds would change their cascade (the value would
have enabled rule firings the worlds never ran),
:class:`~repro.errors.StreamingUnsupported` is raised and the caller
falls back to the one-shot weighted chase.  While no resampling
triggers, streamed marginals are *identical* to
``posterior(method="likelihood")`` with the same seed.

Weight degeneracy is handled particle-filter style: the effective
sample size ``(Σw)²/Σw²`` is tracked per update, and when it drops
below ``resample_threshold x live worlds`` the stream resamples
systematically - worlds are kept columnar and receive integer
replication *counts*, drawn from a dedicated
:class:`~numpy.random.SeedSequence` child stream so resampled output
is reproducible and independent of the per-world sampling streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api.config import ChaseConfig, world_rng
from repro.api.results import InferenceResult
from repro.core.observe import Observation, _observation_index
from repro.core.policies import DEFAULT_POLICY
from repro.errors import (MeasureError, StreamingUnsupported,
                          ValidationError)
from repro.pdb.events import Event
from repro.pdb.facts import Fact
from repro.pdb.weighted import WeightedColumnarPDB

#: Evidence accepted by :meth:`StreamingPosterior.observe`.
StreamEvidence = Observation | Fact | Event | Callable


@dataclass
class _EvidenceRecord:
    """One applied evidence item, with everything needed to undo it."""

    token: int
    kind: str                       # "observation" | "mask"
    description: str
    stamp: int                      # self._resamples at application
    retracted: bool = False
    # observation bookkeeping
    key: tuple | None = None        # (relation, carried)
    log_delta: np.ndarray | None = None
    saved_columns: list = field(default_factory=list)
    # mask bookkeeping
    predicate: Callable | None = None
    mask: np.ndarray | None = None


class StreamingPosterior:
    """A sampled prior ensemble that conditions incrementally.

    Construct through :meth:`repro.api.Session.stream`.  The prior is
    sampled once through the batched backend (the stream *requires*
    it: per-world weights index the batch's columnar sample arrays);
    every :meth:`observe` then costs one numpy pass over the touched
    columns, never a chase.
    """

    def __init__(self, session, cfg: ChaseConfig, n: int,
                 max_window: int | None = None):
        if n <= 0:
            raise ValidationError(f"need n >= 1 worlds, got {n}")
        if isinstance(cfg.seed, np.random.Generator):
            raise ValidationError(
                "streaming requires an int (or None) seed: the "
                "resampling stream is derived from it")
        if max_window is not None and (
                isinstance(max_window, bool)
                or not isinstance(max_window, int) or max_window <= 0):
            raise ValidationError(
                f"max_window must be a positive int or None, got "
                f"{max_window!r}")
        if cfg.policy is not None and not getattr(
                cfg.policy, "batch_safe", False):
            raise StreamingUnsupported(
                "streaming runs on the batched backend; the "
                "configured policy is not batch-safe")
        if not session._batch_eligible(cfg):
            raise StreamingUnsupported(
                "streaming runs on the batched backend, which this "
                "program/config is outside (parallel chase, trace "
                "recording, or no weak-acyclicity certificate)")
        batched = session._batched_chase()
        if batched is None:
            raise StreamingUnsupported(
                "streaming runs on the batched backend, which "
                "declined this program/instance")
        cfg = cfg.replace(shards=None)
        self._session = session
        self._cfg = cfg
        self._translated = session.compiled.translated
        self._visible = session.compiled.visible_relations
        self._n = n
        self._max_window = max_window
        world_rngs = cfg.spawn_rngs(n)
        # The resampling streams are worlds n, n+1, ... of the same
        # root as the per-world sampling streams (worlds 0..n-1), so
        # they never collide - also under a fresh (None) seed.
        self._entropy = world_rngs.entropy
        outcome = batched.run_batch(
            n, cfg.base_rng(), world_rngs,
            cfg.policy or DEFAULT_POLICY, cfg.max_steps,
            cfg.batch_min_group)
        if outcome is None:
            raise StreamingUnsupported(
                "the batched backend declined this batch (step "
                "budget too tight); raise max_steps or use "
                "posterior(method='likelihood')")
        self._outcome = outcome
        self._pdb = self._wrap(outcome)
        self._log_weights = np.zeros(n)
        self._counts = np.ones(n)
        self._base_alive = np.ones(n, dtype=bool)
        for index, run in outcome.scalar_runs:
            if not run.terminated:
                self._base_alive[index] = False
        self._alive = self._base_alive.copy()
        self._records: dict[int, _EvidenceRecord] = {}
        self._order: list[int] = []
        self._next_token = 0
        self._resamples = 0
        for item in session.evidence:
            self.observe(item)

    # -- construction helpers ------------------------------------------------

    def _wrap(self, outcome):
        from repro.engine.batched import ColumnarMonteCarloPDB
        return ColumnarMonteCarloPDB(outcome, self._visible,
                                     keep_aux=self._cfg.keep_aux)

    # -- state ---------------------------------------------------------------

    @property
    def n_worlds(self) -> int:
        """Batch size (world slots, dead ones included)."""
        return self._n

    @property
    def n_alive(self) -> int:
        """Worlds (counting resample replication) carrying any mass."""
        return int(self._counts[self._alive].sum())

    @property
    def n_evidence(self) -> int:
        """Currently active (non-retracted) evidence items."""
        return sum(1 for token in self._order
                   if not self._records[token].retracted)

    @property
    def resamples(self) -> int:
        return self._resamples

    @property
    def weights(self) -> np.ndarray:
        """Per-world-slot importance weights (dead slots zero)."""
        return np.where(self._alive,
                        self._counts * np.exp(self._log_weights), 0.0)

    def effective_sample_size(self) -> float:
        """``(Σw)² / Σw²`` of the current weights."""
        w = self.weights
        squared = float((w * w).sum())
        if squared <= 0.0:
            return 0.0
        total = float(w.sum())
        return total * total / squared

    # -- evidence ------------------------------------------------------------

    def observe(self, evidence: StreamEvidence) -> int:
        """Apply one evidence item in place; returns a retraction token.

        :class:`Observation` evidence reweights (and forces) the
        matching sample columns; a :class:`Fact`, :class:`Event` or
        predicate masks out the worlds violating it.  Raises
        :class:`StreamingUnsupported` when the update cannot be exact
        (see the module docstring) - the stream is left untouched.
        """
        if isinstance(evidence, Observation):
            record = self._observe_observation(evidence)
        elif isinstance(evidence, Fact):
            record = self._observe_mask(
                evidence, lambda pdb: pdb.fact_mask(evidence))
        elif isinstance(evidence, Event) or callable(evidence):
            test = evidence.contains if isinstance(evidence, Event) \
                else evidence
            record = self._observe_mask(
                evidence, lambda pdb: np.fromiter(
                    (world is not None and bool(test(world))
                     for world in pdb.world_slots()),
                    dtype=bool, count=self._n))
        else:
            raise ValidationError(
                f"not evidence: {evidence!r} (expected an Observation, "
                "a Fact, an Event, or a predicate on instances)")
        self._records[record.token] = record
        self._order.append(record.token)
        self._enforce_window()
        self._maybe_resample()
        return record.token

    def _observe_observation(self, obs: Observation) -> _EvidenceRecord:
        from repro.engine.batched import observation_effects
        key = (obs.relation, obs.carried)
        for token in self._order:
            record = self._records[token]
            if not record.retracted and record.key == key:
                raise ValidationError(
                    f"{obs.relation}{obs.carried!r} is already "
                    "observed (token "
                    f"{record.token}); retract it first")
        index = _observation_index(self._translated, [obs])
        effects = []
        for (aux_relation, carried), value in index.items():
            effects.extend(observation_effects(
                self._outcome, self._translated, aux_relation,
                carried, value))
        delta = np.zeros(self._n)
        saved: list[tuple[int, int, np.ndarray]] = []
        for effect in effects:
            members = \
                self._outcome.groups[effect.group_index].members
            delta[members] += effect.log_density
            if effect.force:
                group = self._outcome.groups[effect.group_index]
                saved.append((effect.group_index, effect.column_index,
                              group.columns[effect.column_index][1]))
        if saved:
            self._force_columns(saved, obs.value)
        self._log_weights += delta
        token = self._next_token
        self._next_token += 1
        return _EvidenceRecord(
            token, "observation",
            f"observe {obs.relation}{obs.carried!r} = {obs.value!r}",
            self._resamples, key=key, log_delta=delta,
            saved_columns=saved)

    def _observe_mask(self, evidence,
                      compute: Callable) -> _EvidenceRecord:
        mask = np.asarray(compute(self._pdb), dtype=bool)
        token = self._next_token
        self._next_token += 1
        record = _EvidenceRecord(token, "mask", f"event {evidence!r}",
                                 self._resamples, predicate=compute,
                                 mask=mask)
        self._alive &= mask
        return record

    def retract(self, token: int) -> None:
        """Exactly undo the evidence item behind ``token``."""
        record = self._records.get(token)
        if record is None:
            raise ValidationError(
                f"unknown evidence token {token!r}; it was never "
                "observed on this stream")
        if record.retracted:
            raise ValidationError(
                f"evidence token {token} is already retracted")
        if record.stamp != self._resamples:
            raise ValidationError(
                f"evidence token {token} predates a resampling step; "
                "resampling collapses the weights it contributed to, "
                "so it can no longer be removed exactly")
        record.retracted = True
        if record.kind == "observation":
            self._log_weights -= record.log_delta
            if record.saved_columns:
                self._restore_columns(record.saved_columns)
        else:
            self._recompute_alive()

    def _enforce_window(self) -> None:
        if self._max_window is None:
            return
        while self.n_evidence > self._max_window:
            for token in self._order:
                if not self._records[token].retracted:
                    self.retract(token)
                    break

    # -- outcome mutation ----------------------------------------------------

    def _force_columns(self, saved, value) -> None:
        """Overwrite the listed sample columns with the observed value.

        Rebuilds the (frozen) outcome with structure sharing: only the
        forced groups get new column tuples, and only the forced
        columns get new arrays - snapshots taken by earlier callers
        keep the originals.
        """
        by_group: dict[int, dict[int, np.ndarray]] = {}
        for group_index, column_index, old_values in saved:
            forced = np.full(len(old_values), value)
            by_group.setdefault(group_index, {})[column_index] = forced
        self._replace_columns(by_group)

    def _restore_columns(self, saved) -> None:
        by_group: dict[int, dict[int, np.ndarray]] = {}
        for group_index, column_index, old_values in saved:
            by_group.setdefault(group_index, {})[column_index] = \
                old_values
        self._replace_columns(by_group)

    def _replace_columns(self, by_group: dict) -> None:
        from repro.engine.batched import BatchOutcome, _ColumnarGroup
        groups = list(self._outcome.groups)
        for group_index, replacements in by_group.items():
            group = groups[group_index]
            columns = tuple(
                (firing, replacements.get(column_index, values))
                for column_index, (firing, values)
                in enumerate(group.columns))
            groups[group_index] = _ColumnarGroup(
                group.members, group.shared, columns)
        self._outcome = BatchOutcome(
            self._outcome.size, tuple(groups),
            self._outcome.scalar_runs, self._outcome.diagnostics,
            base=self._outcome.base, growable=self._outcome.growable)
        self._pdb = self._wrap(self._outcome)
        self._refresh_masks()

    def _refresh_masks(self) -> None:
        """Re-evaluate active event masks against the mutated worlds."""
        for token in self._order:
            record = self._records[token]
            if record.kind == "mask" and not record.retracted:
                record.mask = np.asarray(record.predicate(self._pdb),
                                         dtype=bool)
        self._recompute_alive()

    def _recompute_alive(self) -> None:
        alive = self._base_alive.copy()
        for token in self._order:
            record = self._records[token]
            if record.kind == "mask" and not record.retracted:
                alive &= record.mask
        self._alive = alive

    # -- resampling ----------------------------------------------------------

    def _maybe_resample(self) -> None:
        threshold = self._cfg.resample_threshold
        if threshold <= 0.0:
            return
        n_alive = self.n_alive
        if n_alive == 0:
            return
        if self.effective_sample_size() < threshold * n_alive:
            self.resample()

    def resample(self) -> None:
        """Systematic resampling: collapse weights into world counts.

        Worlds stay columnar; each live slot receives an integer
        replication count drawn by the low-variance systematic scheme
        over the normalized weights.  Weights reset to one; evidence
        applied before the resample can no longer be retracted (its
        contribution is baked into the counts).  The resampling
        generator is world ``n + resamples`` of the stream's root
        entropy (:func:`~repro.api.config.world_rng`), so results are
        reproducible and never collide with the per-world sampling
        streams.
        """
        w = self.weights
        total = float(w.sum())
        if total <= 0.0:
            raise MeasureError(
                "all importance weights are zero - the evidence has "
                "zero likelihood under the program; nothing to "
                "resample")
        size = self.n_alive
        rng = world_rng(self._entropy, self._n + self._resamples)
        positions = (rng.random() + np.arange(size)) / size
        bounds = np.cumsum(w / total)
        bounds[-1] = 1.0  # guard the float tail
        counts = np.bincount(np.searchsorted(bounds, positions,
                                             side="right"),
                             minlength=self._n).astype(float)
        self._counts = counts
        self._log_weights = np.zeros(self._n)
        self._resamples += 1

    # -- queries -------------------------------------------------------------

    def posterior(self) -> InferenceResult:
        """The current posterior as a standard result object.

        The wrapped :class:`~repro.pdb.weighted.WeightedColumnarPDB`
        answers ``marginal`` / ``fact_marginals`` straight off the
        (possibly forced) sample columns.  Raises
        :class:`~repro.errors.MeasureError` when every world carries
        zero weight - the streamed evidence has zero likelihood.
        """
        start = time.perf_counter()
        pdb = WeightedColumnarPDB(self._pdb, self.weights)
        elapsed = time.perf_counter() - start
        return InferenceResult(
            pdb, "stream", elapsed, n_runs=self._n,
            n_truncated=int((~self._base_alive).sum()),
            diagnostics={
                "backend": "stream",
                "effective_sample_size": pdb.effective_sample_size(),
                "n_alive": self.n_alive,
                "n_evidence": self.n_evidence,
                "resamples": self._resamples,
            })

    def marginal(self, fact: Fact) -> float:
        """Posterior marginal of one fact under the current evidence."""
        w = self.weights
        total = float(w.sum())
        if total <= 0.0:
            raise MeasureError(
                "all importance weights are zero - the evidence has "
                "zero likelihood under the program")
        return self._pdb.weighted_count(fact, w) / total

    def __repr__(self) -> str:
        return (f"StreamingPosterior(<{self._n} worlds, "
                f"{self.n_evidence} evidence, ESS "
                f"{self.effective_sample_size():.1f}>)")
