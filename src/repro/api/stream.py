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
  would have emitted (the scalar loop forces it in
  :func:`repro.core.chase.run_chase_prepared`);
* an instance event (:class:`~repro.pdb.events.Event` or predicate)
  becomes a boolean world mask (rejection-style conditioning on the
  already-sampled ensemble) from :func:`repro.query.columnar.
  event_mask`, the posterior route's event check too.  A
  :class:`~repro.pdb.events.ContainsFactEvent` - or a bare
  :class:`~repro.pdb.facts.Fact`, shorthand for it - reads the batch
  columnar and never materializes its worlds;
* :meth:`~StreamingPosterior.retract` undoes either kind exactly -
  evidence records carry their weight delta and the firings they
  forced, as they were - and ``max_window`` turns the stream into a
  sliding window by auto-retracting the oldest evidence.

Exactness is policed, not assumed: when forcing an observed value into
the pre-sampled worlds would change their cascade (the value would
have enabled rule firings the worlds never ran),
:class:`~repro.errors.StreamingUnsupported` is raised and the caller
falls back to a one-shot ``posterior(method="likelihood")``.  While no
resampling triggers, a stream and that one-shot posterior share the
likelihood-weighting *estimator*, not the draws: the one-shot batch
samples the observed draws pinned, the stream forces them into a
prior it sampled unpinned, so the two estimates of one posterior
differ by Monte-Carlo noise at any seed.

Weight degeneracy is handled particle-filter style: the effective
sample size ``(Σw)²/Σw²`` is tracked per update, and when it drops
below ``resample_threshold x live worlds`` the stream resamples
systematically - worlds are kept columnar and receive integer
replication *counts*, drawn from a dedicated
:class:`~numpy.random.SeedSequence` child stream so resampled output
is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.config import ChaseConfig, world_rng
from repro.api.results import InferenceResult
from repro.core.observe import (Evidence, Observation,
                                _observation_index, as_evidence)
from repro.errors import (MeasureError, StreamingUnsupported,
                          ValidationError)
from repro.pdb.events import EventLike
from repro.pdb.facts import Fact
from repro.pdb.weighted import WeightedColumnarPDB
from repro.query.columnar import event_mask


@dataclass
class _EvidenceRecord:
    """One applied evidence item, with everything needed to undo it."""

    token: int
    kind: str                       # "observation" | "mask"
    description: str
    stamp: int                      # self._resamples at application
    # observation bookkeeping
    key: tuple | None = None        # (relation, carried)
    log_delta: np.ndarray | None = None
    saved_columns: list = field(default_factory=list)
    # mask bookkeeping
    event: EventLike | None = None
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
        refusal = session._batch_refusal(cfg)
        if refusal is not None:
            raise StreamingUnsupported(
                f"streaming runs on the batched backend, which this "
                f"call cannot use: {refusal}")
        self._session = session
        self._cfg = cfg
        self._translated = session.compiled.translated
        self._visible = session.compiled.visible_relations
        self._n = n
        self._max_window = max_window
        # The resampling streams are worlds n, n+1, ... of the seed's
        # root entropy, drawn once - also under a fresh (None) seed -
        # so they never collide with the n per-world streams of the
        # same seed's scalar sample.
        self._entropy = np.random.SeedSequence(cfg.seed).entropy
        outcome = session._batched_chase().run_batch(
            n, cfg.base_rng(), cfg.max_steps)
        if outcome is None:
            raise StreamingUnsupported(
                "the batched backend declined this batch (a cascade "
                "round overruns the step budget or cannot be "
                "prepared); raise max_steps or use "
                "posterior(method='likelihood')")
        self._outcome = outcome
        self._pdb = self._wrap(outcome)
        self._log_weights = np.zeros(n)
        self._counts = np.ones(n)
        self._alive = np.ones(n, dtype=bool)
        #: Active evidence by token, oldest first; retracting drops a
        #: record, so the stream holds only what it can still undo.
        self._records: dict[int, _EvidenceRecord] = {}
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
        return len(self._records)

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

    def observe(self, evidence: Evidence) -> int:
        """Apply one evidence item in place; returns a retraction token.

        Takes what :meth:`repro.api.Session.observe` takes, checked by
        the same :func:`~repro.core.observe.as_evidence`.
        :class:`Observation` evidence reweights (and forces) the
        matching sample columns; an event, a bare :class:`Fact`
        (shorthand for its ``ContainsFactEvent``) or a predicate masks
        out the worlds violating it.  Raises
        :class:`StreamingUnsupported` when the update cannot be exact
        (see the module docstring) - the stream is left untouched.
        """
        evidence = as_evidence(evidence)
        if isinstance(evidence, Observation):
            record = self._observe_observation(evidence)
        else:
            record = self._observe_mask(evidence)
        self._records[record.token] = record
        self._enforce_window()
        self._maybe_resample()
        return record.token

    def _observe_observation(self, obs: Observation) -> _EvidenceRecord:
        from repro.engine.batched import observation_effects
        key = (obs.relation, obs.carried)
        for record in self._records.values():
            if record.key == key:
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
        saved: list = []
        for effect in effects:
            fired = self._outcome.firings[effect.firing_index]
            delta[fired.worlds] += effect.log_density
            if effect.force:
                saved.append((effect.firing_index, fired))
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

    def _observe_mask(self, event: EventLike) -> _EvidenceRecord:
        mask = event_mask(self._pdb, [event])
        token = self._next_token
        self._next_token += 1
        record = _EvidenceRecord(token, "mask", f"event {event!r}",
                                 self._resamples, event=event,
                                 mask=mask)
        self._alive &= mask
        return record

    def retract(self, token: int) -> None:
        """Exactly undo the evidence item behind ``token``."""
        record = self._records.get(token)
        if record is None:
            if isinstance(token, int) and 0 <= token < self._next_token:
                raise ValidationError(
                    f"evidence token {token} is already retracted")
            raise ValidationError(
                f"unknown evidence token {token!r}; it was never "
                "observed on this stream")
        if record.stamp != self._resamples:
            raise ValidationError(
                f"evidence token {token} predates a resampling step; "
                "resampling collapses the weights it contributed to, "
                "so it can no longer be removed exactly")
        del self._records[token]
        if record.kind == "observation":
            self._log_weights -= record.log_delta
            if record.saved_columns:
                self._replace_firings(record.saved_columns)
        else:
            self._recompute_alive()

    def _enforce_window(self) -> None:
        if self._max_window is None:
            return
        while len(self._records) > self._max_window:
            self.retract(next(iter(self._records)))

    # -- outcome mutation ----------------------------------------------------

    def _force_columns(self, saved, value) -> None:
        """Overwrite the listed firings' draws with the observed value.

        Each forced firing gets a new values array, and the (frozen)
        outcome a new ``firings`` tuple sharing everything else: the
        arrays are never written in place, so snapshots taken by
        earlier callers keep the draws they read.
        """
        self._replace_firings(
            (index, replace(fired, values=np.full(len(fired.worlds),
                                                  value)))
            for index, fired in saved)

    def _replace_firings(self, replacements) -> None:
        firings = list(self._outcome.firings)
        for index, fired in replacements:
            firings[index] = fired
        self._outcome = replace(self._outcome, firings=tuple(firings))
        self._pdb = self._wrap(self._outcome)
        self._refresh_masks()

    def _refresh_masks(self) -> None:
        """Re-evaluate active event masks against the mutated worlds."""
        for record in self._records.values():
            if record.kind == "mask":
                record.mask = event_mask(self._pdb, [record.event])
        self._recompute_alive()

    def _recompute_alive(self) -> None:
        alive = np.ones(self._n, dtype=bool)
        for record in self._records.values():
            if record.kind == "mask":
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
        reproducible.
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
            pdb, "stream", elapsed, n_runs=self._n, n_truncated=0,
            diagnostics={
                "backend": "stream",
                "effective_sample_size": pdb.effective_sample_size(),
                "n_alive": self.n_alive,
                "n_evidence": self.n_evidence,
                "resamples": self._resamples,
            })

    def marginal(self, fact: Fact) -> float:
        """Posterior marginal of one fact under the current evidence."""
        return WeightedColumnarPDB(self._pdb, self.weights).marginal(fact)

    def __repr__(self) -> str:
        return (f"StreamingPosterior(<{self._n} worlds, "
                f"{self.n_evidence} evidence, ESS "
                f"{self.effective_sample_size():.1f}>)")
