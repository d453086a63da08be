"""The frozen chase configuration shared by every facade entry point.

Historically each top-level function re-threaded the same six keyword
arguments (``policy``, ``rng``, ``engine``, ``max_steps``,
``semantics``, ``parallel``).  :class:`ChaseConfig` replaces that
scatter with one validated, immutable value object that a
:class:`repro.api.Session` carries through every inference call.

Randomness is configured by ``seed`` alone.  Every run draws from its
own child stream derived via :class:`numpy.random.SeedSequence`, so
runs are statistically independent *and* order-independent, which is
what lets ``Session.sample(n, shards=k)`` split a batch across
processes reproducibly.  World ``i``'s stream is :func:`world_rng` of
the root entropy and ``i`` wherever it is built - one process, a shard
worker or a stream's resampler.  The batched backend additionally
draws its vectorized waves from one pooled generator,
:meth:`ChaseConfig.base_rng`.
"""

from __future__ import annotations

import dataclasses
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.chase import DEFAULT_MAX_STEPS
from repro.core.exact import (DEFAULT_MAX_DEPTH,
                              DEFAULT_SUPPORT_TOLERANCE)
from repro.core.policies import ChasePolicy
from repro.errors import ValidationError

#: Applicability engines accepted by :func:`repro.core.chase.make_engine`.
ENGINES = ("incremental", "naive")
#: Sampling backends accepted by :meth:`repro.api.Session.sample`:
#: ``"scalar"`` replays the sequential chase per run, ``"batched"``
#: vectorizes the batch via :mod:`repro.engine.batched` (same law,
#: different draws; falls back to scalar outside its supported
#: class), ``"auto"`` picks batched whenever it is eligible and the
#: caller has not asked for anything the batch cannot honour (a
#: policy that is not batch-safe, traces).
#:
#: Eligibility under ``"auto"`` is per *program/config*, not per
#: trigger structure: since the multi-round batch loop, cascading
#: programs (sampled values enabling further rules, e.g. Example 3.4's
#: Trig/Alarm stage) stay on the batched backend too - trigger-hit
#: worlds are regrouped by their enabled-trigger signature and the next
#: existential layer runs vectorized per group, with only residual
#: singleton groups (and budget-starved or structurally unsupported
#: ones) finishing on the scalar engine.  Both translations are
#: batchable: the per-rule (grohe) one, and - since the shared
#: ``Sample#`` companion fan-out is vectorized - the Bárány one of
#: Section 6.2.  The remaining hard requirements: weak acyclicity of
#: the translated program, sequential chase, no trace recording, and
#: a batch-safe policy.
BACKENDS = ("auto", "scalar", "batched")


def world_rng(entropy: int, world: int) -> np.random.Generator:
    """World ``world``'s generator under the root ``entropy``.

    ``SeedSequence(entropy, spawn_key=(world,))`` is exactly the
    ``world``-th child ``SeedSequence(entropy).spawn(...)`` produces
    (numpy derives a child from its root's entropy and its spawn key
    alone), so any one world's stream can be built on its own, in any
    process, without spawning its siblings.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(world,)))


class WorldRngs(Sequence):
    """The per-world generators of an ``n``-world batch, built on use.

    World ``i``'s generator is built the first time index ``i`` is
    read and memoized, so a repeated read returns the same, already
    advanced generator and a batch whose worlds never leave the
    vectorized path builds none.  With a root ``entropy`` world ``i``
    gets :func:`world_rng`; with a ``parent`` Generator the first read
    spawns all ``n`` children at once (``parent.spawn(n)``) - the
    parent's spawn counter only advances by spawning, and only a batch
    that reads a world may advance it.
    """

    def __init__(self, n: int, entropy: int | None = None,
                 parent: np.random.Generator | None = None):
        self._n = n
        self.entropy = entropy
        self._parent = parent
        self._built: dict[int, np.random.Generator] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[world]
                    for world in range(*index.indices(self._n))]
        world = operator.index(index)
        if world < 0:
            world += self._n
        if not 0 <= world < self._n:
            raise IndexError(
                f"world {index} outside a batch of {self._n}")
        rng = self._built.get(world)
        if rng is None:
            if self._parent is not None:
                self._built = dict(enumerate(self._parent.spawn(self._n)))
            else:
                self._built[world] = world_rng(self.entropy, world)
            rng = self._built[world]
        return rng


@dataclass(frozen=True)
class ChaseConfig:
    """Immutable bundle of every knob the chase pipeline exposes.

    ``policy`` - measurable selection for the sequential chase
    (None = canonical first-firing policy);
    ``engine`` - applicability maintenance strategy;
    ``parallel`` - parallel chase (Section 5) instead of sequential;
    ``max_steps`` - per-run step budget for sampling;
    ``max_depth`` / ``tolerance`` - exact-enumeration budgets;
    ``keep_aux`` - keep translation auxiliaries in outputs
    (Remark 4.9);
    ``record_trace`` - attach the firing trace to single runs;
    ``seed`` - int seed, numpy Generator, or None (fresh entropy);
    every run draws from its own spawned child stream
    (:meth:`spawn_rngs`);
    ``backend`` - Monte-Carlo sampling backend (``"auto"``,
    ``"scalar"``, ``"batched"``; see :data:`BACKENDS`);
    ``batch_min_group`` - smallest world group the batched backend
    keeps vectorized across cascade rounds.  Groups below the
    threshold finish on the scalar engine instead of paying the
    vectorization overhead; the default (2) sends exactly the
    residual singleton groups scalar.  ``1`` vectorizes everything
    (useful for exercising the multi-round machinery), larger values
    trade batch coverage for fewer tiny ``sample_batch`` calls.  The
    sampled law is identical at every setting.

    ``shards`` - split sampled batches across a process pool
    (:mod:`repro.serving`).  ``None`` (default) and ``1`` keep the
    existing single-process paths untouched; ``k >= 2`` partitions
    the batch into ``k`` shards with per-world
    :class:`~numpy.random.SeedSequence` child streams, so output is
    law-exact and *invariant to the shard count* (requires an
    int-or-None seed).

    ``resample_threshold`` - streaming-posterior resampling policy
    (:meth:`repro.api.Session.stream`).  After each ``observe`` the
    stream resamples its worlds systematically when the effective
    sample size drops below ``threshold x live worlds``.  ``0.0``
    (default) never resamples - streamed marginals then equal one-shot
    likelihood weighting *exactly*; ``1.0`` resamples after every
    weighted observation (particle-filter style).
    """

    policy: ChasePolicy | None = None
    engine: str = "incremental"
    parallel: bool = False
    max_steps: int = DEFAULT_MAX_STEPS
    max_depth: int = DEFAULT_MAX_DEPTH
    tolerance: float = DEFAULT_SUPPORT_TOLERANCE
    keep_aux: bool = False
    record_trace: bool = False
    seed: int | np.random.Generator | None = None
    backend: str = "auto"
    batch_min_group: int = 2
    shards: int | None = None
    resample_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.policy is not None and \
                not isinstance(self.policy, ChasePolicy):
            raise ValidationError(
                f"policy must be a ChasePolicy, got {self.policy!r}")
        if self.engine not in ENGINES:
            raise ValidationError(
                f"unknown applicability engine {self.engine!r}; "
                f"use one of {ENGINES}")
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"unknown sampling backend {self.backend!r}; "
                f"use one of {BACKENDS}")
        if not isinstance(self.max_steps, int) or self.max_steps <= 0:
            raise ValidationError(
                f"max_steps must be a positive int, got "
                f"{self.max_steps!r}")
        if not isinstance(self.max_depth, int) or self.max_depth <= 0:
            raise ValidationError(
                f"max_depth must be a positive int, got "
                f"{self.max_depth!r}")
        if not (isinstance(self.tolerance, (int, float))
                and self.tolerance >= 0.0):
            raise ValidationError(
                f"tolerance must be >= 0, got {self.tolerance!r}")
        if isinstance(self.batch_min_group, bool) \
                or not isinstance(self.batch_min_group,
                                  (int, np.integer)) \
                or self.batch_min_group <= 0:
            raise ValidationError(
                f"batch_min_group must be a positive int, got "
                f"{self.batch_min_group!r}")
        if self.shards is not None and (
                isinstance(self.shards, bool)
                or not isinstance(self.shards, (int, np.integer))
                or self.shards <= 0):
            raise ValidationError(
                f"shards must be a positive int or None, got "
                f"{self.shards!r}")
        if isinstance(self.resample_threshold, bool) \
                or not isinstance(self.resample_threshold,
                                  (int, float)) \
                or not 0.0 <= self.resample_threshold <= 1.0:
            raise ValidationError(
                f"resample_threshold must lie in [0, 1], got "
                f"{self.resample_threshold!r}")
        if self.seed is not None and not isinstance(
                self.seed, (int, np.integer, np.random.Generator)):
            raise ValidationError(
                f"seed must be an int, numpy Generator or None, got "
                f"{self.seed!r}")

    def replace(self, **overrides) -> "ChaseConfig":
        """A copy with the given fields replaced (and re-validated).

        Unknown field names raise :class:`ValidationError` - silently
        ignored typos would otherwise produce prior-config runs.
        """
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValidationError(
                f"unknown ChaseConfig field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}")
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)

    # -- randomness ---------------------------------------------------------

    def base_rng(self) -> np.random.Generator:
        """The seed's own generator.

        ``Session.run`` draws a single run from it, and the batched
        backend draws its pooled, vectorized waves from it.
        """
        if isinstance(self.seed, np.random.Generator):
            return self.seed
        return np.random.default_rng(self.seed)

    def spawn_rngs(self, n: int) -> WorldRngs:
        """Per-run generators for an ``n``-run batch.

        Each run gets an independent
        :class:`~numpy.random.SeedSequence` child stream, as a lazy,
        memoized :class:`WorldRngs`: run ``i``'s generator is built
        the first time it is read, so callers that touch only
        a few runs (the batched backend's scalar-fallback worlds) pay
        only for those.  An int or None seed fixes the root entropy
        now (recorded as ``.entropy``; None draws it fresh) and builds
        each child on its own with :func:`world_rng`, bit-identical to
        ``SeedSequence(seed).spawn(n)``.  A Generator seed spawns its
        ``n`` children all at once on the first read (numpy >= 1.25)
        and so advances its spawn state, making consecutive batches
        differ (as they would sharing a stream).
        """
        if isinstance(self.seed, np.random.Generator):
            return WorldRngs(n, parent=self.seed)
        return WorldRngs(n, np.random.SeedSequence(self.seed).entropy)


#: The all-defaults configuration used when callers specify nothing.
DEFAULT_CONFIG = ChaseConfig()
