"""Shard plans and the multi-process shard executor.

A *shard plan* partitions an ``n``-world batch into contiguous shards,
each carrying only ``(start, size)`` plus the plan's root entropy: the
per-world RNG streams are reconstructed inside the workers by
:func:`repro.api.config.world_rng`, the one function that derives
world ``i``'s stream from a root entropy everywhere (single-process
``ChaseConfig.spawn_rngs`` included), so world ``i`` draws from the
same stream no matter which shard, process, or machine executes it.

Combined with the batched engine's per-world draw schedule
(:meth:`repro.engine.batched.BatchedChase.run_batch` with
``per_world_rngs``, where a world's draw sequence is a function of its
own trajectory only), this yields the package's central guarantee:
**sharded output is bit-identical across shard counts**, and the
scalar-mode output is bit-identical to the single-process scalar path
under ``streams="spawn"``.

Workers follow the factory-of-generators -> ``Pool.imap_unordered`` ->
sink shape: the pool initializer builds warm per-process state (the
compiled session, its batched sampler, its base applicability engine)
once, so each shard task costs only its own sampling work.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.api.config import ChaseConfig, world_rng
from repro.api.results import InferenceResult
from repro.core.chase import ChaseRun
from repro.core.policies import DEFAULT_POLICY
from repro.errors import ValidationError
from repro.pdb.instances import Instance

#: Diagnostics keys summed across shards when merging batched results.
_SUMMED_KEYS = ("n_split", "n_firings", "n_groups", "n_group_rounds",
                "n_draw_calls", "n_pooled_draws")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the batch: worlds ``[start, start+size)``.

    ``entropy`` is the plan's root entropy; together with a world
    index it determines that world's RNG stream (see module
    docstring), so a spec is a complete, picklable work order.
    """

    index: int
    start: int
    size: int
    entropy: int

    def world_indices(self) -> range:
        return range(self.start, self.start + self.size)


@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``n`` worlds into at most ``shards`` shards.

    Contiguous, balanced within one world, zero-size shards dropped -
    so ``len(specs) == min(shards, n)`` and the specs' slices tile
    ``range(n)`` in order.
    """

    n: int
    shards: int
    entropy: int
    specs: tuple[ShardSpec, ...]


def shard_plan(n: int, shards: int,
               seed: int | None = None) -> ShardPlan:
    """Partition an ``n``-world batch into ``shards`` shard specs.

    ``seed`` follows :meth:`repro.api.config.ChaseConfig.spawn_rngs`:
    an int pins the root entropy (``SeedSequence(seed)``), ``None``
    draws fresh entropy once - all shards then share it, keeping the
    batch reproducible from the returned plan either way.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValidationError(f"need n >= 1 worlds, got {n!r}")
    if not isinstance(shards, int) or isinstance(shards, bool) \
            or shards <= 0:
        raise ValidationError(f"need shards >= 1, got {shards!r}")
    entropy = np.random.SeedSequence(seed).entropy
    base, extra = divmod(n, shards)
    specs = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        specs.append(ShardSpec(index, start, size, entropy))
        start += size
    return ShardPlan(n, shards, entropy, tuple(specs))


def shard_rngs(spec: ShardSpec) -> list[np.random.Generator]:
    """The shard's per-world generators, one per world index.

    Built by :func:`~repro.api.config.world_rng`, so these are exactly
    the streams :meth:`ChaseConfig.spawn_rngs` hands world ``i`` in a
    single-process run - shard boundaries never touch the streams.
    """
    return [world_rng(spec.entropy, world)
            for world in spec.world_indices()]


# ---------------------------------------------------------------------------
# Shard results and the per-process worker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardResult:
    """What one shard sends back to the coordinating process.

    ``mode == "batched"``: ``outcome`` is the shard-local
    :class:`~repro.engine.batched.BatchOutcome` (world indices
    relative to ``spec.start``; columnar, compact on the wire).
    ``mode == "scalar"``: ``worlds`` holds the terminated runs'
    output instances in run order and ``truncated`` counts the rest -
    the same shape :meth:`Session._sample_scalar` collects.
    """

    spec: ShardSpec
    mode: str
    elapsed: float
    outcome: object | None = None
    worlds: tuple[Instance, ...] | None = None
    truncated: int = 0


class _ShardWorker:
    """Warm per-process state for one (program, instance, config).

    Built once per pool worker (initializer) or once per inline
    executor; every shard task then reuses the session's cached
    translation, applicability bootstrap and batched sampler - the
    zero-recompilation hot path.
    """

    def __init__(self, translated, instance: Instance,
                 config: ChaseConfig):
        from repro.api.session import compile as compile_program
        # compile() wraps an already-translated program without
        # re-deriving anything.
        self.session = compile_program(translated).on(instance, config)
        self.config = self.session.config
        self.instance = instance
        self.policy = config.policy or DEFAULT_POLICY
        # Mirror Session._sample_batched's gating exactly (backend
        # knob honoured, eligibility checked even for an explicit
        # "batched" request) so a shard samples precisely the worlds
        # the single-process path would.
        self.batched = None
        if self.session._resolve_backend(config) == "batched" \
                and self.session._batch_eligible(config):
            self.batched = self.session._batched_chase()
        if self.batched is None:
            # Scalar mode: bootstrap the base engine now, once.
            self.session._base_engine(config.engine)

    def run(self, spec: ShardSpec) -> ShardResult:
        start = time.perf_counter()
        rngs = shard_rngs(spec)
        if self.batched is not None:
            outcome = self.batched.run_batch(
                spec.size, None, None, self.policy,
                self.config.max_steps, per_world_rngs=rngs)
            if outcome is not None:
                return ShardResult(spec, "batched",
                                   time.perf_counter() - start,
                                   outcome=outcome)
            # Budget decline is a function of (program, instance,
            # max_steps) alone - never of the shard size - so every
            # shard of a plan degrades to scalar together and the
            # shard-count invariance survives the fallback.
        runs = [self.session._one_run(self.config, rng)
                for rng in rngs]
        worlds, truncated = self._collect(runs)
        return ShardResult(spec, "scalar",
                           time.perf_counter() - start,
                           worlds=tuple(worlds), truncated=truncated)

    def _collect(self, runs: list[ChaseRun]):
        from repro.api.session import Session
        return Session._collect_worlds(
            self.config, runs, self.session.compiled.visible_relations)


#: Per-process worker state, set by the pool initializer.
_WORKER: _ShardWorker | None = None


def _init_worker(translated, instance, config) -> None:
    global _WORKER
    _WORKER = _ShardWorker(translated, instance, config)


def _run_shard(spec: ShardSpec) -> ShardResult:
    if _WORKER is None:
        raise RuntimeError("shard worker used before initialization")
    return _WORKER.run(spec)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _pool_context():
    """Prefer fork (cheap warm-up via COW) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ShardExecutor:
    """Runs shard plans for one (translated, instance, config) context.

    ``inline=True`` executes shards sequentially in-process with the
    identical code path - bit-identical results, no pool - which is
    what the differential-fuzz oracle and single-core environments
    use.  Otherwise a lazily created ``multiprocessing`` pool (warm
    worker state via initializer) serves every :meth:`run` until
    :meth:`close`; keep one executor alive across calls to amortize
    worker start-up (the server does).
    """

    def __init__(self, translated, instance: Instance,
                 config: ChaseConfig, processes: int | None = None,
                 inline: bool = False):
        self.translated = translated
        self.instance = instance
        self.config = config
        self.processes = processes or max(1, os.cpu_count() or 1)
        self.inline = bool(inline)
        self._pool = None
        self._worker: _ShardWorker | None = None

    def run(self, plan: ShardPlan) -> list[ShardResult]:
        """Execute every spec of the plan; results in spec order."""
        if self.inline:
            if self._worker is None:
                self._worker = _ShardWorker(
                    self.translated, self.instance, self.config)
            results = [self._worker.run(spec) for spec in plan.specs]
        else:
            if self._pool is None:
                self._pool = _pool_context().Pool(
                    self.processes, initializer=_init_worker,
                    initargs=(self.translated, self.instance,
                              self.config))
            results = list(self._pool.imap_unordered(
                _run_shard, plan.specs))
        results.sort(key=lambda result: result.spec.index)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The Session entry point
# ---------------------------------------------------------------------------


def sample_sharded(session, n: int, config: ChaseConfig | None = None,
                   executor: ShardExecutor | None = None,
                   ) -> InferenceResult:
    """Sample ``n`` worlds across ``config.shards`` process shards.

    The routing target of ``Session.sample(n, shards=k)``.  Requires
    the ``"spawn"`` stream scheme and an int-or-None seed (per-world
    streams must be reconstructible from a plan, not from mutable
    generator state).  ``executor`` may be a warm
    :class:`ShardExecutor` for the same (program, instance, config)
    context; without one, a transient pool is created for the call.
    """
    from repro.serving.merge import merge_shard_results
    cfg = config if config is not None else session.config
    shards = cfg.shards or 1
    if cfg.streams != "spawn":
        raise ValidationError(
            "sharded sampling requires streams='spawn'; the 'shared' "
            "scheme's single sequential stream cannot be partitioned")
    if isinstance(cfg.seed, np.random.Generator):
        raise ValidationError(
            "sharded sampling requires an int or None seed; a "
            "Generator's state cannot be shipped to shard workers "
            "reproducibly")
    if n <= 0:
        raise ValidationError(f"need n >= 1 runs, got {n}")
    start = time.perf_counter()
    plan = shard_plan(n, shards, cfg.seed)
    translated = session.compiled.translated
    if executor is not None:
        results = executor.run(plan)
    else:
        with ShardExecutor(translated, session.instance, cfg,
                           processes=min(shards,
                                         os.cpu_count() or 1)) as pool:
            results = pool.run(plan)
    return merge_shard_results(
        plan, results, session.compiled.visible_relations, cfg,
        time.perf_counter() - start)
