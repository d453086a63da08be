"""Sharded sampling: in-process batches, a process fan-out for the rest.

``Session.sample(n, shards=k)`` routes here and makes one promise: its
output is bit-identical to ``Session.sample(n)`` for every ``k`` and
every int seed.  :func:`sample_sharded` keeps it in two ways.

* A batch the batched engine accepts runs in this process, exactly as
  ``Session.sample`` runs it.  Theorem 6.1 lets one pooled chase order
  produce all ``n`` worlds, so splitting them across processes would
  add nothing to the law.  The declined fan-out is recorded in
  ``diagnostics["fallback_reason"]``.
* Only the scalar loop fans out: ineligible programs,
  ``backend="scalar"`` and batches the engine declines (a cascade
  round overruns the step budget or cannot be prepared).  A
  *shard plan* partitions the ``n`` worlds into contiguous shards,
  each carrying only ``(start, size)`` plus the plan's root entropy.
  Workers rebuild world ``i``'s stream with
  :func:`repro.api.config.world_rng`, the stream
  ``ChaseConfig.spawn_rngs`` hands world ``i`` in one process, so
  concatenating the shards' worlds in plan order reproduces the
  single-process scalar loop draw for draw.

Workers follow the factory-of-generators -> ``Pool.imap_unordered`` ->
sink shape: the pool initializer builds warm per-process state (the
compiled session and its base applicability engine) once, so each
shard task costs only its own sampling work.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.api.config import ChaseConfig, _check_runs, world_rng
from repro.api.results import InferenceResult
from repro.errors import ChaseError, ValidationError
from repro.pdb.database import MonteCarloPDB
from repro.pdb.instances import Instance


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
    n = _check_runs(n)
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

    ``worlds`` holds the terminated runs' output instances in run
    order and ``truncated`` counts the rest - the same shape
    :meth:`Session._sample_scalar` collects.
    """

    spec: ShardSpec
    elapsed: float
    worlds: tuple[Instance, ...]
    truncated: int


class _ShardWorker:
    """Warm per-process state for one (program, instance, config).

    Built once per pool worker (initializer) or once per inline
    executor; every shard task then reuses the session's cached
    translation and applicability bootstrap - the zero-recompilation
    hot path.
    """

    def __init__(self, translated, instance: Instance,
                 config: ChaseConfig):
        from repro.api.session import compile as compile_program
        # compile() wraps an already-translated program without
        # re-deriving anything.
        self.session = compile_program(translated).on(instance, config)
        self.config = self.session.config
        self.session._base_engine(self.config.engine)

    def run(self, spec: ShardSpec) -> ShardResult:
        from repro.api.session import Session
        start = time.perf_counter()
        runs = [self.session._one_run(self.config, rng)
                for rng in shard_rngs(spec)]
        worlds, truncated = Session._collect_worlds(
            self.config, runs, self.session.compiled.visible_relations)
        return ShardResult(spec, time.perf_counter() - start,
                           tuple(worlds), truncated)


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
    """Sample ``n`` worlds, fanning the scalar loop out over shards.

    The routing target of ``Session.sample(n, shards=k)``; the result
    equals ``session.sample(n)`` world for world (module docstring).
    A batch the batched engine accepts comes back from this process
    with ``backend == "batched"``; a scalar batch comes back from
    ``config.shards`` workers with ``backend == "sharded"``.  Requires
    an int-or-None seed (per-world streams must be reconstructible
    from a plan, not from mutable generator state).  ``executor`` may
    be a warm :class:`ShardExecutor` for the same (program, instance,
    config) context; without one, a scalar batch creates a transient
    pool for the call.
    """
    cfg = config if config is not None else session.config
    shards = cfg.shards or 1
    if isinstance(cfg.seed, np.random.Generator):
        raise ValidationError(
            "sharded sampling requires an int or None seed; a "
            "Generator's state cannot be shipped to shard workers "
            "reproducibly")
    n = _check_runs(n)
    result = session._sample_batched(cfg, n)
    if result is not None:
        result.diagnostics["fallback_reason"] = (
            f"fan-out to {shards} shard(s) declined: the batched "
            "engine samples the whole batch in one process; only the "
            "scalar loop fans out")
        return result
    start = time.perf_counter()
    plan = shard_plan(n, shards, cfg.seed)
    if executor is not None:
        results = executor.run(plan)
    else:
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           processes=min(shards,
                                         os.cpu_count() or 1)) as pool:
            results = pool.run(plan)
    return merge_shard_results(plan, results,
                               time.perf_counter() - start)


def merge_shard_results(plan: ShardPlan, results: list[ShardResult],
                        elapsed: float) -> InferenceResult:
    """One :class:`InferenceResult` from a plan's shard results.

    ``results`` must be in spec order and cover the plan exactly (the
    executor guarantees both).  Each shard collects its worlds in
    world order and the shards tile the world range contiguously, so
    concatenating them in plan order reproduces the single-process
    scalar loop's world list.
    """
    if [result.spec for result in results] != list(plan.specs):
        raise ChaseError("shard results do not match the plan")
    worlds = [world for result in results for world in result.worlds]
    truncated = sum(result.truncated for result in results)
    per_shard = [{"shard": result.spec.index,
                  "start": result.spec.start,
                  "size": result.spec.size,
                  "elapsed_seconds": result.elapsed,
                  "n_truncated": result.truncated}
                 for result in results]
    return InferenceResult(MonteCarloPDB(worlds, truncated), "sample",
                           elapsed, n_runs=plan.n,
                           n_truncated=truncated,
                           diagnostics={"backend": "sharded",
                                        "shards": len(results),
                                        "per_shard": per_shard})
