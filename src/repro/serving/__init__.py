"""Sharded sampling and a long-lived program server.

The paper's Monte-Carlo semantics samples ``n`` independent chase runs
(Section 4).  This package serves that on top of
:class:`repro.api.CompiledProgram` in two layers:

* :mod:`repro.serving.sharding` - ``Session.sample(n, shards=k)``.  A
  batch the batched engine accepts runs in-process: Theorem 6.1 lets
  one pooled, vectorized chase order produce all ``n`` worlds, so
  splitting them across processes adds nothing to the law.  Only the
  scalar loop fans out to a ``multiprocessing`` pool, and per-world
  :class:`~numpy.random.SeedSequence` child streams make the
  concatenated shard worlds equal the single-process loop's.  Either
  way the result is bit-identical to ``Session.sample(n)``.
* :mod:`repro.serving.server` / :mod:`repro.serving.client` - a
  ``ProgramServer`` facade that caches compiled programs by source
  hash (LRU, zero recompilation on the hot path) behind a JSON-lines
  protocol (stdin/stdout or socket), exposed as ``repro serve``.

Entry points: ``Session.sample(n, shards=k)`` routes through
:func:`sample_sharded`; servers embed :class:`ProgramServer` directly.
"""

from repro.serving.sharding import (ShardExecutor, ShardPlan,
                                    ShardResult, ShardSpec,
                                    merge_shard_results, sample_sharded,
                                    shard_plan, shard_rngs)
from repro.serving.server import ProgramServer, serve_socket, serve_stdio
from repro.serving.client import ServingClient

__all__ = [
    "ProgramServer",
    "ServingClient",
    "ShardExecutor",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "merge_shard_results",
    "sample_sharded",
    "serve_socket",
    "serve_stdio",
    "shard_plan",
    "shard_rngs",
]
