"""The frozen chase configuration shared by every facade entry point.

Historically each top-level function re-threaded the same six keyword
arguments (``policy``, ``rng``, ``engine``, ``max_steps``,
``semantics``, ``parallel``).  :class:`ChaseConfig` replaces that
scatter with one validated, immutable value object that a
:class:`repro.api.Session` carries through every inference call.

Randomness is configured by ``seed`` alone.  Every run of the scalar
chase draws from its own child stream derived via
:class:`numpy.random.SeedSequence`, so runs are statistically
independent *and* order-independent.  World ``i``'s stream is
:func:`world_rng` of the root entropy and ``i`` wherever it is built -
the scalar loop, a lazy ``outputs`` iterator or a stream's resampler.
The batched backend builds no per-world
stream: it draws its vectorized waves from one pooled generator,
:meth:`ChaseConfig.base_rng`, and declines a batch it cannot finish
that way.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.chase import DEFAULT_MAX_STEPS
from repro.core.exact import (DEFAULT_MAX_DEPTH,
                              DEFAULT_SUPPORT_TOLERANCE)
from repro.core.policies import ChasePolicy
from repro.errors import ValidationError

#: Sampling backends accepted by :meth:`repro.api.Session.sample`:
#: ``"batched"`` (the default) vectorizes the batch via
#: :mod:`repro.engine.batched` - same law as the scalar loop,
#: different draws - and runs the scalar loop for a program the
#: capability report refuses or a batch the engine declines;
#: ``"scalar"`` replays the chase per run, sequential or parallel as
#: ``parallel`` says.
#:
#: Whether a call batches is two questions: did it ask for
#: ``"scalar"``, and does the program's capability report admit it
#: (weak acyclicity and well-formed companion heads, both
#: translations)?  The chase order never decides: the output SPDB is
#: the same under every chase policy and under the parallel chase
#: (Theorems 6.1 and 5.6), so ``policy`` and ``parallel`` only pick
#: the chase the scalar loop runs.
BACKENDS = ("batched", "scalar")


def _is_int(value) -> bool:
    """An int or numpy integer, never a bool (served JSON sends both)."""
    return isinstance(value, (int, np.integer)) \
        and not isinstance(value, bool)


def _check_runs(n) -> int:
    """A run or world count ``n``: an int (numpy ints too) >= 1.

    The one check behind every ``Session`` verb and the server's ``n``
    field.
    """
    if not _is_int(n) or n < 1:
        raise ValidationError(f"n must be an int >= 1, got {n!r}")
    return int(n)


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
    """The per-world generators of an ``n``-run batch, built on use.

    World ``i``'s generator is built the first time index ``i`` is
    read and memoized, so a repeated read returns the same, already
    advanced generator, and a lazy consumer such as
    :meth:`repro.api.Session.outputs` builds only the generators of
    the runs it has reached.  With a root ``entropy`` world ``i``
    gets :func:`world_rng`; with a ``parent`` Generator the first read
    spawns all ``n`` children at once (``parent.spawn(n)``) - the
    parent's spawn counter only advances by spawning, and only a
    caller that reads a world may advance it.
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
    ``parallel`` - parallel chase (Section 5) instead of sequential;
    both pick the chase ``run``, ``exact`` and the scalar loop take,
    never whether a call batches: the batched law is the same under
    every choice (Theorems 5.6 and 6.1);
    ``max_steps`` - per-run step budget for sampling;
    ``max_depth`` / ``tolerance`` - exact-enumeration budgets;
    ``keep_aux`` - keep translation auxiliaries in outputs
    (Remark 4.9);
    ``seed`` - int seed, numpy Generator, or None (fresh entropy);
    every run draws from its own spawned child stream
    (:meth:`spawn_rngs`);
    ``backend`` - Monte-Carlo sampling backend (``"batched"`` or
    ``"scalar"``; see :data:`BACKENDS`);
    ``batch_min_group`` - retired: the batched backend keeps every
    signature group vectorized, whatever its size, and nothing reads
    this field.  It accepts only ``1`` (the default) so that existing
    configs naming it still parse; a later release deletes it.

    ``resample_threshold`` - streaming-posterior resampling policy
    (:meth:`repro.api.Session.stream`).  After each ``observe`` the
    stream resamples its worlds systematically when the effective
    sample size drops below ``threshold x live worlds``.  ``0.0``
    (default) never resamples - the stream is then plain likelihood
    weighting over its batch, the estimator of
    ``posterior(method="likelihood")`` (on different draws); ``1.0``
    resamples after every weighted observation (particle-filter
    style).
    """

    policy: ChasePolicy | None = None
    parallel: bool = False
    max_steps: int = DEFAULT_MAX_STEPS
    max_depth: int = DEFAULT_MAX_DEPTH
    tolerance: float = DEFAULT_SUPPORT_TOLERANCE
    keep_aux: bool = False
    seed: int | np.random.Generator | None = None
    backend: str = "batched"
    batch_min_group: int = 1
    resample_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.policy is not None and \
                not isinstance(self.policy, ChasePolicy):
            raise ValidationError(
                f"policy must be a ChasePolicy, got {self.policy!r}")
        if self.backend not in BACKENDS:
            raise ValidationError(
                f"unknown sampling backend {self.backend!r}; "
                f"use one of {BACKENDS}")
        for name in ("parallel", "keep_aux"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValidationError(
                    f"{name} must be a bool, got {value!r}")
        for name in ("max_steps", "max_depth"):
            value = getattr(self, name)
            if not _is_int(value) or value <= 0:
                raise ValidationError(
                    f"{name} must be a positive int, got {value!r}")
        if isinstance(self.tolerance, bool) \
                or not isinstance(self.tolerance, (int, float)) \
                or not 0.0 <= self.tolerance < math.inf:
            raise ValidationError(
                f"tolerance must be a finite number >= 0, got "
                f"{self.tolerance!r}")
        if not _is_int(self.batch_min_group) \
                or self.batch_min_group != 1:
            raise ValidationError(
                f"batch_min_group is retired and accepts only 1, got "
                f"{self.batch_min_group!r}")
        if isinstance(self.resample_threshold, bool) \
                or not isinstance(self.resample_threshold,
                                  (int, float)) \
                or not 0.0 <= self.resample_threshold <= 1.0:
            raise ValidationError(
                f"resample_threshold must lie in [0, 1], got "
                f"{self.resample_threshold!r}")
        if self.seed is not None and not _is_int(self.seed) \
                and not isinstance(self.seed, np.random.Generator):
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
        """Per-run generators for an ``n``-run scalar batch.

        Each run gets an independent
        :class:`~numpy.random.SeedSequence` child stream, as a lazy,
        memoized :class:`WorldRngs`: run ``i``'s generator is built
        the first time it is read, so a caller that stops early
        (:meth:`repro.api.Session.outputs`) pays only for the runs it
        reached.  The batched backend never calls this: its draws come
        from :meth:`base_rng`.  An int or None seed fixes the root
        entropy now (recorded as ``.entropy``; None draws it fresh) and
        builds each child on its own with :func:`world_rng`,
        bit-identical to ``SeedSequence(seed).spawn(n)``.  A Generator
        seed spawns its ``n`` children all at once on the first read
        (numpy >= 1.25) and so advances its spawn state, making
        consecutive batches differ (as they would sharing a stream).
        """
        if isinstance(self.seed, np.random.Generator):
            return WorldRngs(n, parent=self.seed)
        return WorldRngs(n, np.random.SeedSequence(self.seed).entropy)


#: The all-defaults configuration used when callers specify nothing.
DEFAULT_CONFIG = ChaseConfig()
