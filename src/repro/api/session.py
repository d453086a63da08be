"""Compile once, infer many: the primary public API.

The paper's pipeline (parse -> translate to existential Datalog ->
chase -> output SPDB, Sections 3-4) used to be exposed as a flat bag of
top-level functions, every one of which re-translated the program and
re-threaded the same keyword arguments.  This module replaces that with
a two-stage facade:

* :func:`compile` turns a program (text or :class:`Program`) into a
  :class:`CompiledProgram` that caches the translation, normalization,
  visible-relation set and termination report - computed at most once;
* :meth:`CompiledProgram.on` binds an input instance and a frozen
  :class:`~repro.api.config.ChaseConfig`, yielding a :class:`Session`
  whose fluent verbs (``sample``, ``exact``, ``observe(...).posterior``,
  ``marginal``, ``analyze``) all return a unified
  :class:`~repro.api.results.InferenceResult`.

Sampling through a Session translates the program and bootstraps
the applicability engine exactly once, each run starting from a cheap
engine ``fork()``; per-run RNG streams are spawned via
:class:`numpy.random.SeedSequence`, so a batch can be split across
process shards without losing reproducibility.

>>> import repro
>>> compiled = repro.compile("Earthquake(c, Flip<0.1>) :- City(c, r).")
>>> data = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
>>> result = compiled.on(data).exact()
>>> round(result.marginal(repro.Fact("Earthquake", ("Napa", 1))), 3)
0.1
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

import numpy as np

from repro.api.config import DEFAULT_CONFIG, ChaseConfig
from repro.api.results import InferenceResult
from repro.core.applicability import (IncrementalApplicability,
                                      overlay_fork)
from repro.core.chase import (ChaseRun, make_engine,
                              run_chase_prepared)
from repro.core.constraints import (ConstraintLike, _as_predicate,
                                    _conjunction)
from repro.core.exact import (exact_parallel_spdb,
                              exact_sequential_spdb)
from repro.core.observe import (Observation, _observation_index,
                                _weighted_chase)
from repro.core.parallel import run_parallel_chase_prepared
from repro.core.policies import DEFAULT_POLICY
from repro.core.program import Program
from repro.core.semantics import MassReport
from repro.core.termination import (TerminationReport,
                                    analyze_termination)
from repro.core.translate import ExistentialProgram
from repro.errors import DistributionError, MeasureError, ValidationError
from repro.pdb.database import (DiscretePDB, MonteCarloPDB,
                                mixture_pdb)
from repro.pdb.events import Event
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB

#: ``posterior(method="auto")`` stays with plain rejection when a pilot
#: run accepts at least this often; below it, escalate to guided.
_AUTO_ACCEPTANCE_THRESHOLD = 0.1

SEMANTICS = ("grohe", "barany")

#: Evidence accepted by :meth:`Session.observe`.
Evidence = Observation | ConstraintLike


def compile(program: str | Program | ExistentialProgram,
            *,
            semantics: str | None = None,
            registry=None,
            schema=None,
            extensional=None) -> "CompiledProgram":
    """Compile a GDatalog program for repeated inference.

    ``program`` may be surface text, a parsed :class:`Program`, or an
    already-translated :class:`ExistentialProgram`.  ``semantics``
    defaults to ``"grohe"`` for text/Program input; for a translated
    program it defaults to the program's own recorded semantics, and
    passing a different value explicitly is an error.  ``registry`` /
    ``schema`` / ``extensional`` are parse-time options and therefore
    only valid with program text.

    >>> compiled = compile("R(Flip<0.5>) :- true.")
    >>> compiled.on().exact().pdb.support_size()
    2
    """
    if not isinstance(program, str) and (
            registry is not None or schema is not None
            or extensional is not None):
        raise ValidationError(
            "registry/schema/extensional are parse-time options; "
            "pass them to Program.parse or compile program text")
    if isinstance(program, ExistentialProgram):
        if semantics is not None and semantics != program.semantics:
            raise ValidationError(
                f"program was translated under {program.semantics!r} "
                f"semantics; cannot recompile it as {semantics!r}")
        compiled = CompiledProgram(program.source, program.semantics)
        compiled._translated = program
        return compiled
    if isinstance(program, str):
        program = Program.parse(program, registry=registry,
                                schema=schema, extensional=extensional)
    elif not isinstance(program, Program):
        raise ValidationError(
            f"cannot compile {type(program).__name__}; expected "
            "program text, a Program, or an ExistentialProgram")
    return CompiledProgram(program, semantics or "grohe")


class CompiledProgram:
    """A program plus every artifact worth computing exactly once.

    Caches (lazily, each at most once): the existential-Datalog
    translation ``Ĝ`` - including normalization to single-random-term
    form - the visible-relation set, and the static termination report.
    Thousands of chases through :meth:`on`/:class:`Session` then share
    them instead of re-deriving them per call.
    """

    def __init__(self, program: Program, semantics: str = "grohe"):
        if semantics not in SEMANTICS:
            raise ValidationError(
                f"unknown semantics {semantics!r}; "
                f"use one of {SEMANTICS}")
        if not isinstance(program, Program):
            raise ValidationError(
                f"CompiledProgram needs a Program, got {program!r}")
        self.program = program
        self.semantics = semantics
        self._translated: ExistentialProgram | None = None
        self._visible: tuple[str, ...] | None = None
        self._report: TerminationReport | None = None
        self._deep_report = None

    # -- cached artifacts ---------------------------------------------------

    @property
    def translated(self) -> ExistentialProgram:
        """The existential translation ``Ĝ`` (computed at most once)."""
        if self._translated is None:
            if self.semantics == "grohe":
                self._translated = self.program.translate()
            else:
                self._translated = self.program.translate_barany()
        return self._translated

    @property
    def visible_relations(self) -> tuple[str, ...]:
        """The original program's relations (auxiliaries excluded)."""
        if self._visible is None:
            self._visible = tuple(self.translated.visible_relations())
        return self._visible

    def is_discrete(self) -> bool:
        """Whether exact chase-tree enumeration is available."""
        return self.translated.is_discrete()

    def analyze(self, deep: bool = False):
        """The static analysis report, cached.

        Plain (default): the termination report of Section 6.3.
        ``deep=True``: the full :class:`~repro.analysis.report.
        DeepReport` - termination plus the lint diagnostics and the
        static capability predictions of :mod:`repro.analysis`
        (which fast paths this program can take, and why it would
        fall back).  Instance-aware lint checks need an instance;
        use :meth:`Session.analyze` for those.
        """
        if self._report is None:
            self._report = analyze_termination(self.translated)
        if not deep:
            return self._report
        if self._deep_report is None:
            from repro.analysis import deep_analyze
            self._deep_report = deep_analyze(
                self.translated, termination=self._report)
        return self._deep_report

    # -- sessions -----------------------------------------------------------

    def on(self, instance: Instance | None = None,
           config: ChaseConfig | None = None,
           **overrides) -> "Session":
        """Bind an input instance (default: empty) and a config.

        Keyword overrides are applied on top of ``config`` (or the
        default config), e.g. ``compiled.on(data, seed=7,
        max_steps=500)``.
        """
        base = config if config is not None else DEFAULT_CONFIG
        if not isinstance(base, ChaseConfig):
            raise ValidationError(
                f"config must be a ChaseConfig, got {base!r}")
        base = base.replace(**overrides)
        root = instance if instance is not None else Instance.empty()
        if not isinstance(root, Instance):
            raise ValidationError(
                f"on(...) needs an Instance, got {root!r}")
        return Session(self, root, base)

    def apply_to_pdb(self, input_pdb: DiscretePDB,
                     config: ChaseConfig | None = None,
                     **overrides) -> InferenceResult:
        """Apply the program to a probabilistic *input* database.

        Theorem 4.8 (second part): the output is the mixture, over
        input worlds with their probabilities, of the per-world output
        SPDBs; input error mass passes through unchanged.
        """
        cfg = (config if config is not None
               else DEFAULT_CONFIG).replace(**overrides)
        start = time.perf_counter()
        components = []
        for world, weight in input_pdb.worlds():
            output = Session(self, world, cfg).exact().pdb
            components.append((weight, output))
        mixed = mixture_pdb(components)
        pdb = DiscretePDB(mixed.measure,
                          mixed.err + input_pdb.err_mass())
        return InferenceResult(pdb, "exact",
                               time.perf_counter() - start)

    def __repr__(self) -> str:
        state = "translated" if self._translated is not None \
            else "pending"
        return (f"CompiledProgram({len(self.program)} rules, "
                f"{self.semantics}, {state})")


class Session:
    """A compiled program bound to an input instance and a config.

    Sessions are cheap, immutable handles: fluent methods
    (:meth:`configure`, :meth:`observe`) return *new* sessions, while
    the expensive artifacts (translation, applicability bootstrap,
    exact SPDBs) live in caches shared through the
    :class:`CompiledProgram` and the session itself.
    """

    def __init__(self, compiled: CompiledProgram, instance: Instance,
                 config: ChaseConfig,
                 evidence: tuple[Evidence, ...] = (),
                 _engines: dict | None = None,
                 _exact_cache: dict | None = None):
        self.compiled = compiled
        self.instance = instance
        self.config = config
        self._evidence = tuple(evidence)
        # Engine bases depend only on (translated, instance, engine
        # kind) and exact results carry their full config as cache key,
        # so derived sessions (configure/observe) share both caches.
        self._engines: dict[str, object] = \
            _engines if _engines is not None else {}
        self._exact_cache: dict[ChaseConfig, InferenceResult] = \
            _exact_cache if _exact_cache is not None else {}

    # -- fluent construction ------------------------------------------------

    def configure(self, **overrides) -> "Session":
        """A new session with config fields replaced."""
        return Session(self.compiled, self.instance,
                       self.config.replace(**overrides),
                       self._evidence, self._engines,
                       self._exact_cache)

    def observe(self, *evidence: Evidence) -> "Session":
        """A new session conditioned on additional evidence.

        Evidence items are either sample-level
        :class:`~repro.core.observe.Observation` values (consumed by
        ``posterior(method="likelihood")``) or instance events /
        predicates (consumed by ``method="rejection"`` /
        ``method="exact"``).
        """
        if not evidence:
            raise ValidationError("observe() needs at least one "
                                  "observation or event")
        for item in evidence:
            if not isinstance(item, (Observation, Event)) \
                    and not callable(item):
                raise ValidationError(
                    f"not evidence: {item!r} (expected an Observation, "
                    "an Event, or a predicate on instances)")
        return Session(self.compiled, self.instance, self.config,
                       self._evidence + tuple(evidence),
                       self._engines, self._exact_cache)

    @property
    def evidence(self) -> tuple[Evidence, ...]:
        return self._evidence

    # -- engine amortization ------------------------------------------------

    def _base_engine(self, engine: str):
        """The (per-engine-kind, cached) base applicability state.

        The base engine bootstraps rule matching against the input
        instance exactly once; every chase run then starts from a
        ``fork()`` - a structure copy that skips re-matching.
        """
        base = self._engines.get(engine)
        if base is None:
            base = make_engine(self.compiled.translated, self.instance,
                               engine)
            self._engines[engine] = base
        return base

    def _fork_engine(self, engine: str):
        """A cheap independent engine for one run.

        Incremental bases hand out copy-on-write overlays - O(delta
        + |App|) instead of re-indexing the whole input instance per
        run.  Safe because sessions never mutate a cached base engine
        (the overlay contract: the parent stays frozen while forks
        live); the overlay's ``applicable()`` order is identical to a
        full fork's, so seeded scalar output is unchanged.
        """
        base = self._base_engine(engine)
        if isinstance(base, IncrementalApplicability):
            return overlay_fork(base)
        return base.fork()

    def _one_run(self, cfg: ChaseConfig,
                 rng: np.random.Generator) -> ChaseRun:
        translated = self.compiled.translated
        state = self._fork_engine(cfg.engine)
        if cfg.parallel:
            return run_parallel_chase_prepared(
                translated, state, self.instance, rng, cfg.max_steps,
                cfg.record_trace)
        return run_chase_prepared(
            translated, state, self.instance,
            cfg.policy or DEFAULT_POLICY, rng, cfg.max_steps,
            cfg.record_trace)

    # -- inference verbs ----------------------------------------------------

    def run(self, rng: np.random.Generator | int | None = None,
            **overrides) -> ChaseRun:
        """One chase run (sequential or parallel per the config)."""
        cfg = self.config.replace(**overrides)
        if rng is not None:
            chase_rng = rng if isinstance(rng, np.random.Generator) \
                else np.random.default_rng(rng)
        else:
            chase_rng = cfg.base_rng()
        return self._one_run(cfg, chase_rng)

    def sample(self, n: int = 1000, **overrides) -> InferenceResult:
        """Monte-Carlo output SPDB from ``n`` independent chase runs.

        Translation and applicability bootstrap happen exactly once
        for the whole batch.  The runs execute on the backend selected
        by ``cfg.backend`` (pass ``backend="batched"|"scalar"|"auto"``
        as an override): ``"scalar"`` replays the sequential chase per
        run, while ``"batched"`` advances all runs at once through
        :class:`repro.engine.batched.BatchedChase` - same output law,
        different draws - falling back to the scalar loop outside its
        supported class.

        ``cfg.shards >= 2`` (e.g. the override ``shards=k``) splits the
        batch across a process pool (:mod:`repro.serving`): per-world
        SeedSequence child streams make the merged output law-exact
        and bit-identical across shard counts.  ``shards=1`` and
        ``None`` take the single-process paths above unchanged.
        """
        cfg = self.config.replace(**overrides)
        if n <= 0:
            raise ValidationError(f"need n >= 1 runs, got {n}")
        if cfg.shards is not None and cfg.shards > 1:
            from repro.serving import sample_sharded
            return sample_sharded(self, n, cfg)
        if self._resolve_backend(cfg) == "batched":
            result = self._sample_batched(cfg, n)
            if result is not None:
                return result
        return self._sample_scalar(cfg, n)

    def _sample_scalar(self, cfg: ChaseConfig, n: int) -> InferenceResult:
        """The per-run sequential loop, one spawned stream per run."""
        visible = self.compiled.visible_relations
        self._base_engine(cfg.engine)
        start = time.perf_counter()
        runs = [self._one_run(cfg, rng) for rng in cfg.spawn_rngs(n)]
        worlds, truncated = self._collect_worlds(cfg, runs, visible)
        elapsed = time.perf_counter() - start
        return InferenceResult(MonteCarloPDB(worlds, truncated),
                               "sample", elapsed, n_runs=n,
                               n_truncated=truncated,
                               diagnostics={"backend": "scalar"})

    # -- batched backend ----------------------------------------------------

    def _resolve_backend(self, cfg: ChaseConfig) -> str:
        """Which sampling backend this call should attempt.

        ``"scalar"`` and ``"batched"`` are honoured as requested (the
        batched path still declines, falling back to scalar, when the
        program is outside its class).  ``"auto"`` only picks batched
        for a batch-safe policy on a batch-eligible program/config.
        """
        if cfg.backend == "scalar":
            return "scalar"
        if cfg.backend == "batched":
            return "batched"
        if cfg.policy is not None and not getattr(
                cfg.policy, "batch_safe", False):
            return "scalar"
        if not self._batch_eligible(cfg):
            return "scalar"
        return "batched"

    def _batch_eligible(self, cfg: ChaseConfig) -> bool:
        """Whether the batched backend's exactness argument applies.

        Requires no trace recording, the sequential chase, and weak
        acyclicity (of the translated program) - Theorem 6.1's
        order-independence is what makes the batched prefix produce
        exactly the sequential-chase law.  Both translations qualify:
        the per-rule (grohe) one, and - since the companion fan-out of
        shared ``Sample#`` auxiliaries is vectorized - the Bárány one,
        whose existential program the same theorem covers (the
        auxiliary keying differs, the chase calculus does not).
        """
        if cfg.parallel or cfg.record_trace:
            return False
        return self.compiled.analyze().weakly_acyclic

    def _batched_chase(self):
        """The cached per-(program, instance) batch sampler (or None)."""
        from repro.engine.batched import BatchedChase, BatchUnsupported
        cached = self._engines.get("batched")
        if cached is None:
            try:
                cached = BatchedChase(self.compiled.translated,
                                      self.instance)
            except BatchUnsupported:
                cached = False
            self._engines["batched"] = cached
        return cached or None

    def _sample_batched(self, cfg: ChaseConfig,
                        n: int) -> InferenceResult | None:
        """Vectorized sampling; None = declined (caller runs scalar).

        The result wraps a :class:`~repro.engine.batched.
        ColumnarMonteCarloPDB`: worlds that stayed vectorized through
        the multi-round cascade are kept columnar, so ``marginal`` /
        ``fact_marginals`` queries read the sample arrays directly and
        the n ``Instance`` fact-sets are only materialized if a caller
        walks ``result.pdb.worlds``.
        """
        if not self._batch_eligible(cfg):
            return None
        batched = self._batched_chase()
        if batched is None:
            return None
        from repro.engine.batched import ColumnarMonteCarloPDB
        visible = self.compiled.visible_relations
        start = time.perf_counter()
        outcome = batched.run_batch(n, cfg.base_rng(), cfg.spawn_rngs(n),
                                    cfg.policy or DEFAULT_POLICY,
                                    cfg.max_steps,
                                    cfg.batch_min_group)
        if outcome is None:
            return None
        pdb = ColumnarMonteCarloPDB(outcome, visible,
                                    keep_aux=cfg.keep_aux)
        elapsed = time.perf_counter() - start
        info = outcome.diagnostics
        return InferenceResult(
            pdb, "sample", elapsed,
            n_runs=n, n_truncated=pdb.truncated,
            diagnostics={"backend": "batched",
                         "n_split": info["n_split"],
                         "n_batched": n - info["n_split"],
                         "n_layer_firings": info["n_firings"],
                         "n_rounds": info["n_rounds"],
                         "n_groups": info["n_groups"],
                         "n_draw_calls": info["n_draw_calls"],
                         "n_pooled_draws": info["n_pooled_draws"]})

    @staticmethod
    def _collect_worlds(cfg: ChaseConfig, runs: Sequence[ChaseRun],
                        visible: tuple[str, ...],
                        ) -> tuple[list[Instance], int]:
        worlds: list[Instance] = []
        truncated = 0
        # Identity-memoized restriction: a fully-batched run with no
        # sampling layer hands back the *same* instance object n
        # times, which needs one restriction, not n.
        previous: Instance | None = None
        previous_restricted: Instance | None = None
        for run in runs:
            if not run.terminated:
                truncated += 1
            elif cfg.keep_aux:
                worlds.append(run.instance)
            else:
                if run.instance is not previous:
                    previous = run.instance
                    previous_restricted = run.instance.restrict(visible)
                worlds.append(previous_restricted)
        return worlds, truncated

    def outputs(self, n: int,
                **overrides) -> Iterator[Instance | None]:
        """Stream ``n`` chase outputs lazily (None = truncated/err)."""
        cfg = self.config.replace(**overrides)
        visible = self.compiled.visible_relations
        for run_rng in cfg.spawn_rngs(n):
            run = self._one_run(cfg, run_rng)
            if not run.terminated:
                yield None
            elif cfg.keep_aux:
                yield run.instance
            else:
                yield run.instance.restrict(visible)

    def exact(self, **overrides) -> InferenceResult:
        """Exact output SPDB by chase-tree enumeration (discrete only).

        Results are cached per effective config, so repeated queries
        (``marginal``, posterior conditioning) re-use the enumeration.
        """
        cfg = self.config.replace(**overrides)
        cached = self._exact_cache.get(cfg)
        if cached is not None:
            return cached
        translated = self.compiled.translated
        start = time.perf_counter()
        if cfg.parallel:
            pdb = exact_parallel_spdb(
                translated, self.instance, max_depth=cfg.max_depth,
                tolerance=cfg.tolerance, keep_aux=cfg.keep_aux)
        else:
            pdb = exact_sequential_spdb(
                translated, self.instance, cfg.policy,
                max_depth=cfg.max_depth, tolerance=cfg.tolerance,
                keep_aux=cfg.keep_aux)
        result = InferenceResult(pdb, "exact",
                                 time.perf_counter() - start)
        self._exact_cache[cfg] = result
        return result

    def marginal(self, fact, n: int | None = None) -> float:
        """Marginal probability of one output fact.

        Uses exact enumeration for discrete programs, Monte-Carlo
        sampling otherwise (``n`` runs, default 1000); with evidence
        attached, the marginal is taken under the posterior (method
        picked to match the evidence kind).
        """
        if self._evidence:
            if all(isinstance(item, Observation)
                   for item in self._evidence):
                method = "likelihood"
            elif self.compiled.is_discrete():
                method = "exact"
            else:
                method = "rejection"
            return self.posterior(method=method,
                                  n=n or 1000).marginal(fact)
        if self.compiled.is_discrete():
            return self.exact().marginal(fact)
        return self.sample(n or 1000).marginal(fact)

    def query(self, query, n: int | None = None):
        """Answer a relational-algebra plan under this session.

        One entry point for every inference mode, following
        :meth:`marginal`'s convention: exact enumeration for discrete
        programs, Monte-Carlo sampling otherwise (``n`` runs, default
        1000); with evidence attached, the plan is answered under the
        posterior (method picked to match the evidence kind).  Returns
        a :class:`~repro.api.results.QueryResult`; over the batched
        backend's columnar ensembles the plan is compiled to numpy
        (:mod:`repro.query.columnar`) instead of materializing worlds.
        """
        if self._evidence:
            if all(isinstance(item, Observation)
                   for item in self._evidence):
                method = "likelihood"
            elif self.compiled.is_discrete():
                method = "exact"
            else:
                method = "rejection"
            return self.posterior(method=method,
                                  n=n or 1000).query(query)
        if self.compiled.is_discrete():
            return self.exact().query(query)
        return self.sample(n or 1000).query(query)

    # -- conditioning -------------------------------------------------------

    def stream(self, n: int = 1000, max_window: int | None = None,
               **overrides):
        """An incrementally-conditionable posterior over ``n`` worlds.

        Samples the prior once through the batched backend and returns
        a :class:`repro.api.stream.StreamingPosterior` whose
        ``observe(evidence)`` updates the posterior in place -
        O(evidence) per step instead of the O(program) of a fresh
        :meth:`posterior` call.  Evidence already attached to this
        session is applied to the stream up front.  ``max_window``
        bounds the number of active evidence items (oldest
        auto-retracted: a sliding window).  Raises
        :class:`~repro.errors.StreamingUnsupported` when the program/
        config is outside the batched backend's class or the evidence
        cannot be applied exactly; fall back to
        ``observe(...).posterior(method="likelihood")`` then.
        """
        from repro.api.stream import StreamingPosterior
        cfg = self.config.replace(**overrides)
        return StreamingPosterior(self, cfg, n, max_window)

    def posterior(self, method: str = "rejection", n: int = 1000,
                  **overrides) -> InferenceResult:
        """Posterior inference given the session's observed evidence.

        ``method="rejection"`` - rejection-sample on instance events
        (positive-probability events only, any program);
        ``method="likelihood"`` - likelihood weighting on sample-level
        :class:`Observation` evidence (sound for continuous,
        measure-zero observations);
        ``method="exact"`` - restrict-and-normalize the exact SPDB on
        instance events (discrete programs);
        ``method="guided"`` - constraint-guided importance sampling:
        propagate the evidence backwards through the deterministic
        fragment to per-draw feasible regions, sample from the
        truncated proposal through the batched backend and reweight
        exactly (any evidence mix; falls back to likelihood/rejection
        with a recorded diagnostic when the program is outside the
        batched class);
        ``method="auto"`` - rejection when a pilot run accepts often
        enough, guided otherwise.
        """
        cfg = self.config.replace(**overrides)
        if not self._evidence:
            raise ValidationError(
                "posterior() without evidence; call "
                ".observe(...) first")
        observations = [item for item in self._evidence
                        if isinstance(item, Observation)]
        constraints = [item for item in self._evidence
                       if not isinstance(item, Observation)]
        if method == "likelihood":
            if constraints:
                raise ValidationError(
                    "likelihood weighting conditions on sample-level "
                    "Observations only; event evidence needs "
                    "method='rejection' or method='exact'")
            return self._posterior_likelihood(cfg, observations, n)
        if method == "guided":
            return self._posterior_guided(cfg, observations,
                                          constraints, n)
        if method == "auto":
            return self._posterior_auto(cfg, observations,
                                        constraints, n)
        if observations:
            raise ValidationError(
                f"method={method!r} conditions on instance events; "
                "Observation evidence needs method='likelihood', "
                "'guided' or 'auto'")
        if method == "rejection":
            return self._posterior_rejection(cfg, constraints, n)
        if method == "exact":
            return self._posterior_exact(cfg, constraints)
        raise ValidationError(
            f"unknown posterior method {method!r}; use 'rejection', "
            "'likelihood', 'exact', 'guided' or 'auto'")

    def _posterior_rejection(self, cfg: ChaseConfig,
                             constraints: Sequence[ConstraintLike],
                             n: int) -> InferenceResult:
        satisfied = _conjunction(constraints)
        visible = self.compiled.visible_relations
        self._base_engine(cfg.engine)
        start = time.perf_counter()
        accepted: list[Instance] = []
        truncated = 0
        for rng in cfg.spawn_rngs(n):
            run = self._one_run(cfg, rng)
            if not run.terminated:
                truncated += 1
                continue
            world = run.instance if cfg.keep_aux \
                else run.instance.restrict(visible)
            if satisfied(world):
                accepted.append(world)
        if not accepted:
            raise MeasureError(
                f"no accepted samples in {n} proposals; the "
                "constraints have (near-)zero probability - "
                "conditioning on measure-zero events is undefined in "
                "this semantics (paper, Section 7)")
        elapsed = time.perf_counter() - start
        terminated = n - truncated
        return InferenceResult(
            MonteCarloPDB(accepted, 0), "rejection", elapsed,
            n_runs=n, n_truncated=truncated,
            diagnostics={
                "n_proposed": n,
                "n_accepted": len(accepted),
                "acceptance_rate": len(accepted) / terminated
                if terminated else 0.0,
            })

    def _posterior_likelihood(self, cfg: ChaseConfig,
                              observations: Sequence[Observation],
                              n: int) -> InferenceResult:
        translated = self.compiled.translated
        index = _observation_index(translated, observations)
        visible = self.compiled.visible_relations
        policy = cfg.policy or DEFAULT_POLICY
        self._base_engine(cfg.engine)
        start = time.perf_counter()
        worlds: list[Instance] = []
        weights: list[float] = []
        truncated = 0
        for rng in cfg.spawn_rngs(n):
            outcome = _weighted_chase(
                translated, self._fork_engine(cfg.engine),
                self.instance, policy, rng, cfg.max_steps, index)
            if outcome is None:
                truncated += 1
                continue
            world, weight = outcome
            worlds.append(world if cfg.keep_aux
                          else world.restrict(visible))
            weights.append(weight)
        if not worlds:
            raise ValidationError(
                "all runs were truncated; increase max_steps")
        posterior = WeightedPDB(worlds, weights)
        elapsed = time.perf_counter() - start
        return InferenceResult(
            posterior, "likelihood", elapsed, n_runs=n,
            n_truncated=truncated,
            diagnostics={
                "mean_weight": sum(weights) / len(weights),
                "effective_sample_size":
                    posterior.effective_sample_size(),
            })

    def _posterior_guided(self, cfg: ChaseConfig,
                          observations: Sequence[Observation],
                          constraints: Sequence[ConstraintLike],
                          n: int) -> InferenceResult:
        """Constraint-guided importance sampling (backward regions).

        Derives per-draw feasible regions by walking the evidence
        backwards through the deterministic fragment
        (:func:`repro.core.backward.backward_plan`), samples the
        batched chase from the region-truncated proposal, and corrects
        with the exact per-draw importance weights the truncated
        samplers report.  Regions are *necessary-condition*
        over-approximations, so event evidence is still verified
        post-hoc on each world (failing worlds get weight zero) -
        the result is law-exact regardless of how precise the
        backward walk managed to be.  Programs outside the batched
        class fall back to likelihood weighting (observation
        evidence) or rejection (event evidence) with the reason
        recorded under ``diagnostics["fallback_reason"]``.
        """
        if not self._batch_eligible(cfg):
            return self._guided_fallback(
                cfg, observations, constraints, n,
                "program/config is outside the batched backend's "
                "class (needs weak acyclicity, no parallel chase, "
                "no trace recording)")
        batched = self._batched_chase()
        if batched is None:
            return self._guided_fallback(
                cfg, observations, constraints, n,
                "the batched engine declined the program")
        from repro.core.backward import backward_plan
        from repro.engine.batched import ColumnarMonteCarloPDB
        plan = backward_plan(self.compiled.translated,
                             batched.closed_source, batched.growable,
                             observations, constraints)
        if not plan.satisfiable:
            raise MeasureError(
                "the evidence is unreachable: backward propagation "
                "proved that no chase world can satisfy it, so the "
                "conditioning event has probability zero")
        visible = self.compiled.visible_relations
        start = time.perf_counter()
        log_weights = np.zeros(n)
        try:
            outcome = batched.run_batch(
                n, cfg.base_rng(), cfg.spawn_rngs(n),
                cfg.policy or DEFAULT_POLICY,
                cfg.max_steps, min_group=1, regions=plan.regions,
                log_weights=log_weights)
        except DistributionError as err:
            raise MeasureError(
                f"evidence has zero prior mass under the program: "
                f"{err}") from None
        if outcome is None:
            return self._guided_fallback(
                cfg, observations, constraints, n,
                "the batched cascade declined mid-run (a scalar "
                "continuation would sample constrained draws "
                "unconstrained)")
        pdb = ColumnarMonteCarloPDB(outcome, visible,
                                    keep_aux=cfg.keep_aux)
        # Exact importance weights, max-normalized for stability; the
        # regions were only necessary conditions, so event evidence is
        # re-verified world by world and failures zero-weighted.
        weights = np.exp(log_weights - log_weights.max())
        n_accepted = n
        if constraints:
            satisfied = _conjunction(constraints)
            mask = np.fromiter(
                (world is not None and satisfied(world)
                 for world in pdb.world_slots()),
                dtype=bool, count=n)
            weights = np.where(mask, weights, 0.0)
            n_accepted = int(mask.sum())
        elif pdb.truncated:
            mask = np.fromiter(
                (world is not None for world in pdb.world_slots()),
                dtype=bool, count=n)
            weights = np.where(mask, weights, 0.0)
            n_accepted = int(mask.sum())
        if not np.any(weights > 0.0):
            raise MeasureError(
                f"no worlds satisfied the evidence in {n} guided "
                "proposals; the residual (non-propagated) part of "
                "the evidence has (near-)zero probability")
        posterior = WeightedColumnarPDB(pdb, weights)
        elapsed = time.perf_counter() - start
        info = outcome.diagnostics
        return InferenceResult(
            posterior, "guided", elapsed,
            n_runs=n, n_truncated=pdb.truncated,
            diagnostics={
                "backend": "guided",
                "n_proposed": n,
                "n_accepted": n_accepted,
                "acceptance_rate": n_accepted / n,
                "n_pinned": plan.n_pinned,
                "n_truncated": plan.n_truncated,
                "n_guided_draws": info.get("n_guided_draws", 0),
                "given_up": plan.given_up,
                "mean_weight": float(weights.mean()),
                "effective_sample_size":
                    posterior.effective_sample_size(),
            })

    def _guided_fallback(self, cfg: ChaseConfig,
                         observations: Sequence[Observation],
                         constraints: Sequence[ConstraintLike],
                         n: int, reason: str) -> InferenceResult:
        """Law-preserving fallback when guided sampling is unavailable."""
        if observations and constraints:
            raise ValidationError(
                f"guided conditioning is unavailable ({reason}) and "
                "no single fallback handles mixed Observation + event "
                "evidence; split the evidence across "
                "method='likelihood' and method='rejection' calls")
        if observations:
            result = self._posterior_likelihood(cfg, observations, n)
        else:
            result = self._posterior_rejection(cfg, constraints, n)
        result.diagnostics.update(fallback=result.kind,
                                  fallback_reason=reason)
        return result

    def _posterior_auto(self, cfg: ChaseConfig,
                        observations: Sequence[Observation],
                        constraints: Sequence[ConstraintLike],
                        n: int) -> InferenceResult:
        """Rejection when it accepts often enough, guided otherwise.

        Event-only evidence gets a small rejection pilot; if its
        acceptance rate clears ``_AUTO_ACCEPTANCE_THRESHOLD`` the
        full run stays with plain rejection (unweighted worlds are
        simpler downstream), otherwise - and for any evidence mix
        involving observations - the guided sampler takes over.
        """
        if observations or not constraints:
            result = self._posterior_guided(cfg, observations,
                                            constraints, n)
            result.diagnostics.setdefault("auto", "guided")
            return result
        n_pilot = min(max(50, n // 20), n)
        try:
            pilot = self._posterior_rejection(cfg, constraints,
                                              n_pilot)
            pilot_rate = pilot.diagnostics["acceptance_rate"]
        except MeasureError:
            pilot_rate = 0.0
        if pilot_rate >= _AUTO_ACCEPTANCE_THRESHOLD:
            result = self._posterior_rejection(cfg, constraints, n)
        else:
            result = self._posterior_guided(cfg, observations,
                                            constraints, n)
        result.diagnostics.update(auto=result.kind,
                                  pilot_acceptance=pilot_rate,
                                  n_pilot=n_pilot)
        return result

    def _posterior_exact(self, cfg: ChaseConfig,
                         constraints: Sequence[ConstraintLike],
                         ) -> InferenceResult:
        satisfied = _conjunction(constraints)
        start = time.perf_counter()
        prior = self.exact(**_config_kwargs(cfg)).pdb
        try:
            posterior = prior.condition(satisfied)
        except MeasureError:
            raise MeasureError(
                "constraints have probability zero under the program "
                "output; conditioning is undefined (cf. the paper's "
                "Borel-Kolmogorov discussion, Section 7)") from None
        return InferenceResult(posterior, "exact",
                               time.perf_counter() - start)

    # -- analysis -----------------------------------------------------------

    def analyze(self, deep: bool = False):
        """Static analysis report (cached on the compiled program).

        ``deep=True`` returns the combined
        :class:`~repro.analysis.report.DeepReport` and additionally
        runs the *instance-aware* lint checks (semi-join
        unreachability over the session's input, constant-foldable
        parameters), so it is cached per session rather than on the
        compiled program.
        """
        if not deep:
            return self.compiled.analyze()
        cached = self._engines.get("deep_analysis")
        if cached is None:
            from repro.analysis import deep_analyze
            cached = deep_analyze(self.compiled.translated,
                                  instance=self.instance,
                                  termination=self.compiled.analyze())
            self._engines["deep_analysis"] = cached
        return cached

    def mass_report(self,
                    budgets: Sequence[int] = (1, 2, 4, 8, 16, 32),
                    **overrides) -> list[MassReport]:
        """Figure-1 mass accounting across depth budgets (E9)."""
        cfg = self.config.replace(**overrides)
        translated = self.compiled.translated
        reports = []
        for budget in budgets:
            pdb = exact_sequential_spdb(
                translated, self.instance, cfg.policy,
                max_depth=budget, tolerance=cfg.tolerance)
            reports.append(MassReport(budget, pdb.total_mass(),
                                      pdb.err_mass()))
        return reports

    def __repr__(self) -> str:
        evidence = f", {len(self._evidence)} evidence" \
            if self._evidence else ""
        return (f"Session({self.compiled!r}, "
                f"|D0|={len(self.instance)}{evidence})")


def _config_kwargs(cfg: ChaseConfig) -> dict:
    """ChaseConfig -> replace() kwargs (for nested override passing)."""
    import dataclasses
    return {f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(cfg)}


# Re-exported conveniences so ``repro.api`` is self-contained.
as_predicate = _as_predicate
