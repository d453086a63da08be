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
:class:`numpy.random.SeedSequence`, so each scalar run's draws depend
only on the seed and the run's index.

>>> import repro
>>> compiled = repro.compile("Earthquake(c, Flip<0.1>) :- City(c, r).")
>>> data = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
>>> result = compiled.on(data).exact()
>>> round(result.marginal(repro.Fact("Earthquake", ("Napa", 1))), 3)
0.1
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from repro.api.config import (DEFAULT_CONFIG, ChaseConfig,
                               _check_runs)
from repro.api.results import InferenceResult
from repro.core.applicability import (IncrementalApplicability,
                                      overlay_fork)
from repro.core.chase import ChaseRun, run_chase_prepared
from repro.core.exact import (exact_parallel_spdb,
                              exact_sequential_spdb)
from repro.core.observe import (Evidence, Observation,
                                _observation_index, as_evidence)
from repro.core.parallel import run_parallel_chase_prepared
from repro.core.policies import DEFAULT_POLICY
from repro.core.program import Program
from repro.core.semantics import MassReport
from repro.core.termination import (TerminationReport,
                                    analyze_termination)
from repro.core.translate import ExistentialProgram
from repro.distributions.regions import Region
from repro.errors import DistributionError, MeasureError, ValidationError
from repro.pdb.database import (DiscretePDB, MonteCarloPDB,
                                mixture_pdb)
from repro.pdb.events import EventLike, conjunction
from repro.pdb.instances import Instance
from repro.pdb.weighted import WeightedColumnarPDB, WeightedPDB
from repro.query.columnar import event_mask

#: ``posterior(method="auto")`` keeps the unguided rejection batch when
#: at least this share of its worlds accepts; below it, runs guided.
_AUTO_ACCEPTANCE_THRESHOLD = 0.1

#: ``diagnostics["fallback_reason"]`` of a batch the engine declined
#: at run time, after the gate admitted the call.
_BATCH_DECLINED = ("the batched engine declined the batch (a cascade "
                   "round overruns the step budget or cannot be "
                   "prepared)")

SEMANTICS = ("grohe", "barany")

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
    form - the visible-relation set, the static termination report and
    the capability report (the batch gate).  Thousands of chases
    through :meth:`on`/:class:`Session` then share them instead of
    re-deriving them per call.
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
        self._capability_report = None
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
                self.translated, termination=self._report,
                capabilities=self._capabilities())
        return self._deep_report

    def _capabilities(self):
        """The cached capability report: every session's batch gate.

        ``analyze(deep=True)`` reports this same
        :class:`~repro.analysis.capabilities.CapabilityReport`; it is
        built without the lint layer, so the gate never pays for lint.
        """
        if self._capability_report is None:
            from repro.analysis.capabilities import capability_report
            self._capability_report = capability_report(
                self.translated, self.analyze())
        return self._capability_report

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
                 _exact_cache: "_ExactCache | None" = None):
        self.compiled = compiled
        self.instance = instance
        self.config = config
        self._evidence = tuple(evidence)
        # Engine bases depend only on (translated, instance) and exact
        # results on the config fields enumeration reads, so derived
        # sessions (configure/observe) share both caches.
        self._engines: dict[str, object] = \
            _engines if _engines is not None else {}
        self._exact_cache: _ExactCache = \
            _exact_cache if _exact_cache is not None else _ExactCache()

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
        ``method="exact"``); ``method="guided"`` and ``"auto"`` take
        any mix of the two.  A bare :class:`~repro.pdb.facts.Fact` is
        shorthand for its :class:`~repro.pdb.events.ContainsFactEvent`
        (:func:`~repro.core.observe.as_evidence`, the check
        :meth:`StreamingPosterior.observe
        <repro.api.stream.StreamingPosterior.observe>` makes too).
        """
        if not evidence:
            raise ValidationError("observe() needs at least one "
                                  "observation or event")
        return Session(self.compiled, self.instance, self.config,
                       self._evidence + tuple(map(as_evidence, evidence)),
                       self._engines, self._exact_cache)

    @property
    def evidence(self) -> tuple[Evidence, ...]:
        return self._evidence

    # -- engine amortization ------------------------------------------------

    def _base_engine(self) -> IncrementalApplicability:
        """The cached base applicability state of the scalar loop.

        The base engine bootstraps rule matching against the input
        instance exactly once; every chase run then starts from a fork
        that skips re-matching.
        """
        base = self._engines.get("incremental")
        if base is None:
            base = IncrementalApplicability(self.compiled.translated,
                                            self.instance)
            self._engines["incremental"] = base
        return base

    def _fork_engine(self):
        """A cheap independent engine for one run.

        A copy-on-write overlay of the base - O(delta + |App|) instead
        of re-indexing the whole input instance per run.  Safe because
        sessions never mutate the cached base engine (the overlay
        contract: the parent stays frozen while forks live); the
        overlay's ``applicable()`` order is identical to a full fork's.
        """
        return overlay_fork(self._base_engine())

    def _one_run(self, cfg: ChaseConfig, rng: np.random.Generator,
                 observed: dict | None = None,
                 record_trace: bool = False) -> ChaseRun:
        """One scalar run; ``observed`` forces and weights draws.

        Likelihood weighting always runs the sequential loop
        (:func:`~repro.core.chase.run_chase_prepared`).
        """
        translated = self.compiled.translated
        state = self._fork_engine()
        if cfg.parallel and not observed:
            return run_parallel_chase_prepared(
                translated, state, self.instance, rng, cfg.max_steps,
                record_trace)
        return run_chase_prepared(
            translated, state, self.instance,
            cfg.policy or DEFAULT_POLICY, rng, cfg.max_steps,
            record_trace, observed)

    def _scalar_runs(self, cfg: ChaseConfig, n: int,
                     observed: dict | None = None,
                     ) -> tuple[list[ChaseRun], list[Instance], int]:
        """``n`` runs of the scalar loop, one spawned stream each.

        Returns the runs, their terminated worlds (restricted to the
        visible relations unless ``keep_aux``) and the truncated count.
        """
        visible = self.compiled.visible_relations
        runs = [self._one_run(cfg, rng, observed)
                for rng in cfg.spawn_rngs(n)]
        worlds: list[Instance] = []
        truncated = 0
        # Identity-memoized restriction: a run with no sampling layer
        # hands back the *same* instance object n times, which needs
        # one restriction, not n.
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
        return runs, worlds, truncated

    # -- inference verbs ----------------------------------------------------

    def run(self, rng: np.random.Generator | int | None = None,
            **overrides) -> ChaseRun:
        """One chase run (sequential or parallel per the config).

        The run carries its firing trace: ``run().trace`` holds one
        :class:`~repro.core.chase.ChaseStep` per fired applicable pair.
        """
        cfg = self.config.replace(**overrides)
        if rng is not None:
            chase_rng = rng if isinstance(rng, np.random.Generator) \
                else np.random.default_rng(rng)
        else:
            chase_rng = cfg.base_rng()
        return self._one_run(cfg, chase_rng, record_trace=True)

    def sample(self, n: int = 1000, **overrides) -> InferenceResult:
        """Monte-Carlo output SPDB from ``n`` independent chase runs.

        Translation and applicability bootstrap happen exactly once
        for the whole batch.  The runs execute on the backend selected
        by ``cfg.backend`` (pass ``backend="batched"|"scalar"`` as an
        override): ``"scalar"`` replays the chase per run (sequential
        under ``policy``, or parallel), while ``"batched"`` advances
        all runs at once through
        :class:`repro.engine.batched.BatchedChase` - same output law,
        different draws - falling back to the scalar loop outside its
        supported class and for every batch it declines, so a declined
        batch equals ``backend="scalar"`` world for world; a scalar
        result carries ``diagnostics["fallback_reason"]``, as a scalar
        posterior does.  ``n`` must be an int (numpy integers too) of
        at least 1.
        """
        n = _check_runs(n)
        cfg = self.config.replace(**overrides)
        reason = self._batch_refusal(cfg)
        if reason is None:
            result = self._sample_batched(cfg, n)
            if result is not None:
                return result
            reason = _BATCH_DECLINED
        return self._sample_scalar(cfg, n, reason)

    def _sample_scalar(self, cfg: ChaseConfig, n: int,
                       reason: str) -> InferenceResult:
        """The per-run scalar loop, one spawned stream per run."""
        self._base_engine()
        start = time.perf_counter()
        _runs, worlds, truncated = self._scalar_runs(cfg, n)
        elapsed = time.perf_counter() - start
        return InferenceResult(MonteCarloPDB(worlds, truncated),
                               "sample", elapsed, n_runs=n,
                               n_truncated=truncated,
                               diagnostics={"backend": "scalar",
                                            "fallback_reason": reason})

    # -- batched backend ----------------------------------------------------

    def _batch_refusal(self, cfg: ChaseConfig) -> str | None:
        """Why this call may not run the batched backend (None: it may).

        The one eligibility check of every Monte-Carlo verb: ``sample``,
        every ``posterior`` method and ``stream`` ask it, and a refused
        call runs the scalar loop (``stream`` raises instead).  It asks
        two questions: did the call ask for ``backend="scalar"``, and
        does the capability report find the program batch-eligible
        (``CompiledProgram._capabilities``, read once per program)?
        Eligibility is weak acyclicity of the translated program and
        well-formed companion heads
        (:func:`~repro.analysis.capabilities.batch_defects`), under
        both translations.  The chase order never refuses: the output
        SPDB is the same under every policy and under the parallel
        chase (Theorems 6.1 and 5.6), so the batch stands for each of
        them.  A refused program gets the report's first reason.
        """
        if cfg.backend == "scalar":
            return "backend='scalar' was requested"
        batched = self.compiled._capabilities().batched
        if not batched.eligible:
            return batched.reasons[0]
        return None

    def _batched_chase(self):
        """The cached per-(program, instance) batch sampler.

        Only for calls :meth:`_batch_refusal` admitted: on a program
        it refuses, construction raises
        :exc:`~repro.engine.batched.BatchUnsupported` with the same
        reason.
        """
        from repro.engine.batched import BatchedChase
        cached = self._engines.get("batched")
        if cached is None:
            cached = BatchedChase(self.compiled.translated,
                                  self.instance)
            self._engines["batched"] = cached
        return cached

    def _sample_batched(self, cfg: ChaseConfig,
                        n: int) -> InferenceResult | None:
        """Vectorized sampling of an admitted call; None = declined.

        None when the engine declines the batch (a cascade round
        overruns the step budget or cannot be prepared); the caller
        then runs the scalar loop.  The result wraps a
        :class:`~repro.engine.batched.ColumnarMonteCarloPDB`: every
        world stayed vectorized through the multi-round cascade and is
        kept columnar, so ``marginal`` / ``fact_marginals`` queries read
        the sample arrays directly and the n ``Instance`` fact-sets are
        only materialized if a caller walks ``result.pdb.worlds``.
        """
        from repro.engine.batched import ColumnarMonteCarloPDB
        visible = self.compiled.visible_relations
        start = time.perf_counter()
        outcome = self._batched_chase().run_batch(n, cfg.base_rng(),
                                                  cfg.max_steps)
        if outcome is None:
            return None
        pdb = ColumnarMonteCarloPDB(outcome, visible,
                                    keep_aux=cfg.keep_aux)
        elapsed = time.perf_counter() - start
        info = outcome.diagnostics
        return InferenceResult(
            pdb, "sample", elapsed, n_runs=n, n_truncated=0,
            diagnostics={"backend": "batched",
                         "n_layer_firings": info["n_firings"],
                         "n_rounds": info["n_rounds"],
                         "n_groups": info["n_groups"],
                         "n_cached_rounds": info["n_cached_rounds"],
                         "n_composed_rounds": info["n_composed_rounds"],
                         "n_draw_calls": info["n_draw_calls"],
                         "n_pooled_draws": info["n_pooled_draws"]})

    def outputs(self, n: int,
                **overrides) -> Iterator[Instance | None]:
        """Stream ``n`` chase outputs lazily (None = truncated/err).

        The arguments are checked now; each run happens when its
        output is read.
        """
        n = _check_runs(n)
        cfg = self.config.replace(**overrides)
        visible = self.compiled.visible_relations

        def generate() -> Iterator[Instance | None]:
            for run_rng in cfg.spawn_rngs(n):
                run = self._one_run(cfg, run_rng)
                if not run.terminated:
                    yield None
                elif cfg.keep_aux:
                    yield run.instance
                else:
                    yield run.instance.restrict(visible)

        return generate()

    def exact(self, **overrides) -> InferenceResult:
        """Exact output SPDB by chase-tree enumeration (discrete only).

        Results are cached by the config fields enumeration reads
        (``policy``, ``parallel``, ``max_depth``, ``tolerance``,
        ``keep_aux``), so repeated queries (``marginal``, posterior
        conditioning) re-use the enumeration whatever their seed,
        backend or budget.  The cache keeps the
        :data:`_EXACT_CACHE_SIZE` most recently used results.
        """
        cfg = self.config.replace(**overrides)
        key = (cfg.policy, cfg.parallel, cfg.max_depth, cfg.tolerance,
               cfg.keep_aux)
        cached = self._exact_cache.get(key)
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
        self._exact_cache.put(key, result)
        return result

    def marginal(self, fact, n: int | None = None) -> float:
        """Marginal probability of one output fact.

        Uses exact enumeration for discrete programs, Monte-Carlo
        sampling otherwise (``n`` runs, default 1000); with evidence
        attached, the marginal is taken under the posterior
        (:meth:`_inference` picks the method).
        """
        return self._inference(n).marginal(fact)

    def query(self, query, n: int | None = None):
        """Answer a relational-algebra plan under this session.

        One entry point for every inference mode, following
        :meth:`marginal`'s convention: exact enumeration for discrete
        programs, Monte-Carlo sampling otherwise (``n`` runs, default
        1000); with evidence attached, the plan is answered under the
        posterior (:meth:`_inference` picks the method).  Returns
        a :class:`~repro.api.results.QueryResult`; over the batched
        backend's columnar ensembles the plan is compiled to numpy
        (:mod:`repro.query.columnar`) instead of materializing worlds.
        """
        return self._inference(n).query(query)

    def _inference(self, n: int | None) -> InferenceResult:
        """The result :meth:`marginal` and :meth:`query` read.

        Exact enumeration for a discrete program whose evidence, if
        any, holds no observation (conditioned when there are
        events); otherwise the posterior at :meth:`posterior`'s
        default method over ``n`` runs (default 1000), or ``n``
        sampled runs without evidence.
        """
        n = 1000 if n is None else _check_runs(n)
        observed = any(isinstance(item, Observation)
                       for item in self._evidence)
        if self.compiled.is_discrete() and not observed:
            if self._evidence:
                return self.posterior(method="exact")
            return self.exact()
        if self._evidence:
            return self.posterior(n=n)
        return self.sample(n)

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
        :class:`~repro.errors.StreamingUnsupported` when
        :meth:`_batch_refusal` refuses the call (as it would send
        ``sample`` and ``posterior`` to the scalar loop) or the
        evidence cannot be applied exactly; fall back to
        ``observe(...).posterior(method="likelihood")`` then.
        """
        from repro.api.stream import StreamingPosterior
        n = _check_runs(n)
        cfg = self.config.replace(**overrides)
        return StreamingPosterior(self, cfg, n, max_window)

    def posterior(self, method: str | None = None, n: int = 1000,
                  **overrides) -> InferenceResult:
        """Posterior inference given the session's observed evidence.

        Without a ``method``, the evidence picks it: ``likelihood``
        for observations only, ``rejection`` for events only and
        ``auto`` for a mix - the one default of every surface (the
        server's ``posterior`` op, ``repro posterior`` and
        :meth:`ServingClient.posterior
        <repro.serving.client.ServingClient.posterior>` pass the
        method on, None included).

        ``method="exact"`` restricts and normalizes the exact SPDB on
        instance events (discrete programs).  The Monte-Carlo methods
        share one route: a batch of ``n`` worlds through the batched
        backend, or - when :meth:`_batch_refusal` refuses the call or
        the engine declines the batch - ``n`` runs of the one scalar
        loop, which forces observed draws and weights each run by
        their densities, then drops (``rejection``) or zero-weights
        worlds that violate the events.  ``diagnostics["backend"]``
        names the path (``"batched"``, ``"guided"`` or ``"scalar"``),
        and a scalar result carries ``diagnostics["fallback_reason"]``.
        Weights are on the likelihood scale everywhere: a world's
        weight is its evidence likelihood, so
        ``diagnostics["mean_weight"]`` estimates the evidence
        probability.

        ``method="rejection"`` - instance events only (positive
        probability, any program); the batch runs unguided and keeps
        the worlds satisfying the events, a
        :class:`~repro.pdb.database.MonteCarloPDB` - on the batched
        backend the batch restricted to them
        (:meth:`ColumnarMonteCarloPDB.subset
        <repro.engine.batched.ColumnarMonteCarloPDB.subset>`), still
        columnar;
        ``method="likelihood"`` - :class:`Observation` evidence only
        (sound for continuous, measure-zero observations); observed
        draws are pinned, a :class:`~repro.pdb.weighted.WeightedPDB`
        (columnar when batched);
        ``method="guided"`` - any evidence mix: the evidence is
        propagated backwards through the deterministic fragment to
        per-draw feasible regions, the batch samples the truncated
        proposal and reweights exactly (:meth:`_posterior_batched`),
        reporting ``diagnostics["n_pinned"]`` (regions pinned to
        finite sets) and ``diagnostics["n_truncated_regions"]``
        (regions truncated to intervals; the result's ``n_truncated``
        counts budget-truncated runs);
        ``method="auto"`` - observations go to guided; event evidence
        keeps the unguided rejection batch when it accepts at least
        :data:`_AUTO_ACCEPTANCE_THRESHOLD` of its worlds and runs
        guided otherwise.  ``diagnostics["auto"]`` names the choice.
        """
        n = _check_runs(n)
        cfg = self.config.replace(**overrides)
        if not self._evidence:
            raise ValidationError(
                "posterior() without evidence; call "
                ".observe(...) first")
        observations = [item for item in self._evidence
                        if isinstance(item, Observation)]
        events = [item for item in self._evidence
                  if not isinstance(item, Observation)]
        if method is None:
            method = "auto" if observations and events \
                else "likelihood" if observations else "rejection"
        if method not in ("rejection", "likelihood", "exact", "guided",
                          "auto"):
            raise ValidationError(
                f"unknown posterior method {method!r}; use "
                "'rejection', 'likelihood', 'exact', 'guided' or "
                "'auto'")
        if method == "likelihood" and events:
            raise ValidationError(
                "likelihood weighting conditions on sample-level "
                "Observations only; event evidence needs "
                "method='rejection', 'guided' or 'auto', or "
                "method='exact' on a discrete program")
        if method in ("rejection", "exact") and observations:
            raise ValidationError(
                f"method={method!r} conditions on instance events; "
                "Observation evidence needs method='likelihood', "
                "'guided' or 'auto'")
        if method == "exact":
            return self._posterior_exact(cfg, events)
        index = _observation_index(self.compiled.translated,
                                   observations)
        reason = self._batch_refusal(cfg)
        if reason is None:
            result = self._posterior_batched(cfg, method, index,
                                             observations, events,
                                             n)
            if result is not None:
                return result
            reason = _BATCH_DECLINED
        result = self._posterior_scalar(cfg, index, events, n)
        result.diagnostics["fallback_reason"] = reason
        if method == "auto":
            result.diagnostics["auto"] = result.kind
        return result

    def _posterior_batched(self, cfg: ChaseConfig, method: str,
                           index: dict,
                           observations: Sequence[Observation],
                           events: Sequence[EventLike],
                           n: int) -> InferenceResult | None:
        """A Monte-Carlo posterior on the batched backend (None: declined).

        ``likelihood`` pins the observed draws; ``rejection`` runs the
        batch unguided and keeps the worlds satisfying the events;
        ``guided`` pins observations and truncates event-constrained
        draws to feasible regions derived by walking the evidence
        backwards through the deterministic fragment
        (:func:`repro.core.backward.backward_plan`).  Regions are
        *necessary-condition* over-approximations, so event evidence
        is still verified on each world (failing worlds get weight
        zero) - the result is law-exact however precise the backward
        walk managed to be.  ``auto`` runs guided for observations;
        for events it keeps the unguided batch when its acceptance
        rate clears :data:`_AUTO_ACCEPTANCE_THRESHOLD` and draws a
        guided batch from the same generator otherwise.
        """
        start = time.perf_counter()
        rng = cfg.base_rng()
        kind = "guided"
        unguided_rate = None
        if method == "likelihood":
            kind = "likelihood"
            pins = {key: Region.point(value)
                    for key, value in index.items()}
            batch = self._posterior_batch(cfg, rng, n, pins, ())
        elif not observations and method in ("rejection", "auto"):
            batch = self._posterior_batch(cfg, rng, n, None, events)
            if batch is None:
                return None
            unguided_rate = float(batch[2].mean())
            if method == "rejection" \
                    or unguided_rate >= _AUTO_ACCEPTANCE_THRESHOLD:
                kind = "rejection"
        if kind == "guided":
            from repro.core.backward import backward_plan
            batched = self._batched_chase()
            plan = backward_plan(self.compiled.translated,
                                 batched.closed_source,
                                 batched.growable, observations,
                                 events)
            if not plan.satisfiable:
                raise MeasureError(
                    "the evidence is unreachable: backward propagation "
                    "proved that no chase world can satisfy it, so the "
                    "conditioning event has probability zero")
            batch = self._posterior_batch(cfg, rng, n, plan.regions,
                                          events)
        if batch is None:
            return None
        pdb, log_weights, accepted, info = batch
        weights = None if kind == "rejection" else np.exp(log_weights)
        result = _posterior_result(kind, pdb, weights, accepted, n, 0,
                                   start)
        result.diagnostics["backend"] = "batched"
        if kind == "guided":
            result.diagnostics.update(
                backend="guided", n_pinned=plan.n_pinned,
                n_truncated_regions=plan.n_truncated,
                n_guided_draws=info.get("n_guided_draws", 0),
                given_up=plan.given_up)
        if method == "auto":
            result.diagnostics["auto"] = kind
            if kind == "guided" and unguided_rate is not None:
                result.diagnostics["unguided_acceptance"] = \
                    unguided_rate
        return result

    def _posterior_batch(self, cfg: ChaseConfig,
                         rng: np.random.Generator, n: int,
                         regions: dict | None,
                         events: Sequence[EventLike]):
        """One posterior batch, or None when the engine declines it.

        Returns ``(pdb, log_weights, accepted, info)``: the columnar
        ensemble, each world's log likelihood from its pinned and
        truncated draws (``regions``, see
        :meth:`~repro.engine.batched.BatchedChase.run_batch`), the
        per-world event check (:func:`~repro.query.columnar.
        event_mask`, columnar for fact events; None without events)
        and the batch diagnostics.
        """
        from repro.engine.batched import ColumnarMonteCarloPDB
        chase = self._batched_chase()
        log_weights = np.zeros(n)
        try:
            outcome = chase.run_batch(
                n, rng, cfg.max_steps, regions=regions,
                log_weights=log_weights)
        except DistributionError as err:
            # The sampler's own message says whether the region had
            # zero mass or its rejection budget ran out.
            raise MeasureError(
                f"the batched chase could not draw under the "
                f"evidence: {err}") from None
        if outcome is None:
            return None
        pdb = ColumnarMonteCarloPDB(outcome,
                                    self.compiled.visible_relations,
                                    keep_aux=cfg.keep_aux)
        accepted = event_mask(pdb, events) if events else None
        return pdb, log_weights, accepted, outcome.diagnostics

    def _posterior_scalar(self, cfg: ChaseConfig, index: dict,
                          events: Sequence[EventLike],
                          n: int) -> InferenceResult:
        """The Monte-Carlo posterior of the one scalar loop.

        ``n`` runs of :func:`~repro.core.chase.run_chase_prepared`, one
        spawned stream each, forcing and weighting the observed draws
        of ``index``; truncated runs are dropped and counted.  With
        observations the result is likelihood-weighted (event
        violations weigh zero), otherwise rejection.
        """
        self._base_engine()
        start = time.perf_counter()
        runs, worlds, truncated = self._scalar_runs(cfg, n, index)
        if not worlds:
            raise ValidationError(
                f"all {n} runs were truncated; increase max_steps")
        weights = [run.weight for run in runs if run.terminated] \
            if index else None
        result = _posterior_result(
            "likelihood" if index else "rejection", worlds, weights,
            event_mask(worlds, events) if events else None,
            n, truncated, start)
        result.diagnostics["backend"] = "scalar"
        return result

    def _posterior_exact(self, cfg: ChaseConfig,
                         events: Sequence[EventLike],
                         ) -> InferenceResult:
        satisfied = conjunction(events)
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
            cached = deep_analyze(
                self.compiled.translated, instance=self.instance,
                termination=self.compiled.analyze(),
                capabilities=self.compiled._capabilities())
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


def _posterior_result(kind: str, worlds, weights, accepted, n: int,
                      truncated: int, start: float) -> InferenceResult:
    """A Monte-Carlo posterior from the worlds one route drew.

    ``worlds`` is the scalar loop's list of terminated worlds or a
    batch's :class:`~repro.engine.batched.ColumnarMonteCarloPDB`;
    ``accepted`` is their event check (None without events).
    Without ``weights`` the accepted worlds form a
    :class:`~repro.pdb.database.MonteCarloPDB` (a batch's
    :meth:`~repro.engine.batched.ColumnarMonteCarloPDB.subset`, still
    columnar); with them, rejected worlds weigh zero in a
    :class:`~repro.pdb.weighted.WeightedPDB` (lazy over a batch).
    """
    diagnostics: dict = {}
    if accepted is not None:
        n_accepted = int(accepted.sum())
        diagnostics.update(n_proposed=n, n_accepted=n_accepted,
                           acceptance_rate=n_accepted / len(accepted))
    columnar = not isinstance(worlds, list)
    if weights is None:
        if not n_accepted:
            raise MeasureError(
                f"no accepted samples in {n} proposals; the "
                "constraints have (near-)zero probability - "
                "conditioning on measure-zero events is undefined in "
                "this semantics (paper, Section 7)")
        pdb = worlds.subset(accepted) if columnar else MonteCarloPDB(
            [world for world, ok in zip(worlds, accepted) if ok], 0)
    else:
        if accepted is not None:
            weights = np.where(accepted, weights, 0.0)
        pdb = WeightedColumnarPDB(worlds, weights) if columnar \
            else WeightedPDB(worlds, weights)
        diagnostics.update(
            mean_weight=pdb.total_weight() / pdb.n_worlds,
            effective_sample_size=pdb.effective_sample_size())
    return InferenceResult(pdb, kind, time.perf_counter() - start,
                           n_runs=n, n_truncated=truncated,
                           diagnostics=diagnostics)


#: Exact results a session and its derived sessions keep.
_EXACT_CACHE_SIZE = 4


class _ExactCache:
    """The :data:`_EXACT_CACHE_SIZE` most recently used exact results.

    Shared by a session and every session derived from it, which the
    server may use from several threads.
    """

    def __init__(self):
        self._results: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key) -> InferenceResult | None:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
            return result

    def put(self, key, result: InferenceResult) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > _EXACT_CACHE_SIZE:
                self._results.popitem(last=False)

    def __len__(self) -> int:
        return len(self._results)


def _config_kwargs(cfg: ChaseConfig) -> dict:
    """ChaseConfig -> replace() kwargs (for nested override passing)."""
    import dataclasses
    return {f.name: getattr(cfg, f.name)
            for f in dataclasses.fields(cfg)}
