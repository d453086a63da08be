"""Differential oracles: paired pipelines that must agree.

The paper's central theorems are *agreement* statements - the output
distribution does not depend on the chase order (Theorem 6.1 sequential,
Theorem 5.6 parallel), Monte-Carlo sampling converges to the exact SPDB,
and every reachable instance satisfies the induced FDs (Lemma 3.10).
Each :class:`Oracle` here checks one such agreement on a generated
:class:`~repro.testing.fuzz.FuzzCase` and reports
:class:`OracleOutcome`:

* ``fixpoint``       - naive vs semi-naive Datalog fixpoints on the
  deterministic fragment;
* ``chase-order``    - sequential chases under different policies vs
  the parallel chase: exact SPDBs must agree to float tolerance for
  discrete programs, and Kolmogorov-Smirnov for continuous ones;
* ``exact-vs-sample``- exact SPDB vs Monte-Carlo sampling, with
  binomial-sigma marginal bounds and a chi-squared world-distribution
  test;
* ``pdb-input``      - a program applied to a tuple-independent input
  PDB (Theorem 4.8, second part) vs one exact chase of the program
  plus rules that generate the input facts;
* ``batched-scalar`` - the vectorized batch backend
  (:mod:`repro.engine.batched`) vs the scalar per-run loop: exact
  marginal/chi-squared agreement against the exact SPDB where
  enumeration is available, KS agreement of sampled values for
  continuous programs, draw-for-draw identity where the batched
  backend must fall back to the scalar loop, bit-identity of pooled
  vs unpooled draw schedules wherever no cross-group pooling occurred
  (draw identity is mandated there - the schedules coincide), and -
  on every batched result - exact identity of the columnar marginal
  reads with counts over the materialized worlds (the multi-round
  cascade and the columnar fact store must describe the same
  ensemble);
* ``barany-agreement`` - the per-rule (Grohe) vs per-distribution
  (Bárány, Section 6.2) semantics on programs where the two provably
  coincide: no random rule carries a head variable, and random rules
  either use pairwise distinct distribution families or share a family
  only with provably disjoint ground parameter tuples, so no draw is
  shared under one semantics but independent under the other;
* ``columnar-query`` - the columnar query planner
  (:mod:`repro.query.columnar`) vs naive per-world evaluation on
  randomly generated relational plans: answers must be *identical*
  per world slot (the planner is a compilation, not an estimate),
  push-forward distributions must be bit-equal - over plain batched
  ensembles and streamed importance-weighted posteriors alike - and
  vectorizable plans must never materialize the grouped worlds;
* ``sharded-single`` - sharded sampling (:mod:`repro.serving`, inline
  workers) vs the single-process paths: shard-count invariance is
  draw-for-draw (2 vs 3 shards bit-identical), sharded scalar mode is
  bit-identical to the single-process scalar loop, and the merged
  ensemble agrees with the exact SPDB where enumeration is available;
* ``conditioning``   - constraint-guided conditioning
  (:mod:`repro.core.backward` + truncated batch proposals) vs the
  established posterior paths on self-sampled evidence: guided vs
  likelihood weighting on observation pins, guided vs the exact
  conditioned SPDB (marginal identity within binomial sigmas) on
  enumerable event evidence, and guided vs rejection - with a KS test
  of the value columns where the importance weights are uniform -
  elsewhere;
* ``induced-fds``    - Lemma 3.10 on sampled chase runs (including
  truncated ones - the FDs hold on every *reachable* instance);
* ``termination``    - the static analysis (Section 6.3) vs observed
  chase behaviour;
* ``static-dynamic`` - the :mod:`repro.analysis` lint and capability
  predictions vs the engines: predicted batch-eligible programs must
  not fall back to the scalar loop, predicted-stable relations must
  never grow in any sampled world, predicted streaming-safe
  observations must not raise ``StreamingUnsupported``, and
  lint-clean programs must compile and sample without a program
  error.

Oracles return ``"skip"`` when a case is outside their precondition
(e.g. exact enumeration of a continuous program); the fuzz runner
reports per-oracle skip counts so shrinkage of coverage is visible.
Any exception escaping an engine is converted by the runner into a
failing outcome - crashes on well-formed workloads are bugs too.

Statistical thresholds are deliberately conservative (5-6 sigma /
``alpha <= 1e-4``): with seeded workloads every verdict is
reproducible, and the thresholds only need to separate "gross semantic
disagreement" from Monte-Carlo noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis import deep_analyze
from repro.api.session import CompiledProgram, Session, compile as \
    _compile
from repro.core.policies import (DEFAULT_POLICY, FirstPolicy,
                                 LastPolicy, RoundRobinPolicy)
from repro.core.atoms import Atom
from repro.core.exact import DEFAULT_MAX_DEPTH
from repro.core.fd import check_all_fds, fd_violation_report, induced_fds
from repro.core.observe import Observation
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm
from repro.errors import (DistributionError, MeasureError, ReproError,
                          StreamingUnsupported, ValidationError)
from repro.core.program import Program
from repro.core.termination import weakly_acyclic
from repro.engine.seminaive import (naive_fixpoint, seminaive_closure,
                                    seminaive_fixpoint)
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.events import ContainsFactEvent
from repro.pdb.instances import Instance
from repro.pdb.stats import fact_marginals
from repro.testing.fuzz import FuzzCase, random_value_positions

#: Statuses an oracle can report.
OK, FAIL, SKIP = "ok", "fail", "skip"


@dataclass(frozen=True)
class OracleOutcome:
    """Verdict of one oracle on one case."""

    status: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status != FAIL


def _ok() -> OracleOutcome:
    return OracleOutcome(OK)


def _fail(detail: str) -> OracleOutcome:
    return OracleOutcome(FAIL, detail)


def _skip(detail: str) -> OracleOutcome:
    return OracleOutcome(SKIP, detail)


class Oracle:
    """Base class: a named differential check on fuzz cases."""

    #: Stable identifier used by the CLI, corpus files and reports.
    name: str = "?"

    def check(self, case: FuzzCase) -> OracleOutcome:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<oracle {self.name}>"


# ---------------------------------------------------------------------------
# Comparison helpers (module-level so tests can exercise them directly)
# ---------------------------------------------------------------------------

def compare_discrete_pdbs(first: DiscretePDB, second: DiscretePDB,
                          tolerance: float = 1e-9) -> str | None:
    """None if the exact SPDBs agree pointwise, else a description."""
    if first.allclose(second, tolerance):
        return None
    return (f"exact SPDBs disagree: tv={first.tv_distance(second):.3g} "
            f"({first.support_size()} vs {second.support_size()} worlds,"
            f" err {first.err_mass():.3g} vs {second.err_mass():.3g})")


def compare_monte_carlo_pdbs(first: MonteCarloPDB,
                             second: MonteCarloPDB) -> str | None:
    """None if the ensembles are draw-for-draw identical."""
    if first.truncated != second.truncated:
        return (f"truncation counts differ: {first.truncated} vs "
                f"{second.truncated}")
    if first.worlds != second.worlds:
        mismatches = sum(1 for a, b in zip(first.worlds, second.worlds)
                         if a != b)
        return (f"sampled worlds differ ({mismatches} positional "
                f"mismatches of {len(first.worlds)})")
    return None


def marginals_agree(exact: DiscretePDB, sampled: MonteCarloPDB,
                    z: float = 6.0, slack: float = 0.02) -> str | None:
    """Every exact fact marginal within ``z`` binomial sigmas."""
    n = sampled.n_runs
    for fact, probability in fact_marginals(exact).items():
        sigma = math.sqrt(max(probability * (1 - probability) / n,
                              1e-12))
        estimate = sampled.marginal(fact)
        if abs(estimate - probability) > z * sigma + slack:
            return (f"marginal of {fact!r}: exact {probability:.4f} vs "
                    f"sampled {estimate:.4f} (n={n})")
    return None


def worlds_agree_chi_squared(exact: DiscretePDB,
                             sampled: MonteCarloPDB) -> str | None:
    """Chi-squared test of the sampled world distribution.

    Also flags any sampled world outside the exact support - for a
    zero-err exact SPDB such a world is an outright semantic bug, not
    noise.
    """
    counts: dict = {}
    for world in sampled.worlds:
        counts[world] = counts.get(world, 0) + 1
    for world in counts:
        if exact.prob_of_instance(world) <= 0.0 \
                and exact.err_mass() <= 1e-12:
            return (f"sampled world outside exact support: "
                    f"{world.canonical_text()!r}")
    support = [world for world, _ in exact.worlds()]
    observed = [counts.get(world, 0) for world in support]
    expected = [exact.prob_of_instance(world) for world in support]
    missing = sampled.n_runs - sum(observed) - sampled.truncated
    if exact.err_mass() > 0 or missing > 0:
        observed.append(missing + sampled.truncated)
        expected.append(max(1.0 - sum(expected), 1e-12))
    total_expected = sum(expected)
    statistic = 0.0
    for count, probability in zip(observed, expected):
        mean = probability / total_expected * sampled.n_runs
        if mean <= 0:
            continue
        statistic += (count - mean) ** 2 / mean
    dof = max(len(expected) - 1, 1)
    limit = dof + 8.0 * math.sqrt(2.0 * dof) + 8.0
    if statistic > limit:
        return (f"world-distribution chi-squared {statistic:.1f} "
                f"exceeds limit {limit:.1f} (dof={dof})")
    return None


def ks_agreement(first: list[float], second: list[float],
                 alpha: float = 1e-4, slack: float = 1.3,
                 minimum: int = 10) -> str | None:
    """Two-sample KS check with a generous critical value."""
    if len(first) < minimum or len(second) < minimum:
        return None  # too little data to distinguish anything
    statistic = ks_two_sample(first, second)
    limit = slack * ks_critical_value(len(first), len(second), alpha)
    if statistic > limit:
        return (f"KS statistic {statistic:.4f} exceeds {limit:.4f} "
                f"(n={len(first)}, m={len(second)})")
    return None


def sampled_values(pdb: MonteCarloPDB, positions: dict[str, int],
                   ) -> list[float]:
    """Extract the sampled numbers from an ensemble's worlds."""
    values: list[float] = []
    for world in pdb.worlds:
        for relation, position in positions.items():
            for fact in sorted(world.facts_of(relation),
                               key=lambda f: f.sort_key()):
                value = fact.args[position]
                if isinstance(value, (int, float)):
                    values.append(float(value))
    return values


def _compiled(case: FuzzCase) -> CompiledProgram:
    return _compile(case.program)


def _session(case: FuzzCase, **overrides) -> Session:
    return _compiled(case).on(case.instance, **overrides)


def _exactable(case: FuzzCase) -> bool:
    return case.program.is_discrete() and weakly_acyclic(case.program)


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------

class FixpointOracle(Oracle):
    """Naive vs semi-naive fixpoints on the deterministic fragment."""

    name = "fixpoint"

    def check(self, case: FuzzCase) -> OracleOutcome:
        det_rules = case.program.deterministic_rules()
        if not det_rules:
            return _skip("no deterministic rules")
        program = Program(det_rules,
                          registry=case.program.registry)
        naive = naive_fixpoint(program, case.instance)
        seminaive = seminaive_fixpoint(program, case.instance)
        if naive != seminaive:
            only_naive = naive.difference(seminaive)
            only_semi = seminaive.difference(naive)
            return _fail(
                f"fixpoints differ: naive-only "
                f"{sorted(map(repr, only_naive.facts))[:5]}, "
                f"seminaive-only "
                f"{sorted(map(repr, only_semi.facts))[:5]}")
        return _ok()


class ChaseOrderOracle(Oracle):
    """Policy and parallel/sequential independence (Thms 5.6 / 6.1)."""

    name = "chase-order"

    def __init__(self, n_runs: int = 120):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        if not weakly_acyclic(case.program):
            return _skip("not weakly acyclic")
        if case.program.is_discrete():
            return self._check_exact(case)
        return self._check_statistical(case)

    def _check_exact(self, case: FuzzCase) -> OracleOutcome:
        session = _session(case)
        reference = session.exact(policy=FirstPolicy()).pdb
        for variant in (LastPolicy(), RoundRobinPolicy()):
            detail = compare_discrete_pdbs(
                reference, session.exact(policy=variant).pdb)
            if detail:
                return _fail(f"policy {variant.name}: {detail}")
        detail = compare_discrete_pdbs(
            reference, session.exact(parallel=True).pdb)
        if detail:
            return _fail(f"parallel chase: {detail}")
        return _ok()

    def _check_statistical(self, case: FuzzCase) -> OracleOutcome:
        positions = random_value_positions(case.program)
        if not positions:
            return _skip("no single-random-term heads to compare")
        n = self.n_runs
        base = _compiled(case)
        ensembles = []
        # backend="scalar" pinned: this oracle exercises the *scalar*
        # chase's order independence - under "auto" both policy
        # variants would route to the batched backend, whose prefix is
        # policy-independent by construction (the batched-scalar
        # oracle covers that backend separately).
        for index, overrides in enumerate((
                {"policy": FirstPolicy()},
                {"policy": LastPolicy()},
                {"parallel": True})):
            session = base.on(case.instance, seed=case.seed + index,
                              backend="scalar", **overrides)
            ensembles.append(sampled_values(session.sample(n).pdb,
                                            positions))
        labels = ("first-policy", "last-policy", "parallel")
        for index in range(1, len(ensembles)):
            detail = ks_agreement(ensembles[0], ensembles[index])
            if detail:
                return _fail(f"{labels[0]} vs {labels[index]}: {detail}")
        return _ok()


class ExactVsSampleOracle(Oracle):
    """Exact SPDB vs Monte-Carlo sampling (statistical tolerance)."""

    name = "exact-vs-sample"

    def __init__(self, n_runs: int = 300):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        if not _exactable(case):
            return _skip("exact enumeration unavailable")
        # Pinned to the scalar sampler; the batched-scalar oracle
        # makes the same exact-SPDB comparison for the batched side.
        session = _session(case, seed=case.seed, backend="scalar")
        exact = session.exact().pdb
        sampled = session.sample(self.n_runs).pdb
        detail = marginals_agree(exact, sampled)
        if detail:
            return _fail(detail)
        detail = worlds_agree_chi_squared(exact, sampled)
        if detail:
            return _fail(detail)
        return _ok()


class PdbInputOracle(Oracle):
    """A program applied to an input PDB (Theorem 4.8, second part).

    ``CompiledProgram.apply_to_pdb`` mixes the per-world exact SPDBs
    over the input worlds.  The same SPDB comes out of one exact
    chase once the input's randomness moves into the program: each
    uncertain input fact ``R(ā)``, with ``p`` its marginal, gets the
    generator rules ``KeepInJ(Flip<p>) :- true.`` and
    ``R(ā) :- KeepInJ(1).``, while facts with ``p = 1`` stay in the
    instance.  Restricted to the program's visible relations, the two
    exact SPDBs must agree to float tolerance.  The fuzzer's input PDBs
    are tuple-independent by construction
    (:func:`~repro.testing.fuzz.random_input_pdb`), so the marginals
    determine them.
    """

    name = "pdb-input"

    #: Chase steps one uncertain fact's generator rules add: the
    #: ``Flip`` draw, its result fact and the re-derived input fact.
    STEPS_PER_FACT = 3

    def check(self, case: FuzzCase) -> OracleOutcome:
        if case.input_pdb is None:
            return _skip("no input PDB")
        if not _exactable(case):
            return _skip("exact enumeration unavailable")
        compiled = _compiled(case)
        mixture = compiled.apply_to_pdb(case.input_pdb).pdb
        marginals = sorted(fact_marginals(case.input_pdb).items(),
                           key=lambda item: item[0].sort_key())
        certain = [fact for fact, p in marginals if math.isclose(p, 1.0)]
        uncertain = [(fact, p) for fact, p in marginals
                     if not math.isclose(p, 1.0)]
        flip = case.program.registry["Flip"]
        generators = []
        for index, (fact, p) in enumerate(uncertain):
            keep = f"KeepIn{index}"
            draw = RandomTerm(flip, (Const(p),))
            generators.append(Rule(Atom(keep, (draw,))))
            generators.append(Rule(
                Atom(fact.relation, tuple(map(Const, fact.args))),
                (Atom(keep, (Const(1),)),)))
        generated = Program(tuple(case.program.rules) + tuple(generators),
                            registry=case.program.registry)
        max_depth = DEFAULT_MAX_DEPTH \
            + self.STEPS_PER_FACT * len(uncertain)
        joint = _compile(generated).on(
            Instance(certain), max_depth=max_depth).exact().pdb
        detail = compare_discrete_pdbs(
            mixture, joint.project(compiled.visible_relations))
        if detail:
            return _fail(f"apply_to_pdb vs generator rules: {detail}")
        return _ok()


class BatchedVsScalarOracle(Oracle):
    """The vectorized batch backend vs the scalar loop (same law).

    For weakly acyclic programs the two backends sample the same
    output distribution (Theorem 6.1 underwrites the batched prefix);
    the comparison is statistical.  Outside the batched backend's
    class (non-weakly-acyclic programs) it must fall back to the
    scalar loop, so there the check is exact draw-for-draw identity.
    On accepted cases the oracle additionally replays the batch with
    cross-group draw pooling disabled: whenever no cross-group pooling
    occurred the two schedules are identical, so the outcomes must be
    bit-for-bit equal (see :meth:`_pooling_identity`).
    """

    name = "batched-scalar"

    def __init__(self, n_runs: int = 250):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        if not weakly_acyclic(case.program):
            return self._check_fallback_identity(case)
        if _exactable(case):
            return self._check_exact(case)
        return self._check_statistical(case)

    def _check_fallback_identity(self, case: FuzzCase) -> OracleOutcome:
        batched = _session(case, seed=case.seed, max_steps=200,
                           backend="batched").sample(30).pdb
        scalar = _session(case, seed=case.seed, max_steps=200,
                          backend="scalar").sample(30).pdb
        detail = compare_monte_carlo_pdbs(batched, scalar)
        if detail:
            return _fail(f"fallback not draw-identical: {detail}")
        return _ok()

    @staticmethod
    def _columnar_consistency(result) -> str | None:
        """Columnar marginal reads == counts over materialized worlds.

        Batched results answer ``marginal``/``fact_marginals`` from
        the columnar sample arrays; walking ``pdb.worlds`` then
        materializes the very same ensemble.  The two views must agree
        *exactly* (they are counts of one set of draws, not separate
        estimates), across every cascade round and fallback world.
        """
        pdb = result.pdb
        columnar = dict(result.fact_marginals())
        counts: dict = {}
        for world in pdb.worlds:  # materializes the ensemble
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        materialized = {fact: count / pdb.n_runs
                        for fact, count in counts.items()}
        if columnar != materialized:
            keys = set(columnar) | set(materialized)
            diffs = [f"{fact!r}: columnar {columnar.get(fact)} vs "
                     f"worlds {materialized.get(fact)}"
                     for fact in keys
                     if columnar.get(fact) != materialized.get(fact)]
            return ("columnar marginals disagree with materialized "
                    f"worlds ({len(diffs)} facts): "
                    + "; ".join(sorted(diffs)[:4]))
        spot = [result.marginal(fact) == probability
                for fact, probability in list(columnar.items())[:10]]
        if not all(spot):
            return "single-fact marginal disagrees with the table"
        return None

    @staticmethod
    def _pooling_identity(session: Session, n: int = 40) -> str | None:
        """Pooled vs unpooled draw schedules replayed on one seed.

        Where draw identity is mandated, the two schedules are the
        *same* schedule: a round with a single signature group (every
        first round, and every round of a single-group cascade) issues
        identical ``sample_batch`` calls pooled or not, and scalar
        fallback worlds always draw from their own spawned streams.
        So when *every* wave of the pooled run had exactly one group
        (``n_group_rounds == n_rounds`` - cross-group pooling was
        structurally impossible), the unpooled replay follows the
        identical draw trajectory and the two outcomes must agree
        bit-for-bit - columnar groups and scalar fallback runs alike.
        A multi-group wave anywhere disarms the check: pooling may
        have moved draws (even with coincidentally equal call totals),
        after which only the law is preserved, which the surrounding
        oracle checks separately.
        """
        from repro.engine.batched import ColumnarMonteCarloPDB
        chase = session._batched_chase()
        cfg = session.config
        if chase is None or not isinstance(cfg.seed, int):
            return None
        policy = cfg.policy or DEFAULT_POLICY

        def outcome(pool: bool):
            return chase.run_batch(
                n, cfg.base_rng(), cfg.spawn_rngs(n), policy,
                cfg.max_steps, cfg.batch_min_group, pool=pool)

        pooled = outcome(True)
        if pooled is None:
            return None
        if pooled.diagnostics["n_group_rounds"] != \
                pooled.diagnostics["n_rounds"]:
            return None  # a multi-group wave: pooling may move draws
        unpooled = outcome(False)
        if unpooled is None:
            return None
        visible = session.compiled.visible_relations
        first = ColumnarMonteCarloPDB(pooled, visible)
        second = ColumnarMonteCarloPDB(unpooled, visible)
        detail = compare_monte_carlo_pdbs(first, second)
        if detail:
            return ("pooled draws not bit-identical to unpooled on a "
                    f"shared schedule: {detail}")
        return None

    def _check_exact(self, case: FuzzCase) -> OracleOutcome:
        session = _session(case, seed=case.seed)
        exact = session.exact().pdb
        result = session.sample(self.n_runs, backend="batched")
        if result.backend != "batched":
            # A silent scalar fallback would make this check vacuous
            # (scalar-vs-exact is ExactVsSampleOracle's job); surface
            # the coverage hole as a skip instead of a hollow ok.
            return _skip("batched backend declined this case")
        detail = self._columnar_consistency(result)
        if detail:
            return _fail(detail)
        detail = self._pooling_identity(session)
        if detail:
            return _fail(detail)
        batched = result.pdb
        detail = marginals_agree(exact, batched)
        if detail:
            return _fail(f"batched sampling: {detail}")
        detail = worlds_agree_chi_squared(exact, batched)
        if detail:
            return _fail(f"batched sampling: {detail}")
        return _ok()

    def _check_statistical(self, case: FuzzCase) -> OracleOutcome:
        positions = random_value_positions(case.program)
        if not positions:
            return _skip("no single-random-term heads to compare")
        base = _compiled(case)
        session = base.on(case.instance, seed=case.seed,
                          backend="batched")
        result = session.sample(self.n_runs)
        if result.backend != "batched":
            return _skip("batched backend declined this case")
        detail = self._columnar_consistency(result)
        if detail:
            return _fail(detail)
        detail = self._pooling_identity(session)
        if detail:
            return _fail(detail)
        scalar = base.on(case.instance, seed=case.seed + 1,
                         backend="scalar").sample(self.n_runs).pdb
        detail = ks_agreement(sampled_values(result.pdb, positions),
                              sampled_values(scalar, positions))
        if detail:
            return _fail(f"batched vs scalar: {detail}")
        return _ok()


class BaranyAgreementOracle(Oracle):
    """Grohe vs Bárány semantics where the two provably coincide.

    Section 6.2 characterizes the difference: the per-rule translation
    draws one sample per (rule, valuation of the carried head terms and
    parameters), while the Bárány translation keys samples by
    (distribution name, parameter tuple) shared across the program.
    The laws disagree exactly when some draw is shared under one
    semantics but independent under the other - repeated distribution
    terms (Example 1.1's ``G0``), or one rule fanning a parameter tuple
    over several carried values.  This oracle checks the complementary
    *agreement class*: every random rule's carried head terms are
    ground (no variables), and any two random rules either use
    distinct distribution families or carry provably disjoint ground
    parameter tuples (see :meth:`agreement_class`).  There the
    auxiliary relations of the two translations correspond one-to-one,
    so the output SPDBs must be equal - pointwise for discrete
    programs, statistically (KS over the sampled values) for
    continuous ones.
    """

    name = "barany-agreement"

    def __init__(self, n_runs: int = 250):
        self.n_runs = n_runs

    @staticmethod
    def agreement_class(program: Program) -> bool:
        """Whether the two semantics provably agree on ``program``.

        Rules of distinct distribution families never collide on a
        Bárány key.  Rules *sharing* a family are admitted too when
        every parameter of every such rule is a ground constant and
        the parameter tuples are pairwise distinct: the Bárány keys
        ``(family, parameters)`` are then provably disjoint across the
        whole chase, so each rule still owns exactly one independent
        draw under both translations.  A shared family with variable
        parameters (or coinciding ground tuples) stays outside the
        class - the ground parameter spaces could overlap at runtime.
        """
        from repro.core.terms import Const
        random_rules = program.random_rules()
        if not random_rules:
            return False
        families: dict[str, list[tuple | None]] = {}
        for rule in random_rules:
            if not rule.is_normal_form():
                return False
            position, term = rule.single_random_term()
            carried = [t for index, t in enumerate(rule.head.terms)
                       if index != position]
            if any(True for term_ in carried
                   for _variable in term_.variables()):
                return False
            params = tuple(param.value for param in term.params) \
                if all(isinstance(param, Const)
                       for param in term.params) else None
            families.setdefault(term.distribution.name,
                                []).append(params)
        for parameter_tuples in families.values():
            if len(parameter_tuples) == 1:
                continue
            if any(params is None for params in parameter_tuples):
                return False
            if len(set(parameter_tuples)) != len(parameter_tuples):
                return False
        return True

    def check(self, case: FuzzCase) -> OracleOutcome:
        if not self.agreement_class(case.program):
            return _skip("outside the semantics-agreement class")
        grohe = _compile(case.program)
        barany = _compile(case.program, semantics="barany")
        if not grohe.analyze().weakly_acyclic \
                or not barany.analyze().weakly_acyclic:
            return _skip("not weakly acyclic under both translations")
        if case.program.is_discrete():
            first = grohe.on(case.instance).exact().pdb
            second = barany.on(case.instance).exact().pdb
            detail = compare_discrete_pdbs(first, second)
            if detail:
                return _fail(f"semantics disagree exactly: {detail}")
            return _ok()
        positions = random_value_positions(case.program)
        if not positions:
            return _skip("no single-random-term heads to compare")
        first = grohe.on(case.instance, seed=case.seed,
                         backend="scalar").sample(self.n_runs).pdb
        second = barany.on(case.instance, seed=case.seed + 1,
                           backend="scalar").sample(self.n_runs).pdb
        detail = ks_agreement(sampled_values(first, positions),
                              sampled_values(second, positions))
        if detail:
            return _fail(f"grohe vs barany sampling: {detail}")
        return _ok()


class ShardedVsSingleOracle(Oracle):
    """Sharded sampling vs the single-process paths (repro.serving).

    The sharded path's guarantees are *exact*, not statistical, so
    this oracle checks identities: (a) shard-count invariance - the
    same plan split two ways and three ways must be draw-for-draw
    identical (per-world SeedSequence streams + the per-world draw
    schedule make a world's outcome independent of its shard); (b) in
    scalar mode, a sharded batch must be bit-identical to the
    single-process scalar loop (same streams, same code path per
    world); and (c) on exactable cases the
    merged ensemble must agree with the exact SPDB (the law check).
    Shards execute inline - the identical worker code path without the
    process pool - keeping the always-on fuzz battery cheap.
    """

    name = "sharded-single"

    def __init__(self, n_runs: int = 48):
        self.n_runs = n_runs

    def _sharded(self, session: Session, shards: int,
                 **overrides):
        from repro.serving import ShardExecutor, sample_sharded
        cfg = session.config.replace(shards=shards, **overrides)
        with ShardExecutor(session.compiled.translated,
                           session.instance, cfg,
                           inline=True) as executor:
            return sample_sharded(session, self.n_runs, cfg,
                                  executor=executor)

    def check(self, case: FuzzCase) -> OracleOutcome:
        seed = case.seed & 0x7FFFFFFF
        session = _session(case, seed=seed, max_steps=200)
        two = self._sharded(session, 2)
        three = self._sharded(session, 3)
        if two.diagnostics["mode"] != three.diagnostics["mode"]:
            return _fail(
                f"shard count changed the execution mode: "
                f"{two.diagnostics['mode']} vs "
                f"{three.diagnostics['mode']} (the batched/scalar "
                "decision must be shard-invariant)")
        detail = compare_monte_carlo_pdbs(two.pdb, three.pdb)
        if detail:
            return _fail(f"2 vs 3 shards: {detail}")
        sharded_scalar = self._sharded(session, 2, backend="scalar")
        single_scalar = session.configure(
            backend="scalar").sample(self.n_runs)
        detail = compare_monte_carlo_pdbs(sharded_scalar.pdb,
                                          single_scalar.pdb)
        if detail:
            return _fail(
                f"sharded scalar vs single-process scalar: {detail}")
        if _exactable(case):
            detail = marginals_agree(session.exact().pdb, two.pdb,
                                     slack=0.05)
            if detail:
                return _fail(f"sharded sampling law: {detail}")
        return _ok()


class InducedFDOracle(Oracle):
    """Lemma 3.10: induced FDs hold on every reachable instance."""

    name = "induced-fds"

    def __init__(self, n_runs: int = 30, max_steps: int = 200):
        self.n_runs = n_runs
        self.max_steps = max_steps

    def check(self, case: FuzzCase) -> OracleOutcome:
        compiled = _compiled(case)
        translated = compiled.translated
        if not induced_fds(translated):
            return _skip("no existential rules, no induced FDs")
        session = compiled.on(case.instance, seed=case.seed,
                              max_steps=self.max_steps)
        for rng in session.config.spawn_rngs(self.n_runs):
            run = session.run(rng=rng)
            if not check_all_fds(translated, run.instance):
                report = fd_violation_report(translated,
                                             [run.instance])
                return _fail("; ".join(report[:3]))
        return _ok()


class TerminationOracle(Oracle):
    """Static termination analysis vs observed chase behaviour."""

    name = "termination"

    def __init__(self, n_runs: int = 10, max_steps: int = 3000,
                 diverging_steps: int = 120):
        self.n_runs = n_runs
        self.max_steps = max_steps
        self.diverging_steps = diverging_steps

    def check(self, case: FuzzCase) -> OracleOutcome:
        compiled = _compiled(case)
        report = compiled.analyze()
        if report.weakly_acyclic:
            session = compiled.on(case.instance, seed=case.seed,
                                  max_steps=self.max_steps)
            for rng in session.config.spawn_rngs(self.n_runs):
                run = session.run(rng=rng)
                if not run.terminated:
                    return _fail(
                        "weakly acyclic program hit the step budget "
                        f"({self.max_steps} steps; Theorem 6.3 says it "
                        "terminates on every input)")
            return _ok()
        if report.almost_surely_diverges():
            # Sound even when the cycle is unreachable from the input:
            # only a run that *entered* a continuous cycle (fired its
            # auxiliary relation) and still terminated contradicts the
            # Section 6.3 argument (a probability-zero event).
            cyclic_relations = {target[0]
                                for _s, target in report.special_cycles}
            session = compiled.on(case.instance, seed=case.seed,
                                  max_steps=self.diverging_steps)
            for rng in session.config.spawn_rngs(3):
                run = session.run(rng=rng)
                entered = any(run.instance.facts_of(relation)
                              for relation in cyclic_relations)
                if run.terminated and entered:
                    return _fail(
                        "almost-surely-diverging program entered its "
                        f"continuous cycle yet terminated after "
                        f"{run.steps} steps")
            return _ok()
        return _skip("may-terminate cycle: no sound assertion")


class StreamingBatchOracle(Oracle):
    """Streamed evidence vs the one-shot weighted chase (repro.api.stream).

    A streaming posterior samples its columnar batch once and folds
    evidence into per-world importance weights; the one-shot
    ``posterior(method="likelihood")`` re-runs the weighted scalar
    chase from scratch.  Both estimate the same disintegrated
    posterior, so their marginals must agree within Monte-Carlo noise.
    Evidence is drawn from the stream's own prior - an
    actually-sampled ``(relation, carried, value)`` triple, so its
    likelihood is never zero - and cases the streaming safety gate
    declines (trigger-valued or signature-contradicting observations)
    skip rather than fail.
    """

    name = "streaming-batch"

    def __init__(self, n_runs: int = 300):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        positions = random_value_positions(case.program)
        if not positions:
            return _skip("no single-random-term heads to observe")
        seed = case.seed & 0x7FFFFFFF
        session = _session(case, seed=seed, max_steps=200)
        try:
            stream = session.stream(self.n_runs)
            prior = fact_marginals(stream.posterior().pdb)
        except (StreamingUnsupported, ValidationError,
                MeasureError) as decline:
            return _skip(f"stream declined: {decline}")
        evidence = self._evidence_from_prior(prior, positions)
        if evidence is None:
            return _skip("prior sampled no observable fact")
        try:
            stream.observe(evidence)
            streamed = stream.posterior()
        except StreamingUnsupported as decline:
            return _skip(f"observation declined: {decline}")
        except MeasureError as degenerate:
            return _skip(f"degenerate posterior: {degenerate}")
        ess = streamed.effective_sample_size
        if ess is not None and ess < 8:
            return _skip(f"effective sample size too low ({ess:.1f})")
        try:
            one_shot = _session(case, seed=seed + 1, max_steps=200) \
                .observe(evidence).posterior(method="likelihood",
                                             n=self.n_runs)
        except MeasureError as degenerate:
            return _skip(f"degenerate one-shot posterior: {degenerate}")
        detail = marginals_agree(one_shot.pdb, streamed.pdb,
                                 slack=0.15)
        if detail:
            return _fail(f"streamed vs one-shot likelihood ({evidence!r}): "
                         f"{detail}")
        return _ok()

    @staticmethod
    def _evidence_from_prior(prior, positions) -> Observation | None:
        for fact in sorted(prior, key=lambda fact: fact.sort_key()):
            position = positions.get(fact.relation)
            if position is None or position >= len(fact.args):
                continue
            carried = fact.args[:position] + fact.args[position + 1:]
            return Observation(fact.relation, carried,
                               fact.args[position])
        return None


class ConditioningOracle(Oracle):
    """Guided conditioning vs likelihood / rejection / exact.

    Evidence is synthesized from the case's *own prior* (a sampled
    observation triple or an actually-produced output fact), so it
    always has positive probability and never trips the measure-zero
    guard.  Per case, up to two differential sub-checks run:

    * **observation path** - a sampled ``(relation, carried, value)``
      triple becomes an :class:`Observation`;
      ``posterior(method="guided")`` (single-point pin regions with
      truncated batch proposals) and ``posterior(method="likelihood")``
      (the weighted scalar chase) estimate the same disintegrated
      posterior, so their marginals must agree within Monte-Carlo
      noise;
    * **event path** - a ``ContainsFactEvent`` on a sampled
      random-head output fact; where exact enumeration is available
      the guided posterior must match the restrict-and-normalize SPDB
      marginal-for-marginal (binomial sigma bounds), elsewhere it is
      compared against plain rejection - including a KS test of the
      sampled value columns whenever the guided weights are uniform
      (then the guided ensemble is an unweighted posterior sample and
      the two-sample statistic applies directly).

    Cases where guided internally falls back (not weakly acyclic,
    batched engine declined) still run - the fallback must agree with
    the reference too - and the outcome detail records whether the
    guided proposal was actually exercised.
    """

    name = "conditioning"

    def __init__(self, n_runs: int = 300):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        positions = random_value_positions(case.program)
        if not positions:
            return _skip("no single-random-term heads to condition on")
        seed = case.seed & 0x7FFFFFFF
        try:
            prior = _session(case, seed=seed, max_steps=200) \
                .sample(96).pdb
        except (ValidationError, MeasureError) as err:
            return _skip(f"prior sampling declined: {err}")
        prior_marginals = fact_marginals(prior)
        exercised: list[str] = []
        detail = self._check_observation(case, seed, prior_marginals,
                                         positions, exercised)
        if detail:
            return _fail(detail)
        detail = self._check_event(case, seed, prior_marginals,
                                   positions, exercised)
        if detail:
            return _fail(detail)
        if not exercised:
            return _skip("prior produced no usable evidence")
        return OracleOutcome(OK, " ".join(exercised))

    def _check_observation(self, case, seed, prior_marginals,
                           positions, exercised) -> str | None:
        evidence = StreamingBatchOracle._evidence_from_prior(
            prior_marginals, positions)
        if evidence is None:
            return None
        try:
            guided = _session(case, seed=seed + 1, max_steps=200) \
                .observe(evidence).posterior(method="guided",
                                             n=self.n_runs)
        except (MeasureError, ValidationError) as degenerate:
            exercised.append(f"obs:declined({degenerate})")
            return None
        try:
            reference = _session(case, seed=seed + 2, max_steps=200) \
                .observe(evidence).posterior(method="likelihood",
                                             n=self.n_runs)
        except (MeasureError, ValidationError):
            exercised.append("obs:no-reference")
            return None
        exercised.append(f"obs:{guided.kind}")
        ess = guided.effective_sample_size
        ref_ess = reference.effective_sample_size
        if (ess is not None and ess < 8) \
                or (ref_ess is not None and ref_ess < 8):
            exercised[-1] += ":low-ess"
            return None
        detail = marginals_agree(reference.pdb, guided.pdb,
                                 slack=0.15)
        if detail:
            return (f"guided vs likelihood ({evidence!r}): {detail} "
                    f"[{case.describe()}]")
        return None

    def _check_event(self, case, seed, prior_marginals, positions,
                     exercised) -> str | None:
        f = self._event_fact(prior_marginals, positions)
        if f is None:
            return None
        evidence = ContainsFactEvent(f)
        try:
            guided = _session(case, seed=seed + 3, max_steps=200) \
                .observe(evidence).posterior(method="guided",
                                             n=self.n_runs)
        except (MeasureError, ValidationError) as degenerate:
            exercised.append(f"event:declined({degenerate})")
            return None
        exercised.append(f"event:{guided.kind}")
        if guided.marginal(f) < 1.0 - 1e-9:
            return (f"guided posterior violates its own evidence: "
                    f"P({f!r}) = {guided.marginal(f)} "
                    f"[{case.describe()}]")
        if _exactable(case):
            try:
                exact = _session(case).observe(evidence) \
                    .posterior(method="exact")
            except MeasureError:
                return None
            detail = marginals_agree(exact.pdb, guided.pdb)
            if detail:
                return (f"guided vs exact ({f!r}): {detail} "
                        f"[{case.describe()}]")
            return None
        try:
            rejection = _session(case, seed=seed + 4, max_steps=200) \
                .observe(evidence).posterior(method="rejection",
                                             n=self.n_runs)
        except MeasureError:
            return None
        detail = self._continuous_agreement(guided, rejection,
                                            positions)
        if detail:
            return (f"guided vs rejection ({f!r}): {detail} "
                    f"[{case.describe()}]")
        return None

    @staticmethod
    def _event_fact(prior_marginals, positions):
        """A random-head output fact to condition on (rarest first).

        Prefers the least likely fact with marginal >= 0.1 - rare
        enough to exercise guidance, frequent enough that the
        rejection reference still accepts a comparable sample.
        """
        candidates = sorted(
            ((probability, fact)
             for fact, probability in prior_marginals.items()
             if fact.relation in positions and probability > 0.0),
            key=lambda pair: (pair[0], pair[1].sort_key()))
        for probability, fact in candidates:
            if probability >= 0.1:
                return fact
        return candidates[-1][1] if candidates else None

    @staticmethod
    def _continuous_agreement(guided, rejection, positions,
                              ) -> str | None:
        """KS of the value columns when guided weights are uniform."""
        weights = getattr(guided.pdb, "weights", None)
        if weights is None:
            # Guided fell back to plain rejection: two *independent*
            # rejection ensembles of the same posterior - compare
            # statistically, not draw-for-draw.
            detail = marginals_agree(rejection.pdb, guided.pdb,
                                     slack=0.15)
            if detail:
                return detail
            return ks_agreement(
                sampled_values(guided.pdb, positions),
                sampled_values(rejection.pdb, positions))
        live = weights[weights > 0]
        if live.size and (live.max() - live.min()) > 1e-9 * live.max():
            return None  # non-uniform weights: KS does not apply
        guided_values = [
            value for world, _w in guided.pdb._iter_weighted()
            for relation, position in positions.items()
            for fact in sorted(world.facts_of(relation),
                               key=lambda f: f.sort_key())
            if isinstance((value := fact.args[position]), (int, float))]
        reference_values = sampled_values(rejection.pdb, positions)
        return ks_agreement([float(v) for v in guided_values],
                            reference_values)


class ColumnarQueryOracle(Oracle):
    """The columnar query planner vs naive per-world evaluation.

    :mod:`repro.query.columnar` *compiles* relational plans to mask
    and reduction operations over the batched ensemble's sample
    arrays; compilation is answer-preserving, not an approximation, so
    every check here is an exact identity (no tolerances):

    * per world slot, the planner's answer relation equals
      ``plan.evaluate(world)`` on the materialized world;
    * the push-forward answer distribution is bit-equal to the one
      assembled naively from the per-world answers - over the plain
      batched ensemble and, when the case supports streaming, over the
      importance-weighted posterior of a stream that just observed
      evidence drawn from its own prior;
    * a vectorizable plan never materializes the grouped worlds
      (``ColumnarMonteCarloPDB.materializations`` stays put while the
      planner runs).

    Plans are generated per case from the ensemble's own relations
    and constants: scans with explicit columns, structural ``where``
    selections, projections, renames, natural joins (shared-column
    via rename), same-schema set operations and count aggregates
    (grouped and global) - the structural fragment the planner
    vectorizes.
    """

    name = "columnar-query"

    def __init__(self, n_runs: int = 120, n_plans: int = 8):
        self.n_runs = n_runs
        self.n_plans = n_plans

    # -- plan generation ----------------------------------------------------

    @staticmethod
    def _arities(pdb) -> dict[str, int]:
        """Visible relations with one consistent arity in the batch."""
        seen: dict[str, set[int]] = {}
        for fact in pdb.weighted_fact_totals(None):
            seen.setdefault(fact.relation, set()).add(len(fact.args))
        return {relation: lengths.pop()
                for relation, lengths in seen.items()
                if len(lengths) == 1}

    @staticmethod
    def _constants(pdb, limit: int = 24) -> list:
        """A pool of ground values the ensemble actually contains."""
        values: list = []
        for fact in sorted(pdb.weighted_fact_totals(None),
                           key=lambda fact: fact.sort_key()):
            values.extend(fact.args)
            if len(values) >= limit:
                break
        return values[:limit]

    @staticmethod
    def _scan(rng: random.Random, arities: dict[str, int],
              relation: str | None = None):
        from repro.query.relalg import Scan
        relation = relation or rng.choice(sorted(arities))
        columns = tuple(f"{relation.lower()}{index}"
                        for index in range(arities[relation]))
        return Scan(relation, columns), relation, columns

    def _random_plan(self, rng: random.Random,
                     arities: dict[str, int], constants: list):
        from repro.query.aggregates import Aggregate, agg_count
        query, relation, columns = self._scan(rng, arities)
        roll = rng.random()
        if roll < 0.25:
            # Same-schema set operation: a second scan of the same
            # relation (identical column names) with its own filter.
            other, _, _ = self._scan(rng, arities, relation)
            if constants and rng.random() < 0.7:
                other = other.where(**{rng.choice(columns):
                                       rng.choice(constants)})
            combine = rng.choice(("union", "difference", "intersect"))
            query = getattr(query, combine)(other)
        elif roll < 0.5:
            other, other_relation, other_columns = \
                self._scan(rng, arities)
            if other_relation == relation:
                # Self-join: rename one column so the join keys on
                # the remaining shared ones.
                victim = other_columns[-1]
                renamed = victim + "x"
            else:
                # Cross-relation join: rename one column onto one of
                # the left's so the join has a shared key.
                victim = rng.choice(other_columns)
                renamed = rng.choice(columns)
            if renamed not in other_columns:
                other = other.rename(**{victim: renamed})
                other_columns = tuple(renamed if c == victim else c
                                      for c in other_columns)
            query = query.join(other)
            columns = tuple(dict.fromkeys(columns + other_columns))
        if constants and rng.random() < 0.6:
            query = query.where(**{rng.choice(columns):
                                   rng.choice(constants)})
        if len(columns) > 1 and rng.random() < 0.4:
            keep = tuple(column for column in columns
                         if rng.random() < 0.7) or columns[:1]
            query, columns = query.project(*keep), keep
        if rng.random() < 0.35:
            group_by = tuple(column for column in columns
                             if rng.random() < 0.3)
            return Aggregate(query, group_by, {"n": agg_count()})
        return query

    # -- exact identities ---------------------------------------------------

    @staticmethod
    def _naive_measure(answers, weights=None, total=None):
        """The push-forward assembled without the planner.

        Mirrors :func:`repro.query.columnar._push_query` arithmetic
        exactly (same accumulation order, same divisions), so agreement
        is required to be bit-level, not approximate.
        """
        from repro.measures.discrete import DiscreteMeasure
        if weights is None:
            images = [relation.canonical() for relation in answers
                      if relation is not None]
            if not images:
                return DiscreteMeasure.zero()
            return DiscreteMeasure.from_samples(images).scale(total)
        masses: dict = {}
        for relation, weight in zip(answers, weights):
            if relation is None or weight <= 0.0:
                continue
            key = relation.canonical()
            masses[key] = masses.get(key, 0.0) + weight
        if not masses:
            return DiscreteMeasure.zero()
        return DiscreteMeasure({point: mass / total
                                for point, mass in masses.items()})

    def _check_plain(self, pdb, plans) -> str | None:
        from repro.query.columnar import (plan_vectorizable,
                                          query_answers,
                                          query_distribution)
        for number, plan in enumerate(plans):
            before = pdb.materializations
            compiled = query_answers(pdb, plan)
            if plan_vectorizable(plan) \
                    and pdb.materializations != before:
                return (f"plan #{number} is vectorizable yet "
                        "materialized the grouped worlds")
            naive = [None if world is None else plan.evaluate(world)
                     for world in pdb.world_slots()]
            for slot, (left, right) in enumerate(zip(compiled, naive)):
                if left != right:
                    return (f"plan #{number} answer differs in world "
                            f"{slot}: planner {left!r} vs naive "
                            f"{right!r}")
            columnar = query_distribution(pdb, plan)
            reference = self._naive_measure(naive,
                                            total=pdb.total_mass())
            if columnar != reference:
                return (f"plan #{number} push-forward differs: "
                        f"{columnar!r} vs naive {reference!r}")
        return None

    def _check_weighted(self, case: FuzzCase, plans) -> str | None:
        """Streamed importance-weighted posteriors answer identically."""
        from repro.pdb.weighted import WeightedColumnarPDB
        from repro.query.columnar import query_distribution
        seed = (case.seed & 0x7FFFFFFF) ^ 0x2C9
        session = _session(case, seed=seed, max_steps=200)
        try:
            stream = session.stream(self.n_runs)
            prior = fact_marginals(stream.posterior().pdb)
        except (StreamingUnsupported, ValidationError, MeasureError):
            return None  # no streamed coverage for this case
        positions = random_value_positions(case.program)
        evidence = StreamingBatchOracle._evidence_from_prior(
            prior, positions) if positions else None
        if evidence is not None:
            try:
                stream.observe(evidence)
            except (StreamingUnsupported, MeasureError):
                pass
        pdb = stream.posterior().pdb
        if not isinstance(pdb, WeightedColumnarPDB):
            return None
        weights = [float(weight) for weight in pdb.weights]
        for number, plan in enumerate(plans):
            columnar = query_distribution(pdb, plan)
            naive = [None if world is None else plan.evaluate(world)
                     for world in pdb._columnar.world_slots()]
            reference = self._naive_measure(
                naive, weights=weights, total=pdb.total_weight())
            if columnar != reference:
                return (f"plan #{number} over the weighted posterior "
                        f"differs: {columnar!r} vs naive "
                        f"{reference!r}")
        return None

    def check(self, case: FuzzCase) -> OracleOutcome:
        session = _session(case, seed=case.seed, max_steps=200,
                           backend="batched")
        result = session.sample(self.n_runs)
        if result.backend != "batched":
            return _skip("batched backend declined this case")
        pdb = result.pdb
        arities = self._arities(pdb)
        if not arities:
            return _skip("ensemble produced no visible facts")
        rng = random.Random(case.seed ^ 0xC01A)
        constants = self._constants(pdb)
        plans = [self._random_plan(rng, arities, constants)
                 for _ in range(self.n_plans)]
        detail = self._check_plain(pdb, plans)
        if detail:
            return _fail(detail)
        detail = self._check_weighted(case, plans)
        if detail:
            return _fail(detail)
        return _ok()


class StaticDynamicOracle(Oracle):
    """Static predictions (:mod:`repro.analysis`) vs engine behaviour.

    The analyzer's capability report is *conservative eligibility*: a
    capability predicted eligible must be honoured by the engines,
    while an ineligible verdict makes no runtime claim (the engines
    may still succeed on cases the static approximation declined).
    Four soundness directions are differentially checked per case:

    * **lint-clean** - a program with no error-severity lint
      diagnostic must compile and sample without raising a
      :class:`~repro.errors.ReproError` (data-driven ``Θ`` escapes
      through variable distribution parameters are outside the static
      claim and skip instead);
    * **batched** - predicted batch-eligible programs must not fall
      back to the scalar loop for structural reasons; a step-budget
      decline is retried with a generous budget before it counts;
    * **stable** - relations the columnar-lift analysis classifies as
      stable must never grow: in every sampled world their fact set
      stays inside the deterministic closure of the stable rules
      (subset, not equality - truncated worlds may carry fewer
      facts);
    * **streaming** - on predicted streaming-safe programs, observing
      evidence drawn from the stream's own prior must not raise
      :class:`~repro.errors.StreamingUnsupported` (worlds that fell
      to the scalar path within the batch are a budget artifact the
      analysis does not model, and skip).

    Each sub-check reports whether its precondition held; a case
    where no prediction was exercisable skips rather than reporting a
    hollow pass.
    """

    name = "static-dynamic"

    def __init__(self, n_runs: int = 80):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        compiled = _compiled(case)
        report = deep_analyze(compiled.translated,
                              instance=case.instance,
                              termination=compiled.analyze())
        failures: list[str] = []
        claims = 0
        for checker in (self._lint_clean, self._batched_honoured,
                        self._stable_never_grow, self._streaming_safe):
            verdict = checker(case, report)
            if verdict is None:
                continue
            claimed, detail = verdict
            claims += claimed
            if detail:
                failures.append(detail)
        if failures:
            return _fail("; ".join(failures))
        if not claims:
            return _skip("no static claim applies to this case")
        return _ok()

    @staticmethod
    def _data_bound_parameters(case: FuzzCase) -> bool:
        for rule in case.program.rules:
            for arg in rule.head.args:
                if isinstance(arg, RandomTerm) and any(
                        not isinstance(param, Const)
                        for param in arg.params):
                    return True
        return False

    def _lint_clean(self, case: FuzzCase, report):
        if report.lint.errors:
            return None
        try:
            _session(case, seed=case.seed & 0x7FFFFFFF,
                     max_steps=200).sample(20)
        except DistributionError:
            if self._data_bound_parameters(case):
                return 0, ""  # a data-driven Θ escape - not a static claim
            return 1, ("lint-clean program with constant parameters "
                       "raised DistributionError at sampling time")
        except ReproError as err:
            return 1, ("lint-clean program failed to sample: "
                       f"{type(err).__name__}: {err}")
        return 1, ""

    def _batched_honoured(self, case: FuzzCase, report):
        if not report.capabilities.batched.eligible:
            return None
        seed = case.seed & 0x7FFFFFFF
        session = _session(case, seed=seed, max_steps=500,
                           backend="batched")
        if session._batched_chase() is None:
            return 1, ("predicted batch-eligible but BatchedChase "
                       "construction declined")
        if session.sample(self.n_runs).backend == "batched":
            return 1, ""
        # The only remaining decline is the step budget, which the
        # static analysis does not model; confirm with a generous one.
        retry = _session(case, seed=seed, max_steps=5000,
                         backend="batched").sample(self.n_runs)
        if retry.backend != "batched":
            return 1, ("predicted batch-eligible but sampling fell "
                       "back to the scalar loop")
        return 0, ""

    @staticmethod
    def _stable_never_grow(case: FuzzCase, report):
        stable = set(report.capabilities.stable_relations)
        if not stable:
            return None
        stable_rules = [rule for rule in case.program.rules
                        if not rule.is_random()
                        and rule.head.relation in stable]
        closure, _ = seminaive_closure(stable_rules, case.instance)
        allowed = set(closure.facts)
        pdb = _session(case, seed=case.seed & 0x7FFFFFFF,
                       max_steps=200).sample(25).pdb
        for index, world in enumerate(pdb.worlds):
            grown = sorted(repr(fact) for fact in world.facts
                           if fact.relation in stable
                           and fact not in allowed)
            if grown:
                return 1, ("predicted-stable relations grew in world "
                           f"{index}: {grown[:3]}")
        return 1, ""

    def _streaming_safe(self, case: FuzzCase, report):
        if not report.capabilities.streaming_observations.eligible:
            return None
        positions = random_value_positions(case.program)
        if not positions:
            return None
        seed = case.seed & 0x7FFFFFFF
        session = _session(case, seed=seed, max_steps=500)
        try:
            stream = session.stream(max(self.n_runs, 40))
        except StreamingUnsupported:
            if session._batched_chase() is None:
                return 1, ("predicted streaming-safe but the batched "
                           "backend declined structurally")
            return 0, ""  # step-budget decline of the batch itself
        if stream._outcome.diagnostics.get("n_split", 0):
            return 0, ""  # scalar fallback worlds: budget artifact
        try:
            prior = fact_marginals(stream.posterior().pdb)
        except MeasureError:
            return 0, ""
        evidence = StreamingBatchOracle._evidence_from_prior(
            prior, positions)
        if evidence is None:
            return 0, ""
        try:
            stream.observe(evidence)
        except StreamingUnsupported as err:
            return 1, ("predicted streaming-safe but observing "
                       f"{evidence!r} raised StreamingUnsupported: "
                       f"{err}")
        return 1, ""


def default_oracles() -> list[Oracle]:
    """The standard oracle battery, cheapest first."""
    return [FixpointOracle(), ChaseOrderOracle(), ExactVsSampleOracle(),
            PdbInputOracle(), BatchedVsScalarOracle(),
            BaranyAgreementOracle(), ShardedVsSingleOracle(),
            InducedFDOracle(), TerminationOracle(),
            StreamingBatchOracle(), ColumnarQueryOracle(),
            ConditioningOracle(), StaticDynamicOracle()]


def oracles_by_name() -> dict[str, Oracle]:
    return {oracle.name: oracle for oracle in default_oracles()}
