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
  backend must fall back to the scalar loop, and - on every batched
  result - exact identity of the columnar marginal reads with counts
  over the materialized worlds (the multi-round cascade and the
  columnar fact store must describe the same ensemble) and of a warm
  session's second sample with a fresh session's at the same seed
  (cached round transitions must not change a world);
* ``composed-whole`` - the batched chase's composed cascade rounds
  (a missed round built from cached one-trigger rounds) vs a chase
  that runs every missed round on its whole signature: the same
  batch, group for group and byte for byte, at the same seed;
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

import numpy as np

from repro.analysis import deep_analyze
from repro.analysis.capabilities import rounds_compose
from repro.api.session import CompiledProgram, Session, compile as \
    _compile
from repro.core.policies import (FirstPolicy, LastPolicy,
                                 RoundRobinPolicy)
from repro.core.atoms import Atom
from repro.core.chase import DEFAULT_MAX_STEPS
from repro.core.exact import DEFAULT_MAX_DEPTH
from repro.core.fd import check_all_fds, fd_violation_report, induced_fds
from repro.core.observe import Observation
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm
from repro.errors import (ChaseError, DistributionError, MeasureError,
                          ReproError, StreamingUnsupported,
                          ValidationError)
from repro.core.program import Program
from repro.core.termination import weakly_acyclic
from repro.engine.batched import BatchedChase, BatchUnsupported
from repro.engine.seminaive import (naive_fixpoint, seminaive_closure,
                                    seminaive_fixpoint)
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.ordering import tuple_sort_key
from repro.pdb.database import DiscretePDB, MonteCarloPDB
from repro.pdb.events import ContainsFactEvent
from repro.pdb.facts import Fact
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
    """Every exact fact marginal within ``z`` binomial sigmas.

    Sigma is sized by the sampled PDB's effective sample size when it
    has one - a weighted posterior is worth its ESS, not its run
    count - and by its run count otherwise.
    """
    ess = getattr(sampled, "effective_sample_size", None)
    n = ess() if ess is not None else sampled.n_runs
    for fact, probability in fact_marginals(exact).items():
        sigma = math.sqrt(max(probability * (1 - probability) / n,
                              1e-12))
        estimate = sampled.marginal(fact)
        if abs(estimate - probability) > z * sigma + slack:
            size = f"ess={n:.1f}" if ess is not None else f"n={n}"
            return (f"marginal of {fact!r}: exact {probability:.4f} vs "
                    f"sampled {estimate:.4f} ({size})")
    return None


#: Cochran's rule: a chi-squared cell should expect at least this many
#: draws.  :func:`worlds_agree_chi_squared` pools the cells below it.
_MIN_CELL_EXPECTED = 5.0


def worlds_agree_chi_squared(exact: DiscretePDB,
                             sampled: MonteCarloPDB) -> str | None:
    """Chi-squared test of the sampled world distribution.

    Cells expected below :data:`_MIN_CELL_EXPECTED` draws are pooled
    into one cell, and the smallest other cells join it until it
    expects that many: a sparse law (a trigger cascade spreads over a
    thousand-odd worlds) would otherwise read one draw in a cell
    expected 0.0006 times as a ~1700 excess, however right the law.
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
    cells = sorted((probability / total_expected * sampled.n_runs, count)
                   for count, probability in zip(observed, expected))
    pooled_mean = pooled_count = 0.0
    statistic = 0.0
    n_cells = 0
    for mean, count in cells:
        if mean < _MIN_CELL_EXPECTED or pooled_mean < _MIN_CELL_EXPECTED:
            pooled_mean += mean
            pooled_count += count
            continue
        statistic += (count - mean) ** 2 / mean
        n_cells += 1
    if pooled_mean > 0:
        statistic += (pooled_count - pooled_mean) ** 2 / pooled_mean
        n_cells += 1
    dof = max(n_cells - 1, 1)
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
        # chase's order independence - under the default backend all
        # three variants would run the batch, whose law is
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
        marginals = list(fact_marginals(case.input_pdb).items())
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
    Inside it, a second sample on the now warm session (cached round
    transitions) must equal a fresh session's, world for world.
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
        batched = result.pdb
        detail = marginals_agree(exact, batched)
        if detail:
            return _fail(f"batched sampling: {detail}")
        detail = worlds_agree_chi_squared(exact, batched)
        if detail:
            return _fail(f"batched sampling: {detail}")
        detail = self._warm_matches_cold(
            session, _session(case, seed=case.seed + 2), case.seed + 2)
        if detail:
            return _fail(detail)
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
        scalar = base.on(case.instance, seed=case.seed + 1,
                         backend="scalar").sample(self.n_runs).pdb
        detail = ks_agreement(sampled_values(result.pdb, positions),
                              sampled_values(scalar, positions))
        if detail:
            return _fail(f"batched vs scalar: {detail}")
        detail = self._warm_matches_cold(
            session, base.on(case.instance, seed=case.seed + 2,
                             backend="batched"), case.seed + 2)
        if detail:
            return _fail(detail)
        return _ok()

    def _warm_matches_cold(self, warm, cold, seed: int) -> str | None:
        """A warm session samples what a fresh one does, world for world.

        ``warm`` has sampled once, so its batched engine holds cached
        round transitions; ``cold`` is a new session of the same case.
        Both now sample at ``seed``.
        """
        detail = compare_monte_carlo_pdbs(
            warm.sample(self.n_runs, seed=seed, backend="batched").pdb,
            cold.sample(self.n_runs, backend="batched").pdb)
        if detail:
            return f"warm session differs from a fresh one: {detail}"
        return None


class _WholeRoundChase(BatchedChase):
    """A batched chase that never composes a round.

    Every missed round runs the deterministic cascade on its whole
    signature: the ``composed-whole`` oracle's reference.
    """

    def __init__(self, translated, instance):
        super().__init__(translated, instance)
        self._composes = False


class _CheckedChase(BatchedChase):
    """A composing batched chase that checks its composed nodes.

    It builds every composed node's engine at once and checks that
    exactly the node's layer is pending on it.
    """

    def _compose(self, node, sig, parts):
        child = super()._compose(node, sig, parts)
        if child is not None and child.layer:
            pending = [firing.sort_key()
                       for firing in self._engine_of(child).applicable()]
            layer = [firing.sort_key for firing in child.layer]
            if pending != layer:
                raise ChaseError(
                    f"a composed node's engine holds {pending!r} "
                    f"pending, its layer {layer!r}")
        return child


class _FullCacheChase(_CheckedChase):
    """A checked composing chase whose round cache fills early.

    It stores about a dozen nodes, so after the first batch parts
    cannot be stored and composed nodes run whole rounds on the
    engines they build.
    """

    def __init__(self, translated, instance):
        super().__init__(translated, instance)
        self._cache_cap = 12 * (len(self.closed) + 4)


def compare_batch_outcomes(first, second) -> str | None:
    """None if two ``run_batch`` outcomes are the same batch.

    The same decline, or the same groups in the same order (equal
    members, equal ``shared`` instances, equal firing indices) over
    the same firings (equal layer firings, worlds and twins, sample
    arrays byte for byte).
    """
    if first is None or second is None:
        if first is second:
            return None
        return "one batch declined and the other did not"
    if len(first.groups) != len(second.groups):
        return (f"{len(first.groups)} groups vs "
                f"{len(second.groups)}")
    for index, (one, other) in enumerate(zip(first.groups,
                                              second.groups)):
        if not np.array_equal(one.members, other.members):
            return f"group {index}: members differ"
        if one.shared != other.shared:
            extra = sorted(one.shared.facts ^ other.shared.facts,
                           key=repr)[:3]
            return f"group {index}: shared differs on {extra!r}"
        if one.firings != other.firings:
            return (f"group {index}: firings {one.firings!r} vs "
                    f"{other.firings!r}")
    if len(first.firings) != len(second.firings):
        return (f"{len(first.firings)} firings vs "
                f"{len(second.firings)}")
    for fired, other in zip(first.firings, second.firings):
        if fired.firing != other.firing or fired.twins != other.twins \
                or not np.array_equal(fired.worlds, other.worlds) \
                or fired.values.dtype != other.values.dtype \
                or fired.values.tobytes() != other.values.tobytes():
            return (f"firing {fired.firing.aux_relation}"
                    f"{fired.firing.prefix!r} differs")
    return None


class ComposedWholeOracle(Oracle):
    """Composed cascade rounds vs whole-signature rounds (identity).

    Where no rule body joins two growable atoms
    (:func:`~repro.analysis.capabilities.rounds_compose`), the batched
    chase builds a missed round from cached one-trigger rounds.  That
    is a cache shortcut, not a new law: each batch must equal, group
    for group and byte for byte, the batch a chase that never
    composes draws at the same seed - or decline as it does.  Two
    composing chases are checked, one with the usual cache and one
    whose cache fills early (so composed nodes run whole rounds on
    the engines they build).  Every chase samples three batches in
    turn, so later batches also meet composed nodes' own misses and
    the cached parts; both translations are checked where they
    compose.  A case whose batches compose no round is a skip, not a
    hollow ok.
    """

    name = "composed-whole"

    def __init__(self, n_runs: int = 250):
        self.n_runs = n_runs

    def check(self, case: FuzzCase) -> OracleOutcome:
        if not weakly_acyclic(case.program):
            return _skip("not weakly acyclic: no batched chase")
        composed_rounds = 0
        for semantics in ("grohe", "barany"):
            translated = _compile(case.program,
                                  semantics=semantics).translated
            if not rounds_compose(translated):
                continue
            try:
                whole = _WholeRoundChase(translated, case.instance)
                chases = [(label, chase(translated, case.instance))
                          for label, chase in
                          (("composed", BatchedChase),
                           ("composed, full cache", _FullCacheChase))]
            except BatchUnsupported:
                continue
            for batch, size in enumerate((self.n_runs, 40,
                                          self.n_runs)):
                seed = case.seed + batch
                want = whole.run_batch(size, np.random.default_rng(seed),
                                       DEFAULT_MAX_STEPS)
                for label, chase in chases:
                    got = chase.run_batch(size,
                                          np.random.default_rng(seed),
                                          DEFAULT_MAX_STEPS)
                    detail = compare_batch_outcomes(got, want)
                    if detail:
                        return _fail(
                            f"{semantics} batch {batch} (n={size}, seed "
                            f"{seed}): {label} vs whole rounds: "
                            f"{detail}")
                    if got is not None:
                        composed_rounds += got.diagnostics[
                            "n_composed_rounds"]
        if not composed_rounds:
            return _skip("no round was composed")
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
    ``posterior(method="likelihood", backend="scalar")`` re-runs the
    weighted scalar chase from scratch - an independent reference,
    which the batched likelihood path would not be.  Both estimate
    the same disintegrated posterior, so their marginals must agree
    within Monte-Carlo noise.
    Evidence is drawn from the stream's own prior - an
    actually-sampled ``(relation, carried, value)`` triple, so its
    likelihood is never zero - and cases the streaming safety gate
    declines (trigger-valued or signature-contradicting observations)
    skip rather than fail.

    The stream's answer index is checked around one observe and its
    retract: a ``Scan`` of the observed relation and of another
    visible relation (when the case has one) must answer on the
    stream's ensemble exactly as on a fresh ensemble of its current
    batch, which holds no index.  The observed scan is the plan held
    across each swap of forced draws whenever the other plan is not,
    so an index carried past a forced relation shows.
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
            detail = self._check_index(stream, evidence, prior)
            if detail:
                return _fail(detail)
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
            one_shot = _session(case, seed=seed + 1, max_steps=200,
                                backend="scalar") \
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

    @classmethod
    def _check_index(cls, stream, evidence: Observation,
                     prior) -> str | None:
        """Index-held answers vs a fresh ensemble, across observe/retract.

        Each step queries the plan the stream's ensemble holds first;
        the observed relation's scan is held into the observe, and
        into the retract when it is the only plan.
        """
        from repro.query.relalg import Scan
        others = sorted({fact.relation for fact in prior}
                        - {evidence.relation})
        plans = [Scan(evidence.relation)] + [Scan(name)
                                             for name in others[:1]]
        detail = cls._answers_agree(stream, plans[::-1], "prior")
        if detail:
            return detail
        token = stream.observe(evidence)
        detail = cls._answers_agree(stream, plans, f"after {evidence!r}")
        stream.retract(token)
        return detail or cls._answers_agree(stream, plans[::-1],
                                            "after its retract")

    @staticmethod
    def _answers_agree(stream, plans, when: str) -> str | None:
        from repro.engine.batched import ColumnarMonteCarloPDB
        from repro.query.columnar import query_answers
        fresh = ColumnarMonteCarloPDB(stream._outcome, stream._visible,
                                      keep_aux=stream._cfg.keep_aux)
        for plan in plans:
            if query_answers(stream._pdb, plan) \
                    != query_answers(fresh, plan):
                return (f"stream answer index of scan "
                        f"{plan.relation!r} {when} differs from a "
                        "fresh ensemble's")
        return None

    @staticmethod
    def _evidence_from_prior(prior, positions) -> Observation | None:
        for fact in prior:
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
      truncated batch proposals) and ``posterior(method="likelihood",
      backend="scalar")`` (the weighted scalar chase) estimate the
      same disintegrated posterior, so their marginals must agree
      within Monte-Carlo noise;
    * **event path** - a ``ContainsFactEvent`` on a sampled
      random-head output fact, which the batched posteriors check
      columnar (:func:`~repro.query.columnar.event_mask`); where
      exact enumeration is available the guided posterior and the
      batched ``rejection`` posterior must match the
      restrict-and-normalize SPDB marginal-for-marginal (binomial
      sigma bounds), elsewhere both are compared against
      ``rejection`` on the scalar loop - including a KS test of the
      sampled value columns whenever the guided weights are uniform
      (then the guided ensemble is an unweighted posterior sample and
      the two-sample statistic applies directly).

    References run with ``backend="scalar"``, so they stay independent
    of the batched route they check.  Cases where the batched route
    falls back to the scalar loop (not weakly acyclic, batched engine
    declined) still run - the fallback must agree with the reference
    too - and the outcome detail records whether the guided proposal
    was actually exercised.
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
            reference = _session(case, seed=seed + 2, max_steps=200,
                                 backend="scalar") \
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
        try:
            batched = _session(case, seed=seed + 5, max_steps=200) \
                .observe(evidence).posterior(method="rejection",
                                             n=self.n_runs)
        except MeasureError:
            batched = None
        candidates = [("guided", guided)]
        if batched is not None:
            exercised.append(f"rejection:{batched.backend}")
            candidates.append(("rejection", batched))
        if _exactable(case):
            try:
                exact = _session(case).observe(evidence) \
                    .posterior(method="exact")
            except MeasureError:
                return None
            for name, candidate in candidates:
                detail = marginals_agree(exact.pdb, candidate.pdb)
                if detail:
                    return (f"{name} vs exact ({f!r}): {detail} "
                            f"[{case.describe()}]")
            return None
        try:
            rejection = _session(case, seed=seed + 4, max_steps=200,
                                 backend="scalar") \
                .observe(evidence).posterior(method="rejection",
                                             n=self.n_runs)
        except MeasureError:
            return None
        for name, candidate in candidates:
            detail = self._continuous_agreement(candidate, rejection,
                                                positions)
            if detail:
                return (f"{name} vs scalar rejection ({f!r}): "
                        f"{detail} [{case.describe()}]")
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
            # A rejection posterior (or guided on the scalar loop):
            # two *independent* rejection ensembles of the same
            # posterior - compare statistically, not draw-for-draw.
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
            value for world, weight in zip(guided.pdb.worlds, weights)
            if weight > 0.0
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
      planner runs);
    * the fact table (:func:`~repro.query.columnar.fact_totals`) is
      in canonical fact order and equals the fact counts over the
      materialized worlds;
    * the event check of conditioning
      (:func:`~repro.query.columnar.event_mask`) reads a
      ``ContainsFactEvent`` - alone, or two conjoined - as membership
      in every materialized world, without materializing them;
    * the batch restricted to a keep mask drawn from the case seed,
      and to the all-kept mask
      (:meth:`~repro.engine.batched.ColumnarMonteCarloPDB.subset`, a
      batched rejection posterior), lists the fact table of the kept
      materialized worlds and answers a plan as each of them does.

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
    def _arities(table) -> dict[str, int]:
        """Visible relations with one consistent arity in the batch."""
        seen: dict[str, set[int]] = {}
        for relation, args, _total in table:
            seen.setdefault(relation, set()).add(len(args))
        return {relation: lengths.pop()
                for relation, lengths in seen.items()
                if len(lengths) == 1}

    @staticmethod
    def _constants(table, limit: int = 24) -> list:
        """A pool of ground values the ensemble actually contains."""
        values: list = []
        for _relation, args, _total in table:
            values.extend(args)
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
            images = [relation.canonical() for relation in answers]
            if not images:
                return DiscreteMeasure.zero()
            return DiscreteMeasure.from_samples(images).scale(total)
        masses: dict = {}
        for relation, weight in zip(answers, weights):
            if weight <= 0.0:
                continue
            key = relation.canonical()
            masses[key] = masses.get(key, 0.0) + weight
        if not masses:
            return DiscreteMeasure.zero()
        return DiscreteMeasure({point: mass / total
                                for point, mass in masses.items()})

    @staticmethod
    def _check_table(pdb, table, worlds=None) -> str | None:
        """The fact table is in canonical order and counts the worlds.

        ``worlds`` default to ``pdb``'s own materialized slots.
        """
        keys = [(relation, tuple_sort_key(args))
                for relation, args, _total in table]
        for number, (left, right) in enumerate(zip(keys, keys[1:])):
            if right < left:
                return (f"fact table out of canonical order at row "
                        f"{number + 1}: {table[number][:2]!r} before "
                        f"{table[number + 1][:2]!r}")
        counts: dict[Fact, int] = {}
        for world in pdb.world_slots() if worlds is None else worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        listed = {Fact(relation, args): total
                  for relation, args, total in table}
        if len(listed) != len(table) or listed != counts:
            return ("fact table differs from the counts over the "
                    "materialized worlds")
        return None

    @staticmethod
    def _check_subset(pdb, plan, seed: int) -> str | None:
        """A restricted batch reads like the kept materialized worlds.

        Over a keep mask drawn from ``seed`` (about half the worlds,
        at least one) and over the all-kept mask; the fact table is
        read without materializing the restriction.
        """
        from repro.query.columnar import fact_totals, query_answers
        slots = pdb.world_slots()
        drawn = np.random.default_rng(seed).random(len(slots)) < 0.5
        drawn[seed % len(slots)] = True
        for keep in (drawn, np.ones(len(slots), dtype=bool)):
            subset = pdb.subset(keep)
            kept = [world for world, ok in zip(slots, keep) if ok]
            table = fact_totals(subset)
            if subset.materializations:
                return "a subset's fact table materialized its worlds"
            detail = ColumnarQueryOracle._check_table(subset, table,
                                                      kept)
            if detail:
                return f"subset of {len(kept)} worlds: {detail}"
            answers = query_answers(subset, plan)
            if answers != [plan.evaluate(world) for world in kept]:
                return (f"subset of {len(kept)} worlds answers plan "
                        "#0 unlike the kept materialized worlds")
        return None

    @staticmethod
    def _check_fact_events(pdb, table) -> str | None:
        """Fact-event masks equal membership, world for world.

        Read on a fresh ensemble over the same batch, so the
        no-materialization check is not vacuous: up to 24 facts spread
        over the table, a fact no world holds, and the first and the
        last fact conjoined.
        """
        from repro.engine.batched import ColumnarMonteCarloPDB
        from repro.query.columnar import event_mask
        fresh = ColumnarMonteCarloPDB(pdb._outcome, pdb._visible,
                                      keep_aux=pdb._keep_aux)
        facts = [Fact(relation, args) for relation, args, _ in table]
        last = facts[-1]
        groups = [[fact] for fact in facts[::max(1, len(facts) // 24)]]
        groups.append([Fact(last.relation, last.args[:-1] + ("absent#",))])
        groups.append([facts[0], last])
        masks = [event_mask(fresh, [ContainsFactEvent(f) for f in group])
                 for group in groups]
        if fresh.materializations:
            return "a fact-event mask materialized the grouped worlds"
        slots = pdb.world_slots()
        for group, mask in zip(groups, masks):
            expected = [all(f in world for f in group) for world in slots]
            if mask.tolist() != expected:
                return (f"event mask of {group!r} differs from "
                        "membership in the materialized worlds")
        return None

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
            naive = [plan.evaluate(world) for world in pdb.world_slots()]
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
            naive = [plan.evaluate(world)
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
        from repro.query.columnar import fact_totals
        pdb = result.pdb
        table = fact_totals(pdb)
        arities = self._arities(table)
        if not arities:
            return _skip("ensemble produced no visible facts")
        rng = random.Random(case.seed ^ 0xC01A)
        constants = self._constants(table)
        plans = [self._random_plan(rng, arities, constants)
                 for _ in range(self.n_plans)]
        detail = self._check_plain(pdb, plans) \
            or self._check_table(pdb, table) \
            or self._check_fact_events(pdb, table) \
            or self._check_subset(pdb, plans[0], case.seed)
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
        try:
            session._batched_chase()
        except BatchUnsupported as err:
            return 1, ("predicted batch-eligible but BatchedChase "
                       f"construction declined: {err}")
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
            # Streaming-safe implies batch-eligible, and the report is
            # the batch gate, so only the batch itself can decline (a
            # cascade round overrunning the step budget).
            return 0, ""
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
            ComposedWholeOracle(), BaranyAgreementOracle(),
            InducedFDOracle(), TerminationOracle(),
            StreamingBatchOracle(), ColumnarQueryOracle(),
            ConditioningOracle(), StaticDynamicOracle()]


def oracles_by_name() -> dict[str, Oracle]:
    return {oracle.name: oracle for oracle in default_oracles()}
