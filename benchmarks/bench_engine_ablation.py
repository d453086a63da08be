"""E13: engine ablations + facade amortization + batched sampling.

Four ablations:

* applicability maintenance - incremental (delta) engine vs naive
  recomputation per chase step;
* Datalog fixpoint - semi-naive vs naive evaluation;
* **facade vs unamortized batching** - ``Session.sample(n)``
  (translate once, bootstrap the applicability engine once, fork per
  run) against a reference loop of ``n`` chases that each translate,
  build an engine and run (``translate`` -> ``make_engine`` ->
  ``run_chase_prepared``).  The facade path must be no slower at
  n=1000 chases; in practice it is strictly faster because per-run
  setup is amortized;
* **batched vs scalar backend** - the vectorized batch chase
  (:mod:`repro.engine.batched`) against the per-run scalar loop.  Four
  acceptance bounds: batched ``sample(n=1000)`` on Example 3.5 (single
  sampling layer) must be at least 3x faster; on Example 3.4 (the
  cascading earthquake model, where the multi-round signature-group
  loop keeps trigger-hit worlds vectorized instead of splitting ~22%
  of the batch to the scalar engine) at least **6x** - both measured
  end-to-end including a marginal read, so the columnar fast path is
  inside the timed region; on the staged-slots workload (8 small
  signature groups over a padded instance - the cross-group
  draw-pooling + overlay-fork case) at least **2x**; and on Example
  3.5 under the **Bárány translation** (previously a whole-batch
  scalar decline; the shared-``Sample#`` companion fan-out is now
  vectorized) strictly faster than scalar (asserted with 2x
  headroom).  The law checks ride along: the batched ensemble must
  agree with the exact SPDB (binomial-sigma marginals + chi-squared
  world distribution) and with the scalar backend (KS over the
  sampled values), on the new workloads too.

``test_calibration_spin`` is the pure-python calibration workload the
benchmark-regression CI gate normalizes against
(``benchmarks/perf_report.py``): absolute medians differ wildly across
runners, medians *relative to the spin loop* do not.

All equivalent pairs are asserted equivalent; the benchmarks quantify
the gaps.
"""

import time

import numpy as np
import pytest

from repro.api import compile as compile_program
from repro.core.chase import make_engine, run_chase_prepared
from repro.core.policies import DEFAULT_POLICY
from repro.engine.seminaive import naive_fixpoint, seminaive_fixpoint
from repro.measures.empirical import ks_critical_value, ks_two_sample
from repro.workloads.generators import (chain_instance, chain_program,
                                        earthquake_city_instance,
                                        random_graph_instance,
                                        staged_slots_instance,
                                        staged_slots_program,
                                        transitive_closure_program)
from repro.workloads.paper import (example_3_4_instance,
                                   example_3_4_program,
                                   example_3_5_instance,
                                   example_3_5_program)


def _timed_sample_seconds(session, n_runs, backend, probe=None,
                          require_err_free=False):
    """One timed ``sample(n)`` on a backend.

    The probe read (when given) sits *inside* the timed region, so the
    batched side's columnar fast path is part of the comparison and
    the scalar side pays its world materialization.
    """
    from repro.pdb.facts import Fact
    assert probe is None or isinstance(probe, Fact)
    start = time.perf_counter()
    result = session.sample(n_runs, backend=backend)
    marginal = result.marginal(probe) if probe is not None else None
    elapsed = time.perf_counter() - start
    assert result.backend == backend
    assert result.n_runs == n_runs
    if probe is not None:
        # Strictly inside (0, 1): every probe below has a genuinely
        # uncertain truth value, so a degenerate 0/1 read means the
        # column was dropped and the timing would measure a broken
        # path.
        assert 0.0 < marginal < 1.0
    if require_err_free:
        assert result.err_mass() == 0.0
    return elapsed


def assert_batched_speedup(session, n_runs, factor, probe=None,
                           require_err_free=False):
    """Warm both backends, then compare best-of-3 trials.

    The shared acceptance harness of every batched-vs-scalar bound in
    this file: the warm-up runs pay translation/fixpoint/engine
    bootstrap for both paths, and taking the best of 3 keeps noisy
    shared CI runners from tripping a genuine bound.
    """
    def seconds(backend):
        return _timed_sample_seconds(session, n_runs, backend, probe,
                                     require_err_free)

    seconds("batched")
    seconds("scalar")
    batched = min(seconds("batched") for _ in range(3))
    scalar = min(seconds("scalar") for _ in range(3))
    assert batched * factor <= scalar, \
        f"batched {batched:.3f}s vs scalar {scalar:.3f}s " \
        f"({scalar / batched:.1f}x, needed {factor:.0f}x)"


class TestCalibration:
    """The runner-speed yardstick for the CI regression gate."""

    def test_calibration_spin(self, benchmark):
        result = benchmark(lambda: sum(i * i for i in range(100_000)))
        assert result == 333328333350000


class TestE13Applicability:
    @pytest.mark.parametrize("engine", ["incremental", "naive"])
    def test_chase_engine_comparison(self, benchmark, engine):
        instance = earthquake_city_instance(12, 4, seed=0)
        session = compile_program(example_3_4_program()).on(
            instance, engine=engine)

        run = benchmark(lambda: session.run(rng=0))
        assert run.terminated

    def test_engines_identical_output(self, benchmark):
        instance = earthquake_city_instance(6, 3, seed=1)
        session = compile_program(example_3_4_program()).on(instance)

        def both():
            a = session.run(rng=5, engine="incremental")
            b = session.run(rng=5, engine="naive")
            return a, b

        a, b = benchmark(both)
        assert a.instance == b.instance


def _unamortized_run(program, instance, rng):
    """One chase that pays translation and engine bootstrap itself."""
    translated = program.translate()
    return run_chase_prepared(translated,
                              make_engine(translated, instance),
                              instance, DEFAULT_POLICY, rng)


class TestE13FacadeAmortization:
    """Acceptance check: compile-once sampling dominates per-call setup.

    The reference loop re-translates the program and re-bootstraps the
    applicability engine for every chase; the facade pays both costs
    once per (program, instance) and forks per run.  The facade is
    pinned to the scalar backend so both sides run the same per-run
    chase and only the amortization differs.
    """

    N_RUNS = 1000

    def _facade_seconds(self, program, instance) -> float:
        session = compile_program(program).on(instance, seed=0,
                                              backend="scalar")
        start = time.perf_counter()
        result = session.sample(self.N_RUNS)
        elapsed = time.perf_counter() - start
        assert result.n_runs == self.N_RUNS
        assert result.err_mass() == 0.0
        return elapsed

    def _legacy_seconds(self, program, instance) -> float:
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        outputs = [_unamortized_run(program, instance, rng)
                   for _ in range(self.N_RUNS)]
        elapsed = time.perf_counter() - start
        assert all(run.terminated for run in outputs)
        return elapsed

    def test_facade_no_slower_than_legacy_at_n1000(self):
        program = example_3_4_program()
        instance = earthquake_city_instance(4, 2, seed=0)
        # Warm both code paths, then take the best of 3 trials each.
        self._facade_seconds(program, instance)
        self._legacy_seconds(program, instance)
        facade = min(self._facade_seconds(program, instance)
                     for _ in range(3))
        legacy = min(self._legacy_seconds(program, instance)
                     for _ in range(3))
        # Acceptance bound: no slower, with headroom for noisy shared
        # CI runners; the facade typically measures 1.2-2x faster, so
        # a genuine regression still trips this.
        assert facade <= legacy * 1.15, \
            f"facade {facade:.3f}s vs legacy {legacy:.3f}s"

    def test_benchmark_facade_batch(self, benchmark):
        program = example_3_4_program()
        instance = earthquake_city_instance(4, 2, seed=0)
        session = compile_program(program).on(instance, seed=0)
        result = benchmark(lambda: session.sample(200))
        assert result.n_runs == 200

    def test_benchmark_legacy_batch(self, benchmark):
        program = example_3_4_program()
        instance = earthquake_city_instance(4, 2, seed=0)

        def batch():
            return [_unamortized_run(program, instance,
                                     np.random.default_rng(seed))
                    for seed in range(200)]

        runs = benchmark(batch)
        assert all(run.terminated for run in runs)


class TestE13BatchedBackend:
    """Acceptance check: the vectorized batch backend beats scalar.

    Example 3.5 is the paper's continuous flagship (one sampling layer
    over a deterministic base - the case batching is built for); the
    issue's acceptance bound is a 3x speedup at n=1000, far below the
    ~10x the backend actually measures, so genuine regressions trip
    the assert without CI noise doing so.
    """

    N_RUNS = 1000

    def _session(self):
        return compile_program(example_3_5_program()).on(
            example_3_5_instance(), seed=0)

    def test_batched_3x_faster_than_scalar_at_n1000(self):
        assert_batched_speedup(self._session(), self.N_RUNS, 3.0,
                               require_err_free=True)

    def test_batched_equals_scalar_law(self):
        # Same output law (KS over the sampled heights): the backends
        # draw differently, so the comparison is statistical.
        session = self._session()
        def heights(backend, seed):
            values = []
            pdb = session.sample(400, backend=backend, seed=seed).pdb
            for world in pdb.worlds:
                for fact in world.facts_of("PHeight"):
                    values.append(float(fact.args[1]))
            return values
        a, b = heights("batched", 0), heights("scalar", 1)
        statistic = ks_two_sample(a, b)
        assert statistic <= 1.3 * ks_critical_value(
            len(a), len(b), 1e-4), statistic

    def test_benchmark_batched_3_5(self, benchmark):
        session = self._session()
        result = benchmark(
            lambda: session.sample(self.N_RUNS, backend="batched"))
        assert result.diagnostics["n_split"] == 0

    def test_benchmark_scalar_3_5(self, benchmark):
        session = self._session()
        result = benchmark(
            lambda: session.sample(self.N_RUNS, backend="scalar"))
        assert result.n_runs == self.N_RUNS

    def test_benchmark_batched_3_4(self, benchmark):
        # Cascading discrete program: trigger-hit worlds regroup by
        # signature and stay vectorized (multi-round batch loop).
        session = compile_program(example_3_4_program()).on(
            earthquake_city_instance(4, 2, seed=0), seed=0)
        result = benchmark(
            lambda: session.sample(500, backend="batched"))
        assert result.diagnostics["n_batched"] > 0


class TestMultiRoundBatched:
    """Acceptance check: cascading programs batch end to end.

    The single-round backend sent every trigger-hit world of Example
    3.4 (~22% of the batch) through world-by-world scalar replay and
    capped out around 3x; the multi-round loop regroups those worlds
    by enabled-trigger signature and runs the Trig/Alarm stage
    vectorized per group, with columnar marginal reads skipping world
    materialization entirely.  The acceptance bound is >= 6x over
    scalar at n=1000 - measured including a marginal query - far below
    the ~20-30x the backend actually measures, so genuine regressions
    trip the assert without CI noise doing so.
    """

    N_RUNS = 1000

    def _session(self):
        return compile_program(example_3_4_program()).on(
            example_3_4_instance(), seed=0)

    def test_batched_6x_faster_than_scalar_on_3_4_at_n1000(self):
        from repro.pdb.facts import Fact
        assert_batched_speedup(self._session(), self.N_RUNS, 6.0,
                               probe=Fact("Alarm", ("house-1",)))

    def test_multi_round_law_matches_exact_and_scalar(self):
        from repro.testing.fuzz import random_value_positions
        from repro.testing.oracles import (ks_agreement,
                                           marginals_agree,
                                           sampled_values,
                                           worlds_agree_chi_squared)
        session = self._session()
        exact = session.exact().pdb
        batched = session.sample(2000, backend="batched", seed=0)
        assert batched.diagnostics["n_rounds"] == 2
        assert marginals_agree(exact, batched.pdb) is None
        assert worlds_agree_chi_squared(exact, batched.pdb) is None
        scalar = session.sample(2000, backend="scalar", seed=1)
        positions = random_value_positions(example_3_4_program())
        assert ks_agreement(
            sampled_values(batched.pdb, positions),
            sampled_values(scalar.pdb, positions)) is None

    def test_benchmark_multi_round_3_4_with_marginal(self, benchmark):
        from repro.pdb.facts import Fact
        session = self._session()

        def run():
            result = session.sample(self.N_RUNS, backend="batched")
            result.marginal(Fact("Alarm", ("house-1",)))
            return result

        result = benchmark(run)
        assert result.diagnostics["n_rounds"] == 2
        assert result.diagnostics["n_split"] < self.N_RUNS * 0.05


class TestPooledGroupBatched:
    """Acceptance check: many-small-signature-groups programs batch.

    The staged-slots workload produces 8 signature groups in round 2,
    each over a padded (inert-fact-heavy) closed instance.  Before
    this PR every group paid a full applicability re-index on fork and
    its own ``sample_batch`` call per (distribution, params); overlay
    forks cut the per-group setup to O(delta) and cross-group pooling
    serves all groups' same-key draws from one call.  The acceptance
    bound is >= 2x over scalar at n=1000 - well below what the backend
    measures, so CI noise does not trip it - plus law agreement
    against exact enumeration on a smaller configuration.
    """

    N_RUNS = 1000

    def _session(self):
        return compile_program(staged_slots_program()).on(
            staged_slots_instance(), seed=0)

    def test_batched_2x_faster_than_scalar_on_staged_slots(self):
        from repro.pdb.facts import Fact
        assert_batched_speedup(self._session(), self.N_RUNS, 2.0,
                               probe=Fact("Next", ("slot-0-0", 1)))

    def test_draws_actually_pool_across_groups(self):
        result = self._session().sample(self.N_RUNS,
                                        backend="batched")
        diag = result.diagnostics
        assert diag["n_rounds"] == 2
        assert diag["n_split"] == 0
        # One DiscreteUniform call + one pooled Flip call: without
        # pooling the 8 stage groups would issue 8 separate calls.
        assert diag["n_draw_calls"] == 2
        assert diag["n_pooled_draws"] > 0

    def test_staged_slots_law_matches_exact(self):
        from repro.testing.oracles import (marginals_agree,
                                           worlds_agree_chi_squared)
        session = compile_program(staged_slots_program(4)).on(
            staged_slots_instance(4, 3, padding=20), seed=5)
        exact = session.exact().pdb
        result = session.sample(2000, backend="batched")
        assert result.backend == "batched"
        assert result.diagnostics["n_pooled_draws"] > 0
        assert marginals_agree(exact, result.pdb) is None
        assert worlds_agree_chi_squared(exact, result.pdb) is None

    def test_benchmark_batched_staged_slots(self, benchmark):
        session = self._session()
        result = benchmark(
            lambda: session.sample(self.N_RUNS, backend="batched"))
        assert result.diagnostics["n_pooled_draws"] > 0


class TestBaranyBatched:
    """Acceptance check: Bárány-translation workloads now batch.

    Before this PR the batched backend declined the §6.2 translation
    outright (whole-batch scalar fallback); vectorizing the shared
    ``Sample#`` companion fan-out makes Example 3.5 under Bárány
    semantics a single-round batch (two draws per batch - one per
    (mu, sigma2) key - fanned out to every person).  The acceptance
    bound is a strict >1x speedup over scalar at n=1000 (asserted with
    2x headroom), plus KS law agreement between the backends.
    """

    N_RUNS = 1000

    def _session(self):
        return compile_program(example_3_5_program(),
                               semantics="barany").on(
            example_3_5_instance(), seed=0)

    def test_batched_beats_scalar_on_barany_3_5(self):
        # The issue's acceptance bound is >1x (the class previously
        # declined wholesale); assert with 2x headroom so a regression
        # back toward the scalar fallback trips it.
        assert_batched_speedup(self._session(), self.N_RUNS, 2.0,
                               require_err_free=True)

    def test_barany_batched_equals_scalar_law(self):
        session = self._session()

        def heights(backend, seed):
            pdb = session.sample(400, backend=backend, seed=seed).pdb
            return [float(fact.args[1]) for world in pdb.worlds
                    for fact in world.facts_of("PHeight")]

        batched = heights("batched", 0)
        scalar = heights("scalar", 1)
        statistic = ks_two_sample(batched, scalar)
        assert statistic <= 1.3 * ks_critical_value(
            len(batched), len(scalar), 1e-4), statistic

    def test_benchmark_batched_barany_3_5(self, benchmark):
        session = self._session()
        result = benchmark(
            lambda: session.sample(self.N_RUNS, backend="batched"))
        assert result.backend == "batched"
        assert result.diagnostics["n_split"] == 0


class TestE13DatalogFixpoint:
    @pytest.mark.parametrize("engine", ["seminaive", "naive"])
    def test_transitive_closure(self, benchmark, engine):
        program = transitive_closure_program()
        graph = random_graph_instance(30, 90, seed=2)
        fixpoint = seminaive_fixpoint if engine == "seminaive" \
            else naive_fixpoint

        result = benchmark(lambda: fixpoint(program, graph))
        assert result.facts_of("Path")

    @pytest.mark.parametrize("engine", ["seminaive", "naive"])
    def test_long_chain(self, benchmark, engine):
        program = chain_program(30)
        instance = chain_instance(40)
        fixpoint = seminaive_fixpoint if engine == "seminaive" \
            else naive_fixpoint

        result = benchmark(lambda: fixpoint(program, instance))
        assert len(result.facts_of("T30")) == 40

    def test_fixpoints_agree(self, benchmark):
        program = transitive_closure_program()
        graph = random_graph_instance(15, 40, seed=3)

        def both():
            return (seminaive_fixpoint(program, graph),
                    naive_fixpoint(program, graph))

        a, b = benchmark(both)
        assert a == b
