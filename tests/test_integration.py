"""End-to-end integration tests over the public API (import repro)."""

import numpy as np
import pytest

import repro
from repro.query.aggregates import Aggregate, agg_avg, agg_count
from repro.query import aggregate_distribution, boolean_probability
from repro.query.relalg import scan


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_docstring_example(self):
        program = repro.Program.parse(
            "Earthquake(c, Flip<0.1>) :- City(c, r).")
        D0 = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
        pdb = repro.compile(program).on(D0).exact().pdb
        assert pdb.marginal(repro.Fact("Earthquake", ("Napa", 1))) == \
            pytest.approx(0.1)


class TestSensorPipeline:
    """A realistic end-to-end pipeline mixing all subsystems."""

    PROGRAM = """
        % Sensors fail with probability 0.05.
        Working(s, Flip<0.95>)      :- Sensor(s, mu, s2).
        % Working sensors report a noisy reading.
        Reading(s, Normal<mu, s2>)  :- Sensor(s, mu, s2), Working(s, 1).
        % Deterministic classification feeds further rules.
        Deployed(s)                 :- Working(s, 1).
    """

    @pytest.fixture
    def pipeline(self):
        program = repro.Program.parse(self.PROGRAM)
        instance = repro.Instance.from_dict({
            "Sensor": [("s1", 20.0, 4.0), ("s2", 25.0, 1.0),
                       ("s3", 15.0, 9.0)],
        })
        return program, instance

    def test_static_analysis(self, pipeline):
        program, _ = pipeline
        report = repro.analyze_termination(program)
        assert report.weakly_acyclic

    def test_monte_carlo_semantics(self, pipeline):
        program, instance = pipeline
        pdb = repro.compile(program).on(
            instance, seed=0, backend="scalar").sample(2000).pdb
        assert pdb.err_mass() == 0.0
        # Working marginal ~ 0.95 per sensor.
        p = pdb.marginal(repro.Fact("Deployed", ("s1",)))
        assert abs(p - 0.95) < 0.03

    def test_query_layer_on_output(self, pipeline):
        program, instance = pipeline
        pdb = repro.compile(program).on(
            instance, seed=1, backend="scalar").sample(1500).pdb
        n_readings = Aggregate(scan("Reading", "s", "value"), (),
                               {"n": agg_count()})
        counts = aggregate_distribution(pdb, n_readings)
        # Number of readings ~ Binomial(3, 0.95).
        assert counts.mass(3) == pytest.approx(0.95 ** 3, abs=0.04)
        has_s2 = scan("Reading", "s", "value").where(s="s2")
        assert abs(boolean_probability(pdb, has_s2) - 0.95) < 0.03

    def test_reading_moments(self, pipeline):
        program, instance = pipeline
        pdb = repro.compile(program).on(
            instance, seed=2, backend="scalar").sample(1500).pdb
        values = pdb.values_of(
            lambda D: [f.args[1] for f in D.facts_of("Reading")
                       if f.args[0] == "s2"])
        from repro.measures import summarize
        summary = summarize(values)
        assert summary.mean_within(25.0)
        assert abs(summary.variance - 1.0) < 0.2

    def test_event_layer(self, pipeline):
        program, instance = pipeline
        pdb = repro.compile(program).on(
            instance, seed=3, backend="scalar").sample(1500).pdb
        hot = repro.CountingEvent(
            repro.FactSet("Reading", None,
                          repro.Interval(low=24.0)), 1)
        probability = pdb.prob(hot)
        assert 0.0 < probability < 1.0


class TestChaseAsMarkovProcess:
    """E10: kernel/Markov-process view consistent with direct chase."""

    def test_kernel_path_reproduces_chase(self, g0):
        process = repro.chase_markov_process(g0)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        path = process.sample_path(repro.Instance.empty(), rng_a, 50)
        run = repro.compile(g0).on(max_steps=50).run(rng=rng_b)
        assert path.absorbed and run.terminated
        assert path.final == run.instance

    def test_exact_absorption_matches_exact_spdb(self, g0):
        from repro.measures import (DiscreteMeasure,
                                    absorption_distribution)
        from repro.core.applicability import NaiveApplicability
        from repro.core.exact import exact_sequential_spdb
        from repro.core.translate import translate
        from repro.measures.kernels import DiscreteKernel
        from repro.core.policies import FirstPolicy
        from repro.core.exact import _branches

        translated = translate(g0)
        policy = FirstPolicy()

        def conditional(instance):
            engine = NaiveApplicability(translated, instance)
            applicable = engine.applicable()
            if not applicable:
                return DiscreteMeasure.dirac(instance)
            firing = policy.select(instance, applicable)
            branches, _ = _branches(translated, firing, 1e-12)
            return DiscreteMeasure({instance.add(f): m
                                    for f, m in branches})

        kernel = DiscreteKernel(conditional)

        def absorbing(instance):
            return not NaiveApplicability(translated,
                                          instance).applicable()

        absorbed, escaping = absorption_distribution(
            DiscreteMeasure.dirac(repro.Instance.empty()), kernel,
            absorbing, max_steps=10)
        assert escaping == pytest.approx(0.0)
        exact = exact_sequential_spdb(translated, keep_aux=True)
        for world, probability in exact.worlds():
            assert absorbed.mass(world) == pytest.approx(probability)


class TestErrorHandling:
    def test_invalid_parameter_at_chase_time(self):
        program = repro.Program.parse("Q(c, Flip<r>) :- City(c, r).")
        bad = repro.Instance.of(repro.Fact("City", ("x", 1.5)))
        with pytest.raises(repro.DistributionError):
            repro.compile(program).on(bad).run(rng=0)

    def test_exact_on_continuous_raises(self):
        program = repro.Program.parse("X(Normal<0, 1>) :- true.")
        with pytest.raises(repro.UnsupportedProgramError):
            repro.compile(program).on().exact().pdb

    def test_exception_hierarchy(self):
        for error in (repro.ParseError, repro.SchemaError,
                      repro.ValidationError, repro.DistributionError,
                      repro.ChaseError, repro.MeasureError,
                      repro.UnsupportedProgramError):
            assert issubclass(error, repro.ReproError)
