#!/usr/bin/env python3
"""Example 3.5 and beyond: continuous distributions in GDatalog.

The paper's motivating capability: rule heads sampling from *continuous*
laws.  This script:

* runs Example 3.5 (heights ~ Normal⟨µ, σ²⟩ per country) through a
  compiled session and verifies the sampled populations match the
  prescribed moments and pass a Kolmogorov-Smirnov test against the
  generating Normal;
* builds a noisy-sensor pipeline (the introduction's motivating
  scenario) mixing discrete gating (Flip) with Gaussian measurement
  noise and Exponential lifetimes;
* demonstrates measurable events over continuous values (interval
  conditions, counting events) and aggregate queries on the output PDB.

Run:  python examples/sensor_heights.py
"""

import repro
from repro.distributions import Normal
from repro.measures import ks_critical_value, ks_statistic, summarize
from repro.query import (Aggregate, agg_avg, agg_count,
                         expected_aggregate, scan)
from repro.workloads import paper


def heights_section() -> None:
    compiled = repro.compile(paper.example_3_5_program())
    moments = {"NL": (183.8, 49.0), "PE": (165.2, 36.0)}
    instance = paper.example_3_5_instance(moments,
                                          persons_per_country=3)
    print("Example 3.5 program:")
    print(compiled.program.pretty())

    result = compiled.on(instance, seed=0).sample(2000)
    pdb = result.pdb
    print(f"\nSampled {pdb.n_runs} worlds, err mass {pdb.err_mass()} "
          f"({result.elapsed:.2f} s, one translation)")

    normal = Normal()
    for country, (mu, var) in moments.items():
        prefix = country.lower()
        values = pdb.values_of(
            lambda D, p=prefix: [f.args[1] for f in D.facts_of("PHeight")
                                 if f.args[0].startswith(p)])
        summary = summarize(values)
        stat = ks_statistic(values,
                            lambda x, m=mu, v=var:
                            normal.cdf((m, v), x))
        critical = ks_critical_value(summary.n, alpha=0.001)
        verdict = "pass" if stat < critical else "FAIL"
        print(f"  {country}: n={summary.n}  mean {summary.mean:7.2f} "
              f"(target {mu})  var {summary.variance:6.2f} "
              f"(target {var})  KS {stat:.4f} < {critical:.4f} "
              f"[{verdict}]")

    # Aggregate query lifted to the PDB: expected mean height.
    mean_height = Aggregate(scan("PHeight", "p", "cm"), (),
                            {"m": agg_avg("cm")})
    print(f"  E[avg height] = "
          f"{expected_aggregate(pdb, mean_height):.2f} "
          f"(population mean {(183.8 + 165.2) / 2:.2f})")


def sensor_section() -> None:
    compiled = repro.compile("""
        % Each sensor survives an Exponential<lambda> lifetime.
        Lifetime(s, Exponential<0.1>) :- Sensor(s, mu).
        % Sensors emit Gaussian-noise readings around the true value.
        Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
        % A reading is anomalous if drawn while the sensor is flaky.
        Flaky(s, Flip<0.05>)          :- Sensor(s, mu).
        Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
    """)
    instance = repro.Instance.from_dict({
        "Sensor": [("t1", 20.0), ("t2", 22.5), ("t3", 18.0)],
    })
    print(f"\nSensor pipeline: {compiled.analyze()!r}")
    pdb = compiled.on(instance, seed=1).sample(3000).pdb

    # Event probabilities over continuous attributes.
    hot = repro.CountingEvent(
        repro.FactSet("Reading", None, repro.Interval(low=23.0)), 0)
    print(f"  P(no reading above 23.0) = {pdb.prob(hot):.4f}")
    anomalous = repro.FactSet("Anomaly", None, None)
    p_any = pdb.prob(repro.CountingEvent(anomalous, 0))
    print(f"  P(no anomalies at all)   = {p_any:.4f} "
          f"(expected {(0.95 ** 3):.4f})")

    lifetimes = pdb.values_of(
        lambda D: [f.args[1] for f in D.facts_of("Lifetime")])
    summary = summarize(lifetimes)
    print(f"  mean lifetime {summary.mean:.2f} (expected 10.0)")

    readings = Aggregate(scan("Reading", "s", "v"), (),
                         {"n": agg_count()})
    print(f"  E[#readings] = {expected_aggregate(pdb, readings):.2f} "
          f"(always 3)")


def main() -> None:
    heights_section()
    sensor_section()


if __name__ == "__main__":
    main()
