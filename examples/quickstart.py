#!/usr/bin/env python3
"""Quickstart: compile a GDatalog program once, infer many times.

This walks the full pipeline of the paper on a small example through
the ``repro.compile(...)`` facade:

1. write a program with random terms (Section 3.1) and compile it,
2. inspect its cached translation to existential Datalog (Section 3.2),
3. compute the exact output SPDB by chase-tree enumeration (Section 4),
4. verify chase independence (Theorem 6.1) on the spot,
5. sample the Monte-Carlo semantics through the same session,
6. ask queries against the probabilistic output (Fact 2.6).

Run:  python examples/quickstart.py
"""

import repro
from repro.query import Aggregate, agg_count, aggregate_distribution, scan


def main() -> None:
    # 1. A tiny generative program: each server fails a coin flip, and
    #    pairs of failing servers on one rack escalate to an incident.
    #    Compiling caches the translation and termination report; every
    #    inference below shares them.
    compiled = repro.compile("""
        Fails(s, Flip<p>)   :- Server(s, r, p).
        Incident(r)         :- Server(s1, r, p1), Fails(s1, 1),
                               Server(s2, r, p2), Fails(s2, 1),
                               Distinct(s1, s2).
    """)
    data = repro.Instance.from_dict({
        "Server": [("a", "rack1", 0.1), ("b", "rack1", 0.2),
                   ("c", "rack2", 0.5)],
        "Distinct": [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"),
                     ("b", "c"), ("c", "b")],
    })
    print("Program:")
    print(compiled.program.pretty())

    # 2. The associated existential Datalog program (rules 3.A/3.B),
    #    computed exactly once and cached on the compiled program.
    print("\nTranslated program (Datalog with existentials):")
    print(compiled.translated)

    # 3. Exact semantics: the output SPDB with closed-form weights.
    session = compiled.on(data)
    result = session.exact()
    pdb = result.pdb
    print(f"\nExact output SPDB: {pdb.support_size()} possible worlds, "
          f"err mass {pdb.err_mass():.3g} "
          f"({result.elapsed * 1e3:.1f} ms)")
    p_incident = result.marginal(repro.Fact("Incident", ("rack1",)))
    print(f"P(Incident(rack1)) = {p_incident:.6f}   "
          f"(closed form: 0.1 * 0.2 = {0.1 * 0.2:.6f})")

    # 4. Theorem 6.1: any policy / the parallel chase gives the same SPDB.
    for policy in repro.standard_policies()[:3]:
        alt = session.exact(policy=policy)
        assert alt.pdb.allclose(pdb), policy.name
    parallel = session.exact(parallel=True)
    assert parallel.pdb.allclose(pdb)
    print("Chase independence verified: 3 policies + parallel chase "
          "produce identical SPDBs.")

    # 5. Monte-Carlo semantics converges to the exact one - 20k runs,
    #    one translation, one applicability bootstrap.
    sampled = session.sample(20_000, seed=0)
    incident = repro.Fact("Incident", ("rack1",))
    estimate = sampled.marginal(incident)
    stderr = sampled.pdb.prob_standard_error(
        lambda D: incident in D)
    print(f"Monte-Carlo estimate (n=20000): {estimate:.4f} "
          f"+/- {stderr:.4f}")

    # 6. Queries on the probabilistic output: distribution of #failures.
    failures = Aggregate(scan("Fails", "server", "bit").where(bit=1),
                         (), {"n": agg_count()})
    distribution = aggregate_distribution(pdb, failures)
    print("\nDistribution of the number of failing servers:")
    for count in sorted(distribution.support()):
        print(f"  {count} failures: {distribution.mass(count):.4f}")


if __name__ == "__main__":
    main()
