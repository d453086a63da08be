"""Command-line interface: run GDatalog programs from the shell.

Subcommands (``python -m repro <command>`` or the ``repro`` script):

* ``exact``     - exact output SPDB of a discrete program, printed as
  ``probability  world`` lines (plus err mass);
* ``sample``    - Monte-Carlo semantics: marginals of every output fact
  observed across ``n`` chases;
* ``query``     - answer a relational-algebra plan (``--plan``, the
  wire JSON of :func:`repro.serving.protocol.parse_plan`) over the
  output PDB: exact for discrete programs, compiled to numpy over the
  columnar ensemble otherwise, posterior with ``--observe``;
* ``posterior`` - conditioned marginals given ``--observe`` evidence
  (likelihood weighting, rejection, guided, auto or exact
  conditioning; without ``--method`` the evidence picks it) - the same
  document a :class:`~repro.serving.ProgramServer` ``posterior`` reply
  carries;
* ``analyze``   - static report: translation summary, weak acyclicity,
  cycle classification (Theorem 6.3 / §6.3); ``--deep`` adds the lint
  diagnostics and capability predictions of :mod:`repro.analysis`;
* ``lint``      - static diagnostics (:mod:`repro.analysis`): unused
  variables, unreachable rules, invalid distribution parameters,
  weak-acyclicity witness cycles, plus the engine-capability
  predictions; exit code 1 when a diagnostic reaches ``--fail-on``;
* ``translate`` - print the associated existential Datalog program Ĝ;
* ``fuzz``      - differential fuzzing: generate random workloads and
  check every engine pair against each other
  (:mod:`repro.testing`); exit code 1 when a discrepancy
  is found (shrunk reproducers go to ``--corpus``);
* ``serve``     - long-lived program server (:mod:`repro.serving`):
  JSON-lines requests over stdin/stdout or a TCP socket,
  compiled programs cached across requests.

Every subcommand accepts ``--json`` for machine-readable output (one
JSON document on stdout).  Input instances come from
``--data Relation=path.csv`` (repeatable) or ``--data path.json``;
programs from a ``.gdl`` file in the surface syntax.  Exit code 0 on
success, 2 on usage errors.

The CLI is a thin shell over the :mod:`repro.api` facade: each
invocation compiles the program once and drives every query through
the resulting session.

Example::

    repro exact examples/data/g0.gdl
    repro sample program.gdl --data City=city.csv -n 5000 --seed 7
    repro analyze program.gdl --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.api import CompiledProgram, compile as compile_program
from repro.api.config import BACKENDS
from repro.errors import ReproError
from repro.io import load_instance_args, load_program
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.pdb.stats import fact_marginals
from repro.serving.protocol import (analyze_payload, encode_line,
                                    fact_payload, sample_payload)


def build_arg_parser() -> argparse.ArgumentParser:
    """The argparse tree of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generative Datalog with continuous distributions "
                    "(PODS 2020 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("program", help="program file (.gdl)")
        sub.add_argument("--data", action="append", default=[],
                         metavar="REL=FILE.csv|FILE.json",
                         help="input facts (repeatable)")
        sub.add_argument("--semantics", choices=("grohe", "barany"),
                         default="grohe",
                         help="this paper's semantics (default) or "
                              "Barany et al.'s")
        sub.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")

    exact = subparsers.add_parser(
        "exact", help="exact output SPDB (discrete programs)")
    add_common(exact)
    exact.add_argument("--parallel", action="store_true",
                       help="enumerate the parallel chase tree")
    exact.add_argument("--max-depth", type=int, default=200)
    exact.add_argument("--top", type=int, default=20,
                       help="print at most this many worlds")

    sample = subparsers.add_parser(
        "sample", help="Monte-Carlo semantics: fact marginals")
    add_common(sample)
    sample.add_argument("-n", type=int, default=1000,
                        help="number of chase runs")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--max-steps", type=int, default=10_000)
    sample.add_argument("--parallel", action="store_true",
                        help="run the parallel chase in the scalar "
                             "loop (--backend scalar); the batched "
                             "law is the same (Theorem 5.6)")
    sample.add_argument("--backend", choices=BACKENDS,
                        default="batched",
                        help="sampling backend: the vectorized batch "
                             "engine (default; the scalar loop for "
                             "programs it cannot take) or the per-run "
                             "scalar loop")

    query = subparsers.add_parser(
        "query", help="answer a relational-algebra plan")
    add_common(query)
    query.add_argument("--plan", required=True,
                       metavar="JSON|@FILE.json",
                       help="the plan document (see "
                            "repro.serving.protocol.parse_plan), "
                            "inline or @file")
    query.add_argument("-n", type=int, default=1000,
                       help="number of chase runs (sampling programs)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--max-steps", type=int, default=10_000)
    query.add_argument("--backend", choices=BACKENDS, default="batched",
                       help="sampling backend (the batch engine "
                            "answers plans columnar, without "
                            "materializing worlds)")
    query.add_argument("--observe", action="append", default=[],
                       metavar="REL,carried...,value|JSON",
                       help="evidence (repeatable; answers the plan "
                            "under the posterior)")

    posterior = subparsers.add_parser(
        "posterior", help="conditioned marginals given evidence")
    add_common(posterior)
    posterior.add_argument("--observe", action="append", default=[],
                           metavar="REL,carried...,value|JSON",
                           help="evidence (repeatable): a sample-level "
                                "observation as comma-separated "
                                "relation, carried args and observed "
                                "value, or a JSON evidence payload "
                                "({'relation': ...} or {'fact': ...})")
    posterior.add_argument("--method",
                           choices=("likelihood", "rejection", "exact",
                                    "guided", "auto"),
                           help="default: picked from the evidence - "
                                "likelihood for observations only, "
                                "rejection for facts only, auto for "
                                "a mix")
    posterior.add_argument("-n", type=int, default=1000,
                           help="number of chase runs (sampling "
                                "methods)")
    posterior.add_argument("--seed", type=int, default=0)
    posterior.add_argument("--max-steps", type=int, default=10_000)

    analyze = subparsers.add_parser(
        "analyze", help="static termination / structure report")
    add_common(analyze)
    analyze.add_argument("--deep", action="store_true",
                         help="include lint diagnostics and engine "
                              "capability predictions "
                              "(repro.analysis)")

    lint = subparsers.add_parser(
        "lint", help="static diagnostics and capability predictions")
    add_common(lint)
    lint.add_argument("--fail-on", choices=("error", "warning", "info"),
                      default="error", dest="fail_on",
                      help="lowest severity that fails the run "
                           "(default: error)")

    translate = subparsers.add_parser(
        "translate", help="print the existential Datalog program")
    add_common(translate)

    fuzz = subparsers.add_parser(
        "fuzz", help="differential fuzzing across engine pairs")
    fuzz.add_argument("--budget", type=int, default=100,
                      help="number of generated workloads")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed (cases derive from seed+index)")
    fuzz.add_argument("--oracles", default=None,
                      metavar="NAME[,NAME...]",
                      help="comma-separated oracle subset (default: "
                           "the full battery)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="persist shrunk reproducers here "
                           "(e.g. tests/fuzz_corpus)")
    fuzz.add_argument("--coverage", action="store_true",
                      help="coverage-guided generation: bias workloads "
                           "toward translated-program feature buckets "
                           "not yet seen in this run")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="record raw failing cases without "
                           "minimization")
    fuzz.add_argument("--progress", type=int, default=50,
                      metavar="EVERY",
                      help="emit a progress line to *stderr* every "
                           "EVERY cases (0 disables); progress never "
                           "touches stdout, so --json | tee stays one "
                           "valid JSON document")
    fuzz.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")

    serve = subparsers.add_parser(
        "serve", help="long-lived program server (JSON-lines)")
    serve.add_argument("--port", type=int, default=None,
                       help="serve a TCP socket on this port (0 picks "
                            "a free one; default: stdin/stdout)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port mode")
    serve.add_argument("--max-programs", type=int, default=32,
                       help="compiled-program LRU capacity")
    serve.add_argument("--max-sessions", type=int, default=32,
                       help="warm-session LRU capacity")

    return parser


def _load(args) -> tuple[CompiledProgram, Instance]:
    program = load_program(args.program)
    instance = load_instance_args(args.data) if args.data \
        else Instance.empty()
    return compile_program(program, semantics=args.semantics), instance


def _emit_json(payload: dict, out) -> None:
    """One ``--json`` document, encoded as the server encodes replies."""
    print(encode_line(payload), file=out)


#: Shared with the server protocol - one fact encoding everywhere.
_fact_json = fact_payload


def _print_worlds(pdb, top: int, out) -> None:
    worlds = sorted(pdb.worlds(), key=lambda wp: -wp[1])
    for world, probability in worlds[:top]:
        print(f"{probability:12.8f}  {world.canonical_text()}",
              file=out)
    if len(worlds) > top:
        print(f"... {len(worlds) - top} more worlds", file=out)
    print(f"{pdb.err_mass():12.8f}  err", file=out)


def cmd_exact(args, out) -> int:
    """``repro exact``: print the exact output SPDB."""
    compiled, instance = _load(args)
    session = compiled.on(instance, parallel=args.parallel,
                          max_depth=args.max_depth)
    result = session.exact()
    pdb = result.pdb
    if args.json:
        worlds = sorted(pdb.worlds(), key=lambda wp: -wp[1])
        _emit_json({
            "command": "exact",
            "n_worlds": pdb.support_size(),
            "total_mass": pdb.total_mass(),
            "err_mass": pdb.err_mass(),
            "elapsed_seconds": result.elapsed,
            "worlds": [
                {"probability": probability,
                 "facts": [_fact_json(f) for f in
                           sorted(world.facts,
                                  key=lambda f: f.sort_key())]}
                for world, probability in worlds[:args.top]],
        }, out)
        return 0
    print(f"# {pdb.support_size()} worlds, mass "
          f"{pdb.total_mass():.8f}", file=out)
    _print_worlds(pdb, args.top, out)
    return 0


def cmd_sample(args, out) -> int:
    """``repro sample``: print Monte-Carlo fact marginals."""
    compiled, instance = _load(args)
    # Built like a ProgramServer session, so the default flags and
    # --seed S give the reply to {"op": "sample", "config":
    # {"seed": S}} draw for draw.
    session = compiled.on(instance, parallel=args.parallel,
                          max_steps=args.max_steps, seed=args.seed,
                          backend=args.backend)
    result = session.sample(args.n)
    pdb = result.pdb
    if args.json:
        _emit_json(sample_payload(result), out)
        return 0
    # Counted as sample_payload counts n_terminated: a columnar batch
    # is never expanded into its worlds.
    print(f"# {pdb.n_runs - pdb.truncated} terminated runs, "
          f"{pdb.truncated} truncated (err "
          f"{pdb.err_mass():.4f})", file=out)
    for fact, probability in fact_marginals(pdb).items():
        print(f"{probability:10.6f}  {fact!r}", file=out)
    return 0


def _parse_observe_arg(text: str):
    """One ``--observe`` item -> an evidence wire payload (dict).

    Accepts either a raw JSON payload (anything starting with ``{``)
    or the compact ``REL,carried...,value`` form where each token is
    parsed as JSON when possible (so ``0.5`` is a float) and kept as a
    string otherwise.
    """
    from repro.errors import ValidationError
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"bad --observe JSON {text!r}: {error}") from None
        return payload
    tokens = [token.strip() for token in stripped.split(",")]
    if len(tokens) < 2 or not tokens[0]:
        raise ValidationError(
            f"--observe needs at least 'REL,value', got {text!r}")

    def coerce(token: str):
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            return token

    return {"relation": tokens[0],
            "carried": [coerce(token) for token in tokens[1:-1]],
            "value": coerce(tokens[-1])}


def _parse_plan_arg(text: str):
    """``--plan`` -> a Query (inline JSON document or ``@file.json``)."""
    from repro.errors import ValidationError
    from repro.serving.protocol import parse_plan
    stripped = text.strip()
    if stripped.startswith("@"):
        with open(stripped[1:], "r", encoding="utf-8") as handle:
            stripped = handle.read()
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"bad --plan JSON {text!r}: {error}") from None
    return parse_plan(payload)


def cmd_query(args, out) -> int:
    """``repro query``: answer a relational plan over the output PDB.

    Follows the facade's :meth:`~repro.api.Session.query` convention
    (exact for discrete programs, sampling otherwise, posterior with
    ``--observe``); ``--json`` emits the same document a
    :class:`~repro.serving.ProgramServer` ``query`` reply carries.
    """
    from repro.serving.protocol import parse_evidence, query_payload
    compiled, instance = _load(args)
    plan = _parse_plan_arg(args.plan)
    session = compiled.on(instance, seed=args.seed,
                          max_steps=args.max_steps,
                          backend=args.backend)
    evidence = [parse_evidence(_parse_observe_arg(item))
                for item in args.observe]
    if evidence:
        session = session.observe(*evidence)
    query_result = session.query(plan, n=args.n)
    payload = query_payload(query_result)
    if args.json:
        _emit_json(payload, out)
        return 0
    runs = f"{payload['n_runs']} runs" if payload["n_runs"] is not None \
        else "exact"
    print(f"# {payload['kind']} ({runs}), "
          f"strategy {payload['strategy']}", file=out)
    for entry in payload["answers"]:
        rows = "; ".join(
            "(" + ", ".join(repr(value) for value in row) + ")"
            for row in entry["rows"]) or "(empty)"
        print(f"{entry['probability']:10.6f}  "
              f"[{', '.join(entry['columns'])}] {rows}", file=out)
    print(f"# P(non-empty) = {payload['boolean_probability']:.6f}",
          file=out)
    if "expected_aggregate" in payload:
        print(f"# E[aggregate]  = {payload['expected_aggregate']:.6f}",
              file=out)
    return 0


def cmd_posterior(args, out) -> int:
    """``repro posterior``: conditioned marginals given evidence.

    Shares the evidence wire codec and the response document with the
    server's ``posterior`` op, so ``repro posterior --json`` output is
    the same payload a :class:`~repro.serving.ProgramServer` reply
    carries.
    """
    from repro.serving.protocol import parse_evidence, posterior_payload
    compiled, instance = _load(args)
    session = compiled.on(instance, seed=args.seed,
                          max_steps=args.max_steps)
    evidence = [parse_evidence(_parse_observe_arg(item))
                for item in args.observe]
    if evidence:
        session = session.observe(*evidence)
    result = session.posterior(method=args.method, n=args.n)
    payload = posterior_payload(result)
    if args.json:
        _emit_json(payload, out)
        return 0
    ess = payload["effective_sample_size"]
    print(f"# method {payload['method']}, {payload['n_runs']} runs, "
          f"{payload['n_truncated']} truncated"
          + (f", ess {ess:.1f}" if ess is not None else ""), file=out)
    for entry in payload["marginals"]:
        fact = Fact(entry["fact"]["relation"],
                    tuple(entry["fact"]["args"]))
        print(f"{entry['probability']:10.6f}  {fact!r}", file=out)
    return 0


def cmd_analyze(args, out) -> int:
    """``repro analyze``: print the static structure report."""
    compiled, _instance = _load(args)
    program = compiled.program
    report = compiled.analyze()
    if args.json:
        # The same document a ProgramServer "analyze" reply carries.
        _emit_json(analyze_payload(compiled, deep=args.deep), out)
        return 0
    print(f"rules:            {len(program)}", file=out)
    print(f"random rules:     {len(program.random_rules())}", file=out)
    print(f"distributions:    "
          f"{', '.join(program.distributions_used()) or '-'}", file=out)
    print(f"extensional:      "
          f"{', '.join(sorted(program.extensional)) or '-'}", file=out)
    print(f"discrete program: {program.is_discrete()}", file=out)
    print(f"weakly acyclic:   {report.weakly_acyclic}", file=out)
    if not report.weakly_acyclic:
        kind = "continuous" if report.continuous_cycle else "discrete"
        print(f"cycle kind:       {kind} "
              f"({', '.join(report.cyclic_distributions)})", file=out)
        if report.almost_surely_diverges():
            print("verdict:          almost surely non-terminating "
                  "(Section 6.3)", file=out)
        else:
            print("verdict:          may terminate; estimate with "
                  "estimate_termination_probability()", file=out)
    else:
        print("verdict:          terminating on every input "
              "(Theorem 6.3)", file=out)
    if args.deep:
        deep = compiled.analyze(deep=True)
        print(deep.lint.summary(), file=out)
        for diagnostic in deep.lint.diagnostics:
            print(f"  {diagnostic}", file=out)
        print(deep.capabilities.summary(), file=out)
    return 0


def cmd_lint(args, out) -> int:
    """``repro lint``: static diagnostics + capability predictions.

    Exit code 0 when no diagnostic reaches the ``--fail-on`` severity
    (default: ``error``), 1 otherwise, 2 on usage errors.  ``--json``
    emits one document with the documented keys ``command``, ``ok``,
    ``fail_on``, ``semantics``, ``n_rules``, ``counts``,
    ``diagnostics`` and ``capabilities``.
    """
    from repro.analysis import deep_analyze
    compiled, instance = _load(args)
    # Instance-dependent checks (rule reachability over the closed
    # input) only make sense when input data was actually supplied.
    report = deep_analyze(compiled.translated,
                          instance=instance if args.data else None,
                          termination=compiled.analyze())
    lint = report.lint
    ok = lint.ok(args.fail_on)
    if args.json:
        _emit_json({
            "command": "lint",
            "ok": ok,
            "fail_on": args.fail_on,
            "semantics": args.semantics,
            "n_rules": len(compiled.program),
            "counts": lint.counts(),
            "diagnostics": [d.to_json() for d in lint.diagnostics],
            "capabilities": report.capabilities.to_json(),
        }, out)
        return 0 if ok else 1
    print(f"# {lint.summary()} (fail on {args.fail_on})", file=out)
    for diagnostic in lint.diagnostics:
        print(str(diagnostic), file=out)
    print(f"# {report.capabilities.summary()}", file=out)
    return 0 if ok else 1


def cmd_translate(args, out) -> int:
    """``repro translate``: print the existential program."""
    compiled, _instance = _load(args)
    translated = compiled.translated
    if args.json:
        _emit_json({
            "command": "translate",
            "semantics": translated.semantics,
            "n_rules": len(translated),
            "aux_relations": sorted(translated.aux_relations),
            "rules": [repr(rule) for rule in translated.rules],
        }, out)
        return 0
    print(repr(translated), file=out)
    return 0


def cmd_fuzz(args, out) -> int:
    """``repro fuzz``: run a budgeted differential-fuzz pass.

    Exit code 0 when every oracle agrees on every generated workload,
    1 when a discrepancy was found (its shrunk reproducer is persisted
    to ``--corpus`` if given), 2 on usage errors.
    """
    from repro.testing import oracles_by_name, run_fuzz
    if args.budget <= 0:
        print(f"error: --budget must be positive, got {args.budget}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be non-negative, got {args.seed}",
              file=sys.stderr)
        return 2
    battery = None
    if args.oracles is not None:
        by_name = oracles_by_name()
        names = [name.strip() for name in args.oracles.split(",")
                 if name.strip()]
        unknown = sorted(set(names) - set(by_name))
        if not names or unknown:
            what = f"unknown oracle(s) {', '.join(unknown)}" \
                if unknown else "--oracles selected no oracle"
            print(f"error: {what}; "
                  f"known: {', '.join(sorted(by_name))}",
                  file=sys.stderr)
            return 2
        battery = [by_name[name] for name in names]
    # Progress goes to stderr *only*: CI pipes stdout through `tee`
    # into fuzz-report.json and expects exactly one JSON document
    # there (mixing progress into stdout under --json corrupted the
    # artifact).
    on_case = None
    if args.progress > 0:
        def on_case(index, case):
            if index % args.progress == 0:
                print(f"fuzz: case {index}/{args.budget} "
                      f"({case.describe()})",
                      file=sys.stderr, flush=True)
    report = run_fuzz(budget=args.budget, seed=args.seed,
                      oracles=battery, corpus_dir=args.corpus,
                      shrink=not args.no_shrink, on_case=on_case,
                      coverage_guided=args.coverage)
    if args.json:
        _emit_json(report.to_json(), out)
        return 0 if report.ok() else 1
    print(f"# {report.summary()}", file=out)
    print(f"{'oracle':<16} {'checked':>8} {'ok':>6} {'skip':>6} "
          f"{'fail':>6}", file=out)
    for name, stats in sorted(report.stats.items()):
        print(f"{name:<16} {stats.checked:>8} {stats.ok:>6} "
              f"{stats.skipped:>6} {stats.failed:>6}", file=out)
    for discrepancy in report.discrepancies:
        print(f"\nDISCREPANCY [{discrepancy.oracle}] "
              f"{discrepancy.case.describe()}", file=out)
        print(f"  {discrepancy.detail}", file=out)
        print("  reproducer (not shrunk):" if args.no_shrink
              else "  shrunk reproducer:", file=out)
        for line in discrepancy.shrunk.program.pretty().splitlines():
            print(f"    {line}", file=out)
        if discrepancy.corpus_path is not None:
            print(f"  saved to {discrepancy.corpus_path}", file=out)
    if report.discrepancies and args.corpus is None:
        print("\nhint: pass --corpus tests/fuzz_corpus to persist "
              "reproducers for pytest replay", file=out)
    return 0 if report.ok() else 1


def cmd_serve(args, out) -> int:
    """``repro serve``: run the long-lived program server.

    Without ``--port``, speaks JSON-lines on stdin/stdout until EOF.
    With ``--port`` (0 = pick a free port), binds a threading TCP
    server, announces the bound address as one JSON line on stdout -
    ``{"serving": {"host": ..., "port": ...}}`` - and serves until
    interrupted.
    """
    from repro.serving import ProgramServer, serve_socket, serve_stdio
    server = ProgramServer(max_programs=args.max_programs,
                           max_sessions=args.max_sessions)
    if args.port is None:
        served = serve_stdio(server, sys.stdin, out)
        print(f"# served {served} requests", file=sys.stderr)
        return 0
    tcp = serve_socket(server, args.host, args.port)
    host, port = tcp.server_address[:2]
    _emit_json({"serving": {"host": host, "port": port}}, out)
    if hasattr(out, "flush"):
        out.flush()
    try:
        tcp.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        tcp.server_close()
    return 0


_COMMANDS = {
    "exact": cmd_exact,
    "sample": cmd_sample,
    "query": cmd_query,
    "posterior": cmd_posterior,
    "analyze": cmd_analyze,
    "lint": cmd_lint,
    "translate": cmd_translate,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
