"""The JSON contracts shared by the CLI's ``--json`` mode and the server.

One evidence codec and one payload builder per query kind, so
``repro sample --json`` output and a ``ProgramServer`` ``sample``
reply are the *same* document (the CLI delegates here).  Wire framing
is JSON-lines: one request object per line in, one response object per
line out, ``sort_keys`` and a numpy-scalar-tolerant encoder so
payloads are stable and diffable.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.observe import Observation, as_evidence
from repro.errors import ValidationError
from repro.io import _not_scalar, fact_payload, parse_fact
# The instance codec lives with the instance files; the server and
# servebench read it as protocol attributes.
from repro.io import instance_payload, parse_instance  # noqa: F401
from repro.pdb.events import ContainsFactEvent
# Unused here: servebench's tracer wraps this module attribute by name.
from repro.pdb.stats import fact_marginals  # noqa: F401
from repro.pdb.stats import marginal_table


# ---------------------------------------------------------------------------
# Value and evidence codecs (facts and instances: repro.io)
# ---------------------------------------------------------------------------


def json_default(value: Any):
    """JSON fallback for numpy scalars and other odd fact values."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def evidence_payload(evidence) -> dict:
    """The wire form of one evidence item (observation or fact event).

    Checked by :func:`~repro.core.observe.as_evidence`, as
    ``Session.observe`` checks it, so a bare
    :class:`~repro.pdb.facts.Fact` is shorthand for its
    :class:`~repro.pdb.events.ContainsFactEvent`; both encode as
    ``{"fact": ...}``.  Other events and predicates have no wire
    form.
    """
    evidence = as_evidence(evidence)
    if isinstance(evidence, Observation):
        return {"relation": evidence.relation,
                "carried": list(evidence.carried),
                "value": evidence.value}
    if isinstance(evidence, ContainsFactEvent):
        return {"fact": fact_payload(evidence.f)}
    raise ValidationError(
        f"cannot encode evidence {evidence!r}; expected an "
        "Observation, a ContainsFactEvent or a Fact")


def parse_evidence(payload) -> Observation | ContainsFactEvent:
    """Evidence from ``{"relation", "carried", "value"}`` or ``{"fact"}``.

    The one evidence decoder of the ``posterior``, ``query`` and
    ``stream_observe`` ops and their CLI commands.  Sample-level
    observations condition by likelihood weighting; a fact payload is
    the event that the fact *holds* in the world
    (:class:`~repro.pdb.events.ContainsFactEvent`).
    """
    if isinstance(payload, dict):
        if "fact" in payload:
            return ContainsFactEvent(parse_fact(payload["fact"]))
        if "relation" in payload:
            carried = payload.get("carried", [])
            if not isinstance(payload["relation"], str) \
                    or not isinstance(carried, (list, tuple)) \
                    or "value" not in payload:
                raise ValidationError(
                    "observation payload needs 'relation', 'carried' "
                    f"and 'value': {payload!r}")
            try:
                # The observation index hashes both.
                hash((tuple(carried), payload["value"]))
            except TypeError:
                raise _not_scalar("observation 'carried' and 'value'",
                                  payload) from None
            return Observation(payload["relation"], tuple(carried),
                               payload["value"])
    raise ValidationError(
        f"cannot parse evidence payload {payload!r}; expected "
        "{'relation': .., 'carried': [..], 'value': ..} or "
        "{'fact': ..}")


# ---------------------------------------------------------------------------
# Relational plan codec (the ``query`` op / ``repro query`` wire form)
# ---------------------------------------------------------------------------


_AGG_NEEDS_COLUMN = ("sum", "avg", "min", "max", "var")


def plan_payload(query) -> dict:
    """The wire form of a relational plan (structural nodes only).

    Opaque Python callables - ``select(lambda ...)`` predicates,
    :class:`~repro.query.relalg.Extend` computations - have no wire
    form and raise :class:`ValidationError`; express selections with
    ``where(column=value)`` to serve them.
    """
    from repro.query import aggregates as agg
    from repro.query import relalg as ra
    if isinstance(query, ra.Scan):
        return {"op": "scan", "relation": query.relation,
                "columns": list(query.columns)
                if query.columns is not None else None}
    if isinstance(query, ra.Select):
        if query.equalities is None:
            raise ValidationError(
                "opaque select(callable) predicates cannot be served; "
                "use where(column=value)")
        return {"op": "where", "source": plan_payload(query.source),
                "equalities": dict(query.equalities)}
    if isinstance(query, ra.Project):
        return {"op": "project", "source": plan_payload(query.source),
                "columns": list(query.columns)}
    if isinstance(query, ra.Rename):
        return {"op": "rename", "source": plan_payload(query.source),
                "mapping": dict(query.mapping)}
    if isinstance(query, agg.Aggregate):
        return {"op": "aggregate",
                "source": plan_payload(query.source),
                "group_by": list(query.group_by),
                "aggregates": {
                    out_name: {"fn": func.name, "column": func.column}
                    for out_name, func in query.aggregates.items()}}
    binary = {ra.NaturalJoin: "join", ra.Product: "product",
              ra.Union: "union", ra.Difference: "difference",
              ra.Intersection: "intersection"}
    for node_type, op in binary.items():
        if isinstance(query, node_type):
            return {"op": op, "left": plan_payload(query.left),
                    "right": plan_payload(query.right)}
    raise ValidationError(
        f"cannot encode plan node {type(query).__name__}")


def parse_plan(payload):
    """A :class:`~repro.query.relalg.Query` from its wire form."""
    from repro.query import aggregates as agg
    from repro.query import relalg as ra
    if not isinstance(payload, dict) or "op" not in payload:
        raise ValidationError(
            f"plan payload needs an 'op' field: {payload!r}")
    op = payload["op"]

    def child(key: str):
        if key not in payload:
            raise ValidationError(f"plan op {op!r} needs {key!r}")
        return parse_plan(payload[key])

    if op == "scan":
        relation = payload.get("relation")
        if not isinstance(relation, str):
            raise ValidationError(
                f"scan needs a string 'relation': {payload!r}")
        columns = payload.get("columns")
        if columns is not None and (
                not isinstance(columns, (list, tuple))
                or not all(isinstance(c, str) for c in columns)):
            raise ValidationError(
                f"scan 'columns' must be a list of names: {payload!r}")
        return ra.Scan(relation, columns)
    if op == "where":
        equalities = payload.get("equalities")
        if not isinstance(equalities, dict) or not all(
                isinstance(name, str) for name in equalities):
            raise ValidationError(
                f"where needs an 'equalities' object: {payload!r}")
        return ra.Select(child("source"), None, equalities=equalities)
    if op == "project":
        columns = payload.get("columns")
        if not isinstance(columns, (list, tuple)) or not all(
                isinstance(c, str) for c in columns):
            raise ValidationError(
                f"project needs a 'columns' list: {payload!r}")
        return ra.Project(child("source"), columns)
    if op == "rename":
        mapping = payload.get("mapping")
        if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in mapping.items()):
            raise ValidationError(
                f"rename needs a name->name 'mapping': {payload!r}")
        return ra.Rename(child("source"), mapping)
    if op == "aggregate":
        group_by = payload.get("group_by", [])
        specs = payload.get("aggregates")
        if not isinstance(group_by, (list, tuple)) or not all(
                isinstance(c, str) for c in group_by):
            raise ValidationError(
                f"aggregate 'group_by' must be a list: {payload!r}")
        if not isinstance(specs, dict) or not specs:
            raise ValidationError(
                "aggregate needs a non-empty 'aggregates' object: "
                f"{payload!r}")
        makers = {"count": agg.agg_count, "sum": agg.agg_sum,
                  "avg": agg.agg_avg, "min": agg.agg_min,
                  "max": agg.agg_max, "var": agg.agg_var}
        functions = {}
        for out_name, spec in specs.items():
            if not isinstance(spec, dict) \
                    or spec.get("fn") not in makers:
                raise ValidationError(
                    f"bad aggregate spec for {out_name!r}: {spec!r}; "
                    f"'fn' must be one of {sorted(makers)}")
            column = spec.get("column")
            if spec["fn"] in _AGG_NEEDS_COLUMN \
                    and not isinstance(column, str):
                raise ValidationError(
                    f"aggregate fn {spec['fn']!r} needs a 'column'")
            functions[out_name] = makers[spec["fn"]](column)
        return agg.Aggregate(child("source"), group_by, functions)
    binary = {"join": ra.NaturalJoin, "product": ra.Product,
              "union": ra.Union, "difference": ra.Difference,
              "intersection": ra.Intersection}
    if op in binary:
        return binary[op](child("left"), child("right"))
    raise ValidationError(f"unknown plan op {op!r}")


# ---------------------------------------------------------------------------
# Result payloads (the CLI --json contracts)
# ---------------------------------------------------------------------------


def marginals_payload(pdb) -> list[dict]:
    """The ``marginals`` list of a reply: every fact, canonical order.

    Read off :func:`~repro.pdb.stats.marginal_table`, which is in
    order already, so no :class:`Fact` is built per listed fact; each
    entry is shaped as :func:`fact_payload` shapes a fact.
    """
    return [{"fact": {"relation": relation, "args": list(args)},
             "probability": probability}
            for relation, args, probability in marginal_table(pdb)]


def sample_payload(result) -> dict:
    """The ``repro sample --json`` document for an InferenceResult.

    ``n_terminated`` is derived as ``n_runs - n_truncated`` rather
    than by counting materialized worlds, so columnar (batched)
    results stay columnar - the value is identical, each
    terminated run contributes exactly one world.
    """
    pdb = result.pdb
    return {
        "command": "sample",
        "n_runs": pdb.n_runs,
        "n_terminated": pdb.n_runs - pdb.truncated,
        "n_truncated": pdb.truncated,
        "err_mass": pdb.err_mass(),
        "elapsed_seconds": result.elapsed,
        "backend": result.backend,
        "marginals": marginals_payload(pdb),
    }


def posterior_payload(result) -> dict:
    """The posterior document (``posterior`` / ``stream_posterior``).

    ``method`` echoes the result kind (``likelihood``, ``rejection``,
    ``guided``, ``exact``, or ``stream``) and ``diagnostics["backend"]``
    the path that ran; ``effective_sample_size`` is null for methods
    without importance weights.
    """
    return {
        "command": "posterior",
        "method": result.kind,
        "n_runs": result.n_runs,
        "n_truncated": result.n_truncated,
        "elapsed_seconds": result.elapsed,
        "effective_sample_size": result.effective_sample_size,
        "diagnostics": dict(result.diagnostics),
        "marginals": marginals_payload(result.pdb),
    }


def query_payload(query_result) -> dict:
    """The ``repro query --json`` / server ``query`` op document.

    ``answers`` lists every distinct answer relation with its
    probability (canonical row order, deterministic across runs);
    ``expected_aggregate`` is present only when the plan's root is a
    group-free aggregate with a single numeric value.
    """
    from repro.errors import SchemaError
    from repro.query.aggregates import Aggregate
    result = query_result.result
    distribution = query_result.distribution()
    answers = []
    for point in distribution.sorted_points():
        columns, rows = point
        answers.append({"columns": list(columns),
                        "rows": [list(row) for row in rows],
                        "probability": distribution.mass(point)})
    payload = {
        "command": "query",
        "plan": plan_payload(query_result.query),
        "strategy": query_result.strategy(),
        "kind": result.kind if result is not None else None,
        "n_runs": result.n_runs if result is not None else None,
        "n_truncated": result.n_truncated
        if result is not None else None,
        "elapsed_seconds": result.elapsed
        if result is not None else None,
        "backend": result.backend if result is not None else None,
        "boolean_probability": query_result.boolean_probability(),
        "answers": answers,
    }
    if isinstance(query_result.query, Aggregate) \
            and not query_result.query.group_by:
        try:
            payload["expected_aggregate"] = \
                query_result.expected_aggregate()
        except (SchemaError, TypeError, ValueError):
            pass  # multi-column or non-numeric aggregate: omit
    return payload


def analyze_payload(compiled, deep: bool = False) -> dict:
    """The ``repro analyze --json`` document for a compiled program.

    ``deep=True`` extends the termination summary with the static
    analyzer's layers (:mod:`repro.analysis`): the lint diagnostics
    and the per-capability eligibility predictions of
    ``compiled.analyze(deep=True)``, which the compiled program
    memoizes.  Its batched reasons are the ones the batch gate
    reports at runtime as ``fallback_reason``.
    """
    program = compiled.program
    report = compiled.analyze()
    verdict = "terminating"
    if not report.weakly_acyclic:
        verdict = "almost-surely-non-terminating" \
            if report.almost_surely_diverges() else "may-terminate"
    payload = {
        "command": "analyze",
        "n_rules": len(program),
        "n_random_rules": len(program.random_rules()),
        "distributions": list(program.distributions_used()),
        "extensional": sorted(program.extensional),
        "discrete": program.is_discrete(),
        "weakly_acyclic": report.weakly_acyclic,
        "continuous_cycle": report.continuous_cycle,
        "cyclic_distributions": list(report.cyclic_distributions),
        "verdict": verdict,
    }
    if deep:
        deep_report = compiled.analyze(deep=True)
        payload["deep"] = True
        payload["lint"] = deep_report.lint.to_json()
        payload["capabilities"] = \
            deep_report.capabilities.to_json()
    return payload


def mass_report_payload(reports) -> dict:
    """Figure-1 mass accounting across budgets, as one document."""
    return {
        "command": "mass_report",
        "reports": [
            {"budget": report.budget,
             "instance_mass": report.instance_mass,
             "err_mass": report.err_mass}
            for report in reports],
    }


# ---------------------------------------------------------------------------
# JSON-lines framing
# ---------------------------------------------------------------------------


def encode_line(payload: dict) -> str:
    """One stable JSON line (no trailing newline).

    Replies are trees built by this module and requests are plain
    JSON-shaped dicts, so the encoder skips its reference-cycle check
    (a cyclic payload raises ``RecursionError``, not ``ValueError``).
    """
    return json.dumps(payload, default=json_default, sort_keys=True,
                      check_circular=False)


def decode_line(line: str) -> dict:
    """Parse one request/response line into an object."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValidationError(f"bad JSON line: {error}") from None
    if not isinstance(payload, dict):
        raise ValidationError(
            f"request must be a JSON object, got {payload!r}")
    return payload
