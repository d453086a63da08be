"""Loading and saving programs and instances.

File formats:

* **Program files** (``.gdl``): the textual GDatalog syntax of
  :mod:`repro.core.parser`.
* **Instance CSV**: one file per relation; each row is one fact.  A
  value parses as int, then float, then stays a string; the literals
  ``true``/``false`` become 1/0.  No header by default (facts are
  positional, like Datalog).
* **Instance JSON**: ``{"Relation": [[v, ...], ...], ...}`` - the same
  shape :meth:`repro.pdb.instances.Instance.from_dict` accepts.  One
  validated codec (:func:`parse_instance`, :func:`instance_payload`)
  reads and writes it for instance files and for the server's wire
  requests (:mod:`repro.serving.protocol`), so a malformed file and a
  malformed request get the same :class:`~repro.errors.ValidationError`.

These helpers power the command-line interface (:mod:`repro.cli`) and
are handy for the examples.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.core.program import Program
from repro.distributions.registry import DistributionRegistry
from repro.errors import SchemaError, ValidationError
from repro.ordering import tuple_sort_key
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


def parse_value(text: str) -> Any:
    """Parse one CSV cell into a fact value.

    >>> parse_value("3"), parse_value("0.5"), parse_value("Napa")
    (3, 0.5, 'Napa')
    """
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered == "true":
        return 1
    if lowered == "false":
        return 0
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped


def render_value(value: Any) -> str:
    """Render a fact value as a CSV cell (inverse of parse_value)."""
    return str(value)


def load_program(path: str | Path,
                 registry: DistributionRegistry | None = None) -> Program:
    """Parse a ``.gdl`` program file."""
    text = Path(path).read_text(encoding="utf-8")
    return Program.parse(text, registry=registry)


def save_program(program: Program, path: str | Path) -> None:
    """Write a program in parseable surface syntax."""
    from repro.core.source import program_to_source
    Path(path).write_text(program_to_source(program) + "\n",
                          encoding="utf-8")


def load_relation_csv(path: str | Path, relation: str,
                      skip_header: bool = False) -> list[Fact]:
    """Read one relation's facts from a CSV file."""
    facts: list[Fact] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for index, row in enumerate(reader):
            if index == 0 and skip_header:
                continue
            if not row:
                continue
            facts.append(Fact(relation,
                              tuple(parse_value(cell) for cell in row)))
    return facts


def load_instance_csv(paths: Mapping[str, str | Path],
                      skip_header: bool = False) -> Instance:
    """Build an instance from ``{relation: csv_path}``.

    >>> # load_instance_csv({"City": "city.csv", "House": "house.csv"})
    """
    facts: list[Fact] = []
    for relation, path in paths.items():
        facts.extend(load_relation_csv(path, relation, skip_header))
    return Instance(facts)


def save_instance_csv(instance: Instance, directory: str | Path) -> \
        dict[str, Path]:
    """Write one CSV per relation into ``directory``.

    Returns ``{relation: written path}``.  Rows are canonically sorted
    so output is deterministic.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for relation in instance.relations():
        path = directory / f"{relation}.csv"
        rows = sorted(instance.tuples_of(relation), key=tuple_sort_key)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            for row in rows:
                writer.writerow([render_value(v) for v in row])
        written[relation] = path
    return written


# ---------------------------------------------------------------------------
# Fact / instance JSON codec (instance files and wire requests)
# ---------------------------------------------------------------------------

def fact_payload(fact: Fact) -> dict:
    return {"relation": fact.relation, "args": list(fact.args)}


def _not_scalar(field: str, got) -> ValidationError:
    return ValidationError(
        f"{field} must hold scalar values (string, number, bool or "
        f"null), got {got!r}")


def _wire_fact(relation: str, args, field: str) -> Fact:
    """A fact from wire values; ``field`` names them in the error.

    A list or object among the values is unhashable, so building the
    fact raises ``TypeError``; catching it costs nothing on valid
    requests.
    """
    try:
        return Fact(relation, tuple(args))
    except TypeError:
        raise _not_scalar(field, list(args)) from None


def parse_fact(payload) -> Fact:
    """A fact from ``{"relation": .., "args": [..]}`` or ``["R", [..]]``."""
    if isinstance(payload, dict):
        if not isinstance(payload.get("relation"), str) \
                or not isinstance(payload.get("args"), (list, tuple)):
            raise ValidationError(
                f"fact payload needs 'relation' and 'args': {payload!r}")
        return _wire_fact(payload["relation"], payload["args"],
                          "fact 'args'")
    if isinstance(payload, (list, tuple)) and len(payload) == 2 \
            and isinstance(payload[0], str) \
            and isinstance(payload[1], (list, tuple)):
        return _wire_fact(payload[0], payload[1], "fact 'args'")
    raise ValidationError(f"cannot parse fact payload {payload!r}")


def instance_payload(instance: Instance) -> dict:
    """``{"R": [[args], ...], ...}`` with rows in canonical order."""
    payload: dict[str, list] = {}
    for fact in instance.sorted_facts():
        payload.setdefault(fact.relation, []).append(list(fact.args))
    return payload


def parse_instance(payload) -> Instance:
    """An instance from the relation->rows dict or a fact-payload list."""
    if payload is None:
        return Instance.empty()
    if isinstance(payload, dict):
        for relation, rows in payload.items():
            if not isinstance(relation, str) \
                    or not isinstance(rows, (list, tuple)) \
                    or not all(isinstance(row, (list, tuple))
                               for row in rows):
                raise ValidationError(
                    "instance payload must map relation names to "
                    f"lists of argument rows; bad entry {relation!r}")
        return Instance(
            _wire_fact(relation, row, f"instance row of {relation!r}")
            for relation, rows in payload.items() for row in rows)
    if isinstance(payload, (list, tuple)):
        return Instance(parse_fact(item) for item in payload)
    raise ValidationError(
        f"cannot parse instance payload {payload!r}")


def load_instance_json(path: str | Path) -> Instance:
    """Read an instance from JSON (``{relation: [rows...]}``)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise SchemaError("instance JSON must be an object of arrays")
    return parse_instance(payload)


def save_instance_json(instance: Instance, path: str | Path) -> None:
    """Write an instance to JSON (sorted, deterministic)."""
    Path(path).write_text(
        json.dumps(instance_payload(instance), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")


def parse_relation_spec(spec: str) -> tuple[str, str]:
    """Split a CLI ``Relation=path.csv`` argument."""
    if "=" not in spec:
        raise SchemaError(
            f"expected RELATION=path.csv, got {spec!r}")
    relation, _, path = spec.partition("=")
    if not relation or not path:
        raise SchemaError(f"malformed relation spec {spec!r}")
    return relation, path


def load_instance_args(specs: Iterable[str],
                       skip_header: bool = False) -> Instance:
    """Build an instance from CLI specs (CSV and/or one JSON file)."""
    facts: list[Fact] = []
    for spec in specs:
        if spec.endswith(".json") and "=" not in spec:
            facts.extend(load_instance_json(spec).facts)
            continue
        relation, path = parse_relation_spec(spec)
        facts.extend(load_relation_csv(path, relation, skip_header))
    return Instance(facts)
