"""Benchmark post-processing + regression gate for CI.

Turns a raw ``pytest --benchmark-json`` dump into the committed-schema
``BENCH_<sha>.json`` artifact (one median per experiment id) that the
benchmark-regression CI job uploads on every run - the project's
performance trajectory - and compares it against
``benchmarks/baseline.json``, failing on a >25% median regression.

**Runner-speed normalization.**  Absolute medians are meaningless
across CI runners (a cold shared VM is easily 2-3x slower than the
machine that wrote the baseline), so the gate compares medians
*normalized by the calibration benchmark* of the same run
(``test_calibration_spin`` in ``bench_engine_ablation.py``: a pure
python spin loop whose cost tracks single-core interpreter speed).
``baseline.json`` stores normalized medians; regressions are ratios of
ratios and survive runner churn.

The calibration tracks single-core *interpreter* speed, which is the
dominant cost of every gated benchmark (all are single-threaded; the
"parallel chase" benchmarks are semantic parallelism, not threads).
numpy-heavy experiments (the batched backend) can drift if a runner's
BLAS-to-interpreter speed ratio differs from the baseline machine's -
if the gate flaps on such an experiment with no code change, refresh
the baseline (``--write-baseline``) from a run on the CI runner class
rather than loosening the threshold.

Stdlib-only on purpose (the CI image guarantees nothing beyond the
test dependencies).  Usage::

    pytest benchmarks/bench_engine_ablation.py benchmarks/bench_scaling.py \
        --benchmark-json=bench-raw.json -q
    python benchmarks/perf_report.py bench-raw.json --sha "$GITHUB_SHA" \
        --out "BENCH_${GITHUB_SHA}.json"              # artifact + gate
    python benchmarks/perf_report.py bench-raw-1.json bench-raw-2.json \
        bench-raw-3.json --sha seed \
        --write-baseline benchmarks/baseline.json     # refresh baseline

Given several dumps of one tree, the report holds each experiment's
median over the runs, each run normalized by its own calibration
first: one run whose calibration read fast or slow cannot shift every
entry of a baseline written from several.

Exit codes: 0 gate passed, 1 regression found, 2 usage/validation
error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SCHEMA = HERE / "bench_schema.json"
DEFAULT_BASELINE = HERE / "baseline.json"
CALIBRATION_NAME = "test_calibration_spin"
DEFAULT_THRESHOLD = 0.25
SCHEMA_VERSION = 1


class ReportError(Exception):
    """Anything that should abort with a usage/validation error."""


# ---------------------------------------------------------------------------
# Building the report
# ---------------------------------------------------------------------------

def experiment_id(entry: dict) -> str:
    """The stable experiment id of one pytest-benchmark entry.

    ``fullname`` is the pytest nodeid
    (``file.py::Class::test[param]``) - stable across runs and
    runners, human-readable in diffs of the trajectory artifacts.
    """
    return str(entry["fullname"])


def build_report(raw: dict, sha: str) -> dict:
    """Raw ``--benchmark-json`` dump -> committed-schema report."""
    benchmarks = raw.get("benchmarks")
    if not benchmarks:
        raise ReportError("raw benchmark dump has no 'benchmarks' "
                          "entries (did pytest-benchmark run with "
                          "--benchmark-disable?)")
    medians: dict[str, float] = {}
    calibration_ids = []
    for entry in benchmarks:
        identifier = experiment_id(entry)
        median = float(entry["stats"]["median"])
        if median <= 0.0:
            raise ReportError(f"non-positive median for {identifier}")
        medians[identifier] = median
        # Exact match on the final nodeid segment: a future
        # test_calibration_spin_large (or parametrized variant) must
        # not silently become the divisor for every normalization.
        if identifier.split("::")[-1] == CALIBRATION_NAME:
            calibration_ids.append(identifier)
    if not calibration_ids:
        raise ReportError(
            f"calibration benchmark {CALIBRATION_NAME!r} missing from "
            "the dump; the regression gate cannot normalize for "
            "runner speed without it")
    if len(calibration_ids) > 1:
        raise ReportError(
            f"ambiguous calibration benchmark: {calibration_ids}")
    calibration = medians[calibration_ids[0]]
    return {
        "schema_version": SCHEMA_VERSION,
        "sha": str(sha),
        "generated_by": "benchmarks/perf_report.py",
        "calibration_median_seconds": calibration,
        "experiments": {
            identifier: {
                "median_seconds": median,
                "normalized": median / calibration,
            }
            for identifier, median in sorted(medians.items())
        },
    }


def median_report(reports: list[dict]) -> dict:
    """Several runs' reports of one tree -> one of per-id medians."""
    if len(reports) == 1:
        return reports[0]
    identifiers = set(reports[0]["experiments"])
    if any(set(report["experiments"]) != identifiers
           for report in reports[1:]):
        raise ReportError("the runs do not hold the same experiments")

    def median(key, identifier=None):
        return statistics.median(
            report[key] if identifier is None
            else report["experiments"][identifier][key]
            for report in reports)

    return {
        **reports[0],
        "calibration_median_seconds": median(
            "calibration_median_seconds"),
        "experiments": {
            identifier: {
                "median_seconds": median("median_seconds", identifier),
                "normalized": median("normalized", identifier),
            }
            for identifier in sorted(identifiers)
        },
    }


# ---------------------------------------------------------------------------
# Minimal JSON-Schema subset validation (stdlib-only)
# ---------------------------------------------------------------------------

def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Validate against the subset of JSON Schema the project uses.

    Supports ``type`` (object/number/integer/string/boolean),
    ``required``, ``properties`` and ``additionalProperties`` (bool or
    schema).  Returns a list of violation messages (empty = valid).
    """
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None and not _type_ok(instance, expected):
        return [f"{path}: expected {expected}, "
                f"got {type(instance).__name__}"]
    if expected == "object":
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                errors.extend(validate(value, properties[key],
                                       f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional,
                                       f"{path}.{key}"))
    return errors


def _type_ok(instance, expected: str) -> bool:
    if expected == "object":
        return isinstance(instance, dict)
    if expected == "string":
        return isinstance(instance, str)
    if expected == "integer":
        return isinstance(instance, int) and \
            not isinstance(instance, bool)
    if expected == "number":
        return isinstance(instance, (int, float)) and \
            not isinstance(instance, bool)
    if expected == "boolean":
        return isinstance(instance, bool)
    raise ReportError(f"schema uses unsupported type {expected!r}")


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

def compare(report: dict, baseline: dict,
            threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Gate verdict: normalized-median regressions beyond threshold.

    Experiments absent from the baseline are reported (new benchmarks
    start their trajectory) but never fail the gate; experiments the
    run no longer produces are reported as retired.
    """
    base = baseline.get("experiments", {})
    regressions, improvements, new, unchanged = [], [], [], []
    for identifier, entry in report["experiments"].items():
        reference = base.get(identifier)
        if reference is None:
            new.append(identifier)
            continue
        ratio = entry["normalized"] / reference
        record = {"id": identifier, "baseline": reference,
                  "normalized": entry["normalized"],
                  "ratio": ratio}
        if ratio > 1.0 + threshold:
            regressions.append(record)
        elif ratio < 1.0 - threshold:
            improvements.append(record)
        else:
            unchanged.append(record)
    retired = sorted(set(base) - set(report["experiments"]))
    return {"regressions": regressions, "improvements": improvements,
            "unchanged": unchanged, "new": new, "retired": retired,
            "threshold": threshold}


def format_delta_table(verdict: dict) -> str:
    """The gate verdict as an aligned per-benchmark delta table.

    One row per compared experiment (worst ratio first), then the new
    and retired ids.  This is what the CI job prints - a failing gate
    must be diagnosable from the log alone, not from the raw exit
    code.
    """
    rows: list[tuple[str, str, str, str, str]] = []
    compared = (
        [("REGRESSED", record) for record in verdict["regressions"]]
        + [("IMPROVED", record) for record in verdict["improvements"]]
        + [("ok", record) for record in verdict["unchanged"]])
    compared.sort(key=lambda pair: -pair[1]["ratio"])
    for status, record in compared:
        rows.append((status, record["id"],
                     f"{record['baseline']:.4g}",
                     f"{record['normalized']:.4g}",
                     f"{record['ratio']:.2f}x"))
    for identifier in verdict["new"]:
        rows.append(("NEW", identifier, "-", "-", "-"))
    for identifier in verdict["retired"]:
        rows.append(("RETIRED", identifier, "-", "-", "-"))
    header = ("STATUS", "EXPERIMENT", "BASELINE", "CURRENT", "RATIO")
    widths = [max(len(header[column]),
                  *(len(row[column]) for row in rows)) if rows
              else len(header[column]) for column in range(5)]

    def line(cells: tuple) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    limit = 1.0 + verdict["threshold"]
    out = [line(header), line(tuple("-" * width for width in widths))]
    out.extend(line(row) for row in rows)
    out.append(f"(normalized medians; gate limit {limit:.2f}x of "
               "baseline)")
    return "\n".join(out)


def baseline_from_report(report: dict) -> dict:
    """The committed-baseline form: normalized medians only."""
    return {
        "schema_version": SCHEMA_VERSION,
        "source_sha": report["sha"],
        "experiments": {
            identifier: entry["normalized"]
            for identifier, entry in report["experiments"].items()
        },
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReportError(f"cannot read {path}: {error}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pytest-benchmark post-processing + regression "
                    "gate")
    parser.add_argument("raw", nargs="+",
                        help="pytest --benchmark-json output; several "
                             "runs of one tree give per-id medians")
    parser.add_argument("--sha", required=True,
                        help="commit sha stamped into the report")
    parser.add_argument("--out", default=None,
                        help="write the BENCH_<sha>.json report here")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="committed baseline to gate against "
                             "(skipped if the file does not exist)")
    parser.add_argument("--schema", default=str(DEFAULT_SCHEMA),
                        help="committed report schema")
    parser.add_argument("--fail-threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="fail on normalized-median regressions "
                             "beyond this fraction (default 0.25)")
    parser.add_argument("--write-baseline", default=None,
                        metavar="PATH",
                        help="refresh the committed baseline from "
                             "this run instead of gating")
    args = parser.parse_args(argv)

    try:
        report = median_report([build_report(_load_json(Path(raw)),
                                             args.sha)
                                for raw in args.raw])
        schema = _load_json(Path(args.schema))
        violations = validate(report, schema)
        if violations:
            raise ReportError("report fails its own schema: "
                              + "; ".join(violations))
        if args.out:
            Path(args.out).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.out} "
                  f"({len(report['experiments'])} experiments)")
        if args.write_baseline:
            Path(args.write_baseline).write_text(json.dumps(
                baseline_from_report(report), indent=2,
                sort_keys=True) + "\n")
            print(f"wrote baseline {args.write_baseline}")
            return 0
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; gate skipped")
            return 0
        verdict = compare(report, _load_json(baseline_path),
                          args.fail_threshold)
    except ReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(format_delta_table(verdict))
    if verdict["regressions"]:
        print(f"gate FAILED: {len(verdict['regressions'])} "
              "regression(s)")
        return 1
    print(f"gate passed: {len(verdict['unchanged'])} within "
          f"threshold, {len(verdict['improvements'])} improved, "
          f"{len(verdict['new'])} new")
    return 0


if __name__ == "__main__":
    sys.exit(main())
