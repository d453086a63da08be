"""Tests for benchmarks/perf_report.py (the CI benchmark gate).

The module is loaded from its file path (benchmarks/ is not a
package): these tests pin the BENCH_<sha>.json schema, the
calibration-normalized regression comparison, and the CLI exit codes
the CI job relies on.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_report",
    Path(__file__).resolve().parent.parent / "benchmarks"
    / "perf_report.py")
perf_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_report)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks"
     / "bench_schema.json").read_text())


def raw_dump(medians: dict[str, float]) -> dict:
    """A minimal pytest-benchmark --benchmark-json dump."""
    return {"benchmarks": [
        {"fullname": name, "stats": {"median": median}}
        for name, median in medians.items()]}


CALIBRATION = "bench_engine_ablation.py::TestCalibration" \
    "::test_calibration_spin"


def build(medians, sha="abc123"):
    return perf_report.build_report(raw_dump(medians), sha)


class TestBuildReport:
    def test_report_matches_committed_schema(self):
        report = build({CALIBRATION: 0.01, "bench::x": 0.05})
        assert perf_report.validate(report, SCHEMA) == []
        assert report["schema_version"] == 1
        assert report["sha"] == "abc123"

    def test_normalization_uses_calibration_median(self):
        report = build({CALIBRATION: 0.02, "bench::x": 0.05})
        assert report["experiments"]["bench::x"]["normalized"] == \
            pytest.approx(2.5)
        assert report["calibration_median_seconds"] == \
            pytest.approx(0.02)

    def test_missing_calibration_is_an_error(self):
        with pytest.raises(perf_report.ReportError):
            build({"bench::x": 0.05})

    def test_empty_dump_is_an_error(self):
        with pytest.raises(perf_report.ReportError):
            perf_report.build_report({"benchmarks": []}, "sha")


class TestSchemaValidator:
    def test_rejects_missing_required_key(self):
        report = build({CALIBRATION: 0.01})
        del report["sha"]
        assert any("sha" in violation
                   for violation in perf_report.validate(report,
                                                         SCHEMA))

    def test_rejects_unexpected_key(self):
        report = build({CALIBRATION: 0.01})
        report["extra"] = 1
        assert perf_report.validate(report, SCHEMA) != []

    def test_rejects_wrong_type(self):
        report = build({CALIBRATION: 0.01})
        report["calibration_median_seconds"] = "fast"
        assert perf_report.validate(report, SCHEMA) != []

    def test_rejects_malformed_experiment_entry(self):
        report = build({CALIBRATION: 0.01, "bench::x": 0.05})
        report["experiments"]["bench::x"]["surprise"] = 1
        assert perf_report.validate(report, SCHEMA) != []


class TestRegressionGate:
    def _baseline(self, medians):
        return perf_report.baseline_from_report(build(medians))

    def test_identical_run_passes(self):
        medians = {CALIBRATION: 0.01, "bench::x": 0.05}
        verdict = perf_report.compare(build(medians),
                                      self._baseline(medians))
        assert verdict["regressions"] == []
        assert len(verdict["unchanged"]) == 2

    def test_runner_speed_change_alone_does_not_regress(self):
        # Everything (calibration included) 3x slower: normalized
        # medians are unchanged, so a slow runner never trips the gate.
        baseline = self._baseline({CALIBRATION: 0.01, "bench::x": 0.05})
        slowed = build({CALIBRATION: 0.03, "bench::x": 0.15})
        verdict = perf_report.compare(slowed, baseline)
        assert verdict["regressions"] == []

    def test_real_regression_beyond_threshold_fails(self):
        baseline = self._baseline({CALIBRATION: 0.01, "bench::x": 0.05})
        regressed = build({CALIBRATION: 0.01, "bench::x": 0.08})
        verdict = perf_report.compare(regressed, baseline,
                                      threshold=0.25)
        assert [r["id"] for r in verdict["regressions"]] == ["bench::x"]
        assert verdict["regressions"][0]["ratio"] == pytest.approx(1.6)

    def test_regression_within_threshold_passes(self):
        baseline = self._baseline({CALIBRATION: 0.01, "bench::x": 0.05})
        wobble = build({CALIBRATION: 0.01, "bench::x": 0.06})
        verdict = perf_report.compare(wobble, baseline, threshold=0.25)
        assert verdict["regressions"] == []

    def test_new_and_retired_experiments_reported_not_failed(self):
        baseline = self._baseline({CALIBRATION: 0.01, "bench::old": 0.05})
        run = build({CALIBRATION: 0.01, "bench::new": 0.05})
        verdict = perf_report.compare(run, baseline)
        assert verdict["new"] == ["bench::new"]
        assert verdict["retired"] == ["bench::old"]
        assert verdict["regressions"] == []


class TestDeltaTable:
    def _verdict(self):
        baseline = perf_report.baseline_from_report(
            build({CALIBRATION: 0.01, "bench::slow": 0.05,
                   "bench::fast": 0.05, "bench::same": 0.05,
                   "bench::gone": 0.05}))
        run = build({CALIBRATION: 0.01, "bench::slow": 0.09,
                     "bench::fast": 0.02, "bench::same": 0.05,
                     "bench::fresh": 0.01})
        return perf_report.compare(run, baseline, threshold=0.25)

    def test_table_lists_every_experiment_with_status(self):
        table = perf_report.format_delta_table(self._verdict())
        lines = table.splitlines()
        assert lines[0].split() == ["STATUS", "EXPERIMENT",
                                    "BASELINE", "CURRENT", "RATIO"]
        by_id = {line.split()[1]: line for line in lines[2:-1]}
        assert by_id["bench::slow"].startswith("REGRESSED")
        assert by_id["bench::fast"].startswith("IMPROVED")
        assert by_id["bench::same"].startswith("ok")
        assert by_id["bench::fresh"].startswith("NEW")
        assert by_id["bench::gone"].startswith("RETIRED")
        assert "1.80x" in by_id["bench::slow"]
        assert "limit 1.25x" in lines[-1]

    def test_worst_ratio_sorts_first(self):
        table = perf_report.format_delta_table(self._verdict())
        body = [line for line in table.splitlines()[2:]
                if line.split() and line.split()[0] in
                ("REGRESSED", "IMPROVED", "ok")]
        assert body[0].split()[1] == "bench::slow"
        assert body[-1].split()[1] == "bench::fast"

    def test_failing_gate_prints_the_table(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(raw_dump(
            {CALIBRATION: 0.01, "bench::x": 0.05})))
        assert perf_report.main([str(raw), "--sha", "a",
                                 "--write-baseline",
                                 str(baseline)]) == 0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(raw_dump(
            {CALIBRATION: 0.01, "bench::x": 0.09})))
        assert perf_report.main([str(slow), "--sha", "b",
                                 "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "bench::x" in out
        assert "STATUS" in out and "RATIO" in out
        assert "gate FAILED: 1 regression(s)" in out


class TestCli:
    def _write_raw(self, tmp_path, medians):
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw_dump(medians)))
        return path

    def test_artifact_written_and_gate_passes(self, tmp_path):
        raw = self._write_raw(tmp_path,
                              {CALIBRATION: 0.01, "bench::x": 0.05})
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "BENCH_abc.json"
        assert perf_report.main([str(raw), "--sha", "abc",
                                 "--write-baseline",
                                 str(baseline)]) == 0
        assert perf_report.main([str(raw), "--sha", "abc",
                                 "--out", str(out),
                                 "--baseline", str(baseline)]) == 0
        artifact = json.loads(out.read_text())
        assert perf_report.validate(artifact, SCHEMA) == []
        assert artifact["sha"] == "abc"

    def test_gate_fails_with_exit_code_1(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        raw_fast = self._write_raw(tmp_path,
                                   {CALIBRATION: 0.01, "bench::x": 0.05})
        assert perf_report.main([str(raw_fast), "--sha", "a",
                                 "--write-baseline",
                                 str(baseline)]) == 0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(raw_dump(
            {CALIBRATION: 0.01, "bench::x": 0.09})))
        assert perf_report.main([str(slow), "--sha", "b",
                                 "--baseline", str(baseline)]) == 1

    def test_baseline_from_several_runs_takes_per_id_medians(
            self, tmp_path):
        # The second run's calibration read fast: alone it would put
        # every entry at twice its usual ratio.
        runs = [{CALIBRATION: 0.010, "bench::x": 0.050},
                {CALIBRATION: 0.005, "bench::x": 0.050},
                {CALIBRATION: 0.010, "bench::x": 0.060}]
        paths = []
        for index, medians in enumerate(runs):
            path = tmp_path / f"raw-{index}.json"
            path.write_text(json.dumps(raw_dump(medians)))
            paths.append(str(path))
        baseline = tmp_path / "baseline.json"
        assert perf_report.main(paths + ["--sha", "a", "--write-baseline",
                                         str(baseline)]) == 0
        written = json.loads(baseline.read_text())["experiments"]
        assert written["bench::x"] == pytest.approx(6.0)
        assert written[CALIBRATION] == pytest.approx(1.0)
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(raw_dump({CALIBRATION: 0.01})))
        assert perf_report.main([paths[0], str(mixed), "--sha", "b",
                                 "--write-baseline",
                                 str(baseline)]) == 2

    def test_missing_baseline_skips_gate(self, tmp_path):
        raw = self._write_raw(tmp_path, {CALIBRATION: 0.01})
        assert perf_report.main([str(raw), "--sha", "c",
                                 "--baseline",
                                 str(tmp_path / "absent.json")]) == 0

    def test_unreadable_raw_is_usage_error(self, tmp_path):
        assert perf_report.main([str(tmp_path / "nope.json"),
                                 "--sha", "d"]) == 2
