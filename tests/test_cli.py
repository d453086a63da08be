"""Tests for the command-line interface (repro.cli)."""

import io
import json

import pytest

import repro
from repro.cli import main
from repro.engine.batched import ColumnarMonteCarloPDB
from repro.io import save_instance_csv, save_program
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


@pytest.fixture
def g0_file(tmp_path):
    path = tmp_path / "g0.gdl"
    save_program(paper.example_1_1_g0(), path)
    return str(path)


@pytest.fixture
def earthquake_files(tmp_path):
    program_path = tmp_path / "quake.gdl"
    program_path.write_text(paper.EARTHQUAKE_PROGRAM_TEXT)
    data = save_instance_csv(paper.example_3_4_instance(), tmp_path)
    specs = [f"{relation}={path}" for relation, path in data.items()]
    return str(program_path), specs


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestExactCommand:
    def test_g0_worlds(self, g0_file):
        code, output = run_cli(["exact", g0_file])
        assert code == 0
        assert "# 3 worlds" in output
        assert "0.50000000" in output and "0.25000000" in output

    def test_barany_semantics_flag(self, g0_file):
        code, output = run_cli(["exact", g0_file,
                                "--semantics", "barany"])
        assert code == 0
        assert "# 2 worlds" in output

    def test_parallel_flag(self, g0_file):
        code, output = run_cli(["exact", g0_file, "--parallel"])
        assert code == 0
        assert "# 3 worlds" in output

    def test_top_limits_output(self, g0_file):
        code, output = run_cli(["exact", g0_file, "--top", "1"])
        assert code == 0
        assert "more worlds" in output

    def test_with_data(self, earthquake_files):
        program, specs = earthquake_files
        argv = ["exact", program]
        for spec in specs:
            argv += ["--data", spec]
        code, output = run_cli(argv)
        assert code == 0
        assert "err" in output


class TestSampleCommand:
    def test_marginals_printed(self, earthquake_files):
        program, specs = earthquake_files
        argv = ["sample", program, "-n", "500", "--seed", "1"]
        for spec in specs:
            argv += ["--data", spec]
        code, output = run_cli(argv)
        assert code == 0
        assert "Alarm('house-1')" in output
        assert "500 terminated runs" in output

    def test_text_mode_reads_the_columnar_table(self, earthquake_files,
                                                monkeypatch):
        """Text mode prints the world counts, sorted, expanding nothing."""
        expanded = []
        materialize = ColumnarMonteCarloPDB._materialize_slots

        def counting(pdb):
            expanded.append(pdb)
            return materialize(pdb)

        monkeypatch.setattr(ColumnarMonteCarloPDB, "_materialize_slots",
                            counting)
        program, specs = earthquake_files
        argv = ["sample", program, "-n", "500", "--seed", "1"]
        for spec in specs:
            argv += ["--data", spec]
        code, output = run_cli(argv)
        assert code == 0
        assert expanded == []

        pdb = repro.compile(paper.EARTHQUAKE_PROGRAM_TEXT).on(
            paper.example_3_4_instance(), seed=1).sample(500).pdb
        assert isinstance(pdb, ColumnarMonteCarloPDB)
        counts: dict = {}
        for world in pdb.worlds:
            for fact in world.facts:
                counts[fact] = counts.get(fact, 0) + 1
        expected = [f"# {len(pdb.worlds)} terminated runs, 0 truncated "
                    "(err 0.0000)"] + [
            f"{counts[fact] / 500:10.6f}  {fact!r}"
            for fact in sorted(counts, key=Fact.sort_key)]
        assert output.splitlines() == expected

    def test_deterministic_given_seed(self, g0_file):
        _, first = run_cli(["sample", g0_file, "-n", "200",
                            "--seed", "9"])
        _, second = run_cli(["sample", g0_file, "-n", "200",
                             "--seed", "9"])
        assert first == second


class TestAnalyzeCommand:
    def test_weakly_acyclic_report(self, earthquake_files):
        program, _ = earthquake_files
        code, output = run_cli(["analyze", program])
        assert code == 0
        assert "weakly acyclic:   True" in output
        assert "Theorem 6.3" in output

    def test_continuous_cycle_report(self, tmp_path):
        path = tmp_path / "loop.gdl"
        save_program(paper.continuous_feedback_program(), path)
        code, output = run_cli(["analyze", str(path)])
        assert code == 0
        assert "weakly acyclic:   False" in output
        assert "almost surely non-terminating" in output

    def test_discrete_cycle_report(self, tmp_path):
        path = tmp_path / "cycle.gdl"
        save_program(paper.discrete_cycle_program(), path)
        code, output = run_cli(["analyze", str(path)])
        assert code == 0
        assert "discrete" in output and "may terminate" in output


class TestTranslateCommand:
    def test_shows_existential_rules(self, g0_file):
        code, output = run_cli(["translate", g0_file])
        assert code == 0
        assert "Result#" in output and "∃y" in output

    def test_barany_translation(self, g0_file):
        code, output = run_cli(["translate", g0_file,
                                "--semantics", "barany"])
        assert code == 0
        assert "Sample#Flip" in output


class TestJsonOutput:
    def test_exact_json(self, g0_file):
        code, output = run_cli(["exact", g0_file, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["command"] == "exact"
        assert payload["n_worlds"] == 3
        assert payload["total_mass"] == pytest.approx(1.0)
        assert payload["err_mass"] == pytest.approx(0.0)
        probabilities = sorted(world["probability"]
                               for world in payload["worlds"])
        assert probabilities == pytest.approx([0.25, 0.25, 0.5])

    def test_sample_json(self, g0_file):
        code, output = run_cli(["sample", g0_file, "-n", "400",
                                "--seed", "3", "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["command"] == "sample"
        assert payload["n_runs"] == 400
        assert payload["n_truncated"] == 0
        marginals = {(entry["fact"]["relation"],
                      tuple(entry["fact"]["args"])):
                     entry["probability"]
                     for entry in payload["marginals"]}
        assert abs(marginals[("R", (1,))] - 0.75) < 0.1

    def test_sample_json_matches_text_marginals(self, g0_file):
        code, text_output = run_cli(["sample", g0_file, "-n", "300",
                                     "--seed", "5"])
        assert code == 0
        code, json_output = run_cli(["sample", g0_file, "-n", "300",
                                     "--seed", "5", "--json"])
        assert code == 0
        payload = json.loads(json_output)
        for entry in payload["marginals"]:
            formatted = f"{entry['probability']:10.6f}"
            assert formatted in text_output

    def test_analyze_json(self, earthquake_files):
        program, _ = earthquake_files
        code, output = run_cli(["analyze", program, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["weakly_acyclic"] is True
        assert payload["verdict"] == "terminating"
        assert payload["discrete"] is True

    def test_analyze_json_nonterminating(self, tmp_path):
        path = tmp_path / "loop.gdl"
        save_program(paper.continuous_feedback_program(), path)
        code, output = run_cli(["analyze", str(path), "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["weakly_acyclic"] is False
        assert payload["verdict"] == "almost-surely-non-terminating"

    def test_translate_json(self, g0_file):
        code, output = run_cli(["translate", g0_file, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert payload["semantics"] == "grohe"
        assert any(name.startswith("Result#")
                   for name in payload["aux_relations"])


class TestFacadeWiring:
    def test_cli_emits_no_deprecation_warnings(self, g0_file):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            code, _ = run_cli(["sample", g0_file, "-n", "50"])
        assert code == 0


class TestErrorPaths:
    def test_missing_file(self):
        code, _ = run_cli(["exact", "/nonexistent/program.gdl"])
        assert code == 2

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.gdl"
        path.write_text("R(x :- B(x).")
        code, _ = run_cli(["exact", str(path)])
        assert code == 2

    def test_continuous_exact_rejected(self, tmp_path):
        path = tmp_path / "cont.gdl"
        save_program(paper.example_3_5_program(), path)
        code, _ = run_cli(["exact", str(path)])
        assert code == 2

    def test_bad_data_spec(self, g0_file):
        code, _ = run_cli(["exact", g0_file, "--data", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("payload,message", [
        ('{"S": [[[1]]]}', "must hold scalar values"),
        ('{"S": 5}', "lists of argument rows"),
    ], ids=["nested_value", "rows_not_a_list"])
    def test_malformed_instance_json(self, tmp_path, capsys, payload,
                                     message):
        # The codec the server validates wire instances with.
        program = tmp_path / "p.gdl"
        program.write_text("T(x) :- S(x).\n")
        data = tmp_path / "bad.json"
        data.write_text(payload)
        code, output = run_cli(["sample", str(program), "--data",
                                str(data)])
        assert code == 2 and output == ""
        error = capsys.readouterr().err
        assert error.startswith("error: ") and message in error


#: The documented JSON keys of every subcommand (the CLI contract the
#: fuzz corpus and CI scripts rely on).
DOCUMENTED_JSON_KEYS = {
    "exact": {"command", "n_worlds", "total_mass", "err_mass",
              "elapsed_seconds", "worlds"},
    "sample": {"command", "n_runs", "n_terminated", "n_truncated",
               "err_mass", "elapsed_seconds", "backend", "marginals"},
    "analyze": {"command", "n_rules", "n_random_rules",
                "distributions", "extensional", "discrete",
                "weakly_acyclic", "continuous_cycle",
                "cyclic_distributions", "verdict"},
    "translate": {"command", "semantics", "n_rules", "aux_relations",
                  "rules"},
    "fuzz": {"command", "budget", "seed", "n_cases", "lint_rejected",
             "n_discrepancies", "kinds", "oracles", "discrepancies",
             "corpus_written", "elapsed_seconds"},
}


class TestJsonRoundTrip:
    """Every subcommand's --json output parses and carries its keys."""

    def _payload(self, argv):
        code, output = run_cli(argv)
        assert code == 0, output
        payload = json.loads(output)  # must be one valid document
        assert json.loads(json.dumps(payload)) == payload
        return payload

    def test_exact(self, g0_file):
        payload = self._payload(["exact", g0_file, "--json"])
        assert set(payload) == DOCUMENTED_JSON_KEYS["exact"]
        assert payload["command"] == "exact"
        for world in payload["worlds"]:
            assert set(world) == {"probability", "facts"}
            for fact in world["facts"]:
                assert set(fact) == {"relation", "args"}

    def test_sample(self, g0_file):
        payload = self._payload(["sample", g0_file, "-n", "50",
                                 "--json"])
        assert set(payload) == DOCUMENTED_JSON_KEYS["sample"]
        assert payload["n_runs"] == 50
        for entry in payload["marginals"]:
            assert set(entry) == {"fact", "probability"}

    def test_analyze(self, g0_file):
        payload = self._payload(["analyze", g0_file, "--json"])
        assert set(payload) == DOCUMENTED_JSON_KEYS["analyze"]
        assert payload["verdict"] == "terminating"

    def test_translate(self, g0_file):
        payload = self._payload(["translate", g0_file, "--json"])
        assert set(payload) == DOCUMENTED_JSON_KEYS["translate"]
        assert payload["semantics"] == "grohe"

    def test_fuzz(self):
        payload = self._payload(["fuzz", "--budget", "4", "--seed",
                                 "0", "--json"])
        assert set(payload) == DOCUMENTED_JSON_KEYS["fuzz"]
        assert payload["n_cases"] == 4
        assert payload["n_discrepancies"] == 0
        for stats in payload["oracles"].values():
            assert set(stats) == {"checked", "ok", "skipped", "failed",
                                  "seconds"}


class TestFuzzCommand:
    def test_human_output(self):
        code, output = run_cli(["fuzz", "--budget", "3", "--seed",
                                "1"])
        assert code == 0
        assert "# fuzz: 3 cases" in output
        assert "chase-order" in output and "fixpoint" in output

    def test_oracle_subset(self):
        code, output = run_cli(["fuzz", "--budget", "2", "--oracles",
                                "fixpoint,termination"])
        assert code == 0
        assert "exact-vs-sample" not in output

    def test_unknown_oracle_is_usage_error(self):
        code, _ = run_cli(["fuzz", "--budget", "1", "--oracles",
                           "nonsense"])
        assert code == 2

    def test_empty_oracle_selection_is_usage_error(self):
        # A stray comma must not silently disable all checking.
        code, _ = run_cli(["fuzz", "--budget", "1", "--oracles", ","])
        assert code == 2

    def test_non_positive_budget_is_usage_error(self):
        code, _ = run_cli(["fuzz", "--budget", "0"])
        assert code == 2
        code, _ = run_cli(["fuzz", "--budget", "-5"])
        assert code == 2

    def test_negative_seed_is_usage_error(self):
        code, _ = run_cli(["fuzz", "--budget", "1", "--seed", "-1"])
        assert code == 2

    @pytest.fixture
    def failing_battery(self, monkeypatch):
        """A battery whose one oracle fails every case."""
        from repro.testing import Oracle, OracleOutcome

        class AlwaysFails(Oracle):
            name = "fixpoint"  # reuse a known name for --oracles

            def check(self, case):
                return OracleOutcome("fail", "synthetic")

        monkeypatch.setattr(
            "repro.testing.oracles_by_name",
            lambda: {"fixpoint": AlwaysFails()})

    @pytest.mark.parametrize("flags, label", [
        ((), "shrunk reproducer:"),
        (("--no-shrink",), "reproducer (not shrunk):")])
    def test_reproducer_label_says_whether_it_was_shrunk(
            self, failing_battery, flags, label):
        code, output = run_cli(["fuzz", "--budget", "1", "--oracles",
                                "fixpoint", *flags])
        assert code == 1
        labels = [line.strip() for line in output.splitlines()
                  if line.strip() in ("shrunk reproducer:",
                                      "reproducer (not shrunk):")]
        assert labels == [label]

    def test_corpus_written_on_discrepancy(self, tmp_path,
                                           failing_battery):
        """Force a failure via a monkeypatched battery; the shrunk
        reproducer must land in --corpus and flip the exit code."""
        corpus = tmp_path / "corpus"
        code, output = run_cli(["fuzz", "--budget", "1", "--oracles",
                                "fixpoint", "--corpus", str(corpus),
                                "--json"])
        assert code == 1
        payload = json.loads(output)
        assert payload["n_discrepancies"] == 1
        written = payload["corpus_written"]
        assert len(written) == 1
        from pathlib import Path
        assert Path(written[0]).exists()


class TestPosteriorCommand:
    @pytest.fixture
    def cascade_file(self, tmp_path):
        path = tmp_path / "cascade.gdl"
        path.write_text("Trig(x, Flip<0.6>) :- Site(x).\n"
                        "Alarm(x, Flip<0.5>) :- Trig(x, 1).\n")
        data = tmp_path / "sites.json"
        data.write_text('{"Site": [["a"]]}')
        return str(path), str(data)

    def test_observation_shifts_marginals(self, cascade_file):
        program, data = cascade_file
        code, output = run_cli(
            ["posterior", program, "--data", data,
             "--observe", "Alarm,a,1", "-n", "3000", "--seed", "2"])
        assert code == 0
        assert "method likelihood" in output
        line = next(line for line in output.splitlines()
                    if "Trig('a', 1)" in line)
        # P(Trig=1 | Alarm sample = 1) = 3/7.
        assert abs(float(line.split()[0]) - 3 / 7) < 0.05

    def test_json_document_matches_server_contract(self, cascade_file):
        program, data = cascade_file
        code, output = run_cli(
            ["posterior", program, "--data", data, "--json",
             "--observe",
             '{"fact": {"relation": "Trig", "args": ["a", 1]}}',
             "--method", "rejection", "-n", "500", "--seed", "4"])
        assert code == 0
        document = json.loads(output)
        assert document["command"] == "posterior"
        assert document["method"] == "rejection"
        assert document["effective_sample_size"] is None
        entry = next(m for m in document["marginals"]
                     if m["fact"] == {"relation": "Trig",
                                      "args": ["a", 1]})
        assert entry["probability"] == 1.0

    def test_bad_observe_spec_is_usage_error(self, cascade_file):
        program, data = cascade_file
        code, _output = run_cli(
            ["posterior", program, "--data", data, "--observe", "Trig"])
        assert code == 2
