"""Tests for program/instance file I/O (repro.io)."""

import pytest

from repro.errors import SchemaError
from repro.io import (load_instance_args, load_instance_csv,
                      load_instance_json, load_program,
                      load_relation_csv, parse_relation_spec,
                      parse_value, save_instance_csv,
                      save_instance_json, save_program)
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance
from repro.workloads import paper


@pytest.fixture
def instance():
    return Instance.from_dict({
        "City": [("Napa", 0.03), ("Davis", 0.01)],
        "Flag": [(1,), (0,)],
    })


class TestParseValue:
    def test_int(self):
        assert parse_value("42") == 42 and isinstance(
            parse_value("42"), int)

    def test_float(self):
        assert parse_value("0.5") == 0.5

    def test_scientific(self):
        assert parse_value("1e-3") == 0.001

    def test_string(self):
        assert parse_value("Napa") == "Napa"

    def test_booleans(self):
        assert parse_value("true") == 1
        assert parse_value("False") == 0

    def test_whitespace_stripped(self):
        assert parse_value("  7 ") == 7


class TestCsvRoundTrip:
    def test_save_and_load(self, tmp_path, instance):
        written = save_instance_csv(instance, tmp_path)
        assert set(written) == {"City", "Flag"}
        loaded = load_instance_csv(
            {rel: path for rel, path in written.items()})
        assert loaded == instance

    def test_load_relation_csv(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("1,2\n2,3\n")
        facts = load_relation_csv(path, "Edge")
        assert Fact("Edge", (1, 2)) in facts and len(facts) == 2

    def test_skip_header(self, tmp_path):
        path = tmp_path / "city.csv"
        path.write_text("name,rate\nNapa,0.03\n")
        facts = load_relation_csv(path, "City", skip_header=True)
        assert facts == [Fact("City", ("Napa", 0.03))]

    def test_empty_lines_ignored(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1\n\n2\n")
        assert len(load_relation_csv(path, "R")) == 2


class TestJsonRoundTrip:
    def test_save_and_load(self, tmp_path, instance):
        path = tmp_path / "db.json"
        save_instance_json(instance, path)
        assert load_instance_json(path) == instance

    def test_saved_bytes(self, tmp_path, instance):
        path = tmp_path / "db.json"
        save_instance_json(instance, path)
        assert path.read_text() == (
            '{\n  "City": [\n    [\n      "Davis",\n      0.01\n    ],\n'
            '    [\n      "Napa",\n      0.03\n    ]\n  ],\n'
            '  "Flag": [\n    [\n      0\n    ],\n    [\n      1\n'
            '    ]\n  ]\n}\n')

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError):
            load_instance_json(path)


class TestProgramFiles:
    def test_save_and_load(self, tmp_path, g0):
        path = tmp_path / "g0.gdl"
        save_program(g0, path)
        assert load_program(path).rules == g0.rules

    def test_load_paper_program(self, tmp_path):
        path = tmp_path / "quake.gdl"
        path.write_text(paper.EARTHQUAKE_PROGRAM_TEXT)
        program = load_program(path)
        assert len(program) == 7


class TestCliSpecs:
    def test_parse_relation_spec(self):
        assert parse_relation_spec("City=data/city.csv") == \
            ("City", "data/city.csv")
        with pytest.raises(SchemaError):
            parse_relation_spec("no-equals")
        with pytest.raises(SchemaError):
            parse_relation_spec("=path")

    def test_load_instance_args_mixed(self, tmp_path, instance):
        json_path = tmp_path / "db.json"
        save_instance_json(instance.restrict(["Flag"]), json_path)
        csv_paths = save_instance_csv(instance.restrict(["City"]),
                                      tmp_path)
        loaded = load_instance_args(
            [str(json_path), f"City={csv_paths['City']}"])
        assert loaded == instance
