"""``repro serve`` subprocess smoke: stdio and socket transports.

This file is the CI serving-tier smoke test: it boots the real CLI in
a subprocess, drives it over both transports, checks the JSON-lines
contract against the ``repro sample --json`` document, and exercises
three concurrent clients against one server process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from io import StringIO
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.serving import ProgramServer, ServingClient
from repro.serving.protocol import encode_line, sample_payload

REPO_ROOT = Path(__file__).resolve().parent.parent

COIN = "Heads(x, Flip<0.5>) :- Coin(x)."
COINS = {"Coin": [[0], [1]]}

SAMPLE_KEYS = {"command", "n_runs", "n_terminated", "n_truncated",
               "err_mass", "elapsed_seconds", "backend", "marginals"}


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _expected_marginals(seed: int, n: int) -> list:
    result = repro.compile(COIN).on(
        repro.Instance.from_dict(
            {"Coin": [(0,), (1,)]}), seed=seed).sample(n)
    return sample_payload(result)["marginals"]


class TestServeStdio:
    def test_round_trip_and_contract(self):
        requests = [
            {"op": "ping"},
            {"op": "sample", "program": COIN, "instance": COINS,
             "n": 120, "config": {"seed": 9}},
            {"op": "sample", "program": COIN, "instance": COINS,
             "n": 120, "config": {"seed": 9}},
            {"op": "bogus"},
        ]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            input=stdin, capture_output=True, text=True,
            env=_env(), cwd=REPO_ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line)
                   for line in proc.stdout.splitlines() if line]
        assert len(replies) == 4
        ping, first, second, bad = replies
        assert ping["ok"] and "stats" in ping
        assert first["ok"] and not first["compile_cached"]
        assert second["ok"] and second["compile_cached"]
        assert set(first["result"]) == SAMPLE_KEYS
        # Byte-for-byte the facade's marginals for the same seed.
        assert first["result"]["marginals"] \
            == _expected_marginals(seed=9, n=120)
        assert first["result"]["marginals"] \
            == second["result"]["marginals"]
        assert bad["ok"] is False and "unknown op" in bad["error"]
        assert "# served 4 requests" in proc.stderr


class TestCliMatchesServer:
    """``repro sample --seed S --json`` is the served ``sample`` reply."""

    G0 = "R(Flip<0.5>) :- true.\nR(Flip<0.5>) :- true.\n"

    @pytest.mark.parametrize("seed", [9, 31])
    @pytest.mark.parametrize("with_data", [False, True])
    def test_same_seed_same_document(self, tmp_path, seed, with_data):
        source = COIN if with_data else self.G0
        program = tmp_path / "program.gdl"
        program.write_text(source)
        argv = ["sample", str(program), "-n", "200", "--seed",
                str(seed), "--json"]
        request = {"op": "sample", "program": source, "n": 200,
                   "config": {"seed": seed}}
        if with_data:
            coins = tmp_path / "coins.csv"
            coins.write_text("0\n1\n")
            argv += ["--data", f"Coin={coins}"]
            request["instance"] = COINS
        out = StringIO()
        assert main(argv, out=out) == 0
        cli = json.loads(out.getvalue())
        reply = ProgramServer().handle(request)
        assert reply["ok"], reply
        served = reply["result"]
        assert cli["backend"] == served["backend"] == "batched"
        assert cli["n_runs"] == served["n_runs"] == 200
        assert cli["marginals"] == served["marginals"]

    #: Continuous past the coin, so a query under evidence samples.
    SIZES = COIN + "\nSize(x, Normal<0.0, 1.0>) :- Heads(x, 1)."
    HEADS = {"fact": {"relation": "Heads", "args": [0, 1]}}
    PLAN = {"op": "scan", "relation": "Size", "columns": ["x", "v"]}

    @pytest.mark.parametrize("command, method", [
        ("posterior", "guided"), ("posterior", None), ("query", None)],
        ids=["posterior", "posterior-default", "query"])
    def test_fact_evidence_same_document(self, tmp_path, command,
                                         method):
        # One evidence decoder: `--observe '{"fact": ...}'` and the
        # served `observe` list condition on the same fact event, and
        # without a method both take rejection for it.
        program = tmp_path / "program.gdl"
        program.write_text(self.SIZES)
        coins = tmp_path / "coins.csv"
        coins.write_text("0\n1\n")
        argv = [command, str(program), "--data", f"Coin={coins}",
                "-n", "300", "--seed", "6", "--observe",
                json.dumps(self.HEADS), "--json"]
        request = {"op": command, "program": self.SIZES,
                   "instance": COINS, "n": 300,
                   "observe": [self.HEADS], "config": {"seed": 6}}
        if method is not None:
            argv += ["--method", method]
            request["method"] = method
        if command == "query":
            argv += ["--plan", json.dumps(self.PLAN)]
            request["plan"] = self.PLAN
        out = StringIO()
        assert main(argv, out=out) == 0
        cli = json.loads(out.getvalue())
        reply = ProgramServer().handle(request)
        assert reply["ok"], reply
        # As it goes on the wire (tuples become lists).
        served = json.loads(encode_line(reply))["result"]
        cli.pop("elapsed_seconds")
        served.pop("elapsed_seconds")
        assert cli == served
        if command == "posterior":
            assert served["method"] == (method or "rejection")
            assert served["diagnostics"]["backend"] \
                == ("guided" if method else "batched")
        else:
            assert served["kind"] == "rejection"
            assert served["boolean_probability"] == 1.0


@pytest.fixture(scope="module")
def serve_process():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(), cwd=REPO_ROOT)
    try:
        banner = proc.stdout.readline()
        assert banner, proc.stderr.read()
        address = json.loads(banner)["serving"]
        yield address["host"], address["port"]
    finally:
        proc.terminate()
        proc.wait(timeout=30)


class TestServeSocket:
    def test_banner_then_serves(self, serve_process):
        host, port = serve_process
        with ServingClient(host, port) as client:
            assert client.ping()["ok"]

    def test_three_concurrent_clients(self, serve_process):
        host, port = serve_process
        documents: list = []
        errors: list = []

        def worker(seed: int) -> None:
            try:
                with ServingClient(host, port, timeout=120) as client:
                    documents.append(client.sample(
                        COIN, n=80, instance=COINS, seed=seed))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(documents) == 3
        for document in documents:
            assert set(document) == SAMPLE_KEYS
            assert document["n_runs"] == 80
            assert document["n_truncated"] == 0

    def test_zero_recompilation_across_clients(self, serve_process):
        host, port = serve_process
        # However many COIN requests the module-scoped server has
        # already handled, three more must cost zero compilations.
        with ServingClient(host, port) as client:
            for seed in (4, 5, 6):
                client.sample(COIN, n=10, instance=COINS, seed=seed)
            stats = client.ping()["stats"]
        assert stats["programs_compiled"] == 1
        assert stats["program_cache_hits"] >= 2

    def test_marginal_and_analyze_verbs(self, serve_process):
        host, port = serve_process
        with ServingClient(host, port) as client:
            probability = client.marginal(
                COIN, {"relation": "Heads", "args": [0, 1]},
                n=400, instance=COINS, seed=21)
            assert abs(probability - 0.5) < 0.15
            assert client.analyze(COIN)["verdict"] == "terminating"
