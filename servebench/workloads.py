"""The four served workloads, their requests and their correctness checks.

Each workload fixes a program, an instance and a request mix; the run
seed only picks the per-request seeds (and the sensor readings), so
every seed sends the same load.  Replies are checked twice: each unit
on its own (``ok``, shape, bookkeeping), and pooled over the run
against the paper's closed forms with a z-bound chosen so that a
correct program fails a run with probability below 1e-3.

No workload sends ``query`` to a discrete program: a served ``query``
on a discrete program silently takes the exact path (chase-tree
enumeration), and one Example 3.4 query over four cities ran for more
than eight minutes in sizing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.serving import protocol
from repro.serving.client import ServingClient
from repro.workloads import generators, paper

from harness import Outcome

#: Two-sided z bound of every pooled check: P(|Z| > 4.5) = 6.8e-6, so
#: even the 16 tests of the cities run keep the false-alarm rate of a
#: run near 1e-4.
Z_BOUND = 4.5

SENSOR_PROGRAM = """
    Lifetime(s, Exponential<0.1>) :- Sensor(s, mu).
    Reading(s, Normal<mu, 2.0>)   :- Sensor(s, mu).
    Flaky(s, Flip<0.05>)          :- Sensor(s, mu).
    Anomaly(s, Normal<mu, 50.0>)  :- Sensor(s, mu), Flaky(s, 1).
"""
SENSORS = 8
P_FLAKY = 0.05
#: The prior batch is the same for every run seed: the query's cost
#: grows with the number of distinct Flaky patterns (signature groups)
#: in the batch, which would otherwise vary from seed to seed.
STREAM_SEED = 0

#: count(Flaky(s, 1) joined with Anomaly(s, a)) - the number of
#: anomalous sensors in a world.
ANOMALY_COUNT_PLAN = {
    "op": "aggregate", "group_by": [],
    "aggregates": {"n": {"fn": "count", "column": None}},
    "source": {
        "op": "join",
        "left": {"op": "where", "equalities": {"f": 1},
                 "source": {"op": "scan", "relation": "Flaky",
                            "columns": ["s", "f"]}},
        "right": {"op": "scan", "relation": "Anomaly",
                  "columns": ["s", "a"]}}}


def request_seed(run_seed: int, index) -> int:
    """The seed of request ``index`` of a run (fixed by the run seed)."""
    return random.Random(f"{run_seed}/{index}").getrandbits(31)


class _CountingReader:
    """A line reader that remembers the size of the last line read."""

    def __init__(self, reader):
        self._reader = reader
        self.last = 0

    def readline(self) -> str:
        line = self._reader.readline()
        self.last = len(line.encode("utf-8"))
        return line

    def close(self) -> None:
        self._reader.close()


class MeasuredClient(ServingClient):
    """A :class:`ServingClient` that also reports each reply's size."""

    def __init__(self, host: str, port: int, timeout: float):
        super().__init__(host, port, timeout=timeout)
        self._reader = _CountingReader(self._reader)

    @property
    def reply_bytes(self) -> int:
        return self._reader.last


@dataclass
class Check:
    """One pooled correctness verdict."""

    name: str
    passed: bool
    detail: str


def _z_check(name: str, estimate: float, expected: float,
             sigma: float) -> Check:
    z = abs(estimate - expected) / sigma if sigma > 0 else math.inf
    return Check(name, z <= Z_BOUND,
                 f"{estimate:.5f} vs {expected:.5f} (|z| = {z:.2f})")


# ---------------------------------------------------------------------------
# One-shot sample workloads
# ---------------------------------------------------------------------------


class SampleWorkload:
    """Closed-loop ``sample`` requests against one warm session."""

    def __init__(self, program: str, instance, n: int, run_seed: int):
        self.program = program
        self.instance = protocol.instance_payload(instance)
        self.n = n
        self.run_seed = run_seed
        self.units = 0

    def request(self, index) -> dict:
        return {"op": "sample", "program": self.program,
                "instance": self.instance, "n": self.n,
                "config": {"seed": request_seed(self.run_seed, index)}}

    def setup(self, client: MeasuredClient, attempt: int) -> None:
        """The set-up request: compile, analysis, session, first batch."""
        response = client.request(self.request(f"setup-{attempt}"))
        if not response.get("ok"):
            raise RuntimeError(f"set-up request failed: "
                               f"{response.get('error')}")

    def unit(self, client: MeasuredClient, index: int) -> Outcome:
        response = client.request(self.request(index))
        size = client.reply_bytes
        if not response.get("ok"):
            return Outcome(size, f"error reply: {response.get('error')}")
        result = response["result"]
        if result.get("n_runs") != self.n or result.get("n_truncated"):
            return Outcome(size, f"bad run counts: n_runs "
                           f"{result.get('n_runs')}, truncated "
                           f"{result.get('n_truncated')}")
        problem = self.absorb(result["marginals"])
        if problem is None:
            self.units += 1
        return Outcome(size, problem)

    def absorb(self, marginals: list) -> str | None:
        raise NotImplementedError

    def verdicts(self) -> list[Check]:
        raise NotImplementedError


class AlarmWorkload(SampleWorkload):
    """Example 3.4: each unit's ``Alarm`` marginal vs the closed form."""

    def __init__(self, instance, n, run_seed):
        super().__init__(paper.EARTHQUAKE_PROGRAM_TEXT, instance, n,
                         run_seed)
        rates = {fact.args[0]: fact.args[1]
                 for fact in instance.facts_of("City")}
        self.expected = {
            fact.args[0]: paper.alarm_probability_closed_form(
                rates[fact.args[1]])
            for relation in ("House", "Business")
            for fact in instance.facts_of(relation)}
        self.sums = dict.fromkeys(self.expected, 0.0)

    def absorb(self, marginals):
        seen = {}
        for entry in marginals:
            fact = entry["fact"]
            if fact["relation"] != "Alarm":
                continue
            unit = fact["args"][0]
            if unit not in self.expected:
                return f"unexpected fact Alarm({unit})"
            seen[unit] = entry["probability"]
        # A unit missing from the reply had no alarm in any world.
        for unit in self.sums:
            self.sums[unit] += seen.get(unit, 0.0)
        return None

    def verdicts(self):
        runs = self.units * self.n
        return [_z_check(f"P(Alarm({unit}))", self.sums[unit] / self.units,
                         p, math.sqrt(p * (1 - p) / runs))
                for unit, p in self.expected.items()] if self.units else []


class HeightWorkload(SampleWorkload):
    """Example 3.5: each person's mean height (off the marginals) vs µ."""

    def __init__(self, instance, n, run_seed):
        super().__init__(paper.HEIGHT_PROGRAM_TEXT, instance, n, run_seed)
        moments = {fact.args[0]: (fact.args[1], fact.args[2])
                   for fact in instance.facts_of("CMoments")}
        self.moments = {fact.args[0]: moments[fact.args[1]]
                        for fact in instance.facts_of("PCountry")}
        self.sums = dict.fromkeys(self.moments, 0.0)

    def absorb(self, marginals):
        mass = dict.fromkeys(self.moments, 0.0)
        total = dict.fromkeys(self.moments, 0.0)
        for entry in marginals:
            fact = entry["fact"]
            if fact["relation"] != "PHeight":
                continue
            person, height = fact["args"]
            if person not in mass:
                return f"unexpected fact PHeight({person}, ...)"
            mass[person] += entry["probability"]
            total[person] += entry["probability"] * height
        for person, weight in mass.items():
            if abs(weight - 1.0) > 1e-6:
                return f"PHeight({person}, .) marginals sum to {weight}"
        for person in self.sums:
            self.sums[person] += total[person]
        return None

    def verdicts(self):
        runs = self.units * self.n
        return [_z_check(f"E[height({person})]",
                         self.sums[person] / self.units, mu,
                         math.sqrt(var / runs))
                for person, (mu, var) in self.moments.items()] \
            if self.units else []


# ---------------------------------------------------------------------------
# The streaming workload
# ---------------------------------------------------------------------------


class SensorStreamWorkload:
    """observe ``Reading`` -> query the anomaly count -> retract."""

    def __init__(self, n: int, run_seed: int):
        self.n = n
        self.run_seed = run_seed
        self.means = {f"t{i}": 18.0 + 0.5 * i for i in range(SENSORS)}
        self.instance = {"Sensor": [[name, mu]
                                    for name, mu in self.means.items()]}
        self.stream_id = None
        self.estimates: list[float] = []
        self.min_ess = math.inf

    def setup(self, client: MeasuredClient, _attempt: int) -> None:
        """Compile, analysis, session, and the prior batch of the stream.

        ``batch_min_group: 1`` keeps every world columnar; at the
        default (2) some of the 2^8 Flaky patterns are singletons that
        finish on the scalar engine, and observing ``Reading`` then
        fails with "touches a scalar-fallback world".
        """
        response = client.request({
            "op": "stream_open", "program": SENSOR_PROGRAM,
            "instance": self.instance, "n": self.n,
            "config": {"seed": STREAM_SEED, "batch_min_group": 1}})
        if not response.get("ok"):
            raise RuntimeError(f"stream_open failed: "
                               f"{response.get('error')}")
        self.stream_id = response["result"]["stream_id"]

    def _send(self, client, payload: dict, sizes: list) -> dict:
        response = client.request({**payload, "stream_id": self.stream_id})
        sizes.append(client.reply_bytes)
        return response

    def unit(self, client: MeasuredClient, index: int) -> Outcome:
        rng = random.Random(request_seed(self.run_seed, index))
        sensor = rng.choice(sorted(self.means))
        value = self.means[sensor] + rng.gauss(0.0, math.sqrt(2.0))
        sizes: list[int] = []
        observed = self._send(client, {
            "op": "stream_observe",
            "observe": {"relation": "Reading", "carried": [sensor],
                        "value": value}}, sizes)
        if not observed.get("ok"):
            return Outcome(sum(sizes), f"observe failed: "
                           f"{observed.get('error')}")
        state = observed["result"]
        problem = None
        if state["n_evidence"] != 1:
            problem = f"n_evidence {state['n_evidence']} after observe"
        queried = self._send(client, {"op": "stream_query",
                                      "plan": ANOMALY_COUNT_PLAN}, sizes)
        retracted = self._send(client, {"op": "stream_observe",
                                        "retract": state["token"]}, sizes)
        if not queried.get("ok"):
            problem = problem or f"query failed: {queried.get('error')}"
        if not retracted.get("ok"):
            problem = problem or f"retract failed: " \
                f"{retracted.get('error')}"
        elif retracted["result"]["n_evidence"] != 0:
            problem = problem or "n_evidence " \
                f"{retracted['result']['n_evidence']} after retract"
        ess = state["effective_sample_size"]
        if problem is None:
            self.estimates.append(sum(
                answer["probability"]
                for answer in queried["result"]["answers"]
                if answer["rows"] == [[0]]))
            self.min_ess = min(self.min_ess, ess)
        return Outcome(sum(sizes), problem, {"ess": ess})

    def verdicts(self) -> list[Check]:
        if not self.estimates:
            return []
        # Every cycle reads the same weighted ensemble, so the
        # estimates are not independent: judge their mean at the
        # smallest effective sample size seen.
        p = (1 - P_FLAKY) ** SENSORS
        return [_z_check("P(no anomaly)",
                         sum(self.estimates) / len(self.estimates), p,
                         math.sqrt(p * (1 - p) / self.min_ess))]


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


#: Per-unit deadline, seconds: a unit slower than this counts failed.
DEADLINE_S = 5.0


def make(name: str, run_seed: int):
    """The workload ``name`` for one run."""
    if name == "ex34-paper":
        return AlarmWorkload(paper.example_3_4_instance(), 5000, run_seed)
    if name == "ex34-cities":
        return AlarmWorkload(
            generators.earthquake_city_instance(4, 4, seed=0), 100,
            run_seed)
    if name == "ex35-heights":
        return HeightWorkload(paper.example_3_5_instance(), 500, run_seed)
    if name == "sensor-stream":
        return SensorStreamWorkload(10_000, run_seed)
    raise ValueError(f"unknown workload {name!r}")
