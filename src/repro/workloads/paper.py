"""The paper's example programs, as ready-made constructors.

Each function returns the program (and input instance where one is
needed) exactly as printed in the paper:

* Example 1.1: ``G0``, ``Gε``, ``G'0`` and §6.2's ``H``, ``H'``
  (the semantics-comparison micro-programs);
* Example 3.4: the earthquake/burglary/alarm program of [3, Fig. 3];
* Example 3.5: continuous height sampling via ``Normal⟨µ, σ²⟩``;
* Section 6.3-style feedback programs (continuous and discrete cycles)
  used for the termination experiments.

Expected exact outcomes under both semantics are provided for the
discrete micro-programs as plain dictionaries, so tests and benchmarks
can assert against the paper's stated numbers.  One erratum: the
paper's prose values for ``Gε`` assume both biases are 1/2 + ε, while
the displayed program has 1/2 and 1/2 + ε; :func:`g_eps_expected`
follows the displayed program.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.program import Program
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance


# ---------------------------------------------------------------------------
# Example 1.1
# ---------------------------------------------------------------------------

def example_1_1_g0() -> Program:
    """``G0``: two syntactically identical fair coin rules."""
    return Program.parse("""
        R(Flip<0.5>) :- true.
        R(Flip<0.5>) :- true.
    """)


def example_1_1_g_eps(epsilon: float) -> Program:
    """``Gε``: biases 1/2 and 1/2 + ε (as printed in the paper)."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("the paper takes 0 < ε <= 1/2")
    return Program.parse(f"""
        R(Flip<0.5>) :- true.
        R(Flip<{0.5 + epsilon!r}>) :- true.
    """)


def example_1_1_g0_prime() -> Program:
    """``G'0``: same law, different distribution *names* (Flip, Flip')."""
    return Program.parse("""
        R(Flip<0.5>) :- true.
        R(Flip'<0.5>) :- true.
    """)


def example_1_1_g0_double_prime() -> Program:
    """``G''0`` (§6.2): the single-rule program ``R(Flip⟨1/2⟩) ← ⊤``."""
    return Program.parse("R(Flip<0.5>) :- true.")


def _r_world(*values: int) -> Instance:
    return Instance(Fact("R", (v,)) for v in values)


#: Our semantics on G0 / G'0 (identical - renaming invariance):
#: {R(1)} 1/4, {R(0)} 1/4, {R(0), R(1)} 1/2.
G0_EXPECTED_GROHE = {
    _r_world(1): 0.25,
    _r_world(0): 0.25,
    _r_world(0, 1): 0.5,
}

#: [3]'s semantics on G0: one shared sample - {R(1)} 1/2, {R(0)} 1/2.
G0_EXPECTED_BARANY = {
    _r_world(1): 0.5,
    _r_world(0): 0.5,
}

#: [3]'s semantics on G'0: names differ, so two independent samples.
G0_PRIME_EXPECTED_BARANY = dict(G0_EXPECTED_GROHE)


def g_eps_expected(epsilon: float) -> dict[Instance, float]:
    """Exact outcomes of ``Gε`` with biases (1/2, 1/2 + ε).

    Both semantics agree on ``Gε`` (the parameters differ, so [3] also
    samples twice).  Note the paper's prose values (1/4 + ε + ε², ...)
    correspond to *both* biases being 1/2 + ε; the displayed program
    has biases 1/2 and 1/2 + ε, giving the values below.  Either way
    the discontinuity claim is unaffected: as ε → 0 both versions tend
    to ``G0``'s outcomes under our semantics, in which {R(0), R(1)} has
    probability 1/2, whereas [3] samples ``G0`` once and never
    produces that world.
    """
    p, q = Fraction(1, 2), Fraction(1, 2) + Fraction(epsilon)
    return {
        _r_world(1): float(p * q),
        _r_world(0): float((1 - p) * (1 - q)),
        _r_world(0, 1): float(p * (1 - q) + (1 - p) * q),
    }


def g_eps_expected_paper_prose(epsilon: float) -> dict[Instance, float]:
    """The prose reading: both biases 1/2 + ε (values as printed)."""
    q = Fraction(1, 2) + Fraction(epsilon)
    return {
        _r_world(1): float(q * q),
        _r_world(0): float((1 - q) * (1 - q)),
        _r_world(0, 1): float(2 * q * (1 - q)),
    }


# ---------------------------------------------------------------------------
# Section 6.2: H and H'
# ---------------------------------------------------------------------------

def section_6_2_h() -> Program:
    """``H``: R and S each sample a fair coin."""
    return Program.parse("""
        R(Flip<0.5>) :- true.
        S(Flip<0.5>) :- true.
    """)


def section_6_2_h_prime() -> Program:
    """``H'``: sampling pulled out into the auxiliary predicate A."""
    return Program.parse("""
        A(Flip<0.5>) :- true.
        R(x) :- A(x).
        S(x) :- A(x).
    """)


def _rs_world(r: int, s: int) -> Instance:
    return Instance.of(Fact("R", (r,)), Fact("S", (s,)))


#: Our semantics on H: four outcomes, 1/4 each.
H_EXPECTED_GROHE = {
    _rs_world(0, 0): 0.25, _rs_world(0, 1): 0.25,
    _rs_world(1, 0): 0.25, _rs_world(1, 1): 0.25,
}

#: [3]'s semantics on H: shared sample - perfectly correlated.
H_EXPECTED_BARANY = {
    _rs_world(0, 0): 0.5,
    _rs_world(1, 1): 0.5,
}

#: H' under our semantics, restricted to {R, S}: equals [3] on H.
H_PRIME_EXPECTED_RESTRICTED = dict(H_EXPECTED_BARANY)


# ---------------------------------------------------------------------------
# Example 3.4: earthquake / burglary / alarm ([3, Fig. 3])
# ---------------------------------------------------------------------------

EARTHQUAKE_PROGRAM_TEXT = """
    Earthquake(c, Flip<0.1>)    :- City(c, r).
    Unit(h, c)                  :- House(h, c).
    Unit(b, c)                  :- Business(b, c).
    Burglary(x, c, Flip<r>)     :- Unit(x, c), City(c, r).
    Trig(x, Flip<0.6>)          :- Unit(x, c), Earthquake(c, 1).
    Trig(x, Flip<0.9>)          :- Burglary(x, c, 1).
    Alarm(x)                    :- Trig(x, 1).
"""


def example_3_4_program() -> Program:
    """The GDatalog program of Example 3.4 (earthquake model)."""
    return Program.parse(EARTHQUAKE_PROGRAM_TEXT)


def example_3_4_instance(cities: dict[str, float] | None = None,
                         houses: dict[str, str] | None = None,
                         businesses: dict[str, str] | None = None,
                         ) -> Instance:
    """An input instance for Example 3.4.

    Defaults to the two-city scenario used in [3]'s exposition: Napa
    (burglary rate 0.03) and Davis (rate 0.01), one house and one
    business.
    """
    cities = cities if cities is not None else \
        {"Napa": 0.03, "Davis": 0.01}
    houses = houses if houses is not None else {"house-1": "Napa"}
    businesses = businesses if businesses is not None else \
        {"biz-1": "Davis"}
    facts = [Fact("City", (name, rate))
             for name, rate in cities.items()]
    facts += [Fact("House", (h, c)) for h, c in houses.items()]
    facts += [Fact("Business", (b, c)) for b, c in businesses.items()]
    return Instance(facts)


def alarm_probability_closed_form(city_rate: float,
                                  p_quake: float = 0.1,
                                  p_trig_quake: float = 0.6,
                                  p_trig_burglary: float = 0.9) -> float:
    """Exact P(Alarm(x)) for a unit in a city with the given rate.

    A unit's alarm triggers via the earthquake path (quake occurred and
    triggered) or the burglary path (burglary occurred and triggered);
    the paths are independent given the model structure:

    ``P = 1 − (1 − p_q·p_tq)(1 − r·p_tb)``.
    """
    quake_path = p_quake * p_trig_quake
    burglary_path = city_rate * p_trig_burglary
    return 1.0 - (1.0 - quake_path) * (1.0 - burglary_path)


# ---------------------------------------------------------------------------
# Example 3.5: continuous height model
# ---------------------------------------------------------------------------

HEIGHT_PROGRAM_TEXT = """
    PHeight(p, Normal<mu, sigma2>) :- PCountry(p, c),
                                      CMoments(c, mu, sigma2).
"""


def example_3_5_program() -> Program:
    """The continuous program of Example 3.5 (height sampling)."""
    return Program.parse(HEIGHT_PROGRAM_TEXT)


def example_3_5_instance(moments: dict[str, tuple[float, float]]
                         | None = None,
                         persons_per_country: int = 3,
                         ) -> Instance:
    """People + country moment table for Example 3.5.

    ``moments`` maps country name to (mean, variance) of heights.
    """
    moments = moments if moments is not None else {
        "NL": (183.8, 49.0), "PE": (165.2, 36.0)}
    facts = []
    for country, (mu, var) in moments.items():
        facts.append(Fact("CMoments", (country, mu, var)))
        for index in range(persons_per_country):
            facts.append(Fact("PCountry",
                              (f"{country.lower()}-p{index}", country)))
    return Instance(facts)


# ---------------------------------------------------------------------------
# Section 6.3: feedback (cyclic) programs for termination experiments
# ---------------------------------------------------------------------------

def continuous_feedback_program() -> Program:
    """A continuous special cycle: almost surely non-terminating.

    ``Value`` feeds its own sampling rule: each sample produces a fresh
    real, which (almost surely) differs from all earlier parameters, so
    a new pair is always applicable (Section 6.3's argument).
    """
    return Program.parse("""
        Value(Normal<0, 1>) :- Seed(s).
        Value(Normal<v, 1>) :- Value(v).
    """)


def discrete_feedback_program(p: float = 0.5) -> Program:
    """A Flip-driven walk along a finite ``Succ`` chain.

    The recursion runs through *deterministic* positions only (the
    sampled bit gates the next hop but is never fed back as a value),
    so the program is weakly acyclic and terminates on every finite
    chain; the number of samples drawn is geometric.  Used as the
    terminating contrast case in experiment E8.
    """
    return Program.parse(f"""
        Reach(0, Flip<{p!r}>) :- Seed(s).
        Reach(n, Flip<{p!r}>) :- Reach(m, 1), Succ(m, n).
    """)


def discrete_cycle_program(rate: float = 1.0) -> Program:
    """A genuine discrete special cycle (not weakly acyclic).

    Each trigger value spawns a Poisson sample, and each sampled value
    becomes a new trigger.  The chase terminates exactly when every
    sampled value repeats an already-triggered one; with an infinite
    support this can take unboundedly many steps, yet termination is
    almost sure for moderate rates (the walk keeps revisiting small
    naturals).  This is the discrete-cycle class whose AST bounds the
    paper defers to future work (Section 6.3).
    """
    return Program.parse(f"""
        Chain(v, Poisson<{rate!r}>) :- Trigger(v).
        Trigger(w) :- Chain(v, w).
    """)


def trigger_instance(start: int = 0) -> Instance:
    """``Trigger(start)`` - seed of :func:`discrete_cycle_program`."""
    return Instance.of(Fact("Trigger", (start,)))


def seed_instance(chain_length: int = 0) -> Instance:
    """``Seed(0)`` plus a successor chain for the discrete feedback."""
    facts = [Fact("Seed", (0,))]
    facts += [Fact("Succ", (i, i + 1)) for i in range(chain_length)]
    return Instance(facts)


def random_walk_expected_steps(p: float, chain_length: int) -> float:
    """Expected number of Reach samples with success bias p, chain L.

    The walk samples at node 0, then advances while 1s are drawn:
    E[samples] = 1 + p + p² + ... up to the chain length.
    """
    return float(sum(p ** k for k in range(chain_length + 1)))
