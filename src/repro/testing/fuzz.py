"""Seeded random GDatalog workload generation.

The differential-testing subsystem needs an unbounded supply of
*well-formed* programs and input instances that span the grammar of
Definition 3.3: deterministic and random rules, bodiless (⊤) rules,
recursion, every registered distribution, parameters taken from data,
and programs on both sides of the weak-acyclicity line of Section 6.3.

Everything is driven by one :class:`numpy.random.Generator`, so a case
is fully determined by its integer seed: ``generate_case(seed)`` always
returns the same :class:`FuzzCase`, and a failing seed printed by the
fuzz runner reproduces the workload exactly.

Cases come in four *kinds*, chosen so that every differential oracle
(:mod:`repro.testing.oracles`) has workloads it can run on:

* ``"deterministic"`` - plain Datalog (naive/semi-naive fixpoints and
  the trivial one-world chase);
* ``"exact"`` - discrete, weakly-acyclic, finite-support programs whose
  chase trees are small enough to enumerate exactly (sequential vs
  parallel vs Monte-Carlo agreement);
* ``"sampling"`` - arbitrary registered distributions, including
  continuous and infinite-support discrete families (statistical
  oracles only);
* ``"cyclic"`` - weak acyclicity *off*: recursion through a random
  rule, exercising the termination analysis and the err-mass paths.

A share of the ``"exact"`` and ``"sampling"`` cases is drawn as a
*trigger cascade* (Example 3.4's shape): per-key draws whose hits open
further draws, several triggers to a layer, over rules whose cascade
rounds compose from one-trigger rounds.

Generated programs use only the parseable surface syntax, so every
case round-trips through :func:`repro.core.source.program_to_source` -
which is what lets :mod:`repro.testing.corpus` persist shrunk
reproducers as plain text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.atoms import Atom
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import Const, RandomTerm, Term, Var
from repro.distributions.registry import (DEFAULT_REGISTRY,
                                          DistributionRegistry)
from repro.pdb.facts import Fact
from repro.pdb.instances import Instance

#: The four workload kinds (see module docstring).
KINDS = ("deterministic", "exact", "sampling", "cyclic")

#: Finite-support discrete families: safe for exact enumeration.
FINITE_DISCRETE = ("Flip", "Bernoulli", "FlipPrime", "Binomial",
                   "DiscreteUniform", "Categorical")
#: Discrete families with infinite support (truncated enumeration only).
INFINITE_DISCRETE = ("Poisson", "Geometric")
#: Continuous families (Monte-Carlo only).
CONTINUOUS = ("Normal", "LogNormal", "Exponential", "Uniform", "Gamma",
              "Beta", "Laplace")

_VARS = ("x", "y", "z", "w")
_INT_POOL = (0, 1, 2, 3)
_STR_POOL = ("a", "b")
#: Share of ``"exact"`` and ``"sampling"`` cases drawn as a trigger
#: cascade (:func:`_generate_cascade`).
CASCADE_SHARE = 0.3
#: Exact probability simplices for Categorical (sum to 1 within 1e-9).
_SIMPLICES = ((0.5, 0.5), (0.25, 0.75), (0.2, 0.3, 0.5),
              (0.25, 0.25, 0.5))


@dataclass(frozen=True)
class FuzzConfig:
    """Tunable knobs of the workload generator (all bounded small).

    The bounds for ``"exact"`` cases are deliberately tight - random
    rule bodies reference relations with at most ``max_exact_facts``
    facts, keeping the chase tree below a few hundred leaves so exact
    enumeration stays cheap inside a large fuzz budget.
    """

    kinds: tuple[str, ...] = KINDS
    kind_weights: tuple[float, ...] = (0.2, 0.35, 0.3, 0.15)
    max_extensional: int = 3
    max_facts: int = 3
    max_exact_facts: int = 2
    max_det_rules: int = 3
    max_random_rules: int = 3
    max_exact_random_rules: int = 2
    registry: DistributionRegistry = field(default=DEFAULT_REGISTRY)

    def __post_init__(self) -> None:
        if len(self.kinds) != len(self.kind_weights):
            raise ValueError("kinds and kind_weights must align")
        unknown = set(self.kinds) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown fuzz kinds: {sorted(unknown)}")


DEFAULT_FUZZ_CONFIG = FuzzConfig()


@dataclass(frozen=True)
class FuzzCase:
    """One generated workload: a program, its input, and provenance.

    ``input_pdb`` is an optional probabilistic *input* database over
    subsets of the instance (tuple-independent, small support); cases
    carrying one exercise the ``apply_to_pdb`` mixture semantics
    (Theorem 4.8) in addition to the plain single-instance chase.
    ``cascade`` marks a trigger-cascade case
    (:func:`_generate_cascade`).
    """

    seed: int
    kind: str
    program: Program
    instance: Instance
    input_pdb: Any = None
    cascade: bool = False

    def describe(self) -> str:
        """One-line summary used in reports and discrepancy details."""
        pdb = " pdb-input" if self.input_pdb is not None else ""
        cascade = " cascade" if self.cascade else ""
        return (f"seed={self.seed} kind={self.kind} "
                f"rules={len(self.program)} "
                f"random={len(self.program.random_rules())} "
                f"facts={len(self.instance)}{pdb}{cascade}")


def case_seed(root_seed: int, index: int) -> int:
    """The derived seed of case ``index`` in a budgeted run.

    Uses :class:`numpy.random.SeedSequence` so consecutive indices give
    decorrelated generators while staying reproducible from
    ``(root_seed, index)``.
    """
    sequence = np.random.SeedSequence([int(root_seed), int(index)])
    return int(sequence.generate_state(1, np.uint32)[0])


def generate_case(seed: int, config: FuzzConfig | None = None,
                  kind: str | None = None) -> FuzzCase:
    """Generate one deterministic random workload from a seed.

    ``kind`` forces a specific workload kind; by default it is drawn
    from ``config.kind_weights``.
    """
    config = config or DEFAULT_FUZZ_CONFIG
    rng = np.random.default_rng(int(seed))
    if kind is None:
        weights = np.asarray(config.kind_weights, dtype=float)
        kind = str(rng.choice(list(config.kinds),
                              p=weights / weights.sum()))
    if kind not in KINDS:
        raise ValueError(f"unknown fuzz kind {kind!r}")
    cascade = None
    if kind in ("exact", "sampling"):
        # A spawned generator takes no draw from ``rng``, so every case
        # that is not a cascade is drawn as before.
        shape = rng.spawn(1)[0]
        if shape.random() < CASCADE_SHARE:
            cascade = shape
    if kind == "cyclic":
        program, instance = _generate_cyclic(rng, config)
    elif cascade is not None:
        program, instance = _generate_cascade(cascade, config, kind)
    else:
        program, instance = _generate_layered(rng, config, kind)
    # A cascade case draws all of its randomness from its own generator.
    source = rng if cascade is None else cascade
    input_pdb = None
    if kind == "exact" and len(instance) and source.random() < 0.3:
        input_pdb = random_input_pdb(instance, source)
    return FuzzCase(int(seed), kind, program, instance, input_pdb,
                    cascade=cascade is not None)


def random_input_pdb(instance: Instance, rng: np.random.Generator):
    """A small tuple-independent input PDB over the instance's facts.

    Each fact is kept independently with a probability drawn from
    ``{0.5, 0.75, 1.0}`` (exact dyadic values so world probabilities
    round-trip through text); the support is capped at 8 worlds by
    treating at most three facts as uncertain.  Used by the
    ``apply_to_pdb`` mixture checks (Theorem 4.8).
    """
    from repro.measures.discrete import DiscreteMeasure
    from repro.pdb.database import DiscretePDB

    facts = sorted(instance.facts, key=lambda f: f.sort_key())
    uncertain = facts[:3]
    certain = tuple(facts[3:])
    probabilities = [float(rng.choice((0.5, 0.75, 1.0)))
                     for _ in uncertain]
    worlds: dict = {}
    for mask in range(1 << len(uncertain)):
        weight = 1.0
        included = list(certain)
        for index, (fact, p) in enumerate(zip(uncertain,
                                              probabilities)):
            if mask >> index & 1:
                weight *= p
                included.append(fact)
            else:
                weight *= 1.0 - p
        if weight <= 0.0:
            continue
        world = Instance(included)
        worlds[world] = worlds.get(world, 0.0) + weight
    return DiscretePDB(DiscreteMeasure(worlds))


# ---------------------------------------------------------------------------
# Distribution parameters
# ---------------------------------------------------------------------------

def distribution_parameters(name: str, rng: np.random.Generator,
                            ) -> tuple:
    """A random *valid* parameter tuple for a registered family.

    Values are rounded so that their ``repr`` round-trips through the
    surface syntax unchanged.
    """
    u = lambda low, high: round(float(rng.uniform(low, high)), 3)  # noqa: E731
    if name in ("Flip", "Bernoulli", "FlipPrime"):
        return (u(0.1, 0.9),)
    if name == "Binomial":
        return (int(rng.integers(1, 4)), u(0.2, 0.8))
    if name == "DiscreteUniform":
        low = int(rng.integers(0, 3))
        return (low, low + int(rng.integers(0, 3)))
    if name == "Categorical":
        return tuple(_SIMPLICES[int(rng.integers(len(_SIMPLICES)))])
    if name == "Poisson":
        return (u(0.3, 2.0),)
    if name == "Geometric":
        return (u(0.3, 0.9),)
    if name == "Normal":
        return (u(-2.0, 2.0), u(0.5, 2.0))
    if name == "LogNormal":
        return (u(-0.5, 0.5), u(0.2, 1.0))
    if name == "Exponential":
        return (u(0.5, 2.0),)
    if name == "Uniform":
        low = u(-2.0, 1.0)
        return (low, low + u(0.5, 2.0))
    if name == "Gamma":
        return (u(0.5, 3.0), u(0.5, 2.0))
    if name == "Beta":
        return (u(0.5, 3.0), u(0.5, 3.0))
    if name == "Laplace":
        return (u(-1.0, 1.0), u(0.5, 1.5))
    raise ValueError(f"no parameter sampler for distribution {name!r}")


def _distribution_names(kind: str) -> tuple[str, ...]:
    if kind == "exact":
        return FINITE_DISCRETE
    return FINITE_DISCRETE + INFINITE_DISCRETE + CONTINUOUS


# ---------------------------------------------------------------------------
# Layered generation (deterministic / exact / sampling)
# ---------------------------------------------------------------------------

class _Builder:
    """Mutable state threaded through one generation run."""

    def __init__(self, rng: np.random.Generator, config: FuzzConfig,
                 kind: str):
        self.rng = rng
        self.config = config
        self.kind = kind
        self.arities: dict[str, int] = {}
        self.rules: list[Rule] = []
        self.facts: list[Fact] = []
        self.extensional: list[str] = []
        #: Relations a random-rule body may reference (kept small for
        #: ``"exact"`` so chase trees stay enumerable).
        self.random_body_pool: list[str] = []
        #: Relations a deterministic-rule body may reference.
        self.det_body_pool: list[str] = []
        self._fresh = 0

    def fresh_relation(self, prefix: str, arity: int) -> str:
        name = f"{prefix}{self._fresh}"
        self._fresh += 1
        self.arities[name] = arity
        return name

    def random_const(self) -> Const:
        if self.rng.random() < 0.2:
            return Const(str(self.rng.choice(_STR_POOL)))
        return Const(int(self.rng.choice(_INT_POOL)))

    def body_atom(self, relation: str,
                  bound: list[Var]) -> tuple[Atom, list[Var]]:
        """One body atom; variables favour reuse to create joins."""
        terms: list[Term] = []
        new_bound = list(bound)
        for _ in range(self.arities[relation]):
            roll = self.rng.random()
            if roll < 0.25:
                terms.append(self.random_const())
            elif new_bound and roll < 0.65:
                terms.append(new_bound[int(self.rng.integers(
                    len(new_bound)))])
            else:
                candidates = [Var(v) for v in _VARS
                              if Var(v) not in new_bound]
                variable = candidates[int(self.rng.integers(
                    len(candidates)))] if candidates \
                    else new_bound[int(self.rng.integers(
                        len(new_bound)))]
                if variable not in new_bound:
                    new_bound.append(variable)
                terms.append(variable)
        return Atom(relation, terms), new_bound


def _add_extensional(builder: _Builder) -> None:
    rng, config = builder.rng, builder.config
    n_relations = int(rng.integers(1, config.max_extensional + 1))
    max_facts = config.max_exact_facts if builder.kind == "exact" \
        else config.max_facts
    for _ in range(n_relations):
        arity = int(rng.integers(1, 3))
        name = builder.fresh_relation("E", arity)
        builder.extensional.append(name)
        builder.random_body_pool.append(name)
        builder.det_body_pool.append(name)
        for _ in range(int(rng.integers(0, max_facts + 1))):
            args = []
            for position in range(arity):
                if position == 0 and rng.random() < 0.25:
                    args.append(str(rng.choice(_STR_POOL)))
                else:
                    args.append(int(rng.choice(_INT_POOL)))
            fact = Fact(name, tuple(args))
            if fact not in builder.facts:
                builder.facts.append(fact)


def _add_deterministic_rules(builder: _Builder, minimum: int) -> None:
    rng, config = builder.rng, builder.config
    n_rules = int(rng.integers(minimum, config.max_det_rules + 1))
    for _ in range(n_rules):
        n_atoms = int(rng.integers(1, 4))
        body: list[Atom] = []
        bound: list[Var] = []
        for _ in range(n_atoms):
            relation = builder.det_body_pool[int(rng.integers(
                len(builder.det_body_pool)))]
            body_atom, bound = builder.body_atom(relation, bound)
            body.append(body_atom)
        arity = int(rng.integers(1, 3))
        head_terms: list[Term] = []
        for _ in range(arity):
            if bound and rng.random() < 0.85:
                head_terms.append(bound[int(rng.integers(len(bound)))])
            else:
                head_terms.append(builder.random_const())
        name = builder.fresh_relation("D", arity)
        rule = Rule(Atom(name, head_terms), body)
        builder.rules.append(rule)
        builder.det_body_pool.append(name)
        # Deterministic heads join the random-body pool only outside
        # "exact" (their fact count is not bounded tightly enough).
        if builder.kind != "exact":
            builder.random_body_pool.append(name)
        if rng.random() < 0.15:
            builder.rules.append(rule)  # duplicate-rule coverage


def _add_recursion(builder: _Builder) -> None:
    """A transitive-closure pair over an arity-2 extensional relation."""
    rng = builder.rng
    binary = [name for name in builder.extensional
              if builder.arities[name] == 2]
    if not binary or rng.random() > 0.35:
        return
    edge = binary[int(rng.integers(len(binary)))]
    path = builder.fresh_relation("P", 2)
    x, y, z = Var("x"), Var("y"), Var("z")
    builder.rules.append(Rule(Atom(path, (x, y)),
                              (Atom(edge, (x, y)),)))
    builder.rules.append(Rule(Atom(path, (x, z)),
                              (Atom(path, (x, y)), Atom(edge, (y, z)))))
    builder.det_body_pool.append(path)


def _add_fact_rules(builder: _Builder) -> None:
    """Bodiless ground rules - the paper's ``head ← ⊤`` device."""
    rng = builder.rng
    if rng.random() > 0.3:
        return
    arity = int(rng.integers(1, 3))
    name = builder.fresh_relation("K", arity)
    terms = tuple(builder.random_const() for _ in range(arity))
    builder.rules.append(Rule(Atom(name, terms), ()))
    builder.det_body_pool.append(name)
    if builder.kind != "exact":
        builder.random_body_pool.append(name)


def _variable_parameter_relation(builder: _Builder,
                                 name: str) -> tuple[Atom, Var] | None:
    """A data-bound distribution parameter (the Example 3.4 pattern).

    Creates a dedicated extensional relation carrying *valid* parameter
    values, a body atom reading it, and returns the parameter variable.
    Only single-float-parameter families participate - their whole
    sampled range is valid, so no run can escape ``Θ_ψ``.
    """
    rng = builder.rng
    # One row for "exact" cases: parameter-relation joins multiply the
    # firing count, and exact enumeration is exponential in it.
    n_values = 1 if builder.kind == "exact" \
        else int(rng.integers(1, 3))
    if name in ("Flip", "Bernoulli", "FlipPrime", "Geometric"):
        values = [round(float(rng.uniform(0.1, 0.9)), 3)
                  for _ in range(n_values)]
    elif name in ("Exponential", "Poisson"):
        values = [round(float(rng.uniform(0.4, 2.0)), 3)
                  for _ in range(n_values)]
    else:
        return None
    relation = builder.fresh_relation("Par", 2)
    builder.extensional.append(relation)
    for key, value in enumerate(values):
        builder.facts.append(Fact(relation, (key, value)))
    key_var, param_var = Var("k"), Var("p")
    return Atom(relation, (key_var, param_var)), param_var


def _add_random_rules(builder: _Builder, minimum: int) -> None:
    rng, config = builder.rng, builder.config
    names = _distribution_names(builder.kind)
    limit = config.max_exact_random_rules if builder.kind == "exact" \
        else config.max_random_rules
    n_rules = int(rng.integers(minimum, limit + 1))
    for _ in range(n_rules):
        name = str(names[int(rng.integers(len(names)))])
        distribution = config.registry[name]
        bodiless = rng.random() < 0.15
        body: list[Atom] = []
        bound: list[Var] = []
        if not bodiless:
            relation = builder.random_body_pool[int(rng.integers(
                len(builder.random_body_pool)))]
            body_atom, bound = builder.body_atom(relation, bound)
            body.append(body_atom)
        params: list[Term] = [Const(v) for v in
                              distribution_parameters(name, rng)]
        if not bodiless and rng.random() < 0.35:
            data_bound = _variable_parameter_relation(builder, name)
            if data_bound is not None:
                parameter_atom, parameter_var = data_bound
                body.append(parameter_atom)
                params[0] = parameter_var
        random_term = RandomTerm(distribution, params)
        carried_limit = min(2, len(bound))
        n_carried = int(rng.integers(0, carried_limit + 1))
        carried: list[Term] = [bound[int(rng.integers(len(bound)))]
                               for _ in range(n_carried)]
        position = int(rng.integers(0, n_carried + 1))
        head_terms = carried[:position] + [random_term] \
            + carried[position:]
        if rng.random() < 0.15:
            # Multi-random-term head: exercises the normalize path
            # (Split# relations + recombination, core.normalize).
            second_name = str(names[int(rng.integers(len(names)))])
            second = RandomTerm(
                config.registry[second_name],
                tuple(Const(v) for v in
                      distribution_parameters(second_name, rng)))
            head_terms.insert(int(rng.integers(0, len(head_terms) + 1)),
                              second)
        head_name = builder.fresh_relation("R", len(head_terms))
        builder.rules.append(Rule(Atom(head_name, head_terms), body))
        builder.det_body_pool.append(head_name)
        # Chained sampling: a later random rule may read this head.
        # Safe for "exact" too - one fact per firing keeps it bounded.
        builder.random_body_pool.append(head_name)


def _generate_layered(rng: np.random.Generator, config: FuzzConfig,
                      kind: str) -> tuple[Program, Instance]:
    builder = _Builder(rng, config, kind)
    _add_extensional(builder)
    _add_fact_rules(builder)
    _add_recursion(builder)
    if kind == "deterministic":
        _add_deterministic_rules(builder, minimum=1)
    else:
        _add_deterministic_rules(builder, minimum=0)
        _add_random_rules(builder, minimum=1)
        if rng.random() < 0.4:
            _add_deterministic_rules(builder, minimum=1)
    if not builder.rules:  # cannot happen, but Program requires >= 1
        builder.rules.append(Rule(Atom("K0", (Const(0),)), ()))
    return (Program(builder.rules, registry=config.registry),
            Instance(builder.facts))


def _generate_cascade(rng: np.random.Generator, config: FuzzConfig,
                      kind: str) -> tuple[Program, Instance]:
    """Example 3.4's shape: per-key draws whose hits open more draws.

    One or two first-layer random rules draw a finite-support value
    for each of two ``Key`` facts, so a layer holds several triggers;
    a trigger rule (or two, sharing a head as Example 3.4's ``Trig``
    rules do) draws again for a key whose draw hit 1, a third level
    may follow, and deterministic rules read the hits, as may a draw
    that two levels can open.  No rule body joins two atoms over
    growable relations, so the batched chase composes the cascade's
    rounds from one-trigger rounds (the ``composed-whole`` oracle).
    Under ``"sampling"`` the later draws may be continuous; a
    third-level rule may carry a discrete drawn value into its head,
    which puts it in every signature.
    """
    registry = config.registry
    names = _distribution_names(kind)
    key, value = Var("k"), Var("v")
    facts = [Fact("Key", (0,)), Fact("Key", (1,))]
    rules: list[Rule] = []

    def draw(name: str, params=None) -> RandomTerm:
        if params is None:
            params = distribution_parameters(name, rng)
        return RandomTerm(registry[name], tuple(Const(p) for p in params))

    first = []
    for index in range(int(rng.integers(1, 3))):
        family = ("Flip", "DiscreteUniform", "Categorical")[
            int(rng.integers(3))]
        params = {"Flip": (round(float(rng.uniform(0.3, 0.8)), 3),),
                  "DiscreteUniform": (0, int(rng.integers(1, 3))),
                  "Categorical": (0.5, 0.5)}[family]
        head = f"L{index}"
        rules.append(Rule(Atom(head, (key, draw(family, params))),
                          (Atom("Key", (key,)),)))
        first.append(head)
    hit = Const(1)
    families = [str(rng.choice(names))
                for _ in first[:1 + int(rng.integers(len(first)))]]
    for source, family in zip(first, families):
        rules.append(Rule(Atom("T", (key, draw(family))),
                          (Atom(source, (key, hit)),)))
    if rng.random() < 0.5:
        if rng.random() < 0.5 \
                and all(family in FINITE_DISCRETE for family in families):
            # Carries T's value: an always-trigger.  A continuous one
            # would make every world its own group.
            rules.append(Rule(Atom("U", (key, value, draw("Flip"))),
                              (Atom("T", (key, value)),)))
        else:
            rules.append(Rule(Atom("U", (key, draw("Flip"))),
                              (Atom("T", (key, hit)),)))
    rules.append(Rule(Atom("Z", (key,)),
                      (Atom("T", (key, hit)), Atom("Key", (key,)))))
    rules.append(Rule(Atom("Z", (key,)),
                      (Atom(first[-1], (key, hit)),)))
    if rng.random() < 0.5:
        # Z follows from a first-layer hit and from a T hit, so a
        # T hit may open a draw another first-layer hit opened before.
        rules.append(Rule(Atom("W", (key, draw("Flip"))),
                          (Atom("Z", (key,)),)))
    return Program(rules, registry=registry), Instance(facts)


# ---------------------------------------------------------------------------
# Cyclic generation (weak acyclicity off)
# ---------------------------------------------------------------------------

def _generate_cyclic(rng: np.random.Generator, config: FuzzConfig,
                     ) -> tuple[Program, Instance]:
    """Recursion through a random rule (Section 6.3 territory).

    Continuous template: ``Q(Normal⟨x, s⟩) ← Q(x)`` - the body value
    feeds the parameters, so the position graph has a special cycle,
    and fresh continuous samples almost surely avoid every finite set:
    the chase almost surely diverges.  Discrete template:
    ``Q(DiscreteUniform⟨0, x⟩) ← Q(x)`` - the same special cycle, but
    samples stay in the finite range ``{0..seed}``, so every chase
    terminates: the analysis's "may-terminate" bucket.

    In both, the body variable must occur in the head's random term -
    a cyclic rule whose head carries no body variable translates to a
    fire-once existential and is weakly acyclic after all.
    """
    x = Var("x")
    rules: list[Rule] = []
    continuous = rng.random() < 0.6
    if continuous:
        distribution = config.registry["Normal"]
        scale = round(float(rng.uniform(0.5, 2.0)), 3)
        seed_value = round(float(rng.uniform(-1.0, 1.0)), 3)
        rules.append(Rule(Atom("Q", (Const(seed_value),)), ()))
        rules.append(Rule(
            Atom("Q", (RandomTerm(distribution,
                                  (x, Const(scale))),)),
            (Atom("Q", (x,)),)))
    else:
        distribution = config.registry["DiscreteUniform"]
        seed_value = int(rng.integers(1, 4))
        rules.append(Rule(Atom("Q", (Const(seed_value),)), ()))
        rules.append(Rule(
            Atom("Q", (RandomTerm(distribution,
                                  (Const(0), x)),)),
            (Atom("Q", (x,)),)))
    facts: list[Fact] = []
    if rng.random() < 0.5:
        # Bystander structure: an acyclic part riding along the cycle.
        flip = config.registry["Flip"]
        bias = round(float(rng.uniform(0.2, 0.8)), 3)
        rules.append(Rule(
            Atom("R0", (x, RandomTerm(flip, (Const(bias),)))),
            (Atom("E0", (x,)),)))
        facts = [Fact("E0", (i,))
                 for i in range(int(rng.integers(1, 3)))]
    return Program(rules, registry=config.registry), Instance(facts)


# ---------------------------------------------------------------------------
# Coverage-guided generation
# ---------------------------------------------------------------------------

def case_features(case: FuzzCase) -> frozenset:
    """Feature buckets of a workload, for coverage-guided generation.

    Buckets describe the *translated* program where that is what the
    engines actually see: auxiliary-relation count, induced-FD arity
    (the auxiliary arity of Section 3.5), and the cycle kind of the
    termination analysis - plus surface shape (kind, carried-value
    arity, distribution families, data-bound parameters, recursion,
    duplicate and bodiless rules, fact-count bands).
    """
    from repro.core.termination import analyze_termination
    from repro.errors import ReproError

    features = {f"kind:{case.kind}",
                f"facts:{min(len(case.instance), 3)}"}
    if case.input_pdb is not None:
        features.add("shape:pdb-input")
    program = case.program
    rules = list(program.rules)
    if len(rules) != len(set(rules)):
        features.add("shape:duplicate-rules")
    heads = {rule.head.relation for rule in rules}
    if any(atom.relation in heads
           for rule in rules for atom in rule.body):
        features.add("shape:recursive")
    for rule in rules:
        if not rule.body:
            features.add("shape:bodiless-random" if rule.is_random()
                         else "shape:bodiless-det")
    random_rules = program.random_rules()
    features.add(f"random-rules:{min(len(random_rules), 3)}")
    for rule in random_rules:
        if not rule.is_normal_form():
            features.add("shape:multi-random-head")
            continue
        _position, term = rule.single_random_term()
        features.add(f"dist:{term.distribution.name}")
        features.add(f"carried:{min(len(rule.head.terms) - 1, 2)}")
        if any(isinstance(param, Var) for param in term.params):
            features.add("shape:data-bound-param")
    try:
        translated = program.translate()
        features.add(f"aux:{min(len(translated.aux_relations), 3)}")
        for info in translated.aux_info.values():
            features.add(f"fd-arity:{min(info.arity, 5)}")
        report = analyze_termination(translated)
        if report.weakly_acyclic:
            features.add("cycle:none")
        elif report.almost_surely_diverges():
            features.add("cycle:continuous")
        else:
            features.add("cycle:discrete")
    except ReproError:
        features.add("shape:untranslatable")
    return frozenset(features)


class CoverageTracker:
    """Feature buckets seen so far in a coverage-guided fuzz run."""

    def __init__(self):
        self.seen: set[str] = set()
        self.picked = 0

    def novelty(self, case: FuzzCase) -> int:
        """How many of the case's buckets are still unseen."""
        return len(case_features(case) - self.seen)

    def record(self, case: FuzzCase) -> None:
        self.seen.update(case_features(case))
        self.picked += 1


def generate_case_guided(seed: int, tracker: CoverageTracker,
                         config: FuzzConfig | None = None,
                         n_candidates: int = 6) -> FuzzCase:
    """One workload biased toward not-yet-covered feature buckets.

    Proposes ``n_candidates`` candidates - each from its own derived
    sub-seed, cycling the workload *kinds* so under-drawn kinds keep
    being offered - and keeps the one covering the most unseen buckets
    (ties: first).  Deterministic in ``(seed, tracker state)``; every
    produced case reproduces exactly via
    ``generate_case(case.seed, kind=case.kind)`` since the kind is
    always passed explicitly.
    """
    config = config or DEFAULT_FUZZ_CONFIG
    kinds = config.kinds
    best: FuzzCase | None = None
    best_score = (-1, 0)
    for index in range(max(1, int(n_candidates))):
        kind = str(kinds[(tracker.picked + index) % len(kinds)])
        candidate = generate_case(case_seed(int(seed), index), config,
                                  kind=kind)
        score = (tracker.novelty(candidate), -index)
        if score > best_score:
            best, best_score = candidate, score
    assert best is not None
    tracker.record(best)
    return best


# ---------------------------------------------------------------------------
# Case utilities shared by oracles and the shrinker
# ---------------------------------------------------------------------------

def rebuild_case(case: FuzzCase, rules: Sequence[Rule] | None = None,
                 facts: Sequence[Fact] | None = None) -> FuzzCase:
    """A copy of a case with rules and/or facts replaced.

    Raises :class:`repro.errors.ValidationError` when the replacement
    breaks well-formedness - shrink transformations catch that and
    discard the candidate.
    """
    program = case.program if rules is None \
        else Program(rules, registry=case.program.registry)
    instance = case.instance if facts is None else Instance(facts)
    # The input PDB (a distribution over fact subsets) is dropped when
    # the fact set changes - its support would no longer be subsets.
    input_pdb = case.input_pdb if facts is None else None
    return FuzzCase(case.seed, case.kind, program, instance, input_pdb,
                    case.cascade)


def random_value_positions(program: Program) -> dict[str, int]:
    """Map each random head relation to its sampled-value position.

    Used by statistical oracles to extract exactly the sampled numbers
    (not the carried key columns) from output instances.
    """
    positions: dict[str, int] = {}
    for rule in program.rules:
        spots = rule.head.random_positions()
        if len(spots) == 1:
            positions[rule.head.relation] = spots[0]
    return positions
