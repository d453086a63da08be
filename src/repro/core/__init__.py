"""GDatalog core: syntax, translation, chase, and semantics."""

from repro.core.applicability import (Firing, IncrementalApplicability,
                                      NaiveApplicability,
                                      OverlayApplicability,
                                      applicable_pairs, overlay_fork)
from repro.core.atoms import Atom, atom
from repro.core.barany import (TaggedDistribution,
                               simulation_helper_relations,
                               to_barany_simulation, to_grohe_simulation)
from repro.core.chase import (ChaseRun, ChaseStep, chase_markov_process,
                              chase_step_kernel, fire,
                              run_chase_prepared)
from repro.core.exact import (ChaseNode, enumerate_chase_tree,
                              exact_parallel_spdb, exact_sequential_spdb)
from repro.core.fd import (FunctionalDependency, check_all_fds,
                           fd_violation_report, induced_fds)
from repro.core.normalize import (is_split_relation, normalize_program,
                                  normalize_rule)
from repro.core.observe import Observation, observe
from repro.core.parallel import (firing_configuration,
                                 parallel_markov_process,
                                 parallel_step_kernel,
                                 run_parallel_chase,
                                 run_parallel_chase_prepared)
from repro.core.parser import parse_program, parse_rule
from repro.core.policies import (DEFAULT_POLICY, ChasePolicy, FirstPolicy,
                                 LastPolicy, PriorityPolicy,
                                 RandomTiePolicy, RoundRobinPolicy,
                                 standard_policies)
from repro.core.program import Program, program_of
from repro.core.rules import Rule, fact_rule
from repro.core.semantics import MassReport
from repro.core.source import (atom_to_source, program_to_source,
                               rule_to_source, term_to_source)
from repro.core.terms import Const, RandomTerm, Term, Var, as_term
from repro.core.termination import (TerminationEstimate,
                                    TerminationReport,
                                    analyze_termination,
                                    estimate_termination_probability,
                                    position_graph, weakly_acyclic)
from repro.core.translate import (ExistentialProgram, is_aux_relation,
                                  translate, translate_barany)

__all__ = [
    "Atom", "ChaseNode", "ChasePolicy", "ChaseRun", "ChaseStep",
    "Observation", "atom_to_source", "observe",
    "program_to_source", "rule_to_source", "term_to_source", "Const",
    "DEFAULT_POLICY", "ExistentialProgram", "Firing", "FirstPolicy",
    "FunctionalDependency", "IncrementalApplicability", "LastPolicy",
    "MassReport", "NaiveApplicability", "OverlayApplicability",
    "PriorityPolicy", "Program",
    "RandomTerm", "RandomTiePolicy", "RoundRobinPolicy", "Rule",
    "TaggedDistribution", "Term", "TerminationEstimate",
    "TerminationReport", "Var", "analyze_termination",
    "applicable_pairs", "as_term", "atom",
    "overlay_fork",
    "chase_markov_process", "chase_step_kernel",
    "check_all_fds", "enumerate_chase_tree",
    "estimate_termination_probability", "exact_parallel_spdb",
    "exact_sequential_spdb", "fact_rule",
    "fd_violation_report", "fire", "firing_configuration",
    "induced_fds", "is_aux_relation", "is_split_relation",
    "normalize_program", "normalize_rule", "parallel_markov_process",
    "parallel_step_kernel", "parse_program", "parse_rule",
    "position_graph", "program_of", "run_chase_prepared",
    "run_parallel_chase", "run_parallel_chase_prepared",
    "simulation_helper_relations",
    "standard_policies", "to_barany_simulation", "to_grohe_simulation",
    "translate", "translate_barany", "weakly_acyclic",
]
