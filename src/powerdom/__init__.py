"""Exact toolkit for the power dominating set problem and its extension
variant: reduction rules, subinstance decomposition, an implicit hitting
set solver, circuit-based hardness gadgets and MILP exports."""

from .bruteforce import (enumerate_minimal_forts, ipds_observed_set,
                         is_power_dominating, observed_set, oracle_ipds,
                         oracle_pds)
from .decompose import Decomposition, SubInstance, merge_solutions, split
from .errors import (GuardExceededError, InfeasibleInstanceError, ParseError,
                     PowerDomError)
from .forts import (closed_neighborhood, find_forts, fort_from_candidate,
                    is_fort, minimize_fort)
from .hardness import (Circuit, IpdsInstance, Transform, eliminate_booster_edges,
                       eliminate_implication_arcs, eval_circuit, full_chain, full_chain_detailed,
                       ipds_ext_to_ipds, parse_circuit, pds_to_simple,
                       wmcs_min_weight, wmcs_to_ipds_ext, write_circuit)
from .hittingset import HittingSetInstance, solve_exact, solve_greedy
from .instance import (PdsInstance, SolutionSet, generate_random,
                       parse_instance, write_instance)
from .milp import (MilpModel, build_fort_ilp, build_hitting_set_ilp,
                   build_pds_milp, check_model_by_enumeration, parse_lp,
                   write_lp)
from .propagation import ObservationState, observation_neighborhood, observe_from
from .reductions import (LOCAL_RULES, NONLOCAL_RULES, RULE_SUBSETS,
                         ReductionEvent, ReductionLog, RuleId,
                         applicable_sites, apply_rule_once, lift_solution,
                         reduce_full)
from .solver import (BoundsTrace, INFEASIBLE, OPTIMAL, TIMED_OUT, SolveResult,
                     greedy_complete, ihs_kernel_solve, solve)

__version__ = "0.1.0"
