"""Exact toolkit for the power dominating set problem and its extension
variant: reduction rules, subinstance decomposition, an implicit hitting
set solver, circuit-based hardness gadgets and MILP exports.

`import powerdom` loads the solve path only; the brute-force oracle
(`bruteforce`), the hardness chain (`hardness`) and the MILP exports
(`milp`) load on first use of one of their names."""

from .decompose import Decomposition, SubInstance, merge_solutions, split
from .errors import (GuardExceededError, InfeasibleInstanceError, ParseError,
                     PowerDomError)
from .forts import closed_neighborhood, find_forts
from .hittingset import HittingSetInstance, solve_exact
from .instance import (PdsInstance, SolutionSet, generate_random,
                       parse_instance, write_instance)
from .propagation import ObservationState, observe_from
from .reductions import (LOCAL_RULES, NONLOCAL_RULES, RULE_SUBSETS,
                         ReductionEvent, ReductionLog, RuleId,
                         applicable_sites, apply_rule_once, lift_solution,
                         reduce_full)
from .solver import (INFEASIBLE, OPTIMAL, TIMED_OUT, SolveResult,
                     greedy_complete, ihs_kernel_solve, solve)

__version__ = "0.1.0"

_DEFERRED = {
    "bruteforce": ("enumerate_minimal_forts", "is_fort", "is_power_dominating",
                   "observed_set", "oracle_pds"),
    "hardness": ("Circuit", "IpdsInstance", "Transform",
                 "eliminate_booster_edges", "eliminate_implication_arcs",
                 "eval_circuit", "full_chain_detailed", "ipds_ext_to_ipds",
                 "parse_circuit", "pds_to_simple", "wmcs_min_weight",
                 "wmcs_to_ipds_ext", "write_circuit"),
    "milp": ("MilpModel", "build_fort_ilp", "build_hitting_set_ilp",
             "build_pds_milp", "parse_lp", "write_lp"),
}
# Each deferred name, and each deferred module's own name, to its module.
_HOME = {name: module for module, names in _DEFERRED.items()
         for name in (module, *names)}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _HOME.keys())


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
