"""Emit the integer programs as LP files and validate them in-process.

Three models are exported: the full power-domination MILP (continuous
observation steps, binary propagation arcs, big-M = n), the covering ILP
over fort neighborhoods and the minimum violated-fort model. The
enumeration checker solves small models without any external solver.
"""

from powerdom import (HittingSetInstance, PdsInstance, build_fort_ilp,
                      build_hitting_set_ilp, build_pds_milp,
                      check_model_by_enumeration, find_forts, oracle_pds,
                      parse_lp, write_lp)
from powerdom.forts import closed_neighborhood
from powerdom.propagation import observe_from

inst = PdsInstance(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)],
                   propagating=[True, True, False, True, True])

model = build_pds_milp(inst)
text = write_lp(model)
print("PDS MILP:", len(model.variables), "variables,",
      len(model.constraints), "rows")
print("\n".join(text.splitlines()[:9]), "\n ...")

value, assignment = check_model_by_enumeration(model)
print("\nenumeration optimum:", value,
      "| oracle:", oracle_pds(inst)[0])
print("round-trips through the LP reader:",
      parse_lp(text).normalized() == model.normalized())

forts = find_forts(inst, frozenset(), seed=0)
hs = HittingSetInstance(inst.undecided(),
                        [closed_neighborhood(inst, f) for f in forts])
print("\nhitting set ILP over", len(hs), "fort neighborhoods:")
print(write_lp(build_hitting_set_ilp(hs)))

# The fort model needs what the pre-selected set alone observes.
observed = observe_from(inst, inst.pre_selected).observed_vertices()
fort_model = build_fort_ilp(inst, observed)
value, assignment = check_model_by_enumeration(fort_model)
members = sorted(v for v in range(inst.n) if assignment[f"x_{v}"] == 1)
print("minimum violated fort:", members,
      "with neighborhood size", int(value))
