"""Emit the integer programs as LP files and read them back.

Three models are exported: the full power-domination MILP (continuous
observation steps, binary propagation arcs, big-M = n), the covering ILP
over fort neighborhoods and the minimum violated-fort model. Any LP
solver can take the files; here the fort model's optimum is shown by
enumerating the minimal forts instead.
"""

from powerdom import (HittingSetInstance, PdsInstance, build_fort_ilp,
                      build_hitting_set_ilp, build_pds_milp,
                      enumerate_minimal_forts, find_forts, oracle_pds,
                      parse_lp, write_lp)
from powerdom.forts import closed_neighborhood
from powerdom.propagation import observe_from

inst = PdsInstance(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)],
                   propagating=[True, True, False, True, True])

model = build_pds_milp(inst)
text = write_lp(model)
print("PDS MILP:", len(model.variables), "variables,",
      len(model.constraints), "rows; its optimum is gamma_P =",
      oracle_pds(inst)[0])
print("\n".join(text.splitlines()[:9]), "\n ...")
print("round-trips through the LP reader:",
      parse_lp(text) == model)

forts = find_forts(inst, frozenset(), seed=0)
hs = HittingSetInstance(inst.undecided(),
                        [closed_neighborhood(inst, f) for f in forts])
print("\nhitting set ILP over", len(hs), "fort neighborhoods:")
print(write_lp(build_hitting_set_ilp(hs)))

# The fort model needs what the pre-selected set alone observes. Its
# optimum is the smallest neighborhood of a fort outside that set, and a
# smallest one is always reached by a minimal fort.
observed = observe_from(inst, inst.pre_selected).observed_vertices()
fort_model = build_fort_ilp(inst, observed)
print("violated-fort ILP:", len(fort_model.variables), "variables,",
      len(fort_model.constraints), "rows")
violated = [f for f in enumerate_minimal_forts(inst) if not f & observed]
fort = min(violated, key=lambda f: (len(closed_neighborhood(inst, f)),
                                    sorted(f)))
print("minimum violated fort:", sorted(fort),
      "with neighborhood size", len(closed_neighborhood(inst, fort)))
