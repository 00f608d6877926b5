"""Run the circuit-to-graph reduction chain and verify it numerically.

A monotone circuit becomes an instance with implication arcs and an
excluded-vertex annotation; three gadget stages then remove arcs,
booster edges and annotations until a plain all-propagating instance
remains. The minimum satisfying weight and the power dominating number
differ by exactly the accumulated parameter shift.
"""

from powerdom import (eval_circuit, full_chain_detailed, oracle_pds,
                      parse_circuit, wmcs_min_weight, wmcs_to_ipds_ext)
from powerdom.bruteforce import is_power_dominating

circuit = parse_circuit("""
in x1
in x2
in x3
and g1 x1 x2
or g2 g1 x3
out o g2
""")
print(circuit)
print("truth table row {x3}:", eval_circuit(circuit, {"x3"}))
weight = wmcs_min_weight(circuit)
print("minimum satisfying weight:", weight)

stage1 = wmcs_to_ipds_ext(circuit)
print("\nstage 1 instance:", stage1.output.n, "vertices,",
      len(stage1.output.implication_arcs), "implication arcs,",
      len(stage1.output.excluded), "excluded")
# The oracle honours implication arcs and booster edges.
print("stage 1 optimum equals the weight:",
      oracle_pds(stage1.output)[0] == weight)

chain = full_chain_detailed(circuit)
names = ["wmcs->ipds-ext", "drop X/Y", "drop arcs", "drop boosters",
         "all propagating"]
for name, tr in zip(names, chain.stages):
    print(f"  {name:16s} n={tr.output.n:5d} shift +{tr.shift}")
print("total parameter shift:", chain.shift)

target = weight + chain.shift
witness = chain.witness_from_assignment({"x3"})
print("mapped witness size:", len(witness),
      "| feasible:", is_power_dominating(chain.instance, witness))

try:
    oracle_pds(chain.instance, k_max=target - 1, max_undecided=None)
    print("unexpected smaller solution!")
except Exception:
    print(f"no solution of size {target - 1} exists -> gamma_p = {target}")
