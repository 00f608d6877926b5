"""End-to-end exact solving with anytime bounds.

The pipeline reduces the instance, splits the kernel along pre-selected
vertices, runs the implicit hitting set loop per component and merges
the results. Lower bounds come from hitting set optima, upper bounds
from greedy completions; `result.bounds` records both over time.
"""

from powerdom import generate_random, oracle_pds, solve

inst = generate_random(40, 55, frac_nonprop=0.3, seed=12)
print("instance:", inst)

result = solve(inst, seed=0)
print("status:", result.status)
print("gamma_p:", result.gamma_p)
print("fort neighborhoods:", result.fort_count,
      "| hitting set solves:", result.hitting_set_solves)
print("rules fired:", {k: v for k, v in result.rule_stats.items() if v})
print("solution:", sorted(result.solution.selected))

print("\nresult.bounds (t, kind, value):")
for t, kind, value in result.bounds:
    print(f"  {t:8.4f}s  {kind:5s} {value}")

# Exactness is cheap to double-check on small instances.
small = generate_random(11, 16, frac_nonprop=0.5, seed=7)
assert solve(small).gamma_p == oracle_pds(small)[0]
print("\nsmall-instance result matches the brute-force oracle")

# The different rule subsets all reach the same optimum.
for subset in ("all", "local", "nonlocal", "none"):
    res = solve(small, reductions=subset)
    print(f"  reductions={subset:9s} gamma_p={res.gamma_p} "
          f"forts={res.fort_count}")
