"""Shrink an instance with the reduction rules and lift a solution back.

The driver alternates exhaustive rounds of the local rules with the
domination and necessary-node rules until nothing changes. The kernel is
an equivalent extension instance; solutions lift back through the
recorded log.
"""

from powerdom import PdsInstance, lift_solution, oracle_pds, reduce_full

# A "comet": a long tail attached to a dense head.
edges = [(i, i + 1) for i in range(6)]          # tail 0..6
edges += [(6, 7), (6, 8), (7, 8), (7, 9), (8, 9)]  # head
comet = PdsInstance(10, edges)

kernel, log, stats = reduce_full(comet)
print("original:", comet)
print("kernel:  ", kernel)
print("fired:   ", {k: v for k, v in stats["rule_counts"].items() if v})
print("events:")
for event in log.events:
    print(f"  {event.rule.value:6s} at {event.site}")

gamma, witness = oracle_pds(kernel)
solution = lift_solution(log, witness)
print("kernel optimum:", gamma, "-> lifted solution:",
      sorted(solution.selected))
print("matches direct optimum:", len(solution) == oracle_pds(comet)[0])

# Reductions alone can fully decide easy instances.
path = PdsInstance(10, [(i, i + 1) for i in range(9)])
kernel, log, stats = reduce_full(path)
print("\nP10 kernel has", stats["kernel_undecided"], "undecided vertices;",
      "pre-selected:", sorted(kernel.pre_selected))
