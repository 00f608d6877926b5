"""Forts, fort neighborhoods and the implicit hitting set view.

A fort is a vertex set no outside propagating vertex can peek into
through a single edge; observation can never enter it, so every solution
must select inside its closed neighborhood. Collecting fort
neighborhoods therefore yields hitting set instances whose optima lower
bound the power dominating number.
"""

from powerdom import (HittingSetInstance, PdsInstance,
                      enumerate_minimal_forts, find_forts, is_fort,
                      solve_exact)
from powerdom.forts import closed_neighborhood

stars = PdsInstance(12, [(b, b + i) for b in (0, 4, 8) for i in (1, 2, 3)])
print("three disjoint stars; minimal forts:")
for fort in enumerate_minimal_forts(stars):
    print("  fort", sorted(fort), "-> neighborhood",
          sorted(closed_neighborhood(stars, fort)))

# The candidate-sequence heuristic sweeps a random order over the
# undecided vertices and emits one fort per failing candidate. `is_fort`
# comes from the brute-force oracle and shares no code with the heuristic.
forts = find_forts(stars, hitting_set=frozenset(), seed=0)
print("\nheuristic emitted", len(forts), "forts, all valid:",
      all(is_fort(stars, f) for f in forts))

hs = HittingSetInstance(range(12),
                        [closed_neighborhood(stars, f) for f in forts])
exact, size = solve_exact(hs)
print("minimum hitting set:", sorted(exact))
print("lower bound from one fort batch:", size,
      "(one vertex per star is forced)")
