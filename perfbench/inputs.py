"""Inputs of the benchmark workloads.

Every instance is built here, with Python's `random.Random` where it is
random, and handed to the program as a finished `PdsInstance` or
`Circuit`, together with the seed that `solve` takes.

Why the inputs are fixed: a solve's time swings several-fold between
random graphs of one size (reduce_full on n=300 took 6-30 s over eight
graphs; solve with reductions="none" on n=80-100 took 0.02 s to over
6 s), and with reductions="none" even between solver seeds on one graph
(0.07-1.6 s). A seeded draw of the few inputs a run can afford would make
the run-to-run spread larger than any useful bound. So graphs and
circuits are fixed, and `--seed` changes only what does not swing the
work: reduce-chain shuffles the vertex ids of its grid-like graphs
(which moved reduce_full by 3-6%) and passes `--seed` to their `solve`.
The grid-ihs inputs ignore it, because its fort search depends on the
solver seed and on the vertex order, and either swings its time
twenty-fold. The chains of reduce-chain ignore it too. They keep the ids
`full_chain_detailed` gives them, because shuffled ids change the
`OR(x0)` kernel from 50 vertices in 48 parts to 6 in 4; and the solver
seed moves the `x0 AND x1` solve between one and two hitting-set solves
(0.71-0.85 s), so every chain is solved with solver seed 0.

Every timed call takes at most about 2 s, so that a run repeats each of
them often enough for the median that `timings` in run.py takes.

The reduce-chain workload joins what could be two: the grid-like graphs
with all rules and the hardness chains. Two workloads leave each run
50 s within the time all runs together may take (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from powerdom import Circuit, PdsInstance

# Each timed solve gets this limit; a TimedOut result is a failed operation.
TIME_LIMIT_S = 120.0

# (n, generator seed) of the graphs. The last entry is the workload's
# largest instance, reported on its own as solve_largest_s. n = 120 and
# 150 solve in 0.6 and 1.5 s; n = 200 took 2-2.5 s and gave too few
# repeats.
GRID_REDUCE_GRAPHS = ((120, 1), (150, 1))
# Picked from generator seeds 0-13 at n = 80, 90 and 100, solved with
# reductions="none" and solver seed 0: the graphs whose solve took 0.1-1 s
# and spent at least 70% of it in the hitting-set branch and bound when
# this benchmark was written (80-96%; the rest is mostly find_forts).
# The last entry is the workload's largest instance.
GRID_IHS_GRAPHS = ((90, 6), (90, 11), (100, 13), (100, 6), (100, 3))


def gridlike(n, gen_seed):
    """Grid-like graph following the ROADMAP Baseline recipe.

    A random tree where vertex v attaches to an earlier vertex at most 30
    ids below it, plus n // 3 chords between vertices less than 60 ids
    apart, and each vertex non-propagating with probability 0.3.
    """
    rng = random.Random(gen_seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(max(0, v - 30), v), v))
    target = len(edges) + n // 3
    while len(edges) < target:
        u = rng.randrange(n)
        v = rng.randrange(max(0, u - 59), min(n, u + 60))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    propagating = [rng.random() >= 0.3 for _ in range(n)]
    return PdsInstance(n, sorted(edges), propagating)


def shuffle_ids(inst, seed, salt):
    """Copy of a graph without pre-selected or excluded vertices, with its
    vertex ids shuffled by `seed`; `salt` keeps instances apart."""
    perm = list(range(inst.n))
    random.Random(f"{seed}/{salt}").shuffle(perm)
    propagating = [True] * inst.n
    for v in range(inst.n):
        propagating[perm[v]] = inst.propagating[v]
    return PdsInstance(inst.n, [(perm[u], perm[v]) for u, v in inst.edges],
                       propagating)


@dataclass(frozen=True)
class GridCase:
    label: str
    inst: PdsInstance
    reductions: str
    solver_seed: int


@dataclass(frozen=True)
class ChainCase:
    label: str
    circuit: Circuit
    assignment: tuple  # a minimum-weight satisfying input set
    solver_seed: int
    refute: bool


def grid_reduce_cases(seed):
    cases = []
    for n, gen_seed in GRID_REDUCE_GRAPHS:
        base = gridlike(n, gen_seed)
        inst = shuffle_ids(base, seed, f"grid{n}/{gen_seed}")
        cases.append(GridCase(f"grid{n}s{gen_seed}", inst, "all", seed))
    return cases


def grid_ihs_cases(seed):
    del seed  # see the module docstring
    return [GridCase(f"grid{n}s{g}", gridlike(n, g), "none", 0)
            for n, g in GRID_IHS_GRAPHS]


def _evaluate(circuit, true_inputs):
    value = {}
    for name in circuit.order:
        kind, children = circuit.nodes[name]
        if kind == "in":
            value[name] = name in true_inputs
        elif kind == "and":
            value[name] = all(value[c] for c in children)
        else:
            value[name] = any(value[c] for c in children)
    return value[circuit.output]


def min_assignment(circuit):
    """Smallest satisfying input set, by enumeration over the inputs."""
    for k in range(len(circuit.inputs) + 1):
        for combo in combinations(circuit.inputs, k):
            if _evaluate(circuit, set(combo)):
                return combo
    raise ValueError("monotone circuit is unsatisfiable")


# The smallest monotone circuits: the input wired to the output and
# `OR(x0)` (weight 1, chains of 59 and 113 vertices), and `x0 AND x1`
# (weight 2, 383 vertices; the chain the acceptance tests always
# include). Their solves are reduction-bound with ObsE and Dom firing;
# the `OR(x0)` kernel is fully decided, 50 vertices in 48 parts. Random
# circuits with up to 4 inputs and 4 gates give chains of 113-2300
# vertices whose solve takes 2-100 s each, and `OR(x0, x1)` alone takes
# 18 s.
#
# `refute` says whether a round times `oracle_pds` below the target. The
# weight-2 refutation tries every pair of the 383 vertices, 17 s in one
# call: a run could time it once at most, and one call of that length
# reads whatever load the machine had in those seconds. Its optimum is
# still checked, against the chain identity.
CHAIN_CIRCUITS = (
    ("wire1", (("x0", ("in", ())), ("out", ("out", ("x0",)))), True),
    ("or1", (("x0", ("in", ())), ("g0", ("or", ("x0",))),
             ("out", ("out", ("g0",)))), True),
    ("and2", (("x0", ("in", ())), ("x1", ("in", ())),
              ("g0", ("and", ("x0", "x1"))), ("out", ("out", ("g0",)))),
     False),
)


def chain_oracle_cases(seed):
    del seed  # see the module docstring
    cases = []
    for label, nodes, refute in CHAIN_CIRCUITS:
        circuit = Circuit(nodes)
        cases.append(ChainCase(label, circuit, min_assignment(circuit), 0,
                               refute))
    return cases


def reduce_chain_cases(seed):
    """The chains, then the grid-like graphs with all rules; the last grid
    graph is the workload's largest instance."""
    return chain_oracle_cases(seed) + grid_reduce_cases(seed)


WORKLOADS = {
    "reduce-chain": reduce_chain_cases,
    "grid-ihs": grid_ihs_cases,
}
