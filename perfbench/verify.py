"""Independent checks of the benchmark's results.

Nothing here calls the solver's layers: feasibility uses the observation
fixpoint below, which shares no code with `powerdom.propagation`, and the
grid optima come from HiGHS (`scipy.optimize.milp`) on the model that
`build_pds_milp` exports, which shares no code with the reductions, forts,
hitting set or IHS loop.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def observed_count(inst, selected):
    """Number of vertices observed by `selected` under the two rules.

    Domination: a selected vertex observes its closed neighbourhood.
    Propagation: an observed propagating vertex with exactly one
    unobserved neighbour observes it.
    """
    observed = [False] * inst.n
    for s in selected:
        observed[s] = True
        for w in inst.adj[s]:
            observed[w] = True
    queue = deque(range(inst.n))
    while queue:
        u = queue.popleft()
        if not (observed[u] and inst.propagating[u]):
            continue
        unobserved = [w for w in inst.adj[u] if not observed[w]]
        if len(unobserved) != 1:
            continue
        w = unobserved[0]
        observed[w] = True
        # w's neighbours may now have one unobserved neighbour left, and
        # w itself may propagate.
        queue.append(w)
        queue.extend(inst.adj[w])
    return sum(observed)


def is_feasible(inst, selected):
    selected = frozenset(selected)
    return (inst.pre_selected <= selected
            and not (inst.excluded & selected)
            and observed_count(inst, selected) == inst.n)


def milp_optimum(model):
    """Optimal objective of an exported MilpModel, solved with HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    names = list(model.variables)
    index = {name: i for i, name in enumerate(names)}
    cost = np.zeros(len(names))
    for name, coef in model.objective:
        cost[index[name]] += coef
    variables = [model.variables[name] for name in names]
    rows, cols, vals, lower, upper = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for name, coef in con.coeffs:
            rows.append(r)
            cols.append(index[name])
            vals.append(coef)
        lower.append(-np.inf if con.sense == "<=" else con.rhs)
        upper.append(np.inf if con.sense == ">=" else con.rhs)
    matrix = coo_array((vals, (rows, cols)),
                       shape=(len(model.constraints), len(names))).tocsr()
    res = milp(cost,
               constraints=LinearConstraint(matrix, lower, upper),
               integrality=np.array([v.kind == "binary" for v in variables],
                                    dtype=np.uint8),
               bounds=Bounds([v.lb for v in variables],
                             [v.ub for v in variables]))
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: {res.message}")
    return int(round(res.fun))


def check_solve(inst, res, expected_gamma):
    """Problems with one Optimal SolveResult, as a list of strings."""
    problems = []
    if res.status != "Optimal":
        return [f"status {res.status}"]
    size = len(res.solution.selected)
    if not (res.lower_bound == res.upper_bound == size == res.gamma_p):
        problems.append(f"bounds LB={res.lower_bound} UB={res.upper_bound} "
                        f"|S|={size} gamma={res.gamma_p} disagree")
    if not is_feasible(inst, res.solution.selected):
        problems.append("solution is not feasible")
    if res.gamma_p != expected_gamma:
        problems.append(f"gamma {res.gamma_p} != independent {expected_gamma}")
    return problems
