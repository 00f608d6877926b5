"""Shared builders for randomized test corpora, and the optima that
check them."""

import random

import numpy as np
import pytest

from powerdom import PdsInstance, oracle_pds, solver
from powerdom.errors import InfeasibleInstanceError
from powerdom.hardness import Circuit, IpdsInstance
from powerdom.instance import generate_random


def path_graph(n, **kw):
    return PdsInstance(n, [(i, i + 1) for i in range(n - 1)], **kw)


def cycle_graph(n, **kw):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return PdsInstance(n, edges, **kw)


def star_graph(leaves, **kw):
    return PdsInstance(leaves + 1, [(0, i) for i in range(1, leaves + 1)], **kw)


def complete_graph(n, **kw):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return PdsInstance(n, edges, **kw)


def grid_graph(side, copies=1):
    """`copies` disjoint side x side grids."""
    grid = [(r * side + c, r * side + c + 1) for r in range(side)
            for c in range(side - 1)]
    grid += [(r * side + c, (r + 1) * side + c) for r in range(side - 1)
             for c in range(side)]
    k = side * side
    return PdsInstance(copies * k, [(u + i * k, v + i * k)
                                    for i in range(copies) for u, v in grid])


def disjoint_stars(count, leaves=3):
    edges = []
    step = leaves + 1
    for s in range(count):
        base = s * step
        edges.extend((base, base + i) for i in range(1, step))
    return PdsInstance(count * step, edges)


def gridlike_graph(n, seed):
    """Grid-like graph of the ROADMAP baseline: a random tree where vertex v
    hangs off one of the 30 ids below it, n // 3 chords between vertices
    less than 60 ids apart, and 30% of the vertices non-propagating."""
    rng = random.Random(seed)
    edges = {(rng.randrange(max(0, v - 30), v), v) for v in range(1, n)}
    target = len(edges) + n // 3
    while len(edges) < target:
        u = rng.randrange(n)
        v = rng.randrange(max(0, u - 59), min(n, u + 60))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    propagating = [rng.random() >= 0.3 for _ in range(n)]
    return PdsInstance(n, sorted(edges), propagating)


def random_instance(seed, n_max=12, m_max=20, fracs=(0.0, 0.5, 1.0),
                    x_max=2, y_max=2, n_min=1):
    """Random extension instance; pure function of the seed."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    m = rng.randint(0, min(m_max, n * (n - 1) // 2))
    inst = generate_random(n, m, rng.choice(list(fracs)), seed=seed)
    verts = list(range(n))
    rng.shuffle(verts)
    x = verts[:rng.randint(0, min(x_max, n))]
    rest = verts[len(x):]
    y = rest[:rng.randint(0, min(y_max, len(rest)))]
    return inst.replace(pre_selected=x, excluded=y)


def random_ipds_instance(seed, n_max=5, with_xy=True, with_arcs=True,
                         with_boosters=True):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    m = rng.randint(0, n * (n - 1) // 2)
    base = generate_random(n, m, rng.choice([0.0, 0.5]), seed=seed)
    boosters = [e for e in base.edges if rng.random() < 0.3] \
        if with_boosters else []
    arcs = []
    if with_arcs:
        for _ in range(rng.randint(0, 2)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in arcs:
                arcs.append((u, v))
    x, y = [], []
    if with_xy:
        verts = list(range(n))
        rng.shuffle(verts)
        x = verts[:rng.randint(0, 1)]
        y = [v for v in verts[1:3] if rng.random() < 0.5]
    return IpdsInstance(n, base.edges, base.propagating, x, y,
                        booster_edges=boosters, implication_arcs=arcs)


def random_circuit(seed, max_inputs=4, max_gates=4):
    """Random monotone circuit; sinks are collected by the output node."""
    rng = random.Random(seed)
    n_in = rng.randint(1, max_inputs)
    n_gates = rng.randint(1, max_gates)
    nodes = [(f"x{i}", ("in", ())) for i in range(n_in)]
    names = [name for name, _ in nodes]
    for g in range(n_gates):
        kind = rng.choice(["and", "or"])
        k = rng.randint(1, min(3, len(names)))
        children = tuple(sorted(rng.sample(names, k)))
        name = f"g{g}"
        nodes.append((name, (kind, children)))
        names.append(name)
    consumed = {c for _, (_, children) in nodes for c in children}
    sinks = tuple(name for name in names if name not in consumed)
    nodes.append(("out", ("out", sinks)))
    return Circuit(nodes)


def oracle_gamma(inst, **kw):
    """Brute-force optimum, None when infeasible."""
    try:
        return oracle_pds(inst, **kw)[0]
    except InfeasibleInstanceError:
        return None


def capture_families(inst, **solve_kwargs):
    """Every family `solve(inst, **solve_kwargs)` hands to the exact
    hitting-set solver, in call order, as (universe, sets,
    lower_bound_hint)."""
    captured = []
    exact = solver.solve_exact

    def record(hs, lower_bound_hint=0, deadline=None):
        captured.append((hs.universe, list(hs.sets), lower_bound_hint))
        return exact(hs, lower_bound_hint, deadline)

    solver.solve_exact = record
    try:
        solver.solve(inst, **solve_kwargs)
    finally:
        solver.solve_exact = exact
    return captured


def highs_optimum(model):
    """Optimum of a MilpModel by HiGHS through scipy: None when HiGHS
    proves the model infeasible, else (objective, {variable: value}) with
    binaries rounded. Any other solver status fails the calling test."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    names = list(model.variables)
    if not names:  # scipy rejects an empty cost vector; every row reads 0
        feasible = all({"<=": 0 <= c.rhs, ">=": 0 >= c.rhs, "=": c.rhs == 0}
                       [c.sense] for c in model.constraints)
        return (0, {}) if feasible else None
    index = {name: i for i, name in enumerate(names)}
    cost = np.zeros(len(names))
    for name, coef in model.objective:
        cost[index[name]] += coef
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
    variables = [model.variables[name] for name in names]
    binary = [v.kind == "binary" for v in variables]
    res = milp(cost, constraints=LinearConstraint(matrix, lower, upper),
               integrality=np.array(binary, dtype=np.uint8),
               bounds=Bounds([v.lb for v in variables],
                             [v.ub for v in variables]))
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    values = {name: round(x) if b else x
              for name, x, b in zip(names, res.x, binary)}
    return round(res.fun), values


def _with_pattern(seed, build):
    """Small random base instance plus a disjoint injected rule pattern.

    `build(rng, n0)` returns (fresh vertex count, edges, propagating
    overrides, pre-selected, excluded, site) with vertex ids starting at
    n0. The base stays disjoint from the pattern so the rule guard is
    guaranteed to hold at the returned site.
    """
    rng = random.Random(seed)
    base = random_instance(rng.randrange(10**6), n_max=6, m_max=8,
                           x_max=1, y_max=1, n_min=0)
    n0 = base.n
    extra, edges, prop_false, pre, exc, site = build(rng, n0)
    n = n0 + extra
    propagating = list(base.propagating) + [True] * extra
    for v in prop_false:
        propagating[v] = False
    inst = PdsInstance(
        n, list(base.edges) + edges, propagating,
        set(base.pre_selected) | set(pre), set(base.excluded) | set(exc))
    return inst, site


def rule_pattern_instance(rule_name, seed):
    """Instance guaranteed to match the named rule's guard, plus the site."""
    def deg1a(rng, n0):
        v, w = n0, n0 + 1
        return 2, [(v, w)], [], [], [], v

    def deg1b(rng, n0):
        v, w = n0, n0 + 1
        if rng.random() < 0.5:
            return 2, [(v, w)], [], [], [v], v  # w propagating
        return 2, [(v, w)], [w], [], [v], v  # w non-propagating: select w

    def tri(rng, n0):
        x, y, z = n0, n0 + 1, n0 + 2
        exc = [v for v in (x, y) if rng.random() < 0.4]
        return 3, [(x, y), (x, z), (y, z)], [], [], exc, (x, y)

    def deg2a(rng, n0):
        v, a, b = n0, n0 + 1, n0 + 2
        exc = [a] if rng.random() < 0.4 else []
        return 3, [(v, a), (v, b)], [], [], exc, v

    def deg2b(rng, n0):
        z1, x, v, y = n0, n0 + 1, n0 + 2, n0 + 3
        return 4, [(z1, x), (x, v), (v, y)], [], [], [v], v

    def deg2c(rng, n0):
        s, v, x, y, zx, zy = range(n0, n0 + 6)
        exc = [v] + [u for u in (x, y) if rng.random() < 0.3]
        return (6, [(s, v), (v, x), (v, y), (x, zx), (y, zy)],
                [], [s], exc, v)

    def onlyn(rng, n0):
        v, x, y = n0, n0 + 1, n0 + 2
        return 3, [(v, x), (v, y)], [x, y], [], [v, x], v

    def isol(rng, n0):
        return 1, [], [], [], [], n0

    def obsnp(rng, n0):
        s, v = n0, n0 + 1
        return 2, [(s, v)], [v], [s], [v], v

    def obse(rng, n0):
        s, v, w = n0, n0 + 1, n0 + 2
        exc = [u for u in (v, w) if rng.random() < 0.3]
        return 3, [(s, v), (s, w), (v, w)], [], [s], exc, (v, w)

    def dom(rng, n0):
        c, w = n0, n0 + 1
        return 2, [(c, w)], [], [], [], (c, w)

    def necn(rng, n0):
        return 1, [], [], [], [], n0

    builders = {"Deg1a": deg1a, "Deg1b": deg1b, "Tri": tri, "Deg2a": deg2a,
                "Deg2b": deg2b, "Deg2c": deg2c, "OnlyN": onlyn, "Isol": isol,
                "ObsNP": obsnp, "ObsE": obse, "Dom": dom, "NecN": necn}
    return _with_pattern(seed, builders[rule_name])


@pytest.fixture(scope="session")
def small_corpus():
    """200 random extension instances with cached oracle optima."""
    items = []
    for seed in range(200):
        inst = random_instance(seed)
        items.append((inst, oracle_gamma(inst)))
    return items
