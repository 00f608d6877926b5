"""Split an instance into independently solvable subinstances.

Propagation never passes through a selected vertex, so the connected
components C_1..C_l of the graph induced by the non-pre-selected
vertices can be solved separately on their closed neighborhoods N[C_i];
the union of the per-component optima is a global optimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .instance import PdsInstance, SolutionSet
from .propagation import observe_from


@dataclass(frozen=True)
class SubInstance:
    instance: PdsInstance
    to_parent: tuple
    component: frozenset  # parent ids of C_i (excludes the inherited X)


@dataclass
class Decomposition:
    parent: PdsInstance
    parts: list = field(default_factory=list)


def split(inst):
    """Decompose along the pre-selected set.

    Each part's edges come from its members' adjacency plus the edges
    between pre-selected vertices on its border. The work is linear in
    the instance apart from those X-to-X edges, which are looked at once
    for each part whose border holds one of their ends. A part that holds
    every vertex is the instance itself.
    """
    x_set = inst.pre_selected
    x_adj = {x: [w for w in inst.adj[x] if w in x_set] for x in x_set}
    comp = [-1] * inst.n
    components = []
    for root in range(inst.n):
        if root in x_set or comp[root] != -1:
            continue
        idx = len(components)
        members = []
        queue = deque([root])
        comp[root] = idx
        while queue:
            v = queue.popleft()
            members.append(v)
            for w in inst.adj[v]:
                if w not in x_set and comp[w] == -1:
                    comp[w] = idx
                    queue.append(w)
        components.append(sorted(members))

    decomp = Decomposition(inst)
    for members in components:
        component = frozenset(members)
        border = sorted({w for v in members for w in inst.adj[v]
                         if w in x_set})
        vertices = sorted(members + border)
        if len(vertices) == inst.n:
            decomp.parts.append(SubInstance(inst, tuple(vertices), component))
            continue
        to_sub = {v: i for i, v in enumerate(vertices)}
        edges = [(to_sub[v], to_sub[w]) for v in members
                 for w in inst.adj[v] if v < w or w in x_set]
        edges += [(to_sub[x], to_sub[w]) for x in border
                  for w in x_adj[x] if x < w and w in to_sub]
        sub = PdsInstance(
            len(vertices), edges,
            propagating=[inst.propagating[v] for v in vertices],
            pre_selected=[to_sub[v] for v in border],
            excluded=[to_sub[v] for v in vertices if v in inst.excluded],
            labels={to_sub[v]: inst.labels[v]
                    for v in vertices if v in inst.labels})
        decomp.parts.append(SubInstance(sub, tuple(vertices), component))
    return decomp


def merge_solutions(decomp, parts):
    """Union the per-component solutions back into a parent solution.

    Pre-selected vertices shared between subinstances are counted once:
    only the C_i portion of each part is taken, the parent's X is added on
    top. Each part is re-checked for feasibility on its subinstance.
    """
    if len(parts) != len(decomp.parts):
        raise ValueError("one solution per subinstance required")
    selected = set(decomp.parent.pre_selected)
    for sub, part in zip(decomp.parts, parts):
        part.validate(sub.instance)
        if not observe_from(sub.instance, part.selected).is_complete():
            raise ValueError("part is not feasible for its subinstance")
        for v in part.selected:
            parent_id = sub.to_parent[v]
            if parent_id in sub.component:
                selected.add(parent_id)
    merged = SolutionSet(frozenset(selected))
    merged.validate(decomp.parent)
    return merged
