"""Split an instance into independently solvable subinstances.

Propagation never passes through a selected vertex, so the connected
components C_1..C_l of the graph induced by the non-pre-selected
vertices can be solved separately on their closed neighborhoods N[C_i],
whose pre-selected vertices are the border of C_i in X. A selection of
N[C_i] that holds its border observes C_i in the part exactly when it
does so in the parent, so the union of the per-component optima is a
global optimum, and one observation of that union checks every part.
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
        components.append(members)

    decomp = Decomposition(inst)
    for members in components:
        border = sorted({w for v in members for w in inst.adj[v]
                         if w in x_set})
        vertices = sorted(members + border)
        if len(vertices) == inst.n:
            decomp.parts.append(SubInstance(inst, tuple(vertices)))
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
        decomp.parts.append(SubInstance(sub, tuple(vertices)))
    return decomp


def merge_solutions(decomp, parts):
    """Union the per-component solutions back into a parent solution.

    Each part is checked against its subinstance and mapped to parent ids;
    a border vertex maps into the parent's X, which the union holds
    anyway, so shared pre-selected vertices are counted once. One
    observation of the union on the parent then stands in for one per
    part: a part's selection S_i holds its pre-selected set X_i, and
    since propagation never passes a selected vertex, what S_i observes
    of C_i depends only on S_i, inside the parent and inside the part
    alike. So the union is feasible exactly when every part is.
    """
    if len(parts) != len(decomp.parts):
        raise ValueError("one solution per subinstance required")
    selected = set(decomp.parent.pre_selected)
    for sub, part in zip(decomp.parts, parts):
        part.validate(sub.instance)
        selected.update(sub.to_parent[v] for v in part.selected)
    if not observe_from(decomp.parent, selected).is_complete():
        raise ValueError("a part is not feasible for its subinstance")
    return SolutionSet(frozenset(selected))
