"""Executable reduction chain from monotone circuits to plain instances.

The chain runs monotone circuit satisfiability -> extension instance with
implication arcs and booster edges -> arc-free -> booster-free -> all
propagating. Each step is a Transform with a parameter shift, and the
composition turns a minimum-weight satisfying assignment question into a
plain power-dominating-set question with a known offset.

Booster edges carry observation across in both directions as soon as one
endpoint is observed; implication arcs carry it one way and do not count
as graph edges for domination or propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import GuardExceededError, ParseError
from .instance import PdsInstance, _lines


class Circuit:
    """Monotone circuit: a DAG of and/or gates with one output node.

    `nodes` maps name -> (kind, children); kinds are 'in', 'and', 'or',
    'out'. Children must be declared before use, gates and the output need
    at least one child, and every node must reach the output. A
    multi-child output behaves like an or-gate. Node names are unique.
    """

    def __init__(self, nodes):
        pairs = list(nodes.items() if isinstance(nodes, dict) else nodes)
        self.nodes = dict(pairs)
        self.order = list(self.nodes)
        self.inputs = tuple(n for n, (k, _) in self.nodes.items() if k == "in")
        outs = [n for n, (k, _) in self.nodes.items() if k == "out"]
        if len(outs) != 1:
            raise ValueError("circuit needs exactly one output node")
        self.output = outs[0]
        declared = set()
        used = set()
        for name, (kind, children) in pairs:
            if name in declared:
                raise ValueError(f"duplicate node name {name!r}")
            if kind not in ("in", "and", "or", "out"):
                raise ValueError(f"unknown node kind {kind!r}")
            if kind == "in" and children:
                raise ValueError(f"input {name} cannot have children")
            if kind != "in" and not children:
                raise ValueError(f"{kind} node {name} needs at least one child")
            if len(set(children)) != len(children):
                raise ValueError(f"duplicate child on node {name}")
            for c in children:
                if c not in declared:
                    raise ValueError(f"node {name} uses undeclared child {c}")
                used.add(c)
            declared.add(name)
        unreachable = declared - used - {self.output}
        if unreachable:
            raise ValueError(
                f"nodes do not reach the output: {sorted(unreachable)}")

    def __repr__(self):
        return (f"Circuit({len(self.inputs)} inputs, "
                f"{len(self.nodes) - len(self.inputs) - 1} gates)")


def parse_circuit(text):
    """Parse the line format `in NAME` / `and NAME CHILD...` /
    `or NAME CHILD...` / `out NAME CHILD...`."""
    nodes = []
    seen = set()
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind not in ("in", "and", "or", "out"):
            raise ParseError(f"unknown node kind {kind!r}", lineno)
        if len(parts) < 2:
            raise ParseError("missing node name", lineno)
        name = parts[1]
        if name in seen:
            raise ParseError(f"duplicate node name {name!r}", lineno)
        seen.add(name)
        nodes.append((name, (kind, tuple(parts[2:]))))
    try:
        return Circuit(nodes)
    except ValueError as exc:
        raise ParseError(str(exc))


def write_circuit(circuit):
    lines = []
    for name in circuit.order:
        kind, children = circuit.nodes[name]
        lines.append(" ".join([kind, name, *children]))
    return "\n".join(lines) + "\n"


def eval_circuit(circuit, true_inputs):
    """Evaluate with the given input names set to true."""
    true_inputs = set(true_inputs)
    unknown = true_inputs - set(circuit.inputs)
    if unknown:
        raise ValueError(f"not input nodes: {sorted(unknown)}")
    value = {}
    for name in circuit.order:
        kind, children = circuit.nodes[name]
        if kind == "in":
            value[name] = name in true_inputs
        elif kind == "and":
            value[name] = all(value[c] for c in children)
        else:  # or-gates; a multi-child output collects disjunctively
            value[name] = any(value[c] for c in children)
    return value[circuit.output]


def wmcs_min_weight(circuit, max_inputs=20):
    """Minimum number of true inputs that satisfies the circuit.

    Subset enumeration by increasing weight. A monotone circuit is always
    satisfied by the all-true assignment, so the search ends by weight
    |inputs|.
    """
    if len(circuit.inputs) > max_inputs:
        raise GuardExceededError(
            f"{len(circuit.inputs)} inputs exceed guard {max_inputs}")
    for k in range(len(circuit.inputs) + 1):
        for combo in combinations(circuit.inputs, k):
            if eval_circuit(circuit, combo):
                return k


class IpdsInstance(PdsInstance):
    """Instance extended with booster edges and implication arcs."""

    __slots__ = ("booster_edges", "implication_arcs")

    def __init__(self, n, edges=(), propagating=None, pre_selected=(),
                 excluded=(), labels=None, booster_edges=(),
                 implication_arcs=()):
        super().__init__(n, edges, propagating, pre_selected, excluded, labels)
        edge_set = set(self.edges)
        boosters = set()
        for u, v in booster_edges:
            key = (u, v) if u < v else (v, u)
            if key not in edge_set:
                raise ValueError(f"booster edge {key} is not a graph edge")
            boosters.add(key)
        self.booster_edges = frozenset(boosters)
        arcs = [(int(u), int(v)) for u, v in implication_arcs]
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) references a missing vertex")
        self.implication_arcs = tuple(dict.fromkeys(arcs))

    def __eq__(self, other):
        if not isinstance(other, IpdsInstance):
            return NotImplemented
        return (super().__eq__(other)
                and self.booster_edges == other.booster_edges
                and self.implication_arcs == other.implication_arcs)

    def __hash__(self):
        return hash((super().__hash__(), self.booster_edges,
                     self.implication_arcs))


@dataclass
class Transform:
    """Output of one reduction step; chained shifts add up.

    `provenance` gives every output vertex exactly one role. A vertex
    carried over from the input has role ("kept", v) and keeps its id v,
    its label and its flags, except the flags the step exists to remove:
    the X of `ipds_ext_to_ipds` and the non-propagating flags of
    `pds_to_simple`.
    """

    output: object
    shift: int
    provenance: dict = field(default_factory=dict)


class _Builder:
    """Vertices of one step's output, numbered in the order they are added.

    Built on a base instance, the output starts with the base's vertices,
    which keep their ids, propagating flags, X, Y and labels.
    """

    def __init__(self, base=None):
        self.propagating = [] if base is None else list(base.propagating)
        self.provenance = {v: ("kept", v)
                           for v in range(len(self.propagating))}
        self.fields = {} if base is None else dict(
            pre_selected=base.pre_selected, excluded=base.excluded,
            labels=base.labels)

    def add(self, role, propagating=True):
        vid = len(self.propagating)
        self.propagating.append(propagating)
        self.provenance[vid] = role
        return vid

    def build(self, edges, shift=0, kind=PdsInstance, **fields):
        """Output instance and Transform; `fields` override the base's."""
        fields = {"propagating": self.propagating, **self.fields, **fields}
        out = kind(len(self.propagating), edges, **fields)
        return Transform(out, shift, self.provenance)


def wmcs_to_ipds_ext(circuit):
    """Circuit to extension instance: arcs for wires, a gadget per and-gate.

    Every node becomes a vertex; an and-gate becomes an input vertex x and
    an output vertex y joined by an edge, with one proxy-input vertex per
    incoming wire attached to x. Wires become implication arcs (into the
    proxies for and-gates), the output implies every input, and everything
    except the circuit inputs is excluded. Parameter shift 0.
    """
    b = _Builder()
    vertex_in = {}
    vertex_out = {}
    edges = []
    arcs = []
    for name in circuit.order:
        kind, children = circuit.nodes[name]
        if kind == "and":
            x = b.add(("gate_input", name))
            y = b.add(("gate_output", name))
            edges.append((x, y))
            vertex_in[name] = x
            vertex_out[name] = y
            for child in children:
                proxy = b.add(("proxy_input", name, child))
                edges.append((proxy, x))
                arcs.append((vertex_out[child], proxy))
        else:
            v = vertex_in[name] = vertex_out[name] = b.add((kind, name))
            arcs.extend((vertex_out[child], v) for child in children)
    inputs = [vertex_in[name] for name in circuit.inputs]
    arcs.extend((vertex_out[circuit.output], v) for v in inputs)
    excluded = set(b.provenance).difference(inputs)
    return b.build(edges, kind=IpdsInstance, excluded=excluded,
                   implication_arcs=arcs)


def ipds_ext_to_ipds(inst):
    """Drop the X and Y annotations without changing the optimum.

    Pre-selected vertices are forced structurally by attaching two leaves
    (a vertex with two plain leaves is in some minimum solution). Excluded
    vertices disappear through the copy construction: |V|+1 disjoint
    copies of the graph plus a non-propagating clique over the allowed
    vertices, where clique vertex b is adjacent to the closed neighborhood
    of its counterpart in every copy. Any minimum solution of size at most
    |V| then stays inside the clique. Parameter shift 0 (the forced
    vertices remain counted).
    """
    if not inst.excluded:
        # Leaves only: force each pre-selected vertex, then forget X.
        b = _Builder(inst)
        edges = list(inst.edges)
        boosters, arcs = inst.booster_edges, inst.implication_arcs
        anchor = range(inst.n)
    else:
        b = _Builder()
        edges, boosters, arcs, copies = [], [], [], []
        for i in range(inst.n + 1):
            copy = [b.add(("copy", i, v), inst.propagating[v])
                    for v in range(inst.n)]
            copies.append(copy)
            edges.extend((copy[u], copy[v]) for u, v in inst.edges)
            boosters.extend((copy[u], copy[v]) for u, v in inst.booster_edges)
            arcs.extend((copy[u], copy[v]) for u, v in inst.implication_arcs)
        anchor = {v: b.add(("clique", v), propagating=False)
                  for v in range(inst.n) if v not in inst.excluded}
        for orig, c in anchor.items():
            for copy in copies:
                edges.append((c, copy[orig]))
                edges.extend((c, copy[w]) for w in inst.adj[orig])
        edges.extend(combinations(anchor.values(), 2))
    # Two leaves on the vertex that stands for each pre-selected one.
    for x in sorted(inst.pre_selected):
        for _ in range(2):
            edges.append((anchor[x], b.add(("forcing_leaf", anchor[x]))))
    return b.build(edges, kind=IpdsInstance, pre_selected=(),
                   booster_edges=boosters, implication_arcs=arcs)


def eliminate_implication_arcs(inst):
    """Replace every arc (x, y) with the booster gadget.

    The gadget is x ~ a ~ p1, x ~ a ~ p2 over booster edges, plain edges
    p1-c and p2-c, and a booster edge c ~ y. Once x is observed the
    boosters light up a, p1, p2, then p1 propagates to c and the booster
    c ~ y reaches y; from y alone, c stays stuck with two unobserved
    neighbors, so nothing flows backwards. Parameter shift 0.
    """
    b = _Builder(inst)
    edges = list(inst.edges)
    boosters = list(inst.booster_edges)
    for x, y in inst.implication_arcs:
        a, p1, p2, c = (b.add(("arc_gadget", role, (x, y)))
                        for role in ("hub", "pendant", "pendant", "gate"))
        gadget = ((x, a), (a, p1), (a, p2), (c, y))
        boosters.extend(gadget)
        edges.extend([*gadget, (p1, c), (p2, c)])
    return b.build(edges, kind=IpdsInstance, booster_edges=boosters)


def eliminate_booster_edges(inst):
    """Subdivide every booster edge and tie the middle to a forced hub.

    A fresh hub b with two plain leaves is inserted once (shift +1); it is
    in some minimum solution, so each subdivision vertex starts observed
    and relays observation between its endpoints exactly like the booster
    rule did. Without booster edges nothing is added and the shift is 0.
    The output is always a plain PdsInstance. Requires implication arcs
    to be gone.
    """
    if inst.implication_arcs:
        raise ValueError("eliminate implication arcs before booster edges")
    b = _Builder(inst)
    edges = [e for e in inst.edges if e not in inst.booster_edges]
    if inst.booster_edges:
        hub = b.add(("booster_hub",))
        edges.extend((hub, b.add(("hub_leaf",))) for _ in range(2))
        for x, y in sorted(inst.booster_edges):
            mid = b.add(("subdivision", (x, y)))
            edges.extend([(x, mid), (mid, y), (mid, hub)])
    return b.build(edges, shift=1 if inst.booster_edges else 0)


def pds_to_simple(inst):
    """Attach a leaf to every non-propagating vertex, make all propagating.

    A vertex with a pendant leaf can never propagate anywhere else, which
    is exactly what non-propagating meant. Parameter shift 0.
    """
    if isinstance(inst, IpdsInstance) and (inst.booster_edges
                                           or inst.implication_arcs):
        raise ValueError("plain instance required")
    b = _Builder(inst)
    edges = list(inst.edges)
    edges.extend((v, b.add(("propagation_blocker", v)))
                 for v in range(inst.n) if not inst.propagating[v])
    return b.build(edges, propagating=None)


@dataclass
class ChainResult:
    circuit: Circuit
    instance: PdsInstance
    shift: int
    stages: list

    def witness_from_assignment(self, true_inputs):
        """Selection set realizing a satisfying assignment in the output.

        Per the chain's forward direction: select the top-clique
        counterpart of every true input plus the booster hub when one was
        inserted. The result has size |true_inputs| + shift.
        """
        s1, s2, s3, s4, _s5 = self.stages
        input_vertex = {role[1]: vid for vid, role in s1.provenance.items()
                        if role[0] == "in"}
        selected = {input_vertex[name] for name in true_inputs}
        clique = {role[1]: vid for vid, role in s2.provenance.items()
                  if role[0] == "clique"}
        if clique:
            selected = {clique[v] for v in selected}
        selected.update(vid for vid, role in s4.provenance.items()
                        if role == ("booster_hub",))
        return frozenset(selected)


def full_chain_detailed(circuit):
    """Run all four steps, keeping per-stage provenance.

    For a circuit with minimum satisfying weight w, the resulting
    all-propagating unannotated instance has optimum w + shift.
    """
    stages = [wmcs_to_ipds_ext(circuit)]
    for step in (ipds_ext_to_ipds, eliminate_implication_arcs,
                 eliminate_booster_edges, pds_to_simple):
        stages.append(step(stages[-1].output))
    out = stages[-1].output
    assert all(out.propagating)
    assert not out.pre_selected and not out.excluded
    return ChainResult(circuit, out, sum(t.shift for t in stages), stages)

