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
from .instance import PdsInstance


class Circuit:
    """Monotone circuit: a DAG of and/or gates with one output node.

    `nodes` maps name -> (kind, children); kinds are 'in', 'and', 'or',
    'out'. Children must be declared before use, gates and the output need
    at least one child, and every node must reach the output. A
    multi-child output behaves like an or-gate.
    """

    def __init__(self, nodes):
        self.nodes = dict(nodes)
        self.order = list(self.nodes)
        self.inputs = tuple(n for n, (k, _) in self.nodes.items() if k == "in")
        outs = [n for n, (k, _) in self.nodes.items() if k == "out"]
        if len(outs) != 1:
            raise ValueError("circuit needs exactly one output node")
        self.output = outs[0]
        declared = set()
        used = set()
        for name, (kind, children) in self.nodes.items():
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
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind not in ("in", "and", "or", "out"):
            raise ParseError(f"unknown node kind {kind!r}", lineno)
        if len(parts) < 2:
            raise ParseError("missing node name", lineno)
        name = parts[1]
        if any(name == existing for existing, _ in nodes):
            raise ParseError(f"duplicate node name {name!r}", lineno)
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


def wmcs_min_weight(circuit, k_max=None, max_inputs=20):
    """Minimum number of true inputs that satisfies the circuit.

    Subset enumeration by increasing weight; returns None when no
    assignment of weight <= k_max works. Monotone circuits are always
    satisfied by the all-true assignment, so without k_max the result is
    an integer.
    """
    if len(circuit.inputs) > max_inputs:
        raise GuardExceededError(
            f"{len(circuit.inputs)} inputs exceed guard {max_inputs}")
    cap = len(circuit.inputs) if k_max is None else min(k_max, len(circuit.inputs))
    for k in range(cap + 1):
        for combo in combinations(circuit.inputs, k):
            if eval_circuit(circuit, combo):
                return k
    return None


class IpdsInstance(PdsInstance):
    """Instance extended with booster edges and implication arcs."""

    __slots__ = ("booster_edges", "implication_arcs")

    def __init__(self, n, edges=(), propagating=None, pre_selected=(),
                 excluded=(), labels=None, booster_edges=(),
                 implication_arcs=()):
        super().__init__(n, edges, propagating, pre_selected, excluded, labels)
        boosters = set()
        for u, v in booster_edges:
            key = (u, v) if u < v else (v, u)
            if key not in self.edges:
                raise ValueError(f"booster edge {key} is not a graph edge")
            boosters.add(key)
        self.booster_edges = frozenset(boosters)
        arcs = []
        for u, v in implication_arcs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) references a missing vertex")
            if (u, v) not in arcs:
                arcs.append((u, v))
        self.implication_arcs = tuple(arcs)

    def to_pds(self):
        if self.booster_edges or self.implication_arcs:
            raise ValueError("instance still has booster edges or arcs")
        return PdsInstance(self.n, self.edges, self.propagating,
                           self.pre_selected, self.excluded, self.labels)

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
    """Output of one reduction step; chained shifts add up."""

    output: object
    shift: int
    provenance: dict = field(default_factory=dict)


def wmcs_to_ipds_ext(circuit):
    """Circuit to extension instance: arcs for wires, a gadget per and-gate.

    Every node becomes a vertex; an and-gate becomes an input vertex x and
    an output vertex y joined by an edge, with one proxy-input vertex per
    incoming wire attached to x. Wires become implication arcs (into the
    proxies for and-gates), the output implies every input, and everything
    except the circuit inputs is excluded. Parameter shift 0.
    """
    vertex_in = {}
    vertex_out = {}
    provenance = {}
    edges = []
    arcs = []
    next_id = 0

    def fresh(role):
        nonlocal next_id
        vid = next_id
        next_id += 1
        provenance[vid] = role
        return vid

    for name in circuit.order:
        kind, children = circuit.nodes[name]
        if kind == "and":
            x = fresh(("gate_input", name))
            y = fresh(("gate_output", name))
            edges.append((x, y))
            vertex_in[name] = x
            vertex_out[name] = y
            for child in children:
                proxy = fresh(("proxy_input", name, child))
                edges.append((proxy, x))
                arcs.append((vertex_out[child], proxy))
        else:
            v = fresh((kind, name))
            vertex_in[name] = v
            vertex_out[name] = v
            for child in children:
                arcs.append((vertex_out[child], v))
    for name in circuit.inputs:
        arcs.append((vertex_out[circuit.output], vertex_in[name]))

    input_ids = {vertex_in[name] for name in circuit.inputs}
    excluded = [v for v in range(next_id) if v not in input_ids]
    fanin = sum(len(circuit.nodes[g][1]) for g in circuit.order
                if circuit.nodes[g][0] == "and")
    n_and = sum(1 for _, (k, _) in circuit.nodes.items() if k == "and")
    assert next_id == len(circuit.nodes) + n_and + fanin
    out = IpdsInstance(next_id, edges, excluded=excluded,
                       implication_arcs=arcs)
    return Transform(out, 0, provenance)


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
    if not inst.pre_selected and not inst.excluded:
        return Transform(inst, 0, {v: ("kept", v) for v in range(inst.n)})

    if not inst.excluded:
        # Leaves only: force each pre-selected vertex, then forget X.
        n = inst.n
        edges = list(inst.edges)
        provenance = {v: ("kept", v) for v in range(n)}
        prop = list(inst.propagating)
        for x in sorted(inst.pre_selected):
            for _ in range(2):
                leaf = n
                n += 1
                edges.append((x, leaf))
                provenance[leaf] = ("forcing_leaf", x)
                prop.append(True)
        assert n == inst.n + 2 * len(inst.pre_selected)
        out = IpdsInstance(n, edges, prop,
                           booster_edges=inst.booster_edges,
                           implication_arcs=inst.implication_arcs)
        return Transform(out, 0, provenance)

    n = inst.n
    copies = n + 1
    allowed = sorted(v for v in range(n) if v not in inst.excluded)
    clique_id = {orig: copies * n + j for j, orig in enumerate(allowed)}
    total = copies * n + len(allowed) + 2 * len(inst.pre_selected)

    provenance = {}
    edges = []
    boosters = []
    arcs = []
    prop = [True] * total
    for i in range(copies):
        base = i * n
        for v in range(n):
            provenance[base + v] = ("copy", i, v)
            prop[base + v] = inst.propagating[v]
        for u, v in inst.edges:
            edges.append((base + u, base + v))
        for u, v in inst.booster_edges:
            boosters.append((base + u, base + v))
        for u, v in inst.implication_arcs:
            arcs.append((base + u, base + v))
    for orig, b in clique_id.items():
        provenance[b] = ("clique", orig)
        prop[b] = False
        for i in range(copies):
            base = i * n
            edges.append((b, base + orig))
            for w in inst.adj[orig]:
                edges.append((b, base + w))
    for a, b in combinations(sorted(clique_id.values()), 2):
        edges.append((a, b))
    next_id = copies * n + len(allowed)
    for x in sorted(inst.pre_selected):
        for _ in range(2):
            provenance[next_id] = ("forcing_leaf", clique_id[x])
            edges.append((clique_id[x], next_id))
            next_id += 1
    assert next_id == total
    out = IpdsInstance(total, edges, prop, booster_edges=boosters,
                       implication_arcs=arcs)
    return Transform(out, 0, provenance)


def eliminate_implication_arcs(inst):
    """Replace every arc (x, y) with the booster gadget.

    The gadget is x ~ a ~ p1, x ~ a ~ p2 over booster edges, plain edges
    p1-c and p2-c, and a booster edge c ~ y. Once x is observed the
    boosters light up a, p1, p2, then p1 propagates to c and the booster
    c ~ y reaches y; from y alone, c stays stuck with two unobserved
    neighbors, so nothing flows backwards. Parameter shift 0.
    """
    if not inst.implication_arcs:
        return Transform(inst, 0, {v: ("kept", v) for v in range(inst.n)})
    n = inst.n
    edges = list(inst.edges)
    boosters = list(inst.booster_edges)
    prop = list(inst.propagating)
    provenance = {v: ("kept", v) for v in range(n)}
    for x, y in inst.implication_arcs:
        a, p1, p2, c = n, n + 1, n + 2, n + 3
        n += 4
        prop.extend([True] * 4)
        for vid, role in zip((a, p1, p2, c), ("hub", "pendant", "pendant",
                                              "gate")):
            provenance[vid] = ("arc_gadget", role, (x, y))
        for u, v in ((x, a), (a, p1), (a, p2), (c, y)):
            edges.append((u, v))
            boosters.append((u, v))
        edges.extend([(p1, c), (p2, c)])
    assert n == inst.n + 4 * len(inst.implication_arcs)
    out = IpdsInstance(n, edges, prop, inst.pre_selected, inst.excluded,
                       booster_edges=boosters)
    return Transform(out, 0, provenance)


def eliminate_booster_edges(inst):
    """Subdivide every booster edge and tie the middle to a forced hub.

    A fresh hub b with two plain leaves is inserted once (shift +1); it is
    in some minimum solution, so each subdivision vertex starts observed
    and relays observation between its endpoints exactly like the booster
    rule did. Requires implication arcs to be gone.
    """
    if inst.implication_arcs:
        raise ValueError("eliminate implication arcs before booster edges")
    if not inst.booster_edges:
        return Transform(inst, 0, {v: ("kept", v) for v in range(inst.n)})
    n = inst.n
    edge_set = set(inst.edges) - set(inst.booster_edges)
    edges = list(edge_set)
    prop = list(inst.propagating)
    provenance = {v: ("kept", v) for v in range(n)}
    hub, l1, l2 = n, n + 1, n + 2
    n += 3
    prop.extend([True] * 3)
    provenance[hub] = ("booster_hub",)
    provenance[l1] = ("hub_leaf",)
    provenance[l2] = ("hub_leaf",)
    edges.extend([(hub, l1), (hub, l2)])
    for x, y in sorted(inst.booster_edges):
        mid = n
        n += 1
        prop.append(True)
        provenance[mid] = ("subdivision", (x, y))
        edges.extend([(x, mid), (mid, y), (mid, hub)])
    out = PdsInstance(n, edges, prop, inst.pre_selected, inst.excluded)
    return Transform(out, 1, provenance)


def pds_to_simple(inst):
    """Attach a leaf to every non-propagating vertex, make all propagating.

    A vertex with a pendant leaf can never propagate anywhere else, which
    is exactly what non-propagating meant. Parameter shift 0.
    """
    if isinstance(inst, IpdsInstance) and (inst.booster_edges
                                           or inst.implication_arcs):
        raise ValueError("plain instance required")
    n = inst.n
    edges = list(inst.edges)
    provenance = {v: ("kept", v) for v in range(n)}
    for v in range(inst.n):
        if not inst.propagating[v]:
            leaf = n
            n += 1
            edges.append((v, leaf))
            provenance[leaf] = ("propagation_blocker", v)
    assert n == inst.n + sum(1 for p in inst.propagating if not p)
    out = PdsInstance(n, edges, [True] * n, inst.pre_selected, inst.excluded)
    return Transform(out, 0, provenance)


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
    stages.append(ipds_ext_to_ipds(stages[-1].output))
    stages.append(eliminate_implication_arcs(stages[-1].output))
    stages.append(eliminate_booster_edges(stages[-1].output))
    last = stages[-1].output
    if isinstance(last, IpdsInstance):
        last = last.to_pds()
    stages.append(pds_to_simple(last))
    out = stages[-1].output
    assert all(out.propagating)
    assert not out.pre_selected and not out.excluded
    return ChainResult(circuit, out, sum(t.shift for t in stages), stages)

