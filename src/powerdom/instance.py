"""Annotated graph instances: data model, file I/O, random generation.

An instance is an undirected simple graph where every vertex carries three
markings: propagating or not, pre-selected (forced into any solution) and
excluded (forbidden from any solution). Vertices that are neither
pre-selected nor excluded are called undecided.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from .errors import ParseError


def _normalize_edges(n, edges):
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a vertex >= {n}")
        out.add((u, v) if u < v else (v, u))
    return tuple(sorted(out))


class PdsInstance:
    """Immutable graph with propagating / pre-selected / excluded markings.

    Vertex ids are dense integers 0..n-1. Optional string labels carry
    external names (e.g. grid bus ids) and are never used algorithmically.
    """

    __slots__ = ("n", "edges", "adj", "propagating",
                 "pre_selected", "excluded", "labels")

    def __init__(self, n, edges=(), propagating=None, pre_selected=(),
                 excluded=(), labels=None):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        self.edges = _normalize_edges(self.n, edges)
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        if propagating is None:
            self.propagating = (True,) * self.n
        else:
            prop = list(propagating)
            if len(prop) != self.n:
                raise ValueError("propagating flags must cover every vertex")
            self.propagating = tuple(bool(p) for p in prop)
        self.pre_selected = frozenset(int(v) for v in pre_selected)
        self.excluded = frozenset(int(v) for v in excluded)
        for v in self.pre_selected | self.excluded:
            if not 0 <= v < self.n:
                raise ValueError(f"flagged vertex {v} out of range")
        conflict = self.pre_selected & self.excluded
        if conflict:
            raise ValueError(
                f"vertices both pre-selected and excluded: {sorted(conflict)}")
        self.labels = dict(labels) if labels else {}
        for v, label in self.labels.items():
            if not 0 <= v < self.n:
                raise ValueError(f"label on vertex {v} out of range")
            # The .pds grammar's labels are single words outside comments.
            if not label or "#" in label or any(c.isspace() for c in label):
                raise ValueError(f"label {label!r} is empty or holds "
                                 "whitespace or '#'")

    @property
    def m(self):
        return len(self.edges)

    def undecided(self):
        """Vertex ids that are neither pre-selected nor excluded, ascending."""
        decided = self.pre_selected | self.excluded
        return tuple(v for v in range(self.n) if v not in decided)

    def replace(self, **changes):
        """Copy with the given fields replaced (edges given as pair iterable)."""
        kwargs = dict(n=self.n, edges=self.edges, propagating=self.propagating,
                      pre_selected=self.pre_selected, excluded=self.excluded,
                      labels=self.labels)
        kwargs.update(changes)
        return PdsInstance(**kwargs)

    def __eq__(self, other):
        if not isinstance(other, PdsInstance):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.propagating == other.propagating
                and self.pre_selected == other.pre_selected
                and self.excluded == other.excluded
                and self.labels == other.labels)

    def __hash__(self):
        return hash((self.n, self.edges, self.propagating,
                     self.pre_selected, self.excluded))

    def __repr__(self):
        return (f"PdsInstance(n={self.n}, m={self.m}, "
                f"|X|={len(self.pre_selected)}, |Y|={len(self.excluded)}, "
                f"nonprop={self.propagating.count(False)})")


@dataclass(frozen=True)
class SolutionSet:
    """A set of selected vertices; extension solutions contain all of X and avoid Y."""

    selected: frozenset

    def __len__(self):
        return len(self.selected)

    def validate(self, inst):
        if not all(0 <= v < inst.n for v in self.selected):
            raise ValueError("solution holds a vertex id outside 0..n-1")
        if not inst.pre_selected <= self.selected:
            raise ValueError("solution misses pre-selected vertices")
        if self.selected & inst.excluded:
            raise ValueError("solution contains excluded vertices")


def parse_instance(text, fmt="pds"):
    """Parse a `.pds` file or a bare edge list.

    The `.pds` grammar (UTF-8, line oriented, '#' starts a comment):

        p pds <n> <m>        header, first non-comment line, exactly once
        v <id> <flag>        flag N = non-propagating, S = pre-selected,
                             X = excluded; repeats are idempotent
        l <id> <label>       optional label, no whitespace or '#'; a
                             repeat must give the same label
        e <u> <v>            exactly m edge lines, u != v

    The `edgelist` format is one `u v` pair per line with ids taken
    literally; all vertices default to propagating and undecided.
    """
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt != "pds":
        raise ValueError(f"unknown format {fmt!r}")

    n = m = None
    nonprop, pre, exc = set(), set(), set()
    flags = {"N": nonprop, "S": pre, "X": exc}
    labels = {}
    edges = set()
    for lineno, parts in _lines(text):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "pds":
                raise ParseError("expected 'p pds <n> <m>'", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", lineno)
            if n < 0 or m < 0:
                raise ParseError("header counts must be non-negative", lineno)
            continue
        if n is None:
            raise ParseError("header must precede all other lines", lineno)
        if kind == "v":
            if len(parts) != 3:
                raise ParseError("expected 'v <id> <flag>'", lineno)
            vid = _vertex_id(parts[1], n, lineno)
            if parts[2] not in flags:
                raise ParseError(f"unknown vertex flag {parts[2]!r}", lineno)
            flags[parts[2]].add(vid)
            if vid in pre and vid in exc:
                raise ParseError(
                    f"vertex {vid} both pre-selected and excluded", lineno)
        elif kind == "l":
            if len(parts) != 3:
                raise ParseError("expected 'l <id> <label>'", lineno)
            vid = _vertex_id(parts[1], n, lineno)
            if labels.setdefault(vid, parts[2]) != parts[2]:
                raise ParseError(f"vertex {vid} labelled both "
                                 f"{labels[vid]!r} and {parts[2]!r}", lineno)
        elif kind == "e":
            if len(parts) != 3:
                raise ParseError("expected 'e <u> <v>'", lineno)
            u = _vertex_id(parts[1], n, lineno)
            v = _vertex_id(parts[2], n, lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise ParseError(f"duplicate edge {key}", lineno)
            edges.add(key)
        else:
            raise ParseError(f"unknown line kind {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p pds <n> <m>' header")
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, found {len(edges)}")
    prop = [v not in nonprop for v in range(n)]
    return PdsInstance(n, edges, prop, pre, exc, labels)


def _lines(text):
    """(line number, words) of each line of `text`, a str or UTF-8 bytes,
    that holds a word outside its '#' comment."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if words:
            yield lineno, words


def _vertex_id(token, n, lineno):
    try:
        vid = int(token)
    except ValueError:
        raise ParseError(f"vertex id {token!r} is not an integer", lineno)
    if not 0 <= vid < n:
        raise ParseError(f"vertex id {vid} out of range 0..{n - 1}", lineno)
    return vid


def _parse_edgelist(text):
    edges = []
    top = -1
    for lineno, parts in _lines(text):
        if len(parts) != 2:
            raise ParseError("expected 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("vertex ids must be integers", lineno)
        if u < 0 or v < 0:
            raise ParseError("vertex ids must be non-negative", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
        top = max(top, u, v)
    return PdsInstance(top + 1, edges)


def write_instance(inst):
    """Serialize to canonical `.pds` text; inverse of parse_instance."""
    lines = [f"p pds {inst.n} {inst.m}"]
    for v in range(inst.n):
        if not inst.propagating[v]:
            lines.append(f"v {v} N")
    for v in sorted(inst.pre_selected):
        lines.append(f"v {v} S")
    for v in sorted(inst.excluded):
        lines.append(f"v {v} X")
    for v in sorted(inst.labels):
        lines.append(f"l {v} {inst.labels[v]}")
    for u, v in inst.edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _floyd(rng, k, total):
    # k distinct ints of range(total) by Floyd's algorithm, one random() each.
    picks = set()
    for j in range(total - k, total):
        t = int(rng.random() * (j + 1))
        picks.add(j if t in picks else t)
    return picks


def generate_random(n, m, frac_nonprop=0.0, seed=0):
    """Random simple graph with exactly m edges, sampled without replacement.

    floor(frac_nonprop * n) vertices are marked non-propagating. Pure
    function of its arguments: it uses only `random()` draws of a stdlib
    `random.Random(seed)`, whose stream Python keeps the same across
    versions for an int seed.
    """
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"m={m} is outside the simple-graph range 0..{max_m}")
    if not 0.0 <= frac_nonprop <= 1.0:
        raise ValueError("frac_nonprop must be within [0, 1]")
    rng = random.Random(seed)
    # Pair index i, in the order (0, 1), (0, 2), ..., (1, 2), ..., is the
    # pair (u, u + 1 + i - start[u]) of the last row u starting at or
    # before i; row u starts at u(2n - u - 1) / 2.
    start = [u * (2 * n - u - 1) // 2 for u in range(n)]
    edges = []
    for i in _floyd(rng, m, max_m):
        u = bisect_right(start, i) - 1
        edges.append((u, u + 1 + i - start[u]))
    nonprop = _floyd(rng, int(frac_nonprop * n), n)
    return PdsInstance(n, edges, [v not in nonprop for v in range(n)])
