"""Incremental observation engine.

Maintains the fixpoint of the two observation rules for a dynamic
selection set on a graph that may change:

* domination: a selected vertex observes its closed neighborhood;
* propagation: an observed propagating vertex with exactly one
  unobserved neighbor observes that neighbor.

Selections can be added and removed in arbitrary order. Every observed
vertex carries a witness (selected itself / dominated by s / propagated
from u). Removing a selection, an edge or a propagating flag, or adding
an edge, invalidates exactly the observations whose derivation the edit
may break, together with everything derived through them, and then
re-propagates from the boundary; so the state always equals a
from-scratch recomputation on the current graph and selection. Removing
a selection first re-dominates what another selected vertex still
covers: such a vertex stays observed under the new witness, and only
the rest is invalidated, so a deselect inside a dense selection often
invalidates nothing.

A vertex propagates to its single unobserved neighbour, after which all
its neighbours are observed, so it has at most one propagation child at
a time. Before it could propagate again, a neighbour must lose its
observation or it must gain an edge, and both first take that child
back; so each vertex keeps its child as one id.

A caller that only tries selections and takes them back can instead open
a checkpoint and roll back to it. While a checkpoint is open, every
select and every vertex it newly observes is recorded on a trail;
rollback undoes the trail in reverse, which restores the state exactly
as it was at the checkpoint in time proportional to the work undone,
without the invalidate-and-repair of deselect. Deselect and the graph
edits are not allowed while a checkpoint is open, because the trail
cannot undo them.
"""

from __future__ import annotations

from collections import deque

SELF = ("self",)


class ObservationState:
    """Single-writer observation fixpoint over a graph.

    The graph is anything with `n`, `adj` and `propagating`, such as a
    `PdsInstance` or the reduction work state. Its owner may change it
    between operations, one edit at a time, provided it reports each
    edit right after making it: `edge_added(u, v)` once v is in adj[u]
    and u in adj[v], `edge_removed(u, v)` once both are gone, and
    `flag_cleared(v)` once `propagating[v]` is false. Deleting a vertex is
    removing each of its edges; an isolated vertex that is not selected is
    unobserved. Each report repairs the fixpoint locally and returns the
    vertices whose observed flag it changed, possibly with repeats and
    vertices that changed back. The edits raise while a checkpoint is
    open.

    `checkpoint()` opens a checkpoint and returns its mark; `rollback(mark)`
    restores the state to what it was when that checkpoint was opened and
    closes it together with every checkpoint opened after it, and
    `release(mark)` closes them keeping what they did. Checkpoints nest,
    and one that is never rolled back stays open until an enclosing one
    is. `marked_since(mark)` lists the vertices newly observed since
    checkpoint `mark` was opened. `deselect` raises while any checkpoint
    is open.

    `prop_child[u]` is w exactly when `witness[w]` is ("prop", u), else
    -1. `_propagate` sets it, `_unlink` clears it when w is unmarked or
    re-witnessed, and `rollback` restores it. `_invalidate` of any t
    unmarks the children of t and of t's neighbours, and `edge_added` and
    `flag_cleared` seed it with the children they find, so a vertex's
    child is gone before the vertex can propagate again.
    """

    __slots__ = ("inst", "selected", "observed", "witness", "prop_child",
                 "unobs_count", "observed_count", "_trail", "_levels")

    def __init__(self, inst):
        self.inst = inst
        self.selected = set()
        self.observed = [False] * inst.n
        self.witness = [None] * inst.n
        self.prop_child = [-1] * inst.n
        self.unobs_count = list(map(len, inst.adj))
        self.observed_count = 0
        # Undo records while a checkpoint is open: a marked vertex as its
        # id, a select as (vertex, its witness before the select).
        # `_levels` holds each open checkpoint's trail length.
        self._trail = []
        self._levels = []

    def is_complete(self):
        return self.observed_count == self.inst.n

    def observed_vertices(self):
        return frozenset(v for v in range(self.inst.n) if self.observed[v])

    def unobserved_vertices(self):
        return frozenset(v for v in range(self.inst.n) if not self.observed[v])

    # -- internal helpers -------------------------------------------------

    def _mark(self, v, witness, queue):
        self.observed[v] = True
        self.witness[v] = witness
        self.observed_count += 1
        if self._levels:
            self._trail.append(v)
        prop = self.inst.propagating
        for u in self.inst.adj[v]:
            self.unobs_count[u] -= 1
            if self.observed[u] and prop[u] and self.unobs_count[u] == 1:
                queue.append(u)
        if prop[v] and self.unobs_count[v] == 1:
            queue.append(v)

    def _dominate(self, v, queue):
        """Select v and observe its closed neighbourhood, queueing the
        vertices that may now propagate; the caller propagates."""
        self.selected.add(v)
        if self._levels:
            self._trail.append((v, self.witness[v]))
        if self.observed[v]:
            self._unlink(v)
            self.witness[v] = SELF
        else:
            self._mark(v, SELF, queue)
        for w in self.inst.adj[v]:
            if not self.observed[w]:
                self._mark(w, ("dom", v), queue)

    def _propagate(self, queue):
        prop = self.inst.propagating
        while queue:
            u = queue.popleft()
            if not (self.observed[u] and prop[u] and self.unobs_count[u] == 1):
                continue
            for w in self.inst.adj[u]:
                if not self.observed[w]:
                    self._mark(w, ("prop", u), queue)
                    self.prop_child[u] = w
                    break

    def _unlink(self, v):
        w = self.witness[v]
        if w is not None and w[0] == "prop":
            self.prop_child[w[1]] = -1

    def _unmark(self, v):
        self._unlink(v)
        self.observed[v] = False
        self.witness[v] = None
        self.observed_count -= 1
        for u in self.inst.adj[v]:
            self.unobs_count[u] += 1

    def _invalidate(self, seeds):
        """Unmark the observed seeds and every observation derived through
        an unmarked vertex; returns the unmarked vertices."""
        observed, adj = self.observed, self.inst.adj
        prop_child = self.prop_child
        # A propagation witness (u -> w) depends on u and on all other
        # neighbors of u being observed, so unobserving t kills the
        # propagation out of t and out of each of t's neighbors.
        invalid = []
        for t in seeds:
            if observed[t]:
                self._unmark(t)
                invalid.append(t)
        for t in invalid:
            for u in (t, *adj[t]):
                w = prop_child[u]
                if w != -1 and w != t and observed[w]:
                    self._unmark(w)
                    invalid.append(w)
        return invalid

    def _repair(self, invalid, ends=()):
        """Restore the fixpoint after `_invalidate`. `ends` are vertices
        whose own rule inputs an edit changed: they may now be dominated or
        propagate."""
        observed, adj, selected = self.observed, self.inst.adj, self.selected
        # Re-dominate what a selected vertex still covers, then run
        # propagation from the surviving boundary.
        queue = deque()
        for group in (invalid, ends):
            for t in group:
                if observed[t]:
                    continue
                for s in adj[t]:
                    if s in selected:
                        self._mark(t, ("dom", s), queue)
                        break
        for t in invalid:
            for u in adj[t]:
                if observed[u]:
                    queue.append(u)
            if observed[t]:
                queue.append(t)
        for t in ends:
            if observed[t]:
                queue.append(t)
        self._propagate(queue)

    def _no_checkpoint(self, operation):
        if self._levels:
            raise RuntimeError(f"{operation} while a checkpoint is open")

    def _edit(self, seeds, ends):
        """Invalidate from `seeds`, repair, and return the vertices whose
        observed flag changed, read off a checkpoint's trail."""
        invalid = self._invalidate(seeds)
        mark = self.checkpoint()
        self._repair(invalid, ends)
        changed = invalid + self.marked_since(mark)
        self.release(mark)
        return changed

    # -- public operations -------------------------------------------------

    def select(self, v):
        """Add v to the selection and advance the fixpoint incrementally."""
        if v in self.selected:
            raise ValueError(f"vertex {v} already selected")
        queue = deque()
        self._dominate(v, queue)
        self._propagate(queue)
        return self

    def deselect(self, v):
        """Remove v from the selection.

        v and every vertex v dominated are first re-dominated by another
        selected neighbour where they have one: they stay observed, and no
        propagation witness names a dom-witnessed vertex, so nothing
        derived through them changes. Only the rest are invalidated, with
        everything derived through them, and propagation re-runs from the
        boundary; when nothing is left to invalidate, that is skipped.
        """
        if v not in self.selected:
            raise ValueError(f"vertex {v} is not selected")
        self._no_checkpoint("deselect")
        selected, witness, adj = self.selected, self.witness, self.inst.adj
        selected.discard(v)
        dominated = ("dom", v)
        seeds = []
        for t in (v, *adj[v]):
            if witness[t] != (SELF if t == v else dominated):
                continue
            for s in adj[t]:
                if s in selected:
                    witness[t] = ("dom", s)
                    break
            else:
                seeds.append(t)
        if seeds:
            self._repair(self._invalidate(seeds))
        return self

    def edge_added(self, u, v):
        """Report that the edge uv was added to the graph."""
        self._no_checkpoint("edge_added")
        self.unobs_count[u] += not self.observed[v]
        self.unobs_count[v] += not self.observed[u]
        # Propagations out of u and v counted on their old neighborhoods.
        children = (self.prop_child[u], self.prop_child[v])
        return self._edit([w for w in children if w != -1], (u, v))

    def edge_removed(self, u, v):
        """Report that the edge uv was removed from the graph."""
        self._no_checkpoint("edge_removed")
        self.unobs_count[u] -= not self.observed[v]
        self.unobs_count[v] -= not self.observed[u]
        witness = self.witness
        seeds = [t for t, s in ((u, v), (v, u))
                 if witness[t] == ("dom", s) or witness[t] == ("prop", s)]
        return self._edit(seeds, (u, v))

    def flag_cleared(self, v):
        """Report that v no longer propagates."""
        self._no_checkpoint("flag_cleared")
        child = self.prop_child[v]
        return self._edit([] if child == -1 else [child], ())

    def checkpoint(self):
        """Open a checkpoint; returns the mark to roll back to."""
        self._levels.append(len(self._trail))
        return len(self._levels) - 1

    def rollback(self, mark):
        """Undo every select since checkpoint `mark` was opened, and close
        it with every checkpoint opened after it."""
        start = self._levels[mark]
        del self._levels[mark:]
        trail = self._trail
        while len(trail) > start:
            entry = trail.pop()
            if entry.__class__ is tuple:
                v, witness = entry
                self.selected.discard(v)
                if witness is not None:
                    self.witness[v] = witness
                    if witness[0] == "prop":
                        self.prop_child[witness[1]] = v
            else:
                self._unmark(entry)
        return self

    def release(self, mark):
        """Close checkpoint `mark` and every checkpoint opened after it,
        keeping what they did; an enclosing checkpoint can still undo it."""
        del self._levels[mark:]
        if not self._levels:
            self._trail.clear()
        return self

    def marked_since(self, mark):
        """Vertices newly observed since checkpoint `mark` was opened."""
        return [entry for entry in self._trail[self._levels[mark]:]
                if entry.__class__ is not tuple]


def observe_from(inst, selected):
    """Fresh ObservationState for the given selection set."""
    state = ObservationState(inst)
    queue = deque()
    for v in sorted(set(selected)):
        state._dominate(v, queue)
    state._propagate(queue)
    return state


def observation_neighborhood(inst, vertices=()):
    """Vertices observed when selecting `vertices` on top of the
    instance's pre-selected set."""
    return observe_from(inst, inst.pre_selected | set(vertices)).observed_vertices()
