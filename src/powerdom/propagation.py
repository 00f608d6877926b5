"""Incremental observation engine.

Maintains the fixpoint of the two observation rules for a dynamic
selection set on a graph that may change:

* domination: a selected vertex observes its closed neighborhood;
* propagation: an observed propagating vertex with exactly one
  unobserved neighbor observes that neighbor.

Selections can be added and removed in arbitrary order. The state counts,
for every vertex, the selected vertices in its closed neighbourhood, and
links each vertex that propagation observed to the vertex that
propagated to it. A vertex is observed exactly when its count is
positive or it has a propagation parent, so losing a dominator is an
O(1) test and needs no search for another. Removing a selection, an
edge or a propagating flag, or adding an edge, invalidates exactly the
observations whose derivation the edit may break, together with
everything derived through them, and then re-propagates from the
boundary; so the state always equals a from-scratch recomputation on
the current graph and selection.

A vertex propagates to its single unobserved neighbour, after which all
its neighbours are observed, so it has at most one propagation child at
a time. Before it could propagate again, a neighbour must lose its
observation or it must gain an edge, and both first take that child
back; so each vertex keeps its child, and its parent, as one id. A link
is made only to a vertex that was unobserved, and goes when either end
is unmarked, so the links form a forest whose roots are dominated.

A caller that only tries selections and takes them back can instead open
a checkpoint and roll back to it. While a checkpoint is open, every
select and every vertex it newly observes is recorded on a trail;
rollback undoes the trail in reverse, which restores the state exactly
as it was at the checkpoint in time proportional to the work undone,
without the invalidate-and-repair of deselect. Deselect and the graph
edits are not allowed while a checkpoint is open, because the trail
cannot undo them.

Fort minimisation keeps a select only when the graph is still not fully
observed after it. `_select_unless_complete` does that in one call: it
selects under a checkpoint of its own and rolls it back when the state
completes. The observed set is the propagation closure of the selected
closed neighbourhoods, so it depends only on the set propagation starts
from, and it is monotone in that set: if the observed set O plus a set D
closes to the whole graph, so does any larger observed set plus D. This
is what lets `forts._reselect` skip a select it knows would complete.
"""

from __future__ import annotations


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
    open, and so does `copy()`.

    `checkpoint()` opens a checkpoint and returns its mark; `rollback(mark)`
    restores the state to what it was when that checkpoint was opened and
    closes it together with every checkpoint opened after it, and
    `release(mark)` closes them keeping what they did. Checkpoints nest,
    and one that is never rolled back stays open until an enclosing one
    is. `marked_since(mark)` lists the vertices newly observed since
    checkpoint `mark` was opened. `deselect` raises while any checkpoint
    is open.

    `dom_count[t]` is the number of selected vertices in N[t].
    `prop_parent[w]` is u and `prop_child[u]` is w exactly when u
    propagated to w, else both are -1; `observed[t]` holds exactly when
    `dom_count[t]` is positive or `prop_parent[t]` is not -1. A link
    u -> w stays only while u is observed, propagating and has every
    neighbour observed: `_invalidate` of any t drops the links out of t
    and out of t's neighbours, `edge_added` and `flag_cleared` drop the
    links out of the vertices they change, and `edge_removed` drops a
    link between its ends.
    """

    __slots__ = ("inst", "selected", "observed", "dom_count", "prop_parent",
                 "prop_child", "unobs_count", "observed_count", "_trail",
                 "_levels")

    def __init__(self, inst):
        self.inst = inst
        self.selected = set()
        self.observed = [False] * inst.n
        self.dom_count = [0] * inst.n
        self.prop_parent = [-1] * inst.n
        self.prop_child = [-1] * inst.n
        self.unobs_count = list(map(len, inst.adj))
        self.observed_count = 0
        # Undo records while a checkpoint is open: a marked vertex as its
        # id, a select of v as ~v. `_levels` holds each open checkpoint's
        # trail length.
        self._trail = []
        self._levels = []

    def is_complete(self):
        return self.observed_count == self.inst.n

    def observed_vertices(self):
        return frozenset(v for v in range(self.inst.n) if self.observed[v])

    def unobserved_vertices(self):
        return frozenset(v for v in range(self.inst.n) if not self.observed[v])

    # -- internal helpers -------------------------------------------------
    #
    # The marking of a newly observed vertex is written out in `_observe`
    # and again in `_propagate`, and the unmarking in `_invalidate` and in
    # `rollback`: a method call per vertex on these paths cost more than
    # the marking itself.

    def _observe(self, vertices, queue):
        """Mark each unobserved vertex of `vertices`, in order, queueing
        the vertices that may now propagate."""
        observed, unobs_count = self.observed, self.unobs_count
        adj, prop = self.inst.adj, self.inst.propagating
        trail = self._trail if self._levels else None
        marked = 0
        for v in vertices:
            if observed[v]:
                continue
            observed[v] = True
            marked += 1
            if trail is not None:
                trail.append(v)
            for u in adj[v]:
                c = unobs_count[u] - 1
                unobs_count[u] = c
                if c == 1 and observed[u] and prop[u]:
                    queue.append(u)
            if prop[v] and unobs_count[v] == 1:
                queue.append(v)
        self.observed_count += marked

    def _dominate(self, v, queue):
        """Select v and observe its closed neighbourhood, queueing the
        vertices that may now propagate; the caller propagates."""
        self.selected.add(v)
        if self._levels:
            self._trail.append(~v)
        hood = (v, *self.inst.adj[v])
        dom_count = self.dom_count
        for t in hood:
            dom_count[t] += 1
        self._observe(hood, queue)

    def _propagate(self, queue):
        """Run propagation from the queued vertices, first in first out;
        every queued vertex is observed and propagating."""
        observed, unobs_count = self.observed, self.unobs_count
        adj, prop = self.inst.adj, self.inst.propagating
        parent, child = self.prop_parent, self.prop_child
        trail = self._trail if self._levels else None
        marked = 0
        for u in queue:  # the loop also takes what it appends
            if unobs_count[u] != 1:
                continue
            for w in adj[u]:
                if not observed[w]:
                    break
            observed[w] = True
            marked += 1
            if trail is not None:
                trail.append(w)
            for x in adj[w]:
                c = unobs_count[x] - 1
                unobs_count[x] = c
                if c == 1 and observed[x] and prop[x]:
                    queue.append(x)
            if prop[w] and unobs_count[w] == 1:
                queue.append(w)
            parent[w] = u
            child[u] = w
        self.observed_count += marked

    def _invalidate(self, seeds):
        """Drop each seed's propagation link and unmark it if nothing
        dominates it, then do the same to every observation propagated
        through an unmarked vertex; returns the unmarked vertices."""
        observed, unobs_count = self.observed, self.unobs_count
        adj, dom_count = self.inst.adj, self.dom_count
        parent, child = self.prop_parent, self.prop_child
        # A link u -> w depends on u and on all other neighbours of u
        # being observed, so unmarking t kills the link out of t and out of
        # each of t's neighbours. A vertex that stays dominated keeps
        # everything derived through it.
        invalid = []
        for t in seeds:
            u = parent[t]
            if u != -1:
                child[u] = parent[t] = -1
            if observed[t] and not dom_count[t]:
                observed[t] = False
                for x in adj[t]:
                    unobs_count[x] += 1
                invalid.append(t)
        for t in invalid:
            for u in (t, *adj[t]):
                w = child[u]
                if w != -1:
                    child[u] = parent[w] = -1
                    if not dom_count[w]:
                        observed[w] = False
                        for x in adj[w]:
                            unobs_count[x] += 1
                        invalid.append(w)
        self.observed_count -= len(invalid)
        return invalid

    def _repair(self, invalid, ends=()):
        """Restore the fixpoint after `_invalidate`. `ends` are vertices
        whose own rule inputs an edit changed: they may now be dominated or
        propagate."""
        observed, adj, dom_count = self.observed, self.inst.adj, self.dom_count
        prop = self.inst.propagating
        queue = []
        for t in invalid:
            for u in adj[t]:
                if observed[u] and prop[u]:
                    queue.append(u)
        for t in ends:
            if dom_count[t]:
                self._observe((t,), queue)
            if observed[t] and prop[t]:
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
        queue = []
        self._dominate(v, queue)
        self._propagate(queue)
        return self

    def _select_unless_complete(self, v):
        """Select v unless that completes the state, in which case the
        state is left exactly as it was; returns whether v was kept. The
        select is recorded for an open checkpoint like any other."""
        mark = self.checkpoint()
        self.select(v)
        if self.observed_count == self.inst.n:
            self.rollback(mark)
            return False
        self.release(mark)
        return True

    def deselect(self, v):
        """Remove v from the selection.

        The vertices of N[v] that v alone dominated and that have no
        propagation parent are invalidated, with everything derived
        through them, and propagation re-runs from the boundary; when
        there are none, that is skipped. The rest of N[v] stays observed
        under its count or its link, so nothing derived through it
        changes.
        """
        if v not in self.selected:
            raise ValueError(f"vertex {v} is not selected")
        self._no_checkpoint("deselect")
        self.selected.discard(v)
        dom_count, prop_parent = self.dom_count, self.prop_parent
        seeds = []
        for t in (v, *self.inst.adj[v]):
            dom_count[t] -= 1
            if not dom_count[t] and prop_parent[t] == -1:
                seeds.append(t)
        if seeds:
            self._repair(self._invalidate(seeds))
        return self

    def edge_added(self, u, v):
        """Report that the edge uv was added to the graph."""
        self._no_checkpoint("edge_added")
        observed, selected = self.observed, self.selected
        self.unobs_count[u] += not observed[v]
        self.unobs_count[v] += not observed[u]
        self.dom_count[u] += v in selected
        self.dom_count[v] += u in selected
        # Propagations out of u and v counted on their old neighborhoods.
        children = (self.prop_child[u], self.prop_child[v])
        return self._edit([w for w in children if w != -1], (u, v))

    def edge_removed(self, u, v):
        """Report that the edge uv was removed from the graph."""
        self._no_checkpoint("edge_removed")
        observed, selected = self.observed, self.selected
        self.unobs_count[u] -= not observed[v]
        self.unobs_count[v] -= not observed[u]
        self.dom_count[u] -= v in selected
        self.dom_count[v] -= u in selected
        # An end loses its link if the other end propagated to it, and may
        # have lost its last dominator if it has no link.
        parent = self.prop_parent
        seeds = [t for t, s in ((u, v), (v, u)) if parent[t] in (s, -1)]
        return self._edit(seeds, (u, v))

    def flag_cleared(self, v):
        """Report that v no longer propagates."""
        self._no_checkpoint("flag_cleared")
        child = self.prop_child[v]
        return self._edit([] if child == -1 else [child], ())

    def copy(self):
        """Independent state over the same graph, equal to this one."""
        self._no_checkpoint("copy")
        other = ObservationState.__new__(ObservationState)
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, (list, set)):
                value = value.copy()
            setattr(other, name, value)
        other._trail = []
        other._levels = []
        return other

    def checkpoint(self):
        """Open a checkpoint; returns the mark to roll back to."""
        self._levels.append(len(self._trail))
        return len(self._levels) - 1

    def rollback(self, mark):
        """Undo every select since checkpoint `mark` was opened, and close
        it with every checkpoint opened after it."""
        start = self._levels[mark]
        del self._levels[mark:]
        trail, selected, observed = self._trail, self.selected, self.observed
        dom_count, unobs_count = self.dom_count, self.unobs_count
        adj = self.inst.adj
        parent, child = self.prop_parent, self.prop_child
        unmarked = 0
        for v in reversed(trail[start:]):
            if v < 0:
                v = ~v
                selected.discard(v)
                for t in (v, *adj[v]):
                    dom_count[t] -= 1
            else:
                u = parent[v]
                if u != -1:
                    child[u] = parent[v] = -1
                observed[v] = False
                unmarked += 1
                for t in adj[v]:
                    unobs_count[t] += 1
        del trail[start:]
        self.observed_count -= unmarked
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
        return [v for v in self._trail[self._levels[mark]:] if v >= 0]


def observe_from(inst, selected):
    """Fresh ObservationState for the given selection set."""
    state = ObservationState(inst)
    queue = []
    for v in sorted(set(selected)):
        state._dominate(v, queue)
    state._propagate(queue)
    return state

