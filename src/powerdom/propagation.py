"""Incremental observation engine.

Maintains the fixpoint of the two observation rules for a dynamic
selection set:

* domination: a selected vertex observes its closed neighborhood;
* propagation: an observed propagating vertex with exactly one
  unobserved neighbor observes that neighbor.

Selections can be added and removed in arbitrary order. Every observed
vertex carries a witness (selected itself / dominated by s / propagated
from u); deselection invalidates exactly the observations whose
derivation passed through the removed vertex and then re-propagates, so
the state always equals a from-scratch recomputation.

A caller that only tries selections and takes them back can instead open
a checkpoint and roll back to it. While a checkpoint is open, every
select and every vertex it newly observes is recorded on a trail;
rollback undoes the trail in reverse, which restores the state exactly
as it was at the checkpoint in time proportional to the work undone,
without the invalidate-and-repair of deselect. Deselect is not allowed
while a checkpoint is open, because the trail cannot undo it.
"""

from __future__ import annotations

from collections import deque

SELF = ("self",)


class ObservationState:
    """Single-writer observation fixpoint over a graph.

    The graph is anything with `n`, `adj`, `propagating` and `degree(v)`,
    such as a `PdsInstance` or the reduction work state. Its edges and
    propagating flags must not change while the state is in use.

    `checkpoint()` opens a checkpoint and returns its mark; `rollback(mark)`
    restores the state to what it was when that checkpoint was opened and
    closes it together with every checkpoint opened after it. Checkpoints
    nest, and one that is never rolled back stays open until an enclosing
    one is. `deselect` raises while any checkpoint is open.
    """

    __slots__ = ("inst", "selected", "observed", "witness", "prop_children",
                 "unobs_count", "observed_count", "_trail", "_levels")

    def __init__(self, inst):
        self.inst = inst
        self.selected = set()
        self.observed = [False] * inst.n
        self.witness = [None] * inst.n
        self.prop_children = [set() for _ in range(inst.n)]
        self.unobs_count = [inst.degree(v) for v in range(inst.n)]
        self.observed_count = 0
        # Undo records while a checkpoint is open: a marked vertex as its
        # id, a select as (vertex, its witness before the select).
        # `_levels` holds each open checkpoint's trail length.
        self._trail = []
        self._levels = []

    def is_complete(self):
        return self.observed_count == self.inst.n

    def is_observed(self, v):
        return self.observed[v]

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

    def _propagate(self, queue):
        prop = self.inst.propagating
        while queue:
            u = queue.popleft()
            if not (self.observed[u] and prop[u] and self.unobs_count[u] == 1):
                continue
            for w in self.inst.adj[u]:
                if not self.observed[w]:
                    self._mark(w, ("prop", u), queue)
                    self.prop_children[u].add(w)
                    break

    def _unlink(self, v):
        w = self.witness[v]
        if w is not None and w[0] == "prop":
            self.prop_children[w[1]].discard(v)

    def _unmark(self, v):
        self._unlink(v)
        self.observed[v] = False
        self.witness[v] = None
        self.observed_count -= 1
        for u in self.inst.adj[v]:
            self.unobs_count[u] += 1

    # -- public operations -------------------------------------------------

    def select(self, v):
        """Add v to the selection and advance the fixpoint incrementally."""
        if v in self.selected:
            raise ValueError(f"vertex {v} already selected")
        self.selected.add(v)
        if self._levels:
            self._trail.append((v, self.witness[v]))
        queue = deque()
        if self.observed[v]:
            self._unlink(v)
            self.witness[v] = SELF
        else:
            self._mark(v, SELF, queue)
        for w in self.inst.adj[v]:
            if not self.observed[w]:
                self._mark(w, ("dom", v), queue)
        self._propagate(queue)
        return self

    def deselect(self, v):
        """Remove v, invalidate observations derived through it, re-propagate."""
        if v not in self.selected:
            raise ValueError(f"vertex {v} is not selected")
        if self._levels:
            raise RuntimeError("deselect while a checkpoint is open")
        self.selected.discard(v)
        # Invalidation closure. A propagation witness (u -> w) depends on u
        # and on all other neighbors of u being observed, so unobserving t
        # kills every propagation out of t and out of t's neighbors.
        invalid = []
        pending = deque()

        def invalidate(t):
            if not self.observed[t]:
                return
            self._unmark(t)
            invalid.append(t)
            pending.append(t)

        if self.witness[v] == SELF:
            invalidate(v)
        for w in list(self.inst.adj[v]):
            wit = self.witness[w]
            if wit is not None and wit == ("dom", v):
                invalidate(w)
        while pending:
            t = pending.popleft()
            for w in list(self.prop_children[t]):
                invalidate(w)
            for u in self.inst.adj[t]:
                for w in [c for c in self.prop_children[u] if c != t]:
                    invalidate(w)
        # Repair: re-dominate what another selected vertex still covers,
        # then run propagation from the surviving boundary.
        queue = deque()
        for t in invalid:
            if self.observed[t]:
                continue
            if t in self.selected:
                self._mark(t, SELF, queue)
                continue
            for s in self.inst.adj[t]:
                if s in self.selected:
                    self._mark(t, ("dom", s), queue)
                    break
        for t in invalid:
            for u in self.inst.adj[t]:
                if self.observed[u]:
                    queue.append(u)
            if self.observed[t]:
                queue.append(t)
        self._propagate(queue)
        return self

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
                        self.prop_children[witness[1]].add(v)
            else:
                self._unmark(entry)
        return self


def observe_from(inst, selected):
    """Fresh ObservationState for the given selection set."""
    state = ObservationState(inst)
    queue = deque()
    for v in sorted(set(selected)):
        state.selected.add(v)
        if not state.observed[v]:
            state._mark(v, SELF, queue)
        else:
            state._unlink(v)
            state.witness[v] = SELF
        for w in inst.adj[v]:
            if not state.observed[w]:
                state._mark(w, ("dom", v), queue)
    state._propagate(queue)
    return state


def observation_neighborhood(inst, vertices=()):
    """Vertices observed when selecting `vertices` on top of the
    instance's pre-selected set."""
    return observe_from(inst, inst.pre_selected | set(vertices)).observed_vertices()
