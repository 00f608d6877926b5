"""Minimum hitting set by exact branch and bound.

Instances only ever grow (sets are added, never removed), so the optimum
of an earlier instance is a valid lower bound for any later one. The
exact solver exploits that through a lower bound hint.

Every node of the exact search first reduces its family of unhit sets to
a kernel (Weihe, "Covering trains by stations or the power of data
reduction", ALEX 1998): elements of singleton sets are taken, supersets
of other sets are dropped, and an element is dropped when another one
lies in every set it lies in. The kernel is then split into components
that share no element, each solved on its own.
"""

from __future__ import annotations

import time

from .errors import InfeasibleInstanceError


class HittingSetTimeout(Exception):
    """`solve_exact` passed its deadline before it proved an optimum."""


class HittingSetInstance:
    """Family of vertex sets over a universe.

    Sets are intersected with the universe on entry; an intersection that
    comes up empty cannot be hit and raises `InfeasibleInstanceError`.
    Duplicate sets are dropped; supersets of existing sets are kept, and
    the exact search drops them from its kernels. Each set is also kept
    as a bitmask, bit i standing for the i-th smallest element of the
    universe, built once on entry for the exact search.
    """

    def __init__(self, universe, sets=()):
        self.universe = frozenset(universe)
        self._elements = sorted(self.universe)
        self._index = {v: i for i, v in enumerate(self._elements)}
        self.sets = []
        self._masks = []
        self._seen = set()
        self.add_sets(sets)

    def add_sets(self, new_sets):
        """Grow the family; returns self for chaining."""
        index = self._index
        for s in new_sets:
            cut = frozenset(s) & self.universe
            if not cut:
                raise InfeasibleInstanceError(
                    "a set has no element in the universe")
            if cut in self._seen:
                continue
            self._seen.add(cut)
            self.sets.append(cut)
            self._masks.append(sum(1 << index[v] for v in cut))
        return self

    def __len__(self):
        return len(self.sets)


def _bits(x):
    while x:
        low = x & -x
        yield low
        x ^= low


def _kernel(sets):
    """Reduce a family of element masks until no rule applies. Returns the
    elements of singleton sets, which every hitting set takes, and the rest
    sorted by (size, mask), or None in its place when a set is empty."""
    taken = 0
    while True:
        if 0 in sets:
            return taken, None
        units = 0
        for m in sets:
            if m & (m - 1) == 0:
                units |= m
        if units:
            taken |= units
            sets = [m for m in sets if not m & units]
            continue
        kept = []  # a superset is hit whenever its subset is
        for m in sorted(set(sets), key=lambda m: (m.bit_count(), m)):
            for k in kept:
                if k & m == k:
                    break
            else:
                kept.append(m)
        # An element lying in every set of another can replace it, so the
        # other is dropped; equal incidence keeps the lowest id. This is a
        # strict order, so every dropped element keeps a dominator.
        within, count = {}, {}
        for m in kept:
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                within[bit] = within.get(bit, m) & m
                count[bit] = count.get(bit, 0) + 1
        drop = 0
        for bit, cand in within.items():
            cand &= ~bit
            if not cand:
                continue
            if cand & (bit - 1) or any(count[v] > count[bit]
                                       for v in _bits(cand)):
                drop |= bit
        if not drop:
            return taken, kept
        sets = [m & ~drop for m in kept]


def _components(sets):
    """Split a family into parts that share no element, each with the size
    of a greedy packing of pairwise disjoint sets as its lower bound."""
    parts = []
    while sets:
        elems, grown = 0, sets[0]
        while grown != elems:
            elems = grown
            for m in sets:
                if m & elems:
                    grown |= m
        part = [m for m in sets if m & elems]
        used = bound = 0
        for m in part:
            if not m & used:
                used |= m
                bound += 1
        parts.append((part, bound))
        sets = [m for m in sets if not m & elems]
    return parts


def _search(sets, limit, floor, deadline):
    """Smallest hitting set of `sets` with fewer than `limit` elements, as
    (mask, size), or None. Reaching the lower bound `floor` ends the search."""
    taken, sets = _kernel(sets)
    if sets is None:
        return None
    parts = _components(sets)
    total = taken.bit_count() + sum(bound for _, bound in parts)
    if total >= limit:
        return None
    # `total` counts solved parts exactly and the others by their bound.
    for i, (part, bound) in enumerate(parts):
        total -= bound
        if i == len(parts) - 1:
            bound = max(bound, floor - total)
        got = _branch(part, limit - total, bound, deadline)
        if got is None:
            return None
        taken |= got[0]
        total += got[1]
    return taken, total


def _branch(sets, limit, floor, deadline):
    """`_search` on a kernel with one component: take an element of a
    smallest set, or forbid it in the branches after it."""
    if deadline is not None and time.perf_counter() > deadline:
        raise HittingSetTimeout("deadline passed inside the hitting set search")
    best = None
    forbidden = 0
    for bit in _bits(sets[0]):
        got = _search([m & ~forbidden for m in sets if not m & bit],
                      limit - 1, floor - 1, deadline)
        if got is not None:
            best, limit = got[0] | bit, got[1] + 1
            if limit <= floor:
                break
        forbidden |= bit
    return None if best is None else (best, limit)


def solve_exact(hs, lower_bound_hint=0, deadline=None):
    """Minimum hitting set by branch and bound on kernels. Each node reduces
    its unhit sets (see the module docstring) and solves each component
    within the budget the others' disjoint-set packing bounds leave,
    branching on the elements of a smallest set (take vs. forbid). The
    first dive sets the incumbent. Ties go to the lowest id, so results
    are deterministic.

    Returns (hitting set, size). `lower_bound_hint` may come from a
    previous solve of a subset family (the optimum only grows when sets
    are added) and ends the search once reached. Past the
    `time.perf_counter()` value `deadline`, the next branching node raises
    `HittingSetTimeout`.
    """
    elems = hs._elements
    # Every set is non-empty, so the whole universe is a hitting set and
    # the search, whose limit admits it, always finds one.
    mask, size = _search(hs._masks, len(elems) + 1, lower_bound_hint,
                         deadline)
    return frozenset(v for i, v in enumerate(elems) if mask >> i & 1), size
