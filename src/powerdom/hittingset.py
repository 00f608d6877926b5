"""Minimum hitting set by exact branch and bound.

Instances only ever grow (sets are added, never removed), so the optimum
of an earlier instance is a valid lower bound for any later one. The
exact solver exploits that through a lower bound hint.

Every node of the exact search first reduces its family of unhit sets to
a kernel (Weihe, "Covering trains by stations or the power of data
reduction", ALEX 1998): elements of singleton sets are taken, supersets
of other sets are dropped, and an element is dropped when another one
lies in every set it lies in. The kernel is then split into components
that share no element, each solved on its own by branching on the
elements of a smallest set, those that hit the most sets first.

Element dominance reads one table, `within[e]`: the AND of the sets that
hold e. Another element v lies in every set of e exactly when v is in
`within[e]`; v then lies in strictly more sets than e exactly when
`within[v]` lacks e, because a set holding v but not e is the only way
to have more. So e is dropped when `within[e]` holds a lower id, or a v
whose own entry lacks e; no set counts are needed.

The table is carried rather than rebuilt. An entry changes only when a
set that holds its element is deleted, and then only grows; deleting
elements from sets just clears their bits. A kernel round therefore
recomputes, and re-tests, only the elements of the sets it deleted
(sets hit by a singleton, and supersets less the subset that removed
them), and a child node starts from its parent's table and does the same
for the sets its take branch hit. Any other element e that was not
dominated stays so: its own entry only loses bits, and every v in it
still has e in its entry. Carried entries keep the bits of elements that have left the
family; only freshly recomputed entries are ever scanned, and a carried
one is only asked for the bit of an element that is still there.
Likewise a kernel's sets are never one inside another, so a node checks
for supersets only among pairs with a set that lost elements.

The family keeps the same table for itself as its sets arrive, over its
minimal sets: those that hold no other. A new set that holds a minimal
one is not minimal. Otherwise the minimal sets that hold it leave, the
entries of their elements outside it are recomputed, the one kind of
change that makes an entry grow, and the new set ANDs itself into its
elements' entries. The root of every exact solve therefore starts from
the family: the minimal singletons are taken, the minimal sets after
them are the family once its units and supersets are gone, and only the
dominance test runs on the family's table before the kernel goes on as
a node's would. Neither the table nor the minimal sets depend on a
solve, so no solve has to undo what a new set changes.
"""

from __future__ import annotations

import time
from bisect import bisect_right, insort
from itertools import chain

from .errors import InfeasibleInstanceError


class HittingSetTimeout(Exception):
    """`solve_exact` passed its deadline before it proved an optimum."""


class HittingSetInstance:
    """Family of vertex sets over a universe.

    Sets are intersected with the universe on entry; an intersection that
    comes up empty cannot be hit and raises `InfeasibleInstanceError`.
    Duplicate sets are dropped; supersets of existing sets are kept in
    `sets`, since every row counts and the ILP export writes them all.
    For the exact search the family also keeps, as rows arrive, its
    minimal sets as bitmasks, bit i standing for the i-th smallest element
    of the universe, sorted by (size, mask), and the table `within` over
    them (see the module docstring).
    """

    def __init__(self, universe, sets=()):
        self.universe = frozenset(universe)
        self._elements = sorted(self.universe)
        self._index = {v: i for i, v in enumerate(self._elements)}
        self.sets = []
        self._minimal = []
        self._within = {}
        self._seen = set()
        self.add_sets(sets)

    def add_sets(self, new_sets):
        """Grow the family; returns self for chaining.

        The upkeep of the minimal sets seldom fires in the IHS loop. Each
        new row there is the closed neighbourhood of a fort that misses the
        hitting set it was found for, and that hitting set meets every row
        of the earlier rounds, so no new row holds one of them. Nothing
        rules out a new row inside an earlier one, the case
        `_drop_supersets` handles, but it never ran over the seed-1
        benchmark inputs and the `gridlike_graph` (2000, 2), (2000, 4) and
        (3000, 3) solves: there no row held or lay in another."""
        index, within = self._index, self._within
        for s in new_sets:
            cut = frozenset(s) & self.universe
            if not cut:
                raise InfeasibleInstanceError(
                    "a set has no element in the universe")
            if cut in self._seen:
                continue
            self._seen.add(cut)
            self.sets.append(cut)
            m = sum(1 << index[v] for v in cut)
            # The minimal sets are an antichain, so m holds one of them or
            # lies in some of them, never both.
            gone = 0
            for k in self._minimal:
                if k & m == k:
                    break
                if k & m == m:
                    gone |= k
            else:
                if gone:
                    self._drop_supersets(m, gone)
                insort(self._minimal, m, key=_order)
                rest = m
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    within[bit] = within.get(bit, m) & m
        return self

    def _drop_supersets(self, m, gone):
        """Remove the minimal sets that hold m, whose union is `gone`. The
        entries of their elements outside m lose a set and are recomputed;
        those inside m are ANDed with m next, which every removed set
        holds."""
        self._minimal = [k for k in self._minimal if k & m != m]
        stale = rest = gone & ~m
        while rest:
            bit = rest & -rest
            rest ^= bit
            del self._within[bit]
        _and_into(self._within, self._minimal, stale)

    def __len__(self):
        return len(self.sets)


def _order(m):
    return m.bit_count(), m


def _and_into(table, sets, elems):
    """AND each set of `sets` into the entries of its elements in `elems`;
    an element with no entry yet starts from the set. Returns `table`."""
    for m in sets:
        rest = m & elems
        while rest:
            bit = rest & -rest
            rest ^= bit
            table[bit] = table.get(bit, m) & m
    return table


def _kernel(same, changed, within, stale):
    """Reduce the family `same` plus `changed` of element masks until no
    rule applies. Returns the elements of singleton sets, which every
    hitting set takes, the rest sorted by (size, mask), or None in its
    place when a set is empty, and the table `within` of the rest (see
    the module docstring).

    `same` must come from a kernel unchanged: sorted, with no singleton
    and no set inside another. A node passes its parent's `within` with
    `stale`, the union of the sets deleted since: only those elements are
    recomputed and re-tested. With the table {} and `stale` -1, every
    element is."""
    taken = 0
    within = dict(within)
    while True:
        if 0 in changed:
            return taken, None, within
        units = 0
        for m in changed:
            if m & (m - 1) == 0:
                units |= m
        if units:  # the sets left are unchanged, so none is a singleton
            taken |= units
            for m in chain(same, changed):
                if m & units:
                    stale |= m
            same = [m for m in same if not m & units]
            changed = [m for m in changed if not m & units]
        # A superset is hit whenever its subset is; two sets of `same` are
        # never one inside the other. A superset m of k changes only the
        # entries of m's elements outside k.
        kept = same
        if changed:
            new = []
            for m in sorted(set(changed), key=_order):
                for k in chain(new, same):
                    if k & m == k:
                        stale |= m & ~k
                        break
                else:
                    new.append(m)
            if not same:
                kept = new
            elif new:
                kept = []
                for m in same:
                    for k in new:
                        if k & m == k:
                            stale |= m & ~k
                            break
                    else:
                        kept.append(m)
                for m in new:
                    insort(kept, m, key=_order)
        fresh = _and_into({}, kept, stale)
        within.update(fresh)
        drop = _dominated(fresh.items(), within)
        if not drop:
            return taken, kept, within
        same = [m for m in kept if not m & drop]
        changed = [m & ~drop for m in kept if m & drop]
        stale = 0


def _dominated(entries, within):
    """Union of the elements, among the (bit, entry) pairs `entries`, that
    another element dominates. An element lying in every set of another
    can replace it, so the other is dropped; equal incidence keeps the
    lowest id. This is a strict order, so every dropped element keeps a
    dominator. A v in `within[bit]` lies in more sets than bit when
    `within[v]` lacks it."""
    drop = 0
    for bit, cand in entries:
        cand &= ~bit
        if cand & (bit - 1):
            drop |= bit
            continue
        while cand:
            v = cand & -cand
            if not within[v] & bit:
                drop |= bit
                break
            cand ^= v
    return drop


def _root_kernel(hs):
    """What `_kernel([], masks, {}, -1)` returns for every set of `hs`,
    read off the family's minimal sets and table. The singletons come
    first and no other minimal set holds their elements, so the rest is
    the family after its first round of units and supersets. The entry of
    a unit's element is its own bit, which dominance never drops, so the
    test reads the whole table. What it drops goes on through `_kernel`,
    which copies the table before it writes."""
    sets, within = hs._minimal, hs._within
    k = bisect_right(sets, 1, key=int.bit_count)
    units = sum(sets[:k])  # distinct bits
    sets = sets[k:]
    drop = _dominated(within.items(), within)
    if not drop:
        return units, sets, within
    taken, sets, within = _kernel([m for m in sets if not m & drop],
                                  [m & ~drop for m in sets if m & drop],
                                  within, 0)
    return units | taken, sets, within


def _components(sets):
    """Split a family into parts that share no element, each with the size
    of a greedy packing of pairwise disjoint sets as its lower bound."""
    parts = []
    while sets:
        # Each pass absorbs, as it scans, the sets left that meet the part
        # so far; a pass that absorbs nothing ends the part.
        elems, rest, absorbed = sets[0], sets[1:], True
        while absorbed:
            absorbed, left = False, []
            for m in rest:
                if m & elems:
                    elems |= m
                    absorbed = True
                else:
                    left.append(m)
            rest = left
        part = [m for m in sets if m & elems]
        used = bound = 0
        for m in part:
            if not m & used:
                used |= m
                bound += 1
        parts.append((part, bound))
        sets = rest
    return parts


def _solve(taken, sets, within, limit, floor, deadline):
    """Smallest hitting set, with fewer than `limit` elements, of the
    kernel `_kernel` returned as (taken, sets, within): as (mask, size),
    or None. Reaching the lower bound `floor` ends the search."""
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
        got = _branch(part, limit - total, bound, deadline, within)
        if got is None:
            return None
        taken |= got[0]
        total += got[1]
    return taken, total


def _branch(sets, limit, floor, deadline, within):
    """`_solve` on a kernel with one component: take an element of a
    smallest set, or forbid it in the branches after it. The elements go
    by how many sets they hit, most first, then by id. Each child's
    kernel starts from this kernel's table `within`."""
    if time.perf_counter() > deadline:
        raise HittingSetTimeout("deadline passed inside the hitting set search")
    first = sets[0]
    count, gone = {}, {}
    for m in sets:
        rest = m & first
        while rest:
            bit = rest & -rest
            rest ^= bit
            count[bit] = count.get(bit, 0) + 1
            gone[bit] = gone.get(bit, 0) | m
    best = None
    forbidden = 0
    for bit in sorted(count, key=lambda bit: (-count[bit], bit)):
        cut = bit | forbidden
        got = _solve(*_kernel([m for m in sets if not m & cut],
                              [m & ~forbidden for m in sets
                               if m & forbidden and not m & bit],
                              within, gone[bit]),
                     limit - 1, floor - 1, deadline)
        if got is not None:
            best, limit = got[0] | bit, got[1] + 1
            if limit <= floor:
                break
        forbidden |= bit
    return None if best is None else (best, limit)


def solve_exact(hs, lower_bound_hint=0, deadline=float("inf")):
    """Minimum hitting set by branch and bound on kernels. The root kernel
    starts from the minimal sets and table the family keeps as sets
    arrive; each node reduces its unhit sets (see the module docstring)
    from its parent's table and solves each component
    within the budget the others' disjoint-set packing bounds leave,
    branching on the elements of a smallest set (take vs. forbid), most
    sets hit first. The first dive sets the incumbent. Ties go to the
    lowest id, so results are deterministic.

    Returns (hitting set, size). `lower_bound_hint` may come from a
    previous solve of a subset family (the optimum only grows when sets
    are added) and ends the search once reached. Past the
    `time.perf_counter()` value `deadline`, by default none, the next
    branching node raises `HittingSetTimeout`.
    """
    elems = hs._elements
    # Every set is non-empty, so the whole universe is a hitting set and
    # the search, whose limit admits it, always finds one.
    mask, size = _solve(*_root_kernel(hs), len(elems) + 1, lower_bound_hint,
                        deadline)
    return frozenset(v for i, v in enumerate(elems) if mask >> i & 1), size
