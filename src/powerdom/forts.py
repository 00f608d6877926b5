"""Forts and the candidate-sequence fort heuristic.

A fort is a non-empty vertex set F such that no propagating vertex
outside F is adjacent to exactly one vertex of F. Any power dominating
set must intersect the closed neighborhood of every fort, which is what
turns fort families into hitting set instances.
"""

from __future__ import annotations

import random
import time

from .errors import InfeasibleInstanceError
from .propagation import observe_from


def closed_neighborhood(inst, vertices):
    out = set(vertices)
    for v in vertices:
        out.update(inst.adj[v])
    return frozenset(out)


def _reselect(state, pool, deadline=None):
    """Fort minimisation: select each unselected pool vertex in ascending
    id order unless that completes the state, stopping once the deadline
    has passed; returns the fort left, the unobserved set. Kept selects
    stay on the state, under whatever checkpoint the caller opened.

    Only the pool vertices in N[F] are walked, F being the unobserved
    set when minimisation starts. Observation only grows here, so a
    vertex whose closed neighbourhood is observed stays so. Such a vertex
    is skipped without a select: if N[p] lies in the closure of S, the
    closure of S, p and any later T equals that of S and T, so selecting
    p could neither complete the state nor change the unobserved set
    left. Every vertex outside N[F] is of this kind from the start.

    A vertex is also skipped when its select is known to complete the
    state. The closure of a selection is the propagation closure of the
    observed set plus the closed neighbourhoods selected, and that
    closure is monotone in the set it starts from. So when a rolled-back
    trial newly dominated exactly one vertex t, the observed set plus t
    closes to the whole graph, and so does any later, larger observed
    set plus t: every later p with t in N[p] completes the state too.
    """
    adj = state.inst.adj
    observed, unobs_count = state.observed, state.unobs_count
    start = state.unobserved_vertices()
    completes = set()
    for p in sorted(closed_neighborhood(state.inst, start)):
        if deadline is not None and time.perf_counter() > deadline:
            break
        if (p not in pool or p in state.selected or p in completes
                or (observed[p] and not unobs_count[p])):
            continue
        if state._select_unless_complete(p):
            continue
        # The state is back as it was, so the unobserved part of N[p] is
        # what the trial newly dominated.
        if unobs_count[p] + (not observed[p]) == 1:
            t = p if not observed[p] else next(
                w for w in adj[p] if not observed[w])
            completes.update((t, *adj[t]))
    return frozenset(t for t in start if not observed[t])


def find_forts(inst, hitting_set, seed=0, deadline=None, state=None):
    """Candidate-sequence fort heuristic.

    Splits the vertices into X (pre-selected), Y (excluded), H (the
    hitting set) and the undecided remainder U. Starting from the full
    candidate (all of H, X and U selected), vertices of U are swept out
    one at a time in a seeded random order; a removal that breaks the
    solution emits the unobserved set as a fort (minimized against the
    removed pool) and is undone on the next step. The re-selections that
    minimize a fort are undone by rolling back to a checkpoint taken
    before them. Every emitted fort neighborhood is disjoint from H and
    X, and at least one fort is returned whenever H with X is not
    already a solution.

    Minimisation (`_reselect`) makes selects in proportion to the fort,
    not to the pool: it walks only the removed vertices in N[F], F being
    the unobserved set the removal left, and it skips, without a select,
    every vertex whose select is known to complete the state. Both give
    the forts that trying every removed vertex in id order gives.

    The sweep starts at its first fort. Observation only grows with the
    selection, so the removals before the first fort all keep a
    solution, and the first fort comes at the step j where H, X and the
    vertices after order[j] leave a vertex unobserved but order[j] with
    them does not. A backward pass finds j: it observes from H and X and
    selects the order from the back, each select undone as soon as it
    would observe the graph, which leaves the state of step j with no
    deselect. The pass is not checked against the deadline; it costs
    O(n + m), as one full observation does.

    The order sorts the pool by one `random()` draw per vertex, in pool
    order, from stdlib `random`: `seed` is an int that seeds a
    `random.Random`, or such a generator itself. Python keeps `random()`
    of an int seed the same across versions, so a fixed seed reproduces
    the fort list on any platform. Once the `perf_counter` `deadline` has
    passed, the sweep stops and the forts found so far are returned,
    possibly none; the last may be left less minimized.

    `state`, when given, must equal `observe_from(inst, H | X)`; the sweep
    runs on it in place of a fresh one and leaves it changed. The forts
    are the same.
    """
    hitting_set = frozenset(hitting_set)
    base = hitting_set | inst.pre_selected
    pool = [v for v in inst.undecided() if v not in base]
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    key = rng.random
    order = sorted(pool, key=lambda v: key())
    if state is None:
        state = observe_from(inst, base)
    if state.is_complete():
        return []
    for first in range(len(order) - 1, -1, -1):
        if not state._select_unless_complete(order[first]):
            break
    else:
        raise InfeasibleInstanceError(
            "selecting every non-excluded vertex does not observe the graph")

    forts = []
    seen = set()
    removed = set(order[:first])
    for i in range(first, len(order)):
        if deadline is not None and time.perf_counter() > deadline:
            break
        u = order[i]
        if i > first:
            if not prev_was_solution:
                state.select(order[i - 1])
                removed.discard(order[i - 1])
            state.deselect(u)
        prev_was_solution = state.is_complete()
        if not prev_was_solution:
            mark = state.checkpoint()
            fort = _reselect(state, removed, deadline)
            state.rollback(mark)
            if fort not in seen:
                seen.add(fort)
                forts.append(fort)
        removed.add(u)
    return forts
