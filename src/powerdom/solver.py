"""Exact solving: reduce, split, implicit hitting set per subinstance.

The kernel loop alternates exact hitting set solves over the collected
fort neighborhoods with fort generation for the failed candidate, so the
hitting set optimum is an anytime lower bound while greedy completions
provide anytime upper bounds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .decompose import merge_solutions, split
from .errors import InfeasibleInstanceError
from .forts import closed_neighborhood, find_forts
from .hittingset import HittingSetInstance, HittingSetTimeout, solve_exact
from .instance import SolutionSet
from .propagation import observe_from
from .reductions import lift_solution, reduce_full

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
TIMED_OUT = "TimedOut"


@dataclass
class SolveResult:
    """`fort_count` counts the rows of the hitting-set instances, one per
    distinct fort neighborhood, summed over the parts.

    `bounds` lists `(seconds since the call began, "lower" | "upper",
    value)`, one entry per improvement of either bound; the last of each
    kind are `lower_bound` and `upper_bound`, and an Infeasible result has
    none. The times ascend.
    """

    status: str
    solution: SolutionSet | None
    gamma_p: int | None
    lower_bound: int
    upper_bound: int | None
    fort_count: int
    hitting_set_solves: int
    wall_time: float
    rule_stats: dict = field(default_factory=dict)
    seed: int = 0
    bounds: list = field(default_factory=list)


def greedy_complete(inst, h=(), deadline=None, state=None):
    """Extend h plus the pre-selected set to a feasible solution, then prune.

    Repeatedly selects the undecided vertex covering the most unobserved
    vertices in its closed neighborhood (ties: more unobserved propagating
    ones, then lowest id), then drops added vertices in reverse addition
    order while feasibility holds. The given h is never pruned. A
    vertex's gain is read in O(1) off the observation state, as its count
    of unobserved neighbours plus one if it is unobserved itself; only
    the vertices tied at the top gain scan their neighbours for the
    propagating tie-break. Selecting only lowers gains, so a vertex whose
    gain reaches 0 leaves the scan. The last vertex added is kept without
    a test: dropping it restores the state before its pick, which was
    not complete.

    `state`, when given, must equal `observe_from(inst, h | X)`; it is
    used in place of a fresh one and left changed. The result is the same.

    The `time.perf_counter()` value `deadline` is checked before every
    pick but the first, so an instance one vertex observes still gets it.
    Once the deadline has passed, every remaining undecided vertex is
    selected in one step and nothing is pruned; that set is feasible
    exactly when the instance is.
    """
    base = frozenset(h) | inst.pre_selected
    if state is None:
        state = observe_from(inst, base)
    observed, unobs_count = state.observed, state.unobs_count
    adj, propagating = inst.adj, inst.propagating
    free = [v for v in inst.undecided() if v not in base]
    added = []
    while not state.is_complete():
        if (added and deadline is not None
                and time.perf_counter() > deadline):
            everything = base | frozenset(inst.undecided())
            if not observe_from(inst, everything).is_complete():
                raise InfeasibleInstanceError(
                    "the undecided vertices together leave a vertex unobserved")
            return SolutionSet(everything)
        top, tied, live = 0, [], []
        for v in free:
            gain = unobs_count[v] + (not observed[v])
            if not gain:
                continue
            live.append(v)
            if gain > top:
                top, tied = gain, [v]
            elif gain == top:
                tied.append(v)
        free = live
        if not tied:
            raise InfeasibleInstanceError(
                "no undecided vertex can extend the observed set")
        best = min(tied, key=lambda v: (
            -sum(1 for w in adj[v] if not observed[w] and propagating[w]), v))
        state.select(best)
        free.remove(best)
        added.append(best)
    for v in reversed(added[:-1]):
        state.deselect(v)
        if not state.is_complete():
            state.select(v)
    return SolutionSet(frozenset(state.selected))


def ihs_kernel_solve(sub, seed=0, deadline=None, incumbent=None):
    """Implicit hitting set loop for one (sub)instance.

    Intended for kernels but correct on any instance. `deadline` is a
    `time.perf_counter()` value; once it passes, the loop returns
    TimedOut with the best solution so far. The result's `bounds` start
    with the pre-selected count as lower bound and the incumbent's size
    as upper bound, then gain an entry each time `lower` rises or the
    incumbent shrinks; values count the instance's pre-selected vertices.
    `incumbent` is `greedy_complete(sub)` when the caller has it already.

    Each fort's closed neighborhood goes straight into the hitting-set
    instance, which drops repeats, so the result's `fort_count` is its
    number of rows. A neighborhood never meets the pre-selected set, so
    two share a row only when they differ in excluded vertices alone,
    which ask nothing of the hitting set.

    The fort sweeps draw their orders, one after another, from a stdlib
    `random.Random(seed)`. Each round builds the observation fixpoint of
    X and the hitting set once. A complete one makes them the incumbent;
    otherwise the greedy completion takes a copy of it and the fort sweep
    the state itself. The completion keeps at least one vertex it adds,
    the last one, so it is run only when `lower + 1` is below the
    incumbent's size: otherwise it could not replace the incumbent.
    """
    t0 = time.perf_counter()
    bounds = []

    def bound(kind, value):
        bounds.append((time.perf_counter() - t0, kind, value))

    def result(status, solution, gamma, lower, upper, forts, solves):
        return SolveResult(status, solution, gamma, lower, upper, forts,
                           solves, time.perf_counter() - t0, {}, seed, bounds)

    x_size = len(sub.pre_selected)
    best = (incumbent if incumbent is not None
            else greedy_complete(sub, (), deadline=deadline))
    bound("lower", x_size)
    bound("upper", len(best))
    if len(best) == x_size:
        # The pre-selected set alone observes everything.
        return result(OPTIMAL, best, x_size, x_size, x_size, 0, 0)

    rng = random.Random(seed)
    universe = frozenset(sub.undecided())
    hs = HittingSetInstance(universe)

    def expired():
        return deadline is not None and time.perf_counter() > deadline

    def grow(hitting_set, state=None):
        forts = find_forts(sub, hitting_set, seed=rng, deadline=deadline,
                           state=state)
        before = len(hs)
        hs.add_sets(closed_neighborhood(sub, f) for f in forts)
        # A sweep the deadline cut short may find nothing new; the loop
        # then returns TimedOut.
        if len(hs) == before and not expired():
            raise AssertionError("fort generation added no new neighborhood")

    grow(frozenset())
    solves = 0
    lower = x_size
    while True:
        if expired():
            return result(TIMED_OUT, best, None, lower, len(best),
                          len(hs), solves)
        try:
            hit, size = solve_exact(hs, lower_bound_hint=lower - x_size,
                                    deadline=deadline)
        except HittingSetTimeout:
            return result(TIMED_OUT, best, None, lower, len(best),
                          len(hs), solves)
        solves += 1
        if x_size + size > lower:
            lower = x_size + size
            bound("lower", lower)
        if lower > len(best):
            raise AssertionError("lower bound exceeded a feasible upper bound")
        # A complete fixpoint is what the greedy completion would return,
        # of size `lower`; an incomplete one completes to at least
        # `lower + 1`, which must beat the incumbent to be kept.
        state = observe_from(sub, sub.pre_selected | hit)
        if state.is_complete():
            shrunk = lower < len(best)
            best = SolutionSet(sub.pre_selected | hit)
            if shrunk:
                bound("upper", len(best))
        elif lower + 1 < len(best):
            completion = greedy_complete(sub, hit, deadline=deadline,
                                         state=state.copy())
            if len(completion) < len(best):
                best = completion
                bound("upper", len(best))
        if lower == len(best):
            # Bound sandwich: the incumbent is optimal.
            return result(OPTIMAL, best, lower, lower, lower,
                          len(hs), solves)
        grow(hit, state)


def solve(inst, reductions="all", seed=0, time_limit=None):
    """Full pipeline: reduce, split, solve each part, merge, lift.

    `reductions` names a rule subset ('all', 'local', 'nonlocal',
    'local+dom', 'local+necn', 'none'). Deterministic for a fixed seed
    when no timeout occurs. The parts are solved one after another,
    smallest first, under a shared deadline that also cuts the reduction
    short, so a timed-out run has proved what it can on every part it
    reached. Each part's seed is the 64-bit draw of that index from a
    stdlib `random.Random(seed)`, so its result does not depend on the
    order. A part's `bounds` go into the result's `bounds` as soon as it
    returns, timed from the call's start.
    """
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit is not None else None
    bounds = []

    def clock():
        return time.perf_counter() - t0

    kernel, log, stats = reduce_full(inst, reductions, deadline=deadline)

    def result(status, solution, gamma, lower, upper, forts, solves):
        return SolveResult(status, solution, gamma, lower, upper, forts,
                           solves, clock(), stats["rule_counts"], seed,
                           bounds)

    decomp = split(kernel)
    parts = [part.instance for part in decomp.parts]
    x_size = len(kernel.pre_selected)

    # Every part starts from its greedy incumbent; greedy fails exactly
    # when the part is infeasible. Bounds are kept per part beyond its
    # inherited X: a part X does not already observe needs one more vertex.
    try:
        solutions = [greedy_complete(part, deadline=deadline)
                     for part in parts]
    except InfeasibleInstanceError:
        return result(INFEASIBLE, None, None, 0, None, 0, 0)
    part_x = [len(part.pre_selected) for part in parts]
    uppers = [len(sol) - x for sol, x in zip(solutions, part_x)]
    lowers = [min(1, extra) for extra in uppers]
    bounds.append((clock(), "lower", x_size + sum(lowers)))
    bounds.append((clock(), "upper", x_size + sum(uppers)))

    rng = random.Random(seed)
    seeds = [rng.getrandbits(64) for _ in parts]
    # sorted is stable, so parts of equal size keep their index order.
    order = sorted(range(len(parts)), key=lambda i: parts[i].n)
    fort_count = hs_solves = 0
    for i in order:
        start = time.perf_counter()
        if deadline is not None and start > deadline:
            break
        res = ihs_kernel_solve(parts[i], seed=seeds[i], deadline=deadline,
                               incumbent=solutions[i])
        fort_count += res.fort_count
        hs_solves += res.hitting_set_solves
        solutions[i] = res.solution
        for t, kind, value in res.bounds:
            extra = value - part_x[i]
            if kind == "lower" and extra > lowers[i]:
                lowers[i] = extra
                bounds.append((start - t0 + t, kind, x_size + sum(lowers)))
            elif kind == "upper" and extra < uppers[i]:
                uppers[i] = extra
                bounds.append((start - t0 + t, kind, x_size + sum(uppers)))

    lifted = lift_solution(log, merge_solutions(decomp, solutions))
    lower = x_size + sum(lowers)
    upper = x_size + sum(uppers)
    if lower < upper:
        return result(TIMED_OUT, lifted, None, lower, upper,
                      fort_count, hs_solves)
    if len(lifted) != upper:
        raise AssertionError("incumbent size differs from the upper bound")
    return result(OPTIMAL, lifted, upper, upper, upper,
                  fort_count, hs_solves)
