"""Exact solving: reduce, split, implicit hitting set per subinstance.

The kernel loop alternates exact hitting set solves over the collected
fort neighborhoods with fort generation for the failed candidate, so the
hitting set optimum is an anytime lower bound while greedy completions
provide anytime upper bounds.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

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


class BoundsTrace:
    """Timestamped lower/upper bound events; only improvements are kept."""

    def __init__(self):
        self.events = []
        self._lower = None
        self._upper = None

    def add_lower(self, t, value):
        if self._lower is None or value > self._lower:
            self._lower = value
            self.events.append((t, "lower", value))

    def add_upper(self, t, value):
        if self._upper is None or value < self._upper:
            self._upper = value
            self.events.append((t, "upper", value))

    @property
    def lower(self):
        return self._lower

    @property
    def upper(self):
        return self._upper

    def write_csv(self, path):
        """Write the events to `path`: CSV, header t_seconds,kind,value."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t_seconds,kind,value\n")
            for t, kind, value in self.events:
                fh.write(f"{t:.6f},{kind},{value}\n")


@dataclass
class SolveResult:
    """`fort_count` counts the rows of the hitting-set instances, one per
    distinct fort neighborhood, summed over the parts."""

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


def greedy_complete(inst, h=(), deadline=None):
    """Extend h plus the pre-selected set to a feasible solution, then prune.

    Repeatedly selects the undecided vertex covering the most unobserved
    vertices in its closed neighborhood (ties: more unobserved propagating
    ones, then lowest id), then drops added vertices in reverse addition
    order while feasibility holds. The given h is never pruned. A
    vertex's gain is read in O(1) off the observation state, as its count
    of unobserved neighbours plus one if it is unobserved itself; only
    the vertices tied at the top gain scan their neighbours for the
    propagating tie-break.

    The `time.perf_counter()` value `deadline` is checked before every
    pick but the first, so an instance one vertex observes still gets it.
    Once the deadline has passed, every remaining undecided vertex is
    selected in one step and nothing is pruned; that set is feasible
    exactly when the instance is.
    """
    base = frozenset(h) | inst.pre_selected
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
        top, tied = 0, []
        for v in free:
            gain = unobs_count[v] + (not observed[v])
            if gain > top:
                top, tied = gain, [v]
            elif gain == top and gain:
                tied.append(v)
        if not tied:
            raise InfeasibleInstanceError(
                "no undecided vertex can extend the observed set")
        best = min(tied, key=lambda v: (
            -sum(1 for w in adj[v] if not observed[w] and propagating[w]), v))
        state.select(best)
        free.remove(best)
        added.append(best)
    for v in reversed(added):
        state.deselect(v)
        if not state.is_complete():
            state.select(v)
    return SolutionSet(frozenset(state.selected))


def ihs_kernel_solve(sub, seed=0, deadline=None, report=None,
                     incumbent=None):
    """Implicit hitting set loop for one (sub)instance.

    Intended for kernels but correct on any instance. `deadline` is a
    `time.perf_counter()` value; once it passes, the loop returns
    TimedOut with the best solution so far. `report(kind, value)`, with
    kind "lower" or "upper", receives every bound the loop proves or
    reaches, improving or not; values count the instance's pre-selected
    vertices. `incumbent` is `greedy_complete(sub)` when the caller has
    it already.

    Each fort's closed neighborhood goes straight into the hitting-set
    instance, which drops repeats, so the result's `fort_count` is its
    number of rows. A neighborhood never meets the pre-selected set, so
    two share a row only when they differ in excluded vertices alone,
    which ask nothing of the hitting set.
    """
    t0 = time.perf_counter()
    emit = report if report is not None else (lambda kind, value: None)

    def result(status, solution, gamma, lower, upper, forts, solves):
        return SolveResult(status, solution, gamma, lower, upper,
                           forts, solves, time.perf_counter() - t0, {}, seed)

    x_size = len(sub.pre_selected)
    best = (incumbent if incumbent is not None
            else greedy_complete(sub, (), deadline=deadline))
    if len(best) == x_size:
        # The pre-selected set alone observes everything.
        emit("lower", x_size)
        emit("upper", x_size)
        return result(OPTIMAL, best, x_size, x_size, x_size, 0, 0)

    rng = np.random.default_rng(seed)
    universe = frozenset(sub.undecided())
    hs = HittingSetInstance(universe)

    def expired():
        return deadline is not None and time.perf_counter() > deadline

    def grow(hitting_set):
        forts = find_forts(sub, hitting_set, seed=rng, deadline=deadline)
        before = len(hs)
        hs.add_sets(closed_neighborhood(sub, f) for f in forts)
        if hs.infeasible_sets:
            raise InfeasibleInstanceError(
                "a fort neighborhood contains no selectable vertex")
        # A sweep the deadline cut short may find nothing new; the loop
        # then returns TimedOut.
        if len(hs) == before and not expired():
            raise AssertionError("fort generation added no new neighborhood")

    grow(frozenset())
    emit("upper", len(best))
    lb_hint = 0
    solves = 0
    lower = x_size
    while True:
        if expired():
            return result(TIMED_OUT, best, None, lower, len(best),
                          len(hs), solves)
        try:
            hit, size = solve_exact(hs, lower_bound_hint=lb_hint,
                                    deadline=deadline)
        except HittingSetTimeout:
            return result(TIMED_OUT, best, None, lower, len(best),
                          len(hs), solves)
        solves += 1
        lb_hint = size
        lower = x_size + size
        emit("lower", lower)
        if lower > len(best):
            raise AssertionError("lower bound exceeded a feasible upper bound")
        # The completion has size `lower` exactly when the hitting set
        # observes the graph on its own, and is then kept even on a tie.
        completion = greedy_complete(sub, hit, deadline=deadline)
        if len(completion) == lower or len(completion) < len(best):
            best = completion
        emit("upper", len(best))
        if lower == len(best):
            # Bound sandwich: the incumbent is optimal.
            return result(OPTIMAL, best, lower, lower, lower,
                          len(hs), solves)
        grow(hit)


def _solve_part(sub, seed, seconds_left, incumbent):
    """`ihs_kernel_solve` in a worker process, whose `perf_counter` need
    not share the parent's origin, so the deadline is taken here."""
    deadline = (None if seconds_left is None
                else time.perf_counter() + seconds_left)
    events = []
    res = ihs_kernel_solve(sub, seed=seed, deadline=deadline,
                           report=lambda *event: events.append(event),
                           incumbent=incumbent)
    return res, events


def _solve_parts_in_pool(tasks, jobs, deadline):
    """`_solve_part` results for (sub, seed, incumbent) tasks run in worker
    processes, at most `jobs` at a time, each given the seconds left when
    it starts."""
    results = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        running = {}
        for k, (sub, seed, incumbent) in enumerate(tasks):
            if len(running) == jobs:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    results[running.pop(future)] = future.result()
            left = (None if deadline is None
                    else max(0.0, deadline - time.perf_counter()))
            running[pool.submit(_solve_part, sub, seed, left,
                                incumbent)] = k
        for future, k in running.items():
            results[k] = future.result()
    return results


def solve(inst, reductions="all", seed=0, time_limit=None, trace=None,
          jobs=1):
    """Full pipeline: reduce, split, solve each part, merge, lift.

    `reductions` names a rule subset ('all', 'local', 'nonlocal',
    'local+dom', 'local+necn', 'none'). Deterministic for a fixed seed
    when no timeout occurs; subinstances are solved largest-first with a
    shared deadline, which also cuts the reduction short. With `jobs > 1`
    the parts are solved in worker processes and their bound events are
    replayed in the same order, so the trace matches a serial run.
    """
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit is not None else None
    trace = trace if trace is not None else BoundsTrace()

    def clock():
        return time.perf_counter() - t0

    kernel, log, stats = reduce_full(inst, reductions, deadline=deadline)

    def result(status, solution, gamma, lower, upper, forts, solves):
        return SolveResult(status, solution, gamma, lower, upper, forts,
                           solves, time.perf_counter() - t0,
                           stats["rule_counts"], seed)

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
    trace.add_lower(clock(), x_size + sum(lowers))
    trace.add_upper(clock(), x_size + sum(uppers))

    def report(i):
        def bound(kind, value):
            extra = value - part_x[i]
            if kind == "lower" and extra > lowers[i]:
                lowers[i] = extra
                trace.add_lower(clock(), x_size + sum(lowers))
            elif kind == "upper" and extra < uppers[i]:
                uppers[i] = extra
                trace.add_upper(clock(), x_size + sum(uppers))
        return bound

    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(seed).spawn(max(1, len(parts)))]
    order = sorted(range(len(parts)), key=lambda i: -parts[i].n)
    if jobs > 1 and len(order) > 1:
        outcomes = _solve_parts_in_pool(
            [(parts[i], seeds[i], solutions[i]) for i in order], jobs,
            deadline)
        for i, (_res, events) in zip(order, outcomes):
            for kind, value in events:
                report(i)(kind, value)
        results = [res for res, _events in outcomes]
    else:
        results = []
        for i in order:
            if deadline is not None and time.perf_counter() > deadline:
                break
            results.append(ihs_kernel_solve(parts[i], seed=seeds[i],
                                            deadline=deadline,
                                            report=report(i),
                                            incumbent=solutions[i]))
    fort_count = hs_solves = 0
    for i, res in zip(order, results):
        fort_count += res.fort_count
        hs_solves += res.hitting_set_solves
        solutions[i] = res.solution

    lifted = lift_solution(log, merge_solutions(decomp, solutions))
    lower = x_size + sum(lowers)
    upper = x_size + sum(uppers)
    if lower < upper:
        return result(TIMED_OUT, lifted, None, lower, upper,
                      fort_count, hs_solves)
    if len(lifted) != upper:
        raise AssertionError("incumbent size differs from the upper bound")
    trace.add_lower(clock(), upper)
    trace.add_upper(clock(), upper)
    return result(OPTIMAL, lifted, upper, upper, upper,
                  fort_count, hs_solves)
