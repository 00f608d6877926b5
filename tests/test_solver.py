import random
import time

import pytest

from powerdom import (INFEASIBLE, OPTIMAL, TIMED_OUT, PdsInstance,
                      SolutionSet, greedy_complete, hittingset,
                      ihs_kernel_solve, lift_solution, merge_solutions,
                      reduce_full, solve, solver, split)
from powerdom.bruteforce import observed_set
from powerdom.errors import InfeasibleInstanceError
from powerdom.hittingset import HittingSetTimeout
from powerdom.propagation import ObservationState, observe_from

from conftest import (cycle_graph, disjoint_stars, grid_graph,
                      gridlike_graph, oracle_gamma, path_graph,
                      random_instance, star_graph)

SUBSETS = ("all", "local", "nonlocal", "local+dom", "local+necn", "none")
# Two 3-leaf stars with adjacent centres: gamma = 2, greedy bounds [1, 2].
TWO_STARS = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]


def test_solve_p5():
    res = solve(path_graph(5))
    assert res.status == OPTIMAL and res.gamma_p == 1
    assert len(observed_set(path_graph(5), res.solution.selected)) == 5


def test_solve_star():
    res = solve(star_graph(3))
    assert res.gamma_p == 1


def test_solve_c4_and_p3():
    assert solve(cycle_graph(4)).gamma_p == 1
    assert solve(path_graph(3)).gamma_p == 1


def test_solve_infeasible():
    res = solve(PdsInstance(1, excluded=[0]))
    assert res.status == INFEASIBLE and res.solution is None


def test_solve_empty_graph():
    res = solve(PdsInstance(0))
    assert res.status == OPTIMAL and res.gamma_p == 0


def test_solve_x_covers_everything():
    res = solve(star_graph(3, pre_selected=[0]))
    assert res.gamma_p == 1
    assert res.solution.selected == {0}


def test_ihs_direct():
    res = ihs_kernel_solve(path_graph(3), seed=0)
    assert res.status == OPTIMAL and res.gamma_p == 1
    res = ihs_kernel_solve(cycle_graph(4), seed=0)
    assert res.gamma_p == 1
    covered = star_graph(3, pre_selected=[0])
    res = ihs_kernel_solve(covered, seed=0)
    assert res.gamma_p == 1 and res.hitting_set_solves == 0


def test_greedy_complete_star_center():
    sol = greedy_complete(star_graph(3))
    assert sol.selected == {0}  # the center covers four vertices, leaves two


def test_greedy_complete_two_edges():
    inst = PdsInstance(4, [(0, 1), (2, 3)])
    sol = greedy_complete(inst)
    assert len(sol) == 2
    assert len(observed_set(inst, sol.selected)) == 4


def test_greedy_keeps_h_untouched():
    sol = greedy_complete(path_graph(5), h={0, 4})
    assert {0, 4} <= sol.selected


def test_greedy_infeasible():
    with pytest.raises(InfeasibleInstanceError):
        greedy_complete(PdsInstance(1, excluded=[0]))


def _rescan_greedy(inst, h=()):
    """Reference greedy: every pick rescans each candidate's closed
    neighbourhood on a fresh fixpoint, and the prune re-observes from
    scratch for each added vertex, in reverse order."""
    base = frozenset(h) | inst.pre_selected
    added = []
    while True:
        state = observe_from(inst, base | set(added))
        if state.is_complete():
            break
        observed = state.observed
        best_key = None
        for v in inst.undecided():
            if v in base or v in added:
                continue
            unseen = [w for w in (v, *inst.adj[v]) if not observed[w]]
            if not unseen:
                continue
            key = (-len(unseen),
                   -sum(1 for w in unseen if w != v and inst.propagating[w]),
                   v)
            best_key = min(best_key or key, key)
        if best_key is None:
            raise InfeasibleInstanceError("no vertex extends the observed set")
        added.append(best_key[2])
    for v in reversed(list(added)):
        rest = [u for u in added if u != v]
        if observe_from(inst, base | set(rest)).is_complete():
            added = rest
    return base | set(added)


def test_greedy_matches_a_rescanning_greedy():
    rng = random.Random(5)
    corpus = ([random_instance(s, n_max=25, m_max=50) for s in range(150)]
              + [gridlike_graph(60, s) for s in range(1, 6)])
    compared = 0
    for inst in corpus:
        undecided = inst.undecided()
        for h in ((), [v for v in undecided if rng.random() < 0.2]):
            # A passed state of h and X gives the same completion.
            state = observe_from(inst, inst.pre_selected | set(h))
            try:
                expected = _rescan_greedy(inst, h)
            except InfeasibleInstanceError:
                for given in (None, state):
                    with pytest.raises(InfeasibleInstanceError):
                        greedy_complete(inst, h, state=given)
                continue
            assert greedy_complete(inst, h).selected == expected
            assert greedy_complete(inst, h, state=state).selected == expected
            compared += 1
    assert compared > 200


def test_greedy_past_its_deadline_selects_every_undecided_vertex():
    passed = time.perf_counter() - 1.0
    inst = disjoint_stars(3).replace(pre_selected=[0], excluded=[5])
    assert greedy_complete(inst, h={1}).selected == {0, 1, 4, 8}
    # One pick, then every undecided vertex at once and no prune.
    sol = greedy_complete(inst, h={1}, deadline=passed)
    assert sol.selected == set(range(12)) - {5}
    assert len(observed_set(inst, sol.selected)) == inst.n
    # The first pick is always made: one vertex that completes the
    # instance is still found.
    assert greedy_complete(inst, h={8}, deadline=passed).selected == {0, 4, 8}
    # An isolated excluded vertex stays unobserved: still infeasible.
    lone = PdsInstance(4, [(0, 1), (1, 2)], excluded=[3])
    with pytest.raises(InfeasibleInstanceError, match="together"):
        greedy_complete(lone, deadline=passed)


def test_solver_matches_oracle_all_subsets(small_corpus):
    for inst, gamma in small_corpus:
        for subset in SUBSETS:
            res = solve(inst, reductions=subset, seed=1)
            got = res.gamma_p if res.status == OPTIMAL else None
            assert got == gamma, (inst, subset)
            if res.status == OPTIMAL:
                assert len(observed_set(inst, res.solution.selected)) == inst.n
                assert res.lower_bound == res.upper_bound == res.gamma_p


def test_solver_deterministic():
    inst = random_instance(11, n_max=12)
    a = solve(inst, seed=42)
    b = solve(inst, seed=42)
    assert (a.gamma_p, a.solution, a.fort_count, a.hitting_set_solves) == \
        (b.gamma_p, b.solution, b.fort_count, b.hitting_set_solves)


def test_trace_soundness():
    for seed in range(60):
        inst = random_instance(seed, n_max=10)
        gamma = oracle_gamma(inst)
        if gamma is None:
            continue
        res = solve(inst, seed=seed)
        assert res.gamma_p == gamma
        lowers = [v for _, k, v in res.bounds if k == "lower"]
        uppers = [v for _, k, v in res.bounds if k == "upper"]
        assert all(v <= gamma for v in lowers)
        assert all(v >= gamma for v in uppers)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        assert lowers[-1] == uppers[-1] == gamma


def _last_bounds(res):
    last = {kind: value for _, kind, value in res.bounds}
    return last["lower"], last["upper"]


def test_bounds_end_at_the_result_bounds():
    # The grid-like graph splits into twelve parts.
    optimal = solve(gridlike_graph(300, 2), seed=3)
    timed_out = solve(grid_graph(12), reductions="none", time_limit=0.3)
    assert optimal.status == OPTIMAL and timed_out.status == TIMED_OUT
    for res in (optimal, timed_out):
        assert _last_bounds(res) == (res.lower_bound, res.upper_bound)
        times = [t for t, _, _ in res.bounds]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] <= res.wall_time
    assert solve(PdsInstance(1, excluded=[0])).bounds == []


def test_time_limit_times_out():
    # an expired deadline must return bounds instead of an answer: the
    # greedy bounds [1, 2] rather than gamma = 2
    inst = PdsInstance(8, TWO_STARS)
    res = solve(inst, time_limit=0.0, reductions="none")
    assert res.status == TIMED_OUT
    assert res.gamma_p is None
    gamma = oracle_gamma(inst)
    assert res.lower_bound <= gamma <= res.upper_bound
    if res.solution is not None:
        assert len(observed_set(inst, res.solution.selected)) == inst.n


def test_timed_out_run_keeps_the_bounds_of_the_parts_it_reached():
    # A 40x40 grid with no reductions runs past the limit. Each of three
    # disjoint two-star graphs needs 2 vertices where greedy alone proves
    # 1, and solving the parts smallest first proves all three before the
    # grid takes the rest of the time.
    grid = grid_graph(40)
    stars = [(grid.n + 8 * c + u, grid.n + 8 * c + v)
             for c in range(3) for u, v in TWO_STARS]
    inst = PdsInstance(grid.n + 24, list(grid.edges) + stars)
    res = solve(inst, reductions="none", time_limit=1.0)
    assert res.status == TIMED_OUT
    assert res.lower_bound >= 1 + 3 * 2
    assert len(res.solution) == res.upper_bound
    times = [t for t, _, _ in res.bounds]
    assert times == sorted(times)
    assert len(observed_set(inst, res.solution.selected)) == inst.n


def test_expired_deadline_with_meeting_bounds_is_optimal():
    # Each star needs one vertex and the greedy takes one per star, so the
    # bounds meet before the deadline is first checked.
    inst = disjoint_stars(5)
    res = solve(inst, time_limit=0.0, reductions="none")
    assert res.status == OPTIMAL
    assert res.gamma_p == res.lower_bound == res.upper_bound == 5
    assert len(res.solution) == 5
    assert len(observed_set(inst, res.solution.selected)) == inst.n


def _alternating_parts():
    """A pre-selected hub 0 with six parts hanging off it, in this index
    order: paths of 2, 4 and 6 vertices, which the hub observes alone,
    each followed by a cycle of 5, 7 or 9 vertices joined to the hub at
    one vertex, which it does not."""
    edges, n = [], 1
    for j in range(3):
        path = list(range(n, n + 2 * j + 2))
        edges += [(0, path[0])] + list(zip(path, path[1:]))
        n += len(path)
        cycle = list(range(n, n + 2 * j + 5))
        edges += [(0, cycle[0])] + list(zip(cycle, cycle[1:] + cycle[:1]))
        n += len(cycle)
    return PdsInstance(n, edges, pre_selected=[0])


def test_parts_x_observes_are_not_solved(monkeypatch):
    # Neither the greedy completion nor the IHS loop runs on a part the
    # hub observes alone, and each other part's result is that of the
    # IHS loop under the seed drawn at the part's index.
    inst = _alternating_parts()
    parts = [part.instance for part in split(inst).parts]
    assert [observe_from(part, part.pre_selected).is_complete()
            for part in parts] == [True, False] * 3
    greedy, ihs = solver.greedy_complete, solver.ihs_kernel_solve
    greedy_on, solved = [], []

    def counted_greedy(part, *args, **kwargs):
        greedy_on.append(part)
        return greedy(part, *args, **kwargs)

    def counted_ihs(part, **kwargs):
        res = ihs(part, **kwargs)
        solved.append((part, kwargs["seed"], res))
        return res

    monkeypatch.setattr(solver, "greedy_complete", counted_greedy)
    monkeypatch.setattr(solver, "ihs_kernel_solve", counted_ihs)
    res = solve(inst, reductions="none", seed=3)
    open_parts = parts[1::2]
    assert greedy_on and all(part in open_parts for part in greedy_on)
    assert [part for part, _, _ in solved] == open_parts
    rng = random.Random(3)
    seeds = [rng.getrandbits(64) for _ in parts]
    for (part, seed, got), i in zip(solved, (1, 3, 5)):
        assert seed == seeds[i]
        want = ihs_kernel_solve(parts[i], seed=seeds[i])
        assert (got.status, got.solution, got.fort_count,
                got.hitting_set_solves) == (want.status, want.solution,
                                            want.fort_count,
                                            want.hitting_set_solves)
        assert ([b[1:] for b in got.bounds] == [b[1:] for b in want.bounds])
    assert res.status == OPTIMAL and res.gamma_p == 1 + 3
    assert len(observed_set(inst, res.solution.selected)) == inst.n


def test_deadline_cuts_a_hitting_set_solve(monkeypatch):
    # Under seed 0 the fourth hitting set solve of this graph branches.
    # Starting that solve only once the deadline has passed stands in for
    # a solve slower than the time left, and the search must stop at its
    # first branching node.
    inst = gridlike_graph(90, 11)
    limit = 1.0
    delayed = 4
    real = solver.solve_exact
    real_branch = hittingset._branch
    calls = []
    branched = []
    cut = []

    def late_solve(hs, lower_bound_hint=0, deadline=None):
        calls.append(len(hs))
        if len(calls) == delayed:
            time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        try:
            return real(hs, lower_bound_hint=lower_bound_hint,
                        deadline=deadline)
        except HittingSetTimeout:
            cut.append(len(hs))
            raise

    def counted_branch(*args):
        branched.append(len(calls))
        return real_branch(*args)

    monkeypatch.setattr(solver, "solve_exact", late_solve)
    monkeypatch.setattr(hittingset, "_branch", counted_branch)
    t0 = time.perf_counter()
    res = ihs_kernel_solve(inst, seed=0, deadline=t0 + limit)
    wall = time.perf_counter() - t0
    # The premise: the delayed solve reaches a branching node.
    assert len(calls) == delayed and branched[-1:] == [delayed]
    assert len(cut) == 1 and branched.count(delayed) == 1
    assert wall <= limit + 1.0
    assert res.status == TIMED_OUT and res.gamma_p is None
    assert len(observed_set(inst, res.solution.selected)) == inst.n
    assert res.lower_bound <= len(res.solution) == res.upper_bound


def test_grid_solves_are_seed_reproducible():
    for n, gen_seed in ((90, 11), (100, 3)):
        inst = gridlike_graph(n, gen_seed)
        a = solve(inst, reductions="none", seed=0)
        b = solve(inst, reductions="none", seed=0)
        assert a.status == OPTIMAL
        assert (a.solution, a.fort_count, a.hitting_set_solves) == \
            (b.solution, b.fort_count, b.hitting_set_solves)


# (n, generator seed, reductions, solver seed) of a grid-like graph, and
# its solve: gamma, solution, fort count, hitting-set solves and the
# values of its bound events in order.
PINNED_SOLVES = (
    ((90, 11, "none", 0),
     (15, {0, 1, 4, 7, 19, 30, 31, 38, 42, 50, 57, 64, 65, 69, 74}, 26, 3,
      [("lower", 1), ("upper", 15), ("lower", 12), ("lower", 14),
       ("lower", 15)])),
    ((100, 3, "none", 0),
     (14, {0, 4, 12, 16, 24, 29, 38, 44, 52, 54, 79, 81, 89, 91}, 21, 3,
      [("lower", 1), ("upper", 15), ("lower", 13), ("upper", 14),
       ("lower", 14)])),
    ((300, 2, "all", 3),
     (42, {5, 10, 11, 24, 44, 54, 66, 82, 84, 91, 92, 100, 108, 112, 114,
           115, 118, 147, 151, 157, 158, 170, 174, 187, 191, 194, 198, 208,
           220, 224, 227, 232, 236, 238, 246, 247, 253, 258, 265, 269, 277,
           282}, 69, 7,
      [("lower", 22), ("upper", 48), ("lower", 36), ("lower", 38),
       ("upper", 45), ("lower", 41), ("lower", 42), ("upper", 44),
       ("upper", 42)])),
)


def test_grid_solves_match_their_pinned_outputs():
    # A change that only saves work must leave every output as it was.
    for (n, gen_seed, rules, seed), pinned in PINNED_SOLVES:
        res = solve(gridlike_graph(n, gen_seed), reductions=rules, seed=seed)
        assert res.status == OPTIMAL
        assert res.lower_bound == res.upper_bound == res.gamma_p
        assert (res.gamma_p, res.solution.selected, res.fort_count,
                res.hitting_set_solves,
                [(kind, value) for _, kind, value in res.bounds]) == pinned


def test_each_loop_round_builds_one_fresh_observation_state(monkeypatch):
    # The initial greedy completion and the first fort sweep build one
    # each; every round after a hitting-set solve shares one between its
    # greedy completion, through a copy, and its fort sweep.
    init = ObservationState.__init__
    built = 0

    def counted(self, inst):
        nonlocal built
        built += 1
        init(self, inst)

    monkeypatch.setattr(ObservationState, "__init__", counted)
    rounds = 0
    for n, gen_seed in ((90, 11), (100, 3), (100, 13)):
        built = 0
        res = ihs_kernel_solve(gridlike_graph(n, gen_seed), seed=0)
        assert res.status == OPTIMAL
        assert built == 2 + res.hitting_set_solves
        rounds += res.hitting_set_solves
    assert rounds >= 6


def test_loop_completes_greedily_only_when_it_could_win(monkeypatch):
    # A greedy completion of an incomplete X | hit keeps a vertex it
    # adds, so the loop runs it only when `lower + 1` is below the
    # incumbent. On the grid-ihs benchmark graphs that leaves 11 of the
    # 17 completions the loop ran while it tested `lower` alone.
    greedy = solver.greedy_complete
    in_loop = 0

    def counted(inst, h=(), deadline=None, state=None):
        nonlocal in_loop
        in_loop += state is not None
        return greedy(inst, h, deadline, state)

    monkeypatch.setattr(solver, "greedy_complete", counted)
    for n, gen_seed in ((90, 6), (90, 11), (100, 13), (100, 6), (100, 3)):
        assert solve(gridlike_graph(n, gen_seed), reductions="none",
                     seed=0).status == OPTIMAL
    assert in_loop == 11


def test_time_limit_bounds_the_reduction():
    # All rules take 0.5-0.85 s to reduce this graph to its fixpoint on a
    # 2-core x86 machine, two to three times the limit; the solve must
    # stop reducing at the deadline and still return a feasible solution.
    # The reduction's own deadline check is pinned, independent of machine
    # speed, by test_deadline_cuts_the_reduction_to_a_safe_prefix in
    # test_reductions.py.
    inst = gridlike_graph(5000, 1)
    limit = 0.3
    t0 = time.perf_counter()
    res = solve(inst, time_limit=limit)
    wall = time.perf_counter() - t0
    assert wall <= limit + 1.0
    assert res.status == TIMED_OUT
    assert res.solution is not None
    assert len(observed_set(inst, res.solution.selected)) == inst.n
    assert res.lower_bound <= len(res.solution) == res.upper_bound


def test_time_limit_bounds_fort_generation():
    # With no reductions, the first fort sweep over this grid alone takes
    # 8-12 s on a 2-core x86 machine shared with other tenants, far over
    # the limit, so the solve must stop inside that sweep.
    inst = grid_graph(40)
    limit = 1.0
    t0 = time.perf_counter()
    res = solve(inst, reductions="none", time_limit=limit)
    wall = time.perf_counter() - t0
    assert wall <= limit + 0.5
    assert res.status == TIMED_OUT
    assert len(observed_set(inst, res.solution.selected)) == inst.n
    assert res.lower_bound <= len(res.solution) == res.upper_bound


def test_fort_sweep_cut_before_any_fort_times_out():
    # The sweep stops before its first fort, so nothing new is added;
    # that is a timeout, not a fort generation failure.
    inst = grid_graph(6)
    res = ihs_kernel_solve(inst, deadline=time.perf_counter())
    assert res.status == TIMED_OUT and res.fort_count == 0
    assert len(observed_set(inst, res.solution.selected)) == inst.n
    assert res.lower_bound <= len(res.solution) == res.upper_bound


def test_forts_of_a_sweep_that_ends_past_the_deadline_are_dropped(
        monkeypatch):
    # The first sweep finds its forts but returns only once the deadline
    # has passed; no solve is left to use them, so they add no row.
    inst = gridlike_graph(90, 11)
    real = solver.find_forts
    found = []

    def late_forts(*args, **kwargs):
        forts = real(*args, **kwargs)
        found.append(len(forts))
        time.sleep(max(0.0, kwargs["deadline"] - time.perf_counter()) + 0.01)
        return forts

    monkeypatch.setattr(solver, "find_forts", late_forts)
    res = ihs_kernel_solve(inst, seed=0, deadline=time.perf_counter() + 0.05)
    # The premise: the sweep found forts.
    assert len(found) == 1 and found[0] > 0
    assert res.status == TIMED_OUT and res.fort_count == 0
    assert res.hitting_set_solves == 0
    assert len(observed_set(inst, res.solution.selected)) == inst.n


def test_a_sweep_with_no_new_neighborhood_fails_the_loop(monkeypatch):
    inst = gridlike_graph(90, 11)
    real = solver.find_forts
    calls = []

    def repeated(*args, **kwargs):
        # A third sweep means the loop went on past the repeat.
        assert len(calls) < 2, "a third fort sweep ran"
        calls.append(real(*args, **kwargs))
        return calls[0]

    monkeypatch.setattr(solver, "find_forts", repeated)
    with pytest.raises(AssertionError,
                       match="fort generation added no new neighborhood"):
        ihs_kernel_solve(inst, seed=0)


def test_a_lower_bound_above_the_incumbent_fails_the_loop(monkeypatch):
    inst = gridlike_graph(90, 11)
    real = solver.solve_exact

    def too_large(*args, **kwargs):
        hit, _size = real(*args, **kwargs)
        return hit, inst.n + 1

    monkeypatch.setattr(solver, "solve_exact", too_large)
    with pytest.raises(AssertionError,
                       match="lower bound exceeded a feasible upper bound"):
        ihs_kernel_solve(inst, seed=0)


@pytest.mark.parametrize("bad", [-1, -3, 3, 7])
def test_vertex_ids_outside_the_instance_are_rejected(bad):
    # Negative ids once indexed from the end of an id table.
    inst = path_graph(3)
    _, log, _ = reduce_full(inst, "none")
    wrong = SolutionSet(frozenset({1, bad}))
    with pytest.raises(ValueError):
        merge_solutions(split(inst), [wrong])
    with pytest.raises(ValueError):
        lift_solution(log, wrong)
    with pytest.raises(ValueError):
        greedy_complete(inst, h={bad})


def test_greedy_rejects_an_excluded_vertex_in_h():
    with pytest.raises(ValueError):
        greedy_complete(path_graph(3, excluded=[0]), h={0})
