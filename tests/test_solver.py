import random
import time

import pytest

from powerdom import (INFEASIBLE, OPTIMAL, TIMED_OUT, PdsInstance,
                      greedy_complete, ihs_kernel_solve, solve, solver)
from powerdom.bruteforce import observed_set
from powerdom.errors import InfeasibleInstanceError
from powerdom.hittingset import HittingSetTimeout
from powerdom.propagation import observe_from
from powerdom.solver import BoundsTrace

from conftest import (cycle_graph, disjoint_stars, grid_graph,
                      gridlike_graph, oracle_gamma, path_graph,
                      random_instance, star_graph)

SUBSETS = ("all", "local", "nonlocal", "local+dom", "local+necn", "none")


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
            try:
                expected = _rescan_greedy(inst, h)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    greedy_complete(inst, h)
                continue
            assert greedy_complete(inst, h).selected == expected
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
        trace = BoundsTrace()
        res = solve(inst, trace=trace, seed=seed)
        assert res.gamma_p == gamma
        lowers = [v for _, k, v in trace.events if k == "lower"]
        uppers = [v for _, k, v in trace.events if k == "upper"]
        assert all(v <= gamma for v in lowers)
        assert all(v >= gamma for v in uppers)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        assert trace.lower <= trace.upper


def test_trace_csv_format(tmp_path):
    trace = BoundsTrace()
    solve(disjoint_stars(3), trace=trace)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t_seconds,kind,value"
    for line in lines[1:]:
        t, kind, value = line.split(",")
        float(t)
        assert kind in ("lower", "upper")
        int(value)


def test_time_limit_times_out():
    # an expired deadline must return bounds instead of an answer; two
    # 3-leaf stars with adjacent centres need 2 vertices, but the bounds
    # known before any hitting set solve are 1 and 2
    inst = PdsInstance(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
                           (0, 4)])
    res = solve(inst, time_limit=0.0, reductions="none")
    assert res.status == TIMED_OUT
    assert res.gamma_p is None
    gamma = oracle_gamma(inst)
    assert res.lower_bound <= gamma <= res.upper_bound
    if res.solution is not None:
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


def test_deadline_cuts_a_hitting_set_solve(monkeypatch):
    # The first two hitting set solves of this graph need no branching;
    # the third does. Starting that solve only once the deadline has
    # passed stands in for a solve slower than the time left, and the
    # search must stop at its first branching node.
    inst = gridlike_graph(90, 11)
    limit = 1.0
    real = solver.solve_exact
    calls = []
    cut = []

    def late_third_solve(hs, lower_bound_hint=0, deadline=None):
        calls.append(len(hs))
        if len(calls) == 3:
            time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        try:
            return real(hs, lower_bound_hint=lower_bound_hint,
                        deadline=deadline)
        except HittingSetTimeout:
            cut.append(len(hs))
            raise

    monkeypatch.setattr(solver, "solve_exact", late_third_solve)
    t0 = time.perf_counter()
    res = ihs_kernel_solve(inst, seed=0, deadline=t0 + limit)
    wall = time.perf_counter() - t0
    assert len(calls) == 3 and len(cut) == 1
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


def test_jobs_parallel_agrees():
    inst = disjoint_stars(4)
    seq = solve(inst, seed=3, jobs=1)
    par = solve(inst, seed=3, jobs=2)
    assert seq.gamma_p == par.gamma_p == 4
    assert seq.solution == par.solution
    # Worker bound events are replayed in the serial order.
    inst = gridlike_graph(300, 2)
    traces = []
    for jobs in (1, 2):
        trace = BoundsTrace()
        solve(inst, seed=3, jobs=jobs, trace=trace)
        traces.append([(kind, value) for _, kind, value in trace.events])
    assert traces[0] == traces[1]


def test_jobs_time_limit_bounds_the_workers():
    # Each 12x12 grid alone takes longer than the limit with no
    # reductions. Two run in workers at once and must stop in time; the
    # third waits for a free worker and gets only the time left then.
    inst = grid_graph(12, copies=3)
    limit = 2.0
    t0 = time.perf_counter()
    res = solve(inst, reductions="none", jobs=2, time_limit=limit)
    wall = time.perf_counter() - t0
    assert res.status == TIMED_OUT
    assert wall <= limit + 1.0
    assert len(observed_set(inst, res.solution.selected)) == inst.n
    assert res.lower_bound <= len(res.solution) == res.upper_bound


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
    # One fort sweep over this grid takes about a second with no
    # reductions (0.95 s for the first on a 2-core x86 machine), so the
    # solve must stop inside a sweep.
    inst = grid_graph(24)
    limit = 3.0
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
