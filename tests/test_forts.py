import random
import time

import numpy as np
import pytest

from powerdom import (enumerate_minimal_forts, find_forts, generate_random,
                      is_fort, oracle_pds)
from powerdom.errors import InfeasibleInstanceError
from powerdom.forts import _reselect, closed_neighborhood
from powerdom.instance import PdsInstance
from powerdom.propagation import ObservationState, observe_from
from powerdom.solver import greedy_complete

from conftest import gridlike_graph, path_graph, random_instance, star_graph


def test_is_fort_examples():
    p3 = path_graph(3)
    assert is_fort(p3, {0, 2})
    assert not is_fort(p3, {0})  # middle vertex sees exactly one
    assert not is_fort(p3, set())


def minimized(inst, pool, selected=()):
    """The unobserved set left after fort minimisation re-selects `pool`
    on top of `selected`, as `find_forts` does."""
    state = observe_from(inst, selected)
    _reselect(state, pool)
    return state.unobserved_vertices()


def test_fort_from_candidate():
    # The unobserved remainder of a candidate selection is a fort.
    p3 = path_graph(3)
    assert observe_from(p3, {0}).is_complete()  # {0} already solves P3
    assert observe_from(p3, ()).unobserved_vertices() == {0, 1, 2}
    star = star_graph(3)
    fort = observe_from(star, {1}).unobserved_vertices()
    assert fort == {2, 3} and is_fort(star, fort)


def test_minimize_fort_p3_irreducible():
    # every single re-selection empties the fort, so it stays whole
    p3 = path_graph(3)
    assert minimized(p3, {0, 1, 2}) == {0, 1, 2}


def test_minimize_fort_pool_empty():
    p3 = path_graph(3)
    assert minimized(p3, set()) == {0, 1, 2}


def test_minimize_fort_shrinks():
    star = star_graph(3)
    # selection {1} leaves {2,3} unobserved; no pool vertex can be
    # re-selected without emptying it
    assert minimized(star, {2}, selected={1}) == {2, 3}
    # two disjoint paths: re-selecting into one leaves the other as the fort
    two_p3 = PdsInstance(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    fort = minimized(two_p3, {0})
    assert fort == {3, 4, 5}
    assert is_fort(two_p3, fort)


def test_find_forts_p3_matches_enumeration():
    p3 = path_graph(3)
    all_forts = {frozenset({0, 2}), frozenset({0, 1, 2})}
    for seed in range(10):
        for fort in find_forts(p3, frozenset(), seed=seed):
            assert fort in all_forts


def test_find_forts_deterministic():
    inst = random_instance(3, n_max=10, x_max=0, y_max=0)
    assert find_forts(inst, frozenset(), seed=9) == \
        find_forts(inst, frozenset(), seed=9)


def test_find_forts_empty_when_solved():
    p3 = path_graph(3, pre_selected=[1])
    assert find_forts(p3, frozenset(), seed=0) == []


def test_find_forts_stops_at_the_deadline():
    inst = path_graph(6)
    assert find_forts(inst, frozenset(), seed=0)
    assert find_forts(inst, frozenset(), seed=0,
                      deadline=time.perf_counter() - 1) == []


def test_find_forts_infeasible():
    lone = PdsInstance(1, excluded=[0])
    with pytest.raises(InfeasibleInstanceError):
        find_forts(lone, frozenset(), seed=0)


def test_find_forts_properties():
    rng = np.random.default_rng(4)
    emitted = 0
    for seed in range(60):
        inst = random_instance(seed, n_max=10)
        hitting = frozenset(
            v for v in inst.undecided() if rng.random() < 0.3)
        try:
            forts = find_forts(inst, hitting, seed=seed)
        except InfeasibleInstanceError:
            continue
        base = hitting | inst.pre_selected
        if forts == []:
            # H plus X must already be a solution
            from powerdom.bruteforce import observed_set
            assert len(observed_set(inst, base)) == inst.n
        for fort in forts:
            emitted += 1
            assert is_fort(inst, fort)
            hood = closed_neighborhood(inst, fort)
            assert not hood & base  # never already hit
    assert emitted > 50


def test_every_optimum_hits_every_fort_neighborhood():
    for seed in range(30):
        inst = random_instance(seed, n_max=8, x_max=0, y_max=0)
        try:
            _, witness = oracle_pds(inst)
        except InfeasibleInstanceError:
            continue
        for fort in enumerate_minimal_forts(inst):
            assert witness.selected & closed_neighborhood(inst, fort)


def _sweep_order(inst, hitting_set, seed):
    """H with X, and the order `find_forts` sweeps the rest of the
    undecided vertices in: sorted by one stdlib `random()` draw each."""
    base = frozenset(hitting_set) | inst.pre_selected
    pool = [v for v in inst.undecided() if v not in base]
    key = random.Random(seed).random
    return base, sorted(pool, key=lambda v: key())


def test_sweep_order_is_pinned():
    # With no edges, a vertex is observed only when selected, so the
    # first fort comes at the first step and each step's fort is the one
    # vertex it removes: the forts spell out the order drawn for seed 0.
    # The literal is the stream of every Python version.
    inst = PdsInstance(12)
    order = [3, 7, 5, 2, 8, 11, 4, 9, 1, 6, 0, 10]
    assert find_forts(inst, frozenset(), seed=0) == \
        [frozenset({v}) for v in order]
    assert _sweep_order(inst, (), 0) == (frozenset(), order)


def _select_deselect_find_forts(inst, hitting_set, seed, tried=None):
    """Reference sweep: undo each re-selection with deselect. Every
    removed vertex is tried; `tried`, when given, collects those whose
    closed neighbourhood was not yet observed, which are the selects a
    minimisation without the completing-vertex skip makes."""
    base, order = _sweep_order(inst, hitting_set, seed)
    state = observe_from(inst, base | set(order))
    forts, removed, prev_was_solution = [], set(), True
    for i, u in enumerate(order):
        if not prev_was_solution:
            state.select(order[i - 1])
            removed.discard(order[i - 1])
        state.deselect(u)
        removed.add(u)
        prev_was_solution = state.is_complete()
        if prev_was_solution:
            continue
        kept = []
        for p in sorted(removed - {u}):
            if tried is not None and (
                    not state.observed[p] or state.unobs_count[p]):
                tried.append(p)
            state.select(p)
            if state.is_complete():
                state.deselect(p)
            else:
                kept.append(p)
        fort = state.unobserved_vertices()
        for p in kept:
            state.deselect(p)
        if fort not in forts:
            forts.append(fort)
    return forts


def test_large_forts_match_and_skip_completing_selects(monkeypatch):
    # Sparse random graphs whose forts start with tens of vertices: the
    # sweep still equals the reference that tries every removed vertex,
    # and the completing-vertex skip spares some of its selects.
    calls = []
    select_unless_complete = ObservationState._select_unless_complete

    def counted(state, v):
        calls.append(v)
        return select_unless_complete(state, v)

    monkeypatch.setattr(ObservationState, "_select_unless_complete", counted)
    rng = random.Random(3)
    forts_seen = skipped = 0
    for s in range(8):
        inst = generate_random(120, 140, 0.0, seed=s)
        for hitting in (frozenset(), frozenset(rng.sample(range(120), 6))):
            order, first = _first_fort_step(inst, hitting, s)
            calls.clear()
            forts = find_forts(inst, hitting, seed=s)
            tried = []
            assert forts == _select_deselect_find_forts(inst, hitting, s,
                                                        tried)
            # The backward pass makes one select per vertex from the
            # order's back down to the first fort's.
            walked = len(calls) - (len(order) - first)
            assert walked <= len(tried)
            skipped += len(tried) - walked
            forts_seen += len(forts)
    assert forts_seen > 300 and skipped > 100


def _fresh_observe_find_forts(inst, hitting_set, seed):
    """Reference sweep that shares no incremental code with find_forts:
    every removal and every minimisation step observes from scratch, and
    every removed vertex is tried, in ascending id order."""
    base, order = _sweep_order(inst, hitting_set, seed)
    pool = set(order)
    forts, removed, prev_was_solution = [], set(), True
    for i, u in enumerate(order):
        if not prev_was_solution:
            removed.discard(order[i - 1])
        removed.add(u)
        selected = base | (pool - removed)
        prev_was_solution = observe_from(inst, selected).is_complete()
        if prev_was_solution:
            continue
        for p in sorted(removed - {u}):
            if not observe_from(inst, selected | {p}).is_complete():
                selected = selected | {p}
        fort = observe_from(inst, selected).unobserved_vertices()
        if fort not in forts:
            forts.append(fort)
    return forts


def _sweep_corpus():
    """(instance, hitting set, seed, find_forts result) over random
    instances and grid-like graphs, feasible draws only."""
    rng = np.random.default_rng(7)
    corpus = ([random_instance(seed, n_max=20, m_max=40) for seed in range(100)]
              + [gridlike_graph(60, s) for s in range(1, 6)])
    for inst in corpus:
        for _ in range(2):
            hitting = frozenset(
                v for v in inst.undecided() if rng.random() < 0.15)
            seed = int(rng.integers(1000))
            try:
                forts = find_forts(inst, hitting, seed=seed)
            except InfeasibleInstanceError:
                continue
            yield inst, hitting, seed, forts


def test_rollback_sweep_matches_the_deselect_sweep():
    compared = 0
    for inst, hitting, seed, forts in _sweep_corpus():
        assert forts == _select_deselect_find_forts(inst, hitting, seed)
        compared += len(forts)
    assert compared > 300


def test_sweep_matches_a_from_scratch_sweep():
    compared = 0
    for inst, hitting, seed, forts in _sweep_corpus():
        assert forts == _fresh_observe_find_forts(inst, hitting, seed)
        # So does a sweep on a passed state of H and X.
        state = observe_from(inst, hitting | inst.pre_selected)
        assert find_forts(inst, hitting, seed=seed, state=state) == forts
        compared += len(forts)
    assert compared > 300


def _first_fort_step(inst, hitting_set, seed):
    """The sweep's order and the index of its first fort, from scratch:
    the first j where H, X and the vertices after order[j] leave a vertex
    unobserved; None when H with X is already a solution."""
    base, order = _sweep_order(inst, hitting_set, seed)
    for j in range(len(order)):
        if not observe_from(inst, base | set(order[j + 1:])).is_complete():
            return order, j
    return order, None


def _late_start_corpus():
    """(instance, hitting set, seed, kind) draws whose first fort comes
    late or never: H of 40-60% of the undecided vertices; H with X
    already a solution; and a first fort at the last step of the order.
    Feasible instances only."""
    rng = np.random.default_rng(11)
    corpus = ([random_instance(seed, n_max=20, m_max=40)
               for seed in range(60)]
              + [gridlike_graph(60, s) for s in range(1, 6)])
    for inst in corpus:
        try:
            solution = greedy_complete(inst).selected - inst.pre_selected
        except InfeasibleInstanceError:
            continue
        undecided = inst.undecided()
        for _ in range(2):
            share = rng.uniform(0.4, 0.6)
            hitting = frozenset(v for v in undecided if rng.random() < share)
            yield inst, hitting, int(rng.integers(1000)), "large"
        extra = frozenset(v for v in undecided if rng.random() < 0.3)
        yield inst, solution | extra, int(rng.integers(1000)), "solved"
        if not solution:
            continue
        # Greedy's pruned completion is minimal, so without its vertex v
        # it is not a solution; a seed that puts v last in the order puts
        # the first fort at the last step.
        v = max(solution)
        hitting = solution - {v}
        for seed in range(5000):
            _, order = _sweep_order(inst, hitting, seed)
            if order[-1] == v:
                yield inst, hitting, seed, "last"
                break


def test_late_sweep_starts_match_both_references():
    kinds = {"large": 0, "solved": 0, "last": 0}
    for inst, hitting, seed, kind in _late_start_corpus():
        order, first = _first_fort_step(inst, hitting, seed)
        forts = find_forts(inst, hitting, seed=seed)
        assert forts == _select_deselect_find_forts(inst, hitting, seed)
        assert forts == _fresh_observe_find_forts(inst, hitting, seed)
        if kind == "solved":
            assert first is None and forts == []
        elif kind == "last":
            assert first == len(order) - 1 and forts
        kinds[kind] += 1
    assert min(kinds.values()) >= 40, kinds


def test_sweep_deselects_nothing_before_its_first_fort(monkeypatch):
    calls = []
    deselect = ObservationState.deselect

    def counted(state, v):
        calls.append(v)
        return deselect(state, v)

    monkeypatch.setattr(ObservationState, "deselect", counted)
    late = 0
    draws = [(inst, hitting, seed)
             for inst, hitting, seed, _forts in _sweep_corpus()]
    draws += [(inst, hitting, seed)
              for inst, hitting, seed, _kind in _late_start_corpus()]
    for inst, hitting, seed in draws:
        order, first = _first_fort_step(inst, hitting, seed)
        calls.clear()
        find_forts(inst, hitting, seed=seed)
        # One deselect per step after the first fort, none before it.
        assert calls == ([] if first is None else order[first + 1:])
        late += first is not None and first > len(order) // 2
    assert late >= 50
