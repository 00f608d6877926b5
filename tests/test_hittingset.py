import random
import time
from itertools import combinations

import pytest

from powerdom import HittingSetInstance, solve_exact
from powerdom.errors import InfeasibleInstanceError
from powerdom.hittingset import HittingSetTimeout, _kernel


def brute_minimum(universe, sets):
    elems = sorted(universe)
    for k in range(len(elems) + 1):
        for combo in combinations(elems, k):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return k
    return None


def random_family(seed, universe_max=12, sets_max=8):
    rng = random.Random(seed)
    universe = list(range(rng.randint(1, universe_max)))
    sets = []
    for _ in range(rng.randint(0, sets_max)):
        k = rng.randint(1, min(4, len(universe)))
        sets.append(frozenset(rng.sample(universe, k)))
    return HittingSetInstance(universe, sets)


def test_examples():
    hs = HittingSetInstance(range(4), [{1, 2}, {2, 3}])
    assert solve_exact(hs)[1] == 1
    hs = HittingSetInstance(range(4), [{1}, {2}, {3}])
    assert solve_exact(hs) == (frozenset({1, 2, 3}), 3)
    hs = HittingSetInstance(range(5), [{1, 2}, {3, 4}, {1, 3}, {2, 4}])
    # brute force over all subsets of {1,2,3,4} gives 2
    assert solve_exact(hs)[1] == 2


def test_infeasible_empty_set():
    with pytest.raises(InfeasibleInstanceError):
        HittingSetInstance(range(3), [{5, 6}])  # vanishes after intersection
    hs = HittingSetInstance(range(3), [{1, 2}])
    with pytest.raises(InfeasibleInstanceError):
        hs.add_sets([{0}, set()])


def test_add_sets_dedupe_and_dominated():
    hs = HittingSetInstance(range(5), [{1, 2}])
    hs.add_sets([{2, 1}])
    assert len(hs) == 1  # duplicate dropped
    hs.add_sets([{1, 2, 3}])
    assert len(hs) == 2  # superset kept
    assert solve_exact(hs)[1] == 1


def test_add_disjoint_singleton_grows_optimum():
    hs = HittingSetInstance(range(10), [{1, 2}, {2, 3}])
    assert solve_exact(hs)[1] == 1
    hs.add_sets([{9}])
    assert solve_exact(hs)[1] == 2


def test_matches_bruteforce():
    for seed in range(500):
        hs = random_family(seed)
        expected = brute_minimum(hs.universe, hs.sets)
        got_set, got = solve_exact(hs)
        assert got == len(got_set) == expected, seed
        assert all(got_set & s for s in hs.sets)


def test_monotone_lower_bound_and_warm_start():
    rng = random.Random(7)
    for seed in range(60):
        hs = HittingSetInstance(range(rng.randint(2, 12)))
        prev = 0
        for _round in range(4):
            k = rng.randint(1, min(3, len(hs.universe)))
            hs.add_sets([frozenset(rng.sample(sorted(hs.universe), k))])
            _, size = solve_exact(hs, lower_bound_hint=prev)
            assert size >= prev  # optimum only grows as sets are added
            _, size_cold = solve_exact(hs)
            assert size == size_cold
            prev = size


def test_deterministic():
    hs1 = random_family(123)
    hs2 = random_family(123)
    assert solve_exact(hs1) == solve_exact(hs2)


def big_random_family(seed):
    """Up to 16 sets of size 1-5 over a universe of 12-20 elements. Each
    of up to three blocks of the universe starts as a cycle of pairs,
    which no reduction removes, so families fall apart into components;
    random extra sets within the blocks or across the universe join
    components and make elements dominated."""
    rng = random.Random(seed)
    universe = list(range(rng.randint(12, 20)))
    rng.shuffle(universe)
    sets = []
    start = 0
    for _ in range(rng.randint(1, 3)):
        block = universe[start:start + rng.randint(3, 4)]
        start += len(block)
        sets += [frozenset((block[i - 1], block[i]))
                 for i in range(len(block))]
    while len(sets) < 16 and rng.random() < 0.8:
        pool = universe if rng.random() < 0.5 else universe[:start]
        sets.append(frozenset(rng.sample(pool,
                                         rng.randint(1, min(5, len(pool))))))
    return HittingSetInstance(universe, sets)


def test_matches_bruteforce_larger_families():
    for seed in range(300):
        hs = big_random_family(seed)
        expected = brute_minimum(hs.universe, hs.sets)
        got_set, got = solve_exact(hs)
        assert got == len(got_set) == expected, seed
        assert all(got_set & s for s in hs.sets)


def test_warm_start_agrees_with_cold_on_larger_families():
    for seed in range(40):
        full = big_random_family(1000 + seed)
        hs = HittingSetInstance(full.universe)
        prev = 0
        for s in full.sets:
            hs.add_sets([s])
            warm_set, warm = solve_exact(hs, lower_bound_hint=prev)
            assert warm == solve_exact(hs)[1]
            assert all(warm_set & t for t in hs.sets)
            prev = warm


def test_passed_deadline_stops_a_search_that_branches():
    # A triangle of pairs has no singleton, superset or dominated element,
    # so the kernel cannot close it and the search must branch.
    hs = HittingSetInstance(range(3), [{0, 1}, {1, 2}, {0, 2}])
    with pytest.raises(HittingSetTimeout):
        solve_exact(hs, deadline=time.perf_counter())
    # The kernel alone answers this one: no branching, so no deadline check.
    hs = HittingSetInstance(range(4), [{1}, {2, 3}, {1, 2}])
    assert solve_exact(hs, deadline=time.perf_counter())[1] == 2


def _reference_kernel(masks):
    """Weihe's rules on Python sets, each written from its definition:
    elements of singletons are taken and their sets hit; sets with a
    proper subset in the family are dropped; an element e is dropped when
    another element f lies in every set e lies in, and in more sets or
    has the lower id. Returns what `_kernel` returns."""
    def elements(m):
        return frozenset(i for i in range(m.bit_length()) if m >> i & 1)

    def mask(elems):
        return sum(1 << i for i in elems)

    family = [elements(m) for m in masks]
    taken = set()
    while True:
        if frozenset() in family:
            return mask(taken), None
        units = {e for s in family if len(s) == 1 for e in s}
        if units:
            taken |= units
            family = [s for s in family if not s & units]
            continue
        distinct = set(family)
        kept = [s for s in distinct if not any(t < s for t in distinct)]
        inside = {e: {i for i, s in enumerate(kept) if e in s}
                  for s in kept for e in s}
        drop = {e for e in inside for f in inside
                if f != e and inside[e] <= inside[f]
                and (inside[e] < inside[f] or f < e)}
        if not drop:
            return mask(taken), sorted(
                map(mask, kept), key=lambda m: (m.bit_count(), m))
        family = [s - drop for s in kept]


def test_kernel_matches_a_reference_kernel():
    rng = random.Random(5)
    families = [[], [0], [0b1, 0b10, 0b100], [0b11, 0, 0b1]]
    for _ in range(400):
        width = rng.randint(1, 10)
        draw = rng.random()
        if draw < 0.1:  # singletons only
            sets = [1 << rng.randrange(width)
                    for _ in range(rng.randint(1, 6))]
        else:
            sets = [rng.randrange(1, 1 << width)
                    for _ in range(rng.randint(0, 12))]
            if draw < 0.2:
                sets.insert(rng.randint(0, len(sets)), 0)
        families.append(sets)
    reduced = 0
    for sets in families:
        taken, kept = _kernel(sets)
        assert (taken, kept) == _reference_kernel(sets), sets
        reduced += kept is not None and len(kept) < len(set(sets))
    assert reduced >= 100
