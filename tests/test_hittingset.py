import random
import time

import pytest

from conftest import capture_families, gridlike_graph, highs_optimum
from powerdom import (HittingSetInstance, build_hitting_set_ilp, hittingset,
                      solve_exact)
from powerdom.errors import InfeasibleInstanceError
from powerdom.hittingset import HittingSetTimeout, _kernel


def brute_minimum(universe, sets):
    """Size of a smallest hitting set: the k-subsets of the universe for
    k = 0, 1, ... in lexicographic order, enumerated depth first. Each
    element carries the bitmask of the sets it hits, OR-ed along the
    subset's prefix."""
    elems = sorted(universe)
    hits = [sum(1 << i for i, s in enumerate(sets) if v in s) for v in elems]
    every = (1 << len(sets)) - 1

    def extends(start, k, covered):
        if k == 0:
            return covered == every
        for i in range(start, len(elems) - k + 1):
            if extends(i + 1, k - 1, covered | hits[i]):
                return True
        return False

    for k in range(len(elems) + 1):
        if extends(0, k, 0):
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
        taken, kept, _ = _kernel([], sets, {}, -1)
        assert (taken, kept) == _reference_kernel(sets), sets
        reduced += kept is not None and len(kept) < len(set(sets))
    assert reduced >= 100


def _live_table(table, kept):
    """The entries of a kernel table for the elements of `kept`, cut to
    those elements' bits."""
    live = 0
    for m in kept:
        live |= m
    return {bit: w & live for bit, w in table.items() if bit & live}


def random_mask_family(rng):
    """Masks of two to four elements, mostly pairs and triples, over 6-14
    elements, from half to twice as many masks as elements."""
    width = rng.randint(6, 14)
    return [sum(1 << i for i in rng.sample(range(width),
                                           rng.choice((2, 2, 3, 3, 4))))
            for _ in range(rng.randint(width // 2, 2 * width))]


def test_carried_kernel_matches_a_fresh_kernel(monkeypatch):
    # At every node the search visits, the kernel and table it carries
    # over from the parent must be what a kernel of that node's whole
    # family computes from nothing, itself checked against the set-based
    # reference kernel.
    kernel = hittingset._kernel
    carried = 0

    def checked_kernel(same, changed, within, stale):
        nonlocal carried
        got = kernel(same, changed, within, stale)
        family = same + changed
        want = kernel([], family, {}, -1)
        assert got[:2] == want[:2] == _reference_kernel(family), family
        if got[1] is not None:
            assert _live_table(got[2], got[1]) == _live_table(want[2],
                                                              want[1])
        carried += stale != -1
        return got

    monkeypatch.setattr(hittingset, "_kernel", checked_kernel)
    for seed in range(300):
        solve_exact(big_random_family(seed))
    rng = random.Random(11)
    for _ in range(300):
        sets = random_mask_family(rng)
        hittingset._solve(*hittingset._kernel([], sets, {}, -1),
                          len(sets) + 1, 0, float("inf"))
    assert carried >= 1000


def _minimal_rows_and_table(masks):
    """The sets of a family that hold no other set, sorted by (size,
    mask), and the table `within` over them, from their definitions."""
    rows = sorted({m for m in masks
                   if not any(k != m and k & m == k for k in masks)},
                  key=hittingset._order)
    table = {}
    for m in rows:
        for i in range(m.bit_length()):
            if m >> i & 1:
                table[1 << i] = table.get(1 << i, m) & m
    return rows, table


def growing_families(rng):
    """Batches of rows over 1-10 elements: random rows, singletons,
    repeats of an earlier row, and rows that hold or lie in an earlier
    row, so that later batches both add supersets of earlier rows and
    push earlier rows out of the minimal ones."""
    width = rng.randint(1, 10)
    rows = []
    for _ in range(rng.randint(1, 5)):
        batch = []
        for _ in range(rng.randint(1, 5)):
            draw = rng.random()
            if not rows or draw < 0.3:
                m = rng.randrange(1, 1 << width)
            elif draw < 0.4:
                m = 1 << rng.randrange(width)
            elif draw < 0.5:
                m = rng.choice(rows)
            elif draw < 0.75:
                m = rng.choice(rows) | rng.randrange(1 << width)
            else:
                k = rng.choice(rows)
                m = k & rng.randrange(1, 1 << width) or k & -k
            rows.append(m)
            batch.append({i for i in range(width) if m >> i & 1})
        yield range(width), batch


def _replayed(families):
    """The families a loop hands to `solve_exact`, in order, replayed as
    one growing instance per part, each family's new rows in one batch."""
    hs = None
    for universe, sets, _hint in families:
        if hs is None or hs.universe != universe or hs.sets != sets[:len(hs)]:
            hs = HittingSetInstance(universe)
        yield hs.add_sets(sets[len(hs):])


def _check_family_root(hs):
    masks = [sum(1 << hs._index[v] for v in s) for s in hs.sets]
    rows, table = _minimal_rows_and_table(masks)
    assert (hs._minimal, hs._within) == (rows, table), masks
    got = hittingset._root_kernel(hs)
    want = _kernel([], masks, {}, -1)
    assert got[:2] == want[:2] == _reference_kernel(masks), masks
    if got[1] is not None:
        assert _live_table(got[2], got[1]) == _live_table(want[2], want[1])


def test_family_root_kernel_matches_a_fresh_kernel():
    # After every batch of rows, the minimal rows and table the family
    # keeps are those of its rows, and the root kernel it gives is what a
    # kernel of all rows computes from nothing.
    rng = random.Random(31)
    batches = pushed_out = 0
    for _ in range(3000):
        hs = None
        for universe, batch in growing_families(rng):
            if hs is None:
                hs = HittingSetInstance(universe)
            before = list(hs._minimal)
            hs.add_sets(batch)
            pushed_out += any(m not in hs._minimal for m in before)
            _check_family_root(hs)
            batches += 1
    assert pushed_out >= 1000 and batches >= 8000
    captured = [capture_families(gridlike_graph(n, seed), reductions="none",
                                 seed=0)
                for n, seed in ((90, 6), (90, 11), (100, 13), (100, 6),
                                (100, 3))]
    captured.append(capture_families(gridlike_graph(300, 2), seed=3))
    for families in captured:
        for hs in _replayed(families):
            _check_family_root(hs)


def test_solve_exact_never_builds_a_root_kernel_from_nothing(monkeypatch):
    # Every kernel of an exact solve starts from a table: the root's from
    # the family's, the others from their parent's.
    kernel = hittingset._kernel
    tabled = root_drops = 0

    def from_a_table(same, changed, within, stale):
        nonlocal tabled, root_drops
        assert within and stale != -1, "a kernel was built from nothing"
        tabled += 1
        # Only a root whose table drops elements passes no stale set.
        root_drops += stale == 0
        return kernel(same, changed, within, stale)

    captured = capture_families(gridlike_graph(100, 13), reductions="none",
                                seed=0)
    want = [solve_exact(hs) for hs in _replayed(captured)]
    monkeypatch.setattr(hittingset, "_kernel", from_a_table)
    for seed in range(300):
        hs = big_random_family(seed)
        assert solve_exact(hs)[1] == brute_minimum(hs.universe, hs.sets)
    assert [solve_exact(hs) for hs in _replayed(captured)] == want
    assert tabled >= 900 and root_drops >= 150


def test_branching_takes_the_element_hitting_most_sets_first(monkeypatch):
    # A cycle of pairs with two chords: no singleton, no set inside
    # another and no element lying in every set of another, so the kernel
    # keeps every set. The smallest set is {0, 1}; element 0 hits two
    # sets, element 1 three (its chord {1, 4}).
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)]
    masks = sorted(((1 << u) | (1 << v) for u, v in pairs),
                   key=lambda m: (m.bit_count(), m))
    assert _kernel([], masks, {}, -1)[:2] == (0, masks)
    kernel = hittingset._kernel
    calls = []

    def recorded(same, changed, *args):
        calls.append((same, changed))
        return kernel(same, changed, *args)

    monkeypatch.setattr(hittingset, "_kernel", recorded)
    assert hittingset._solve(*hittingset._kernel([], masks, {}, -1),
                             7, 0, float("inf"))[1] == 3
    # The first child takes element 1: it keeps exactly the sets without it.
    assert calls[1] == ([m for m in masks if not m & 0b10], [])


def test_captured_families_match_highs():
    # Families as the IHS loop builds them, on grid-like graphs with no
    # reductions: the exact optimum, warm-started from the loop's hint,
    # equals HiGHS on the covering ILP, and the set returned hits every row.
    checked = 0
    for n, seed in ((100, 2), (120, 1), (150, 2), (150, 5)):
        for universe, sets, hint in capture_families(
                gridlike_graph(n, seed), reductions="none", seed=0):
            hs = HittingSetInstance(universe, sets)
            hit, size = solve_exact(hs, lower_bound_hint=hint)
            assert size == len(hit) >= hint
            assert all(hit & s for s in hs.sets)
            assert size == highs_optimum(build_hitting_set_ilp(hs))[0]
            checked += 1
    assert checked >= 15


def _rescanning_components(sets):
    """Reference split: grows each part by rescanning the whole family
    once per growth step."""
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


def test_components_match_a_rescanning_split(monkeypatch):
    # On random kernels, and at every node of the exact solves of the
    # families the IHS loop builds on grid-like graphs.
    rng = random.Random(12)
    split_parts = 0
    for _ in range(500):
        # One to three blocks on disjoint elements.
        family = sorted({m << 14 * i for i in range(rng.randint(1, 3))
                         for m in random_mask_family(rng)},
                        key=hittingset._order)
        got = hittingset._components(family)
        assert got == _rescanning_components(family)
        split_parts += len(got) > 1
    components = hittingset._components
    checked = 0

    def checked_components(sets):
        nonlocal checked
        got = components(sets)
        assert got == _rescanning_components(sets)
        checked += 1
        return got

    monkeypatch.setattr(hittingset, "_components", checked_components)
    for n, seed in ((100, 2), (150, 5)):
        for universe, sets, hint in capture_families(
                gridlike_graph(n, seed), reductions="none", seed=0):
            solve_exact(HittingSetInstance(universe, sets),
                        lower_bound_hint=hint)
    assert split_parts > 50 and checked > 100
