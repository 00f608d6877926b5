import random
from itertools import combinations

import pytest

from powerdom import (PdsInstance, enumerate_minimal_forts, is_power_dominating,
                      oracle_pds)
from powerdom.bruteforce import observed_set
from powerdom.errors import GuardExceededError, InfeasibleInstanceError
from powerdom.hardness import IpdsInstance
from powerdom.instance import SolutionSet

from conftest import (gridlike_graph, path_graph, random_instance,
                      random_ipds_instance, star_graph)


def test_oracle_p5():
    gamma, witness = oracle_pds(path_graph(5))
    assert gamma == 1
    assert is_power_dominating(path_graph(5), witness.selected)


def test_oracle_star_nonpropagating_center():
    star = star_graph(3, propagating=[False, True, True, True])
    gamma, witness = oracle_pds(star)
    assert gamma == 1 and witness.selected == {0}


def test_oracle_infeasible():
    lone = PdsInstance(1, excluded=[0])
    with pytest.raises(InfeasibleInstanceError):
        oracle_pds(lone)


def test_oracle_respects_extension():
    p3 = path_graph(3, pre_selected=[1])
    assert oracle_pds(p3)[0] == 1
    p3y = path_graph(3, excluded=[0, 1, 2])
    with pytest.raises(InfeasibleInstanceError):
        oracle_pds(p3y)


def test_oracle_guards():
    big = PdsInstance(30)
    with pytest.raises(GuardExceededError):
        oracle_pds(big)
    with pytest.raises(GuardExceededError):
        oracle_pds(big, max_undecided=None)  # needs k_max
    with pytest.raises(InfeasibleInstanceError):
        oracle_pds(path_graph(9), k_max=0)


def test_oracle_isomorphism_invariance():
    for seed in range(25):
        inst = random_instance(seed, n_max=8)
        perm = list(range(inst.n))[::-1]
        mapped = PdsInstance(
            inst.n, [(perm[u], perm[v]) for u, v in inst.edges],
            propagating=[inst.propagating[perm.index(i)] for i in range(inst.n)],
            pre_selected=[perm[v] for v in inst.pre_selected],
            excluded=[perm[v] for v in inst.excluded])
        try:
            g1 = oracle_pds(inst)[0]
        except InfeasibleInstanceError:
            g1 = None
        try:
            g2 = oracle_pds(mapped)[0]
        except InfeasibleInstanceError:
            g2 = None
        assert g1 == g2


def test_observed_set_examples():
    assert observed_set(path_graph(3), {0}) == {0, 1, 2}
    assert observed_set(star_graph(3), {1}) == {0, 1}


def _first_firing(inst, selected, observed):
    """The vertex the first applicable rule would observe, or None."""
    for s in sorted(selected):  # domination
        for w in (s, *inst.adj[s]):
            if w not in observed:
                return w
    for u in sorted(observed):  # propagation
        unobserved = [w for w in inst.adj[u] if w not in observed]
        if inst.propagating[u] and len(unobserved) == 1:
            return unobserved[0]
    for u, v in sorted(getattr(inst, "booster_edges", ())):
        if (u in observed) != (v in observed):
            return v if u in observed else u
    for u, v in getattr(inst, "implication_arcs", ()):
        if u in observed and v not in observed:
            return v
    return None


def reference_observed(inst, selected):
    """Fire one rule at a time until none observes anything new."""
    observed = set()
    while (w := _first_firing(inst, selected, observed)) is not None:
        observed.add(w)
    return observed


def test_closure_matches_one_firing_at_a_time():
    rng = random.Random(0)
    for seed in range(300):
        inst = random_ipds_instance(seed)
        selections = [{v} for v in range(inst.n)] + [
            set(rng.sample(range(inst.n), rng.randint(0, inst.n)))
            for _ in range(3)]
        for sel in selections:
            assert observed_set(inst, sel) == reference_observed(inst, sel)
    for seed in range(1, 6):
        inst = gridlike_graph(60, seed)
        for size in (1, 2, 4, 8, 16):
            sel = set(rng.sample(range(inst.n), size))
            expected = reference_observed(inst, sel)
            assert observed_set(inst, sel) == expected
            assert is_power_dominating(inst, sel) == (len(expected) == inst.n)


def reference_oracle(inst, k_max=None):
    """(gamma, witness) of the first selection, by size and then
    lexicographically, that `reference_observed` finds dominating, or None."""
    undecided = inst.undecided()
    cap = len(undecided) if k_max is None else k_max - len(inst.pre_selected)
    for t in range(cap + 1):
        for extra in combinations(undecided, t):
            selected = inst.pre_selected | frozenset(extra)
            if len(reference_observed(inst, selected)) == inst.n:
                return len(selected), SolutionSet(selected)
    return None


def test_oracle_witness_matches_naive_enumeration():
    cases = [random_instance(seed, n_max=9) for seed in range(120)]
    cases += [random_ipds_instance(seed, n_max=7) for seed in range(120)]
    checked = 0
    for inst in cases:
        optimum = reference_oracle(inst)
        gamma = inst.n if optimum is None else optimum[0]
        for k_max in (None, *range(gamma + 1)):
            expected = reference_oracle(inst, k_max)
            if expected is None:
                with pytest.raises(InfeasibleInstanceError):
                    oracle_pds(inst, k_max=k_max)
            else:
                assert oracle_pds(inst, k_max=k_max) == expected
                checked += 1
    assert checked > 200


def test_oracle_ipds_arc_directions():
    two = IpdsInstance(2, implication_arcs=[(0, 1)])
    assert oracle_pds(two)[0] == 1
    # reversed arc: selecting the source still observes both
    rev = IpdsInstance(2, implication_arcs=[(1, 0)])
    gamma, witness = oracle_pds(rev)
    assert gamma == 1 and witness.selected == {1}


def test_oracle_ipds_booster():
    inst = IpdsInstance(2, edges=[(0, 1)], pre_selected=[0],
                        booster_edges=[(0, 1)])
    assert oracle_pds(inst)[0] == 1  # X alone suffices


def test_oracle_ipds_plain_instance():
    # With no booster edges or arcs, an extension instance is a plain one.
    def optimum(inst):
        try:
            return oracle_pds(inst)
        except InfeasibleInstanceError:
            return None

    for seed in range(30):
        inst = random_instance(seed, n_max=8)
        ext = IpdsInstance(inst.n, inst.edges, inst.propagating,
                           inst.pre_selected, inst.excluded)
        assert optimum(ext) == optimum(inst)


def test_minimal_forts_p3():
    assert enumerate_minimal_forts(path_graph(3)) == [frozenset({0, 2})]


def test_minimal_forts_k2():
    # {a} is not a fort (b outside sees exactly one); {a,b} is
    assert enumerate_minimal_forts(PdsInstance(2, [(0, 1)])) == [frozenset({0, 1})]


def test_minimal_forts_isolated():
    assert enumerate_minimal_forts(PdsInstance(1)) == [frozenset({0})]


def test_minimal_forts_guard():
    with pytest.raises(GuardExceededError):
        enumerate_minimal_forts(PdsInstance(13))


def test_optimum_hits_every_minimal_fort():
    for seed in range(40):
        inst = random_instance(seed, n_max=8, x_max=0, y_max=0)
        try:
            _, witness = oracle_pds(inst)
        except InfeasibleInstanceError:
            continue
        for fort in enumerate_minimal_forts(inst):
            hood = set(fort)
            for v in fort:
                hood.update(inst.adj[v])
            assert witness.selected & hood
