import pytest

from powerdom import merge_solutions, oracle_pds, split
from powerdom.instance import PdsInstance, SolutionSet

from conftest import oracle_gamma, path_graph, random_instance


def test_split_p3_around_x():
    decomp = split(path_graph(3, pre_selected=[1]))
    assert len(decomp.parts) == 2
    covered = sorted(sorted(part.to_parent) for part in decomp.parts)
    assert covered == [[0, 1], [1, 2]]
    for part in decomp.parts:
        assert len(part.instance.pre_selected) == 1


def test_split_connected_no_x_is_identity():
    inst = path_graph(5)
    decomp = split(inst)
    assert len(decomp.parts) == 1
    assert decomp.parts[0].instance is inst
    assert decomp.parts[0].to_parent == tuple(range(5))
    # Pre-selected vertices on the border of the one part keep it whole.
    inst = path_graph(5, pre_selected=[0, 4])
    assert split(inst).parts[0].instance is inst


def test_split_two_triangles():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    decomp = split(PdsInstance(6, edges))
    assert len(decomp.parts) == 2


def test_split_partitions_non_x_vertices():
    for seed in range(40):
        inst = random_instance(seed)
        decomp = split(inst)
        seen = []
        for part in decomp.parts:
            seen.extend(part.component)
        assert sorted(seen) == [v for v in range(inst.n)
                                if v not in inst.pre_selected]


def test_merge_counts_x_once():
    inst = path_graph(3, pre_selected=[1])
    decomp = split(inst)
    # vertex 1 observes both neighbors, so empty parts suffice
    parts = [SolutionSet(frozenset(p.instance.pre_selected))
             for p in decomp.parts]
    merged = merge_solutions(decomp, parts)
    assert merged.selected == {1}


def test_merge_rejects_infeasible_part():
    decomp = split(path_graph(5))
    with pytest.raises(ValueError):
        merge_solutions(decomp, [SolutionSet(frozenset())])


def test_merge_matches_direct_optimum():
    for seed in range(120):
        inst = random_instance(seed, n_max=10)
        direct = oracle_gamma(inst)
        decomp = split(inst)
        parts = []
        total = len(inst.pre_selected)
        feasible = True
        for part in decomp.parts:
            try:
                _, witness = oracle_pds(part.instance)
            except Exception:
                feasible = False
                break
            parts.append(witness)
            total += len(witness.selected & {
                i for i, p in enumerate(part.to_parent)
                if p in part.component})
        if not feasible:
            assert direct is None
            continue
        merged = merge_solutions(decomp, parts)
        assert direct == len(merged) == total


def test_split_parts_match_edge_rescan(small_corpus):
    # Reference: each part built by scanning every edge of the parent.
    # The triangle has an edge between two border vertices of one part.
    triangle = PdsInstance(3, [(0, 1), (0, 2), (1, 2)], pre_selected=[0, 1])
    for inst in [triangle] + [inst for inst, _ in small_corpus]:
        for part in split(inst).parts:
            vertices = part.to_parent
            to_sub = {v: i for i, v in enumerate(vertices)}
            expected = PdsInstance(
                len(vertices),
                [(to_sub[u], to_sub[v]) for u, v in inst.edges
                 if u in to_sub and v in to_sub],
                propagating=[inst.propagating[v] for v in vertices],
                pre_selected=[to_sub[v] for v in vertices
                              if v in inst.pre_selected],
                excluded=[to_sub[v] for v in vertices if v in inst.excluded],
                labels={to_sub[v]: inst.labels[v]
                        for v in vertices if v in inst.labels})
            assert part.instance == expected
