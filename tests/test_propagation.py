import random

import pytest

from powerdom import PdsInstance, observe_from
from powerdom.bruteforce import observed_set
from powerdom.propagation import ObservationState

from conftest import cycle_graph, path_graph, random_instance, star_graph


def test_observe_path_propagates():
    assert observe_from(path_graph(3), {0}).observed_vertices() == {0, 1, 2}


def test_observe_blocked_by_nonpropagating():
    p3 = path_graph(3, propagating=[True, False, True])
    assert observe_from(p3, {0}).observed_vertices() == {0, 1}


def test_observe_star_leaf():
    # center keeps two unobserved neighbors, so no propagation
    assert observe_from(star_graph(3), {1}).observed_vertices() == {0, 1}


def test_select_cycle_closes():
    state = observe_from(cycle_graph(4), ())
    state.select(0)
    # independent fixpoint: each neighbor ends with one unobserved neighbor
    assert state.observed_vertices() == observed_set(cycle_graph(4), {0})
    assert state.observed_vertices() == {0, 1, 2, 3}


def test_select_on_fully_observed_changes_nothing():
    state = observe_from(path_graph(3), {0})
    before = state.observed_vertices()
    state.select(2)
    assert state.observed_vertices() == before


def test_select_order_confluent():
    edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
    inst = PdsInstance(6, edges)
    a = observe_from(inst, ()).select(0).select(3).observed_vertices()
    b = observe_from(inst, ()).select(3).select(0).observed_vertices()
    assert a == b


def test_select_rejects_duplicates():
    state = observe_from(path_graph(3), {0})
    with pytest.raises(ValueError):
        state.select(0)
    with pytest.raises(ValueError):
        state.deselect(1)


def test_deselect_to_empty():
    for inst in (path_graph(4), star_graph(3), cycle_graph(5)):
        state = observe_from(inst, ())
        state.select(1)
        state.deselect(1)
        assert state.observed_vertices() == frozenset()
        assert not state.selected


def test_deselect_redundant_endpoint():
    # full-recompute oracle: one endpoint observes the whole path
    p5 = path_graph(5)
    state = observe_from(p5, {0, 4})
    state.deselect(4)
    assert state.observed_vertices() == observed_set(p5, {0})
    assert len(state.observed_vertices()) == 5


def test_deselect_star_center():
    star = star_graph(3)
    state = observe_from(star, {1, 0})
    state.deselect(0)
    assert state.observed_vertices() == observed_set(star, {1})
    assert state.observed_vertices() == {0, 1}


def test_observation_neighborhood():
    # The observation neighbourhood of S is the closure of X and S.
    def neighborhood(inst, vertices):
        return observe_from(inst, inst.pre_selected | set(vertices)) \
            .observed_vertices()

    assert neighborhood(path_graph(4), ()) == frozenset()
    assert neighborhood(star_graph(3), {0}) == {0, 1, 2, 3}
    with_x = path_graph(4, pre_selected=[3])
    assert neighborhood(with_x, ()) == {0, 1, 2, 3}  # X alone observes P4
    assert neighborhood(with_x, {0}) == {0, 1, 2, 3}


def _links_are_a_forest(state):
    # Counts match a recount; propagation parents and children mirror
    # each other; a vertex is observed exactly when it is dominated or
    # has a parent; every link is a valid propagation; following parents
    # ends at a dominated vertex; and the links derive the observation.
    inst, observed = state.inst, state.observed
    for t in range(inst.n):
        assert state.dom_count[t] == sum(
            1 for s in (t, *inst.adj[t]) if s in state.selected)
    children = {(u, w) for u, w in enumerate(state.prop_child) if w != -1}
    assert children == {(u, w) for w, u in enumerate(state.prop_parent)
                        if u != -1}
    for v in range(inst.n):
        assert observed[v] == (state.dom_count[v] > 0
                               or state.prop_parent[v] != -1)
    for u, w in children:
        assert inst.propagating[u] and w in inst.adj[u]
        assert observed[u] and all(observed[t] for t in inst.adj[u])
    for v in range(inst.n):
        seen = set()
        cur = v
        while state.prop_parent[cur] != -1:
            assert cur not in seen, "propagation cycle"
            seen.add(cur)
            cur = state.prop_parent[cur]
        assert state.dom_count[cur] or not observed[cur]
    # Replay the links from the vertices that are dominated and have no
    # parent, each once every other neighbour of its source is reached. A
    # link whose source needs its own child first, through a cycle of
    # links, never fires, and its end stays unreached.
    reached = [bool(state.dom_count[v]) and state.prop_parent[v] == -1
               for v in range(inst.n)]
    grew = True
    while grew:
        grew = False
        for u, w in children:
            if not reached[w] and reached[u] and all(
                    reached[t] for t in inst.adj[u] if t != w):
                reached[w] = grew = True
    assert reached == observed, "links do not derive the observation"


def _exhausted(state):
    for v in range(state.inst.n):
        if state.observed[v] and state.inst.propagating[v]:
            unobs = [w for w in state.inst.adj[v] if not state.observed[w]]
            assert len(unobs) != 1


def test_incremental_matches_recompute():
    rng = random.Random(0)
    steps = 0
    for seed in range(60):
        inst = random_instance(seed, n_max=50, m_max=80, x_max=0, y_max=0)
        state = observe_from(inst, ())
        selected = set()
        for _ in range(40):
            if selected and rng.random() < 0.4:
                v = rng.choice(sorted(selected))
                state.deselect(v)
                selected.discard(v)
            else:
                free = [v for v in range(inst.n) if v not in selected]
                if not free:
                    continue
                v = rng.choice(free)
                state.select(v)
                selected.add(v)
            steps += 1
            ref = observe_from(inst, selected)
            assert state.observed_vertices() == ref.observed_vertices()
            assert state.observed_vertices() == observed_set(inst, selected)
            _links_are_a_forest(state)
            _exhausted(state)
    assert steps > 2000


def test_monotonicity():
    rng = random.Random(1)
    for seed in range(40):
        inst = random_instance(seed, n_max=20, x_max=0, y_max=0)
        verts = list(range(inst.n))
        rng.shuffle(verts)
        small = set(verts[:len(verts) // 3])
        large = small | set(verts[len(verts) // 3:2 * len(verts) // 3])
        obs_small = observe_from(inst, small).observed_vertices()
        obs_large = observe_from(inst, large).observed_vertices()
        assert obs_small <= obs_large


def _snapshot(state):
    return (state.observed_vertices(), list(state.dom_count),
            list(state.prop_parent), list(state.prop_child),
            list(state.unobs_count), state.observed_count,
            set(state.selected))


def test_rollback_restores_the_checkpoint_exactly():
    rng = random.Random(2)
    rollbacks = 0
    for seed in range(60):
        inst = random_instance(seed, n_max=40, m_max=70, x_max=0, y_max=0)
        state = observe_from(inst, ())
        for _ in range(12):
            # Deselects are allowed only outside every checkpoint, and
            # must still agree with a recomputation afterwards.
            for v in rng.sample(sorted(state.selected),
                                min(2, len(state.selected))):
                state.deselect(v)
                ref = observe_from(inst, state.selected)
                assert state.observed_vertices() == ref.observed_vertices()
                assert state.observed_vertices() == observed_set(
                    inst, state.selected)
                _links_are_a_forest(state)
            marks = []
            for _ in range(rng.randint(1, 8)):
                roll = marks and rng.random() < 0.3
                if roll:
                    i = rng.randrange(len(marks))
                    mark, snap = marks[i]
                    state.rollback(mark)
                    del marks[i:]
                    assert _snapshot(state) == snap
                    rollbacks += 1
                    continue
                if rng.random() < 0.4:
                    marks.append((state.checkpoint(), _snapshot(state)))
                free = [v for v in range(inst.n) if v not in state.selected]
                if free:
                    state.select(rng.choice(free))
                if marks and state.selected:
                    with pytest.raises(RuntimeError):
                        state.deselect(next(iter(state.selected)))
                ref = observe_from(inst, state.selected)
                assert state.observed_vertices() == ref.observed_vertices()
                assert state.observed_vertices() == observed_set(
                    inst, state.selected)
            if marks:
                state.rollback(marks[0][0])
                assert _snapshot(state) == marks[0][1]
                rollbacks += 1
            _links_are_a_forest(state)
            _exhausted(state)
    assert rollbacks > 500


def test_deselect_in_a_dense_selection_matches_recompute():
    # On dense graphs most vertices are dominated more than once, so a
    # deselect mostly re-dominates under another selected neighbour. A
    # checkpoint opened right after such a deselect must roll back to it.
    rng = random.Random(4)
    stayed = rollbacks = 0
    for seed in range(40):
        n = rng.randint(8, 30)
        inst = random_instance(seed, n_max=n, n_min=n, m_max=n * (n - 1) // 3,
                               x_max=0, y_max=0)
        state = observe_from(inst, rng.sample(range(n), n // 2))
        for _ in range(30):
            free = [v for v in range(n) if v not in state.selected]
            if state.selected and (not free or rng.random() < 0.5):
                v = rng.choice(sorted(state.selected))
                state.deselect(v)
                stayed += state.observed[v]
            else:
                state.select(rng.choice(free))
            ref = observe_from(inst, state.selected)
            assert state.observed == ref.observed
            assert state.observed_vertices() == observed_set(
                inst, state.selected)
            assert state.unobs_count == ref.unobs_count
            assert state.observed_count == ref.observed_count
            _links_are_a_forest(state)
            if free and rng.random() < 0.3:
                snap = _snapshot(state)
                mark = state.checkpoint()
                for v in rng.sample(free, min(3, len(free))):
                    if v not in state.selected:
                        state.select(v)
                state.rollback(mark)
                assert _snapshot(state) == snap
                rollbacks += 1
    assert stayed > 300 and rollbacks > 100


def test_select_unless_complete_keeps_or_undoes_exactly():
    # A select that completes the state leaves it exactly as it was; any
    # other is kept and agrees with a recomputation. Under an open
    # checkpoint both kinds are undone by its rollback.
    rng = random.Random(6)
    kept = undone = 0
    for seed in range(60):
        inst = random_instance(seed, n_max=30, m_max=50, x_max=0, y_max=0)
        state = observe_from(inst, ())
        for _ in range(25):
            if state.selected and rng.random() < 0.3:
                state.deselect(rng.choice(sorted(state.selected)))
            outer = rng.random() < 0.3 and (state.checkpoint(),
                                            _snapshot(state))
            for _ in range(rng.randint(1, 4)):
                free = [v for v in range(inst.n) if v not in state.selected]
                if not free:
                    break
                v = rng.choice(free)
                snap = _snapshot(state)
                if state._select_unless_complete(v):
                    kept += 1
                    assert v in state.selected and not state.is_complete()
                    ref = observe_from(inst, state.selected)
                    assert state.observed_vertices() == ref.observed_vertices()
                    assert state.observed_vertices() == observed_set(
                        inst, state.selected)
                    _links_are_a_forest(state)
                    _exhausted(state)
                else:
                    undone += 1
                    assert _snapshot(state) == snap
                    assert len(observed_set(inst, state.selected | {v})) \
                        == inst.n
            if outer:
                state.rollback(outer[0])
                assert _snapshot(state) == outer[1]
    assert kept > 1000 and undone > 1000


def test_nested_checkpoint_at_an_empty_trail():
    # An inner checkpoint taken before anything is recorded must not
    # close the outer one when rolled back.
    inst = path_graph(5)
    state = observe_from(inst, ())
    outer = state.checkpoint()
    inner = state.checkpoint()
    state.rollback(inner)
    state.select(2)
    state.rollback(outer)
    assert state.observed_vertices() == frozenset() and not state.selected
    state.select(0)
    state.deselect(0)
    assert state.observed_vertices() == frozenset()


class _EditableGraph:
    """Mutable copy of an instance's graph that an ObservationState reads."""

    def __init__(self, inst):
        self.n = inst.n
        self.adj = [set(inst.adj[v]) for v in range(inst.n)]
        self.propagating = list(inst.propagating)

    def instance(self):
        """The current graph as a PdsInstance."""
        return PdsInstance(self.n, [(u, v) for u in range(self.n)
                                    for v in self.adj[u] if u < v],
                           self.propagating)


def _edit_matches_recompute(state, graph, before, changed, op):
    """The state after operation `op` equals a recomputation on the
    current graph, and `changed`, unless None, holds every vertex whose
    observed flag differs from `before`."""
    ref = observe_from(graph, state.selected)
    assert state.observed == ref.observed, op
    assert state.observed_vertices() == observed_set(
        graph.instance(), state.selected), op
    assert state.unobs_count == ref.unobs_count, op
    assert state.observed_count == ref.observed_count, op
    if changed is not None:
        flipped = {v for v in range(graph.n)
                   if before[v] != state.observed[v]}
        assert flipped <= set(changed), op
    _links_are_a_forest(state)
    _exhausted(state)


def test_graph_edits_match_recompute():
    # Each edit must leave the state equal to a recomputation and report
    # every vertex whose observed flag it flipped. The random edge
    # insertions include ObsE's rewiring: an unobserved endpoint gaining
    # an edge to a selected vertex.
    rng = random.Random(3)
    counts = dict.fromkeys(("select", "add", "remove", "clear", "delete"), 0)
    for seed in range(80):
        inst = random_instance(seed, n_max=30, m_max=50, x_max=0, y_max=0)
        graph = _EditableGraph(inst)
        state = observe_from(graph, rng.sample(range(inst.n),
                                               rng.randint(0, min(2, inst.n))))
        for _ in range(40):
            before = list(state.observed)
            op = rng.choice(sorted(counts))
            changed = []
            if op == "select":
                free = [v for v in range(inst.n) if v not in state.selected]
                if not free:
                    continue
                mark = state.checkpoint()
                state.select(rng.choice(free))
                changed = state.marked_since(mark)
                state.release(mark)
            elif op == "add":
                u, v = rng.randrange(inst.n), rng.randrange(inst.n)
                if u == v or v in graph.adj[u]:
                    continue
                graph.adj[u].add(v)
                graph.adj[v].add(u)
                changed = state.edge_added(u, v)
            elif op == "remove":
                edges = [(u, v) for u in range(inst.n)
                         for v in graph.adj[u] if u < v]
                if not edges:
                    continue
                u, v = rng.choice(edges)
                graph.adj[u].discard(v)
                graph.adj[v].discard(u)
                changed = state.edge_removed(u, v)
            elif op == "clear":
                props = [v for v in range(inst.n) if graph.propagating[v]]
                if not props:
                    continue
                v = rng.choice(props)
                graph.propagating[v] = False
                changed = state.flag_cleared(v)
            else:
                free = [v for v in range(inst.n) if v not in state.selected]
                if not free:
                    continue
                v = rng.choice(free)
                for w in sorted(graph.adj[v]):
                    graph.adj[v].discard(w)
                    graph.adj[w].discard(v)
                    changed += state.edge_removed(v, w)
                assert not state.observed[v]
            counts[op] += 1
            _edit_matches_recompute(state, graph, before, changed, op)
    assert min(counts.values()) > 200


def test_edits_between_observed_vertices_match_recompute():
    # Edge edits between observed vertices, one end often selected, next to
    # selects and deselects: most of them change no observed flag, and
    # each must still leave links that derive the observation, since a
    # cycle of links would keep its vertices observed after a deselect.
    # An add that returned at once whenever an observed end is selected
    # leaves such cycles, and fails here on the derivation check.
    rng = random.Random(5)
    counts = dict.fromkeys(("select", "deselect", "add", "remove"), 0)
    for seed in range(120):
        inst = random_instance(seed, n_max=16, m_max=24, n_min=5,
                               x_max=0, y_max=0)
        graph = _EditableGraph(inst)
        state = observe_from(graph, rng.sample(range(inst.n), 2))
        for _ in range(40):
            before = list(state.observed)
            observed = [v for v in range(inst.n) if state.observed[v]]
            op = rng.choice(("select", "deselect", "add", "add", "remove"))
            changed = []
            if op == "select":
                free = [v for v in range(inst.n) if v not in state.selected]
                if not free:
                    continue
                mark = state.checkpoint()
                state.select(rng.choice(free))
                changed = state.marked_since(mark)
                state.release(mark)
            elif op == "deselect":
                if not state.selected:
                    continue
                state.deselect(rng.choice(sorted(state.selected)))
            elif op == "add":
                ends = (sorted(state.selected) if rng.random() < 0.6
                        else observed)
                if not ends or len(observed) < 2:
                    continue
                u, v = rng.choice(ends), rng.choice(observed)
                if u == v or v in graph.adj[u]:
                    continue
                graph.adj[u].add(v)
                graph.adj[v].add(u)
                changed = state.edge_added(u, v)
            else:
                edges = [(u, v) for u in observed for v in graph.adj[u]
                         if u < v and state.observed[v]]
                if not edges:
                    continue
                u, v = rng.choice(edges)
                graph.adj[u].discard(v)
                graph.adj[v].discard(u)
                changed = state.edge_removed(u, v)
            counts[op] += 1
            _edit_matches_recompute(state, graph, before,
                                    None if op == "deselect" else changed, op)
    assert min(counts.values()) > 500


def test_graph_edits_raise_while_a_checkpoint_is_open():
    graph = _EditableGraph(path_graph(3))
    state = observe_from(graph, {0})
    state.checkpoint()
    graph.adj[0].discard(1)
    graph.adj[1].discard(0)
    with pytest.raises(RuntimeError):
        state.edge_removed(0, 1)


def _fixpoint(state):
    """What a state holds apart from its propagation links, which depend
    on the order of its operations."""
    return (set(state.selected), state.observed_vertices(),
            list(state.dom_count), list(state.unobs_count),
            state.observed_count)


def test_copy_is_independent_of_its_source():
    rng = random.Random(6)
    for seed in range(60):
        inst = random_instance(seed, n_max=30, m_max=50, x_max=0, y_max=0)
        source = observe_from(inst, rng.sample(range(inst.n), inst.n // 3))
        copy = source.copy()
        assert _snapshot(copy) == _snapshot(source)
        # The copy shares the graph and no mutable field with its source.
        assert copy.inst is source.inst
        for name in ObservationState.__slots__:
            value = getattr(source, name)
            if isinstance(value, (list, set)):
                assert getattr(copy, name) is not value, name
        # Edit one, then the other; each stays what a fresh fixpoint of its
        # own selection is.
        for edited, other in ((copy, source), (source, copy)):
            before = _snapshot(other)
            for v in rng.sample(range(inst.n), min(4, inst.n)):
                if v in edited.selected:
                    edited.deselect(v)
                else:
                    edited.select(v)
            mark = edited.checkpoint()
            free = [v for v in range(inst.n) if v not in edited.selected]
            if free:
                edited.select(rng.choice(free))
            edited.rollback(mark)
            assert _snapshot(other) == before
            for state in (edited, other):
                assert _fixpoint(state) == _fixpoint(
                    observe_from(inst, state.selected))
                _links_are_a_forest(state)
                _exhausted(state)


def test_copy_raises_while_a_checkpoint_is_open():
    state = observe_from(path_graph(4), {0})
    mark = state.checkpoint()
    state.select(3)
    with pytest.raises(RuntimeError):
        state.copy()
    state.rollback(mark)
    assert state.copy().selected == {0}
