import random
import time

import pytest

from powerdom import (LOCAL_RULES, Circuit, PdsInstance, RuleId,
                      applicable_sites, apply_rule_once,
                      full_chain_detailed, lift_solution, observe_from,
                      oracle_pds, reduce_full, reductions)
from powerdom.bruteforce import observed_set
from powerdom.errors import InfeasibleInstanceError

from conftest import (complete_graph, gridlike_graph, oracle_gamma, path_graph,
                      random_instance, rule_pattern_instance, star_graph)


# --- single rules on hand-built sites --------------------------------------


def test_deg1a_excludes_star_leaf():
    star = star_graph(3)
    res = apply_rule_once(star, RuleId.DEG1A, 1)
    assert res.changed
    assert res.event.excluded == (1,)
    assert res.instance.excluded == {1}


def test_deg1b_propagating_parent():
    # excluded leaf on a propagating parent: leaf deleted, parent loses
    # the ability to propagate
    inst = path_graph(3, excluded=[0])
    res = apply_rule_once(inst, RuleId.DEG1B, 0)
    assert res.changed
    assert res.instance.n == 2
    assert res.instance.propagating == (False, True)
    assert res.to_original == (1, 2)


def test_deg1b_nonpropagating_parent_selects():
    inst = PdsInstance(2, [(0, 1)], propagating=[True, False], excluded=[0])
    res = apply_rule_once(inst, RuleId.DEG1B, 0)
    assert res.changed
    assert res.event.selected == (1,)
    assert res.instance.pre_selected == {0}  # compacted id of vertex 1


def test_tri_selects_common_neighbor():
    tri = PdsInstance(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    res = apply_rule_once(tri, RuleId.TRI, (0, 1))
    assert res.changed
    assert res.event.selected == (2,) and res.event.deleted == (0, 1)
    assert res.instance.n == 2 and res.instance.pre_selected == {0}


def test_tri_keeps_pre_selected_endpoints():
    tri = PdsInstance(3, [(0, 1), (0, 2), (1, 2)], pre_selected=[0])
    assert not apply_rule_once(tri, RuleId.TRI, (0, 1)).changed


def test_deg2a_requires_nonadjacent_neighbors():
    p3 = path_graph(3)
    assert apply_rule_once(p3, RuleId.DEG2A, 1).changed
    tri = complete_graph(3)
    assert not apply_rule_once(tri, RuleId.DEG2A, 1).changed


def test_deg2b_merges_path():
    inst = PdsInstance(4, [(0, 1), (1, 2), (2, 3)], excluded=[2])
    res = apply_rule_once(inst, RuleId.DEG2B, 2)
    assert res.changed
    assert res.instance.n == 3
    assert (1, 2) in res.instance.edges  # compacted ids of 1 and 3


def test_deg2c_merges_unobserved_pair():
    #   s(X) - v(excluded) - {x, y}, x - zx, y - zy
    inst = PdsInstance(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)],
                       pre_selected=[0], excluded=[1])
    res = apply_rule_once(inst, RuleId.DEG2C, 1)
    assert res.changed
    assert res.event.deleted == (3,)
    assert res.instance.n == 5
    kept = res.to_original.index(2)
    zy = res.to_original.index(5)
    assert res.instance.has_edge(kept, zy)


def test_onlyn_selects_unique_candidate():
    inst = PdsInstance(3, [(0, 1), (0, 2)], propagating=[True, False, False],
                       excluded=[0, 1])
    res = apply_rule_once(inst, RuleId.ONLYN, 0)
    assert res.changed and res.event.selected == (2,)


def test_isol_selects_isolated():
    res = apply_rule_once(PdsInstance(1), RuleId.ISOL, 0)
    assert res.changed and res.instance.pre_selected == {0}


def test_obsnp_deletes_observed_nonpropagating():
    inst = PdsInstance(2, [(0, 1)], propagating=[True, False],
                       pre_selected=[0], excluded=[1])
    res = apply_rule_once(inst, RuleId.OBSNP, 1)
    assert res.changed and res.instance.n == 1


def test_obse_rewires_observed_edge():
    inst = PdsInstance(3, [(0, 1), (0, 2), (1, 2)], pre_selected=[0])
    res = apply_rule_once(inst, RuleId.OBSE, (1, 2))
    assert res.changed
    assert res.instance.edges == ((0, 1), (0, 2))  # both already present
    assert not apply_rule_once(res.instance, RuleId.OBSE, (1, 2)).changed


def test_obse_needs_pre_selected():
    inst = PdsInstance(3, [(0, 1), (0, 2), (1, 2)])
    assert not apply_rule_once(inst, RuleId.OBSE, (1, 2)).changed


def test_dom_star():
    star = star_graph(3)
    res = apply_rule_once(star, RuleId.DOM, (0, 1))
    assert res.changed and res.event.excluded == (1,)


def test_necn_isolated_pair():
    two = PdsInstance(2)
    res = apply_rule_once(two, RuleId.NECN, 0)
    assert res.changed and res.event.selected == (0,)
    res2 = apply_rule_once(res.instance, RuleId.NECN, 1)
    assert res2.changed


# --- exhaustive passes ------------------------------------------------------


def test_local_exhaustive_p2():
    # Deg1a excludes one endpoint, Deg1b deletes it, Isol selects the rest
    kernel, log, _ = reduce_full(path_graph(2), "local")
    assert kernel.n == 1
    assert kernel.pre_selected == {0}
    assert [e.rule for e in log.events] == [RuleId.DEG1A, RuleId.DEG1B,
                                            RuleId.ISOL]
    assert oracle_pds(path_graph(2))[0] == 1


def test_local_exhaustive_irreducible_cube():
    # 3-cube: 3-regular, triangle-free, no observed vertices -> no guard fires
    edges = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
             (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
    cube = PdsInstance(8, edges)
    for rule in LOCAL_RULES:
        assert applicable_sites(cube, rule) == []
    kernel, log, _ = reduce_full(cube, "local")
    assert kernel == cube and log.events == []


def test_local_exhaustive_empty_graph():
    kernel, log, _ = reduce_full(PdsInstance(0), "local")
    assert kernel.n == 0 and log.events == []


# With one non-local rule alone, `reduce_full` runs a single pass of it:
# a pass that fires is not run again before another rule's event.


def test_nonlocal_dom_star():
    kernel, log, _ = reduce_full(star_graph(3), {RuleId.DOM})
    assert kernel.excluded == {1, 2, 3}
    # immediately re-running Dom changes nothing
    kernel2, log2, _ = reduce_full(kernel, {RuleId.DOM})
    assert log2.events == []


def test_nonlocal_necn():
    kernel, _, _ = reduce_full(PdsInstance(1), {RuleId.NECN})
    assert kernel.pre_selected == {0}
    # P4: every vertex is avoidable, nothing selected
    kernel, log, _ = reduce_full(path_graph(4), {RuleId.NECN})
    assert log.events == []


def test_nonlocal_single_pass_exhaustive():
    # one pass of Dom (or NecN) leaves nothing for an immediate rerun
    for rule in (RuleId.DOM, RuleId.NECN):
        for seed in range(30):
            inst = random_instance(seed, n_max=9)
            once, _, _ = reduce_full(inst, {rule})
            _, again, _ = reduce_full(once, {rule})
            assert again.events == [], (rule, seed)


def test_reduce_full_p10_solved_outright():
    kernel, log, stats = reduce_full(path_graph(10))
    assert stats["kernel_undecided"] == 0
    solution = lift_solution(log, oracle_pds(kernel)[1])
    assert len(solution) == oracle_pds(path_graph(10))[0] == 1
    assert len(observed_set(path_graph(10), solution.selected)) == 10


def test_reduce_full_two_triangles():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    inst = PdsInstance(6, edges)
    kernel, log, _ = reduce_full(inst)
    lifted = lift_solution(log, oracle_pds(kernel)[1])
    assert len(lifted) == oracle_pds(inst)[0] == 2


def test_reduce_full_covered_by_x():
    inst = star_graph(3, pre_selected=[0])
    kernel, _, stats = reduce_full(inst)
    assert stats["kernel_undecided"] == 0


def test_reduce_full_idempotent():
    for seed in range(40):
        inst = random_instance(seed)
        kernel, _, _ = reduce_full(inst)
        _, log2, _ = reduce_full(kernel)
        assert log2.events == []


def test_reduce_full_termination_budget():
    # Every event lowers the non-negative measure, so its starting value
    # bounds the number of events.
    insts = ([random_instance(seed, n_max=14, m_max=26) for seed in range(30)]
             + [gridlike_graph(60, s) for s in range(1, 4)])
    for inst in insts:
        _, log, _ = reduce_full(inst)
        assert len(log.events) <= reductions._Work(inst).measure()


class _Clock:
    """Stand-in for the `time` module whose clock reads 1, 2, 3, ..."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return self.reads


def _cut_reduce(monkeypatch, inst, checks):
    """reduce_full with a deadline that passes after `checks` clock reads;
    returns the kernel, the log and the number of reads made."""
    clock = _Clock()
    with monkeypatch.context() as m:
        m.setattr(reductions, "time", clock)
        kernel, log, _ = reduce_full(inst, deadline=checks + 0.5)
    return kernel, log, clock.reads


def test_deadline_cuts_the_reduction_to_a_safe_prefix(small_corpus,
                                                      monkeypatch):
    # Every local rule runs from the worklist, after a deadline check, so
    # a deadline that has already passed leaves the input as it is.
    passed = time.perf_counter() - 1.0
    for inst in ([inst for inst, _ in small_corpus]
                 + [gridlike_graph(60, seed) for seed in range(1, 4)]):
        kernel, log, _ = reduce_full(inst, deadline=passed)
        assert log.events == [] and kernel == inst
    # One that passes at any later check keeps a prefix of the full run's
    # events, and the kernel it leaves is still safe.
    for inst, gamma in small_corpus:
        _, full, reads = _cut_reduce(monkeypatch, inst, float("inf"))
        checked = set()
        for checks in range(reads + 1):
            kernel, log, _ = _cut_reduce(monkeypatch, inst, checks)
            cut = len(log.events)
            assert log.events == full.events[:cut]
            if cut in checked:
                continue
            checked.add(cut)
            try:
                reduced = len(lift_solution(log, oracle_pds(kernel)[1]))
            except InfeasibleInstanceError:
                reduced = None
            assert reduced == gamma


def test_deadline_cuts_dom_and_necn_passes(small_corpus, monkeypatch):
    # Record where each Dom and NecN pass of the uncut run starts and ends
    # in its event list; a cut run's events may stop strictly inside one.
    spans = []

    def spanning(run_pass, rule):
        def run(self):
            start = len(self.events)
            fired = run_pass(self)
            spans.append((rule, start, len(self.events)))
            return fired
        return run

    cut_inside = set()
    for seed in range(1, 6):
        inst = gridlike_graph(60, seed)
        spans.clear()
        with monkeypatch.context() as m:
            m.setattr(reductions._Driver, "dom_pass",
                      spanning(reductions._Driver.dom_pass, RuleId.DOM))
            m.setattr(reductions._Driver, "necn_pass",
                      spanning(reductions._Driver.necn_pass, RuleId.NECN))
            _, full, reads = _cut_reduce(monkeypatch, inst, float("inf"))
        for checks in range(reads + 1):
            _, log, _ = _cut_reduce(monkeypatch, inst, checks)
            cut = len(log.events)
            assert log.events == full.events[:cut]
            cut_inside |= {rule for rule, start, end in spans
                           if start < cut < end}
    assert cut_inside == {RuleId.DOM, RuleId.NECN}
    # Every cut kernel is still safe.
    rng = random.Random(5)
    for inst, gamma in small_corpus:
        _, _, reads = _cut_reduce(monkeypatch, inst, float("inf"))
        kernel, log, _ = _cut_reduce(monkeypatch, inst, rng.randrange(reads))
        try:
            reduced = len(lift_solution(log, oracle_pds(kernel)[1]))
        except InfeasibleInstanceError:
            reduced = None
        assert reduced == gamma


def test_lift_identity_and_select_events():
    inst = path_graph(3, pre_selected=[1])
    kernel, log, _ = reduce_full(inst, rules="none")
    sol = lift_solution(log, oracle_pds(kernel)[1])
    assert sol.selected == {1}
    # Rules are a named subset or RuleIds; rule names are neither.
    for rules in ("bogus", ["Deg1a"], [RuleId.DEG1A, "Dom"]):
        with pytest.raises(ValueError):
            reduce_full(inst, rules)
    kernel, log, _ = reduce_full(path_graph(2))
    sol = lift_solution(log, oracle_pds(kernel)[1])
    assert len(sol) == 1


def test_lift_rejects_infeasible():
    from powerdom.instance import SolutionSet
    inst = path_graph(4)
    kernel, log, _ = reduce_full(inst, rules="none")
    with pytest.raises(ValueError):
        lift_solution(log, SolutionSet(frozenset()))


def test_safety_random_sample(small_corpus):
    for inst, gamma in small_corpus:
        kernel, log, _ = reduce_full(inst)
        try:
            reduced = len(lift_solution(log, oracle_pds(kernel)[1]))
        except InfeasibleInstanceError:
            reduced = None
        assert reduced == gamma


def test_rule_pattern_generators_fire():
    for rule in RuleId:
        for seed in range(25):
            inst, site = rule_pattern_instance(rule.value, seed)
            res = apply_rule_once(inst, rule, site)
            assert res.changed, f"{rule.value} guard failed at seed {seed}"
            assert oracle_gamma(res.instance) == oracle_gamma(inst)


# --- the worklist keeps the restart firing order ----------------------------


class _RestartDriver(reductions._Driver):
    """Reference local round: fire the first (rule, site) in LOCAL_RULES x
    `_sites` order whose guard holds, then start over."""

    def local_round(self):
        work, fired = self.work, False
        enabled = [r for r in LOCAL_RULES if r in self.rules]
        while True:
            for rule, site in ((r, s) for r in enabled
                               for s in reductions._sites(work, r)):
                if isinstance(site, int) and not work.alive[site]:
                    continue
                event = reductions._LOCAL_APPLY[rule](work, site)
                if event is not None:
                    self._record(event)
                    fired = True
                    break
            else:
                return fired


def _shuffled(inst, seed):
    perm = list(range(inst.n))
    random.Random(seed).shuffle(perm)
    propagating = [True] * inst.n
    for v in range(inst.n):
        propagating[perm[v]] = inst.propagating[v]
    return PdsInstance(inst.n, [(perm[u], perm[v]) for u, v in inst.edges],
                       propagating)


def _obse_hub():
    """A pre-selected, non-propagating hub 0 on a fan 1-2-3-4-5-6, with 7
    and 8 hanging off 3 and 4 and joined. ObsE takes the fan's edges one
    by one and rewires 3-7 and 4-8 to the hub, and each vertex left a
    pendant of the hub is excluded by Deg1a and deleted by Deg1b, which
    lists the hub as selected although it is already pre-selected."""
    edges = [(0, v) for v in range(1, 7)] + [(v, v + 1) for v in range(1, 6)]
    return PdsInstance(9, edges + [(3, 7), (4, 8), (7, 8)],
                       propagating=[False] + [True] * 6 + [False] * 2,
                       pre_selected=[0])


def _firing_order_corpus(small_corpus):
    """Small corpus, random extension instances, the wire1, OR(x0) and
    x0 AND x1 chains, the ObsE hub, and id-shuffled grid-like graphs."""
    chains = [Circuit([("x0", ("in", ())), ("out", ("out", ("x0",)))]),
              Circuit([("x0", ("in", ())), ("g0", ("or", ("x0",))),
                       ("out", ("out", ("g0",)))]),
              Circuit([("x0", ("in", ())), ("x1", ("in", ())),
                       ("g0", ("and", ("x0", "x1"))),
                       ("out", ("out", ("g0",)))])]
    return ([inst for inst, _ in small_corpus]
            + [random_instance(seed, n_max=20, m_max=40, x_max=3, y_max=4)
               for seed in range(100)]
            + [full_chain_detailed(c).instance for c in chains]
            + [_obse_hub()]
            + [_shuffled(gridlike_graph(n, gen_seed), 0)
               for n in (40, 60) for gen_seed in range(1, 7)])


def test_worklist_keeps_the_restart_firing_order(small_corpus):
    for inst in _firing_order_corpus(small_corpus):
        for subset in ("all", "local", "local+dom", "local+necn"):
            _, log, _ = reduce_full(inst, subset)
            ref = _RestartDriver(inst, reductions.RULE_SUBSETS[subset])
            ref.run()
            assert log.events == ref.events, subset
            assert log.kernel_to_original == ref.work.snapshot()[1], subset


def test_obse_hub_fires_deg1b_at_a_pre_selected_hub():
    _, log, _ = reduce_full(_obse_hub(), "local")
    rules = [e.rule for e in log.events]
    assert rules.count(RuleId.DEG1B) == 8
    assert {e.selected for e in log.events if e.rule is RuleId.DEG1B} == {(0,)}
    # ObsE rewires 3-7 and 4-8 to the hub.
    for v, w in ((3, 7), (4, 8)):
        assert RuleId.OBSE in {e.rule for e in log.events if e.site == (v, w)}
        res = apply_rule_once(_obse_hub(), RuleId.OBSE, (v, w))
        edges = {tuple(res.to_original[u] for u in edge)
                 for edge in res.instance.edges}
        assert (v, w) not in edges and (0, w) in edges


def _pending_at(driver, vertices):
    """The pending (rule, site) pairs with a vertex of the site in
    `vertices`."""
    return {(pending.apply, site) for pending in driver.pending
            for site in pending.members
            if set(site if isinstance(site, tuple) else (site,)) & vertices}


@pytest.mark.parametrize("hub_status", ["pre", "und"])
def test_deg1b_puts_back_the_hubs_neighbours_only_on_a_status_change(
        hub_status):
    # Hub 0 is non-propagating, 1 an excluded pendant of it, and 2, 3, 4
    # undecided leaves, whose class Deg1a accepts. Deg1b at 1 deletes 1 and
    # lists the hub as selected. Only a hub that was undecided changes its
    # status, and only then can a guard at its other neighbours read
    # something new.
    inst = PdsInstance(5, [(0, v) for v in range(1, 5)],
                       propagating=[False] + [True] * 4,
                       pre_selected=[0] if hub_status == "pre" else [],
                       excluded=[1])
    driver = reductions._Driver(inst, reductions.RULE_SUBSETS["local"])
    for pending in driver.pending:
        pending.heap.clear()
        pending.members.clear()
    event = reductions._deg1b(driver.work, 1)
    assert event.selected == (0,)
    driver._record(event)
    back = _pending_at(driver, {2, 3, 4})
    if hub_status == "pre":
        assert back == set()
    else:
        assert back == {(reductions._deg1a, v) for v in (2, 3, 4)}


class _EveryPassDriver(reductions._Driver):
    """Reference run: every enabled Dom and NecN pass in every round."""

    def run(self):
        while not self._expired():
            changed = self.local_round()
            if RuleId.DOM in self.rules and not self._expired():
                changed |= self.dom_pass()
            if RuleId.NECN in self.rules and not self._expired():
                changed |= self.necn_pass()
            if not changed:
                break


def test_skipped_passes_keep_the_every_pass_firing_order(small_corpus):
    for inst in _firing_order_corpus(small_corpus):
        for subset in ("all", "nonlocal", "local+dom", "local+necn"):
            rules = reductions.RULE_SUBSETS[subset]
            _, log, _ = reduce_full(inst, subset)
            ref = _EveryPassDriver(inst, rules)
            ref.run()
            assert log.events == ref.events, subset
            assert log.kernel_to_original == ref.work.snapshot()[1], subset
            # After a run, one more pass of each fires nothing.
            driver = reductions._Driver(inst, rules)
            driver.run()
            count = len(driver.events)
            if RuleId.DOM in rules:
                driver.dom_pass()
            if RuleId.NECN in rules:
                driver.necn_pass()
            assert len(driver.events) == count, subset


class _AllPairsDomDriver(reductions._Driver):
    """Reference Dom pass: try every undecided w, in id order, under every
    undecided v, each on a fresh fixpoint."""

    def dom_pass(self):
        work, fired = self.work, False
        undecided = work.undecided()
        for v in undecided:
            if work.status[v] != reductions.UND:
                continue
            state = observe_from(work, work.pre_selected() + [v])
            for w in undecided:
                event = w != v and reductions._dom(work, state, v, w)
                if event:
                    self._record(event)
                    fired = True
        return fired


def test_dom_candidates_keep_the_all_pairs_firing_order(small_corpus):
    for inst in _firing_order_corpus(small_corpus):
        for subset in ("all", "local+dom"):
            _, log, _ = reduce_full(inst, subset)
            ref = _AllPairsDomDriver(inst, reductions.RULE_SUBSETS[subset])
            ref.run()
            assert log.events == ref.events, subset
            assert log.kernel_to_original == ref.work.snapshot()[1], subset


def test_dom_fires_a_covered_first_vertex_under_the_second():
    # The pre-selected 5 observes N[0] = {0, 5}, so 0 is excluded under the
    # first other vertex tried, 1, although selecting 1 newly observes
    # nothing next to 0.
    inst = PdsInstance(6, [(0, 5), (1, 2), (2, 3), (3, 4)], pre_selected=[5])
    _, log, _ = reduce_full(inst, {RuleId.DOM})
    ref = _AllPairsDomDriver(inst, {RuleId.DOM})
    ref.run()
    assert log.events == ref.events
    assert log.events[0] == reductions.ReductionEvent(
        RuleId.DOM, (1, 0), excluded=(0,))


def _in_class(inst, rule, site):
    """Whether every vertex of the site is of a class the rule accepts."""
    work = reductions._Work(inst)
    accepts = reductions._ACCEPTS[rule]
    ends = site if isinstance(site, tuple) else (site,)
    return all(accepts(work.status[v], min(work.degree(v), 3),
                       work.propagating[v]) for v in ends)


def test_site_classes_keep_every_site_whose_guard_holds():
    # Deg2c holds on none of the random or grid-like inputs, so every
    # rule's own pattern is added.
    insts = ([random_instance(seed) for seed in range(300)]
             + [gridlike_graph(60, s) for s in range(1, 6)]
             + [rule_pattern_instance(rule.value, seed)[0]
                for rule in LOCAL_RULES for seed in range(5)])
    held = set()
    for inst in insts:
        for rule in LOCAL_RULES:
            for site in applicable_sites(inst, rule):
                assert _in_class(inst, rule, site), (rule, site)
                held.add(rule)
    assert held == set(LOCAL_RULES)


# --- invariant checks on every fire -----------------------------------------


def _recount(work):
    alive = [v for v in range(work.n) if work.alive[v]]
    free = [v for v in alive if work.status[v] != reductions.PRE]
    return (len(alive),
            sum(1 for v in alive if work.status[v] == reductions.UND),
            sum(1 for v in free for w in work.adj[v]
                if v < w and work.status[w] != reductions.PRE),
            sum(1 for v in alive if work.propagating[v]))


def test_maintained_measure_matches_recount(small_corpus, monkeypatch):
    record = reductions._Driver._record
    checked = []

    def checking_record(self, event):
        record(self, event)
        work = self.work
        terms = (work.alive_count, work.undecided_count, work.edge_count,
                 work.propagating_count)
        assert terms == _recount(work), event
        assert work.measure() == sum(terms)
        # The observation state kept alive across the work state's edits
        # agrees with the independent oracle on the compacted kernel. A
        # Dom event fires while its candidate v is selected on top.
        snap, to_work = work.snapshot()
        selected = set(snap.pre_selected)
        if event.rule is RuleId.DOM:
            selected.add(to_work.index(event.site[0]))
        oracle = {to_work[v] for v in observed_set(snap, selected)}
        assert work.obs.observed_vertices() == oracle, event
        assert work.obs.observed_count == len(oracle), event
        checked.append(event.rule)

    monkeypatch.setattr(reductions._Driver, "_record", checking_record)
    for inst, _ in small_corpus:
        reduce_full(inst)
    or1 = Circuit([("x0", ("in", ())), ("g0", ("or", ("x0",))),
                   ("out", ("out", ("g0",)))])
    reduce_full(full_chain_detailed(or1).instance)
    # Alone, each rule fires on its pattern even where another rule
    # would fire first under all rules.
    for rule in RuleId:
        for seed in range(10):
            inst, _ = rule_pattern_instance(rule.value, seed)
            reduce_full(inst)
            reduce_full(inst, rules={rule})
    assert set(checked) == set(RuleId)


@pytest.mark.parametrize("rule", [RuleId.DEG1A, RuleId.OBSE, RuleId.DOM,
                                  RuleId.NECN], ids=lambda rule: rule.value)
def test_measure_check_trips_on_a_fire_that_changes_nothing(rule,
                                                            monkeypatch):
    # A fire that returns an event without mutating the work state: a local
    # rule's through `_LOCAL_APPLY`, Dom's and NecN's through `_dom` and
    # `_necn`, which their passes call.
    def noop(work, *site):
        return reductions.ReductionEvent(rule, site)

    if rule in LOCAL_RULES:
        monkeypatch.setitem(reductions._LOCAL_APPLY, rule, noop)
    else:
        monkeypatch.setattr(reductions, "_" + rule.name.lower(), noop)
    inst, site = rule_pattern_instance(rule.value, 0)
    with pytest.raises(AssertionError,
                       match=f"{rule.value} did not decrease"):
        reduce_full(inst, rules={rule})
    # A single-site fire goes through the same check.
    with pytest.raises(AssertionError,
                       match=f"{rule.value} did not decrease"):
        apply_rule_once(inst, rule, site)
