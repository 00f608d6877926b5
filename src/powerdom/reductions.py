"""Safe reduction rules and the staged preprocessing driver.

Each rule either shrinks the graph or decides a vertex (pre-select or
exclude) while preserving the optimum of the extension instance. The
driver alternates exhaustive local rounds with the two
observation-neighborhood rules, Dom and NecN, until nothing fires.

Each local step fires the first rule in `LOCAL_RULES` order that holds
anywhere, at its smallest site (vertex id, or edge pair), so the firing
sequence is a function of the rule order and the vertex ids. The driver
finds that step from a worklist rather than by rescanning every site:
each enabled local rule keeps the set of sites it has still to test. A
site leaves the set when its guard fails. The work state's mutations,
the only writers of the graph and the markings, record what they edit:
the vertices whose status or propagating flag changed, the edges added
or removed, and the vertices whose observed flag may have changed. An
event keeps only what the rule decided. After every event, local or
not, the driver reads that record and puts a site back on the set of
each rule whose guard reads an input at the site that the event changed:

- the vertices whose status or propagating flag changed, the neighbours
  of one that lost its propagating flag, and those around each edited
  edge go back on every rule but ObsE, whose guards read the site's own
  class and the structure around it, the edges at its degree-two
  neighbours included;
- the neighbours of a vertex whose status changed go back on Deg1a,
  Deg1b, Tri, Deg2a and OnlyN, the rules that read a neighbour's status;
- every observed flag changes inside a recorded event, so the same
  record puts back, on Deg2c, ObsNP and ObsE, the rules that read it, a
  vertex whose flag differs from the one its sites were last put back
  under, and its neighbours on Deg2c, which also reads its neighbours'
  flags;
- ObsE reads only its edge, the ends' statuses and their observed flags,
  so it also takes back the edges the event added.

A site goes back only on the sets of the rules that accept its class,
the status, degree and propagating flag of its vertex or of both ends of
its edge; each kind of put-back above reads a table, built once per rule
set, of the rules that read its input and accept each class. A rule's
guard fails at any other class, and every change of a vertex's class is
a recorded change of its status or flag or of an edge at it. No rule
accepts a pre-selected vertex, so a site there never comes back, and
pre-selection is final. So a site outside the set never holds, and the
smallest pending site that holds is the one a full rescan would fire:
the worklist changes how many guards are tried, not which rule fires
where. The driver also skips a Dom or NecN pass when nothing but its own
events has been recorded since it last ran, because such a pass could
fire nothing (see `_Driver.run`).

Every fire is checked, in one place: each recorded event must leave the
measure alive + undecided + free edges + propagating vertices strictly
below its value at the previous event. A free edge is one with no
pre-selected end. The work state's mutations keep the four terms up to
date, so the check is O(1). No rule deletes or un-selects a pre-selected
vertex. ObsE removes a free edge and adds edges only at a pre-selected
vertex, which are not free; every other rule removes a vertex, a
propagating flag or an undecided status and adds at most as many free
edges as it removes. The measure is a non-negative integer, so it also
bounds the number of events by its starting value, at most 3n + m.

"Observed" in rule guards always means observed by the pre-selected set
alone, except in Dom and NecN, which add candidate selections to it.
The work state keeps one `ObservationState` of its pre-selected set for
the whole reduction: each pre-selection selects in it, and each edge
edit, cleared propagating flag and deletion repairs it locally, so guards
read its observed flags and no mutation recomputes the fixpoint.
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass, field
from enum import Enum

from .instance import PdsInstance, SolutionSet
from .propagation import observe_from


class RuleId(Enum):
    DEG1A = "Deg1a"
    DEG1B = "Deg1b"
    TRI = "Tri"
    DEG2A = "Deg2a"
    DEG2B = "Deg2b"
    DEG2C = "Deg2c"
    ONLYN = "OnlyN"
    ISOL = "Isol"
    OBSNP = "ObsNP"
    OBSE = "ObsE"
    DOM = "Dom"
    NECN = "NecN"


LOCAL_RULES = (RuleId.DEG1A, RuleId.DEG1B, RuleId.TRI, RuleId.DEG2A,
               RuleId.DEG2B, RuleId.DEG2C, RuleId.ONLYN, RuleId.ISOL,
               RuleId.OBSNP, RuleId.OBSE)
NONLOCAL_RULES = (RuleId.DOM, RuleId.NECN)

RULE_SUBSETS = {
    "all": frozenset(LOCAL_RULES) | frozenset(NONLOCAL_RULES),
    "local": frozenset(LOCAL_RULES),
    "nonlocal": frozenset(NONLOCAL_RULES),
    "local+dom": frozenset(LOCAL_RULES) | {RuleId.DOM},
    "local+necn": frozenset(LOCAL_RULES) | {RuleId.NECN},
    "none": frozenset(),
}

UND, PRE, EXC = 0, 1, 2


@dataclass(frozen=True)
class ReductionEvent:
    """What a rule decided at its site: the vertices it pre-selected,
    excluded and deleted. The edges it added or removed and the flags it
    cleared are the work state's record, not the event's."""

    rule: RuleId
    site: tuple
    selected: tuple = ()
    excluded: tuple = ()
    deleted: tuple = ()


@dataclass
class ReductionLog:
    """Applied events plus the id mapping needed to lift kernel solutions.

    All vertex ids in events refer to the original instance; deleted
    vertices keep their ids (the kernel is compacted only on emission).
    """

    original: PdsInstance
    events: list = field(default_factory=list)
    kernel_to_original: tuple = ()

    def rule_counts(self):
        counts = {rule.value: 0 for rule in RuleId}
        for ev in self.events:
            counts[ev.rule.value] += 1
        return counts


class _Work:
    """Mutable reduction state over original vertex ids.

    The mutation methods below are the only writers of the graph and the
    markings. Next to `alive_count` they keep three counters over the
    alive vertices: `undecided_count`, `edge_count`, which counts the free
    edges, those with no pre-selected end, and `propagating_count`, so
    `measure()` costs O(1).
    Its `n`, `adj` and `propagating` let an `ObservationState` run on it;
    deleted vertices have no edges and are never selected.
    `obs` is the observation state of the pre-selected set, which the
    mutations keep equal to a recomputation, and `obs_changed` collects
    the vertices whose observed flag they may have changed. Every
    pre-selection selects in `obs`, and no rule deletes or un-selects a
    pre-selected vertex, so outside a Dom trial `obs.selected` is the
    pre-selected set.
    `status_changed` collects the vertices whose status they changed; a
    call that sets a vertex's status to the one it has adds nothing.
    Likewise `edges_changed` collects the edges, as (smaller, larger) id
    pairs, that they really added or removed, and `propagating_changed`
    the vertices whose propagating flag they cleared. These four sets are
    the one record of what an event edited; the driver reads and clears
    them after each event. A deletion needs no entry of its own: it
    removes the vertex's edges, and the driver puts back no site at a
    deleted vertex.
    """

    def __init__(self, inst):
        self.inst = inst
        self.n = inst.n
        self.alive = [True] * inst.n
        self.alive_count = inst.n
        self.adj = [set(inst.adj[v]) for v in range(inst.n)]
        self.propagating = list(inst.propagating)
        self.propagating_count = sum(self.propagating)
        self.status = [UND] * inst.n
        for v in inst.pre_selected:
            self.status[v] = PRE
        for v in inst.excluded:
            self.status[v] = EXC
        self.undecided_count = self.status.count(UND)
        status = self.status
        self.edge_count = sum(1 for u, v in inst.edges
                              if status[u] != PRE and status[v] != PRE)
        self.obs = observe_from(self, inst.pre_selected)
        self.obs_changed = set()
        self.status_changed = set()
        self.edges_changed = set()
        self.propagating_changed = set()

    # mutations ------------------------------------------------------------

    def delete(self, v):
        for w in list(self.adj[v]):
            self.remove_edge(v, w)
        self.alive[v] = False
        self.alive_count -= 1
        self.undecided_count -= self.status[v] == UND
        self.propagating_count -= self.propagating[v]

    def add_edge(self, u, v):
        if v not in self.adj[u]:
            self.adj[u].add(v)
            self.adj[v].add(u)
            self.edge_count += self.status[u] != PRE and self.status[v] != PRE
            self.edges_changed.add((u, v) if u < v else (v, u))
            self.obs_changed.update(self.obs.edge_added(u, v))

    def remove_edge(self, u, v):
        if v in self.adj[u]:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            self.edge_count -= self.status[u] != PRE and self.status[v] != PRE
            self.edges_changed.add((u, v) if u < v else (v, u))
            self.obs_changed.update(self.obs.edge_removed(u, v))

    def set_status(self, v, status):
        if status == self.status[v]:
            return
        self.status_changed.add(v)
        self.undecided_count += (status == UND) - (self.status[v] == UND)
        if status == PRE:
            self.edge_count -= sum(1 for w in self.adj[v]
                                   if self.status[w] != PRE)
            obs = self.obs
            mark = obs.checkpoint()
            obs.select(v)
            self.obs_changed.update(obs.marked_since(mark))
            obs.release(mark)
        self.status[v] = status

    def set_nonpropagating(self, v):
        if self.propagating[v]:
            self.propagating_count -= 1
            self.propagating[v] = False
            self.propagating_changed.add(v)
            self.obs_changed.update(self.obs.flag_cleared(v))

    # queries ---------------------------------------------------------------

    def degree(self, v):
        return len(self.adj[v])

    def vertices(self):
        return [v for v in range(self.n) if self.alive[v]]

    def undecided(self):
        return [v for v in range(self.n)
                if self.alive[v] and self.status[v] == UND]

    def edge_list(self):
        return sorted((u, v) for u in range(self.n) if self.alive[u]
                      for v in self.adj[u] if u < v)

    def measure(self):
        return (self.alive_count + self.undecided_count + self.edge_count
                + self.propagating_count)

    def snapshot(self):
        """Compact alive vertices into a PdsInstance; returns (inst, to_work)."""
        alive = self.vertices()
        to_compact = {v: i for i, v in enumerate(alive)}
        edges = [(to_compact[u], to_compact[v]) for u, v in self.edge_list()]
        inst = PdsInstance(
            len(alive), edges,
            propagating=[self.propagating[v] for v in alive],
            pre_selected=[to_compact[v] for v in alive if self.status[v] == PRE],
            excluded=[to_compact[v] for v in alive if self.status[v] == EXC],
            labels={to_compact[v]: self.inst.labels[v]
                    for v in alive if v in self.inst.labels})
        return inst, tuple(alive)


# --- rule guards and applications -----------------------------------------
# Each returns a ReductionEvent when the guard holds at the site and the
# work state was mutated, else None.


def _deg1a(work, v):
    if work.status[v] != UND or work.degree(v) != 1:
        return None
    w = next(iter(work.adj[v]))
    if work.status[w] == EXC:
        return None
    work.set_status(v, EXC)
    return ReductionEvent(RuleId.DEG1A, (v,), excluded=(v,))


def _deg1b(work, v):
    if work.status[v] != EXC or work.degree(v) != 1:
        return None
    w = next(iter(work.adj[v]))
    if work.propagating[w]:
        work.delete(v)
        work.set_nonpropagating(w)
        return ReductionEvent(RuleId.DEG1B, (v, w), deleted=(v,))
    if work.status[w] != EXC:
        work.delete(v)
        work.set_status(w, PRE)
        return ReductionEvent(RuleId.DEG1B, (v, w), deleted=(v,),
                              selected=(w,))
    return None


def _tri(work, site):
    x, y = site
    if not (work.alive[x] and work.alive[y]):
        return None
    if work.degree(x) != 2 or work.degree(y) != 2 or y not in work.adj[x]:
        return None
    # Pre-selected endpoints must stay; deleting them would drop a forced
    # vertex from the instance.
    if work.status[x] == PRE or work.status[y] == PRE:
        return None
    zx = work.adj[x] - {y}
    zy = work.adj[y] - {x}
    if zx != zy or not zx:
        return None
    z = next(iter(zx))
    if work.status[z] != UND:
        return None
    work.set_status(z, PRE)
    work.delete(x)
    work.delete(y)
    return ReductionEvent(RuleId.TRI, (x, y), selected=(z,), deleted=(x, y))


def _deg2a(work, v):
    if work.status[v] != UND or not work.propagating[v] or work.degree(v) != 2:
        return None
    x, y = sorted(work.adj[v])
    if y in work.adj[x]:
        return None
    if work.status[x] == EXC and work.status[y] == EXC:
        return None
    work.set_status(v, EXC)
    return ReductionEvent(RuleId.DEG2A, (v,), excluded=(v,))


def _deg2b(work, v):
    if work.status[v] != EXC or not work.propagating[v] or work.degree(v) != 2:
        return None
    x, y = sorted(work.adj[v])
    if y in work.adj[x]:
        return None
    if not ((work.propagating[x] and work.degree(x) == 2)
            or (work.propagating[y] and work.degree(y) == 2)):
        return None
    work.delete(v)
    work.add_edge(x, y)
    return ReductionEvent(RuleId.DEG2B, (v,), deleted=(v,))


def _deg2c(work, v):
    if work.status[v] != EXC or not work.propagating[v]:
        return None
    observed = work.obs.observed
    if not observed[v]:
        return None
    unobserved = sorted(w for w in work.adj[v] if not observed[w])
    if len(unobserved) != 2:
        return None
    x, y = unobserved
    if work.degree(x) != 2 or work.degree(y) != 2:
        return None
    # Both must propagate for the pair to behave like one degree-two vertex.
    if not (work.propagating[x] and work.propagating[y]):
        return None
    if y in work.adj[x]:
        return None
    zx = next(iter(work.adj[x] - {v}))
    zy = next(iter(work.adj[y] - {v}))
    if zx == zy:
        return None
    # Keep the vertex that is still selectable; removing the only undecided
    # endpoint could make the instance infeasible.
    keep, rem = (x, y)
    if work.status[x] == EXC and work.status[y] == UND:
        keep, rem = (y, x)
    z_rem = zy if rem == y else zx
    work.remove_edge(keep, v)
    work.delete(rem)
    work.add_edge(keep, z_rem)
    return ReductionEvent(RuleId.DEG2C, (v, keep, rem), deleted=(rem,))


def _onlyn(work, v):
    if work.status[v] != EXC or not work.propagating[v] or work.degree(v) != 2:
        return None
    x, y = sorted(work.adj[v])
    if work.propagating[x] or work.propagating[y]:
        return None
    statuses = {work.status[x], work.status[y]}
    if statuses != {EXC, UND}:
        return None
    target = x if work.status[x] == UND else y
    work.set_status(target, PRE)
    return ReductionEvent(RuleId.ONLYN, (v,), selected=(target,))


def _isol(work, v):
    if work.status[v] != UND or work.degree(v) != 0:
        return None
    work.set_status(v, PRE)
    return ReductionEvent(RuleId.ISOL, (v,), selected=(v,))


def _obsnp(work, v):
    if work.status[v] != EXC or work.propagating[v]:
        return None
    if not work.obs.observed[v]:
        return None
    work.delete(v)
    return ReductionEvent(RuleId.OBSNP, (v,), deleted=(v,))


def _obse(work, site):
    """Rewire an edge between observed vertices that are not pre-selected
    to the smallest pre-selected id."""
    v, w = site
    if not (work.alive[v] and work.alive[w]) or w not in work.adj[v]:
        return None
    if work.status[v] == PRE or work.status[w] == PRE:
        return None
    # Only the pre-selected set observes, so observed endpoints imply that
    # a pre-selected vertex exists.
    observed = work.obs.observed
    if not (observed[v] and observed[w]):
        return None
    x = min(work.obs.selected)
    work.remove_edge(v, w)
    work.add_edge(v, x)
    work.add_edge(w, x)
    return ReductionEvent(RuleId.OBSE, (v, w))


_LOCAL_APPLY = {
    RuleId.DEG1A: _deg1a,
    RuleId.DEG1B: _deg1b,
    RuleId.TRI: _tri,
    RuleId.DEG2A: _deg2a,
    RuleId.DEG2B: _deg2b,
    RuleId.DEG2C: _deg2c,
    RuleId.ONLYN: _onlyn,
    RuleId.ISOL: _isol,
    RuleId.OBSNP: _obsnp,
    RuleId.OBSE: _obse,
}

_EDGE_SITE_RULES = {RuleId.OBSE, RuleId.TRI, RuleId.DOM}
# Whether a local rule's guard can hold at a vertex of status s, degree d
# (3 standing for 3 or more) and propagating flag p: at the site's vertex,
# or at both ends of an edge site. Observed flags are left out, because
# they may flip and flip back before the rule is next scanned.
_ACCEPTS = {
    RuleId.DEG1A: lambda s, d, p: s == UND and d == 1,
    RuleId.DEG1B: lambda s, d, p: s == EXC and d == 1,
    RuleId.TRI: lambda s, d, p: s != PRE and d == 2,
    RuleId.DEG2A: lambda s, d, p: s == UND and d == 2 and p,
    RuleId.DEG2B: lambda s, d, p: s == EXC and d == 2 and p,
    RuleId.DEG2C: lambda s, d, p: s == EXC and d >= 2 and p,
    RuleId.ONLYN: lambda s, d, p: s == EXC and d == 2 and p,
    RuleId.ISOL: lambda s, d, p: s == UND and d == 0,
    RuleId.OBSNP: lambda s, d, p: s == EXC and not p,
    RuleId.OBSE: lambda s, d, p: s != PRE,
}
# The local rules whose guards read each input an event can change. Every
# rule but ObsE reads the site's own class and the structure around it:
# its vertex's edges and its neighbours' degrees, propagating flags and
# other neighbours. ObsE reads its edge, the ends' statuses, which can
# only stop it from holding, and the ends' observed flags. Five rules
# read a neighbour's status (Tri at the common neighbour of its edge);
# Deg2b, Deg2c, Isol and ObsNP do not. Three read the observed flag of
# the site's vertex or of its edge's ends, and only Deg2c reads its
# neighbours' flags too.
_READS_OWN = frozenset(LOCAL_RULES) - {RuleId.OBSE}
_READS_NEIGHBOUR_STATUS = frozenset({RuleId.DEG1A, RuleId.DEG1B, RuleId.TRI,
                                     RuleId.DEG2A, RuleId.ONLYN})
_READS_OBSERVED = frozenset({RuleId.DEG2C, RuleId.OBSNP, RuleId.OBSE})
_READS_NEIGHBOUR_OBSERVED = frozenset({RuleId.DEG2C})


@functools.lru_cache(maxsize=None)
def _class_table(enabled, readers):
    """For each vertex class (status s, degree d capped at 3, propagating
    flag p), at index 8 s + 2 d + p, the positions in `enabled` of the
    vertex-site rules in `readers` that accept it, and of the edge-site
    rules in `readers` that accept it as one end of an edge. It depends
    only on its arguments, so it is built once per pair of rule sets."""
    table = []
    for s in (UND, PRE, EXC):
        for d in range(4):
            for p in (False, True):
                accepting = [(i, rule) for i, rule in enumerate(enabled)
                             if rule in readers and _ACCEPTS[rule](s, d, p)]
                table.append((
                    tuple(i for i, rule in accepting
                          if rule not in _EDGE_SITE_RULES),
                    tuple(i for i, rule in accepting
                          if rule in _EDGE_SITE_RULES)))
    return tuple(table)


def _sites(work, rule):
    if rule is RuleId.DOM:
        und = work.undecided()
        return [(v, w) for v in und for w in und if v != w]
    if rule in _EDGE_SITE_RULES:
        return work.edge_list()
    return work.vertices()


# Dom tries its candidates on the work state's own observation state,
# under a checkpoint. NecN's state, which selects every undecided vertex,
# stays valid while only statuses change, which is all NecN does; it must
# not outlive any other mutation.


def _dom(work, state, v, w):
    """Exclude undecided w when the state, which selects v on top of the
    pre-selected set, observes N[w]."""
    if work.status[w] != UND or not state.observed[w] or state.unobs_count[w]:
        return None
    work.set_status(w, EXC)
    return ReductionEvent(RuleId.DOM, (v, w), excluded=(w,))


def _necn(work, state, v):
    """Pre-select v when the state, which selects the pre-selected set and
    every undecided vertex but v, leaves an alive vertex unobserved."""
    # `state.is_complete()` would count deleted vertices too.
    if state.observed_count == work.alive_count:
        return None
    work.set_status(v, PRE)
    return ReductionEvent(RuleId.NECN, (v,), selected=(v,))


def _dom_single(work, site):
    v, w = site
    if not (work.alive[v] and work.alive[w]) or v == w:
        return None
    if work.status[v] != UND:
        return None
    return _dom(work, observe_from(work, work.obs.selected | {v}), v, w)


def _necn_single(work, v):
    if not work.alive[v] or work.status[v] != UND:
        return None
    others = [u for u in work.undecided() if u != v]
    return _necn(work, observe_from(work, work.obs.selected.union(others)), v)


@dataclass
class RuleApplication:
    changed: bool
    instance: PdsInstance
    event: ReductionEvent | None
    to_original: tuple


def apply_rule_once(inst, rule, site):
    """Apply one rule at one site if its guard holds.

    `site` is a vertex id for vertex rules, an edge pair for Tri/ObsE and
    an ordered vertex pair for Dom. A fire is recorded as `reduce_full`
    records one, so it must lower the reduction measure. Returns a
    RuleApplication whose instance is compacted to dense ids with
    `to_original` mapping kernel ids back.
    """
    driver = _Driver(inst, ())
    fn = {RuleId.DOM: _dom_single, RuleId.NECN: _necn_single}.get(rule)
    fn = fn or _LOCAL_APPLY[rule]
    event = fn(driver.work, tuple(site) if rule in _EDGE_SITE_RULES else site)
    if event is None:
        return RuleApplication(False, inst, None, tuple(range(inst.n)))
    driver._record(event)
    kernel, to_original = driver.work.snapshot()
    return RuleApplication(True, kernel, event, to_original)


def applicable_sites(inst, rule):
    """All sites where the rule's guard currently holds (no mutation)."""
    out = []
    for site in _sites(_Work(inst), rule):
        if apply_rule_once(inst, rule, site).changed:
            out.append(site)
    return out


class _Pending:
    """Sites a local rule has still to test, smallest first, with what the
    worklist reads of the rule, looked up once rather than per site."""

    def __init__(self, rule):
        self.heap = []
        self.members = set()
        self.apply = _LOCAL_APPLY[rule]
        self.edge_sites = rule in _EDGE_SITE_RULES

    def __bool__(self):
        return bool(self.heap)

    def add(self, site):
        if site not in self.members:
            self.members.add(site)
            heapq.heappush(self.heap, site)

    def pop(self):
        site = heapq.heappop(self.heap)
        self.members.remove(site)
        return site


class _Driver:
    def __init__(self, inst, rules, deadline=None):
        self.work = _Work(inst)
        self.rules = frozenset(rules)
        self.deadline = deadline
        self.events = []
        # The work state's measure after the last recorded event, which
        # `_record` checks that every event lowers.
        self.measure = self.work.measure()
        # Pending sites per enabled local rule, in `LOCAL_RULES` order, and
        # one class table per input an event can change, through which
        # `_record` puts sites back (see the module docstring).
        # `tested_observed` holds the observed flags the sets were last
        # put back under. The first put-back covers every vertex on every
        # rule.
        enabled = tuple(r for r in LOCAL_RULES if r in self.rules)
        self.pending = [_Pending(r) for r in enabled]
        self.obse = (self.pending[enabled.index(RuleId.OBSE)]
                     if RuleId.OBSE in enabled else None)
        self.own_table = _class_table(enabled, _READS_OWN)
        self.neighbour_status_table = _class_table(enabled,
                                                   _READS_NEIGHBOUR_STATUS)
        self.observed_table = _class_table(enabled, _READS_OBSERVED)
        self.neighbour_observed_table = _class_table(
            enabled, _READS_NEIGHBOUR_OBSERVED)
        self.tested_observed = list(self.work.obs.observed)
        self._requeue(self.work.vertices(),
                      _class_table(enabled, frozenset(LOCAL_RULES)))

    def _expired(self):
        return (self.deadline is not None
                and time.perf_counter() > self.deadline)

    def _record(self, event):
        work = self.work
        measure = work.measure()
        if measure >= self.measure:
            raise AssertionError(
                f"{event.rule.value} did not decrease the reduction measure")
        self.measure = measure
        self.events.append(event)
        if self.pending:
            adj, status = work.adj, work.status
            # Own class and the structure around it: a vertex whose status
            # or flag changed, the neighbours of a cleared flag, and around
            # each edited edge its ends, their common neighbours and the
            # neighbours of an end left with degree at most two, since
            # degree-two guards read a neighbour's degree and its other
            # neighbour. A deleted vertex's former neighbours are the
            # other ends of the edges its deletion removed.
            touched = work.status_changed | work.propagating_changed
            for v in work.propagating_changed:
                touched |= adj[v]
            for u, v in work.edges_changed:
                touched.add(u)
                touched.add(v)
                touched |= adj[u] & adj[v]
                for end in (u, v):
                    if len(adj[end]) <= 2:
                        touched |= adj[end]
                if (self.obse is not None and v in adj[u]
                        and status[u] != PRE and status[v] != PRE):
                    self.obse.add((u, v))
            self._requeue(touched, self.own_table)
            self._requeue({w for v in work.status_changed for w in adj[v]},
                          self.neighbour_status_table)
            # A Dom fire, recorded under the pass's trial selection, only
            # excludes, which leaves `obs` and so `obs_changed` alone.
            observed, tested = work.obs.observed, self.tested_observed
            flipped = [v for v in work.obs_changed if observed[v] != tested[v]]
            for v in flipped:
                tested[v] = observed[v]
            self._requeue(flipped, self.observed_table)
            self._requeue({w for v in flipped for w in adj[v]},
                          self.neighbour_observed_table)
        work.obs_changed.clear()
        work.status_changed.clear()
        work.edges_changed.clear()
        work.propagating_changed.clear()

    def _requeue(self, vertices, table):
        """Put back the vertex sites in `vertices` and the edge sites at
        them on the queues that `table` (a `_class_table`) gives for the
        class of the site's vertex, or of both ends of its edge. Deleted
        vertices are skipped."""
        work = self.work
        status, adj, alive = work.status, work.adj, work.alive
        propagating = work.propagating
        queues = self.pending
        for v in vertices:
            if not alive[v]:
                continue
            d = len(adj[v])
            vertex_queues, edge_queues = table[
                8 * status[v] + 2 * (d if d < 3 else 3) + propagating[v]]
            for i in vertex_queues:
                queues[i].add(v)
            if edge_queues:
                for w in adj[v]:
                    d = len(adj[w])
                    at_w = table[8 * status[w] + 2 * (d if d < 3 else 3)
                                 + propagating[w]][1]
                    edge = (v, w) if v < w else (w, v)
                    for i in edge_queues:
                        if i in at_w:
                            queues[i].add(edge)

    def _fire_next(self):
        """Fire the first local rule, in `LOCAL_RULES` order, whose guard
        holds at a pending site, at its smallest such site. Sites that fail
        are dropped; returns False when no pending site holds."""
        work = self.work
        for pending in self.pending:
            fn = pending.apply
            edge_sites = pending.edge_sites
            while pending:
                site = pending.pop()
                if edge_sites:
                    live = site[1] in work.adj[site[0]]
                else:
                    live = work.alive[site]
                event = live and fn(work, site)
                if event:
                    self._record(event)
                    return True
        return False

    def local_round(self):
        """Exhaust the local rules; returns True if anything fired."""
        fired_any = False
        while not self._expired() and self._fire_next():
            fired_any = True
        return fired_any

    def dom_pass(self):
        """One exhaustive pass of the domination rule.

        It fires what trying every undecided w, in id order, under every
        undecided v would, but tests only the w that can hold. Selecting v
        can exclude w only if the pre-selected set already observes N[w],
        or if N[w] holds a vertex that selecting v newly observed.
        """
        work = self.work
        state, status, adj = work.obs, work.status, work.adj
        observed, unobs_count = state.observed, state.unobs_count
        fired = False
        undecided = work.undecided()
        # Each of these fires under the first v other than itself.
        covered = [w for w in undecided if observed[w] and not unobs_count[w]]
        for v in undecided:
            if self._expired():
                break
            if status[v] != UND:
                continue
            mark = state.checkpoint()
            state.select(v)
            candidates = set(covered)
            for u in state.marked_since(mark):
                candidates.add(u)
                candidates |= adj[u]
            for w in sorted(candidates):
                event = w != v and _dom(work, state, v, w)
                if event:
                    self._record(event)
                    fired = True
            state.rollback(mark)
            covered = [w for w in covered if status[w] == UND]
        return fired

    def necn_pass(self):
        """One exhaustive pass of the necessary-node rule."""
        work = self.work
        undecided = work.undecided()
        state = observe_from(work, work.obs.selected.union(undecided))
        fired = False
        for v in undecided:
            if self._expired():
                break
            state.deselect(v)
            event = _necn(work, state, v)
            state.select(v)
            if event:
                self._record(event)
                fired = True
        return fired

    def run(self):
        """Reduce to a fixpoint, or until the deadline passes.

        A Dom or NecN pass is skipped when no event but its own has been
        recorded since it last ran, because it would fire nothing. Dom
        only excludes, which leaves the pre-selected set and the graph,
        and so the observation under each trial selection, as they were:
        each pair still undecided was tried under the same observation.
        NecN only moves vertices from undecided to pre-selected, which
        leaves the set it selects, pre-selected plus undecided, as it was:
        each vertex still undecided was tried against the same set.
        """
        # The number of recorded events when each pass last ended.
        dom_ran = necn_ran = None
        while not self._expired():
            changed = self.local_round()
            if (RuleId.DOM in self.rules and dom_ran != len(self.events)
                    and not self._expired()):
                changed |= self.dom_pass()
                dom_ran = len(self.events)
            if (RuleId.NECN in self.rules and necn_ran != len(self.events)
                    and not self._expired()):
                changed |= self.necn_pass()
                necn_ran = len(self.events)
            if not changed:
                break


def reduce_full(inst, rules=None, deadline=None):
    """Full preprocessing: local rounds, Dom and NecN to a fixpoint.

    The events are those of rescanning every local rule and site after
    each fire and running every Dom and NecN pass in every round; the
    module docstring says how the worklist and the skipped passes keep
    them so.

    `rules` may be a RuleId iterable or one of the named subsets
    ('all', 'local', 'nonlocal', 'local+dom', 'local+necn', 'none');
    anything else raises ValueError.
    `deadline` is a `time.perf_counter()` value. It is checked between
    the passes, before every fire of a local rule and before each vertex
    a Dom or NecN pass tries, so a deadline that has already passed
    leaves the input as it is. Once it passes, the kernel reached so far
    is returned. That kernel is still safe, because every applied event
    is. Returns (kernel, log, stats). With no rule enabled no work state
    is built, and the kernel is `inst` itself, with identity ids.
    """
    if rules is None:
        rules = RULE_SUBSETS["all"]
    elif isinstance(rules, str):
        if rules not in RULE_SUBSETS:
            raise ValueError(f"unknown reduction subset {rules!r}")
        rules = RULE_SUBSETS[rules]
    else:
        rules = tuple(rules)
        for rule in rules:
            if not isinstance(rule, RuleId):
                raise ValueError(f"{rule!r} is not a reduction rule")
    events, kernel, to_original = [], inst, tuple(range(inst.n))
    if rules:
        driver = _Driver(inst, rules, deadline)
        driver.run()
        events = driver.events
        kernel, to_original = driver.work.snapshot()
    log = ReductionLog(inst, events, to_original)
    stats = {
        "rule_counts": log.rule_counts(),
        "events": len(log.events),
        "original_n": inst.n,
        "original_m": inst.m,
        "kernel_n": kernel.n,
        "kernel_m": kernel.m,
        "kernel_pre_selected": len(kernel.pre_selected),
        "kernel_excluded": len(kernel.excluded),
        "kernel_undecided": len(kernel.undecided()),
    }
    return kernel, log, stats


def lift_solution(log, kernel_solution):
    """Map a feasible kernel solution back to the original instance.

    Rule-selected vertices are part of the kernel's pre-selected set, so
    a feasible kernel solution already contains them; lifting is the id
    translation plus a feasibility re-check.
    """
    mapped = frozenset(log.kernel_to_original[v]
                       for v in kernel_solution.selected)
    lifted = SolutionSet(mapped | log.original.pre_selected)
    lifted.validate(log.original)
    if not observe_from(log.original, lifted.selected).is_complete():
        raise ValueError("kernel solution does not lift to a feasible solution")
    return lifted
