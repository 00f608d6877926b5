"""Brute-force oracles: ground truth for every other part of the toolkit.

Everything here is deliberately naive subset enumeration on top of a
self-contained observation closure. No code is shared with the
incremental engine or the solver, so these results are an independent
check of both.

The closure works on Python int bitsets. It keeps each vertex's
neighbour mask, closed neighbourhood and arc heads; a booster edge is an
arc each way and an implication arc is one arc, so plain instances are
the special case with no arcs. Closing a set runs a worklist: each newly
observed vertex fires its arcs and re-tests propagation at the
propagating vertices of its closed neighbourhood, the only ones whose
rule it can enable. A vertex propagates when it is observed and its
neighbour mask meets the unobserved mask in exactly one bit. Every rule
is monotone and the closure is idempotent, so
closure(closure(S) | N[v]) = closure(S | {v}): `oracle_pds` walks the
subsets depth first and extends each prefix's closed set by one vertex.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GuardExceededError, InfeasibleInstanceError
from .instance import SolutionSet


def _members(mask):
    """Vertex ids of the set bits of `mask`, ascending."""
    return [v for v, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


class _Closure:
    """Observation closure of one instance, over int bitsets."""

    def __init__(self, inst):
        self.full = (1 << inst.n) - 1
        self.closed = [(v, *ws) for v, ws in enumerate(inst.adj)]
        self.nbr = [sum(1 << w for w in ws) for ws in inst.adj]
        # The vertices whose propagation a newly observed w can enable.
        self.watch = [tuple(u for u in hood if inst.propagating[u])
                      for hood in self.closed]
        self.heads = [[] for _ in range(inst.n)]
        for u, v in getattr(inst, "booster_edges", ()):
            self.heads[u].append(v)
            self.heads[v].append(u)
        for u, v in getattr(inst, "implication_arcs", ()):
            self.heads[u].append(v)

    def extend(self, obs, selected):
        """Close the closed bitset `obs` after adding the closed
        neighbourhoods of `selected`. Works on the unobserved mask, so a
        propagation test is one AND."""
        nbr, watch, heads = self.nbr, self.watch, self.heads
        unobs = self.full ^ obs
        work = []
        for s in selected:
            for w in self.closed[s]:
                if unobs >> w & 1:
                    unobs ^= 1 << w
                    work.append(w)
        while work:
            w = work.pop()
            for h in heads[w]:
                if unobs >> h & 1:
                    unobs ^= 1 << h
                    work.append(h)
            for u in watch[w]:
                if not unobs >> u & 1:
                    rest = nbr[u] & unobs
                    if rest and not rest & (rest - 1):
                        unobs ^= rest
                        work.append(rest.bit_length() - 1)
        return self.full ^ unobs

    def observed(self, selected):
        return self.extend(0, selected)


def observed_set(inst, selected):
    """Fixpoint of the domination, propagation, booster and implication
    rules, as a frozenset. Instances without booster edges or implication
    arcs are the plain special case."""
    return frozenset(_members(_Closure(inst).observed(selected)))


def is_power_dominating(inst, selected):
    rules = _Closure(inst)
    return rules.observed(selected) == rules.full


def _first_cover(rules, undecided, start, t, obs):
    """Lexicographically first t vertices of undecided[start:] whose
    closed neighbourhoods close the closed set `obs` to every vertex, or
    None."""
    if t == 0:
        return () if obs == rules.full else None
    for i in range(start, len(undecided) - t + 1):
        v = undecided[i]
        rest = _first_cover(rules, undecided, i + 1, t - 1,
                            rules.extend(obs, (v,)))
        if rest is not None:
            return (v, *rest)
    return None


def oracle_pds(inst, k_max=None, max_undecided=25):
    """Exact optimum by enumerating the union of X with undecided subsets T.

    Subsets are tried in increasing cardinality, lexicographically within
    each cardinality, so the witness is deterministic. Raises
    InfeasibleInstanceError when no solution exists (within k_max, if
    given). `max_undecided` guards against exponential blowup; pass None
    together with a k_max to bound the enumeration by size instead.
    Booster edges and implication arcs are honoured when the instance has
    them.
    """
    undecided = inst.undecided()
    if max_undecided is not None and len(undecided) > max_undecided:
        raise GuardExceededError(
            f"{len(undecided)} undecided vertices exceed guard {max_undecided}")
    if max_undecided is None and k_max is None:
        raise GuardExceededError("need k_max when the size guard is disabled")
    base = frozenset(inst.pre_selected)
    t_cap = len(undecided)
    if k_max is not None:
        if len(base) > k_max:
            raise InfeasibleInstanceError(
                f"pre-selected set alone exceeds k_max={k_max}")
        t_cap = min(t_cap, k_max - len(base))

    rules = _Closure(inst)
    base_obs = rules.observed(base)
    for t in range(t_cap + 1):
        extra = _first_cover(rules, undecided, 0, t, base_obs)
        if extra is not None:
            return len(base) + t, SolutionSet(base | frozenset(extra))
    raise InfeasibleInstanceError(
        "no feasible solution" + (f" of size <= {k_max}" if k_max is not None else ""))


def is_fort(inst, vertices):
    """Whether a vertex set is a fort: non-empty, and no propagating vertex
    outside it has exactly one neighbour in it."""
    fort = frozenset(vertices)
    if not fort:
        return False
    for v in range(inst.n):
        if v in fort or not inst.propagating[v]:
            continue
        if sum(w in fort for w in inst.adj[v]) == 1:
            return False
    return True


def enumerate_minimal_forts(inst, n_max=12):
    """All inclusion-minimal forts, by exhaustive subset enumeration."""
    if inst.n > n_max:
        raise GuardExceededError(f"n={inst.n} exceeds guard {n_max}")
    vertices = list(range(inst.n))
    forts = []
    for size in range(1, inst.n + 1):
        for combo in combinations(vertices, size):
            cand = frozenset(combo)
            if any(f < cand for f in forts):
                continue
            if is_fort(inst, cand):
                forts.append(cand)
    return forts
