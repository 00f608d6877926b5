"""Brute-force oracles: ground truth for every other part of the toolkit.

Everything here is deliberately naive subset enumeration on top of a
self-contained observation closure. No code is shared with the
incremental engine or the solver, so these results are an independent
check of both.

The closure works on edge arrays. Each round counts every vertex's
unobserved neighbours with one `np.bincount` over the directed edges,
lets each observed propagating vertex with exactly one of them observe
it, and lets the observed tail of every arc observe its head; a booster
edge is an arc each way and an implication arc is one arc. Every rule is
monotone, so applying them all in one batched round is sound, and plain
instances are the special case with no arcs. The closure is also
idempotent, so candidate selections are seeded with the union of
precomputed single-vertex closures.

numpy is imported inside the functions that use it, so importing
`powerdom` or running its solver does not load it.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GuardExceededError, InfeasibleInstanceError
from .instance import SolutionSet


def _pairs(pairs):
    """(tails, heads) arrays of a list of vertex pairs."""
    import numpy as np
    array = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return array[:, 0], array[:, 1]


class _Closure:
    """Observation closure of one instance, over directed edge arrays."""

    def __init__(self, inst):
        import numpy as np
        self.n = inst.n
        edges = sorted(inst.edges)
        self.src, self.dst = _pairs(edges + [(v, u) for u, v in edges])
        self.propagating = np.array(inst.propagating, dtype=bool)
        boosters = sorted(getattr(inst, "booster_edges", ()))
        self.tail, self.head = _pairs(
            boosters + [(v, u) for u, v in boosters]
            + list(getattr(inst, "implication_arcs", ())))

    def seed(self, selected):
        """Selected vertices and their neighbours."""
        import numpy as np
        chosen = np.zeros(self.n, dtype=bool)
        chosen[list(selected)] = True
        obs = chosen.copy()
        obs[self.dst[chosen[self.src]]] = True
        return obs

    def fixpoint(self, obs):
        """Close `obs` under propagation and the arcs; `obs` is not changed."""
        import numpy as np
        while True:
            unobs = ~obs
            pending = unobs[self.dst]
            counts = np.bincount(self.src[pending], minlength=self.n)
            sources = obs & self.propagating & (counts == 1)
            targets = np.concatenate([
                self.dst[pending & sources[self.src]],
                self.head[obs[self.tail] & unobs[self.head]]])
            if not targets.size:
                return obs
            obs = obs.copy()
            obs[targets] = True

    def observed(self, selected):
        return self.fixpoint(self.seed(selected))


def observed_set(inst, selected):
    """Fixpoint of the domination, propagation, booster and implication
    rules, as a frozenset. Instances without booster edges or implication
    arcs are the plain special case."""
    import numpy as np
    obs = _Closure(inst).observed(selected)
    return frozenset(np.flatnonzero(obs).tolist())


def is_power_dominating(inst, selected):
    return bool(_Closure(inst).observed(selected).all())


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
    closure = {v: rules.observed([v]) for v in undecided}
    base_obs = rules.observed(base)
    for t in range(t_cap + 1):
        for extra in combinations(undecided, t):
            obs = base_obs
            for v in extra:
                obs = obs | closure[v]
            if rules.fixpoint(obs).all():
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
