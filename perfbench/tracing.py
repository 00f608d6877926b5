"""Spans recorded from outside the program.

The traced run replaces public names as they are bound in the modules
that call them (`powerdom.solver`, `.forts`, `.reductions`,
`.decompose`) with wrappers that open a span around the call, and puts
the originals back afterwards. Spans (name, start, end, parent) stay in
memory and are written out when the run ends. Spans inside the program
are a later change.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

import powerdom.decompose
import powerdom.forts
import powerdom.reductions
import powerdom.solver


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, module, attr, name, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self):
        solver = powerdom.solver
        self.wrap(solver, "reduce_full", "reductions.reduce_full",
                  _after_reduce)
        self.wrap(solver, "split", "decompose.split", _after_split)
        self.wrap(solver, "merge_solutions", "decompose.merge")
        self.wrap(solver, "lift_solution", "solver.lift")
        self.wrap(solver, "ihs_kernel_solve", "solver.ihs")
        self.wrap(solver, "greedy_complete", "solver.greedy")
        self.wrap(solver, "find_forts", "forts.find", _after_find_forts)
        self.wrap(solver, "solve_exact", "hittingset.solve_exact",
                  _after_solve_exact)
        for module in (solver, powerdom.forts, powerdom.reductions,
                       powerdom.decompose):
            self.wrap(module, "observe_from", "propagation.observe_from")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset_counts(self):
        self.counts.clear()
        self.maxima.clear()

    def layer_times(self, first=0):
        """Total seconds, self seconds and calls per span name, over the
        spans from index `first` on."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, start, end, parent in self.spans[first:]:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _parent = self.spans[i]
            own[name] += end - start - child[i]
        return total, own, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _after_reduce(tracer, args, result):
    _kernel, _log, stats = result
    tracer.count("reductions.events", stats["events"])
    tracer.count("reductions.kernel_n", stats["kernel_n"])
    tracer.count("reductions.kernel_undecided", stats["kernel_undecided"])


def _after_split(tracer, args, decomp):
    tracer.count("decompose.parts", len(decomp.parts))
    for part in decomp.parts:
        tracer.maximum("decompose.max_part_n", part.instance.n)


def _after_find_forts(tracer, args, forts):
    tracer.count("forts.returned", len(forts))


def _after_solve_exact(tracer, args, result):
    hs = args[0]
    tracer.maximum("hittingset.sets_max", len(hs))
    tracer.maximum("hittingset.universe_max", len(hs.universe))


def subsets_enumerated(inst, k_max):
    """Candidate sets a refuting `oracle_pds(inst, k_max)` call tries."""
    undecided = len(inst.undecided())
    cap = min(undecided, k_max - len(inst.pre_selected))
    return sum(comb(undecided, t) for t in range(cap + 1))
