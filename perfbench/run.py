"""Benchmark of the powerdom exact solver, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload reduce-chain --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own single-threaded process (`all` starts one
per workload, one after another). A run repeats whole rounds of the
workload's operations until `--seconds` have passed, checks every result
against independent verifiers after the timed section, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a separate traced pass with `--trace 1`. See README.md.
"""

import os

# One thread per process: numpy must see these before it is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORKLOADS = ("reduce-chain", "grid-ihs")
SETUP_SAMPLES = 9

# The pace probe: a fixed pure-Python loop timed between the program's
# calls, so that each call's time can be read relative to how fast the
# machine ran right then (see `pace_probe`). REFERENCE_PROBE_S is the
# probe's time in quiet moments on the 2-core machine the benchmark was
# written on; reported times are in seconds at that speed.
PROBE_ITERATIONS = 200_000
REFERENCE_PROBE_S = 0.0190
_PROBE_TABLE = {i: i * 7 % 31 for i in range(256)}
_PROBE_MEMBERS = frozenset(range(0, 512, 3))


class SetupError(Exception):
    pass


def load_program():
    """Import powerdom from ./src of the checkout and nowhere else."""
    if not (SRC / "powerdom" / "__init__.py").is_file():
        raise SetupError(f"no powerdom package under {SRC}; "
                         "run from the repository root")
    sys.path.insert(0, str(SRC))
    import powerdom
    if Path(powerdom.__file__).resolve().parent != (SRC / "powerdom").resolve():
        raise SetupError(f"imported powerdom from {powerdom.__file__}")
    return powerdom


def pace_probe():
    """Seconds this process takes for a fixed pure-Python loop.

    The machine is shared: while other tenants load it, the same work
    runs about 1.5 times slower, in stretches of a second to over a
    minute, and a process cannot tell from its own CPU time. The probe
    does the same dict lookups, set tests and integer arithmetic every
    time and allocates no containers, so the program's garbage collector
    does not touch it.
    """
    table, members = _PROBE_TABLE, _PROBE_MEMBERS
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += table[i & 255]
        if (i & 511) in members:
            acc ^= i
    return time.perf_counter() - t0


class Pace:
    """The probe time around each timed call: one probe between two
    calls, so a call's pace is the mean of the probes on either side."""

    def __init__(self):
        self.last = pace_probe()

    def around(self, fn):
        """(fn's result, its wall seconds, the pace around it)."""
        before = self.last
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            self.last = pace_probe()
        return result, seconds, (before + self.last) / 2


def at_reference(seconds, pace):
    """Wall seconds at the reference speed of the pace probe."""
    return seconds / pace * REFERENCE_PROBE_S


def setup(workload, seed):
    """Import the program and generate the workload's inputs; the
    set-up time at the reference speed."""
    pace = Pace()

    def load():
        load_program()
        import inputs
        return inputs.WORKLOADS[workload](seed)

    cases, seconds, pace_s = pace.around(load)
    return cases, at_reference(seconds, pace_s)


def setup_probe(workload, seed):
    """Set-up time of a fresh process, at the reference speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Op:
    kind: str  # "solve" | "oracle" | "chain"
    case: object
    seconds: float  # wall time
    pace: float  # the pace probe's time around the call
    outcome: object = None
    error: str = ""
    extra: dict = field(default_factory=dict)


class NoTracer:
    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass


def _timed(tracer, pace, kind, case, span, fn, extra=None):
    """One timed call as an Op; an exception is a failed operation."""
    def call():
        with tracer.span(span):
            try:
                return fn(), ""
            except Exception as exc:  # counted, not fatal
                return None, f"{type(exc).__name__}: {exc}"

    (outcome, error), seconds, pace_s = pace.around(call)
    return Op(kind, case, seconds, pace_s, outcome, error, extra or {})


def grid_ops(case, tracer, pace):
    import powerdom
    from inputs import TIME_LIMIT_S
    return [_timed(tracer, pace, "solve", case, "solve",
                   lambda: powerdom.solve(
                       case.inst, reductions=case.reductions,
                       seed=case.solver_seed, time_limit=TIME_LIMIT_S),
                   {"inst": case.inst})]


def chain_ops(case, tracer, pace):
    import powerdom
    from inputs import TIME_LIMIT_S
    from tracing import subsets_enumerated
    ops = [_timed(tracer, pace, "chain", case, "hardness.full_chain",
                  lambda: powerdom.full_chain_detailed(case.circuit))]
    chain = ops[0].outcome
    if chain is None:
        return ops
    tracer.count("hardness.chain_n", chain.instance.n)
    inst = chain.instance
    target = len(case.assignment) + chain.shift
    extra = {"inst": inst, "target": target}
    ops[0].extra = extra

    def refute():
        try:
            powerdom.oracle_pds(inst, k_max=target - 1, max_undecided=None)
        except powerdom.InfeasibleInstanceError:
            return True
        return False

    if case.refute:
        tracer.count("bruteforce.subsets", subsets_enumerated(inst, target - 1))
        ops.append(_timed(tracer, pace, "oracle", case, "bruteforce.oracle",
                          refute, extra))
    ops.append(_timed(tracer, pace, "solve", case, "solve",
                      lambda: powerdom.solve(inst, seed=case.solver_seed,
                                             time_limit=TIME_LIMIT_S),
                      extra))
    return ops


def run_round(cases, tracer, pace):
    """The timed calls of one pass over the workload's cases, in order."""
    from inputs import ChainCase
    ops = []
    for case in cases:
        ops += (chain_ops if isinstance(case, ChainCase) else grid_ops)(
            case, tracer, pace)
    return ops


def failed(op):
    return bool(op.error) or (op.kind == "solve" and op.outcome.status == "TimedOut")


def timings(rounds):
    """(solve_s, solve_largest_s, round_s) of a run, at the reference
    speed of the pace probe.

    The calls are deterministic, so every repeat does the same work; what
    differs is how fast the shared machine runs at that moment. Each
    repeat's wall time is divided by the pace around it, each timed call
    is reduced to the median of that ratio over its repeats, and the sum
    is scaled to seconds at REFERENCE_PROBE_S. See README.md.
    """
    ratios = defaultdict(list)
    for ops in rounds:
        for op in ops:
            ratios[op.case.label, op.kind].append(op.seconds / op.pace)
    typical = {key: statistics.median(v) * REFERENCE_PROBE_S
               for key, v in ratios.items()}
    largest = rounds[0][-1].case.label  # inputs.py lists it last
    return (sum(v for (_, kind), v in typical.items() if kind == "solve"),
            typical[largest, "solve"], sum(typical.values()))


def gammas(ops):
    return [op.outcome.gamma_p for op in ops
            if op.kind == "solve" and not failed(op)]


def verify(rounds):
    """Independent checks of every result; returns a list of problems."""
    import powerdom
    from verify import check_solve, is_feasible, milp_optimum
    problems = []
    optimum = {}
    for ops in rounds:
        for op in ops:
            if failed(op):
                continue
            where = f"{op.case.label} {op.kind}"
            if op.kind == "chain":
                inst = op.extra["inst"]
                weight = powerdom.wmcs_min_weight(op.case.circuit)
                if weight != len(op.case.assignment):
                    problems.append(f"{where}: wmcs weight {weight} != "
                                    f"{len(op.case.assignment)}")
                witness = op.outcome.witness_from_assignment(op.case.assignment)
                if len(witness) != op.extra["target"]:
                    problems.append(f"{where}: witness size {len(witness)} != "
                                    f"target {op.extra['target']}")
                if not is_feasible(inst, witness):
                    problems.append(f"{where}: witness is not feasible")
            elif op.kind == "oracle":
                if not op.outcome:
                    problems.append(f"{where}: oracle found a solution "
                                    "below the target")
            else:
                if "target" in op.extra:
                    expected = op.extra["target"]
                else:
                    label = op.case.label
                    if label not in optimum:
                        optimum[label] = milp_optimum(
                            powerdom.build_pds_milp(op.extra["inst"]))
                    expected = optimum[label]
                problems += [f"{where}: {p}" for p in
                             check_solve(op.extra["inst"], op.outcome, expected)]
    return problems


def rounds_within(seconds, one_round):
    """Call `one_round` while another round, as long as the slowest so far,
    still ends within `seconds`; at least once."""
    results = []
    t0 = time.perf_counter()
    slowest = 0.0
    while not results or time.perf_counter() - t0 + slowest <= seconds:
        t1 = time.perf_counter()
        results.append(one_round())
        slowest = max(slowest, time.perf_counter() - t1)
    return results


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed, cases, seconds, setup_s):
    """Untraced whole rounds within `seconds`; the peak resident memory
    after the first round; the median set-up time of this process and
    fresh ones.

    Later rounds add the results the run keeps for the checks, and how
    many rounds fit depends on the machine's speed, so the memory is read
    after the first. The fresh set-ups run between rounds, spread over the
    run, so that their median does not rest on one moment's load.
    """
    peak = []
    setups = [setup_s]
    pace = Pace()
    t0 = time.perf_counter()

    def one_round():
        ops = run_round(cases, NoTracer(), pace)
        if not peak:
            peak.append(peak_rss_mb())
        if time.perf_counter() - t0 >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(setup_probe(workload, seed))
        return ops

    rounds = rounds_within(seconds, one_round)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(workload, seed))
    return rounds, peak[0], statistics.median(setups)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, cases, setup_s):
    rounds, peak_mb, setup_s = measure(workload, seed, cases, seconds,
                                       setup_s)
    solve_s, solve_largest_s, _ = timings(rounds)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "solve_s": metric(solve_s, "s"),
        "solve_largest_s": metric(solve_largest_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return rounds, metrics, []


PER_LAYER_CALLS = ("reductions.reduce_full", "hittingset.solve_exact",
                   "forts.find", "solver.greedy", "propagation.observe_from",
                   "bruteforce.oracle")
COUNTS = ("reductions.events", "reductions.kernel_n",
          "reductions.kernel_undecided", "forts.returned", "decompose.parts",
          "bruteforce.subsets", "hardness.chain_n")
MAXIMA = ("hittingset.sets_max", "hittingset.universe_max",
          "decompose.max_part_n")


def layer_metrics(tracer, first_span, ops):
    """Per-layer numbers of one traced round (spans from `first_span` on)."""
    total, own, calls = tracer.layer_times(first_span)
    out = {}
    for name in PER_LAYER_CALLS:
        out[name + ".s"] = (total[name], "s")
        out[name + ".calls"] = (calls[name], "count")
    for name in ("solver.ihs", "solver.lift", "decompose.split",
                 "decompose.merge", "hardness.full_chain"):
        out[name + ".s"] = (total[name], "s")
    out["solver.ihs.self_s"] = (own["solver.ihs"], "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name], "count")
    for name in MAXIMA:
        out[name] = (tracer.maxima[name], "count")
    solves = [op.outcome for op in ops if op.kind == "solve" and not failed(op)]
    kept = sum(res.fort_count for res in solves)
    out["forts.kept"] = (kept, "count")
    returned = tracer.counts["forts.returned"]
    out["forts.yield"] = (kept / returned if returned else 0.0, "ratio")
    out["solver.hs_solves"] = (sum(res.hitting_set_solves for res in solves),
                               "count")
    return out


def per_layer(workload, seed, seconds, cases):
    """Untraced and traced rounds in turn; per-layer medians."""
    from tracing import Tracer
    tracer = Tracer()
    pace = Pace()
    untraced, traced, per_round = [], [], []

    def pair():
        untraced.append(run_round(cases, NoTracer(), pace))
        first_span = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            traced.append(run_round(cases, tracer, pace))
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer, first_span, traced[-1]))

    rounds_within(seconds, pair)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    problems = []
    if any(gammas(ops) != gammas(untraced[0]) for ops in untraced + traced):
        problems.append("traced and untraced rounds returned different gamma")
    metrics = {}
    for name, (_value, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        if unit == "s":
            metrics[name] = metric(statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between rounds: {values}")
            metrics[name] = metric(values[0], unit)
    overhead = timings(traced)[2] - timings(untraced)[2]
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return untraced + traced, metrics, problems


def run_one(args):
    cases, setup_s = setup(args.workload, args.seed)
    if args.trace:
        rounds, metrics, problems = per_layer(args.workload, args.seed,
                                              args.seconds, cases)
    else:
        rounds, metrics, problems = end_to_end(args.workload, args.seed,
                                               args.seconds, cases, setup_s)
    problems += verify(rounds)
    if sys.gettrace() is not None or sys.getprofile() is not None:
        problems.append("the program left a trace or profile hook installed, "
                        "which slows the pace probe too")
    ops = [op for r in rounds for op in r]
    for op in ops:
        if failed(op):
            print(f"failed: {op.case.label} {op.kind}: "
                  f"{op.error or op.outcome.status}", file=sys.stderr)
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"round wall seconds: "
          + " ".join(f"{sum(op.seconds for op in r):.3f}" for r in rounds))
    paces = sorted(op.pace for op in ops)
    print(f"pace probe: {paces[0] * 1e3:.2f} ms fastest, "
          f"{statistics.median(paces) * 1e3:.2f} ms median, "
          f"{REFERENCE_PROBE_S * 1e3:.2f} ms reference")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": len(ops),
              "failed": sum(map(failed, ops)), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed)[1])
            return 0
        if args.workload == "all":
            load_program()
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
