"""Command line front end for batch solving and experiment reproduction.

Exit codes: 0 solved/ok, 1 usage or input error, 2 infeasible instance,
3 timeout.

The oracle, MILP and hardness modules are imported inside the commands
that use them, so `solve`, `reduce` and `gen` never compile them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .errors import GuardExceededError, InfeasibleInstanceError, ParseError
from .forts import closed_neighborhood, find_forts
from .hittingset import HittingSetInstance
from .instance import generate_random, parse_instance, write_instance
from .propagation import observe_from
from .reductions import RULE_SUBSETS, reduce_full
from .solver import INFEASIBLE, OPTIMAL, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3


def _load_instance(path, fmt="pds"):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), fmt)


def cmd_solve(args):
    inst = _load_instance(args.instance, args.format)
    # Opened first, so an unwritable path fails before the solve.
    with (open(args.trace, "w", encoding="utf-8") if args.trace
          else contextlib.nullcontext()) as trace:
        result = solve(inst, reductions=args.reductions, seed=args.seed,
                       time_limit=args.time_limit)
        if trace:
            trace.write("t_seconds,kind,value\n")
            for t, kind, value in result.bounds:
                trace.write(f"{t:.6f},{kind},{value}\n")
    payload = {
        "status": result.status,
        "gamma_p": result.gamma_p,
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "fort_count": result.fort_count,
        "hitting_set_solves": result.hitting_set_solves,
        "rule_stats": result.rule_stats,
        "wall_time_s": result.wall_time,
        "seed": result.seed,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"status:             {result.status}")
        print(f"gamma_p:            {result.gamma_p}")
        print(f"bounds:             [{result.lower_bound}, {result.upper_bound}]")
        print(f"fort neighborhoods: {result.fort_count}")
        print(f"hitting set solves: {result.hitting_set_solves}")
        fired = {k: v for k, v in result.rule_stats.items() if v}
        print(f"rule applications:  {fired or 'none'}")
        print(f"wall time:          {result.wall_time:.3f}s")
        if result.solution is not None:
            print(f"solution:           {sorted(result.solution.selected)}")
    if result.status == OPTIMAL:
        return EXIT_OK
    if result.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_TIMEOUT


def cmd_reduce(args):
    inst = _load_instance(args.instance, args.format)
    kernel, _log, stats = reduce_full(inst, args.reductions)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(write_instance(kernel))
    print(json.dumps(stats))
    return EXIT_OK


def cmd_oracle(args):
    from .bruteforce import oracle_pds
    inst = _load_instance(args.instance, args.format)
    try:
        gamma, witness = oracle_pds(inst, k_max=args.k_max)
    except InfeasibleInstanceError:
        print(json.dumps({"status": INFEASIBLE, "gamma_p": None}))
        return EXIT_INFEASIBLE
    print(json.dumps({"status": OPTIMAL, "gamma_p": gamma,
                      "witness": sorted(witness.selected)}))
    return EXIT_OK


def cmd_export_milp(args):
    from . import milp as milp_mod
    inst = _load_instance(args.instance, args.format)
    if args.model == "pds":
        model = milp_mod.build_pds_milp(inst)
    elif args.model == "fort":
        observed = observe_from(inst, inst.pre_selected).observed_vertices()
        model = milp_mod.build_fort_ilp(inst, observed)
    else:
        forts = find_forts(inst, frozenset(), seed=args.seed)
        hs = HittingSetInstance(inst.undecided())
        hs.add_sets([closed_neighborhood(inst, fort) for fort in forts])
        model = milp_mod.build_hitting_set_ilp(hs)
    out = args.output or f"{args.instance}.{args.model}-milp.lp"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(milp_mod.write_lp(model))
    print(out)
    return EXIT_OK


def cmd_transform_circuit(args):
    from .hardness import full_chain_detailed, parse_circuit
    with open(args.circuit, "r", encoding="utf-8") as fh:
        circuit = parse_circuit(fh.read())
    chain = full_chain_detailed(circuit)
    inst = chain.instance
    out = args.output or f"{args.circuit}.pds"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(write_instance(inst))
    print(json.dumps({"output": out, "parameter_shift": chain.shift,
                      "vertices": inst.n, "edges": inst.m}))
    return EXIT_OK


def cmd_gen(args):
    inst = generate_random(args.n, args.m, args.frac_nonprop, args.seed)
    text = write_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="powerdom",
        description="Exact power dominating set toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_arg(p):
        p.add_argument("instance", help="path to a .pds file")
        p.add_argument("--format", choices=["pds", "edgelist"], default="pds")

    p = sub.add_parser("solve", help="solve an instance exactly")
    add_instance_arg(p)
    p.add_argument("--reductions", choices=sorted(RULE_SUBSETS), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--trace", help="write bound events to this CSV path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="apply the reduction rules")
    add_instance_arg(p)
    p.add_argument("--reductions", choices=sorted(RULE_SUBSETS), default="all")
    p.add_argument("-o", "--output", help="write the kernel here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force optimum (small instances)")
    add_instance_arg(p)
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-milp", help="write an LP-format model")
    add_instance_arg(p)
    p.add_argument("--model", choices=["pds", "fort", "hitting-set"],
                   default="pds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_milp)

    p = sub.add_parser("transform-circuit",
                       help="run the hardness chain on a circuit file")
    p.add_argument("circuit")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_transform_circuit)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--frac-nonprop", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError, GuardExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
