import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import powerdom
from powerdom import (find_forts, generate_random, oracle_pds, solve,
                      write_instance)

from conftest import gridlike_graph

ROOT = Path(__file__).resolve().parent.parent


def test_one_public_name_per_callable():
    names = {}
    for name in dir(powerdom):
        obj = getattr(powerdom, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if callable(obj):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_library_runs_with_numpy_blocked():
    # A fresh interpreter in which any numpy import fails imports
    # powerdom, generates, solves, sweeps forts, runs the brute-force
    # oracle and closure, and prints a graph through `powerdom gen`.
    script = textwrap.dedent("""
        import json
        import sys

        sys.modules["numpy"] = None  # any numpy import now fails
        from powerdom import (InfeasibleInstanceError, cli, find_forts,
                              generate_random, is_power_dominating,
                              observed_set, oracle_pds, parse_instance, solve)

        inst = parse_instance(sys.stdin.read())
        selected = solve(inst, reductions="none").solution.selected
        forts = [sorted(f) for f in find_forts(inst, frozenset(), seed=0)]
        try:
            oracle_pds(inst, k_max=2, max_undecided=None)
            refuted = False
        except InfeasibleInstanceError:
            refuted = True
        small = generate_random(12, 15, 0.3, seed=1)
        print(json.dumps({
            "gamma": len(selected), "forts": forts, "refuted": refuted,
            "observed": len(observed_set(inst, selected)),
            "dominating": is_power_dominating(inst, selected),
            "oracle": oracle_pds(small)[0]}))
        sys.exit(cli.main(["gen", "12", "15", "--frac-nonprop", "0.3",
                           "--seed", "1"]))
        """)
    inst = gridlike_graph(90, 11)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          input=write_instance(inst), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line, printed = proc.stdout.split("\n", 1)
    out = json.loads(line)
    assert out["gamma"] == solve(inst, reductions="none").gamma_p == 15
    assert out["refuted"] and out["dominating"] and out["observed"] == inst.n
    forts = find_forts(inst, frozenset(), seed=0)
    assert forts and out["forts"] == [sorted(f) for f in forts]
    small = generate_random(12, 15, 0.3, seed=1)
    assert printed == write_instance(small)
    assert out["oracle"] == oracle_pds(small)[0]
