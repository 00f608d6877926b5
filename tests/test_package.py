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


SOLVE_PATH = ["powerdom." + m for m in (
    "decompose", "errors", "forts", "hittingset", "instance", "propagation",
    "reductions", "solver")]
DEFERRED = ["powerdom.bruteforce", "powerdom.hardness", "powerdom.milp"]

LOADED = """
    import json
    import sys

    import powerdom

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("powerdom."))
    """


def run_fresh(script, *args):
    """The last line a fresh interpreter running `script` prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_solve_load_only_the_solve_path():
    out = run_fresh(LOADED + """
    after_import = loaded()
    inst = powerdom.generate_random(30, 40, 0.2, seed=3)
    print(json.dumps({"gamma": powerdom.solve(inst).gamma_p,
                      "after_import": after_import, "after_solve": loaded()}))
    """)
    assert out["gamma"] == solve(generate_random(30, 40, 0.2, seed=3)).gamma_p
    assert out["after_import"] == out["after_solve"] == SOLVE_PATH


def test_cli_gen_reduce_and_solve_load_no_deferred_module(tmp_path):
    path = tmp_path / "g30.pds"
    path.write_text(write_instance(generate_random(30, 40, 0.2, seed=3)))
    out = run_fresh(LOADED + """
    from powerdom import cli
    path = sys.argv[1]
    codes = [cli.main(argv) for argv in (
        ["gen", "12", "15", "-o", path + ".gen"], ["reduce", path],
        ["solve", path])]
    print(json.dumps({"codes": codes, "loaded": loaded()}))
    """, str(path))
    assert out["codes"] == [0, 0, 0]
    assert out["loaded"] == sorted(SOLVE_PATH + ["powerdom.cli"])


def test_deferred_names_resolve_as_an_eager_import_would():
    # dir() before any deferred module loads, a star import, and the
    # package's own namespace once every submodule is loaded (what an
    # eager import of all of them holds) list the same public names, and
    # each deferred name is its submodule's object.
    out = run_fresh(LOADED + """
    def public(names):
        return sorted(n for n in names if not n.startswith("_"))

    listed = public(dir(powerdom))
    try:
        powerdom.no_such_name
        unknown = "resolved"
    except AttributeError as exc:
        unknown = str(exc)
    deferred = {}
    for name in powerdom.__all__:
        obj = getattr(powerdom, name)
        home = getattr(obj, "__module__", None)
        if home in ("powerdom.bruteforce", "powerdom.hardness",
                    "powerdom.milp"):
            deferred[name] = getattr(sys.modules[home], name) is obj
    star = {}
    exec("from powerdom import *", star)
    print(json.dumps({"listed": listed, "unknown": unknown,
                      "deferred": deferred, "star": public(star),
                      "held": public(vars(powerdom)), "loaded": loaded()}))
    """)
    assert out["unknown"] == "module 'powerdom' has no attribute 'no_such_name'"
    assert len(out["deferred"]) == 24 and all(out["deferred"].values())
    assert out["listed"] == out["star"] == out["held"]
    assert out["listed"] == sorted(powerdom.__all__)
    assert out["loaded"] == sorted(SOLVE_PATH + DEFERRED)


def test_the_traced_benchmark_finds_every_name_it_wraps():
    # perfbench/tracing.py swaps public names where the solve path binds
    # them; a name that moves or goes would drop its span.
    bench = str(ROOT / "perfbench")
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, bench)
    try:
        from tracing import Tracer
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(bench)
    tracer = Tracer()
    tracer.install()
    try:
        solve(gridlike_graph(60, 1), reductions="none")
    finally:
        tracer.uninstall()
    assert {name for name, *_ in tracer.spans} == {
        "reductions.reduce_full", "decompose.split", "decompose.merge",
        "solver.lift", "solver.ihs", "solver.greedy", "forts.find",
        "hittingset.solve_exact", "propagation.observe_from"}
    assert powerdom.solver.split is powerdom.decompose.split
