import json
from pathlib import Path

import pytest

from powerdom import cli
from powerdom.bruteforce import enumerate_minimal_forts
from powerdom.cli import main
from powerdom.forts import closed_neighborhood
from powerdom.instance import parse_instance, write_instance
from powerdom.milp import parse_lp

from conftest import (cycle_graph, disjoint_stars, highs_optimum, oracle_gamma,
                      path_graph, star_graph)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.pds"
    path.write_text(write_instance(path_graph(3)))
    return str(path)


def test_solve_json(p3_file, capsys):
    assert main(["solve", p3_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Optimal"
    assert payload["gamma_p"] == 1
    assert set(payload) == {"status", "gamma_p", "lower_bound", "upper_bound",
                            "fort_count", "hitting_set_solves", "rule_stats",
                            "wall_time_s", "seed"}


def test_solve_human_output(p3_file, capsys):
    assert main(["solve", p3_file]) == 0
    out = capsys.readouterr().out
    assert "gamma_p" in out and "Optimal" in out


def test_solve_reduction_subsets(p3_file):
    for subset in ("all", "local", "nonlocal", "local+dom", "local+necn",
                   "none"):
        assert main(["solve", p3_file, "--reductions", subset, "--json"]) == 0


def test_solve_writes_trace(p3_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["solve", p3_file, "--trace", str(trace), "--json"]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t_seconds,kind,value"
    assert len(lines) > 1
    for line in lines[1:]:
        t, kind, value = line.split(",")
        float(t)
        assert kind in ("lower", "upper")
        int(value)


@pytest.mark.parametrize("argv", [
    ["solve", "{dir}"],
    ["reduce", "{file}", "-o", "{dir}"],
    ["solve", "{file}", "--trace", "{dir}"],
])
def test_os_error_on_a_path_exit_code(argv, p3_file, tmp_path, monkeypatch,
                                      capsys):
    # Each bad path fails before the solve, so no finished result is lost.
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before the path failed")

    monkeypatch.setattr(cli, "solve", no_solve)
    args = [a.format(dir=tmp_path, file=p3_file) for a in argv]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.pds"
    path.write_text("p pds 1 0\nv 0 X\n")
    assert main(["solve", str(path)]) == 2


def test_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent.pds"]) == 1


def test_bad_flag_exit_code(p3_file, capsys):
    assert main(["solve", p3_file, "--reductions", "bogus"]) == 1


def test_reduce_writes_kernel(tmp_path, capsys):
    src = tmp_path / "star.pds"
    src.write_text(write_instance(star_graph(3)))
    out = tmp_path / "kernel.pds"
    assert main(["reduce", str(src), "-o", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["kernel_undecided"] == 0
    kernel = parse_instance(out.read_text())
    assert kernel.n == stats["kernel_n"]


def test_oracle_command(p3_file, capsys):
    assert main(["oracle", p3_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma_p"] == 1


def test_export_milp(p3_file, tmp_path, capsys):
    assert main(["export-milp", p3_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == p3_file + ".pds-milp.lp"
    model = parse_lp(Path(out).read_text())
    assert any(name.startswith("x_") for name, _ in model.objective)


@pytest.mark.parametrize("inst", [disjoint_stars(2), cycle_graph(7)])
def test_export_milp_hitting_set_and_fort_models(inst, tmp_path, capsys):
    path = tmp_path / "inst.pds"
    path.write_text(write_instance(inst))
    models = {}
    for kind in ("hitting-set", "fort"):
        out = tmp_path / f"{kind}.lp"
        assert main(["export-milp", str(path), "--model", kind,
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        text = out.read_text()
        models[kind] = parse_lp(text)
        assert "forced_" not in text
    # The hitting-set rows are fort neighborhoods, so its optimum is a
    # lower bound on gamma.
    hs_value, _ = highs_optimum(models["hitting-set"])
    assert hs_value <= oracle_gamma(inst)
    fort_value, _ = highs_optimum(models["fort"])
    assert fort_value == min(len(closed_neighborhood(inst, fort))
                             for fort in enumerate_minimal_forts(inst))


def test_transform_circuit(tmp_path, capsys):
    ckt = tmp_path / "or2.ckt"
    ckt.write_text("in x1\nin x2\nor g x1 x2\nout o g\n")
    assert main(["transform-circuit", str(ckt)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter_shift"] == 1
    inst = parse_instance(Path(payload["output"]).read_text())
    assert inst.n == payload["vertices"]
    assert all(inst.propagating)


def test_gen_deterministic(tmp_path, capsys):
    assert main(["gen", "8", "10", "--frac-nonprop", "0.5", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "8", "10", "--frac-nonprop", "0.5", "--seed", "42"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.n == 8 and inst.m == 10
    assert sum(1 for p in inst.propagating if not p) == 4


def test_gen_too_many_edges(capsys):
    assert main(["gen", "3", "9"]) == 1
