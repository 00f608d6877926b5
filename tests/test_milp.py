import pytest

from powerdom import (OPTIMAL, HittingSetInstance, build_fort_ilp,
                      build_hitting_set_ilp, build_pds_milp, parse_lp, solve,
                      write_lp)
from powerdom.errors import ParseError
from powerdom.instance import PdsInstance

from conftest import (gridlike_graph, highs_optimum, path_graph,
                      random_instance, star_graph)


def test_pds_model_domination_row_count():
    model = build_pds_milp(path_graph(3))
    dom = [c for c in model.constraints if c.name.startswith("dom_")]
    assert len(dom) == 7  # sum of closed neighborhood sizes = n + 2m


def test_pds_model_fixing_rows():
    model = build_pds_milp(path_graph(3, pre_selected=[1], excluded=[2]))
    text = write_lp(model)
    assert "presel_1: x_1 = 1" in text
    assert "excl_2: x_2 = 0" in text


def test_pds_model_nonpropagating_rows():
    model = build_pds_milp(path_graph(3))
    assert not [c for c in model.constraints if c.name.startswith("noprop_")]
    model = build_pds_milp(path_graph(3, propagating=[True, False, True]))
    rows = [c for c in model.constraints if c.name.startswith("noprop_")]
    assert len(rows) == 2  # p_1_0 and p_1_2 forced to zero


def test_pds_model_bounds():
    model = build_pds_milp(path_graph(4))
    s = model.variables["s_0"]
    assert s.kind == "continuous" and (s.lb, s.ub) == (1, 4)
    assert model.variables["x_0"].kind == "binary"
    assert model.variables["p_0_1"].kind == "binary"


def test_checker_matches_oracle_examples():
    assert highs_optimum(build_pds_milp(path_graph(3)))[0] == 1
    star_np = star_graph(3, propagating=[False, True, True, True])
    assert highs_optimum(build_pds_milp(star_np))[0] == 1
    frozen = PdsInstance(1, excluded=[0])
    assert highs_optimum(build_pds_milp(frozen)) is None


def test_hitting_set_ilp():
    hs = HittingSetInstance(range(4), [{1, 2}, {2, 3}])
    model = build_hitting_set_ilp(hs)
    text = write_lp(model)
    assert "cover_0: s_1 + s_2 >= 1" in text
    assert "cover_1: s_2 + s_3 >= 1" in text
    value, assignment = highs_optimum(model)
    assert value == 1 and assignment["s_2"] == 1
    empty = build_hitting_set_ilp(HittingSetInstance(range(3)))
    assert highs_optimum(empty)[0] == 0


def test_fort_ilp_p3():
    model = build_fort_ilp(path_graph(3), frozenset())
    value, assignment = highs_optimum(model)
    assert value == 3  # fort {0,2}, objective |N[{0,2}]| = 3
    fort = {v for v in range(3) if assignment[f"x_{v}"] == 1}
    assert fort in ({0, 2}, {0, 1, 2})


def test_fort_ilp_infeasible_when_all_observed():
    model = build_fort_ilp(path_graph(2), {0, 1})
    assert highs_optimum(model) is None


def test_fort_ilp_isolated_vertex():
    model = build_fort_ilp(PdsInstance(1), frozenset())
    assert highs_optimum(model)[0] == 1


def test_fort_ilp_nonpropagating_outside():
    # a non-propagating outsider may see exactly one fort vertex
    inst = path_graph(2, propagating=[False, True])
    model = build_fort_ilp(inst, frozenset())
    value, assignment = highs_optimum(model)
    assert assignment["x_1"] == 1 and value == 2


def test_lp_roundtrip():
    for seed in range(25):
        inst = random_instance(seed, n_max=6, m_max=8)
        model = build_pds_milp(inst)
        again = parse_lp(write_lp(model))
        assert model == again
    hs_model = build_hitting_set_ilp(
        HittingSetInstance(range(5), [{0, 1}, {2, 3, 4}]))
    assert parse_lp(write_lp(hs_model)) == hs_model


def test_lp_parser_rejects_junk():
    with pytest.raises(ParseError):
        parse_lp("Minimize\n obj: x_0\nSubject To\n garbage row\nEnd\n")
    with pytest.raises(ParseError):
        parse_lp("nonsense before sections\n")


@pytest.mark.parametrize("n, reductions",
                         [(100, "none"), (150, "all"), (200, "all")])
def test_solve_matches_highs_above_the_oracle_range(n, reductions):
    # The exported MILP shares no code with the reductions, forts, hitting
    # set or IHS loop, so HiGHS checks optima the brute-force oracle
    # cannot reach.
    inst = gridlike_graph(n, 1)
    res = solve(inst, reductions=reductions)
    assert res.status == OPTIMAL
    assert res.gamma_p == highs_optimum(build_pds_milp(inst))[0]
