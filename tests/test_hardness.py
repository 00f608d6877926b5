from itertools import combinations

import pytest

from powerdom import (eliminate_booster_edges, eliminate_implication_arcs,
                      eval_circuit, full_chain_detailed, ipds_ext_to_ipds,
                      oracle_pds, parse_circuit, pds_to_simple,
                      wmcs_min_weight, wmcs_to_ipds_ext, write_circuit)
from powerdom.bruteforce import is_power_dominating, observed_set
from powerdom.errors import InfeasibleInstanceError, ParseError
from powerdom.hardness import Circuit, IpdsInstance
from powerdom.instance import PdsInstance, generate_random

from conftest import random_circuit, random_ipds_instance

OR2 = "in x1\nin x2\nor g x1 x2\nout o g\n"
AND2 = "in x1\nin x2\nand g x1 x2\nout o g\n"
MIX3 = "in x1\nin x2\nin x3\nand g1 x1 x2\nor g2 g1 x3\nout o g2\n"


def ipds_gamma(inst, **kw):
    try:
        return oracle_pds(inst, **kw)[0]
    except InfeasibleInstanceError:
        return None


def min_assignment(circuit):
    for k in range(len(circuit.inputs) + 1):
        for combo in combinations(circuit.inputs, k):
            if eval_circuit(circuit, combo):
                return combo
    raise AssertionError("monotone circuit unsatisfiable")


def test_eval_circuit():
    c = parse_circuit(OR2)
    assert eval_circuit(c, {"x1"}) and not eval_circuit(c, set())
    c = parse_circuit(AND2)
    assert not eval_circuit(c, {"x1"}) and eval_circuit(c, {"x1", "x2"})
    c = parse_circuit(MIX3)
    assert eval_circuit(c, {"x2", "x3"})


def test_wmcs_min_weight():
    assert wmcs_min_weight(parse_circuit(OR2)) == 1
    assert wmcs_min_weight(parse_circuit(
        "in a\nin b\nin c\nand g a b c\nout o g")) == 3


def test_circuit_validation():
    with pytest.raises(ParseError):
        parse_circuit("in x\nand g x y\nout o g")  # undeclared child
    with pytest.raises(ValueError):
        Circuit([("x", ("in", ())), ("g", ("and", ("x",))),
                 ("h", ("or", ("x",))), ("o", ("out", ("g",)))])  # h dangles
    with pytest.raises(ValueError):
        Circuit([("x", ("in", ()))])  # no output
    with pytest.raises(ValueError, match="duplicate node name 'g'"):
        Circuit([("x", ("in", ())), ("g", ("or", ("x",))),
                 ("g", ("and", ("x",))), ("o", ("out", ("g",)))])
    with pytest.raises(ParseError) as err:
        parse_circuit("in x\nor g x\n\nand g x\nout o g")
    assert err.value.line == 4


def test_ipds_instance_validation():
    inst = IpdsInstance(3, [(0, 1)], booster_edges=[(1, 0)],
                        implication_arcs=[(2, 1), (0, 1), (2, 1)])
    assert inst.booster_edges == {(0, 1)}
    assert inst.implication_arcs == ((2, 1), (0, 1))  # first occurrences
    for bad in ({"booster_edges": [(1, 2)]}, {"implication_arcs": [(1, 1)]},
                {"implication_arcs": [(0, 3)]}):
        with pytest.raises(ValueError):
            IpdsInstance(3, [(0, 1)], **bad)


def test_circuit_roundtrip():
    for seed in range(20):
        c = random_circuit(seed)
        assert parse_circuit(write_circuit(c)).nodes == c.nodes


def test_wmcs_to_ipds_ext_structure():
    tr = wmcs_to_ipds_ext(parse_circuit(AND2))
    out = tr.output
    assert tr.shift == 0
    # two inputs, gate input+output, two proxies, out node
    assert out.n == 7
    assert len(out.excluded) == 5  # everything except the circuit inputs
    assert not out.pre_selected
    assert all(out.propagating)
    arcs = set(out.implication_arcs)
    roles = tr.provenance
    inputs = [v for v, r in roles.items() if r[0] == "in"]
    out_vertex = next(v for v, r in roles.items() if r[0] == "out")
    for v in inputs:
        assert (out_vertex, v) in arcs


def test_wmcs_to_ipds_ext_gamma():
    for text, weight in ((OR2, 1), (AND2, 2), (MIX3, 1)):
        c = parse_circuit(text)
        assert wmcs_min_weight(c) == weight
        tr = wmcs_to_ipds_ext(c)
        assert ipds_gamma(tr.output) == weight


def test_wmcs_to_ipds_ext_random():
    for seed in range(60):
        c = random_circuit(seed, max_inputs=3, max_gates=2)
        tr = wmcs_to_ipds_ext(c)
        assert ipds_gamma(tr.output) == wmcs_min_weight(c)


def test_ipds_ext_to_ipds_identity():
    plain = random_ipds_instance(3, with_xy=False)
    tr = ipds_ext_to_ipds(plain)
    assert tr.output == plain and tr.shift == 0


def test_ipds_ext_to_ipds_leaves_force_selection():
    inst = IpdsInstance(2, [(0, 1)], pre_selected=[0])
    tr = ipds_ext_to_ipds(inst)
    out = tr.output
    assert out.n == 4 and not out.pre_selected
    gamma, witness = oracle_pds(out)
    assert gamma == ipds_gamma(inst) == 1
    assert 0 in witness.selected
    # every optimum contains the formerly pre-selected vertex
    for v in range(1, out.n):
        assert len(observed_set(out, {v})) < out.n


def test_ipds_ext_to_ipds_copies():
    inst = IpdsInstance(2, [(0, 1)], excluded=[1])
    tr = ipds_ext_to_ipds(inst)
    out = tr.output
    # (n+1) copies of n vertices plus the allowed-vertex clique
    assert out.n == 3 * 2 + 1
    assert not out.excluded and not out.pre_selected
    assert ipds_gamma(out) == ipds_gamma(inst) == 1


def test_ipds_ext_to_ipds_random():
    tested = 0
    for seed in range(150):
        inst = random_ipds_instance(seed, n_max=4)
        gamma = ipds_gamma(inst)
        if gamma is None:
            continue  # equivalence holds for solvable instances
        tr = ipds_ext_to_ipds(inst)
        assert ipds_gamma(tr.output) == gamma + tr.shift
        tested += 1
    assert tested >= 80


def test_eliminate_implication_arcs():
    none = random_ipds_instance(1, with_arcs=False, with_xy=False)
    assert eliminate_implication_arcs(none).output == none
    single = IpdsInstance(2, implication_arcs=[(0, 1)])
    tr = eliminate_implication_arcs(single)
    assert tr.shift == 0 and tr.output.n == 6
    assert not tr.output.implication_arcs
    assert ipds_gamma(tr.output) == ipds_gamma(single) == 1
    shared = IpdsInstance(3, implication_arcs=[(0, 1), (0, 2)])
    tr = eliminate_implication_arcs(shared)
    assert ipds_gamma(tr.output) == ipds_gamma(shared)


def test_eliminate_implication_arcs_random():
    for seed in range(120):
        inst = random_ipds_instance(seed, with_xy=False)
        tr = eliminate_implication_arcs(inst)
        assert ipds_gamma(tr.output) == ipds_gamma(inst)


def test_eliminate_booster_edges():
    none = random_ipds_instance(2, with_arcs=False, with_boosters=False,
                                with_xy=False)
    tr = eliminate_booster_edges(none)
    assert tr.output == none and tr.shift == 0
    assert type(tr.output) is PdsInstance
    k2 = IpdsInstance(2, [(0, 1)], booster_edges=[(0, 1)])
    tr = eliminate_booster_edges(k2)
    assert tr.shift == 1 and type(tr.output) is PdsInstance
    assert ipds_gamma(tr.output) == ipds_gamma(k2) + 1
    two = IpdsInstance(3, [(0, 1), (1, 2)], booster_edges=[(0, 1), (1, 2)])
    tr = eliminate_booster_edges(two)
    assert tr.shift == 1  # the hub is inserted once
    assert ipds_gamma(tr.output) == ipds_gamma(two) + 1


def test_eliminate_booster_requires_no_arcs():
    inst = IpdsInstance(2, [(0, 1)], booster_edges=[(0, 1)],
                        implication_arcs=[(0, 1)])
    with pytest.raises(ValueError):
        eliminate_booster_edges(inst)


def test_eliminate_booster_random():
    for seed in range(120):
        inst = random_ipds_instance(seed, with_arcs=False, with_xy=False)
        tr = eliminate_booster_edges(inst)
        g1, g2 = ipds_gamma(inst), ipds_gamma(tr.output)
        assert g1 == (None if g2 is None else g2 - tr.shift)


def test_pds_to_simple():
    p3 = generate_random(3, 2, 0.0, seed=0)
    assert pds_to_simple(p3).output.n == p3.n  # identity when all propagate
    mid = PdsInstance(3, [(0, 1), (1, 2)], propagating=[True, False, True])
    tr = pds_to_simple(mid)
    assert tr.output.n == 4 and all(tr.output.propagating)
    assert oracle_pds(tr.output)[0] == oracle_pds(mid)[0] == 1
    star_np = PdsInstance(4, [(0, 1), (0, 2), (0, 3)],
                          propagating=[False] * 4)
    tr = pds_to_simple(star_np)
    assert tr.output.n == 8
    assert oracle_pds(tr.output)[0] == oracle_pds(star_np)[0]


def test_pds_to_simple_random():
    for seed in range(120):
        inst = generate_random((seed % 6) + 1,
                               min(seed % 5, ((seed % 6) + 1) * (seed % 6) // 2),
                               0.5, seed=seed)
        tr = pds_to_simple(inst)
        try:
            g1 = oracle_pds(inst)[0]
        except InfeasibleInstanceError:
            g1 = None
        try:
            g2 = oracle_pds(tr.output)[0]
        except InfeasibleInstanceError:
            g2 = None
        assert g1 == g2


def test_transform_sizes_and_roles():
    # Every output vertex has exactly one role, ids 0..n-1.
    def check(tr, n):
        assert tr.output.n == n
        assert sorted(tr.provenance) == list(range(n))

    for seed in range(100):
        c = random_circuit(seed)
        gates = [ch for kind, ch in c.nodes.values() if kind == "and"]
        check(wmcs_to_ipds_ext(c),
              len(c.nodes) + len(gates) + sum(map(len, gates)))
    for seed in range(200):
        inst = random_ipds_instance(seed)
        n, x, y = inst.n, len(inst.pre_selected), len(inst.excluded)
        # leaves without Y, else (n+1) copies plus the clique over V\Y
        check(ipds_ext_to_ipds(inst),
              (n + 1) * n + n - y + 2 * x if y else n + 2 * x)
        check(eliminate_implication_arcs(inst),
              n + 4 * len(inst.implication_arcs))
        inst = random_ipds_instance(seed, with_arcs=False)
        boosters = len(inst.booster_edges)
        check(eliminate_booster_edges(inst),
              n + 3 + boosters if boosters else n)
        inst = random_ipds_instance(seed, with_arcs=False,
                                    with_boosters=False)
        check(pds_to_simple(inst), n + inst.propagating.count(False))


def test_kept_vertices_keep_labels():
    def labelled(inst):
        return IpdsInstance(
            inst.n, inst.edges, inst.propagating, inst.pre_selected,
            inst.excluded, {v: f"bus{v}" for v in range(inst.n)},
            inst.booster_edges, inst.implication_arcs)

    kept = {}
    for seed in range(60):
        full = labelled(random_ipds_instance(seed))
        no_arcs = labelled(random_ipds_instance(seed, with_arcs=False))
        plain = labelled(random_ipds_instance(seed, with_arcs=False,
                                              with_boosters=False))
        for step, inst in ((ipds_ext_to_ipds, full),
                           (eliminate_implication_arcs, full),
                           (eliminate_booster_edges, no_arcs),
                           (pds_to_simple, plain)):
            tr = step(inst)
            labels = {vid: inst.labels[role[1]]
                      for vid, role in tr.provenance.items()
                      if role[0] == "kept"}
            assert tr.output.labels == labels
            kept[step] = kept.get(step, 0) + len(labels)
    assert len(kept) == 4 and all(kept.values())


def test_full_chain_small_circuits():
    # The weight-2 AND2 chain is refuted in acceptance criterion 6.
    c = parse_circuit(OR2)
    chain = full_chain_detailed(c)
    target = wmcs_min_weight(c) + chain.shift
    with pytest.raises(InfeasibleInstanceError):
        oracle_pds(chain.instance, k_max=target - 1, max_undecided=None)
    witness = chain.witness_from_assignment(min_assignment(c))
    assert len(witness) == target
    assert is_power_dominating(chain.instance, witness)


def test_full_chain_output_is_plain():
    chain = full_chain_detailed(parse_circuit(MIX3))
    inst, shift = chain.instance, chain.shift
    assert all(inst.propagating)
    assert not inst.pre_selected and not inst.excluded
    assert shift == 1
