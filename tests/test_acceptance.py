"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 8 needs the
powersimdata-derived grid instances, which are not bundled; it is skipped
(and replaced by criteria 1-7) unless POWERDOM_GRID_DIR points at them.
"""

import os
import random
import time
from itertools import combinations

import pytest

from powerdom import (OPTIMAL, HittingSetInstance, RuleId,
                      apply_rule_once, build_pds_milp, eliminate_booster_edges,
                      eliminate_implication_arcs, enumerate_minimal_forts,
                      find_forts, full_chain_detailed, ihs_kernel_solve,
                      ipds_ext_to_ipds, is_fort, lift_solution, oracle_pds,
                      parse_circuit, parse_instance, pds_to_simple,
                      reduce_full, solve, solve_exact, wmcs_min_weight,
                      wmcs_to_ipds_ext)
from powerdom.bruteforce import is_power_dominating
from powerdom.errors import InfeasibleInstanceError
from powerdom.forts import _reselect, closed_neighborhood
from powerdom.hardness import eval_circuit
from powerdom.instance import generate_random
from powerdom.propagation import observe_from

from conftest import (disjoint_stars, highs_optimum, oracle_gamma,
                      random_circuit, random_instance, random_ipds_instance,
                      rule_pattern_instance)

SUBSETS = ("all", "local", "nonlocal", "local+dom", "local+necn", "none")


@pytest.fixture(scope="module")
def corpus():
    items = []
    for seed in range(1000):
        inst = random_instance(seed, n_max=12, m_max=20,
                               fracs=(0.0, 0.5, 1.0), x_max=2, y_max=2)
        items.append((inst, oracle_gamma(inst)))
    return items


def test_criterion_1_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    infeasible = 0
    for idx, (inst, gamma) in enumerate(corpus):
        if gamma is None:
            infeasible += 1
        for subset in SUBSETS:
            res = solve(inst, reductions=subset, seed=idx)
            got = res.gamma_p if res.status == OPTIMAL else None
            assert got == gamma, (idx, subset)
            if gamma is not None:
                res.solution.validate(inst)
                state = observe_from(inst, res.solution.selected)
                assert state.is_complete()
    dt = time.perf_counter() - t0
    assert dt < 300
    print(f"\nACCEPTANCE 1 (oracle equivalence): PASS - "
          f"{len(corpus)} instances x {len(SUBSETS)} rule subsets, "
          f"{infeasible} infeasible agreed, {dt:.1f}s")


def test_criterion_2_reduction_safety(corpus):
    t0 = time.perf_counter()
    for inst, gamma in corpus:
        kernel, log, _ = reduce_full(inst)
        try:
            lifted = lift_solution(log, oracle_pds(kernel)[1])
            reduced_gamma = len(lifted)
        except InfeasibleInstanceError:
            reduced_gamma = None
        assert reduced_gamma == gamma

    per_rule = 100
    for rule in RuleId:
        matched = 0
        for seed in range(per_rule):
            inst, site = rule_pattern_instance(rule.value, seed)
            res = apply_rule_once(inst, rule, site)
            assert res.changed, (rule, seed)
            assert oracle_gamma(res.instance) == oracle_gamma(inst), \
                (rule, seed)
            matched += 1
        assert matched >= per_rule
    dt = time.perf_counter() - t0
    assert dt < 300
    print(f"\nACCEPTANCE 2 (reduction safety): PASS - {len(corpus)} "
          f"full reductions + {per_rule} guard-matching instances per rule, "
          f"{dt:.1f}s")


def test_criterion_3_fort_suite():
    rng = random.Random(0)
    emitted = 0
    for seed in range(400):
        inst = random_instance(seed, n_max=10)
        hitting = frozenset(v for v in inst.undecided()
                            if rng.random() < 0.3)
        try:
            forts = find_forts(inst, hitting, seed=seed)
        except InfeasibleInstanceError:
            continue
        for fort in forts:
            assert is_fort(inst, fort)
            emitted += 1
        # The unobserved remainder of the candidate is a fort, and so is
        # what is left after fort minimisation re-selects a pool.
        state = observe_from(inst, hitting | inst.pre_selected)
        if not state.is_complete():
            assert is_fort(inst, state.unobserved_vertices())
            emitted += 1
            pool = [v for v in inst.undecided() if v not in hitting][:3]
            _reselect(state, pool)
            assert is_fort(inst, state.unobserved_vertices())
            emitted += 1
    assert emitted > 400

    checked = 0
    for seed in range(200):
        inst = random_instance(seed, n_max=8, x_max=0, y_max=0)
        try:
            _, witness = oracle_pds(inst)
        except InfeasibleInstanceError:
            continue
        for fort in enumerate_minimal_forts(inst):
            assert is_fort(inst, fort)
            assert witness.selected & closed_neighborhood(inst, fort)
            checked += 1
    assert checked > 200
    print(f"\nACCEPTANCE 3 (fort suite): PASS - {emitted} emissions valid, "
          f"{checked} optimum-hits-neighborhood checks")


def test_criterion_4_incremental_propagation():
    rng = random.Random(1)
    steps = 0
    for seed in range(100):
        inst = random_instance(seed, n_max=50, m_max=120, x_max=0, y_max=0)
        state = observe_from(inst, ())
        selected = set()
        for _ in range(100):
            free = [v for v in range(inst.n) if v not in selected]
            deselect = selected and (not free or rng.random() < 0.45)
            if deselect:
                v = rng.choice(sorted(selected))
                state.deselect(v)
                selected.discard(v)
            else:
                v = rng.choice(free)
                state.select(v)
                selected.add(v)
            steps += 1
            assert state.observed_vertices() == \
                observe_from(inst, selected).observed_vertices()
    assert steps >= 10_000
    print(f"\nACCEPTANCE 4 (incremental propagation): PASS - {steps} "
          f"select/deselect steps matched recomputation")


def test_criterion_5_hitting_set():
    def brute(universe, sets):
        for k in range(len(universe) + 1):
            for combo in combinations(sorted(universe), k):
                if all(set(combo) & s for s in sets):
                    return k
        return None

    rng = random.Random(2)
    for case in range(500):
        universe = list(range(rng.randint(1, 12)))
        sets = [frozenset(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
                for _ in range(rng.randint(0, 8))]
        hs = HittingSetInstance(universe, sets)
        got_set, got = solve_exact(hs)
        assert got == brute(universe, sets)
        assert all(got_set & s for s in sets)

    for case in range(60):
        universe = list(range(rng.randint(2, 12)))
        hs = HittingSetInstance(universe)
        prev = 0
        for _round in range(5):
            hs.add_sets([frozenset(rng.sample(
                universe, rng.randint(1, min(3, len(universe)))))])
            _, size = solve_exact(hs, lower_bound_hint=prev)
            assert size >= prev
            prev = size
    print("\nACCEPTANCE 5 (hitting set solver): PASS - 500 brute-force "
          "matches, 60 monotone growth sequences")


def _ipds_gamma(inst, **kw):
    try:
        return oracle_pds(inst, **kw)[0]
    except InfeasibleInstanceError:
        return None


def _min_assignment(circuit):
    for k in range(len(circuit.inputs) + 1):
        for combo in combinations(circuit.inputs, k):
            if eval_circuit(circuit, combo):
                return combo
    raise AssertionError("monotone circuit unsatisfiable")


def test_criterion_6_hardness_chain():
    t0 = time.perf_counter()
    # Full chain on >= 50 random circuits. The copy construction is
    # quadratic, so circuits whose refutation would be overly expensive
    # are resampled; one weight-2 and-circuit is always included.
    chains = 0
    heavy = 0
    seed = 0
    and2 = parse_circuit("in x1\nin x2\nand g x1 x2\nout o g")
    jobs = [(and2, full_chain_detailed(and2))]
    # The copy construction is quadratic, so keep the sampled circuits
    # tiny enough that refuting all selections below the target stays
    # affordable: any number of weight-1 circuits, a couple of weight-2.
    while len(jobs) < 50 and seed < 4000:
        c = random_circuit(seed, max_inputs=4, max_gates=4)
        seed += 1
        w = wmcs_min_weight(c)
        if w >= 3:
            continue
        chain = full_chain_detailed(c)
        if w == 1 and chain.instance.n <= 900:
            jobs.append((c, chain))
        elif w == 2 and chain.instance.n <= 450 and heavy < 2:
            heavy += 1
            jobs.append((c, chain))
    assert len(jobs) >= 50
    for c, chain in jobs:
        w = wmcs_min_weight(c)
        target = w + chain.shift
        with pytest.raises(InfeasibleInstanceError):
            oracle_pds(chain.instance, k_max=target - 1, max_undecided=None)
        witness = chain.witness_from_assignment(_min_assignment(c))
        assert len(witness) == target
        assert is_power_dominating(chain.instance, witness)
        chains += 1

    # Individual transforms against the oracle, 200 tiny instances each.
    done = 0
    for s in range(200):
        c = random_circuit(s, max_inputs=3, max_gates=2)
        tr = wmcs_to_ipds_ext(c)
        assert _ipds_gamma(tr.output) == wmcs_min_weight(c)
        done += 1
    assert done == 200

    tested = 0
    s = 0
    while tested < 200 and s < 2000:
        inst = random_ipds_instance(s, n_max=4)
        s += 1
        gamma = _ipds_gamma(inst)
        if gamma is None:
            continue
        tr = ipds_ext_to_ipds(inst)
        assert _ipds_gamma(tr.output) == gamma + tr.shift
        tested += 1
    assert tested == 200

    for s in range(200):
        inst = random_ipds_instance(s, with_xy=False)
        tr = eliminate_implication_arcs(inst)
        assert _ipds_gamma(tr.output) == _ipds_gamma(inst)

    for s in range(200):
        inst = random_ipds_instance(s, with_arcs=False, with_xy=False)
        tr = eliminate_booster_edges(inst)
        g1, g2 = _ipds_gamma(inst), _ipds_gamma(tr.output)
        assert g1 == (None if g2 is None else g2 - tr.shift)

    for s in range(200):
        n = (s % 6) + 1
        m = min(s % 7, n * (n - 1) // 2)
        inst = generate_random(n, m, (s % 3) / 2.0, seed=s)
        tr = pds_to_simple(inst)
        assert oracle_gamma(tr.output) == oracle_gamma(inst)

    dt = time.perf_counter() - t0
    assert dt < 600
    print(f"\nACCEPTANCE 6 (hardness chain): PASS - {chains} full chains "
          f"(refuted below target, witness verified), 200 instances per "
          f"transform, {dt:.1f}s")


def test_criterion_7_milp_export():
    # HiGHS solves each exported model, and the oracle and the standalone
    # closure check it both ways: the optimum is gamma, and its x_v are
    # a solution.
    count = 0
    for seed in range(250):
        inst = random_instance(seed, n_max=8, m_max=14)
        gamma = oracle_gamma(inst)
        found = highs_optimum(build_pds_milp(inst))
        if found is None:
            assert gamma is None, seed
        else:
            value, values = found
            selected = {v for v in range(inst.n) if values[f"x_{v}"] == 1}
            assert value == len(selected) == gamma, seed
            assert inst.pre_selected <= selected, seed
            assert not selected & inst.excluded, seed
            assert is_power_dominating(inst, selected), seed
        count += 1
    print(f"\nACCEPTANCE 7 (MILP export): PASS - HiGHS optimum of {count} "
          f"emitted models equals the oracle, and its selection is power "
          f"dominating")


def test_criterion_8_grid_instances():
    data_dir = os.environ.get("POWERDOM_GRID_DIR")
    expected = {"texas.pds": (411, 120), "western.pds": (1825, 600)}
    if not data_dir:
        pytest.skip(
            "ACCEPTANCE 8 (grid reproduction): SKIP - powersimdata-derived "
            "instances are not bundled (no public mirror reachable from this "
            "environment); per the acceptance terms this criterion is "
            "replaced by criteria 1-7. Set POWERDOM_GRID_DIR to run it.")
    for name, (gamma, budget) in expected.items():
        path = os.path.join(data_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
        t0 = time.perf_counter()
        res = solve(inst)
        dt = time.perf_counter() - t0
        assert res.status == OPTIMAL and res.gamma_p == gamma
        assert dt <= budget
        print(f"\nACCEPTANCE 8: {name} gamma_p={res.gamma_p} in {dt:.1f}s")
    print("\nACCEPTANCE 8 (grid reproduction): PASS")


def test_criterion_9_bounds_traces(corpus):
    checked = 0
    for idx, (inst, gamma) in enumerate(corpus[:300]):
        if gamma is None:
            continue
        res = solve(inst, seed=idx)
        assert res.gamma_p == gamma
        lowers = [v for _, k, v in res.bounds if k == "lower"]
        uppers = [v for _, k, v in res.bounds if k == "upper"]
        assert all(v <= gamma for v in lowers)
        assert all(v >= gamma for v in uppers)
        checked += 1

    stars = disjoint_stars(3)
    res = ihs_kernel_solve(stars, seed=0)
    assert res.gamma_p == 3
    lowers = [v for _, k, v in res.bounds if k == "lower"]
    jump = max(b - a for a, b in zip([0] + lowers, lowers))
    assert jump >= 2
    print(f"\nACCEPTANCE 9 (bounds traces): PASS - {checked} sound traces; "
          f"3-star union lower bound jumped by {jump} in one iteration")
