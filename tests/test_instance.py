import random

import pytest

from powerdom import PdsInstance, cli, parse_instance, write_instance
from powerdom.errors import ParseError
from powerdom.instance import _floyd, generate_random

from conftest import random_instance


def test_parse_minimal_path():
    inst = parse_instance("p pds 3 2\ne 0 1\ne 1 2\n")
    assert inst.n == 3 and inst.edges == ((0, 1), (1, 2))
    assert all(inst.propagating)
    assert not inst.pre_selected and not inst.excluded


def test_parse_nonpropagating_flag():
    inst = parse_instance("p pds 2 1\nv 1 N\ne 0 1\n")
    assert inst.propagating == (True, False)


def test_parse_conflicting_flags_rejected():
    # Either order fails, at the line of the second flag.
    for first, second in (("S", "X"), ("X", "S")):
        with pytest.raises(ParseError) as err:
            parse_instance(f"p pds 2 1\nv 0 {first}\nv 1 N\nv 0 {second}\n"
                           "e 0 1\n")
        assert err.value.line == 4
        assert "vertex 0 both pre-selected and excluded" in str(err.value)


def test_parse_conflicting_labels_rejected():
    # A second, different label for a vertex fails at its line; the same
    # label again is idempotent, as a repeated flag is.
    with pytest.raises(ParseError) as err:
        parse_instance("p pds 2 0\nl 0 a\nl 0 b\n")
    assert err.value.line == 3
    assert "vertex 0 labelled both 'a' and 'b'" in str(err.value)
    inst = parse_instance("p pds 2 0\nl 0 a\nl 1 b\nl 0 a\n")
    assert inst.labels == {0: "a", 1: "b"}


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("p pds 2 1\ne 0 0\n")
    assert "line 2" in str(err.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("e 0 1\n")  # header must come first
    with pytest.raises(ParseError):
        parse_instance("p pds 2 2\ne 0 1\n")  # edge count mismatch
    with pytest.raises(ParseError):
        parse_instance("p pds 2 1\ne 0 5\n")  # id out of range
    with pytest.raises(ParseError):
        parse_instance("p pds 2 1\nv 0 Q\ne 0 1\n")  # unknown flag
    with pytest.raises(ParseError):
        parse_instance("p pds 2 2\ne 0 1\ne 1 0\n")  # duplicate edge


def test_parse_flags_idempotent_and_comments():
    text = "# comment\np pds 2 1\nv 0 N\nv 0 N\nv 1 S\ne 0 1  # trailing\n"
    inst = parse_instance(text)
    assert inst.propagating == (False, True)
    assert inst.pre_selected == frozenset({1})


def test_parse_edgelist():
    inst = parse_instance("0 1\n1 3\n", fmt="edgelist")
    assert inst.n == 4
    assert inst.edges == ((0, 1), (1, 3))
    assert all(inst.propagating)


def test_write_roundtrip_examples():
    p3 = PdsInstance(3, [(1, 2), (0, 1)])
    assert parse_instance(write_instance(p3)) == p3
    labelled = PdsInstance(2, [(0, 1)], labels={0: "bus7", 1: "bus9"})
    assert parse_instance(write_instance(labelled)) == labelled
    empty = PdsInstance(0)
    assert write_instance(empty).splitlines() == ["p pds 0 0"]
    assert parse_instance(write_instance(empty)) == empty


def test_write_edges_sorted():
    inst = PdsInstance(4, [(3, 2), (1, 0), (0, 2)])
    lines = [l for l in write_instance(inst).splitlines() if l.startswith("e")]
    assert lines == ["e 0 1", "e 0 2", "e 2 3"]


def test_roundtrip_random():
    for seed in range(80):
        inst = random_instance(seed)
        assert parse_instance(write_instance(inst)) == inst


def test_invariants_rejected():
    with pytest.raises(ValueError):
        PdsInstance(2, [(0, 0)])
    with pytest.raises(ValueError):
        PdsInstance(2, [(0, 5)])
    with pytest.raises(ValueError):
        PdsInstance(2, pre_selected=[0], excluded=[0])


@pytest.mark.parametrize("labels", [{0: "bus 1"}, {0: ""}, {0: "a#b"},
                                    {0: "a\tb"}, {5: "x"}, {-1: "x"}])
def test_labels_outside_the_pds_grammar_rejected(labels):
    # Each of these would be written as a line parse_instance rejects or
    # reads back as another instance.
    with pytest.raises(ValueError):
        PdsInstance(2, [(0, 1)], labels=labels)


def test_generate_random_basic():
    inst = generate_random(5, 0, 0.0, seed=1)
    assert inst.n == 5 and inst.m == 0 and all(inst.propagating)
    k4 = generate_random(4, 6, 0.0, seed=7)
    assert k4.m == 6  # complete graph forced
    assert all(len(k4.adj[v]) == 3 for v in range(4))


def test_generate_random_deterministic():
    # random() of an int seed is the same on every supported Python.
    inst = generate_random(7, 9, 0.5, seed=0)
    assert inst.edges == ((0, 5), (1, 2), (1, 3), (1, 4), (1, 6), (2, 5),
                          (2, 6), (4, 6), (5, 6))
    assert inst.propagating == (True, True, False, False, True, False, True)


def _generate_by_enumeration(n, m, frac_nonprop, seed):
    """`generate_random` by listing every vertex pair and indexing it."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pairs[i] for i in _floyd(rng, m, len(pairs))]
    nonprop = _floyd(rng, int(frac_nonprop * n), n)
    return PdsInstance(n, edges, [v not in nonprop for v in range(n)])


def test_generate_random_matches_pair_enumeration():
    for n in range(16):
        max_m = n * (n - 1) // 2
        for m in {0, min(1, max_m), max(0, n - 1), max_m}:
            for frac in (0.0, 0.5):
                for seed in range(5):
                    inst = generate_random(n, m, frac, seed)
                    assert inst == _generate_by_enumeration(n, m, frac, seed)
                    assert inst.m == m and inst.propagating.count(False) \
                        == int(frac * n), (n, m, frac, seed)


def test_generate_random_guard():
    for n, m, frac in [(3, 4, 0.0), (5, -1, 0.0), (5, 3, -0.1), (5, 3, 1.5)]:
        with pytest.raises(ValueError):
            generate_random(n, m, frac, seed=0)
    assert cli.main(["gen", "5", "-1"]) == 1
