import itertools
import random

import pytest

from etskit.errors import GraphConstraintError
from etskit.normal import (
    CycleCensus,
    NormalGraph,
    from_graph6,
    from_normal,
    from_text,
    to_graph6,
    to_text,
)
from etskit.tanner import classify, gamma_split
from helpers import cycles_by_arrangement, dfs_cycle_census, normal_b, to_normal


def test_to_normal_5_4(ets54, ets54_normal):
    assert to_normal(ets54, range(5)) == ets54_normal
    assert ets54_normal.m == 8


def test_to_normal_triangle(prism):
    g = from_normal(prism, 3)
    tri = to_normal(g, [0, 1, 2])
    assert tri.n == 3 and tri.m == 3


def test_to_normal_6_6_has_9_edges(nonabsorbing66):
    g = from_normal(nonabsorbing66, 4)
    n = to_normal(g, range(6))
    assert n.n == 6 and n.m == 9


def test_to_normal_rejects_non_elementary():
    # three variables meeting at a shared check: induced degree 3
    rows = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)]
    from etskit.tanner import TannerGraph

    g = TannerGraph.from_var_adj(rows, 7)
    with pytest.raises(GraphConstraintError, match="not elementary"):
        to_normal(g, [0, 1, 2])


def test_to_normal_rejects_disconnected(prism):
    g = from_normal(prism, 3)
    with pytest.raises(GraphConstraintError, match="disconnected|satisfied"):
        to_normal(g, [0, 4])


def test_from_normal_round_trip(ets54_normal):
    g = from_normal(ets54_normal, 4)
    assert to_normal(g, range(5)) == ets54_normal


def test_from_normal_triangle_girth(prism):
    tri = NormalGraph(3, [(0, 1), (1, 2), (0, 2)])
    g = from_normal(tri, 3)
    assert g.girth == 6
    rec = classify(g, range(3))
    assert (rec.a, rec.b) == (3, 3)


def test_from_normal_degree_cap():
    star = NormalGraph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(GraphConstraintError, match="above left degree"):
        from_normal(star, 2)


def test_round_trip_on_catalog(catalogs):
    for entry in catalogs(4, 6, 6, 2).entries:
        n = entry.form.decode()
        assert to_normal(from_normal(n, 4), range(n.n)) == n


def test_normal_b_examples(ets54_normal):
    assert normal_b(ets54_normal, 4) == 4
    square = NormalGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert normal_b(square, 3) == 4
    k5 = NormalGraph(5, list(itertools.combinations(range(5), 2)))
    assert normal_b(k5, 4) == 0


def test_b_consistency(ets54, ets54_normal):
    assert len(gamma_split(ets54, range(5)).odd) == normal_b(ets54_normal, 4)


def test_cycle_census_triangle():
    tri = NormalGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert CycleCensus(tri).counts == {6: 1}


def test_cycle_census_prism(prism):
    census = CycleCensus(prism)
    assert census.counts[6] == 2
    assert census.counts[8] == 3
    assert census.counts == {6: 2, 8: 3, 10: 6, 12: 3}


def test_cycle_census_k33(k33):
    census = CycleCensus(k33)
    assert 6 not in census.counts
    # every pair of left nodes with every pair of right nodes: nine 8-cycles
    assert census.counts[8] == 9
    assert len(census.node_sets(8)) == 9


def test_cycle_census_matches_arrangement_oracle():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randrange(3, 9)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.55]
        adj = {v: set() for v in range(n)}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        # keep it connected for the NormalGraph contract
        reach = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        if len(reach) != n:
            continue
        g = NormalGraph(n, edges)
        assert dict(CycleCensus(g).counts) == dict(
            cycles_by_arrangement(g)
        )


def test_cycle_census_ten_node_case():
    g = NormalGraph(10, [(i, (i + 1) % 10) for i in range(10)]
                    + [(0, 5), (2, 7)])
    assert dict(CycleCensus(g).counts) == dict(cycles_by_arrangement(g))


def _random_connected(rng, n: int, density: float) -> NormalGraph:
    """A random tree on ``n`` nodes plus each other pair with probability
    ``density``."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {e for e in itertools.combinations(range(n), 2) if rng.random() < density}
    return NormalGraph(n, edges)


def test_cycle_census_matches_dfs_at_every_cap(catalogs):
    rng = random.Random(16)
    graphs = [_random_connected(rng, n, density)
              for n in range(3, 11) for density in (0.1, 0.25, 0.4) for _ in range(3)]
    for cell in ((3, 6, 8, 4), (4, 6, 6, 6), (5, 6, 8, 6), (3, 8, 9, 3)):
        graphs += [e.form.decode() for e in catalogs(*cell).entries]
    lengths = set()
    for g in graphs:
        for cap in range(3, g.n + 1):
            census = CycleCensus(g, max_normal_len=cap)
            counts, sets = dfs_cycle_census(g, cap)
            assert census.counts == counts, (g, cap)
            assert {k: census.node_sets(k) for k in census.tanner_lengths} == sets, (g, cap)
            lengths.update(counts)
    # odd normal lengths (Tanner 6, 10, 14, 18) as well as even ones
    assert set(range(6, 21, 2)) <= lengths


def test_girth_correspondence(catalogs):
    for entry in catalogs(3, 6, 6, 0).entries:
        n = entry.form.decode()
        shortest = min(CycleCensus(n).counts)
        assert from_normal(n, 3).girth == shortest


def test_text_round_trip(prism):
    assert from_text(to_text(prism)) == prism
    with pytest.raises(GraphConstraintError):
        from_text("3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 x\n", "line 1: non-integer token in ['2', 'x']"),
        ("3 2\n\n0 1\n1 +2\n", "line 4: non-integer token in ['1', '+2']"),
        ("3 2\n0 1\n1 \u0662\n", "line 3: non-integer token in ['1', '\u0662']"),
        ("3 2\n0 1\n2 1\n", "line 3: expected an edge 'i j' with i < j < 3"),
        ("3 2\n0 1 2\n1 2\n", "line 2: expected an edge 'i j' with i < j < 3"),
        ("3 1\n0 5\n", "line 2: expected an edge 'i j' with i < j < 3"),
        ("0 0\n", "line 1: normal graph needs at least one node"),
        ("4 2\n0 1\n2 3\n", "line 1: normal graph must be connected"),
        # NormalGraph would drop the repeat and to_text would write "3 2"
        ("3 3\n0 1\n0 1\n1 2\n", "line 3: duplicate of the edge on line 2"),
        ("\n\n3\n", "line 3: expected 'n m' header"),
        ("", "line 1: expected 'n m' header"),
        ("3 2\n0 1\n", "line 1: expected 2 edge lines, got 1"),
    ],
)
def test_text_errors_name_their_line(text, message):
    with pytest.raises(GraphConstraintError) as err:
        from_text(text)
    assert str(err.value) == message


def test_graph6_round_trip(prism, k33, ets54_normal):
    for g in (prism, k33, ets54_normal):
        assert from_graph6(to_graph6(g)) == g
    assert from_graph6(">>graph6<<" + to_graph6(prism)) == prism


def test_graph6_rejects_nonzero_padding():
    # "EJ~o" is a connected 6-node graph: 15 bits in three 6-bit chars, so
    # the last char carries 3 padding bits, which must be zero
    assert to_graph6(from_graph6("EJ~o")) == "EJ~o"
    for bad in ("EJ~p", "EJ~q", "EJ~t"):
        with pytest.raises(GraphConstraintError, match="padding"):
            from_graph6(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty graph6 string"),
        ("?", "unsupported graph6 node count"),  # 0 nodes
        ("~", "unsupported graph6 node count"),  # 63 nodes, or a long-form prefix
        ("EJ~", "graph6 body has 2 chars, expected 3"),
        ("EJ~>", "invalid graph6 character '>'"),
    ],
)
def test_graph6_rejects_malformed_strings(text, message):
    with pytest.raises(GraphConstraintError) as err:
        from_graph6(text)
    assert str(err.value) == message


def test_graph6_refuses_more_than_62_nodes():
    path = NormalGraph(63, [(i, i + 1) for i in range(62)])
    with pytest.raises(GraphConstraintError, match="limited to n <= 62"):
        to_graph6(path)


def test_normal_graph_validation():
    with pytest.raises(GraphConstraintError, match="self-loop"):
        NormalGraph(3, [(0, 0)])
    with pytest.raises(GraphConstraintError, match="connected"):
        NormalGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphConstraintError, match="out of range"):
        NormalGraph(3, [(0, 5)])
    with pytest.raises(GraphConstraintError, match="at least one node"):
        NormalGraph(0, [])
