import itertools
import math
import random

import pytest

from etskit.errors import AlistParseError, BindingError, GraphConstraintError
from etskit.normal import from_normal, NormalGraph
from etskit.tanner import (
    TannerGraph,
    classify,
    gamma_split,
    mask_connected,
    parse_alist,
)
from helpers import (
    brute_classify,
    brute_gamma,
    cycle_seeds,
    frontier_sets,
    random_tanner,
    to_alist,
    unpruned_tanner_cycles,
)


def test_parse_accepts_5_4_structure(ets54):
    text = to_alist(ets54)
    g = parse_alist(text)
    assert g.num_var == 5
    assert g.num_chk == 12
    assert g.d_l == 4
    assert g.girth == 6
    degs = sorted(len(c) for c in g.chk_adj)
    assert degs.count(1) == 4 and degs.count(2) == 8


def test_parse_rejects_single_six_cycle():
    # 3 variables, 3 checks, every variable degree 2
    text = "3 3\n2 2\n2 2 2\n2 2 2\n1 2\n2 3\n1 3\n1 3\n1 2\n2 3\n"
    with pytest.raises(AlistParseError, match="left degree 2"):
        parse_alist(text)


def test_parse_rejects_parallel_edge():
    text = "2 3\n3 2\n3 3\n2 2 2\n1 2 2\n1 2 3\n1 2\n1 2\n2\n"
    with pytest.raises(AlistParseError, match="parallel edge") as err:
        parse_alist(text)
    assert err.value.line == 5


def test_parse_rejects_mismatched_degree():
    text = "2 3\n3 2\n3 3\n2 2 2\n1 2 0\n1 2 3\n1 2\n1 2\n2\n"
    with pytest.raises(AlistParseError, match="degree list says 3"):
        parse_alist(text)


def test_parse_rejects_inconsistent_check_lists(ets54):
    lines = to_alist(ets54).splitlines()
    # swap two check neighbor lines so they disagree with the columns
    lines[4 + 5 + 0], lines[4 + 5 + 1] = lines[4 + 5 + 1], lines[4 + 5 + 0]
    with pytest.raises(AlistParseError, match="disagrees"):
        parse_alist("\n".join(lines) + "\n")


def _alist_lines(rows, num_chk):
    """Alist lines of any variable adjacency, uniform or not, unpadded."""
    chk = [[v for v, row in enumerate(rows) if c in row] for c in range(num_chk)]
    return (
        [f"{len(rows)} {num_chk}", f"{max(map(len, rows))} {max(map(len, chk))}",
         " ".join(str(len(r)) for r in rows), " ".join(str(len(c)) for c in chk)]
        + [" ".join(str(c + 1) for c in row) for row in rows]
        + [" ".join(str(v + 1) for v in c) for c in chk]
    )


def test_parse_reports_real_lines_after_blank_lines(ets54):
    # two blank lines before the header move every line down by two
    rows = [list(row) for row in ets54.var_adj]
    padded = ["", ""] + _alist_lines(rows, ets54.num_chk)
    chk_line = 2 + 4 + len(rows) + 1  # 1-based line of check 1
    padded[chk_line - 1], padded[chk_line] = padded[chk_line], padded[chk_line - 1]
    with pytest.raises(AlistParseError, match="check 1 neighbor list disagrees") as err:
        parse_alist("\n".join(padded) + "\n")
    assert err.value.line == chk_line

    rows[2].pop(0)  # a degree-2 check of variable 3 becomes degree 1
    padded = ["", ""] + _alist_lines(rows, ets54.num_chk)
    with pytest.raises(AlistParseError, match="non-uniform variable degree") as err:
        parse_alist("\n".join(padded) + "\n")
    assert err.value.line == 2 + 4 + 3  # the neighbour list of variable 3


def test_parse_graph_constraints_on_header_line():
    # two variables sharing two checks, header on line 2
    rows = [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)]
    with pytest.raises(AlistParseError, match="girth 4") as err:
        parse_alist("\n".join([""] + _alist_lines(rows, 6)) + "\n")
    assert err.value.line == 2


def test_parse_rejects_girth_four():
    # two variables sharing two checks
    rows = [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)]
    with pytest.raises(GraphConstraintError, match="girth 4"):
        TannerGraph.from_var_adj(rows, 6)


def test_parse_malformed_header():
    with pytest.raises(AlistParseError) as err:
        parse_alist("3\n")
    assert err.value.line == 1


# K4 with d_l = 3: a (4,0) structure; check c joins the ends of edge c
_K4_ALIST = [
    "4 6", "3 2", "3 3 3 3", "2 2 2 2 2 2",
    "1 2 3", "1 4 5", "2 4 6", "3 5 6",
    "1 2", "1 3", "1 4", "2 3", "2 4", "3 4",
]


def _k4_with(lines: dict[int, str]) -> str:
    """The K4 alist with the given 1-based lines replaced."""
    out = list(_K4_ALIST)
    for lineno, text in lines.items():
        out[lineno - 1] = text
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("\n\n", 1, "empty alist"),
        ("\n".join(_K4_ALIST[:8]) + "\n", 9,
         "unexpected end of file, expected neighbor list of check 1"),
        (_k4_with({6: "1 x 5"}), 6, "non-integer token in ['1', 'x', '5']"),
        # int() accepts each of these; a token is a run of ASCII digits
        (_k4_with({6: "1 +4 5"}), 6, "non-integer token in ['1', '+4', '5']"),
        (_k4_with({6: "1 0_4 5"}), 6, "non-integer token in ['1', '0_4', '5']"),
        (_k4_with({6: "1 \u0664 5"}), 6, "non-integer token in ['1', '\u0664', '5']"),
        (_k4_with({6: "1 4 -5"}), 6, "non-integer token in ['1', '4', '-5']"),
        (_k4_with({1: "4"}), 1, "malformed header, expected 'n m'"),
        (_k4_with({2: "3"}), 2, "malformed max-degree line"),
        (_k4_with({2: "9 9"}), 2, "max degrees 9 9, but the degree lists reach 3 2"),
        (_k4_with({3: "3 3 3"}), 3, "expected 4 variable degrees, got 3"),
        (_k4_with({4: "2 2 2 2 2"}), 4, "expected 6 check degrees, got 5"),
        (_k4_with({6: "1 4"}), 6, "variable 2 lists 2 checks, degree list says 3"),
        (_k4_with({6: "1 4 7"}), 6, "check index 7 out of range 1..6"),
        (_k4_with({6: "1 4 4"}), 6, "parallel edge: variable 2 repeats a check"),
        (_k4_with({11: "1"}), 11, "check 3 lists 1 variables, degree list says 2"),
        (_k4_with({11: "1 5"}), 11, "variable index 5 out of range 1..4"),
        (_k4_with({11: "1 1"}), 11, "parallel edge: check 3 repeats a variable"),
        (_k4_with({3: "3 2 3 3", 6: "1 4"}), 6, "non-uniform variable degree: variable 2"),
        (_k4_with({11: "2 4"}), 11, "check 3 neighbor list disagrees with variable lists"),
        (_k4_with({}) + "7 7 7\n", 15, "extra line after the last check neighbor list"),
        ("\n3 3\n2 2\n2 2 2\n2 2 2\n1 2\n2 3\n1 3\n1 3\n1 2\n2 3\n", 2,
         "left degree 2 below minimum 3"),
        ("\n".join(_alist_lines([(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)], 6)), 1,
         "girth 4 below minimum 6"),
    ],
)
def test_parse_alist_diagnostics(text, line, message):
    assert parse_alist(_k4_with({})).num_var == 4  # the unchanged file is valid
    with pytest.raises(AlistParseError) as err:
        parse_alist(text)
    assert (err.value.line, err.value.message) == (line, message)


def test_girth_of_acyclic_graph_is_infinite():
    # star: three variables meeting at one check, leaves elsewhere
    rows = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]
    g = TannerGraph.from_var_adj(rows, 7)
    assert g.girth == math.inf


def test_girth_of_k33_expansion_is_8(k33):
    assert from_normal(k33, 3).girth == 8


def test_girth_matches_normal_cycles_on_random_graphs():
    # the cycle DFS shares no code with the girth BFS: it finds a cycle of
    # the girth's length and none shorter
    for seed in range(20):
        g = random_tanner(12, 3, 18, seed=seed)
        assert min(unpruned_tanner_cycles(g, int(g.girth))) == g.girth
        assert g.girth >= 6


def test_gamma_split_full_set(ets54):
    split = gamma_split(ets54, range(5))
    assert len(split.odd) == 4
    assert len(split.even) == 8


def test_gamma_split_single_variable(ets54):
    split = gamma_split(ets54, [0])
    assert len(split.odd) == ets54.d_l
    assert not split.even


def test_gamma_split_six_cycle_in_cubic_graph(prism):
    g = from_normal(prism, 3)
    split = gamma_split(g, [0, 1, 2])
    assert len(split.odd) == 3
    assert len(split.even) == 3


def test_gamma_split_brute_force_all_subsets():
    g = random_tanner(12, 3, 16, seed=5)
    for size in range(1, 13):
        for combo in itertools.combinations(range(12), size):
            split = gamma_split(g, combo)
            odd, even = brute_gamma(g, combo)
            assert set(split.odd) == odd
            assert set(split.even) == even
        if size >= 4:  # 2^12 subsets is overkill; spot the rest randomly
            break
    rng = random.Random(0)
    for _ in range(500):
        combo = rng.sample(range(12), rng.randrange(1, 13))
        split = gamma_split(g, combo)
        odd, even = brute_gamma(g, combo)
        assert set(split.odd) == odd and set(split.even) == even


def test_classify_full_record(ets54):
    rec = classify(ets54, range(5))
    assert (rec.a, rec.b) == (5, 4)
    assert rec.elementary and rec.in_t and rec.absorbing


def test_classify_is_pure(ets54):
    assert classify(ets54, [4, 0, 2, 1, 3]) == classify(ets54, range(5))


def test_classify_nonabsorbing_with_degree2_node(nonabsorbing66):
    g = from_normal(nonabsorbing66, 4)
    rec = classify(g, range(6))
    assert (rec.a, rec.b) == (6, 6)
    assert rec.elementary and rec.in_t
    assert not rec.absorbing


def test_classify_matches_brute_oracle():
    rng = random.Random(7)
    for d_l, num_chk in ((3, 12), (4, 20), (5, 28)):
        g = random_tanner(16, d_l, num_chk, seed=1)
        # every subset of size <= 4 holds each check of degree 3 and 4 whole
        assert max(map(len, g.chk_adj)) >= 4
        for size in range(1, 5):
            for combo in itertools.combinations(range(16), size):
                assert classify(g, combo) == brute_classify(g, combo)
        for _ in range(2000):
            combo = rng.sample(range(16), rng.randrange(1, 17))
            assert classify(g, combo) == brute_classify(g, combo)


def test_classify_joins_parts_through_odd_check():
    # three 6-cycles on {0,1,2}, {3,4,5}, {6,7,8}, joined only by one
    # degree-3 check on 0, 3 and 6; every other variable has a free check
    rows = []
    for part in range(3):
        c, free = 3 * part, 10 + 2 * part
        rows += [(c, c + 2, 9), (c, c + 1, free), (c + 1, c + 2, free + 1)]
    g = TannerGraph.from_var_adj(rows, 16)
    assert g.girth == 6
    rec = classify(g, range(9))
    assert (rec.a, rec.b) == (9, 7)
    assert not rec.elementary and rec.in_t and rec.absorbing
    assert rec == brute_classify(g, range(9))


def test_classify_d3_pool_implies_absorbing():
    from etskit.lss import expand_to_k

    rng = random.Random(2)
    checked = 0
    for seed in range(12):
        g = random_tanner(14, 3, 20, seed=100 + seed)
        # random subsets rarely land in the pool; cycle expansions always do
        if g.girth <= 10:
            frontier = expand_to_k(g, cycle_seeds(g, int(g.girth) + 2), k=7)
            for members in frontier_sets(frontier):
                rec = classify(g, members)
                assert rec.in_t
                assert rec.absorbing
                checked += 1
        for _ in range(50):
            combo = rng.sample(range(14), rng.randrange(2, 8))
            rec = classify(g, combo)
            if rec.in_t:
                checked += 1
                assert rec.absorbing
    assert checked > 50


def test_edge_count_identity():
    rng = random.Random(3)
    g = random_tanner(15, 4, 30, seed=9)
    for _ in range(200):
        combo = rng.sample(range(15), rng.randrange(1, 9))
        split = gamma_split(g, combo)
        degs = {}
        for v in combo:
            for c in g.var_adj[v]:
                degs[c] = degs.get(c, 0) + 1
        assert sum(degs.values()) == len(combo) * g.d_l
        rec = classify(g, combo)
        if rec.elementary:
            assert len(split.odd) + 2 * len(split.even) == len(combo) * g.d_l


def test_varset_binding(ets54):
    with pytest.raises(BindingError):
        gamma_split(ets54, [0, 99])
    with pytest.raises(BindingError):
        gamma_split(ets54, [-1])


def test_disconnected_set_not_in_pool(prism):
    g = from_normal(prism, 3)
    # two vertices on opposite triangles sharing no check
    rec = classify(g, [0, 4])
    assert not rec.in_t


def test_mask_connected_uses_only_edges_inside_the_mask():
    # the path 0-1-2-3, and 4 joined to nothing
    adj = [0b0010, 0b0101, 0b1010, 0b0100, 0]
    assert mask_connected(adj, 0b01111)
    assert not mask_connected(adj, 0b11111)
    # {0, 2} is joined through 1 in the whole graph, but not inside {0, 2}
    assert not mask_connected(adj, 0b00101)
    assert mask_connected(adj, 0b00110)
    assert mask_connected(adj, 0b10000)


def test_var_vmask_joins_variables_sharing_a_check(prism):
    g = from_normal(prism, 3)
    for v, mask in enumerate(g.var_vmask):
        joined = {w for c in g.var_adj[v] for w in g.chk_adj[c]}
        assert mask == sum(1 << w for w in joined)
    full = (1 << g.num_var) - 1
    assert mask_connected(g.var_vmask, full)
    # the triangle {0, 1, 2} is connected, {0, 4} is not (see above)
    assert mask_connected(g.var_vmask, 0b111)
    assert not mask_connected(g.var_vmask, 0b10001)


def test_parse_rejects_undecodable_byte_with_its_line(ets54):
    data = to_alist(ets54).encode()
    third = data.index(b"\n", data.index(b"\n") + 1) + 1
    with pytest.raises(AlistParseError) as err:
        parse_alist(data[:third] + b"\xff" + data[third:])
    assert err.value.line == 3
    assert "0xff" in str(err.value)
