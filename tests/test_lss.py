import random

import pytest

from etskit.lss import classify_lss, enumerate_tanner_cycles, expand_to_k, lss_label_of
from etskit.normal import CycleCensus, from_normal
from etskit.structgen import NA
from etskit.tanner import TannerGraph, classify
from helpers import (
    assert_nested,
    brute_classify,
    brute_one_expansion,
    cycle_seeds,
    frontier_sets,
    one_expansion,
    random_tanner,
    tanner_lss_label,
    tutte_coxeter,
    unpruned_tanner_cycles,
)


def test_one_expansion_ets62(ets62_normal):
    g = from_normal(ets62_normal, 4)
    grown = one_expansion(g, [2, 3, 5])
    assert set(grown) == {(0, 2, 3, 5), (2, 3, 4, 5)}
    classes = sorted(
        (classify(g, s).a, classify(g, s).b) for s in grown
    )
    assert classes == [(4, 4), (4, 6)]


def test_one_expansion_of_zero_b_set_is_empty(prism):
    g = from_normal(prism, 3)
    assert one_expansion(g, range(6)) == {}


def test_one_expansion_requires_pool_membership(prism):
    g = from_normal(prism, 3)
    with pytest.raises(ValueError, match="not an elementary set"):
        one_expansion(g, [0, 4])


def test_one_expansion_matches_brute_force():
    rng = random.Random(31)
    graphs = 0
    comparisons = 0
    seed = 0
    while graphs < 30:
        seed += 1
        dl = rng.choice((3, 3, 4))
        g = random_tanner(18, dl, 30 if dl == 3 else 40, seed=seed)
        pool_seeds = cycle_seeds(g, int(g.girth))
        if not pool_seeds:
            continue
        graphs += 1
        for rec in pool_seeds[:4]:
            s = rec.members
            assert set(one_expansion(g, s)) == brute_one_expansion(g, s)
            comparisons += 1
    assert comparisons >= 30
    # dense codes, with checks of degree 4 and more, where a candidate often
    # also touches a satisfied check: every set of a k=6 frontier
    for dl, nc in ((3, 12), (4, 20)):
        g = random_tanner(16, dl, nc, seed=1)
        assert max(map(len, g.chk_adj)) >= 4
        frontier = expand_to_k(g, cycle_seeds(g, int(g.girth) + 4), k=6)
        assert frontier.by_size.get(6), dl
        for s in frontier_sets(frontier):
            assert set(one_expansion(g, s)) == brute_one_expansion(g, s), (dl, s)


def test_expand_growth_chain(growth_chain_graph):
    g = growth_chain_graph
    seeds = [classify(g, (0, 1, 2))]
    frontier = expand_to_k(g, seeds, k=5)
    assert (0, 1, 2, 3) in frontier.by_size.get(4, ())
    rec = classify(g, (0, 1, 2, 3))
    assert (rec.a, rec.b) == (4, 2)
    assert (0, 1, 2, 3, 4) in frontier.by_size.get(5, ())
    rec = classify(g, (0, 1, 2, 3, 4))
    assert (rec.a, rec.b) == (5, 1)
    assert_nested(frontier, seeds)


def test_expansion_records_each_sets_b():
    # the b carried through the layers equals a naive per-check count, and
    # the naive counts also find every set elementary and in the pool: the
    # b alone cannot see a degree-3 check, which counts as odd
    checked = 0
    for dl, nv, nc in ((3, 24, 24), (4, 16, 24)):
        g = random_tanner(nv, dl, nc, seed=11, girth_exactly=6)
        frontier = expand_to_k(g, cycle_seeds(g, 10), k=7)
        assert frontier.by_size.get(7), dl
        for layer in frontier.by_size.values():
            for members, b in layer.items():
                # keys are built by inserting v into the parent's tuple
                assert all(x < y for x, y in zip(members, members[1:])), members
                rec = brute_classify(g, members)
                assert (rec.b, rec.elementary, rec.in_t) == (b, True, True), (dl, members)
                checked += 1
    assert checked >= 500


def test_expand_empty_seed_list(growth_chain_graph):
    frontier = expand_to_k(growth_chain_graph, [], k=5)
    assert len(frontier) == 0


def test_expand_blocked_chain(blocked_chain_graph):
    g = blocked_chain_graph
    full = tuple(range(6))
    blocked = expand_to_k(g, [classify(g, (0, 1, 2))], k=6)
    assert full not in blocked.by_size.get(6, ())
    assert len(blocked) == 1  # the triangle cannot grow at all
    seeds = [classify(g, (2, 3, 4, 5))]
    via_cycle = expand_to_k(g, seeds, k=6)
    assert full in via_cycle.by_size.get(6, ())
    assert (0, 2, 3, 4, 5) in via_cycle.by_size.get(5, ())
    assert_nested(via_cycle, seeds)


def test_expand_rejects_bad_seed(prism):
    g = from_normal(prism, 3)
    with pytest.raises(ValueError, match="seed 1"):
        expand_to_k(g, [classify(g, (0, 1, 2)), classify(g, (0, 4))], k=4)


def test_expand_k_cap(prism):
    g = from_normal(prism, 3)
    with pytest.raises(ValueError, match="cap"):
        expand_to_k(g, [classify(g, (0, 1, 2))], k=13)


def test_candidate_scan_bound():
    # the candidates of a one-step expansion, the variables of the set's
    # unsatisfied checks, are structurally bounded by b * (d_r - 1)
    rng = random.Random(5)
    for seed in range(12):
        g = random_tanner(16, 3, 24, seed=700 + seed)
        cycles = enumerate_tanner_cycles(g, int(g.girth))
        for sets in cycles.values():
            for s in sets[:3]:
                rec = classify(g, s)
                if not (rec.elementary and rec.in_t):
                    continue
                touched = set()
                smask = set(s)
                split_odd = [
                    c for c in range(g.num_chk)
                    if sum(1 for v in g.chk_adj[c] if v in smask) % 2 == 1
                ]
                for c in split_odd:
                    touched.update(v for v in g.chk_adj[c] if v not in smask)
                assert len(touched) <= rec.b * (max(map(len, g.chk_adj)) - 1)


def test_enumerate_cycles_examples(ets54, ets54_normal, k33):
    sets6 = enumerate_tanner_cycles(ets54, 6)
    assert set(sets6) == {6}
    assert all(len(s) == 3 for s in sets6[6])
    # 6-cycles of the expansion are exactly the triangles of the structure
    assert set(sets6[6]) == set(CycleCensus(ets54_normal).node_sets(6))

    tree = TannerGraph.from_var_adj([(0, 1, 2), (0, 3, 4), (1, 5, 6)], 7)
    assert enumerate_tanner_cycles(tree, 10) == {}
    # an acyclic code has no window cap: the levels stop at the first empty one
    assert enumerate_tanner_cycles(tree, 10**9) == {}

    g = from_normal(k33, 3)
    assert enumerate_tanner_cycles(g, 8 + 12).get(6) is None
    assert len(enumerate_tanner_cycles(g, 8)[8]) == 9


def test_enumerate_cycles_range_errors(ets54):
    with pytest.raises(ValueError, match="below girth"):
        enumerate_tanner_cycles(ets54, 4)
    with pytest.raises(ValueError, match="cap"):
        enumerate_tanner_cycles(ets54, 6 + 14)


def test_enumerate_cycles_dedupes_node_sets():
    # K4 as normal graph: three distinct 8-cycles share one node set
    from etskit.normal import NormalGraph

    k4 = NormalGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    census = CycleCensus(k4)
    assert census.counts[8] == 3
    assert len(census.node_sets(8)) == 1
    g = from_normal(k4, 3)
    assert len(enumerate_tanner_cycles(g, 8)[8]) == 1


def test_enumerate_cycles_matches_unpruned_oracle():
    codes = [random_tanner(30, 3, 30, seed=s, girth_exactly=6) for s in (1, 2, 3)]
    codes.append(random_tanner(24, 4, 36, seed=1, girth_exactly=6))
    codes += [random_tanner(30, 3, 60, seed=s, girth_exactly=8) for s in (1, 2, 3)]
    tutte = tutte_coxeter()
    codes.append(tutte)
    assert {g.girth for g in codes} == {6, 8}
    for g in codes:
        girth = int(g.girth)
        windows = [girth, girth + 1, girth + 2, girth + 3, girth + 4, girth + 6]
        if g is tutte:
            windows.append(girth + 12)  # the cap window
        for max_len in windows:
            assert enumerate_tanner_cycles(g, max_len) == unpruned_tanner_cycles(
                g, max_len
            ), (g.key, max_len)


def test_enumerate_cycles_window_invariance():
    # the cycles of each length do not depend on the window they are listed in
    for g in (
        random_tanner(30, 3, 30, seed=1, girth_exactly=6),
        random_tanner(30, 3, 60, seed=3, girth_exactly=8),
    ):
        girth = int(g.girth)
        wide = enumerate_tanner_cycles(g, girth + 6)
        assert sorted(wide) == list(range(girth, girth + 7, 2))
        for length in wide:
            assert enumerate_tanner_cycles(g, length)[length] == wide[length]


def test_classify_lss_6_6_catalog(catalogs):
    cat = catalogs(4, 6, 6, 6)
    assert cat.label_histogram() == {6: 8, 8: 3}
    assert cat.label_histogram(absorbing_only=True) == {8: 2}
    for entry in cat.entries:
        assert classify_lss(entry) == entry.lss


def test_classify_lss_na_cases(catalogs):
    assert catalogs(3, 6, 8, 2).label_histogram()[NA] == 2
    # an NA structure is invisible to expansion from any of its cycles
    entry = next(e for e in catalogs(3, 6, 8, 2).entries if e.lss == NA)
    n = entry.normal_graph()
    g = from_normal(n, 3)
    census = CycleCensus(n)
    full = tuple(range(n.n))
    for length in census.tanner_lengths:
        seeds = [classify(g, s) for s in census.node_sets(length)]
        frontier = expand_to_k(g, seeds, k=n.n)
        assert full not in frontier.by_size.get(n.n, ())


def test_labels_monotone(catalogs):
    for entry in catalogs(3, 6, 6, 4).entries:
        if entry.lss == NA:
            continue
        n = entry.normal_graph()
        g = from_normal(n, 3)
        census = CycleCensus(n)
        full = tuple(range(n.n))
        for length in census.tanner_lengths:
            seeds = [classify(g, s) for s in census.node_sets(length)]
            frontier = expand_to_k(g, seeds, k=n.n)
            if length < entry.lss:
                assert full not in frontier.by_size.get(n.n, ())
            elif length == entry.lss:
                assert full in frontier.by_size.get(n.n, ())


def test_prop2_every_six_cycle_expands(catalogs):
    cat = catalogs(4, 6, 6, 2)
    assert cat.label_histogram() == {6: 3}
    for entry in cat.entries:
        n = entry.normal_graph()
        g = from_normal(n, 4)
        census = CycleCensus(n)
        full = tuple(range(6))
        for seed in census.node_sets(6):
            frontier = expand_to_k(g, [classify(g, seed)], k=6)
            assert full in frontier.by_size.get(6, ()), (entry.form.hex(), seed)


def test_pure_cycle_structure_is_its_own_label(catalogs):
    cat = catalogs(3, 6, 5, 5)
    assert [e.lss for e in cat.entries] == [10]
    assert lss_label_of(cat.entries[0].normal_graph(), 3) == 10


def test_labels_match_tanner_expansion_oracle(catalogs):
    # NA-bearing d3g6 cells, dense d5/d6 cells and a girth-8 cell
    cells = [(3, 6, 8, 4), (3, 6, 9, 5), (5, 6, 8, 6), (6, 6, 8, 10), (3, 8, 9, 3)]
    labels = set()
    checked = 0
    for d_l, g, a, b in cells:
        for entry in catalogs(d_l, g, a, b).entries:
            n = entry.normal_graph()
            want = tanner_lss_label(n, d_l)
            assert lss_label_of(n, d_l) == want == entry.lss, entry.form.hex()
            labels.add(want)
            checked += 1
    assert checked == 577
    assert NA in labels and len(labels) >= 4


def test_d4g8_9_8_absorbing_labels_match_tanner_oracle():
    # `etskit verify --dl 4 --girth 8` finds absorbing labels {10:3} in
    # (9,8) where the shipped table row has {8:3}; both labellers give 10 to
    # all three absorbing structures, so the difference lies in that row
    from etskit.canon import CanonicalForm
    from helpers import normal_b

    for hexform in ("09070ece4a00", "0907166cf000", "090716ae4a00"):
        n = CanonicalForm.from_hex(hexform).decode()
        assert n.n == 9 and normal_b(n, 4) == 8
        assert all(2 * d > 4 for d in n.degrees), hexform  # absorbing
        assert lss_label_of(n, 4) == tanner_lss_label(n, 4) == 10, hexform
