import hashlib
import json

import pytest

from etskit import cli, search
from etskit.normal import from_normal
from etskit.lss import MAX_K, enumerate_tanner_cycles
from etskit.search import (
    GUARANTEED,
    GUARANTEED_PARTIAL,
    NONEXISTENT,
    UNCOVERED,
    coverage_query,
    cycle_seeds,
    find_etss,
)
from etskit.structgen import ClassSpec
from etskit.tables import NA, get_table
from etskit.tanner import TannerGraph, classify
from helpers import (
    frontier_sets,
    pool_ets_up_to,
    random_tanner,
    sets_by_class,
    to_alist,
    tutte_coxeter,
)


def test_coverage_examples():
    assert coverage_query(ClassSpec(3, 6, 8, 2), 6 + 8) == GUARANTEED_PARTIAL
    assert coverage_query(ClassSpec(4, 8, 8, 0), 8) == GUARANTEED
    assert coverage_query(ClassSpec(6, 8, 9, 10), 20) == NONEXISTENT
    assert coverage_query(ClassSpec(3, 6, 6, 0), 6) == UNCOVERED
    assert coverage_query(ClassSpec(3, 6, 8, 4), 18) == GUARANTEED_PARTIAL
    assert coverage_query(ClassSpec(3, 8, 9, 3), 14) == GUARANTEED


def test_coverage_out_of_scope():
    with pytest.raises(KeyError):
        coverage_query(ClassSpec(5, 6, 4, 10), 10)


def test_guaranteed_iff_no_na_and_window_covers():
    from etskit.tables import TABLES

    for (dl, g), table in TABLES.items():
        for (a, b), row in table.rows.items():
            labels = row["ts"]
            numeric = [x for x in labels if isinstance(x, int)]
            window = g + 12
            verdict = coverage_query(ClassSpec(dl, g, a, b), window)
            if NA in labels:
                assert verdict == GUARANTEED_PARTIAL
            elif numeric and max(numeric) <= window:
                assert verdict == GUARANTEED


def test_cycle_seeds_are_the_classify_pool():
    # the one popcount test keeps exactly the cycle sets that ``classify``
    # finds elementary and in the pool, with its b, in the enumerator's order
    codes = [
        random_tanner(20, 3, 30, seed=1, girth_exactly=6),
        random_tanner(16, 3, 12, seed=1),
        random_tanner(18, 4, 44, seed=2, girth_exactly=6),
        random_tanner(16, 4, 20, seed=1),
        tutte_coxeter(),
    ]
    offered = rejected = 0
    for g in codes:
        for max_len in range(int(g.girth), int(g.girth) + 5, 2):
            cycles = enumerate_tanner_cycles(g, max_len)
            for k in (4, MAX_K):
                want = []
                for length in sorted(cycles):
                    for members in cycles[length]:
                        if len(members) <= k:
                            offered += 1
                            rec = classify(g, members)
                            if rec.elementary and rec.in_t:
                                want.append((rec.members, rec.b))
                            else:
                                rejected += 1
                assert list(cycle_seeds(g, cycles, k)) == want, (g.key, max_len, k)
    assert 0 < rejected < offered


def test_find_etss_on_expanded_structure(ets62_normal):
    g = from_normal(ets62_normal, 4)
    report = find_etss(g, k=6, max_len=6)
    assert tuple(range(6)) in report.frontier.by_size.get(6, ())
    by_class = {(c.a, c.b): c for c in report.classes}
    assert by_class[(6, 2)].count == 1
    assert by_class[(6, 2)].guarantee == GUARANTEED


def test_find_etss_tree_is_empty():
    tree = TannerGraph.from_var_adj([(0, 1, 2), (0, 3, 4), (1, 5, 6)], 7)
    report = find_etss(tree, k=6, max_len=10)
    assert report.classes == [] and len(report.frontier) == 0
    # a window far beyond the tree's depth ends as soon as the BFS does
    assert len(find_etss(tree, k=6, max_len=10**9).frontier) == 0


def test_find_etss_parameter_errors(ets54):
    with pytest.raises(ValueError):
        find_etss(ets54, k=13, max_len=6)
    with pytest.raises(ValueError):
        find_etss(ets54, k=6, max_len=4)
    with pytest.raises(ValueError):
        find_etss(ets54, k=6, max_len=6 + 14)


def test_find_etss_monotone_in_max_len():
    g = random_tanner(20, 3, 30, seed=42, girth_exactly=6)
    small = find_etss(g, k=6, max_len=6).frontier
    large = find_etss(g, k=6, max_len=10).frontier
    assert set(frontier_sets(small)) <= set(frontier_sets(large))


def test_find_etss_matches_exhaustive_on_guaranteed_classes():
    checked_classes = 0
    for dl, seed, nv, nc, k in (
        (3, 1, 20, 30, 6), (3, 3, 22, 34, 6), (3, 8, 24, 36, 6), (4, 1, 16, 24, 7),
    ):
        g = random_tanner(nv, dl, nc, seed=seed, girth_exactly=6)
        max_len = 6 + 4
        report = find_etss(g, k=k, max_len=max_len)
        frontier = report.frontier
        assert frontier.by_size.get(k), (dl, seed)
        found = sets_by_class(frontier)
        assert {(c.a, c.b): c.count for c in report.classes} == {
            cls: len(sets) for cls, sets in found.items()
        }
        brute = {}
        for members, b in pool_ets_up_to(g, k):
            brute.setdefault((len(members), b), set()).add(members)
        table = get_table(dl, 6)
        for (a, b), sets in brute.items():
            if not table.in_scope(a, b):
                continue
            if coverage_query(ClassSpec(dl, 6, a, b), max_len) != GUARANTEED:
                continue
            assert found.get((a, b), set()) == sets, (seed, a, b)
            checked_classes += 1
        # soundness both ways: everything reported is a valid pool ETS
        for (a, b), sets in found.items():
            for members in sets:
                rec = classify(g, members)
                assert rec.elementary and rec.in_t
                assert (rec.a, rec.b) == (a, b)
    assert checked_classes >= 6


def test_find_etss_on_girth8_code():
    g = tutte_coxeter()
    assert g.girth == 8
    report = find_etss(g, k=6, max_len=12)
    frontier = report.frontier
    found = {(c.a, c.b): c for c in report.classes}
    found_sets = sets_by_class(frontier)
    brute = {}
    for members, b in pool_ets_up_to(g, 6):
        brute.setdefault((len(members), b), set()).add(members)
    table = get_table(3, 8)
    for (a, b), sets in brute.items():
        if table.in_scope(a, b) and coverage_query(
            ClassSpec(3, 8, a, b), 12
        ) == GUARANTEED:
            assert found_sets[(a, b)] == sets
    # (4,4) sets are exactly the 8-cycle variable sets; frozen from the
    # exhaustive-subsets oracle above
    assert found[(4, 4)].count == 90
    assert found[(6, 0)].count == 10


def test_small_k_on_girth8_code_is_empty():
    g = tutte_coxeter()
    report = find_etss(g, k=3, max_len=8)
    assert report.classes == []


def test_report_json_shape(ets62_normal, tmp_path):
    g = from_normal(ets62_normal, 4)
    report = find_etss(g, k=6, max_len=6, code_id="ets62")
    assert "sets" not in json.loads(report.to_json())
    data = json.loads(report.to_json(sets=True))
    assert data["code"] == "ets62"
    assert data["dl"] == 4 and data["g"] == 6
    assert data["k"] == 6 and data["max_len"] == 6
    assert {"a", "b", "count", "guarantee"} <= set(data["classes"][0])
    assert all({"a", "b", "members"} <= set(s) for s in data["sets"])


def test_report_set_orders(ets62_normal):
    # JSON ``sets`` run by (a, b, members); ``--sets-out`` lines by (a, members)
    g = from_normal(ets62_normal, 4)
    report = find_etss(g, k=6, max_len=6)
    size4 = [(4, 6, [0, 2, 3, 5]), (4, 6, [0, 2, 4, 5]), (4, 6, [1, 2, 3, 4]),
             (4, 6, [1, 3, 4, 5])]
    data = json.loads(report.to_json(sets=True))
    sets = [(s["a"], s["b"], s["members"]) for s in data["sets"]]
    assert [s for s in sets if s[0] == 4] == [(4, 4, [2, 3, 4, 5])] + size4
    lines = [ln for ln in report.export_lines() if ln.startswith("4\t")]
    assert lines == [f"4\t6\t{','.join(map(str, m))}" for _, _, m in size4] + [
        "4\t4\t2,3,4,5"
    ]


# sha256 of each search's ``--sets-out`` lines followed by its
# ``--json --sets`` report, taken from an expansion that listed every mask
# through ``tanner.mask_bits`` and an export that joined ``str`` members;
# a rewrite of either must keep these bytes
PINNED_SEARCHES = {
    # sets up to size 11, so two-digit sizes and k near MAX_K
    ((30, 4, 40, 3), 11, 8): "e0ea735402a503197271c3a85c64f5634585f2e31acab55757c2dfead7af00de",
    # variable ids up to 139, so members of one, two and three digits
    ((140, 3, 100, 5), 8, 8): "ab6e02d9722ab9e3d828121eebe168e4533a9702987eef036f0fd0c44040f064",
}


@pytest.mark.parametrize("code,k,max_len", list(PINNED_SEARCHES))
def test_search_outputs_pinned(code, k, max_len):
    report = find_etss(random_tanner(*code), k=k, max_len=max_len)
    text = "".join(line + "\n" for line in report.export_lines())
    text += report.to_json(sets=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SEARCHES[code, k, max_len]


def test_girth_above_tables_is_uncharacterized():
    # girth-12 cubic bipartite fragment: expansion of a long even cycle
    rows = [(i, (i + 1) % 9, 9 + i) for i in range(9)]
    g = TannerGraph.from_var_adj(rows, 18)
    assert g.girth == 18
    assert get_table(3, g.girth) is None


def test_set_in_nonexistent_class_raises(monkeypatch, ets62_normal, tmp_path):
    # a set found in a class the table proves empty is an internal error,
    # never a verdict in the report, and not a usage error of the CLI
    monkeypatch.setattr(search, "coverage_query", lambda spec, max_len: NONEXISTENT)
    g = from_normal(ets62_normal, 4)
    # (4,4) is the first class found that the d_l=4 table covers
    with pytest.raises(RuntimeError, match=r"class \(4,4\)"):
        find_etss(g, k=6, max_len=6)
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(g))
    with pytest.raises(RuntimeError, match="nonexistent"):
        cli.main(["search", "--alist", str(alist), "--k", "6",
                  "--max-cycle-len", "6", "--out", str(tmp_path / "r.json")])
