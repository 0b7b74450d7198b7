import json

import pytest

from etskit import cli, search
from etskit.normal import from_normal
from etskit.search import (
    GUARANTEED,
    GUARANTEED_PARTIAL,
    NONEXISTENT,
    UNCOVERED,
    coverage_query,
    find_etss,
)
from etskit.structgen import ClassSpec
from etskit.tables import NA, get_table
from etskit.tanner import TannerGraph, classify
from helpers import pool_ets_up_to, random_tanner, to_alist, tutte_coxeter


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


def test_find_etss_on_expanded_structure(ets62_normal):
    g = from_normal(ets62_normal, 4)
    report, frontier = find_etss(g, k=6, max_len=6)
    assert tuple(range(6)) in frontier.by_size.get(6, ())
    by_class = {(c.a, c.b): c for c in report.classes}
    assert by_class[(6, 2)].count == 1
    assert by_class[(6, 2)].guarantee == GUARANTEED


def test_find_etss_tree_is_empty():
    tree = TannerGraph.from_var_adj([(0, 1, 2), (0, 3, 4), (1, 5, 6)], 7)
    report, frontier = find_etss(tree, k=6, max_len=10)
    assert report.classes == [] and len(frontier) == 0


def test_find_etss_parameter_errors(ets54):
    with pytest.raises(ValueError):
        find_etss(ets54, k=13, max_len=6)
    with pytest.raises(ValueError):
        find_etss(ets54, k=6, max_len=4)
    with pytest.raises(ValueError):
        find_etss(ets54, k=6, max_len=6 + 14)


def test_find_etss_monotone_in_max_len():
    g = random_tanner(20, 3, 30, seed=42, girth_exactly=6)
    small, _ = find_etss(g, k=6, max_len=6)
    large, _ = find_etss(g, k=6, max_len=10)
    small_sets = {tuple(m) for c in small.classes for m in c.sets}
    large_sets = {tuple(m) for c in large.classes for m in c.sets}
    assert small_sets <= large_sets


def test_find_etss_matches_exhaustive_on_guaranteed_classes():
    checked_classes = 0
    for dl, seed, nv, nc, k in (
        (3, 1, 20, 30, 6), (3, 3, 22, 34, 6), (3, 8, 24, 36, 6), (4, 1, 16, 24, 7),
    ):
        g = random_tanner(nv, dl, nc, seed=seed, girth_exactly=6)
        max_len = 6 + 4
        report, frontier = find_etss(g, k=k, max_len=max_len)
        assert frontier.by_size.get(k), (dl, seed)
        found = {}
        for c in report.classes:
            found[(c.a, c.b)] = set(map(tuple, c.sets))
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
    report, frontier = find_etss(g, k=6, max_len=12)
    found = {(c.a, c.b): c for c in report.classes}
    brute = {}
    for members, b in pool_ets_up_to(g, 6):
        brute.setdefault((len(members), b), set()).add(members)
    table = get_table(3, 8)
    for (a, b), sets in brute.items():
        if table.in_scope(a, b) and coverage_query(
            ClassSpec(3, 8, a, b), 12
        ) == GUARANTEED:
            assert set(map(tuple, found[(a, b)].sets)) == sets
    # (4,4) sets are exactly the 8-cycle variable sets; frozen from the
    # exhaustive-subsets oracle above
    assert found[(4, 4)].count == 90
    assert found[(6, 0)].count == 10


def test_small_k_on_girth8_code_is_empty():
    g = tutte_coxeter()
    report, frontier = find_etss(g, k=3, max_len=8)
    assert report.classes == []


def test_report_json_shape(ets62_normal, tmp_path):
    g = from_normal(ets62_normal, 4)
    report, _ = find_etss(g, k=6, max_len=6, code_id="ets62", include_sets=True)
    data = json.loads(report.to_json())
    assert data["code"] == "ets62"
    assert data["dl"] == 4 and data["g"] == 6
    assert data["k"] == 6 and data["max_len"] == 6
    assert {"a", "b", "count", "guarantee"} <= set(data["classes"][0])
    assert all({"a", "b", "members"} <= set(s) for s in data["sets"])


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
