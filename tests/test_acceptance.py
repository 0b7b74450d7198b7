"""Acceptance gate: one test per criterion, each printing a PASS line.

Desk-scale checks run by default; the a=9 columns and other multi-hour
cells (on the pure kernel) carry the ``extended`` marker and run with
``pytest -m extended``.
"""

import itertools
import json
import os
import random

import pytest

from etskit.canon import canonical_form
from etskit.cli import main as cli_main
from etskit.lss import expand_to_k
from etskit.normal import NormalGraph, from_normal
from etskit.search import GUARANTEED, coverage_query, find_etss
from etskit.structgen import NA, ClassSpec, class_feasible, generate_forms, generate_structures
from etskit.tables import TABLES, get_table
from etskit.tanner import classify, gamma_split
from helpers import (
    are_isomorphic_oracle,
    assert_nested,
    brute_one_expansion,
    cycle_seeds,
    frontier_sets,
    one_expansion,
    labeled_structure_buckets,
    normal_b,
    pool_ets_up_to,
    random_tanner,
    sets_by_class,
    to_alist,
    to_normal,
    tutte_coxeter,
)


def _check_cell(catalogs, dl, g, a, b, want_ts, want_as):
    cat = catalogs(dl, g, a, b)
    assert cat.label_histogram() == want_ts, (dl, g, a, b)
    assert cat.label_histogram(absorbing_only=True) == want_as, (dl, g, a, b)
    return cat


def _check_column(catalogs, dl, g, a_values):
    table = TABLES[(dl, g)]
    cells = 0
    for a in a_values:
        for b in range(table.b_range[0], table.b_range[1] + 1):
            row = table.rows.get((a, b))
            want_ts = dict(row["ts"]) if row else {}
            want_as = dict(row["as"]) if row else {}
            _check_cell(catalogs, dl, g, a, b, want_ts, want_as)
            cells += 1
    return cells


def test_c1_d4g6_cell_6_2(catalogs):
    cat = _check_cell(catalogs, 4, 6, 6, 2, {6: 3}, {6: 2})
    assert len(cat) == 3 and cat.absorbing_count == 2
    print("ACCEPTANCE C1 (4,6) cell (6,2): PASS (3 structures, 2 absorbing, all LSS_6)")


def test_c1_d4g6_cell_6_6(catalogs):
    cat = _check_cell(catalogs, 4, 6, 6, 6, {6: 8, 8: 3}, {8: 2})
    assert len(cat) == 11 and cat.absorbing_count == 2
    print("ACCEPTANCE C1 (4,6) cell (6,6): PASS (11 structures, labels {6:8, 8:3}, absorbing {8:2})")


def test_c1_d3g6_columns(catalogs):
    cells = _check_column(catalogs, 3, 6, range(4, 9))
    cat = catalogs(3, 6, 8, 2)
    assert cat.label_histogram() == {10: 9, 12: 7, 14: 1, NA: 2}
    print(f"ACCEPTANCE C1 (3,6) columns a=4..8: PASS ({cells} cells)")


def test_c1_d3g6_8_6_consistent_with_d3g8():
    """The triangle-free members of the (8,6) girth-6 catalog must carry
    the labels the girth-8 catalog assigns to the same graphs."""
    from etskit.lss import label_catalog

    g6 = label_catalog(generate_structures(ClassSpec(3, 6, 8, 6)))
    g8 = label_catalog(generate_structures(ClassSpec(3, 8, 8, 6)))
    by_form = {e.form: e.lss for e in g6.entries}
    for entry in g8.entries:
        assert by_form[entry.form] == entry.lss
    print("ACCEPTANCE C1 cross-check (8,6): PASS (girth-6/girth-8 labels agree on shared structures)")


def test_c1_d3g8_columns(catalogs):
    cells = _check_column(catalogs, 3, 8, range(4, 9))
    print(f"ACCEPTANCE C1 (3,8) columns a=4..8: PASS ({cells} cells)")


def test_c1_d4g8_cells(catalogs):
    cells = _check_column(catalogs, 4, 8, range(4, 9))
    assert catalogs(4, 8, 8, 0).label_histogram() == {8: 1}
    cat48 = catalogs(4, 8, 4, 8)
    assert len(cat48) == 1 and cat48.absorbing_count == 0
    print(f"ACCEPTANCE C1 (4,8) cells a<=8: PASS ({cells} cells)")


def test_c1_d5g6_cells(catalogs):
    cells = _check_column(catalogs, 5, 6, range(4, 8))
    assert catalogs(5, 6, 5, 5).label_histogram() == {6: 1}
    assert catalogs(5, 6, 7, 3).label_histogram() == {6: 6}
    assert catalogs(5, 6, 7, 3).label_histogram(absorbing_only=True) == {6: 5}
    print(f"ACCEPTANCE C1 (5,6) cells a<=7: PASS ({cells} cells)")


def test_c1_d5g8_cells(catalogs):
    for a in range(4, 8):
        for b in range(0, 10):
            assert len(catalogs(5, 8, a, b)) == 0, (a, b)
    _check_cell(catalogs, 5, 8, 8, 8, {8: 1}, {8: 1})
    _check_cell(catalogs, 5, 8, 9, 9, {8: 3}, {8: 2})
    print("ACCEPTANCE C1 (5,8): PASS (a<=7 empty; (8,8)={8:1}; (9,9) TS {8:3} AS {8:2})")


def test_c1_d6g6_cells(catalogs):
    cells = _check_column(catalogs, 6, 6, range(4, 9))
    assert catalogs(6, 6, 7, 0).label_histogram() == {6: 1}
    assert catalogs(6, 6, 8, 8).label_histogram() == {6: 120}
    print(f"ACCEPTANCE C1 (6,6) cells a<=8: PASS ({cells} cells)")


@pytest.mark.extended
def test_c1_extended_a9_columns(catalogs):
    cells = 0
    for dl, g in ((3, 6), (3, 8), (4, 6), (5, 6), (6, 6)):
        cells += _check_column(catalogs, dl, g, [9])
    cat = catalogs(6, 6, 9, 10)
    assert len(cat) == 5411
    assert cat.label_histogram()[NA] == 1
    assert catalogs(6, 6, 9, 8).label_histogram() == {6: 2273, 10: 1}
    print(f"ACCEPTANCE C1 extended a=9 columns: PASS ({cells} cells)")


def test_c2_nonexistence_desk():
    checked = 0
    for a in range(4, 9):
        for b in range(0, 11):
            spec = ClassSpec(6, 8, a, b)
            assert len(generate_structures(spec)) == 0, ("d6 g8", a, b)
            if class_feasible(spec) is None:
                checked += 1
            # d_l=5 above girth 8: triangle- and square-free normal graphs
            if (5 * a - b) % 2 == 0 and b <= 10:
                m = (5 * a - b) // 2
                assert generate_forms(a, m, 5, min_normal_girth=5) == [], (
                    "d5 girth10", a, b)
    assert checked > 10
    print("ACCEPTANCE C2 desk: PASS (d6 g=8 and d5 g>=10 empty for a<=8, b<=10)")


@pytest.mark.extended
def test_c2_nonexistence_extended():
    for b in range(0, 11):
        assert len(generate_structures(ClassSpec(6, 8, 9, b))) == 0
        if (45 - b) % 2 == 0:
            assert generate_forms(9, (45 - b) // 2, 5, min_normal_girth=5) == []
    print("ACCEPTANCE C2 extended: PASS (a=9 nonexistence)")


def test_c3_one_expansion_oracle():
    graphs = 0
    comparisons = 0
    seed = 0
    while graphs < 100:
        seed += 1
        d_l, nv, nc = ((3, 20, 32) if seed % 3 else (4, 16, 40))
        g = random_tanner(nv, d_l, nc, seed=5000 + seed)
        seeds = cycle_seeds(g, int(g.girth)) if g.girth != float("inf") else []
        if not seeds:
            continue
        graphs += 1
        frontier = expand_to_k(g, seeds[:3], k=min(6, nv))
        probe = [rec.members for rec in seeds[:2]] + frontier_sets(frontier)[-2:]
        for s in probe:
            assert set(one_expansion(g, s)) == brute_one_expansion(g, s)
            comparisons += 1
    assert graphs >= 100 and comparisons >= 300
    print(f"ACCEPTANCE C3 one_expansion: PASS ({graphs} graphs, {comparisons} comparisons)")


@pytest.mark.time_limit(1800)
def test_c3_generation_vs_bruteforce_bucketing():
    cells = 0
    for d_l in (3, 4, 5, 6):
        for g in (6, 8):
            for a in range(4, 8):
                for b in range(0, min(10, a * (d_l - 2)) + 1):
                    spec = ClassSpec(d_l, g, a, b)
                    if class_feasible(spec) is not None:
                        continue
                    slow = labeled_structure_buckets(
                        a, spec.num_edges, d_l, triangle_free=(g == 8)
                    )
                    fast = generate_structures(spec)
                    assert len(slow) == len(fast), (d_l, g, a, b)
                    cells += 1
    assert cells >= 100
    print(f"ACCEPTANCE C3 generation vs brute force: PASS ({cells} feasible specs, a<=7)")


@pytest.mark.time_limit(1800)
def test_c3_canonical_form_vs_oracle(catalogs):
    rng = random.Random(2024)
    desk = [
        (dl, g, a, b)
        for (dl, g), table in TABLES.items()
        for (a, b) in table.rows
        if a <= 8
    ]
    # the two d4g6 cells the C1 tests pin by hand are table rows already
    assert (4, 6, 6, 2) in desk and (4, 6, 6, 6) in desk
    pairs = 0
    probes = 0
    for dl, g, a, b in desk:
        entries = catalogs(dl, g, a, b).entries
        graphs = [e.normal_graph() for e in entries]
        for (g1, e1), (g2, e2) in itertools.combinations(
            zip(graphs, entries), 2
        ):
            iso = are_isomorphic_oracle(g1, g2)
            assert iso == (e1.form == e2.form)
            assert not iso  # catalogs are duplicate-free
            pairs += 1
        for g1, e1 in zip(graphs, entries):
            for _ in range(1000):
                perm = list(range(g1.n))
                rng.shuffle(perm)
                shuffled = NormalGraph(
                    g1.n, [(perm[i], perm[j]) for i, j in g1.edges]
                )
                assert canonical_form(shuffled) == e1.form
                probes += 1
            # positive oracle direction on a sample
            assert are_isomorphic_oracle(g1, shuffled)
    print(f"ACCEPTANCE C3 canonical form vs oracle: PASS ({pairs} pairs, {probes} probes)")


def test_c3_find_etss_vs_exhaustive():
    graphs = [
        random_tanner(20, 3, 30, seed=1, girth_exactly=6),
        random_tanner(22, 3, 34, seed=3, girth_exactly=6),
        random_tanner(24, 3, 36, seed=8, girth_exactly=6),
        random_tanner(18, 4, 44, seed=2, girth_exactly=6),
        tutte_coxeter(),
    ]
    checked = 0
    for g in graphs:
        max_len = int(g.girth) + 4
        report = find_etss(g, k=6, max_len=max_len)
        frontier = report.frontier
        assert_nested(frontier, cycle_seeds(g, max_len))
        found = sets_by_class(frontier)
        brute = {}
        for members, b in pool_ets_up_to(g, 6):
            brute.setdefault((len(members), b), set()).add(members)
        table = get_table(g.d_l, g.girth)
        for (a, b), sets in brute.items():
            if not table.in_scope(a, b):
                continue
            spec = ClassSpec(g.d_l, int(g.girth), a, b)
            if coverage_query(spec, max_len) != GUARANTEED:
                continue
            assert found.get((a, b), set()) == sets, (g.key, a, b)
            checked += 1
        for sets in found.values():
            for members in sets:
                rec = classify(g, members)
                assert rec.elementary and rec.in_t
    assert checked >= 10
    print(f"ACCEPTANCE C3 find_etss vs exhaustive: PASS ({checked} guaranteed classes over {len(graphs)} graphs)")


def test_c4_structural_invariants(catalogs):
    desk = [
        (dl, g, a, b)
        for (dl, g), table in TABLES.items()
        for (a, b) in table.rows
        if a <= 8
    ]
    entries_checked = 0
    for dl, g, a, b in desk:
        for entry in catalogs(dl, g, a, b).entries:
            n = entry.normal_graph()
            tg = from_normal(n, dl)
            assert to_normal(tg, range(n.n)) == n
            assert len(gamma_split(tg, range(n.n)).odd) == normal_b(n, dl)
            rec = classify(tg, range(n.n))
            assert rec.elementary and rec.in_t
            if dl == 3:
                assert rec.absorbing
            entries_checked += 1
    # nesting of freshly built frontiers
    for seed in (4, 9):
        g = random_tanner(18, 3, 28, seed=seed, girth_exactly=6)
        seeds = cycle_seeds(g, int(g.girth) + 2)
        frontier = expand_to_k(g, seeds, k=7)
        assert_nested(frontier, seeds)
        for members in frontier_sets(frontier):
            rec = classify(g, members)
            assert rec.elementary and rec.in_t
            if g.d_l == 3:
                assert rec.absorbing
    print(f"ACCEPTANCE C4 invariants: PASS ({entries_checked} catalog entries)")


def test_c5_determinism(tmp_path, capsys):
    blobs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", str(os.cpu_count()))):
        out = tmp_path / f"gen-{name}.cat"
        assert cli_main([
            "gen", "--dl", "3", "--girth", "6", "--a", "8", "--b", "2",
            "--out", str(out), "--threads", threads,
        ]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    g = random_tanner(22, 3, 33, seed=21, girth_exactly=6)
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(g))
    reports = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", str(os.cpu_count()))):
        out = tmp_path / f"search-{name}.json"
        assert cli_main([
            "search", "--alist", str(alist), "--k", "6",
            "--max-cycle-len", "10", "--out", str(out), "--sets",
            "--threads", threads, "--code-id", "fixed",
        ]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1] == reports[2]
    print("ACCEPTANCE C5 determinism: PASS (byte-identical across runs and --threads)")
