import pytest

from etskit.canon import CanonicalForm, canonical_form
from etskit.normal import NormalGraph
from etskit.structgen import (
    Catalog,
    ClassSpec,
    class_feasible,
    format_catalog,
    generate_forms,
    generate_structures,
    parse_catalog,
)
from helpers import annotate_absorbing, labeled_structure_buckets


def test_class_feasible_parity():
    reason = class_feasible(ClassSpec(3, 6, 7, 2))
    assert reason is not None and "parity" in reason


def test_class_feasible_b_cap():
    reason = class_feasible(ClassSpec(3, 6, 5, 6))
    assert reason is not None and "a*(d_l-2)" in reason


def test_class_feasible_edge_cap():
    reason = class_feasible(ClassSpec(6, 6, 4, 0))
    assert reason is not None and "capacity" in reason


def _count_canonical_calls(monkeypatch):
    from etskit import structgen

    calls = [0]
    canonical_masks = structgen.canonical_masks

    def counting(*args):
        calls[0] += 1
        return canonical_masks(*args)

    monkeypatch.setattr(structgen, "canonical_masks", counting)
    return calls


def test_mantel_bound_skips_orderly_search(monkeypatch):
    # girth 8 means a triangle-free normal graph, which has at most
    # floor(a^2/4) edges (Mantel); (5,8,8,0) asks for 20 > 16
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(5, 8, 8, 0))) == 0
    assert calls[0] == 0


def test_key_first_deletion_skips_canonical_calls(monkeypatch):
    # children whose added edge does not have the largest (degree pair,
    # triangles) key are rejected before canonical labelling; choosing the
    # deletion edge by canonical position alone took 33,030 calls here.
    # This also pins the call count of a sparse cell.
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(4, 6, 8, 8))) == 250
    assert calls[0] == 4595


def test_complemented_cell_canonical_call_count(monkeypatch):
    # d5g6 (8,8) has 16 of 28 edges and grows as its complement; the
    # constant-time deficit test must prune exactly as the full recount did
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(5, 6, 8, 8))) == 461
    assert calls[0] == 6300


@pytest.mark.parametrize(
    "a,m,max_deg",
    [
        (8, 13, 3),  # sparse: 26 degrees, at most 24 room
        (6, 10, 3),  # dense, grown as the complement: 20 degrees, 18 room
    ],
)
def test_degree_sum_bound_skips_orderly_search(monkeypatch, a, m, max_deg):
    # 2m > a*max_deg: no graph fits, and not even the root is labelled
    calls = _count_canonical_calls(monkeypatch)
    assert generate_forms(a, m, max_deg) == []
    assert calls[0] == 0


@pytest.mark.parametrize(
    "a,m,max_deg,girth,total",
    [
        (8, 12, 4, 3, 250),  # sparse girth-6 cell d4g6 (8,8)
        (7, 15, 5, 3, 18),   # dense, grown as the complement: d5g6 (7,5)
        (8, 12, 4, 4, 14),   # triangle-free: d4g8 (8,8)
    ],
)
def test_generate_forms_yields_each_class_once(a, m, max_deg, girth, total):
    forms = generate_forms(a, m, max_deg, min_normal_girth=girth)
    assert len(forms) == total
    assert len(set(forms)) == len(forms)


def test_class_feasible_ok():
    assert class_feasible(ClassSpec(4, 6, 6, 2)) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec(7, 6, 6, 2)
    with pytest.raises(ValueError):
        ClassSpec(4, 7, 6, 2)
    with pytest.raises(ValueError):
        ClassSpec(4, 6, 3, 2)
    with pytest.raises(ValueError):
        ClassSpec(4, 6, 6, 11)


def test_infeasible_class_yields_reasoned_empty_catalog():
    cat = generate_structures(ClassSpec(3, 6, 7, 2))
    assert len(cat) == 0 and "parity" in cat.reason


@pytest.mark.parametrize(
    "dl,g,a,b,total,absorbing",
    [
        (4, 6, 6, 2, 3, 2),
        (4, 6, 6, 6, 11, 2),
        (3, 6, 6, 0, 2, 2),
        (4, 8, 6, 2, 0, 0),
        (5, 8, 7, 9, 0, 0),
        (4, 6, 5, 4, 2, 1),
        (6, 6, 7, 0, 1, 1),
        (3, 6, 5, 5, 1, 1),
    ],
)
def test_known_counts(catalogs, dl, g, a, b, total, absorbing):
    cat = catalogs(dl, g, a, b)
    assert len(cat) == total
    assert cat.absorbing_count == absorbing


def test_entries_are_valid_structures(catalogs):
    from etskit.normal import from_normal
    from etskit.tanner import classify
    from helpers import normal_b

    for (dl, g, a, b) in [(4, 6, 6, 6), (3, 6, 8, 2), (4, 8, 8, 8)]:
        cat = catalogs(dl, g, a, b)
        for entry in cat.entries:
            n = entry.normal_graph()
            assert n.n == a
            assert min(n.degrees) >= 2 and max(n.degrees) <= dl
            assert normal_b(n, dl) == b
            tg = from_normal(n, dl)
            rec = classify(tg, range(a))
            assert (rec.a, rec.b) == (a, b)
            assert rec.elementary and rec.in_t
            assert tg.girth >= g


def test_completeness_vs_bruteforce_a_le_6():
    for dl in (3, 4, 5, 6):
        for g in (6, 8):
            for a in (4, 5, 6):
                for b in range(0, min(10, a * (dl - 2)) + 1):
                    spec = ClassSpec(dl, g, a, b)
                    if class_feasible(spec) is not None:
                        continue
                    fast = generate_structures(spec)
                    slow = labeled_structure_buckets(
                        a, spec.num_edges, dl, triangle_free=(g == 8)
                    )
                    assert len(fast) == len(slow), (dl, g, a, b)


def test_generate_forms_girth_five_surrogate():
    # pentagon is the smallest [2, d]-degree graph without 3- or 4-cycles
    forms = generate_forms(5, 5, 3, min_normal_girth=5)
    assert len(forms) == 1
    forms = generate_forms(4, 4, 3, min_normal_girth=5)
    assert forms == []


def test_d3_diagonal_is_the_lone_cycle(catalogs):
    # (a,a) classes for d_l=3 hold exactly one structure: the a-node cycle
    for a in range(4, 9):
        cat = catalogs(3, 6, a, a)
        assert len(cat) == 1
        g = cat.entries[0].normal_graph()
        assert set(g.degrees) == {2}
        assert cat.entries[0].lss == 2 * a


def test_a10_scope_works(catalogs):
    # catalog scope extends to a = 10; the (10,10) d_l=3 class is the lone
    # 20-cycle
    cat = catalogs(3, 6, 10, 10)
    assert len(cat) == 1
    assert cat.entries[0].lss == 20
    assert set(cat.entries[0].normal_graph().degrees) == {2}


def test_annotate_absorbing(catalogs):
    for entry in catalogs(4, 6, 6, 6).entries:
        redone = annotate_absorbing(entry)
        assert redone.absorbing == entry.absorbing
        degs = entry.normal_graph().degrees
        assert entry.absorbing == (min(degs) * 2 > 4)
    for entry in catalogs(3, 6, 6, 4).entries:
        assert annotate_absorbing(entry).absorbing  # d_l = 3: always


def test_dense_and_sparse_paths_agree():
    # (6,6,7,2) runs through the complement path; rebuild it directly
    from etskit.tanner import mask_connected
    from etskit.structgen import _GenTask, _run_subtree
    from etskit.canon import canonical_masks

    spec = ClassSpec(6, 6, 7, 2)
    dense = generate_structures(spec)
    task = _GenTask(n=7, m=spec.num_edges, max_deg=6, min_girth=3, min_deg_final=2)
    root = [0] * 7
    form0, _ = canonical_masks(7, root)
    raw = _run_subtree(task, root, 0, form0)
    direct = sorted(
        form for adj, form in raw
        if mask_connected(adj, (1 << 7) - 1) and all(m.bit_count() >= 2 for m in adj)
    )
    assert [e.form.data for e in dense.entries] == direct


def test_generate_structures_is_repeatable():
    # catalog files list entries in generation order, so two runs of one
    # class must yield the same forms in the same order
    spec = ClassSpec(4, 6, 7, 4)
    first = generate_structures(spec)
    again = generate_structures(spec)
    assert len(first) > 0
    assert [e.form for e in first.entries] == [e.form for e in again.entries]


def test_generation_takes_no_threads_argument():
    # generation runs in one process; a worker count is no longer a parameter
    with pytest.raises(TypeError):
        generate_forms(8, 12, 4, min_normal_girth=4, threads=1)
    with pytest.raises(TypeError):
        generate_structures(ClassSpec(4, 6, 7, 4), threads=1)


def test_catalog_file_round_trip(catalogs):
    cat = catalogs(4, 6, 6, 6)
    text = format_catalog(cat)
    back = parse_catalog(text)
    assert back.spec == cat.spec
    assert [(e.form, e.absorbing, e.lss) for e in back.entries] == [
        (e.form, e.absorbing, e.lss) for e in cat.entries
    ]


def _raw_hex(n, edges):
    """Catalog hex encoding of the graph as labelled, not canonicalised."""
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges or (j, i) in edges:
                bits[k >> 3] |= 0x80 >> (k & 7)
            k += 1
    return (bytes([n]) + bytes(bits)).hex()


def test_catalog_file_rejects_garbage():
    from etskit.errors import GraphConstraintError

    good = format_catalog(generate_structures(ClassSpec(4, 6, 6, 2))).splitlines()
    header, row, other = good[0], good[1], good[2]
    hexform, flag, lss = row.split("\t")
    n = CanonicalForm.from_hex(hexform).decode()
    relabeled = _raw_hex(n.n, [(n.n - 1 - i, n.n - 1 - j) for i, j in n.edges])
    assert relabeled != hexform
    flipped = "0" if flag == "1" else "1"
    # K4 with a two-edge tail: the (6,8) edge count for d_l = 4, but the
    # last node has one satisfied check
    tail = NormalGraph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                           (3, 4), (4, 5)])
    cases = [
        ("no header\n", "header"),
        ("# 4 6 x 2\n", "line 1: bad catalog header"),
        ("\n# 4 6 11 2\n", "line 2: bad catalog header"),
        (f"# 4 6 6 8\n{canonical_form(tail).hex()}\t0\t?\n", "line 2: .* degree below 2"),
        ("# 4 6 6 2\nzz\t5\t6\n", "line 2: bad canonical form"),
        ("# 4 6 6 2\n06\t1\t?\n", "line 2: bad canonical form"),
        (f"{header}\n{row[:-1]}x\n", "line 2: bad LSS label"),
        # a label is an even cycle length from g = 6 to 2a = 12, in ASCII
        # digits as format_catalog writes it
        *((f"{header}\n{hexform}\t{flag}\t{bad}\n", "line 2: bad LSS label")
          for bad in ("7", "0", "4", "14", "99", "\u0661\u0660", "06", "+6", "")),
        (f"{header}\n{relabeled}\t{flag}\t{lss}\n", "line 2: .* not the canonical form"),
        (f"{header}\n{row}\n{other}\n\n{row}\n", "line 5: duplicate of the row on line 2"),
        (f"{header}\n{other}\n{hexform}\t{flipped}\t{lss}\n",
         "line 3: absorbing flag .* contradicts the degrees"),
        # a d_l = 3 (6,2) structure with a triangle, in a girth-8 class
        ("# 3 8 6 2\n061af8\t1\t?\n", "line 2: 061af8 has a triangle"),
    ]
    for text, message in cases:
        with pytest.raises(GraphConstraintError, match=message):
            parse_catalog(text)


def test_catalog_labels_at_the_range_ends_round_trip():
    # g = 6 and 2a = 12 bound the labels of a (6, b) class in girth 6
    good = format_catalog(generate_structures(ClassSpec(4, 6, 6, 2))).splitlines()
    hexform, flag, _ = good[1].split("\t")
    for label in ("6", "12", "NA", "?"):
        text = f"{good[0]}\n{hexform}\t{flag}\t{label}\n"
        assert format_catalog(parse_catalog(text)) == text


def test_unlabeled_catalog_round_trip():
    cat = generate_structures(ClassSpec(4, 6, 6, 2))
    back = parse_catalog(format_catalog(cat))
    assert all(e.lss is None for e in back.entries)
