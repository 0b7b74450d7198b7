import hashlib
import itertools

import pytest

from etskit import structgen
from etskit.canon import CanonicalForm, canonical_form, canonical_masks
from etskit.normal import NormalGraph
from etskit.structgen import (
    Catalog,
    ClassSpec,
    class_feasible,
    format_catalog,
    generate_forms,
    generate_structures,
    parse_catalog,
    _node_keys,
    _pair_key,
    _twin_classes,
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
    # This also pins the call count of a sparse cell, whose parents skip
    # the extensions a twin swap maps onto an earlier sibling and label a
    # tie-1 child below the last depth only when a sibling shares its pair
    # key (3,186 calls when every child was labelled).
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(4, 6, 8, 8))) == 250
    assert calls[0] == 2560


def test_complemented_cell_canonical_call_count(monkeypatch):
    # d5g6 (8,8) has 16 of 28 edges and grows as its complement; the
    # constant-time deficit test, the twin-swap skip and the pair keys must
    # prune it exactly as they prune a sparse cell, and each leaf is
    # labelled once, complemented back (4,682 calls when each leaf was
    # labelled as the complement and again complemented back)
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(5, 6, 8, 8))) == 461
    assert calls[0] == 3196


def test_girth_eight_cell_canonical_call_count(monkeypatch):
    # d3g8 (8,4) grows triangle-free graphs, the third generation path
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(3, 8, 8, 4))) == 10
    assert calls[0] == 381


@pytest.mark.parametrize("cell,structures,pinned", [
    ((3, 6, 8, 4), 25, 677),
    ((4, 8, 8, 8), 14, 666),
    ((6, 6, 8, 8), 120, 534),  # grown as its complement
    ((6, 6, 8, 10), 260, 1028),  # grown as its complement
])
def test_catalog_cell_canonical_call_count(monkeypatch, cell, structures, pinned):
    # the other catalog-workload cells: with the three pins above and the
    # Mantel 0 the twelve cells take 9,042 calls
    calls = _count_canonical_calls(monkeypatch)
    assert len(generate_structures(ClassSpec(*cell))) == structures
    assert calls[0] == pinned


def _pair_key_shared_by_no_siblings(monkeypatch):
    monkeypatch.setattr(structgen, "_pair_key", lambda adj, keys, u, v: (u, v))


def _tie_count_capped_at_one(monkeypatch):
    tie_count = structgen._tie_count
    monkeypatch.setattr(structgen, "_tie_count", lambda *args: min(tie_count(*args), 1))


@pytest.mark.parametrize("misfire", [_pair_key_shared_by_no_siblings, _tie_count_capped_at_one])
@pytest.mark.parametrize("args", [(8, 12, 4, 3), (8, 16, 5, 3), (7, 10, 4, 3)])
def test_misfiring_pruning_rule_costs_calls_not_duplicates(monkeypatch, misfire, args):
    # every form read goes into one set, and every leaf is read, so a pruning
    # rule that wrongly leaves children unread grows classes twice but yields
    # each once.  With a set per parent for tie-1 children and one for the
    # rest, these misfires gave 288 and 7,498 forms for the 250 classes of
    # d4g6 (8,8), 617 and 11,091 for the 461 of d5g6 (8,8) (grown as its
    # complement), and 57 and 259 for the 44 of (7, 10, 4, 3).
    expected = generate_forms(*args)
    misfire(monkeypatch)
    assert generate_forms(*args) == expected


@pytest.mark.parametrize("dl,a", [(3, 4), (4, 5), (5, 6), (6, 7)])
def test_complete_graph_class_is_labelled(monkeypatch, dl, a):
    # b = 0 with d_l = a - 1 is K_a, grown as its empty complement: the
    # root is the one leaf and must still be labelled
    calls = _count_canonical_calls(monkeypatch)
    cat = generate_structures(ClassSpec(dl, 6, a, 0))
    complete = NormalGraph(a, list(itertools.combinations(range(a), 2)))
    assert [e.form for e in cat.entries] == [canonical_form(complete)]
    assert cat.entries[0].absorbing
    assert calls[0] == 1


def test_twin_classes_match_brute_force():
    # on every labelled graph with up to 6 nodes: swapping two nodes of one
    # class is an automorphism, nodes of different classes differ outside
    # each other, and each node knows its class's smallest member and its
    # rank among the members
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = {p for k, p in enumerate(pairs) if bits >> k & 1}
            adj = [0] * n
            for x, y in edges:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
            first, rank = _twin_classes(adj)
            for x, y in pairs:
                if first[x] == first[y]:
                    swap = {x: y, y: x}
                    assert {tuple(sorted((swap.get(i, i), swap.get(j, j))))
                            for i, j in edges} == edges
                else:
                    nx = {j for j in range(n) if (min(x, j), max(x, j)) in edges}
                    ny = {j for j in range(n) if (min(y, j), max(y, j)) in edges}
                    assert nx - {y} != ny - {x}
            for x in range(n):
                members = [y for y in range(n) if first[y] == first[x]]
                assert first[x] == members[0]
                assert rank[x] == members.index(x)


def test_tie_one_twins_share_pair_key():
    # on every labelled graph with up to 6 nodes: node keys are equal
    # exactly when degree and sorted neighbour degrees are, and two added
    # edges that each are the child's one edge of largest (degree pair,
    # triangles) key and give isomorphic children have equal pair keys
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            adj = [0] * n
            for k, (x, y) in enumerate(pairs):
                if bits >> k & 1:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
            degs = [x.bit_count() for x in adj]
            keys = _node_keys(adj, degs)
            profile = [
                (degs[x], sorted(degs[y] for y in range(n) if adj[x] >> y & 1))
                for x in range(n)
            ]
            for x, y in pairs:
                assert (keys[x] == keys[y]) == (profile[x] == profile[y])
            ones = []
            for u, v in pairs:
                if adj[u] >> v & 1:
                    continue
                child = list(adj)
                child[u] |= 1 << v
                child[v] |= 1 << u
                cd = [x.bit_count() for x in child]
                edge_keys = [
                    (max(cd[x], cd[y]), min(cd[x], cd[y]), (child[x] & child[y]).bit_count())
                    for x, y in pairs if child[x] >> y & 1
                ]
                top = (max(cd[u], cd[v]), min(cd[u], cd[v]), (child[u] & child[v]).bit_count())
                if max(edge_keys) == top and edge_keys.count(top) == 1:
                    ones.append((_pair_key(adj, keys, u, v), sorted(cd), child))
            # siblings of unequal degree sequences are not isomorphic
            for (k1, d1, c1), (k2, d2, c2) in itertools.combinations(ones, 2):
                if k1 != k2 and d1 == d2:
                    assert canonical_masks(n, c1) != canonical_masks(n, c2)
                    checked += 1
    assert checked > 0


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
    spec = ClassSpec(3, 6, 7, 2)
    cat = generate_structures(spec)
    assert len(cat) == 0 and "parity" in class_feasible(spec)


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
            n = entry.form.decode()
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
        g = cat.entries[0].form.decode()
        assert set(g.degrees) == {2}
        assert cat.entries[0].lss == 2 * a


def test_a10_scope_works(catalogs):
    # catalog scope extends to a = 10; the (10,10) d_l=3 class is the lone
    # 20-cycle
    cat = catalogs(3, 6, 10, 10)
    assert len(cat) == 1
    assert cat.entries[0].lss == 20
    assert set(cat.entries[0].form.decode().degrees) == {2}


def test_annotate_absorbing(catalogs):
    for entry in catalogs(4, 6, 6, 6).entries:
        redone = annotate_absorbing(entry, 4)
        assert redone.absorbing == entry.absorbing
        degs = entry.form.decode().degrees
        assert entry.absorbing == (min(degs) * 2 > 4)
    for entry in catalogs(3, 6, 6, 4).entries:
        assert annotate_absorbing(entry, 3).absorbing  # d_l = 3: always


def test_dense_and_sparse_paths_agree():
    # (6,6,7,2) runs through the complement path; rebuild it directly
    from etskit.tanner import mask_connected
    from etskit.structgen import _grow

    spec = ClassSpec(6, 6, 7, 2)
    dense = generate_structures(spec)
    direct = sorted(
        form for adj, form in _grow(7, spec.num_edges, 6, 3, 2)
        if mask_connected(adj, (1 << 7) - 1) and all(m.bit_count() >= 2 for m in adj)
    )
    assert [e.form.data for e in dense.entries] == direct


# sha256 of the labelled format_catalog text of a sparse cell, a cell grown
# as its complement, a girth-8 cell and one rejected outright, taken before
# orderly generation became one depth-first generator; any change to the
# forms, their order, the absorbing flags or the labels shows here
PINNED_CATALOGS = {
    (4, 6, 8, 8): "2edd461ba4f60feb3ea4a2fa771573172b3678e3667e007103e594c6d590fce3",
    (5, 6, 8, 8): "d0248da947a303e867fa0f07b13b6eea4695e02eec0410b54f6ebd47a3cd885d",
    (3, 8, 8, 4): "c4f841129d9e455d7988ccc7b5a7de0793cccc8501e7ebf504a80c280217c096",
    (6, 8, 4, 0): "3f7404cecd0f12105256f7611cd9c72ba22b54a5274494ac339e0217d2f82d27",
    # the other benchmark cells that generate structures, taken before
    # orderly generation skipped twin-swapped siblings
    (3, 6, 8, 4): "a4189fe2a47f326c10304e65520040a0226da92962844204f9f0cdc9c5995d04",
    (4, 8, 8, 8): "405a04e9e28f3e745a0d079c01fc9de3985fba7d1dd1dae86cee831044f837ba",
    (6, 6, 8, 8): "733fe8480766c36cbf8b466b4cdb40c858342ade52150b6bb46e625aaef0ae45",
    (6, 6, 8, 10): "e9e93af6ded5b7d5e4d3bf6a81a9cbee40decf8df1b8a69dc5e890bd49cd9fa3",
}


@pytest.mark.parametrize("cell", list(PINNED_CATALOGS))
def test_catalog_bytes_pinned(catalogs, cell):
    text = format_catalog(catalogs(*cell))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CATALOGS[cell]


# sha256 of the unlabelled catalog text of the a = 9 cells whose generation
# takes the most canonical calls: one sparse, two grown as complements
PINNED_BIG_CATALOGS = {
    (4, 6, 9, 4): "fd61ad5c372a28f6044699ed5dd0f8560eef1d27fe0d547b741ee118700423bb",
    (5, 6, 9, 5): "f53b6ca51cc0237a077c4e0c0e173b2dd0c75d8f55230a04ec36bebb0164a99c",
    (6, 6, 9, 6): "ef1b5dc97b3bc0a12d12462891c3d17678820ffa0fb54b401f3fbe55087297e4",
}
PINNED_BIG_CALLS = {(4, 6, 9, 4): 20515, (5, 6, 9, 5): 36898, (6, 6, 9, 6): 6932}


@pytest.mark.extended
@pytest.mark.parametrize("cell", list(PINNED_BIG_CATALOGS))
def test_big_catalog_bytes_pinned(monkeypatch, cell):
    calls = _count_canonical_calls(monkeypatch)
    text = format_catalog(generate_structures(ClassSpec(*cell)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_BIG_CATALOGS[cell]
    assert calls[0] == PINNED_BIG_CALLS[cell]


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
        ("x\n# 4 6 6 2\n", "line 1: catalog must start with '# dl g a b' header"),
        ("\n\n# 4 6 6\n", "line 3: catalog header must be '# dl g a b'"),
        ("# 4 6 x 2\n", "line 1: bad catalog header"),
        ("\n# 4 6 11 2\n", "line 2: bad catalog header"),
        # int() reads each of these as the d_l = 4 (6,2) header
        *((f"\n{bad}\n{row}\n", "line 2: bad catalog header: non-integer token")
          for bad in ("# \u0664 6 6 2", "# +4 6 6 2", "# 4 6 6 0_2")),
        (f"# 4 6 6 8\n{canonical_form(tail).hex()}\t0\t?\n", "line 2: .* degree below 2"),
        ("# 4 6 6 2\nzz\t5\t6\n", "line 2: bad canonical form"),
        ("# 4 6 6 2\n06\t1\t?\n", "line 2: bad canonical form"),
        # bytes.fromhex reads each of these as the first row's form
        *((f"{header}\n{bad}\t{flag}\t{lss}\n", "line 2: bad canonical form")
          for bad in (hexform.upper(), f"{hexform[:2]} {hexform[2:]}", f" {hexform}")),
        (f"{header}\n{hexform}\t{flag}\n", "line 2: bad catalog row"),
        (f"{header}\n{hexform}\t2\t{lss}\n", "line 2: bad absorbing flag"),
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
        # two disjoint triangles: the (6,6) edge count for d_l = 3, every
        # degree 2, but not one structure
        ("# 3 6 6 6\n061e42\t0\t?\n", "line 2: .*connected"),
        # zero nodes and one node: node counts no class has
        ("# 3 6 6 6\n00\t0\t?\n", "line 2:"),
        ("# 3 6 6 6\n01\t0\t?\n", "line 2: .*does not match class"),
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


def test_catalog_round_builds_no_normal_graph(catalogs, monkeypatch):
    # generation, the catalog file and labelling read a form as adjacency
    # bitmasks; a NormalGraph is built only for text, graph6 and decode()
    from etskit.lss import label_catalog

    cells = [(3, 6, 8, 4), (5, 6, 7, 5)]  # grown sparse, grown as complement
    want = [format_catalog(catalogs(*cell)) for cell in cells]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a NormalGraph was built")

    monkeypatch.setattr(NormalGraph, "__init__", refuse)
    for cell, text in zip(cells, want):
        cat = generate_structures(ClassSpec(*cell))
        assert format_catalog(label_catalog(parse_catalog(format_catalog(cat)))) == text


def test_unlabeled_catalog_round_trip():
    cat = generate_structures(ClassSpec(4, 6, 6, 2))
    back = parse_catalog(format_catalog(cat))
    assert all(e.lss is None for e in back.entries)
