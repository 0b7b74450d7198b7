import itertools
import random

import pytest

from etskit.canon import CanonicalForm, canonical_form
from etskit.errors import NodeCapError
from etskit.normal import NormalGraph
from helpers import are_isomorphic_oracle


def permuted(g: NormalGraph, perm) -> NormalGraph:
    return NormalGraph(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def test_triangle_relabeling_invariant():
    tri = NormalGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(tri) == canonical_form(permuted(tri, (2, 0, 1)))


def test_six_zero_structures_distinct(prism, k33):
    assert canonical_form(prism) != canonical_form(k33)


def test_random_permutation_probes(catalogs):
    rng = random.Random(17)
    entries = catalogs(4, 6, 6, 6).entries
    forms = set()
    for entry in entries:
        g = entry.form.decode()
        base = canonical_form(g)
        forms.add(base)
        for _ in range(200):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permuted(g, perm)) == base
    assert len(forms) == 11


def test_form_decodes_to_isomorphic_graph(catalogs):
    for entry in catalogs(3, 6, 6, 2).entries:
        g = entry.form.decode()
        assert entry.form.masks() == g.adj_masks
        decoded = canonical_form(g).decode()
        assert are_isomorphic_oracle(g, decoded)
        assert canonical_form(decoded) == entry.form


def test_hex_round_trip(prism):
    form = canonical_form(prism)
    assert CanonicalForm.from_hex(form.hex()) == form


def test_node_cap():
    path = NormalGraph(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(NodeCapError):
        canonical_form(path)


def test_oracle_identity_and_degree_pruning(prism, k33):
    path4 = NormalGraph(4, [(0, 1), (1, 2), (2, 3)])
    star4 = NormalGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert are_isomorphic_oracle(path4, path4)
    assert not are_isomorphic_oracle(path4, star4)
    # equal degree sequences, still non-isomorphic
    assert not are_isomorphic_oracle(prism, k33)
    relabeled_c6 = NormalGraph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
    c6 = NormalGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert are_isomorphic_oracle(c6, relabeled_c6)


def test_oracle_agrees_with_forms_on_catalog(catalogs):
    entries = catalogs(3, 6, 8, 2).entries
    graphs = [e.form.decode() for e in entries]
    for (g1, e1), (g2, e2) in itertools.combinations(zip(graphs, entries), 2):
        assert not are_isomorphic_oracle(g1, g2)
        assert e1.form != e2.form
    # and an isomorphic pair for the positive direction
    rng = random.Random(3)
    for g in graphs[:5]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic_oracle(g, permuted(g, perm))


def test_determinism_across_backends(catalogs):
    from etskit import _kernel

    try:
        from etskit import _ckernel
    except ImportError:
        pytest.skip("compiled kernel not built")
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(1, 11)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice((0.15, 0.4, 0.7)):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        assert _kernel.canonical_bits(n, adj) == _ckernel.canonical_bits(n, adj)
    # relabelled catalog structures on 6 to 10 nodes
    cells = ((4, 6, 6, 6), (3, 6, 8, 2), (6, 6, 8, 8), (3, 6, 9, 7),
             (3, 8, 9, 5), (4, 8, 9, 8), (3, 6, 10, 8), (3, 8, 10, 6),
             (3, 6, 10, 10))
    structures = 0
    for cell in cells:
        for entry in catalogs(*cell).entries:
            g = entry.form.decode()
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                adj = permuted(g, perm).adj_masks
                assert _kernel.canonical_bits(g.n, adj) == _ckernel.canonical_bits(g.n, adj)
            structures += 1
    assert structures > 300
