"""The compiled kernel and the pure kernel must be interchangeable."""

import hashlib
import importlib
import itertools
import random
import sys
import types

import pytest

from etskit import _kernel
from etskit import kernel


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield adj


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_pure_kernel_class_counts(n, count):
    forms = {_kernel.canonical_bits(n, adj)[0] for adj in all_graphs(n)}
    assert len(forms) == count


def test_pure_kernel_invariance():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(2, 11)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        form, perm = _kernel.canonical_bits(n, adj)
        assert sorted(perm) == list(range(n))
        relabel = list(range(n))
        rng.shuffle(relabel)
        adj2 = [0] * n
        for i in range(n):
            for j in range(n):
                if adj[i] >> j & 1:
                    adj2[relabel[i]] |= 1 << relabel[j]
        assert _kernel.canonical_bits(n, adj2)[0] == form


def pinned_graphs():
    """A fixed seeded set: five random graphs for each n = 1..12 and each
    of four edge densities, then every two-jump circulant C_n(1, j) with
    n = 5..12 (vertex-transitive, so the search branches)."""
    rng = random.Random(2718)
    for n in range(1, 13):
        for density in (0.15, 0.35, 0.6, 0.85):
            for _ in range(5):
                adj = [0] * n
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < density:
                            adj[i] |= 1 << j
                            adj[j] |= 1 << i
                yield n, adj
    for n in range(5, 13):
        for jump in range(2, n // 2 + 1):
            adj = [0] * n
            for i in range(n):
                for step in (1, jump):
                    adj[i] |= 1 << (i + step) % n | 1 << (i - step) % n
            yield n, adj


# sha256 of the pure kernel's (form, perm) list over pinned_graphs(),
# recorded from the kernel that rebuilt every cell mask on each pass
PINNED_SHA256 = "1de379a61b7ca9c6a0b1074c3df55793ecc857818db53398210dd4a20f3b78cc"


def test_pure_kernel_pinned_form_and_perm():
    results = [_kernel.canonical_bits(n, adj) for n, adj in pinned_graphs()]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == PINNED_SHA256


def test_compiled_kernel_matches_pure_exhaustively():
    try:
        from etskit import _ckernel
    except ImportError:
        pytest.skip("compiled kernel not built")
    for n in range(1, 6):
        for adj in all_graphs(n):
            assert _kernel.canonical_bits(n, adj) == _ckernel.canonical_bits(n, adj)


def test_active_backend_reports():
    assert kernel.backend() in ("c", "pure")
    form, perm = kernel.canonical_bits(3, [0b110, 0b101, 0b011])
    assert form == _kernel.canonical_bits(3, [0b110, 0b101, 0b011])[0]


def test_compiled_module_without_kernel_names_falls_back_to_pure(monkeypatch):
    # an importable etskit._ckernel that lacks canonical_bits, as the stub of
    # a zipped egg install is, must not break `import etskit`
    active = kernel.backend()
    monkeypatch.delenv("ETSKIT_PURE", raising=False)
    monkeypatch.setitem(sys.modules, "etskit._ckernel", types.ModuleType("etskit._ckernel"))
    try:
        importlib.reload(kernel)
        assert kernel.backend() == "pure"
        assert kernel.canonical_bits is _kernel.canonical_bits
    finally:
        monkeypatch.undo()
        importlib.reload(kernel)
    assert kernel.backend() == active


def test_node_cap():
    with pytest.raises(ValueError):
        _kernel.canonical_bits(17, [0] * 17)
