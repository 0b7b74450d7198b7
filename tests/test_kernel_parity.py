"""The compiled kernel and the pure kernel must be interchangeable."""

import hashlib
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

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
    forms = {_kernel.canonical_bits(n, adj) for adj in all_graphs(n)}
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
        form = _kernel.canonical_bits(n, adj)
        relabel = list(range(n))
        rng.shuffle(relabel)
        adj2 = [0] * n
        for i in range(n):
            for j in range(n):
                if adj[i] >> j & 1:
                    adj2[relabel[i]] |= 1 << relabel[j]
        assert _kernel.canonical_bits(n, adj2) == form


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


# sha256 of the pure kernel's list of forms over pinned_graphs(), recorded
# from the kernel that also returned the canonical labelling
PINNED_SHA256 = "22d462f258f934809da806e53e304a617b62445f2a8008948cac249d2596b3df"


def test_pure_kernel_pinned_forms():
    results = [_kernel.canonical_bits(n, adj) for n, adj in pinned_graphs()]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == PINNED_SHA256


def compiled_kernel():
    try:
        from etskit import _ckernel
    except ImportError:
        pytest.skip("compiled kernel not built")
    return _ckernel


def test_compiled_kernel_matches_pure_exhaustively():
    ckernel = compiled_kernel()
    for n in range(1, 7):
        for adj in all_graphs(n):
            assert _kernel.canonical_bits(n, adj) == ckernel.canonical_bits(n, adj)


def random_graphs(seed, count, sizes):
    """Seeded graphs on ``sizes`` nodes: random ones at four edge densities,
    and every fourth a relabelled circulant with random jumps (regular, so
    refinement stalls and the search branches)."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.choice(sizes)
        adj = [0] * n
        if k % 4 == 3:
            relabel = list(range(n))
            rng.shuffle(relabel)
            for jump in rng.sample(range(1, n // 2 + 1), rng.randrange(1, 4)):
                for i in range(n):
                    for j in (i + jump) % n, (i - jump) % n:
                        adj[relabel[i]] |= 1 << relabel[j]
        else:
            density = rng.choice((0.15, 0.35, 0.6, 0.85))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
        yield n, adj


def test_compiled_kernel_matches_pure_on_random_graphs():
    ckernel = compiled_kernel()
    for n, adj in random_graphs(31415, 800, range(7, 17)):
        assert _kernel.canonical_bits(n, adj) == ckernel.canonical_bits(n, adj), (n, adj)


# calls that both kernels must refuse, with the exception each raises
BAD_CALLS = [
    (2, [0b10], IndexError),  # adj shorter than n
    (-1, [], ValueError),  # negative node count
    (2, [3.0, 0], TypeError),  # a mask that is not an int
    (17, [0] * 17, ValueError),  # over NODE_CAP
    (2, [0b01, 0b00], ValueError),  # a mask holding its own node's bit
    (2, [0b100, 0b000], ValueError),  # a bit at or above n
    (16, [0xFFFF] * 16, ValueError),  # K16 with self-loops: factorial time if accepted
    (2, [-1, 0], OverflowError),  # a negative mask
    (2, [1 << 32, 0], OverflowError),  # a mask of more than 32 bits
]

# runs in a child process, so that a kernel that crashes on a bad call
# fails the test by name instead of killing pytest
RAISED_PROBE = """
import json, sys
from etskit import _ckernel
for n, adj in json.loads(sys.argv[1]):
    try:
        _ckernel.canonical_bits(n, adj)
        print("None", flush=True)
    except Exception as exc:
        print(type(exc).__name__, flush=True)
"""


def test_kernels_refuse_bad_calls_alike():
    for n, adj, exc in BAD_CALLS:
        with pytest.raises(exc):
            _kernel.canonical_bits(n, adj)
    compiled_kernel()  # the rest skips unless the extension is built
    calls = [(n, adj) for n, adj, _ in BAD_CALLS]
    env = dict(os.environ, PYTHONPATH=str(Path(_kernel.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", RAISED_PROBE, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    got = proc.stdout.split()
    assert proc.returncode == 0, (
        f"compiled kernel exited with {proc.returncode} on {calls[len(got)]}: {proc.stderr}"
    )
    assert got == [exc.__name__ for _, _, exc in BAD_CALLS]


def test_active_backend_reports():
    assert kernel.backend() in ("c", "pure")
    form = kernel.canonical_bits(3, [0b110, 0b101, 0b011])
    assert form == _kernel.canonical_bits(3, [0b110, 0b101, 0b011])


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
