#!/usr/bin/env python3
"""Compare the compiled and pure canonical-labeling kernels.

Two workloads: raw canonical-form calls on random graphs of each size
(the fastest of five passes per kernel), and catalog generation of three
cells (the hot path that motivated the compiled kernel), with the
canonical-form calls each makes.  Without the extension it prints ``-``
for the compiled columns and times generation on the pure kernel only.
Run after building the extension in place:

    python setup.py build_ext --inplace
    python benchmarks/bench_kernel.py
"""

import random
import time

from etskit import _kernel, structgen

try:
    from etskit import _ckernel
except ImportError:
    _ckernel = None


def random_graphs(n, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice((0.15, 0.35, 0.55, 0.8)):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        out.append(adj)
    return out


PASSES = 5  # a single pass moved by up to 2x between back-to-back runs


def us_per_call(canonical_bits, n, graphs):
    """Microseconds per call over the fastest of ``PASSES`` passes."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for adj in graphs:
            canonical_bits(n, adj)
        best = min(best, time.perf_counter() - t0)
    return best / len(graphs) * 1e6


def bench_canon():
    print(f"{'n':>3} {'pure us/call':>14} {'compiled us/call':>17} {'speedup':>8}")
    for n in (6, 8, 9, 10):
        graphs = random_graphs(n, 400, seed=n)
        pure = us_per_call(_kernel.canonical_bits, n, graphs)
        if _ckernel is None:
            print(f"{n:>3} {pure:>14.1f} {'-':>17} {'-':>8}")
            continue
        comp = us_per_call(_ckernel.canonical_bits, n, graphs)
        for adj in graphs:
            assert _kernel.canonical_bits(n, adj) == _ckernel.canonical_bits(n, adj)
        print(f"{n:>3} {pure:>14.1f} {comp:>17.1f} {pure / comp:>7.1f}x")


GENERATION_CELLS = ((5, 6, 8, 6), (4, 6, 8, 8), (5, 6, 8, 8))


def bench_generation():
    """Time catalog generation per cell and kernel, with its count of
    canonical-form calls; the kernels must agree on both forms and calls."""
    print(f"{'cell (d_l,g,a,b)':<18} {'kernel':<9} {'structures':>10} "
          f"{'canon calls':>12} {'seconds':>8}")
    inner = structgen.canonical_masks
    for cell in GENERATION_CELLS:
        runs = []
        for label, module in (("compiled", _ckernel), ("pure", _kernel)):
            if module is None:
                print(f"{str(cell):<18} {label:<9} extension not built, skipping")
                continue
            calls = 0

            def counting(n, adj):  # the name structgen calls, on this kernel
                nonlocal calls
                calls += 1
                return module.canonical_bits(n, adj)

            structgen.canonical_masks = counting
            try:
                t0 = time.perf_counter()
                catalog = structgen.generate_structures(structgen.ClassSpec(*cell))
                seconds = time.perf_counter() - t0
            finally:
                structgen.canonical_masks = inner
            runs.append((catalog.entries, calls))
            print(f"{str(cell):<18} {label:<9} {len(catalog):>10} {calls:>12} {seconds:>8.2f}")
        assert all(run == runs[0] for run in runs), f"the kernels disagree on cell {cell}"


if __name__ == "__main__":
    print(f"active kernels: pure{' + compiled' if _ckernel else ' only'}")
    bench_canon()
    bench_generation()
