"""Pure-Python canonical-labeling kernel.

``canonical_bits`` maps a small simple graph (adjacency bitmasks) to a
relabeling-invariant byte string: one length byte, then the row-major
upper-triangle adjacency bitmap of the lexicographically smallest
relabeling.  Two graphs are isomorphic iff the byte strings are equal.

The search is individualization-refinement on an ordered partition, kept
as a list of cells and one bitmask per cell.  Refinement runs in
simultaneous passes: each vertex of a non-singleton cell is keyed by its
neighbour counts in every cell as the cells stood when the pass began,
and a cell that splits is replaced by its buckets in sorted key order,
each bucket filled in cell order.  It stops when a pass splits nothing
or every cell is a singleton.  The search then branches on the first
non-singleton cell, individualizing its members in cell order; a cell
whose members are mutually interchangeable (equal outside neighborhoods,
cell internally empty, complete, a perfect matching or its complement)
branches only once.  The form is the smallest bitmap of the leaves.

These rules fix the form, so they are the contract of both kernels.  So
are the refusals: a node count above ``NODE_CAP`` or below 0 and a mask
holding its own node's bit or a bit at or above ``n`` raise
``ValueError``, a mask below 0 or of 32 bits or more ``OverflowError``,
a mask that is not an ``int`` ``TypeError``, and an ``adj`` shorter than
``n`` ``IndexError``.
``src/etskit/_ckernel.c``, written by hand against the CPython API,
applies them on fixed arrays: each pass rebuilds every cell mask, keys
every vertex by one 64-bit integer (its count in each cell in 4 bits, the
first cell highest: 16 nodes allow 16 cells and 15 neighbours, so it
orders as the tuple does), and sorts each cell with a stable insertion sort.
Updating masks only for split cells, keying only vertices of
non-singleton cells and stopping at the discrete partition, as this
module does, leave the result unchanged.  The two kernels must return the
same form for every graph: ``tests/test_kernel_parity.py`` and
``tests/test_canon.py`` compare them and pin the pure kernel's output.
"""

from __future__ import annotations

BACKEND = "pure"

NODE_CAP = 16


def _refine(n, adj, cells, masks):
    while len(cells) < n:
        out = []
        out_masks = []
        for cell, cmask in zip(cells, masks):
            if len(cell) == 1:
                out.append(cell)
                out_masks.append(cmask)
                continue
            buckets = {}
            for v in cell:
                a = adj[v]
                key = tuple([(a & m).bit_count() for m in masks])
                buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                out.append(cell)
                out_masks.append(cmask)
                continue
            for key in sorted(buckets):
                bucket = buckets[key]
                bmask = 0
                for v in bucket:
                    bmask |= 1 << v
                out.append(bucket)
                out_masks.append(bmask)
        if len(out) == len(cells):
            break
        cells = out
        masks = out_masks
    return cells, masks


def _bitmap(n, adj, order):
    acc = 0
    bits = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | ((ai >> order[j]) & 1)
            bits += 1
    pad = (-bits) % 8
    return (acc << pad).to_bytes((bits + pad) // 8, "big")


def canonical_bits(n, adj):
    """Return the canonical byte encoding of the graph on ``n`` nodes given
    as bitmasks."""
    if n > NODE_CAP:
        raise ValueError(f"node count {n} exceeds kernel cap {NODE_CAP}")
    if n < 0:
        raise ValueError(f"node count {n} is negative")
    for v in range(n):
        x = adj[v]
        if not isinstance(x, int):
            raise TypeError(f"adjacency mask must be int, not {type(x).__name__}")
        if x < 0 or x >> 32:
            raise OverflowError(f"adjacency mask {x} does not fit in 32 bits")
        if x >> n or x >> v & 1:
            raise ValueError(f"adjacency mask {x} of node {v} is not a set of other nodes")
    if n == 0:
        return b"\x00"
    best = None

    def rec(cells, masks):
        nonlocal best
        cells, masks = _refine(n, adj, cells, masks)
        if len(cells) == n:
            order = [cell[0] for cell in cells]
            bm = _bitmap(n, adj, order)
            if best is None or bm < best:
                best = bm
            return
        target = 0
        while len(cells[target]) == 1:
            target += 1
        cell = cells[target]
        cmask = masks[target]
        branch = cell
        outside = {adj[v] & ~cmask for v in cell}
        if len(outside) == 1:
            # interchangeable members: any two can be swapped by an
            # automorphism when the cell induces nothing, everything, a
            # perfect matching, or the complement of one
            internal = [adj[v] & cmask for v in cell]
            degs = {x.bit_count() for x in internal}
            if degs <= {0} or degs <= {len(cell) - 1} or degs <= {1} or (
                len(cell) > 2 and degs <= {len(cell) - 2}
            ):
                branch = cell[:1]
        for v in branch:
            bit = 1 << v
            rest = [u for u in cell if u != v]
            rec(
                cells[:target] + [[v], rest] + cells[target + 1:],
                masks[:target] + [bit, cmask & ~bit] + masks[target + 1:],
            )

    rec([list(range(n))], [(1 << n) - 1])
    return bytes([n]) + best
