"""Canonical labeling of normal graphs.

Two normal graphs are isomorphic iff their canonical forms are equal.
``canonical_masks`` is the kernel entry point on raw bitmasks: structure
generation calls it, and so does the check of each row of a catalog read
from disk.  ``canonical_form`` wraps it for a ``NormalGraph``.  Catalogs
read a form's graph as bitmasks, ``CanonicalForm.masks()``; ``decode()``
builds a ``NormalGraph`` from them for text and graph6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from etskit import kernel
from etskit.errors import NodeCapError
from etskit.normal import NormalGraph
from etskit.tanner import mask_edges

_HEX_DIGITS = frozenset("0123456789abcdef")


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-ordered byte encoding; equal bytes iff isomorphic graphs."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str) -> "CanonicalForm":
        # only the text hex() writes: bytes.fromhex also takes upper case
        # and spaces, which would give one form two spellings
        if len(text) % 2 or not set(text) <= _HEX_DIGITS:
            raise ValueError(f"{text!r} is not lowercase hex")
        data = bytes.fromhex(text)
        if not data or len(data) != 1 + (data[0] * (data[0] - 1) // 2 + 7) // 8:
            raise ValueError(f"{text!r} is not one node-count byte and its bitmap")
        return cls(data)

    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks of the encoding's graph, on its canonical labels."""
        n = self.data[0]
        bits = self.data[1:]
        adj = [0] * n
        for k, (i, j) in enumerate(combinations(range(n), 2)):
            if bits[k >> 3] >> (7 - (k & 7)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return tuple(adj)

    def decode(self) -> NormalGraph:
        """The graph of the encoding, on its canonical labels."""
        return NormalGraph(self.data[0], mask_edges(self.masks()))


def canonical_masks(n: int, adj_masks) -> bytes:
    """Kernel entry point on raw bitmasks; returns the form bytes."""
    if n > kernel.NODE_CAP:
        raise NodeCapError(f"{n} nodes exceeds the {kernel.NODE_CAP}-node cap")
    return kernel.canonical_bits(n, adj_masks)


def canonical_form(n: NormalGraph) -> CanonicalForm:
    return CanonicalForm(canonical_masks(n.n, n.adj_masks))
