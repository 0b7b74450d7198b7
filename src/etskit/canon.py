"""Canonical labeling of normal graphs.

``canonical_form`` is the workhorse used for isomorphism rejection during
structure generation: two normal graphs are isomorphic iff their forms
are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from etskit import kernel
from etskit.errors import NodeCapError
from etskit.normal import NormalGraph


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-ordered byte encoding; equal bytes iff isomorphic graphs."""

    data: bytes

    @property
    def n(self) -> int:
        return self.data[0]

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str) -> "CanonicalForm":
        data = bytes.fromhex(text)
        if not data or len(data) != 1 + (data[0] * (data[0] - 1) // 2 + 7) // 8:
            raise ValueError(f"{text!r} is not one node-count byte and its bitmap")
        return cls(data)

    def decode(self) -> NormalGraph:
        """The graph of the encoding, on its canonical labels."""
        n = self.data[0]
        bits = self.data[1:]
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if bits[k >> 3] >> (7 - (k & 7)) & 1:
                    edges.append((i, j))
                k += 1
        return NormalGraph(n, edges)


def canonical_masks(n: int, adj_masks) -> tuple[bytes, tuple[int, ...]]:
    """Kernel entry point on raw bitmasks; returns (form bytes, labeling)."""
    if n > kernel.NODE_CAP:
        raise NodeCapError(f"{n} nodes exceeds the {kernel.NODE_CAP}-node cap")
    return kernel.canonical_bits(n, adj_masks)


def canonical_form(n: NormalGraph) -> CanonicalForm:
    form, _ = canonical_masks(n.n, n.adj_masks)
    return CanonicalForm(form)
