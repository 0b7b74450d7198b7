"""Normal-graph representation of elementary trapping sets.

The induced subgraph of an elementary set reduces losslessly to a simple
graph on the variable nodes: every satisfied (degree-2) check becomes an
edge, every unsatisfied (degree-1) check is dropped.  Given the left degree
the reduction inverts exactly, so structure enumeration can run over these
small simple graphs instead of bipartite ones.

Cycle lengths double under the reduction: a length-k simple cycle of the
normal graph is a length-2k cycle of the Tanner subgraph.  So the cycles
of a structure come from ``tanner.cycle_levels`` run on
``tanner_adjacency``, already at their Tanner lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from etskit.errors import GraphConstraintError, int_lines
from etskit.tanner import TannerGraph, cycle_levels, mask_bits, mask_connected, mask_edges
from etskit.tanner import node_adjacency


@dataclass(frozen=True)
class NormalGraph:
    """Connected simple undirected graph on nodes ``0..n-1``."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        norm = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise GraphConstraintError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphConstraintError(f"edge ({i},{j}) out of range for n={n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if n < 1:
            raise GraphConstraintError("normal graph needs at least one node")
        if not mask_connected(self.adj_masks, (1 << n) - 1):
            raise GraphConstraintError("normal graph must be connected")

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return tuple(adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj_masks)

    @property
    def m(self) -> int:
        return len(self.edges)


def check_degree_cap(degrees: Sequence[int], d_l: int) -> None:
    """Reject a structure with a node degree above left degree ``d_l``."""
    for v, deg in enumerate(degrees):
        if deg > d_l:
            raise GraphConstraintError(
                f"node {v} has degree {deg}, above left degree {d_l}"
            )


def _edge_checks(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Per node, the ids of its edges: its degree-2 checks in Tanner form."""
    var_adj = [[] for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        var_adj[i].append(e)
        var_adj[j].append(e)
    return var_adj


def from_normal(n: NormalGraph, d_l: int) -> TannerGraph:
    """Expand a normal graph back to its Tanner form for left degree ``d_l``.

    Check ids are deterministic: one degree-2 check per edge in sorted edge
    order, then the degree-1 checks in node order, so round trips are exact.
    """
    check_degree_cap(n.degrees, d_l)
    var_adj = _edge_checks(n.n, n.edges)
    next_chk = n.m
    for v in range(n.n):
        for _ in range(d_l - n.degrees[v]):
            var_adj[v].append(next_chk)
            next_chk += 1
    return TannerGraph.from_var_adj(var_adj, next_chk)


def tanner_adjacency(adj: Sequence[int]) -> list[Sequence[int]]:
    """``node_adjacency`` of a structure's Tanner graph without its degree-1
    checks, from the neighbour bitmasks ``adj`` of its normal graph: node v,
    then edge ``e`` of the sorted edge list as the check ``len(adj) + e``.
    Its cycles are the normal graph's at twice the length, and the smallest
    node of each is a node of the structure."""
    edges = mask_edges(adj)
    return node_adjacency(_edge_checks(len(adj), edges), edges)


class CycleCensus:
    """Simple cycles of a normal graph, reported at Tanner lengths (2x)."""

    def __init__(self, n: NormalGraph, max_normal_len: int | None = None):
        cap = n.n if max_normal_len is None else min(max_normal_len, n.n)
        adj = tanner_adjacency(n.adj_masks)
        full = (1 << n.n) - 1
        counts: dict[int, int] = {}
        sets: dict[int, set[int]] = {}
        for s in range(n.n):
            for length, masks in cycle_levels(adj, s, 2 * cap, full):
                if masks:
                    counts[length] = counts.get(length, 0) + len(masks)
                    sets.setdefault(length, set()).update(masks)
        self.counts = dict(sorted(counts.items()))
        self._sets = {
            k: tuple(sorted(map(mask_bits, v))) for k, v in sorted(sets.items())
        }

    @property
    def tanner_lengths(self) -> tuple[int, ...]:
        return tuple(self.counts)

    def node_sets(self, tanner_length: int) -> tuple[tuple[int, ...], ...]:
        return self._sets.get(tanner_length, ())


def to_text(n: NormalGraph) -> str:
    lines = [f"{n.n} {n.m}"]
    lines += [f"{i} {j}" for i, j in n.edges]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> NormalGraph:
    """Inverse of ``to_text``; a bad header, token or edge line is named by its line."""
    rows = list(int_lines(text, lambda line, msg: GraphConstraintError(f"line {line}: {msg}")))
    header_no, header = rows[0] if rows else (1, [])  # empty text: no header on line 1
    if len(header) != 2:
        raise GraphConstraintError(f"line {header_no}: expected 'n m' header")
    nn, m = header
    if len(rows) - 1 != m:
        raise GraphConstraintError(f"line {header_no}: expected {m} edge lines, got {len(rows) - 1}")
    first_line: dict[tuple[int, int], int] = {}  # NormalGraph drops a repeat
    for lineno, row in rows[1:]:
        if len(row) != 2 or not row[0] < row[1] < nn:
            raise GraphConstraintError(f"line {lineno}: expected an edge 'i j' with i < j < {nn}")
        edge = (row[0], row[1])
        if edge in first_line:
            raise GraphConstraintError(
                f"line {lineno}: duplicate of the edge on line {first_line[edge]}"
            )
        first_line[edge] = lineno
    try:  # with the edges checked, NormalGraph rejects only the header: n < 1, disconnected
        return NormalGraph(nn, first_line)
    except GraphConstraintError as exc:
        raise GraphConstraintError(f"line {header_no}: {exc}") from None


def to_graph6(n: NormalGraph) -> str:
    """Standard graph6 line (column-major upper triangle, 6-bit chars)."""
    if n.n > 62:
        raise GraphConstraintError("graph6 support here is limited to n <= 62")
    bits = []
    masks = n.adj_masks
    for j in range(1, n.n):
        for i in range(j):
            bits.append((masks[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + n.n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def from_graph6(text: str) -> NormalGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphConstraintError("empty graph6 string")
    nn = ord(s[0]) - 63
    if nn < 1 or nn > 62:
        raise GraphConstraintError("unsupported graph6 node count")
    need = (nn * (nn - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise GraphConstraintError(
            f"graph6 body has {len(body)} chars, expected {need}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise GraphConstraintError(f"invalid graph6 character {ch!r}")
        bits += [(val >> k) & 1 for k in range(5, -1, -1)]
    if any(bits[nn * (nn - 1) // 2:]):
        # so that each accepted string is the one to_graph6 writes
        raise GraphConstraintError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for j in range(1, nn):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return NormalGraph(nn, edges)
