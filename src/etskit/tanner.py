"""Tanner-graph model, alist ingestion, and trapping-set predicates.

A Tanner graph here is always variable-regular (uniform left degree
``d_l >= 3``), has no parallel edges, and girth at least 6, as found by
``TannerGraph.girth``: a breadth-first pass over the same ``var_cmask`` and
``chk_vmask`` that the predicates and the search read.  Variable nodes and
check nodes are numbered independently from 0.

For a variable set S, the neighbor checks split into the unsatisfied ones
(odd degree in the induced subgraph) and the satisfied ones (even degree).
``check_masks`` folds S over the per-variable check bitmasks: ``odd``, the
XOR, is the unsatisfied checks and ``reached``, the OR, all of S's checks.
``classify`` reads from that fold the (a, b) class, b = |odd|;
elementarity (all induced check degrees 1 or 2); membership in the pool of
search-relevant sets (connected induced subgraph, every member touching at
least two satisfied checks); and the absorbing property (every member
strictly majority-satisfied).  With ``even = reached & ~odd``, S is
elementary exactly when ``a*d_l == |odd| + 2*|even|``: S's checks take its
a*d_l edges, an odd check at least 1 and an even one at least 2, with
equality exactly when no check has degree 3 or more.  Connectivity floods
``var_vmask``, each variable's neighbours through any of its checks, odd or
even: a check with one member reaches no other, so it needs no degree test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, reduce
from math import inf
from operator import or_
from typing import Iterable, Sequence, Union

from etskit.errors import AlistParseError, BindingError, GraphConstraintError, decode_utf8, int_lines

MIN_LEFT_DEGREE = 3
MIN_GIRTH = 6


@dataclass(frozen=True)
class TannerGraph:
    """Immutable bipartite variable/check graph of a concrete code."""

    num_var: int
    num_chk: int
    d_l: int
    var_adj: tuple[tuple[int, ...], ...]  # per variable, sorted check ids
    chk_adj: tuple[tuple[int, ...], ...]  # per check, sorted variable ids

    @classmethod
    def from_var_adj(cls, var_adj: Sequence[Sequence[int]], num_chk: int) -> "TannerGraph":
        rows = tuple(tuple(sorted(row)) for row in var_adj)
        if not rows:
            raise GraphConstraintError("graph has no variable nodes")
        d_l = len(rows[0])
        for v, row in enumerate(rows):
            if len(row) != d_l:
                raise GraphConstraintError(
                    f"variable {v} has degree {len(row)}, expected uniform {d_l}"
                )
            if len(set(row)) != len(row):
                raise GraphConstraintError(f"parallel edge at variable {v}")
            if row and (row[0] < 0 or row[-1] >= num_chk):
                raise GraphConstraintError(f"variable {v} lists a check out of range")
        if d_l < MIN_LEFT_DEGREE:
            raise GraphConstraintError(
                f"left degree {d_l} below minimum {MIN_LEFT_DEGREE}"
            )
        chk = [[] for _ in range(num_chk)]
        for v, row in enumerate(rows):
            for c in row:
                chk[c].append(v)  # ascending v, so each list is sorted
        graph = cls(
            num_var=len(rows),
            num_chk=num_chk,
            d_l=d_l,
            var_adj=rows,
            chk_adj=tuple(map(tuple, chk)),
        )
        if graph.girth < MIN_GIRTH:
            raise GraphConstraintError(f"girth {graph.girth} below minimum {MIN_GIRTH}")
        return graph

    @cached_property
    def key(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(repr((self.d_l, self.num_chk, self.var_adj)).encode())
        return h.hexdigest()

    @cached_property
    def chk_vmask(self) -> tuple[int, ...]:
        """Per check, bitmask of incident variables."""
        return tuple(sum(1 << v for v in vs) for vs in self.chk_adj)

    @cached_property
    def var_cmask(self) -> tuple[int, ...]:
        """Per variable, bitmask of incident checks."""
        return tuple(sum(1 << c for c in cs) for cs in self.var_adj)

    @cached_property
    def var_vmask(self) -> tuple[int, ...]:
        """Per variable, bitmask of the variables of its checks."""
        cv = self.chk_vmask
        return tuple(reduce(or_, (cv[c] for c in cs)) for cs in self.var_adj)

    @cached_property
    def girth(self) -> float:
        """Shortest cycle length, an even int, or ``math.inf`` when acyclic.

        Breadth-first from each variable while the next layer could close a
        shorter cycle.  In a bipartite graph, layer h + 1 is the neighbours
        of layer h outside layer h - 1: ``twice |= once & nb``, ``once |= nb``
        over each node's ``nb``.  A node in ``twice`` ends two paths of h + 1
        edges that differ in their last edge: a cycle of at most 2h + 2.  A
        shortest cycle, of length g, has no shortcut, so from a variable on it
        the antipode, at g/2, is reached twice.  So the minimum is g.
        """
        adj = (self.var_cmask, self.chk_vmask)
        best = inf
        for root in range(self.num_var):
            prev, layer, h = 0, 1 << root, 0
            while layer and 2 * h + 2 < best:
                nbrs, unseen, prev = adj[h % 2], ~prev, layer
                once = twice = 0
                while layer:
                    low = layer & -layer
                    layer ^= low
                    nb = nbrs[low.bit_length() - 1] & unseen
                    twice |= once & nb
                    once |= nb
                h += 1
                if twice:
                    best = 2 * h
                layer = once
        return best


def members_of(graph: TannerGraph, s: Iterable[int]) -> tuple[int, ...]:
    """Sorted distinct variable ids of ``s``, which must not be empty,
    checked against ``graph``."""
    members = tuple(sorted(set(s)))
    if not members:
        raise ValueError("variable set is empty")
    for v in members:
        if v < 0 or v >= graph.num_var:
            raise BindingError(f"variable {v} out of range")
    return members


@dataclass(frozen=True)
class GammaSplit:
    """Neighbor checks split by induced-degree parity."""

    odd: frozenset[int]
    even: frozenset[int]


@dataclass(frozen=True)
class TrappingSetRecord:
    members: tuple[int, ...]
    a: int
    b: int
    elementary: bool
    in_t: bool
    absorbing: bool


def node_adjacency(
    var_adj: Sequence[Sequence[int]], chk_adj: Sequence[Sequence[int]]
) -> list[Sequence[int]]:
    """Neighbours of every Tanner node under one numbering: the variables
    ``0..num_var-1``, then check ``c`` as ``num_var + c``."""
    nv = len(var_adj)
    return [tuple(c + nv for c in row) for row in var_adj] + list(chk_adj)


def cycle_levels(adj: Sequence[Sequence[int]], s: int, max_len: int, keep: int):
    """Cycles of a bipartite graph whose smallest node is ``s``, shortest
    first: for each length 4, 6, ... up to ``max_len``, yields ``(length,
    masks)`` with one node bitmask per cycle, ANDed with ``keep``.  The
    levels stop at the first length with no path left to grow.

    Each cycle is found once, from ``s`` and its antipode ``x``, the node
    half-way round.  Level ``h`` holds every simple path of ``h`` edges from
    ``s`` over nodes ``> s``, as its end node and the bitmask of its other
    nodes.  Two paths of level ``h`` that end at the same ``x``, with masks
    that share only ``s``, are the two arcs of a cycle of length ``2h``.
    Every cycle of length ``2h`` with smallest node ``s`` splits at ``s``
    and ``x`` into two such arcs, so none is missed, and that unordered pair
    of arcs is the only one that gives it, so none is found twice.
    """
    sbit = 1 << s
    level = {w: [sbit] for w in adj[s] if w > s}  # end node -> path masks
    length = 2
    while level and length + 2 <= max_len:
        length += 2
        grown: dict[int, list[int]] = {}
        for x, masks in level.items():
            xbit = 1 << x
            for w in adj[x]:
                if w > s:
                    wbit = 1 << w
                    ends = None
                    for m in masks:
                        if not m & wbit:
                            if ends is None:
                                ends = grown.setdefault(w, [])
                            ends.append(m | xbit)
        level = grown
        cycles = []
        for x, masks in level.items():
            if len(masks) > 1:
                xbit = 1 << x
                for i, m in enumerate(masks):
                    for m2 in masks[i + 1:]:
                        if m & m2 == sbit:
                            cycles.append((m | m2 | xbit) & keep)
        yield length, cycles


def mask_bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_edges(adj: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted edges ``(i, j)``, ``i < j``, of the per-node neighbour bitmasks ``adj``."""
    return [(i, j) for i, row in enumerate(adj) for j in mask_bits(row & -(2 << i))]


def mask_connected(adj: Sequence[int], nodes: int) -> bool:
    """Whether the non-empty node bitmask ``nodes`` is connected in the
    graph of the per-node neighbour bitmasks ``adj``, using only the edges
    between its own nodes."""
    seen = nodes & -nodes
    stack = [seen.bit_length() - 1]
    while stack:
        new = adj[stack.pop()] & nodes & ~seen
        seen |= new
        stack.extend(mask_bits(new))
    return seen == nodes


def check_masks(graph: TannerGraph, members: Iterable[int]) -> tuple[int, int, int]:
    """``(smask, odd, reached)`` of a variable set: the bitmask of its
    members, of its odd-degree checks and of all its checks."""
    vc = graph.var_cmask
    smask = odd = reached = 0
    for v in members:
        smask |= 1 << v
        odd ^= vc[v]
        reached |= vc[v]
    return smask, odd, reached


def gamma_split(graph: TannerGraph, s: Iterable[int]) -> GammaSplit:
    members = members_of(graph, s)
    _, odd, reached = check_masks(graph, members)
    return GammaSplit(
        odd=frozenset(mask_bits(odd)), even=frozenset(mask_bits(reached & ~odd))
    )


def classify(graph: TannerGraph, s: Iterable[int]) -> TrappingSetRecord:
    """Full predicate record for a variable set; pure in its inputs."""
    members = members_of(graph, s)
    smask, odd, reached = check_masks(graph, members)
    even = reached & ~odd
    b = odd.bit_count()
    sat_counts = [(graph.var_cmask[v] & even).bit_count() for v in members]
    in_t = all(n >= 2 for n in sat_counts) and mask_connected(graph.var_vmask, smask)
    absorbing = all(2 * n > graph.d_l for n in sat_counts)
    return TrappingSetRecord(
        members=members,
        a=len(members),
        b=b,
        elementary=len(members) * graph.d_l == b + 2 * even.bit_count(),
        in_t=in_t,
        absorbing=absorbing,
    )


def parse_alist(text: Union[str, bytes]) -> TannerGraph:
    """Parse MacKay alist text into a validated TannerGraph.

    Layout: ``n m`` header, max degrees, per-variable degrees, per-check
    degrees, then one neighbor line per variable and per check (1-indexed,
    zero padding ignored).  Every token is a run of ASCII digits, so ``+3``
    or ``0_3`` fails.  The max degrees must be the largest entries of the
    two degree lists, and nothing but blank lines may follow the last
    check's line.
    """
    if isinstance(text, bytes):
        text = decode_utf8(text, AlistParseError)
    lines = list(int_lines(text, AlistParseError))
    if not lines:
        raise AlistParseError(1, "empty alist")
    pos = 0

    def take(what: str) -> tuple[int, list[int]]:
        nonlocal pos
        if pos >= len(lines):
            raise AlistParseError(
                lines[-1][0] + 1, f"unexpected end of file, expected {what}"
            )
        item = lines[pos]
        pos += 1
        return item

    header_line, header = take("header 'n m'")
    if len(header) != 2 or header[0] <= 0 or header[1] <= 0:
        raise AlistParseError(header_line, "malformed header, expected 'n m'")
    n, m = header
    maxdeg_line, maxdeg = take("max degrees")
    if len(maxdeg) != 2:
        raise AlistParseError(maxdeg_line, "malformed max-degree line")
    lineno, vdegs = take("variable degree list")
    if len(vdegs) != n:
        raise AlistParseError(lineno, f"expected {n} variable degrees, got {len(vdegs)}")
    lineno, cdegs = take("check degree list")
    if len(cdegs) != m:
        raise AlistParseError(lineno, f"expected {m} check degrees, got {len(cdegs)}")
    if maxdeg != [max(vdegs), max(cdegs)]:
        raise AlistParseError(
            maxdeg_line,
            f"max degrees {maxdeg[0]} {maxdeg[1]}, but the degree lists"
            f" reach {max(vdegs)} {max(cdegs)}",
        )

    def neighbor_lines(kind: str, other: str, degs: list[int], bound: int):
        """Per ``kind`` node, its line and sorted 0-based ``other`` ids,
        checked against the degree list, the range ``1..bound`` and
        repeats."""
        for i, deg in enumerate(degs, start=1):
            lineno, entries = take(f"neighbor list of {kind} {i}")
            ids = [e for e in entries if e != 0]
            if len(ids) != deg:
                raise AlistParseError(
                    lineno, f"{kind} {i} lists {len(ids)} {other}s, degree list says {deg}"
                )
            for x in ids:
                if x > bound:  # tokens are digits and zeros are dropped, so x >= 1
                    raise AlistParseError(lineno, f"{other} index {x} out of range 1..{bound}")
            if len(set(ids)) != len(ids):
                raise AlistParseError(lineno, f"parallel edge: {kind} {i} repeats a {other}")
            yield lineno, tuple(sorted(x - 1 for x in ids))

    var_adj: list[tuple[int, ...]] = []
    for lineno, row in neighbor_lines("variable", "check", vdegs, m):
        if var_adj and len(row) != len(var_adj[0]):
            raise AlistParseError(
                lineno, f"non-uniform variable degree: variable {len(var_adj) + 1}"
            )
        var_adj.append(row)
    chk_lines = list(neighbor_lines("check", "variable", cdegs, n))
    if pos < len(lines):
        raise AlistParseError(lines[pos][0], "extra line after the last check neighbor list")

    derived: list[list[int]] = [[] for _ in range(m)]
    for v, row in enumerate(var_adj):
        for c in row:
            derived[c].append(v)  # ascending v, so each list is sorted
    for c, ((lineno, listed), want) in enumerate(zip(chk_lines, derived)):
        if listed != tuple(want):
            raise AlistParseError(
                lineno, f"check {c + 1} neighbor list disagrees with variable lists"
            )

    try:
        return TannerGraph.from_var_adj(var_adj, m)
    except GraphConstraintError as exc:
        # left degree below the minimum, or girth below the minimum
        raise AlistParseError(header_line, str(exc)) from exc
