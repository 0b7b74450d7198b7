"""Tanner-graph model, alist ingestion, and trapping-set predicates.

A Tanner graph here is always variable-regular (uniform left degree
``d_l >= 3``), has no parallel edges, and girth at least 6.  Variable nodes
and check nodes are numbered independently from 0.

For a variable set S, the neighbor checks split into the unsatisfied ones
(odd degree in the induced subgraph) and the satisfied ones (even degree).
``classify`` evaluates the (a, b) class, elementarity (all induced check
degrees 1 or 2), membership in the pool of search-relevant sets (connected
induced subgraph, every member touching at least two satisfied checks), and
the absorbing property (every member strictly majority-satisfied).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterable, Sequence, Union

from etskit.errors import AlistParseError, BindingError, GraphConstraintError

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
    girth: float  # even int, or math.inf when acyclic

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
                chk[c].append(v)
        g = _girth_of(rows, num_chk)
        if g < MIN_GIRTH:
            raise GraphConstraintError(f"girth {g} below minimum {MIN_GIRTH}")
        return cls(
            num_var=len(rows),
            num_chk=num_chk,
            d_l=d_l,
            var_adj=rows,
            chk_adj=tuple(tuple(sorted(c)) for c in chk),
            girth=g,
        )

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
    def max_chk_degree(self) -> int:
        return max((len(c) for c in self.chk_adj), default=0)


def members_of(graph: TannerGraph, s: Iterable[int]) -> tuple[int, ...]:
    """Sorted distinct variable ids of ``s``, checked against ``graph``."""
    members = tuple(sorted(set(s)))
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


def _girth_of(var_adj: Sequence[Sequence[int]], num_chk: int) -> float:
    """Shortest cycle length in edges via BFS from every variable node."""
    nv = len(var_adj)
    chk_adj = [[] for _ in range(num_chk)]
    for v, row in enumerate(var_adj):
        for c in row:
            chk_adj[c].append(v)
    # global ids: variables 0..nv-1, checks nv..nv+num_chk-1
    adj = [tuple(c + nv for c in row) for row in var_adj]
    adj += [tuple(chk_adj[c]) for c in range(num_chk)]
    best = inf
    for root in range(nv):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                du = dist[u]
                if 2 * du >= best:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cyc = du + dist[w] + 1
                        if cyc < best:
                            best = cyc
            queue = nxt
        if best <= 4:  # bipartite minimum; nothing shorter can appear
            break
    return best


def _chk_degrees(graph: TannerGraph, members: tuple[int, ...]) -> dict[int, int]:
    smask = 0
    for v in members:
        smask |= 1 << v
    degs: dict[int, int] = {}
    vmask = graph.chk_vmask
    for v in members:
        for c in graph.var_adj[v]:
            if c not in degs:
                degs[c] = (vmask[c] & smask).bit_count()
    return degs


def gamma_split(graph: TannerGraph, s: Iterable[int]) -> GammaSplit:
    members = members_of(graph, s)
    if not members:
        raise ValueError("variable set is empty")
    degs = _chk_degrees(graph, members)
    odd = frozenset(c for c, d in degs.items() if d % 2 == 1)
    even = frozenset(c for c, d in degs.items() if d % 2 == 0)
    return GammaSplit(odd=odd, even=even)


def _connected(graph: TannerGraph, members: tuple[int, ...], degs: dict[int, int]) -> bool:
    if len(members) <= 1:
        return True
    smask = 0
    for v in members:
        smask |= 1 << v
    seen = 1 << members[0]
    stack = [members[0]]
    while stack:
        v = stack.pop()
        for c in graph.var_adj[v]:
            if degs[c] < 2:
                continue
            reach = graph.chk_vmask[c] & smask & ~seen
            while reach:
                w = (reach & -reach).bit_length() - 1
                seen |= 1 << w
                reach &= reach - 1
                stack.append(w)
    return seen.bit_count() == len(members)


def classify(graph: TannerGraph, s: Iterable[int]) -> TrappingSetRecord:
    """Full predicate record for a variable set; pure in its inputs."""
    members = members_of(graph, s)
    if not members:
        raise ValueError("variable set is empty")
    degs = _chk_degrees(graph, members)
    b = sum(1 for d in degs.values() if d % 2 == 1)
    elementary = all(d <= 2 for d in degs.values())
    sat_counts = [
        sum(1 for c in graph.var_adj[v] if degs[c] % 2 == 0) for v in members
    ]
    in_t = all(n >= 2 for n in sat_counts) and _connected(graph, members, degs)
    absorbing = all(2 * n > graph.d_l for n in sat_counts)
    return TrappingSetRecord(
        members=members,
        a=len(members),
        b=b,
        elementary=elementary,
        in_t=in_t,
        absorbing=absorbing,
    )


def _int_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            yield lineno, [int(tok) for tok in stripped.split()]
        except ValueError:
            raise AlistParseError(lineno, f"non-integer token in {stripped.split()!r}")


def parse_alist(text: Union[str, bytes]) -> TannerGraph:
    """Parse MacKay alist text into a validated TannerGraph.

    Layout: ``n m`` header, max degrees, per-variable degrees, per-check
    degrees, then one neighbor line per variable and per check (1-indexed,
    zero padding ignored).
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = list(_int_lines(text))
    if not lines:
        raise AlistParseError(1, "empty alist")
    pos = 0

    def take(what: str) -> tuple[int, list[int]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise AlistParseError(last + 1, f"unexpected end of file, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    header_line, header = take("header 'n m'")
    if len(header) != 2 or header[0] <= 0 or header[1] <= 0:
        raise AlistParseError(header_line, "malformed header, expected 'n m'")
    n, m = header
    lineno, maxdeg = take("max degrees")
    if len(maxdeg) != 2:
        raise AlistParseError(lineno, "malformed max-degree line")
    lineno, vdegs = take("variable degree list")
    if len(vdegs) != n:
        raise AlistParseError(lineno, f"expected {n} variable degrees, got {len(vdegs)}")
    lineno, cdegs = take("check degree list")
    if len(cdegs) != m:
        raise AlistParseError(lineno, f"expected {m} check degrees, got {len(cdegs)}")

    var_adj: list[tuple[int, ...]] = []
    for v in range(n):
        lineno, entries = take(f"neighbor list of variable {v + 1}")
        ids = [e for e in entries if e != 0]
        if len(ids) != vdegs[v]:
            raise AlistParseError(
                lineno,
                f"variable {v + 1} lists {len(ids)} checks, degree list says {vdegs[v]}",
            )
        for c in ids:
            if c < 1 or c > m:
                raise AlistParseError(lineno, f"check index {c} out of range 1..{m}")
        if len(set(ids)) != len(ids):
            raise AlistParseError(lineno, f"parallel edge: variable {v + 1} repeats a check")
        if var_adj and len(ids) != len(var_adj[0]):
            raise AlistParseError(lineno, f"non-uniform variable degree: variable {v + 1}")
        var_adj.append(tuple(sorted(c - 1 for c in ids)))

    chk_from_file: list[tuple[int, set[int]]] = []
    for c in range(m):
        lineno, entries = take(f"neighbor list of check {c + 1}")
        ids = [e for e in entries if e != 0]
        if len(ids) != cdegs[c]:
            raise AlistParseError(
                lineno,
                f"check {c + 1} lists {len(ids)} variables, degree list says {cdegs[c]}",
            )
        for v in ids:
            if v < 1 or v > n:
                raise AlistParseError(lineno, f"variable index {v} out of range 1..{n}")
        if len(set(ids)) != len(ids):
            raise AlistParseError(lineno, f"parallel edge: check {c + 1} repeats a variable")
        chk_from_file.append((lineno, {v - 1 for v in ids}))

    derived = [set() for _ in range(m)]
    for v, row in enumerate(var_adj):
        for c in row:
            derived[c].add(v)
    for c, (lineno, listed) in enumerate(chk_from_file):
        if derived[c] != listed:
            raise AlistParseError(
                lineno, f"check {c + 1} neighbor list disagrees with variable lists"
            )

    try:
        return TannerGraph.from_var_adj(var_adj, m)
    except GraphConstraintError as exc:
        # left degree below the minimum, or girth below the minimum
        raise AlistParseError(header_line, str(exc)) from exc
