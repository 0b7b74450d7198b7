"""Layered-superset machinery: expansion to size k, cycle enumeration, and
the LSS classification of catalog structures.

A set S' of size a+1 in the pool can only extend an in-pool elementary set
S of size a through a variable node with at least two edges into S's
unsatisfied checks and none into its satisfied checks, so the one-step
expansion below, which scans only the variables of S's unsatisfied checks,
misses no extension.

The expansion works on check bitmasks.  With ``vc[v]`` the checks of
variable v, a set S is folded into ``odd``, the XOR of ``vc`` over S, which
is S's unsatisfied checks (degree 1, since S is elementary), and
``reached``, the OR, which is all of S's checks.  The candidates are the
variables of the ``odd`` checks outside S: at most b*(d_r - 1) of them.
A candidate v is admissible exactly when ``hits = |vc[v] & odd| >= 2`` and
``|vc[v] & reached| == hits``, that is, when every check of S that v
touches is an unsatisfied one.  The grown set's unsatisfied checks are
``odd ^ vc[v]``: the hits become satisfied and v's other d_l - hits checks
are new degree-1 checks.  So each grown set comes with its class,
b(S ∪ {v}) = |odd ^ vc[v]|, and needs no check count of its own.

Cycles up to length L are enumerated by a DFS from each variable ``start``
over the nodes above it, pruned by BFS distances: a path of p nodes is
extended to w only if p + dist(start, w) <= L.  The arc that would close
the cycle from w is at least dist(start, w) long, so a pruned path can
close no cycle of length <= L and no cycle is lost.

A structure is labeled with the smallest Tanner cycle length x such that
layered one-node expansion grows one of its length-x cycle node sets into
the full structure; NA when no cycle length works (such structures are
invisible to cycle-seeded search by construction).

The label is computed on the normal graph, with no Tanner round trip.  In
the structure's own Tanner graph a node v outside a subset S has one
degree-2 check per neighbour and degree-1 checks otherwise.  The odd checks
of S that touch v are exactly v's edges into S, and no check of v can be a
satisfied check of S, since both nodes of a satisfied check lie in S.  So
the one-step expansion admits v exactly when v has at least two neighbours
in S.  That rule is monotone: adding nodes to S never disables an admissible
node.  Any layered chain from a seed therefore stays inside the greedy
closure of the seed under the rule, and the closure, taken one node at a
time, is itself a layered chain.  The full structure is reachable from a
seed exactly when the seed's closure is the full node set.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from etskit.normal import CycleCensus, NormalGraph, check_degree_cap
from etskit.normal import from_normal  # noqa: F401  (patched by perfbench/tracing.py)
from etskit.structgen import NA, CatalogEntry, Catalog, LssLabelValue
from etskit.tanner import TannerGraph, TrappingSetRecord
from etskit.tanner import classify  # noqa: F401  (patched by perfbench/tracing.py)

MAX_K = 12


class ExpansionFrontier:
    """Deduplicated in-pool ETSs found per size, each with its ``b``."""

    def __init__(self):
        self.by_size: dict[int, dict[tuple[int, ...], int]] = {}

    def add(self, members: tuple[int, ...], b: int) -> None:
        self.by_size.setdefault(len(members), {}).setdefault(members, b)

    def __len__(self) -> int:
        return sum(len(layer) for layer in self.by_size.values())


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def expand_to_k(
    graph: TannerGraph, seeds: Iterable[TrappingSetRecord], k: int
) -> ExpansionFrontier:
    """Layered expansion of the seeds, ``classify`` records of elementary
    in-pool sets, to every reachable set of size <= k."""
    if k > MAX_K:
        raise ValueError(f"k={k} above cap {MAX_K}")
    frontier = ExpansionFrontier()
    for idx, rec in enumerate(seeds):
        if rec.a > k:
            continue
        if not (rec.elementary and rec.in_t):
            raise ValueError(f"seed {idx} is not an elementary set in the pool")
        frontier.add(rec.members, rec.b)
    vc = graph.var_cmask
    cv = graph.chk_vmask
    fanout = max(graph.max_chk_degree - 1, 0)
    for size in range(2, k):
        grown = frontier.by_size.get(size + 1, {})
        for members in frontier.by_size.get(size, ()):
            smask = odd = reached = 0
            for v in members:
                smask |= 1 << v
                odd ^= vc[v]
                reached |= vc[v]
            cands = 0
            for c in _bits(odd):
                cands |= cv[c]
            cands &= ~smask
            assert cands.bit_count() <= odd.bit_count() * fanout
            while cands:
                low = cands & -cands
                cands ^= low
                checks = vc[low.bit_length() - 1]
                hits = (checks & odd).bit_count()
                if hits >= 2 and (checks & reached).bit_count() == hits:
                    grown.setdefault(_bits(smask | low), (odd ^ checks).bit_count())
        if grown:
            frontier.by_size[size + 1] = grown
    return frontier


def enumerate_tanner_cycles(
    graph: TannerGraph, max_len: int
) -> dict[int, list[tuple[int, ...]]]:
    """Variable-node sets of all cycles of length girth..max_len.

    A length-2m cycle yields its m-element variable set; per length, node
    sets are deduplicated (two cycles on the same variables count once).

    Each cycle is found once from its smallest node ``start`` (always a
    variable, since check ids are ``c + num_var``), by a DFS over nodes
    ``> start``.  A BFS first gives ``dist[w]``, the distance from ``start``
    to ``w`` within ``{start} ∪ {nodes > start}``, up to ``max_len // 2``
    levels.  A path of ``p`` nodes is extended to ``w`` only if
    ``p + dist[w] <= max_len``.  No cycle is lost: the arc from ``w`` back
    to ``start`` also runs through nodes ``> start``, so it is at least
    ``dist[w]`` long, and a cycle closed from the extended path has at
    least ``p + dist[w]`` edges.
    """
    girth = graph.girth
    if girth != float("inf"):
        if max_len < girth:
            raise ValueError(f"max_len {max_len} below girth {girth}")
        if max_len > girth + 12:
            raise ValueError(f"max_len {max_len} above girth+12 cap")
    nv = graph.num_var
    adj = [tuple(c + nv for c in row) for row in graph.var_adj]
    adj += [graph.chk_adj[c] for c in range(graph.num_chk)]
    found: dict[int, set[tuple[int, ...]]] = {}
    far = max_len + 1  # the distance of every node the BFS does not reach
    for start in range(nv):
        dist = [far] * len(adj)
        dist[start] = 0
        layer = [start]
        for depth in range(1, max_len // 2 + 1):
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if w > start and dist[w] == far:
                        dist[w] = depth
                        nxt.append(w)
            layer = nxt
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            p = len(path)
            for w in adj[v]:
                if w == start:
                    if p >= 4 and path[1] < path[-1]:
                        found.setdefault(p, set()).add(tuple(sorted(path[::2])))
                elif p + dist[w] <= max_len and w not in path:
                    stack.append((w, path + (w,)))
    return {length: sorted(found[length]) for length in sorted(found)}


def classify_lss(entry: CatalogEntry) -> LssLabelValue:
    """Smallest Tanner cycle length whose cycles expand to the structure."""
    return lss_label_of(entry.normal_graph(), entry.spec.d_l)


def _closure(adj: Sequence[int], members: tuple[int, ...]) -> int:
    """Bitmask of ``members`` grown by every node with two neighbours in it."""
    s = 0
    for v in members:
        s |= 1 << v
    grown = True
    while grown:
        grown = False
        for v, nbrs in enumerate(adj):
            if not s >> v & 1 and (nbrs & s).bit_count() >= 2:
                s |= 1 << v
                grown = True
    return s


def lss_label_of(structure: NormalGraph, d_l: int) -> LssLabelValue:
    check_degree_cap(structure, d_l)
    adj = structure.adj_masks
    full = (1 << structure.n) - 1
    for normal_len in range(3, structure.n + 1):
        census = CycleCensus(structure, max_normal_len=normal_len)
        for seed in census.node_sets(2 * normal_len):
            if _closure(adj, seed) == full:
                return 2 * normal_len
    return NA


def label_catalog(catalog: Catalog) -> Catalog:
    """Catalog with every entry labeled, in one process: a whole cell takes
    a fraction of a second, less than starting a worker pool costs."""
    labeled = [replace(e, lss=classify_lss(e)) for e in catalog.entries]
    return Catalog(spec=catalog.spec, entries=labeled, reason=catalog.reason)
