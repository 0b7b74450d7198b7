"""Layered-superset machinery: expansion to size k, cycle enumeration, and
the LSS classification of catalog structures.

A set S' of size a+1 in the pool can only extend an in-pool elementary set
S of size a through a variable node with at least two edges into S's
unsatisfied checks and none into its satisfied checks, so the one-step
expansion below, which scans only the variables of S's unsatisfied checks,
misses no extension.

The expansion works on check bitmasks.  With ``vc[v]`` the checks of
variable v and ``cv[c]`` the variables of check c, ``tanner.check_masks``
gives each set S its ``odd`` checks, here S's unsatisfied ones (degree 1,
since S is elementary), and its ``reached`` checks, all of them.  Folding
the odd checks as ``twice |= once & cv[c]``, then ``once |= cv[c]``, leaves
in ``twice`` exactly the variables on two or more of them.  A candidate v
is one of those outside S, ``twice & ~smask``, and it is admitted when
``vc[v] & even`` is empty, with ``even = reached & ~odd`` S's satisfied
checks.  That is exactly "no edge into the satisfied checks": v is outside
S, so v is one of the variables of S's satisfied checks exactly when one of
its own checks is among them.  The grown set's unsatisfied checks are
``odd ^ vc[v]``: the hits become satisfied and v's other checks are new
degree-1 checks.  So each grown set comes with its class,
b(S ∪ {v}) = |odd ^ vc[v]|, and needs no check count of its own.  Its key
is the parent's sorted member tuple with v inserted, and the class is
counted only for a key the layer does not hold yet.

Cycles up to length L are enumerated by pairing half-paths at their
antipode.  A cycle of length 2h has one smallest node s, and the node h
steps from s either way round is its antipode x; the cycle is the union of
two simple s-x paths of h edges over nodes above s that share only s and x.
Conversely, any two such paths form a cycle of length 2h with smallest node
s and antipode x.  So growing the simple paths from each s over the nodes
above it, one edge at a time up to L // 2 edges, and pairing the paths that
end at the same node with no other node in common finds every cycle of
length <= L, and each exactly once: the cycle fixes s, h, x and the
unordered pair of its two arcs.

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
from etskit.structgen import CatalogEntry, Catalog
from etskit.tables import NA, Label
from etskit.tanner import TannerGraph, TrappingSetRecord, check_masks
from etskit.tanner import node_adjacency
from etskit.tanner import classify  # noqa: F401  (patched by perfbench/tracing.py)

MAX_K = 12


class ExpansionFrontier:
    """Deduplicated in-pool ETSs found per size, each with its ``b``."""

    def __init__(self):
        self.by_size: dict[int, dict[tuple[int, ...], int]] = {}

    def __len__(self) -> int:
        return sum(len(layer) for layer in self.by_size.values())


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
        frontier.by_size.setdefault(rec.a, {}).setdefault(rec.members, rec.b)
    vc = graph.var_cmask
    cv = graph.chk_vmask
    for size in range(2, k):
        grown = frontier.by_size.get(size + 1, {})
        for members in frontier.by_size.get(size, ()):
            smask, odd, reached = check_masks(graph, members)
            once = twice = 0
            rest = odd
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                twice |= once & cv[c]
                once |= cv[c]
            even = reached & ~odd
            rest = twice & ~smask
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if not vc[v] & even:
                    child = tuple(sorted((*members, v)))
                    if child not in grown:
                        grown[child] = (odd ^ vc[v]).bit_count()
        if grown:
            frontier.by_size[size + 1] = grown
    return frontier


def enumerate_tanner_cycles(
    graph: TannerGraph, max_len: int
) -> dict[int, list[tuple[int, ...]]]:
    """Variable-node sets of all cycles of length girth..max_len.

    A length-2m cycle yields its m-element variable set; per length, node
    sets are deduplicated (two cycles on the same variables count once).
    Two such cycles have the same smallest node, so the sets are
    deduplicated per start node.

    Each cycle is found once from its smallest node ``s`` (always a
    variable, since check ids are ``c + num_var``) and its antipode ``x``,
    the node half-way round.  Level ``h`` holds every simple path of ``h``
    edges from ``s`` over nodes ``> s``, as its end node and the bitmask of
    its other nodes.  Two paths of level ``h`` that end at the same ``x``,
    with masks that share only ``s``, are the two arcs of a cycle of length
    ``2h``.  Every cycle of length ``2h`` splits at ``s`` and ``x`` into
    two such arcs, so none is missed, and that unordered pair of arcs is the
    only one that gives it, so none is found twice.  The levels stop at
    ``max_len // 2`` or at the first empty one.
    """
    girth = graph.girth
    if girth != float("inf"):
        if max_len < girth:
            raise ValueError(f"max_len {max_len} below girth {girth}")
        if max_len > girth + 12:
            raise ValueError(f"max_len {max_len} above girth+12 cap")
    nv = graph.num_var
    adj = node_adjacency(graph.var_adj, graph.chk_adj)
    var_bits = (1 << nv) - 1
    # the member tuples outlive the call as search seeds: share one int per
    # id, since Python makes a new int object for each id above 256
    ids = list(range(nv))
    found: dict[int, list[tuple[int, ...]]] = {}
    for s in range(nv):
        sbit = 1 << s
        cycles: dict[int, set[int]] = {}  # length -> variable bitmasks
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
            for x, masks in level.items():
                if len(masks) > 1:
                    xbit = 1 << x
                    for i, m in enumerate(masks):
                        for m2 in masks[i + 1:]:
                            if m & m2 == sbit:
                                cycle = (m | m2 | xbit) & var_bits
                                cycles.setdefault(length, set()).add(cycle)
        for length, masks in cycles.items():
            rows = found.setdefault(length, [])
            for rest in masks:
                row = []
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row.append(ids[low.bit_length() - 1])
                rows.append(tuple(row))
    for rows in found.values():
        rows.sort()
    return {length: found[length] for length in sorted(found)}


def classify_lss(entry: CatalogEntry) -> Label:
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


def lss_label_of(structure: NormalGraph, d_l: int) -> Label:
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
