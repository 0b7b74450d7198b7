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

Cycles up to length L come from ``tanner.cycle_levels``, which pairs
half-paths at their antipode, one start node at a time.

A structure is labeled with the smallest Tanner cycle length x such that
layered one-node expansion grows one of its length-x cycle node sets into
the full structure; NA when no cycle length works (such structures are
invisible to cycle-seeded search by construction).

The label is computed on the normal graph, with no Tanner round trip.  The
seeds are the cycles of the structure's Tanner graph.  Its degree-1 checks
lie on no cycle, so those are the cycles of ``normal.tanner_adjacency``,
the normal graph with every edge subdivided by its check: a normal cycle of
k nodes is a Tanner cycle of length 2k, and ``cycle_levels`` yields it at
that length, which is the label it gives.  In the structure's own Tanner
graph a node v outside a subset S has one degree-2 check per neighbour and
degree-1 checks otherwise.  The odd checks of S that touch v are exactly
v's edges into S, and no check of v can be a satisfied check of S, since
both nodes of a satisfied check lie in S.  So the one-step expansion admits
v exactly when v has at least two neighbours in S.  That rule is monotone:
adding nodes to S never disables an admissible node.  Any layered chain
from a seed therefore stays inside the greedy closure of the seed under the
rule, and the closure, taken one node at a time, is itself a layered
chain.  The full structure is reachable from a seed exactly when the seed's
closure is the full node set.  ``lss_label_of`` runs one ``cycle_levels``
pass per start node, all of them one length per round, and stops at the
first seed whose closure is full, so it enumerates no cycle longer than the
label.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from etskit.normal import NormalGraph, check_degree_cap, tanner_adjacency
from etskit.normal import CycleCensus, from_normal  # noqa: F401  (patched by perfbench/tracing.py)
from etskit.structgen import CatalogEntry, Catalog
from etskit.tables import NA, Label
from etskit.tanner import TannerGraph, TrappingSetRecord, check_masks
from etskit.tanner import cycle_levels, node_adjacency
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
    deduplicated per start node.  Each cycle is found once, from its
    smallest node, by ``tanner.cycle_levels``; that node is always a
    variable, since check ids are ``c + num_var``.
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
        for length, masks in cycle_levels(adj, s, max_len, var_bits):
            if masks:
                rows = found.setdefault(length, [])
                for rest in set(masks):
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


def _closure(adj: Sequence[int], s: int) -> int:
    """Node bitmask ``s`` grown by every node with two neighbours in it."""
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
    tanner = tanner_adjacency(structure)
    passes = [
        cycle_levels(tanner, s, 2 * structure.n, full) for s in range(structure.n)
    ]
    while passes:  # one round per length, shortest first
        alive = []
        for levels in passes:
            step = next(levels, None)
            if step is not None:
                length, seeds = step
                for seed in seeds:
                    if _closure(adj, seed) == full:
                        return length
                alive.append(levels)
        passes = alive
    return NA


def label_catalog(catalog: Catalog) -> Catalog:
    """Catalog with every entry labeled, in one process: a whole cell takes
    a fraction of a second, less than starting a worker pool costs."""
    labeled = [replace(e, lss=classify_lss(e)) for e in catalog.entries]
    return Catalog(spec=catalog.spec, entries=labeled, reason=catalog.reason)
