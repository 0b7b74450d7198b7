"""Shared fixtures-adjacent helpers: deterministic random graphs, alist
rendering, and the independent brute-force oracles the suite checks the
fast paths against."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace

from etskit.errors import GraphConstraintError
from etskit.lss import expand_to_k
from etskit.normal import NormalGraph, check_degree_cap, from_normal
from etskit.structgen import NA, CatalogEntry, _is_absorbing
from etskit.tanner import TannerGraph, TrappingSetRecord, check_masks, classify
from etskit.tanner import mask_bits, members_of


def to_alist(g: TannerGraph) -> str:
    vmax = g.d_l
    cmax = max((len(c) for c in g.chk_adj), default=0)
    lines = [f"{g.num_var} {g.num_chk}", f"{vmax} {cmax}"]
    lines.append(" ".join(str(g.d_l) for _ in range(g.num_var)))
    lines.append(" ".join(str(len(c)) for c in g.chk_adj))
    for row in g.var_adj:
        lines.append(" ".join(str(c + 1) for c in row) + " 0" * (vmax - len(row)))
    for row in g.chk_adj:
        lines.append(" ".join(str(v + 1) for v in row) + " 0" * (cmax - len(row)))
    return "\n".join(lines) + "\n"


def random_tanner(num_var: int, d_l: int, num_chk: int, seed: int,
                  girth_exactly=None) -> TannerGraph:
    """Deterministic random left-regular graph with girth >= 6.

    Two variables never share two checks (that is exactly girth >= 6 in a
    bipartite graph).  With ``girth_exactly`` set, seeds are retried until
    the girth matches.
    """
    for attempt in range(200):
        rng = random.Random(seed * 1009 + attempt)
        rows: list[tuple[int, ...]] = []
        pair_seen: set[tuple[int, int]] = set()
        ok = True
        for _ in range(num_var):
            placed = None
            for _ in range(200):
                cand = tuple(sorted(rng.sample(range(num_chk), d_l)))
                pairs = list(itertools.combinations(cand, 2))
                if all(p not in pair_seen for p in pairs):
                    placed = cand
                    pair_seen.update(pairs)
                    break
            if placed is None:
                ok = False
                break
            rows.append(placed)
        if not ok:
            continue
        graph = TannerGraph.from_var_adj(rows, num_chk)
        if girth_exactly is None or graph.girth == girth_exactly:
            return graph
    raise RuntimeError("could not build a random graph with the requested girth")


def tutte_coxeter() -> TannerGraph:
    """Duad-syntheme incidence: 15+15 nodes, 3-regular both sides, girth 8."""
    duads = list(itertools.combinations(range(6), 2))
    synthemes = []
    for matching in itertools.permutations(range(1, 6)):
        parts = frozenset(
            [frozenset({0, matching[0]}),
             frozenset({matching[1], matching[2]}),
             frozenset({matching[3], matching[4]})]
        )
        if len(parts) == 3 and parts not in synthemes:
            synthemes.append(parts)
    synthemes = sorted(synthemes, key=sorted)
    assert len(synthemes) == 15
    rows = []
    for d in duads:
        rows.append(tuple(
            i for i, s in enumerate(synthemes) if frozenset(d) in s
        ))
    return TannerGraph.from_var_adj(rows, 15)


def unpruned_tanner_cycles(
    graph: TannerGraph, max_len: int
) -> dict[int, list[tuple[int, ...]]]:
    """Variable-node sets of all cycles of length girth..max_len, by a plain
    DFS that walks each cycle node by node from its smallest node: the
    oracle for ``lss.enumerate_tanner_cycles`` and the cycles of
    ``cycle_seeds``.

    A length-2m cycle yields its m-element variable set; per length, node
    sets are deduplicated (two cycles on the same variables count once).
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
    max_nodes = max_len  # a length-L cycle visits L nodes
    for start in range(nv):
        stack = [(start, frozenset([start]), (start,))]
        while stack:
            v, visited, path = stack.pop()
            for w in adj[v]:
                if w == start and len(path) >= 4 and path[1] < path[-1]:
                    vars_only = tuple(sorted(u for u in path if u < nv))
                    found.setdefault(len(path), set()).add(vars_only)
                if w <= start or w in visited:
                    continue
                if len(path) < max_nodes:
                    stack.append((w, visited | {w}, path + (w,)))
    return {
        length: sorted(found[length])
        for length in sorted(found)
        if length <= max_len
    }


def to_normal(graph: TannerGraph, s) -> NormalGraph:
    """Reduce the induced subgraph of an elementary in-pool set: each even
    check has exactly two members, and that pair is one edge."""
    members = members_of(graph, s)
    rec = classify(graph, members)
    if not rec.elementary:
        raise GraphConstraintError("set is not elementary, normal graph undefined")
    if not rec.in_t:
        raise GraphConstraintError(
            "set is disconnected or has a member with fewer than two satisfied checks"
        )
    smask, odd, reached = check_masks(graph, members)
    index = {v: i for i, v in enumerate(members)}
    edges = [
        [index[v] for v in mask_bits(graph.chk_vmask[c] & smask)]
        for c in mask_bits(reached & ~odd)
    ]
    return NormalGraph(len(members), edges)


def normal_b(n: NormalGraph, d_l: int) -> int:
    """Unsatisfied-check count of the expanded set: sum of (d_l - deg)."""
    check_degree_cap(n.degrees, d_l)
    return n.n * d_l - 2 * n.m


def normal_cycles_upto(n: int, adj, max_nodes: int):
    """All simple cycles with at most ``max_nodes`` nodes, each once, by a
    path DFS: the oracle for ``normal.CycleCensus``.

    Canonical traversal: smallest node first, direction toward the smaller
    of the two start neighbors.
    """
    out = []
    for start in range(n):
        above = -1 << (start + 1)  # nodes strictly greater than start
        if (adj[start] & above).bit_count() < 2:
            continue
        # path stack: (vertex, visited_mask, path)
        stack = [(start, 1 << start, (start,))]
        while stack:
            v, visited, path = stack.pop()
            nbrs = adj[v]
            if len(path) >= 3 and (nbrs >> start) & 1 and path[1] < path[-1]:
                out.append(path)
            if len(path) == max_nodes:
                continue
            cand = nbrs & ~visited & above
            while cand:
                w = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                stack.append((w, visited | 1 << w, path + (w,)))
    return out


def dfs_cycle_census(n: NormalGraph, max_normal_len: int):
    """``(counts, node_sets)`` of the cycles of at most ``max_normal_len``
    nodes by ``normal_cycles_upto``, keyed by Tanner length (2x), as
    ``CycleCensus`` reports them."""
    counts: Counter = Counter()
    sets: dict[int, set[tuple[int, ...]]] = {}
    for path in normal_cycles_upto(n.n, n.adj_masks, max_normal_len):
        counts[2 * len(path)] += 1
        sets.setdefault(2 * len(path), set()).add(tuple(sorted(path)))
    return dict(sorted(counts.items())), {k: tuple(sorted(v)) for k, v in sets.items()}


def tanner_lss_label(structure: NormalGraph, d_l: int):
    """LSS label by layered expansion on the structure's Tanner graph, with
    its seeds from the DFS of ``dfs_cycle_census``: the oracle for the
    normal-graph closure and the cycle pass of ``lss.lss_label_of``."""
    graph = from_normal(structure, d_l)
    full = tuple(range(structure.n))
    for normal_len in range(3, structure.n + 1):
        _, sets = dfs_cycle_census(structure, normal_len)
        seeds = sets.get(2 * normal_len, ())
        if not seeds:
            continue
        # pool_seed raises if a cycle seed is not in the pool
        frontier = expand_to_k(graph, [pool_seed(graph, s) for s in seeds], k=structure.n)
        if full in frontier.by_size.get(structure.n, ()):
            return 2 * normal_len
    return NA


def annotate_absorbing(entry: CatalogEntry, d_l: int) -> CatalogEntry:
    return replace(entry, absorbing=_is_absorbing(entry.form.masks(), d_l))


def brute_gamma(graph: TannerGraph, members) -> tuple[set, set]:
    """Naive per-check degree count over the induced subgraph."""
    members = set(members)
    odd, even = set(), set()
    for c in range(graph.num_chk):
        deg = sum(1 for v in graph.chk_adj[c] if v in members)
        if deg == 0:
            continue
        (odd if deg % 2 else even).add(c)
    return odd, even


def brute_classify(graph: TannerGraph, members) -> TrappingSetRecord:
    """The ``classify`` record by naive per-check degree counts over
    ``chk_adj``: the oracle for the bitmask predicates of ``classify``."""
    members = tuple(sorted(set(members)))
    inside = set(members)
    deg = [sum(1 for v in vs if v in inside) for vs in graph.chk_adj]
    touched = [c for c in range(graph.num_chk) if deg[c]]
    sat = {v: sum(1 for c in graph.var_adj[v] if deg[c] % 2 == 0) for v in members}
    # connectivity through checks with two or more members
    seen, stack = {members[0]}, [members[0]]
    while stack:
        v = stack.pop()
        for c in graph.var_adj[v]:
            if deg[c] >= 2:
                for w in graph.chk_adj[c]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
    return TrappingSetRecord(
        members=members,
        a=len(members),
        b=sum(1 for c in touched if deg[c] % 2),
        elementary=all(deg[c] <= 2 for c in touched),
        in_t=len(seen) == len(members) and all(n >= 2 for n in sat.values()),
        absorbing=all(2 * n > graph.d_l for n in sat.values()),
    )


def cycle_seeds(graph: TannerGraph, max_len: int) -> list:
    """``(members, b)`` of the cycle sets of ``graph`` up to ``max_len``
    that ``classify`` finds elementary and in the pool: the seeds of a
    search, with the cycles taken from the oracle rather than from the
    library enumerator."""
    cycles = unpruned_tanner_cycles(graph, max_len)
    records = [classify(graph, s) for sets in cycles.values() for s in sets]
    return [(r.members, r.b) for r in records if r.elementary and r.in_t]


def pool_seed(graph: TannerGraph, s) -> tuple[tuple[int, ...], int]:
    """``(members, b)`` of the set ``s``, a seed for ``expand_to_k``;
    ValueError unless ``classify`` finds it elementary and in the pool."""
    rec = classify(graph, s)
    if not (rec.elementary and rec.in_t):
        raise ValueError(f"{rec.members} is not an elementary set in the pool")
    return rec.members, rec.b


def one_expansion(graph: TannerGraph, s) -> dict:
    """The library's one-step expansion of the in-pool elementary set
    ``s``: every size-(|s|+1) in-pool ETS containing it, with its b."""
    size = len(s) + 1
    return expand_to_k(graph, [pool_seed(graph, s)], size).by_size.get(size, {})


def frontier_sets(frontier) -> list[tuple[int, ...]]:
    """Every set of the frontier, by size, then by members."""
    by_size = frontier.by_size
    return [m for size in sorted(by_size) for m in sorted(by_size[size])]


def sets_by_class(frontier) -> dict[tuple[int, int], set[tuple[int, ...]]]:
    """The frontier's sets, keyed by their ``(a, b)`` class."""
    out: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for size, layer in frontier.by_size.items():
        for members, b in layer.items():
            out.setdefault((size, b), set()).add(members)
    return out


def brute_one_expansion(graph: TannerGraph, members) -> set:
    """All v whose addition yields an in-pool elementary superset."""
    members = tuple(sorted(members))
    out = set()
    for v in range(graph.num_var):
        if v in members:
            continue
        rec = classify(graph, members + (v,))
        if rec.elementary and rec.in_t:
            out.add(tuple(sorted(members + (v,))))
    return out


def pool_ets_up_to(graph: TannerGraph, k: int):
    """Every in-pool elementary set of size <= k, by exhaustive subsets."""
    found = []
    for size in range(2, k + 1):
        for combo in itertools.combinations(range(graph.num_var), size):
            rec = classify(graph, combo)
            if rec.elementary and rec.in_t:
                found.append((combo, rec.b))
    return found


def are_isomorphic_oracle(n1: NormalGraph, n2: NormalGraph) -> bool:
    """Exhaustive permutation search with degree-sequence pruning: the
    oracle for ``canon.canonical_form``, independent of it."""
    if n1.n != n2.n or n1.m != n2.m:
        return False
    if sorted(n1.degrees) != sorted(n2.degrees):
        return False
    n = n1.n
    a1 = n1.adj_masks
    a2 = n2.adj_masks
    deg1 = n1.degrees
    deg2 = n2.degrees
    mapping = [-1] * n  # n1 vertex -> n2 vertex
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            ok = True
            for u in range(v):
                if (a1[v] >> u & 1) != (a2[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def _bucket_key(g: NormalGraph) -> tuple:
    """Sorted per-node (degree, sorted neighbour degrees, triangles at the
    node): an isomorphism invariant that needs no canonical form."""
    adj, degs = g.adj_masks, g.degrees
    per_node = []
    for v in range(g.n):
        nbrs = [w for w in range(g.n) if adj[v] >> w & 1]
        triangles = sum((adj[v] & adj[w]).bit_count() for w in nbrs) // 2
        per_node.append((degs[v], tuple(sorted(degs[w] for w in nbrs)), triangles))
    return tuple(sorted(per_node))


def labeled_structure_buckets(a: int, m: int, max_deg: int,
                              triangle_free: bool):
    """Brute-force isomorphism classes of connected [2, max_deg]-degree
    graphs with ``a`` nodes and ``m`` edges, bucketed by ``_bucket_key`` and
    told apart inside a bucket by the permutation oracle (independent of
    canonical forms)."""
    pairs = list(itertools.combinations(range(a), 2))
    deg = [0] * a
    adj = [0] * a
    chosen: list[int] = []
    buckets: dict[tuple, list[NormalGraph]] = {}

    def record():
        seen = 1
        stack = [0]
        while stack:
            v = stack.pop()
            new = adj[v] & ~seen
            while new:
                w = (new & -new).bit_length() - 1
                new &= new - 1
                seen |= 1 << w
                stack.append(w)
        if seen != (1 << a) - 1:
            return
        if min(deg) < 2:
            return
        g = NormalGraph(a, [pairs[k] for k in chosen])
        key = _bucket_key(g)
        for other in buckets.setdefault(key, []):
            if are_isomorphic_oracle(g, other):
                return
        buckets[key].append(g)

    def rec(idx: int, left: int):
        if left == 0:
            record()
            return
        if len(pairs) - idx < left:
            return
        need = sum(2 - d for d in deg if d < 2)
        if need > 2 * left:
            return
        i, j = pairs[idx]
        if deg[i] < max_deg and deg[j] < max_deg and not (
            triangle_free and adj[i] & adj[j]
        ):
            deg[i] += 1
            deg[j] += 1
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            chosen.append(idx)
            rec(idx + 1, left - 1)
            chosen.pop()
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)
            deg[i] -= 1
            deg[j] -= 1
        rec(idx + 1, left)

    if a <= m <= len(pairs):
        rec(0, m)
    return [g for group in buckets.values() for g in group]


def cycles_by_arrangement(n: NormalGraph) -> Counter:
    """Cycle-length multiset by checking every cyclic vertex arrangement."""
    adj = n.adj_masks
    counts: Counter = Counter()
    for size in range(3, n.n + 1):
        for combo in itertools.combinations(range(n.n), size):
            first = combo[0]
            rest = combo[1:]
            for perm in itertools.permutations(rest):
                if size > 2 and perm[0] > perm[-1]:
                    continue  # direction dedup
                cyc = (first,) + perm
                if all(
                    adj[cyc[i]] >> cyc[(i + 1) % size] & 1 for i in range(size)
                ):
                    counts[2 * size] += 1
    return counts


def assert_nested(frontier, seeds) -> None:
    """Every grown set keeps a one-smaller ancestor in the frontier; the
    ``(members, b)`` seeds need none."""
    seed_sets = {members for members, _ in seeds}
    for size, layer in frontier.by_size.items():
        for members in layer:
            if members in seed_sets:
                continue
            assert any(
                tuple(m for m in members if m != v) in frontier.by_size.get(size - 1, ())
                for v in members
            ), f"set {members} has no size-{size - 1} ancestor"
