"""Exhaustive generation of non-isomorphic trapping-set structures.

A class is named by (d_l, g, a, b).  Its structures correspond one-to-one
to connected simple graphs with ``a`` nodes, ``(a*d_l - b)/2`` edges, and
node degrees in ``[2, d_l]``; a girth-8 class additionally requires the
graph to be triangle-free (Tanner cycle lengths are twice normal ones).

Generation is orderly and is one depth-first pass from the empty graph:
edge sets grow one edge at a time, and a grown graph survives only if its
added edge has the largest key and no earlier production of the same
child was kept, so each isomorphism class is produced exactly once.
Degree caps, girth and a deficit bound prune during growth; connectivity
is the final filter (it is not closed under edge deletion).  With k of m
edges placed and final minimum degree f, the deficit sums f - d over the
nodes of degree d < f, and a child survives while it is at most 2(m - k).
Deleting an edge adds at most 2 to the deficit and exactly 2 to 2(m - k),
so the bound is closed under edge deletion; at depth m it leaves no degree
below f.  A child's deficit is its parent's less one per endpoint below f,
an O(1) test per candidate edge.  Its capacity twin, 2(m - k) <=
sum(max_deg - d) = a*max_deg - 2k, is the constant 2m <= a*max_deg, so
``_grow`` tests it once, at the root, with the root's deficit (a root leaf
is tested nowhere else): a*f <= 2m <= a*max_deg.  A class that
``class_feasible`` passes has 2a <= a*d_l - b = 2m <= a*d_l, so its root
passes, and so does a dense class's complement (C(a,2) - m >= 0 edges,
cap a - 3, f = max(0, a - 1 - d_l)); only a direct caller's m outside
[a, C(a,2)] or over capacity fails.

The parent of a child is chosen invariant-first (McKay's canonical
construction paths).  Each edge (x, y) gets the cheap key (larger endpoint
degree, smaller endpoint degree, triangles through the edge), and a child
is grown only by an edge of largest key; any other child is rejected
before canonical labelling.  Its tie count is the number of edges of that
largest key.  Dense classes (more than half of all possible edges) are
generated through their complements: the degree window mirrors, the
complement is grown the same way, and leaves are complemented back before
canonical encoding.  "Exactly once" is argued in three parts:

**Completeness.**  Every class is produced at least once.

- Deleting any edge of a valid node gives a valid node: degree caps, girth
  and the deficit bound are all closed under edge deletion.  So for a
  valid class C and any top-key edge e of C, the class C - e is generated,
  and adding e back passes every test.
- Every filter is an invariant of (graph, edge), so isomorphic graphs grow
  the same classes of children (the twin skip below drops none): a graph
  dropped as a repeat loses no class.
- A complemented-back leaf has more edges than any depth of the
  complement's growth, and a form fixes its edge count, so it never meets
  a form of that growth and is never dropped for one.

A parent also skips the extensions that swapping twins maps onto an earlier
one (McKay's pruning by the parent's automorphisms, on a subgroup that is
cheap to find).  Nodes x and y are twins when
``adj[x] & ~(1 << y) == adj[y] & ~(1 << x)``:

- The relation is an equivalence.  For twins x ~ y and y ~ z, the first
  gives x-z adjacent iff y-z, the second x-y iff x-z, so the three pairs
  agree; every other node sees x, y and z alike, so x ~ z.
- Swapping two twins is an automorphism: it maps an edge (x, w) to (y, w),
  an edge because w is in N(x) - {y} = N(y) - {x}, and fixes edge (x, y).
- Under the swaps within classes, the orbit of a pair (u, v), u < v, of two
  classes holds the pairs of one member of each, and comes first in loop
  order at their two smallest members; a pair in one class comes first at
  the class's two smallest members.  So with each node's rank in its class
  (0 for the smallest), only u of rank 0 and v of rank 1 in u's class or
  of rank 0 in another are tried.
- An automorphism s of the parent maps the child grown by (u, v) onto the
  child grown by (s(u), s(v)), edge to edge, so a skipped extension passes
  each filter exactly when its representative does, with the same tie
  count.  The representative is tried in the same loop, so no class is
  lost.

**At most once.**  ``_grow`` keeps one set of every form it reads and
drops a read graph whose form the set already holds; every leaf is read,
so no class is yielded twice, whatever the pruning rules below decide.

**Efficiency.**  A read costs a canonical-form call, so a graph is read
only when it could repeat one already grown; the arguments below show that
no class is grown twice, and the tests pin the calls per cell.

- The key is an isomorphism invariant of (graph, edge), so the tie count is
  one of the graph, and every production of C has the same tie count.  A
  child of tie count above 1 is read.
- Tie count 1: the added edge is C's only top-key edge e, so every
  production of C adds the image of e under an isomorphism, and its parent
  is isomorphic to C - e.  By induction on the edge count that parent
  class is grown once, so only its own extensions can repeat C.
- A tie-1 child below depth m is read only when another tie-1 sibling
  shares its pair key.  A node's key is its degree and its sorted
  neighbour degrees; the pair key of an added edge (u, v) is the keys of u
  and v in the parent, as an unordered pair, and the number of common
  neighbours of u and v.  If the tie-1 siblings grown by e and e' are
  isomorphic, the isomorphism maps the child's one top-key edge e onto e'
  (the key is an invariant), so it restricts to an automorphism of the
  parent that maps e onto e'.  Node keys and common neighbours are
  invariants, so the pair keys of e and e' are equal.  A child whose pair
  key no sibling shares therefore repeats no graph, and is grown unread.
- A dense class reads each leaf once, as the complemented-back graph, and
  that form serves the set and the output.  Complementing is a bijection
  on isomorphism classes, so two leaves have equal forms exactly when their
  complements do.  A complete graph grows from the empty complement, whose
  root is itself the leaf and is read.

The order in which graphs are popped changes which production of a class
is kept, but not the set of classes; ``generate_forms`` sorts its forms.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from etskit.canon import CanonicalForm, canonical_masks
from etskit.errors import GraphConstraintError, decode_utf8, is_decimal
from etskit.normal import check_degree_cap
from etskit.tables import NA, Label
from etskit.tanner import mask_connected, mask_edges

MIN_DL, MAX_DL = 3, 6
MIN_A, MAX_A = 4, 10
MAX_B = 10
GIRTHS = (6, 8)


@dataclass(frozen=True)
class ClassSpec:
    """One (d_l, g, a, b) trapping-set class."""

    d_l: int
    g: int
    a: int
    b: int

    def __post_init__(self):
        if self.d_l < MIN_DL or self.d_l > MAX_DL:
            raise ValueError(f"d_l={self.d_l} outside supported range {MIN_DL}..{MAX_DL}")
        if self.g not in GIRTHS:
            raise ValueError(f"girth {self.g} not in {GIRTHS}")
        if self.a < MIN_A or self.a > MAX_A:
            raise ValueError(f"a={self.a} outside supported range {MIN_A}..{MAX_A}")
        if self.b < 0 or self.b > MAX_B:
            raise ValueError(f"b={self.b} outside supported range 0..{MAX_B}")

    @property
    def num_edges(self) -> int:
        return (self.a * self.d_l - self.b) // 2


def class_feasible(spec: ClassSpec) -> Optional[str]:
    """Why the class is empty by cheap necessary conditions, or None when
    it is possibly feasible (which is not a guarantee)."""
    if spec.b > spec.a * (spec.d_l - 2):
        return f"b exceeds a*(d_l-2) = {spec.a * (spec.d_l - 2)}"
    if (spec.a * spec.d_l - spec.b) % 2 != 0:
        return "parity: a*d_l - b must be even"
    if spec.num_edges > spec.a * (spec.a - 1) // 2:
        return "edge count exceeds simple-graph capacity"
    return None


@dataclass(frozen=True)
class CatalogEntry:
    form: CanonicalForm
    absorbing: bool
    lss: Optional[Label] = None  # None = not yet classified


@dataclass
class Catalog:
    spec: ClassSpec
    entries: list[CatalogEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def absorbing_count(self) -> int:
        return sum(1 for e in self.entries if e.absorbing)

    def label_histogram(self, absorbing_only: bool = False) -> dict[Label, int]:
        hist: dict[Label, int] = {}
        for e in self.entries:
            if absorbing_only and not e.absorbing:
                continue
            key = e.lss if e.lss is not None else "?"
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items(), key=_label_sort_key))


def _label_sort_key(item):
    key = item[0]
    return (1, 0) if isinstance(key, str) else (0, key)


def _is_absorbing(adj, d_l: int) -> bool:
    return all(2 * x.bit_count() > d_l for x in adj)


# ---------------------------------------------------------------------------
# orderly generation


def _creates_c4(adj, u: int, v: int) -> bool:
    au = adj[u] & ~(1 << v)
    block = ~(1 << u)
    while au:
        x = (au & -au).bit_length() - 1
        au &= au - 1
        if adj[x] & adj[v] & block:
            return True
    return False


def _tie_count(adj, degs, u: int, v: int) -> int:
    """Number of edges whose key equals that of the added edge ``(u, v)``,
    or 0 when some edge has a larger key.

    The key of an edge is (larger endpoint degree, smaller endpoint degree,
    triangles through it).  The caller has checked that no node's degree
    exceeds the larger of ``degs[u]`` and ``degs[v]``, so only edges at a
    node of that degree can tie or win."""
    du, dv = degs[u], degs[v]
    hi = du if du > dv else dv
    lo = du + dv - hi
    tri = (adj[u] & adj[v]).bit_count()
    ties = 0
    for x, dx in enumerate(degs):
        if dx != hi:
            continue
        ax = adj[x]
        nb = ax
        while nb:
            y = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            dy = degs[y]
            if dy < lo or (dy == hi and y < x):
                continue  # a smaller key, or an edge already seen from y
            if dy > lo:
                return 0
            t = (ax & adj[y]).bit_count()
            if t > tri:
                return 0
            if t == tri:
                ties += 1
    return ties


def _twin_classes(adj):
    """``(first, rank)``: for each node, the smallest node of its twin class
    and its rank in that class (0 for the smallest).  Nodes x and y are
    twins when their neighbourhoods agree outside each other: non-adjacent
    twins have equal neighbourhoods, adjacent ones equal closed
    neighbourhoods (each with the node itself).  No node's neighbourhood
    equals another's closed one (z in N(y) would put y in N[z]), and no
    node has twins of both kinds (a node and two of its twins are pairwise
    twins, and their three pairs agree on adjacency), so one dict of both
    finds every class."""
    first, rank = [], []
    by_nbhd = {}  # neighbourhood or closed neighbourhood -> first node
    for y, ay in enumerate(adj):
        x = by_nbhd.setdefault(ay, y)
        if x == y:
            x = by_nbhd.setdefault(ay | 1 << y, y)
        first.append(x)
        rank.append(first.count(x) - 1)
    return first, rank


def _node_keys(adj, degs):
    """Each node's degree and sorted neighbour degrees, as one int: hex
    digit d counts the neighbours of degree d.  The kernel's 16-node cap
    leaves a node fewer than 16 neighbours, so no count carries into the
    next digit."""
    keys = []
    for ax in adj:
        key = 0
        while ax:
            y = (ax & -ax).bit_length() - 1
            ax &= ax - 1
            key += 1 << 4 * degs[y]
        keys.append(key)
    return keys


def _pair_key(adj, keys, u: int, v: int):
    """The pair key of edge ``(u, v)`` added to ``adj``: the node keys of
    its ends as an unordered pair, which their sum and product fix (they
    are the roots of t^2 - sum*t + product), and the number of common
    neighbours of its ends."""
    ku, kv = keys[u], keys[v]
    return ku + kv, ku * kv, (adj[u] & adj[v]).bit_count()


def _grow(a: int, m: int, max_deg: int, min_girth: int, f: int, complement: bool = False):
    """Orderly generation, depth first from the empty graph on ``a`` nodes:
    yields ``(adj, form)`` for each accepted graph of ``m`` edges whose
    degrees are at most ``max_deg`` and whose normal girth is at least
    ``min_girth``.  ``adj`` is that graph, or its complement when
    ``complement`` is set, and ``form`` is the canonical form of ``adj``.
    The deficit bound leaves no degree below ``f``.  A graph pushed to be
    read, and every leaf, is labelled when popped and dropped if known."""
    # x ^ flips[v] complements the neighbourhood x of node v
    flips = [((1 << a) - 1) ^ (1 << v) for v in range(a)] if complement else None
    known = set()  # every form read during this call
    stack = [([0] * a, 0, False)] if a * f <= 2 * m <= a * max_deg else []
    while stack:
        adj, k, read = stack.pop()
        if k == m and complement:
            adj = [x ^ y for x, y in zip(adj, flips)]
        if read or k == m:
            form = canonical_masks(a, adj)
            if form in known:
                continue
            known.add(form)
        if k == m:
            yield adj, form
            continue
        degs = [x.bit_count() for x in adj]
        ones = []  # (u, v, child) for each tie-1 child
        top_deg = max(degs)
        # endpoints below f the added edge needs for the deficit bound
        need = sum(f - d for d in degs if d < f) - 2 * (m - k - 1)
        # only the first extension of each orbit under twin swaps is tried
        first, rank = _twin_classes(adj)
        for u in range(a):
            du = degs[u]
            if du >= max_deg or rank[u]:
                continue
            au = adj[u]
            for v in range(u + 1, a):
                dv = degs[v]
                if dv >= max_deg or (au >> v) & 1:
                    continue
                if rank[v] != (first[v] == u):
                    continue  # a twin swap maps (u, v) onto an earlier sibling
                if (du < f) + (dv < f) < need:
                    continue
                if max(du, dv) + 1 < top_deg:
                    continue  # an edge at a node of top degree has a larger key
                if min_girth >= 4 and au & adj[v]:
                    continue
                if min_girth >= 5 and _creates_c4(adj, u, v):
                    continue
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                degs[u] += 1
                degs[v] += 1
                ties = _tie_count(adj, degs, u, v)
                if ties == 1:
                    ones.append((u, v, list(adj)))
                elif ties:
                    stack.append((list(adj), k + 1, True))
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                degs[u] -= 1
                degs[v] -= 1
        # leaves are read when popped; below them, only tie-1 siblings of one
        # pair key can give the same child
        keys = _node_keys(adj, degs) if k + 1 < m and len(ones) > 1 else None
        groups = {}
        for u, v, child in ones:
            key = _pair_key(adj, keys, u, v) if keys else None
            groups.setdefault(key, []).append(child)
        for group in groups.values():
            stack.extend((child, k + 1, len(group) > 1) for child in group)


def generate_forms(
    a: int,
    m: int,
    max_deg: int,
    min_normal_girth: int = 3,
) -> list[CanonicalForm]:
    """All connected graphs on ``a`` nodes, ``m`` edges, degrees in
    [2, max_deg], normal girth at least ``min_normal_girth``; one canonical
    form per isomorphism class, sorted."""
    if a < 1 or (min_normal_girth >= 4 and m > a * a // 4):
        return []  # no nodes; or Mantel: a triangle-free graph has <= a^2/4 edges
    total_pairs = a * (a - 1) // 2
    if min_normal_girth == 3 and m > total_pairs // 2:
        # grow the complement, whose degrees lie in [a - 1 - max_deg, a - 3]
        grown = _grow(a, total_pairs - m, a - 3, 3, max(0, a - 1 - max_deg), complement=True)
    else:
        grown = _grow(a, m, max_deg, min_normal_girth, 2)
    full = (1 << a) - 1
    return sorted(CanonicalForm(form) for adj, form in grown if mask_connected(adj, full))


def generate_structures(spec: ClassSpec) -> Catalog:
    """Catalog of all non-isomorphic structures of the class, unlabeled."""
    if class_feasible(spec) is not None:
        return Catalog(spec=spec)
    min_girth = 3 if spec.g == 6 else 4
    forms = generate_forms(spec.a, spec.num_edges, spec.d_l, min_girth)
    entries = [CatalogEntry(form, _is_absorbing(form.masks(), spec.d_l)) for form in forms]
    return Catalog(spec=spec, entries=entries)


# ---------------------------------------------------------------------------
# catalog files: "# dl g a b" header, then "hexform\tabsorbing\tlss" rows


def format_catalog(catalog: Catalog) -> str:
    spec = catalog.spec
    lines = [f"# {spec.d_l} {spec.g} {spec.a} {spec.b}"]
    for e in catalog.entries:
        lss = "?" if e.lss is None else str(e.lss)
        lines.append(f"{e.form.hex()}\t{1 if e.absorbing else 0}\t{lss}")
    return "\n".join(lines) + "\n"


def _parse_row(ln: str, spec: ClassSpec) -> CatalogEntry:
    parts = ln.split("\t")
    if len(parts) != 3:
        raise GraphConstraintError(f"bad catalog row {ln!r}")
    try:
        form = CanonicalForm.from_hex(parts[0])
    except ValueError as exc:
        raise GraphConstraintError(f"bad canonical form in {ln!r}") from exc
    if parts[1] not in ("0", "1"):
        raise GraphConstraintError(f"bad absorbing flag in {ln!r}")
    lss: Optional[Label] = None if parts[2] == "?" else parts[2]
    if lss not in (None, NA):
        # an even cycle length from g to 2a, written as format_catalog does
        lss = int(lss) if is_decimal(lss) else 0
        if str(lss) != parts[2] or lss % 2 or not spec.g <= lss <= 2 * spec.a:
            raise GraphConstraintError(f"bad LSS label in {ln!r}")
    adj = form.masks()
    degrees = [x.bit_count() for x in adj]
    if len(adj) != spec.a or spec.a * spec.d_l - sum(degrees) != spec.b:
        raise GraphConstraintError(
            f"entry {parts[0]} does not match class (a={spec.a}, b={spec.b})"
        )
    if not mask_connected(adj, (1 << spec.a) - 1):
        raise GraphConstraintError(f"{parts[0]} is not a connected graph")
    if canonical_masks(spec.a, adj) != form.data:
        raise GraphConstraintError(f"{parts[0]} is not the canonical form of its graph")
    # a node above d_l would also make the absorbing flag look wrong
    check_degree_cap(degrees, spec.d_l)
    if min(degrees) < 2:
        raise GraphConstraintError(f"{parts[0]} has a node of degree below 2")
    if spec.g == 8 and any(adj[i] & adj[j] for i, j in mask_edges(adj)):
        raise GraphConstraintError(
            f"{parts[0]} has a triangle, a Tanner 6-cycle in a girth-8 class"
        )
    absorbing = _is_absorbing(adj, spec.d_l)
    if parts[1] != ("1" if absorbing else "0"):
        raise GraphConstraintError(
            f"absorbing flag {parts[1]} contradicts the degrees of {parts[0]}"
        )
    return CatalogEntry(form=form, absorbing=absorbing, lss=lss)


def parse_catalog(text: str) -> Catalog:
    """Catalog of a file's text.  Each row must hold the canonical form of
    a structure of the header's class, once, with the absorbing flag its
    degrees give; a row error names the row's 1-based line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    header_no, header = lines[0] if lines else (1, "")  # empty text: no header on line 1
    if not header.startswith("#"):
        raise GraphConstraintError(
            f"line {header_no}: catalog must start with '# dl g a b' header"
        )
    head = header[1:].split()
    if len(head) != 4:
        raise GraphConstraintError(f"line {header_no}: catalog header must be '# dl g a b'")
    try:
        if not is_decimal("".join(head)):
            raise ValueError(f"non-integer token in {head!r}")
        spec = ClassSpec(*(int(x) for x in head))
    except ValueError as exc:
        raise GraphConstraintError(f"line {header_no}: bad catalog header: {exc}") from exc
    entries = []
    first_line: dict[bytes, int] = {}
    for lineno, ln in lines[1:]:
        try:
            entry = _parse_row(ln, spec)
        except GraphConstraintError as exc:
            raise GraphConstraintError(f"line {lineno}: {exc}") from exc
        if entry.form.data in first_line:
            raise GraphConstraintError(
                f"line {lineno}: duplicate of the row on line "
                f"{first_line[entry.form.data]}"
            )
        first_line[entry.form.data] = lineno
        entries.append(entry)
    entries.sort(key=lambda e: e.form.data)
    return Catalog(spec=spec, entries=entries)


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and ``os.replace``: ``path`` holds its old or its new text,
    never part of one, and a write that raises removes the temporary file;
    an error names ``path``, not the temporary file.  Nothing is flushed to
    disk, so this guards against a failing process, not against a power
    loss."""
    if not Path(path).name:
        raise OSError(f"output path {os.fspath(path)!r} names no file")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "x")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise exc if exc.filename is None else OSError(exc.errno, exc.strerror, str(path))


def write_catalog(catalog: Catalog, path: Union[str, Path]) -> None:
    write_text_atomic(path, format_catalog(catalog))


def read_catalog(path: Union[str, Path]) -> Catalog:
    text = decode_utf8(
        Path(path).read_bytes(), lambda line, msg: GraphConstraintError(f"line {line}: {msg}")
    )
    return parse_catalog(text)
