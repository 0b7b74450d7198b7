"""Exhaustive generation of non-isomorphic trapping-set structures.

A class is named by (d_l, g, a, b).  Its structures correspond one-to-one
to connected simple graphs with ``a`` nodes, ``(a*d_l - b)/2`` edges, and
node degrees in ``[2, d_l]``; a girth-8 class additionally requires the
graph to be triangle-free (Tanner cycle lengths are twice normal ones).

Generation is orderly: edge sets grow one edge at a time and a grown graph
survives only if the edge it marks for deletion leads back to the parent
it actually grew from, so each isomorphism class is produced exactly once.
Degree caps, girth and a deficit bound prune during growth; connectivity
is the final filter (it is not closed under edge deletion).  With k of m
edges placed and final minimum degree f, the deficit sums f - d over the
nodes of degree d < f, and a child survives while it is at most 2(m - k).
Deleting an edge adds at most 2 to the deficit and exactly 2 to 2(m - k),
so the bound is closed under edge deletion; at depth m it leaves no degree
below f.  A child's deficit is its parent's less one per endpoint below f,
an O(1) test per candidate edge.  The capacity twin, 2(m - k) <=
sum(max_deg - d) = a*max_deg - 2k, is the constant 2m <= a*max_deg, tested
once up front: a sparse class meets it, and a dense class's complement
(C(a,2) - m edges, cap a - 3) meets it exactly when m >= a.  With no edge
to place it also forces f = 0.

The deletion edge is chosen invariant-first (McKay's canonical construction
paths).  Each edge (x, y) gets the cheap key (larger endpoint degree,
smaller endpoint degree, triangles through the edge), and the deletion edge
is the edge last in canonical position among the edges of largest key.  A
child whose added edge is not of largest key is rejected before any
canonical labelling.  This is exact:

- The key is an isomorphism invariant of (graph, edge), and the canonical
  labelling is one too, so the deletion edge is fixed up to automorphism
  and ``child - deletion edge`` is one isomorphism class, its parent.
- ``G - e`` and ``G - e'`` isomorphic implies ``key(e) == key(e')``: the
  degree multiset of ``G - e`` fixes the endpoint degrees of ``e``, and
  ``G - e`` has exactly the triangles of ``G`` not through ``e``.  So a
  child whose added edge has a smaller key is not isomorphic to its
  parent plus the deletion edge, and rejecting it early loses nothing.
- Deleting any edge of a valid node gives a valid node: degree caps, girth
  and the deficit bound are all closed under edge deletion.  So every
  class's parent is itself generated, and the class is accepted from that
  one parent class, once (``seen`` merges the extensions of one parent
  that give the same child).

Dense classes (more than half of all possible edges) are generated through
their complements: the degree window mirrors, the complement is grown the
same way, and results are complemented back before canonical encoding.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from etskit.canon import CanonicalForm, canonical_masks
from etskit.errors import GraphConstraintError, decode_utf8
from etskit.normal import NormalGraph, check_degree_cap
from etskit.tables import NA, Label
from etskit.tanner import mask_connected

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
    spec: ClassSpec
    absorbing: bool
    lss: Optional[Label] = None  # None = not yet classified

    def normal_graph(self) -> NormalGraph:
        return self.form.decode()


@dataclass
class Catalog:
    spec: ClassSpec
    entries: list[CatalogEntry] = field(default_factory=list)
    reason: Optional[str] = None  # set when the class is infeasible outright

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


def _is_absorbing(degrees, d_l: int) -> bool:
    return all(2 * d > d_l for d in degrees)


# ---------------------------------------------------------------------------
# orderly generation


@dataclass(frozen=True)
class _GenTask:
    n: int
    m: int
    max_deg: int
    min_girth: int
    min_deg_final: int


def _creates_c4(adj, u: int, v: int) -> bool:
    au = adj[u] & ~(1 << v)
    block = ~(1 << u)
    while au:
        x = (au & -au).bit_length() - 1
        au &= au - 1
        if adj[x] & adj[v] & block:
            return True
    return False


def _top_edges(adj, degs, u: int, v: int):
    """Edges whose key equals that of the added edge ``(u, v)``, as
    ``(x, y)`` with ``x < y``; ``None`` when some edge has a larger key.

    The key of an edge is (larger endpoint degree, smaller endpoint degree,
    triangles through it).  The caller has checked that no node's degree
    exceeds the larger of ``degs[u]`` and ``degs[v]``, so only edges at a
    node of that degree can tie or win."""
    du, dv = degs[u], degs[v]
    hi = du if du > dv else dv
    lo = du + dv - hi
    tri = (adj[u] & adj[v]).bit_count()
    top = []
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
                return None
            t = (ax & adj[y]).bit_count()
            if t > tri:
                return None
            if t == tri:
                top.append((x, y) if x < y else (y, x))
    return top


def _deletion_edge(perm, top) -> tuple[int, int]:
    """Edge of ``top`` whose canonical position is last in the bitmap."""
    pos = [0] * len(perm)
    for i, x in enumerate(perm):
        pos[x] = i
    # row-major upper triangle: the later row wins, then the later column
    return max(top, key=lambda e: sorted((pos[e[0]], pos[e[1]])))


def _children(task: _GenTask, adj, degs, k: int, form: bytes):
    """Accepted one-edge extensions of the current graph, deduplicated."""
    n = task.n
    f = task.min_deg_final
    out = []
    seen = set()
    top_deg = max(degs)
    # endpoints below f the added edge needs for the deficit bound
    need = sum(f - d for d in degs if d < f) - 2 * (task.m - k - 1)
    for u in range(n):
        du = degs[u]
        if du >= task.max_deg:
            continue
        au = adj[u]
        for v in range(u + 1, n):
            dv = degs[v]
            if dv >= task.max_deg or (au >> v) & 1:
                continue
            if (du < f) + (dv < f) < need:
                continue
            if max(du, dv) + 1 < top_deg:
                continue  # an edge at a node of top degree has a larger key
            if task.min_girth >= 4 and au & adj[v]:
                continue
            if task.min_girth >= 5 and _creates_c4(adj, u, v):
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            degs[u] += 1
            degs[v] += 1
            top = _top_edges(adj, degs, u, v)
            if top is not None:
                child_form, perm = canonical_masks(n, adj)
                if child_form not in seen:
                    seen.add(child_form)
                    fu, fv = _deletion_edge(perm, top) if len(top) > 1 else (u, v)
                    if (fu, fv) == (u, v):
                        ok = True
                    else:
                        adj[fu] &= ~(1 << fv)
                        adj[fv] &= ~(1 << fu)
                        parent_form, _ = canonical_masks(n, adj)
                        adj[fu] |= 1 << fv
                        adj[fv] |= 1 << fu
                        ok = parent_form == form
                    if ok:
                        out.append((list(adj), child_form))
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            degs[u] -= 1
            degs[v] -= 1
    return out


def _run_subtree(task: _GenTask, adj, k: int, form: bytes):
    """Depth-first completion of one generation subtree."""
    finals = []
    stack = [(list(adj), k, form)]
    while stack:
        cur, depth, cur_form = stack.pop()
        if depth == task.m:
            finals.append((cur, cur_form))  # the deficit bound left no degree below f
            continue
        degs = [m.bit_count() for m in cur]
        stack.extend(
            (child, depth + 1, child_form)
            for child, child_form in _children(task, cur, degs, depth, cur_form)
        )
    return finals


def generate_forms(
    a: int,
    m: int,
    max_deg: int,
    min_normal_girth: int = 3,
) -> list[CanonicalForm]:
    """All connected graphs on ``a`` nodes, ``m`` edges, degrees in
    [2, max_deg], normal girth at least ``min_normal_girth``; one canonical
    form per isomorphism class, sorted."""
    if m < a or m > a * (a - 1) // 2:
        return []  # connected with minimum degree 2 forces m >= a
    if min_normal_girth >= 4 and m > a * a // 4:
        return []  # Mantel: a triangle-free graph on a nodes has <= a^2/4 edges
    if 2 * m > a * max_deg:
        return []  # a nodes of degree <= max_deg hold at most a*max_deg/2 edges
    total_pairs = a * (a - 1) // 2
    complemented = min_normal_girth == 3 and m > total_pairs // 2
    if complemented:
        task = _GenTask(
            n=a,
            m=total_pairs - m,
            max_deg=a - 3,  # complement of min-degree-2
            min_girth=3,
            min_deg_final=max(0, a - 1 - max_deg),
        )
    else:
        task = _GenTask(n=a, m=m, max_deg=max_deg, min_girth=min_normal_girth,
                        min_deg_final=2)

    root_adj = [0] * a
    root_form, _ = canonical_masks(a, root_adj)
    raw = _run_subtree(task, root_adj, 0, root_form)

    forms = []
    full = (1 << a) - 1
    if complemented:
        for adj, _ in raw:
            orig = [full & ~x & ~(1 << v) for v, x in enumerate(adj)]
            if not mask_connected(orig, full):
                continue
            form, _ = canonical_masks(a, orig)
            forms.append(form)
    else:
        forms = [form for adj, form in raw if mask_connected(adj, full)]
    forms.sort()
    return [CanonicalForm(f) for f in forms]


def generate_structures(spec: ClassSpec) -> Catalog:
    """Catalog of all non-isomorphic structures of the class, unlabeled."""
    reason = class_feasible(spec)
    if reason is not None:
        return Catalog(spec=spec, entries=[], reason=reason)
    min_girth = 3 if spec.g == 6 else 4
    forms = generate_forms(spec.a, spec.num_edges, spec.d_l, min_girth)
    entries = [
        CatalogEntry(
            form=form,
            spec=spec,
            absorbing=_is_absorbing(form.decode().degrees, spec.d_l),
        )
        for form in forms
    ]
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
        lss = int(lss) if lss.isascii() and lss.isdigit() else 0
        if str(lss) != parts[2] or lss % 2 or not spec.g <= lss <= 2 * spec.a:
            raise GraphConstraintError(f"bad LSS label in {ln!r}")
    graph = form.decode()
    if graph.n != spec.a or graph.m != spec.num_edges:
        raise GraphConstraintError(
            f"entry {parts[0]} does not match class (a={spec.a}, b={spec.b})"
        )
    if canonical_masks(graph.n, graph.adj_masks)[0] != form.data:
        raise GraphConstraintError(f"{parts[0]} is not the canonical form of its graph")
    # a node above d_l would also make the absorbing flag look wrong
    check_degree_cap(graph, spec.d_l)
    if min(graph.degrees) < 2:
        raise GraphConstraintError(f"{parts[0]} has a node of degree below 2")
    adj = graph.adj_masks
    if spec.g == 8 and any(adj[i] & adj[j] for i, j in graph.edges):
        raise GraphConstraintError(
            f"{parts[0]} has a triangle, a Tanner 6-cycle in a girth-8 class"
        )
    absorbing = _is_absorbing(graph.degrees, spec.d_l)
    if parts[1] != ("1" if absorbing else "0"):
        raise GraphConstraintError(
            f"absorbing flag {parts[1]} contradicts the degrees of {parts[0]}"
        )
    return CatalogEntry(form=form, spec=spec, absorbing=absorbing, lss=lss)


def parse_catalog(text: str) -> Catalog:
    """Catalog of a file's text.  Each row must hold the canonical form of
    a structure of the header's class, once, with the absorbing flag its
    degrees give; a row error names the row's 1-based line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise GraphConstraintError("catalog must start with '# dl g a b' header")
    head = lines[0][1][1:].split()
    if len(head) != 4:
        raise GraphConstraintError("catalog header must be '# dl g a b'")
    try:
        spec = ClassSpec(*(int(x) for x in head))
    except ValueError as exc:
        raise GraphConstraintError(f"line {lines[0][0]}: bad catalog header: {exc}") from exc
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
    never part of one, and a write that raises removes the temporary file.
    Nothing is flushed to disk, so this guards against a failing process,
    not against a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_catalog(catalog: Catalog, path: Union[str, Path]) -> None:
    write_text_atomic(path, format_catalog(catalog))


def read_catalog(path: Union[str, Path]) -> Catalog:
    text = decode_utf8(
        Path(path).read_bytes(), lambda line, msg: GraphConstraintError(f"line {line}: {msg}")
    )
    return parse_catalog(text)
