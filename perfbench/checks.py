"""Independent checks of the outputs the benchmark makes etskit produce.

Each check recomputes what it needs from the raw inputs with plain,
deliberately naive code and raises ``CheckFailed`` on the first
disagreement.  Only the catalog check reads etskit, for the paper's label
rows in ``etskit.tables``, and only after pinning their checksum.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

TABLES_CHECKSUM = "sha256:7deab4f904068f5c079501a503148006f935680816ae73b167654d01752e95dd"
VERDICTS = {
    "guaranteed",
    "guaranteed-partial",
    "uncovered",
    "nonexistent",
    "uncharacterized",
}


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own recomputation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# search outputs


class Code:
    """Adjacency of a code as plain lists, from the benchmark's own builder."""

    def __init__(self, var_adj: list[tuple[int, ...]], m: int):
        self.var_adj = [tuple(row) for row in var_adj]
        self.chk_adj: list[list[int]] = [[] for _ in range(m)]
        for v, row in enumerate(self.var_adj):
            for c in row:
                self.chk_adj[c].append(v)


def classify_set(code: Code, members: tuple[int, ...]) -> dict:
    """Per-check classification of a variable set, done the long way."""
    inside = set(members)
    degree = {}
    for v in members:
        for c in code.var_adj[v]:
            if c not in degree:
                degree[c] = sum(1 for u in code.chk_adj[c] if u in inside)
    satisfied = {
        v: sum(1 for c in code.var_adj[v] if degree[c] % 2 == 0) for v in members
    }
    # connectivity of the induced subgraph, through checks of degree >= 2
    seen = {members[0]}
    todo = [members[0]]
    while todo:
        v = todo.pop()
        for c in code.var_adj[v]:
            for u in code.chk_adj[c]:
                if u in inside and u not in seen:
                    seen.add(u)
                    todo.append(u)
    return {
        "b": sum(1 for d in degree.values() if d % 2 == 1),
        "elementary": all(d <= 2 for d in degree.values()),
        "connected": len(seen) == len(members),
        "min_satisfied": min(satisfied.values()),
    }


def six_cycle_sets(code: Code) -> set[tuple[int, int, int]]:
    """Variable sets of the 6-cycles: triples pairwise sharing a check, the
    three checks distinct (three variables on one check make no cycle)."""
    via: dict[tuple[int, int], int] = {}
    nbrs: dict[int, set[int]] = {}
    for c, row in enumerate(code.chk_adj):
        for u, v in itertools.combinations(row, 2):
            via[u, v] = c
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    out = set()
    for (u, v), c in via.items():
        for w in nbrs[u] & nbrs[v]:
            if w > v and c != via[u, w] != via[v, w] != c:
                out.add((u, v, w))
    return out


def is_cycle_set(code: Code, members: tuple[int, ...], max_len: int) -> bool:
    """Whether the members are the variable set of a cycle of length at
    most ``max_len``: a closed tour through all of them, consecutive
    members sharing a check."""
    a = len(members)
    if a < 3 or 2 * a > max_len:
        return False
    checks = [set(code.var_adj[v]) for v in members]
    adj = [
        [i != j and bool(checks[i] & checks[j]) for j in range(a)] for i in range(a)
    ]
    first = 0
    for order in itertools.permutations(range(1, a)):
        tour = (first,) + order
        if all(adj[tour[i]][tour[(i + 1) % a]] for i in range(a)):
            return True
    return False


def parse_sets_out(text: str) -> list[tuple[int, int, tuple[int, ...]]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        require(len(parts) == 3, f"sets-out line {lineno}: {line!r}")
        a, b = int(parts[0]), int(parts[1])
        members = tuple(int(x) for x in parts[2].split(","))
        out.append((a, b, members))
    return out


def check_search(code: Code, k: int, max_len: int, report_text: str,
                 sets_text: str) -> dict:
    """Check one `etskit search` report and its --sets-out lines.

    Returns a few figures of the output for the record."""
    report = json.loads(report_text)
    require(report["k"] == k and report["max_len"] == max_len,
             f"report k/max_len {report['k']}/{report['max_len']} != {k}/{max_len}")
    # the builder leaves no 4-cycles, so the girth is 6 exactly when a
    # 6-cycle exists
    triangles = six_cycle_sets(code)
    require(report["g"] == 6 if triangles else report["g"] >= 8,
             f"report girth {report['g']}, own 6-cycle sets {len(triangles)}")
    for cls in report["classes"]:
        require(cls["guarantee"] in VERDICTS,
                 f"class ({cls['a']},{cls['b']}) carries verdict {cls['guarantee']!r}")
    sets = parse_sets_out(sets_text)
    found = set()
    by_class: Counter = Counter()
    n = len(code.var_adj)
    for a, b, members in sets:
        require(members not in found, f"set {members} appears twice")
        found.add(members)
        require(list(members) == sorted(set(members)) and len(members) == a
                 and 0 <= members[0] and members[-1] < n,
                 f"set {members} is not {a} sorted distinct variables")
        require(a <= k, f"set {members} larger than k={k}")
        rec = classify_set(code, members)
        require(rec["elementary"], f"set {members} is not elementary")
        require(rec["connected"], f"set {members} is not connected")
        require(rec["min_satisfied"] >= 2,
                 f"set {members} has a member on fewer than 2 satisfied checks")
        require(rec["b"] == b, f"set {members} has b={rec['b']}, reported {b}")
        by_class[(a, b)] += 1
    reported = {(c["a"], c["b"]): c["count"] for c in report["classes"]}
    require(reported == dict(by_class),
             f"report counts {sorted(reported.items())} != sets-out "
             f"{sorted(by_class.items())}")
    size3 = sum(count for (a, _), count in by_class.items() if a == 3)
    require(size3 == len(triangles),
             f"{size3} sets of size 3, own count of 6-cycle sets {len(triangles)}")
    for a, _, members in sets:
        if a <= 3:
            continue
        nested = any(
            tuple(x for x in members if x != v) in found for v in members
        )
        require(nested or is_cycle_set(code, members, max_len),
                 f"set {members} has no one-smaller subset and is not a cycle set")
    return {"sets": len(sets), "six_cycle_sets": len(triangles)}


# ---------------------------------------------------------------------------
# catalog outputs


def decode_hex(hexform: str) -> tuple[int, list[tuple[int, int]]]:
    """Node count and edges of a catalog hex form: a length byte, then the
    row-major upper-triangle adjacency bitmap, most significant bit first."""
    data = bytes.fromhex(hexform)
    n = data[0]
    pairs = list(itertools.combinations(range(n), 2))
    require(len(data) == 1 + (len(pairs) + 7) // 8,
             f"hex form {hexform} has {len(data)} bytes for {n} nodes")
    edges = [
        pair
        for k, pair in enumerate(pairs)
        if data[1 + k // 8] >> (7 - k % 8) & 1
    ]
    return n, edges


def parse_hist(text: str) -> dict:
    """``{6:3, NA:1}`` as printed by `etskit classify`."""
    text = text.strip()
    require(text.startswith("{") and text.endswith("}"), f"bad histogram {text!r}")
    out = {}
    for item in filter(None, (x.strip() for x in text[1:-1].split(","))):
        key, value = item.split(":")
        out[int(key) if key.isdigit() else key] = int(value)
    return out


def check_catalog(cell: tuple[int, int, int, int], text: str, row) -> dict:
    """Check one labelled catalog file against its paper row.

    ``row`` is ``{"ts": hist, "as": hist}`` from the reference tables, or
    None for a class that cannot exist.  Returns the file's histograms."""
    d_l, g, a, b = cell
    lines = text.splitlines()
    require(lines and lines[0] == f"# {d_l} {g} {a} {b}",
             f"cell {cell}: header {lines[:1]}")
    ts: Counter = Counter()
    ab: Counter = Counter()
    seen = set()
    for line in lines[1:]:
        hexform, flag, label = line.split("\t")
        require(hexform not in seen, f"cell {cell}: row {hexform} appears twice")
        seen.add(hexform)
        n, edges = decode_hex(hexform)
        require(n == a, f"cell {cell}: row {hexform} has {n} nodes")
        require(2 * len(edges) == a * d_l - b,
                 f"cell {cell}: row {hexform} has {len(edges)} edges")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        degrees = [len(x) for x in nbrs]
        require(all(2 <= d <= d_l for d in degrees),
                 f"cell {cell}: row {hexform} degrees {degrees}")
        reach, todo = {0}, [0]
        while todo:
            for w in nbrs[todo.pop()] - reach:
                reach.add(w)
                todo.append(w)
        require(len(reach) == n, f"cell {cell}: row {hexform} is disconnected")
        if g == 8:
            require(not any(nbrs[u] & nbrs[v] for u, v in edges),
                     f"cell {cell}: row {hexform} has a triangle")
        absorbing = all(2 * d > d_l for d in degrees)
        require(flag == ("1" if absorbing else "0"),
                 f"cell {cell}: row {hexform} absorbing flag {flag}")
        if label != "NA":
            x = int(label)
            require(x % 2 == 0 and g <= x <= 2 * a,
                     f"cell {cell}: row {hexform} label {label}")
        key = int(label) if label != "NA" else label
        ts[key] += 1
        if absorbing:
            ab[key] += 1
    want_ts = dict(row["ts"]) if row else {}
    want_as = dict(row["as"]) if row else {}
    require(dict(ts) == want_ts, f"cell {cell}: ts {dict(ts)} != paper {want_ts}")
    require(dict(ab) == want_as, f"cell {cell}: as {dict(ab)} != paper {want_as}")
    return {"ts": dict(ts), "as": dict(ab)}


def check_catalog_stdout(cell, gen_out: str, classify_out: str, hists: dict) -> None:
    """The summaries `gen --no-lss` and `classify` print agree with the file."""
    total = sum(hists["ts"].values())
    if total == 0:
        want_gen = "total=0 (class infeasible or empty)"
    else:
        want_gen = (f"total={total} absorbing={sum(hists['as'].values())} "
                    f"lss={{?:{total}}}")
    require(gen_out.strip() == want_gen, f"cell {cell}: gen printed {gen_out!r}")
    require(parse_hist(classify_out) == hists["ts"],
             f"cell {cell}: classify printed {classify_out!r}")
