"""Whole-code search: enumerate short cycles, expand, and report every
trapping set found, with per-class coverage verdicts from the reference
tables.

A verdict is only as strong as the table row behind it: "guaranteed" means
every structure of that class is an LSS of a cycle no longer than the
enumeration window, so the expansion cannot have missed one.  Classes with
NA structures are never better than "guaranteed-partial".  The tables are
keyed by the code's actual girth; a table for a different girth is never
substituted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from etskit.lss import MAX_K, ExpansionFrontier, enumerate_tanner_cycles, expand_to_k
from etskit.structgen import ClassSpec
from etskit.tables import NA, get_table
from etskit.tanner import TannerGraph, check_masks
from etskit.tanner import classify, gamma_split  # noqa: F401  (patched by perfbench/tracing.py)

GUARANTEED = "guaranteed"
GUARANTEED_PARTIAL = "guaranteed-partial"
NONEXISTENT = "nonexistent"
UNCOVERED = "uncovered"
UNCHARACTERIZED = "uncharacterized"


def coverage_query(spec: ClassSpec, max_len: int) -> str:
    """Verdict for one class against an enumeration window of max_len."""
    table = get_table(spec.d_l, spec.g)
    if table is None:
        raise ValueError(f"no reference table for d_l={spec.d_l}, girth {spec.g}")
    row = table.row(spec.a, spec.b)  # raises KeyError outside scope
    if row is None:
        return NONEXISTENT
    labels = row["ts"]
    numeric = [x for x in labels if isinstance(x, int)]
    has_na = NA in labels
    if not has_na and numeric and max(numeric) <= max_len:
        return GUARANTEED
    if any(x <= max_len for x in numeric):
        return GUARANTEED_PARTIAL
    return UNCOVERED


@dataclass
class ClassReport:
    a: int
    b: int
    count: int
    guarantee: str


@dataclass
class SearchReport:
    code: str
    d_l: int
    girth: int
    k: int
    max_len: int
    classes: list[ClassReport]
    frontier: ExpansionFrontier  # the sets found, each with its b

    def to_json(self, sets: bool = False) -> str:
        out = {
            "code": self.code,
            "dl": self.d_l,
            "g": self.girth,
            "k": self.k,
            "max_len": self.max_len,
            "classes": [
                {"a": c.a, "b": c.b, "count": c.count, "guarantee": c.guarantee}
                for c in self.classes
            ],
        }
        if sets:
            layers = self.frontier.by_size.items()
            rows = sorted((a, b, m) for a, layer in layers for m, b in layer.items())
            out["sets"] = [{"a": a, "b": b, "members": list(m)} for a, b, m in rows]
        return json.dumps(out, sort_keys=True, indent=2) + "\n"

    def export_lines(self) -> list[str]:
        """One line per set, by size then members: ``a<TAB>b<TAB>members``."""
        lines = []
        for a, layer in sorted(self.frontier.by_size.items()):
            row = f"{a}\t%d\t" + ",".join(["%d"] * a)
            lines.extend([row % (layer[m], *m) for m in sorted(layer)])
        return lines


def _guarantee_for(graph: TannerGraph, a: int, b: int, max_len: int) -> str:
    table = get_table(graph.d_l, graph.girth)
    if table is None or not table.in_scope(a, b):
        return UNCHARACTERIZED
    spec = ClassSpec(d_l=graph.d_l, g=int(graph.girth), a=a, b=b)
    verdict = coverage_query(spec, max_len)
    if verdict == NONEXISTENT:
        raise RuntimeError(
            f"internal error: found a set of class ({a},{b}), which the "
            f"d_l={graph.d_l} girth-{spec.g} table proves nonexistent"
        )
    return verdict


def cycle_seeds(
    graph: TannerGraph, cycles: dict[int, list[tuple[int, ...]]], k: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(members, b)`` of every elementary cycle set of at most ``k``
    members, from the ``enumerate_tanner_cycles`` output ``cycles``:
    lengths ascending, then list order, each with the enumerator's own
    sorted member tuple.

    Such a set is always in the pool.  The cycle joins its members one
    after another through its checks, so the set is connected, and each
    member lies on two of those checks.  Each of them has two members on
    the cycle and, the set being elementary, no more, so it is satisfied.
    The one test left is ``classify``'s elementarity test,
    ``a*d_l == b + 2*|even|``, which with ``|even| = |reached| - b`` reads
    ``a*d_l == 2*|reached| - b``.
    """
    d_l = graph.d_l
    for length in sorted(cycles):
        for members in cycles[length]:
            a = len(members)
            if a <= k:
                _, odd, reached = check_masks(graph, members)
                b = odd.bit_count()
                if a * d_l == 2 * reached.bit_count() - b:
                    yield members, b


def find_etss(graph: TannerGraph, k: int, max_len: int, code_id: str = "") -> SearchReport:
    """All in-pool ETSs of size <= k reachable from cycles up to max_len.

    Runs in one process.  The elementary cycle sets of at most k members,
    from ``cycle_seeds``, stream into one ``expand_to_k`` call, never held
    in a list; it grows every layer once, since a set of size a+1 is
    reached from many parents of size a.  ``enumerate_tanner_cycles``
    checks the cycle window and finds no cycle in an acyclic graph.
    """
    if not 2 <= k <= MAX_K:
        raise ValueError(f"k must be in 2..{MAX_K}")
    cycles = enumerate_tanner_cycles(graph, max_len)
    frontier = expand_to_k(graph, cycle_seeds(graph, cycles, k), k)

    layers = frontier.by_size.items()
    counts = Counter((size, b) for size, layer in layers for b in layer.values())
    classes = [
        ClassReport(a=a, b=b, count=n, guarantee=_guarantee_for(graph, a, b, max_len))
        for (a, b), n in sorted(counts.items())
    ]
    return SearchReport(
        code=code_id or graph.key,
        d_l=graph.d_l,
        girth=int(graph.girth) if graph.girth != float("inf") else -1,
        k=k,
        max_len=max_len,
        classes=classes,
        frontier=frontier,
    )


def format_report_table(report: SearchReport) -> str:
    """Human-readable per-class summary with lengths also shown as g+offset."""
    lines = [
        f"code {report.code}: d_l={report.d_l} girth={report.girth} "
        f"k={report.k} max_len={report.max_len}"
        + (
            f" (g+{report.max_len - report.girth})"
            if report.girth > 0
            else ""
        )
    ]
    if not report.classes:
        lines.append("no trapping sets found")
        return "\n".join(lines) + "\n"
    lines.append(f"{'(a,b)':>8}  {'count':>6}  guarantee")
    for c in report.classes:
        lines.append(f"({c.a},{c.b})".rjust(8) + f"  {c.count:>6}  {c.guarantee}")
    return "\n".join(lines) + "\n"
