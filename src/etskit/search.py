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

import heapq
import json
from dataclasses import dataclass, field
from itertools import groupby, repeat

from etskit.lss import ExpansionFrontier, enumerate_tanner_cycles, expand_to_k
from etskit.structgen import ClassSpec
from etskit.tables import NA, get_table
from etskit.tanner import TannerGraph, classify
from etskit.tanner import gamma_split  # noqa: F401  (patched by perfbench/tracing.py)

MAX_SEARCH_K = 12

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
    sets: list[tuple[int, ...]] = field(default_factory=list)


@dataclass
class SearchReport:
    code: str
    d_l: int
    girth: int
    k: int
    max_len: int
    classes: list[ClassReport]
    include_sets: bool = False

    def total_sets(self) -> int:
        return sum(c.count for c in self.classes)

    def to_json_dict(self) -> dict:
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
        if self.include_sets:
            out["sets"] = [
                {"a": c.a, "b": c.b, "members": list(m)}
                for c in self.classes
                for m in c.sets
            ]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def export_lines(self) -> list[str]:
        """One line per set, by size then members: ``a<TAB>b<TAB>members``.

        The classes of one size are merged, so the ``b`` of each set comes
        from its class and is not computed again.
        """
        lines = []
        for a, group in groupby(self.classes, key=lambda c: c.a):
            tagged = [zip(c.sets, repeat(c.b)) for c in group]
            for members, b in heapq.merge(*tagged):
                lines.append(f"{a}\t{b}\t{','.join(str(v) for v in members)}")
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


def find_etss(
    graph: TannerGraph,
    k: int,
    max_len: int,
    code_id: str = "",
    include_sets: bool = False,
) -> tuple[SearchReport, ExpansionFrontier]:
    """All in-pool ETSs of size <= k reachable from cycles up to max_len.

    Runs in one process.  A set of size a+1 is reached from many parents
    of size a, so the layers are one shared frontier: split by seeds, each
    share grows the sets it has in common with the others again.
    """
    if k < 2 or k > MAX_SEARCH_K:
        raise ValueError(f"k must be in 2..{MAX_SEARCH_K}")
    girth = graph.girth
    if girth != float("inf") and not girth <= max_len <= girth + 12:
        raise ValueError(f"max_len must be within [girth, girth+12] = [{girth}, {girth + 12}]")
    cycles = enumerate_tanner_cycles(graph, max_len) if girth != float("inf") else {}
    seeds = []
    for length in sorted(cycles):
        for members in cycles[length]:
            if len(members) > k:
                continue
            rec = classify(graph, members)
            if rec.elementary and rec.in_t:
                seeds.append(members)
    frontier = expand_to_k(graph, seeds, k, _validate=False)

    by_class: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for size, layer in frontier.by_size.items():
        for members, b in layer.items():
            by_class.setdefault((size, b), []).append(members)
    classes = [
        ClassReport(
            a=a,
            b=b,
            count=len(sets),
            guarantee=_guarantee_for(graph, a, b, max_len),
            sets=sorted(sets),
        )
        for (a, b), sets in sorted(by_class.items())
    ]
    report = SearchReport(
        code=code_id or graph.key,
        d_l=graph.d_l,
        girth=int(girth) if girth != float("inf") else -1,
        k=k,
        max_len=max_len,
        classes=classes,
        include_sets=include_sets,
    )
    return report, frontier


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
