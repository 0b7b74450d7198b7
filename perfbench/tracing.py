"""Per-layer tracing of etskit from outside the package.

A ``Tracer`` replaces the public functions each layer exposes, at the
module attribute its caller looks up, with timing and counting wrappers.
Calls are aggregated per layer name (calls, inclusive time, time spent in
wrapped callees).  Spans, with the span that caused them, are kept only
for the coarse layers (commands, parse, search phases, generation,
labelling, catalog files), not for the per-set and per-graph calls.
``uninstall`` restores the original functions.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, callee seconds]
        self.counts: Counter = Counter()  # tallies the layers' results give
        self.spans: list[list] = []  # [name, parent span index, start, end]
        self._stack: list[list] = []  # per active call: [callee seconds, span index]
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, after, span):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([name, stack[-1][1] if stack else None, 0.0, 0.0])
            else:
                index = stack[-1][1] if stack else None
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += seconds
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += seconds
                if span:
                    spans[index][2:] = [start, start + seconds]
            if after is not None:
                after(self, result, seconds)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, span=False) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, after, span))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        _, total, callees = self.stats.get(name, [0, 0.0, 0.0])
        return total - callees

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]


def _count_cycles(tracer, cycles, _seconds):
    for length, node_sets in cycles.items():
        tracer.counts[f"lss.cycle_sets.{length}"] += len(node_sets)


def _count_seed(tracer, record, _seconds):
    if record.elementary and record.in_t:
        tracer.counts["search.seeds_kept"] += 1


def _count_sets(tracer, frontier, _seconds):
    tracer.counts["lss.sets_found"] += len(frontier)
    for size, layer in frontier.by_size.items():
        tracer.counts[f"lss.sets.{size}"] += len(layer)


def _count_structures(tracer, catalog, seconds):
    tracer.counts["structgen.structures"] += len(catalog)
    if len(catalog) == 0:
        tracer.counts["structgen.empty_cells_s"] += seconds


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported etskit package."""
    from etskit import cli, lss, search, structgen, tanner

    S = True  # keep spans of this layer
    for owner, attr, name, after, span in (
        (cli, "cmd_search", "cli.search", None, S),
        (cli, "cmd_gen", "cli.gen", None, S),
        (cli, "cmd_classify", "cli.classify", None, S),
        (cli, "parse_alist", "tanner.parse_alist", None, S),
        (cli, "find_etss", "search.find_etss", None, S),
        (search, "enumerate_tanner_cycles", "lss.enumerate_tanner_cycles", _count_cycles, S),
        (search, "classify", "tanner.classify", _count_seed, False),
        (search, "expand_to_k", "lss.expand_to_k", _count_sets, S),
        (search, "gamma_split", "tanner.gamma_split", None, False),
        # ExpansionFrontier.export_lines imports gamma_split at call time
        (tanner, "gamma_split", "tanner.gamma_split", None, False),
        (cli, "generate_structures", "structgen.generate_structures", _count_structures, S),
        (structgen, "canonical_masks", "canon.canonical_masks", None, False),
        (cli, "label_catalog", "lss.label_catalog", None, S),
        (lss, "from_normal", "normal.from_normal", None, False),
        (lss, "CycleCensus", "normal.cycle_census", None, False),
        (lss, "expand_to_k", "lss.label_expand", None, False),
        (lss, "classify", "lss.label_classify", None, False),
        (cli, "write_catalog", "structgen.write_catalog", None, S),
        (cli, "read_catalog", "structgen.read_catalog", None, S),
    ):
        tracer.patch(owner, attr, name, after, span)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    t = tracer
    counts = t.counts
    classify_calls = t.calls("tanner.classify")
    canon_calls = t.calls("canon.canonical_masks")
    out = {
        "tanner.parse_alist_s": t.seconds("tanner.parse_alist"),
        "lss.enumerate_tanner_cycles_s": t.seconds("lss.enumerate_tanner_cycles"),
        "tanner.classify_calls": classify_calls,
        "tanner.classify_s": t.seconds("tanner.classify"),
        "search.seeds_kept": counts["search.seeds_kept"],
        "search.seed_yield": (
            counts["search.seeds_kept"] / classify_calls if classify_calls else 0.0
        ),
        "lss.expand_to_k_s": t.seconds("lss.expand_to_k"),
        "lss.sets_found": counts["lss.sets_found"],
        "tanner.gamma_split_calls": t.calls("tanner.gamma_split"),
        "tanner.gamma_split_s": t.seconds("tanner.gamma_split"),
        # everything `search` does around the parse and find_etss: the JSON
        # report, the --sets-out export and the file writes
        "search.report_write_s": (
            t.seconds("cli.search")
            - t.seconds("tanner.parse_alist")
            - t.seconds("search.find_etss")
        ),
        "search.find_etss_self_s": t.self_seconds("search.find_etss"),
        "structgen.generate_structures_s": t.seconds("structgen.generate_structures"),
        "canon.canonical_masks_calls": canon_calls,
        "canon.canonical_masks_s": t.seconds("canon.canonical_masks"),
        "structgen.self_s": t.self_seconds("structgen.generate_structures"),
        "structgen.structures": counts["structgen.structures"],
        "structgen.yield": (
            counts["structgen.structures"] / canon_calls if canon_calls else 0.0
        ),
        "structgen.empty_cells_s": counts["structgen.empty_cells_s"],
        "lss.label_catalog_s": t.seconds("lss.label_catalog"),
        "normal.from_normal_s": t.seconds("normal.from_normal"),
        "normal.cycle_census_s": t.seconds("normal.cycle_census"),
        "lss.label_expand_calls": t.calls("lss.label_expand"),
        "lss.label_classify_calls": t.calls("lss.label_classify"),
        "structgen.write_catalog_s": t.seconds("structgen.write_catalog"),
        "structgen.read_catalog_s": t.seconds("structgen.read_catalog"),
    }
    for length in (6, 8, 10):
        out[f"lss.cycle_sets.{length}"] = counts[f"lss.cycle_sets.{length}"]
    for size in range(3, 9):
        out[f"lss.sets.{size}"] = counts[f"lss.sets.{size}"]
    return out
