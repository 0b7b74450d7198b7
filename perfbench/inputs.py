"""Seeded inputs of the benchmark.

The search workloads run on random left-regular codes of girth at least 6,
built here and written as alist text; the catalog workload runs on a fixed
list of table cells, visited in a seeded order.  Nothing in this module
imports etskit, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import itertools
import random

# Code parameters of the search workloads: ``codes`` codes per round, each
# searched by one `etskit search` with the given ``k`` and ``max_len``.
SEARCH_WORKLOADS = {
    # d_l=3, girth 6, cycles up to g+4: cycle enumeration dominates.
    "search-wide": {"n": 504, "m": 252, "d_l": 3, "k": 6, "max_len": 10, "codes": 1},
    # d_l=4, girth 6, 6-cycles only but k=8: layered expansion, per-set
    # class grouping and the --sets-out export dominate.  The number of sets
    # varies by some 15% between codes, so a round searches four.
    "search-deep": {"n": 200, "m": 100, "d_l": 4, "k": 8, "max_len": 6, "codes": 4},
}

# (d_l, g, a, b) cells of the catalog workload: every cell has a <= 8 and at
# most 1000 structures, and each reference table contributes one or more.
CATALOG_CELLS = (
    (3, 6, 8, 4),   # 25 structures
    (3, 8, 8, 4),   # 10 structures
    (4, 6, 8, 8),   # 250 structures, generation-heavy
    (4, 8, 8, 8),   # 14 structures
    (5, 6, 8, 8),   # 461 structures, generation-heavy
    (5, 8, 8, 0),   # (5,8,8,0)..(5,8,8,6): triangle-free cells that pass
    (5, 8, 8, 2),   # class_feasible yet generate nothing
    (5, 8, 8, 4),
    (5, 8, 8, 6),
    (6, 6, 8, 8),   # 120 structures, labelling is a large share
    (6, 6, 8, 10),  # 260 structures, labelling is a large share
    (6, 8, 4, 0),   # rejected outright by class_feasible
)

WORKLOADS = tuple(SEARCH_WORKLOADS) + ("catalog",)


def build_code(n: int, m: int, d_l: int, seed: int) -> list[tuple[int, ...]]:
    """Random code with ``n`` variables of degree ``d_l`` on ``m`` checks.

    No two variables share two checks, which is girth >= 6 for a bipartite
    graph.  Checks are filled nearly evenly (each variable draws from the
    least-used checks), so every check has degree at least 2.  Returns the
    sorted 0-based check list of each variable.
    """
    cap = -(-n * d_l // m) + 1
    for attempt in range(100):
        rng = random.Random(seed * 1_000_003 + attempt)
        degree = [0] * m
        joined: set[tuple[int, int]] = set()  # check pairs sharing a variable
        rows: list[tuple[int, ...]] = []
        for _ in range(n):
            row = _draw_row(rng, degree, joined, d_l, cap)
            if row is None:
                break
            rows.append(row)
            joined.update(itertools.combinations(row, 2))
            for c in row:
                degree[c] += 1
        if len(rows) == n and min(degree) >= 2:
            return rows
    raise RuntimeError(f"no girth-6 code with n={n} m={m} d_l={d_l} for seed {seed}")


def _draw_row(rng, degree, joined, d_l, cap):
    low = min(degree)
    for slack in (1, 2, cap):
        pool = [c for c, d in enumerate(degree) if d <= low + slack and d < cap]
        if len(pool) < d_l:
            continue
        for _ in range(50):
            row = tuple(sorted(rng.sample(pool, d_l)))
            if not any(p in joined for p in itertools.combinations(row, 2)):
                return row
    return None


def alist_text(var_adj: list[tuple[int, ...]], m: int) -> str:
    """MacKay alist text of the code (1-based, zero-padded lists)."""
    chk_adj: list[list[int]] = [[] for _ in range(m)]
    for v, row in enumerate(var_adj):
        for c in row:
            chk_adj[c].append(v)
    vmax = max(len(row) for row in var_adj)
    cmax = max(len(row) for row in chk_adj)
    lines = [f"{len(var_adj)} {m}", f"{vmax} {cmax}"]
    lines.append(" ".join(str(len(row)) for row in var_adj))
    lines.append(" ".join(str(len(row)) for row in chk_adj))
    for rows, width in ((var_adj, vmax), (chk_adj, cmax)):
        for row in rows:
            ids = [str(x + 1) for x in row] + ["0"] * (width - len(row))
            lines.append(" ".join(ids))
    return "\n".join(lines) + "\n"


def search_codes(workload: str, seed: int) -> list[list[tuple[int, ...]]]:
    """The codes one round of a search workload searches."""
    p = SEARCH_WORKLOADS[workload]
    return [build_code(p["n"], p["m"], p["d_l"], seed * 1000 + i)
            for i in range(p["codes"])]


def cell_name(cell: tuple[int, int, int, int]) -> str:
    d_l, g, a, b = cell
    return f"d{d_l}g{g}_{a}_{b}"


def catalog_cells(seed: int) -> list[tuple[int, int, int, int]]:
    """The catalog cells in the order the seed gives."""
    cells = list(CATALOG_CELLS)
    random.Random(seed).shuffle(cells)
    return cells
