"""Shipped reference data: per class (d_l, g, a, b), the multiset of LSS
labels of all non-isomorphic structures ("ts") and of the absorbing subset
("as"), with labels as absolute Tanner cycle lengths or NA.

Missing (a, b) keys inside a table's grid mean the class cannot exist for
that d_l and girth.  The d_l=6, g=8 grid is entirely empty (no class with
a < 10, b <= 10 exists above girth 6).  For d_l=3 every in-pool ETS is
absorbing, so the "as" rows equal the "ts" rows.

Every value is regenerable by ``structgen`` + ``lss`` (`etskit verify`
diffs shipped against regenerated); the module checksum guards against
accidental edits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Union

NA = "NA"

Label = Union[int, str]  # an LSS label: a Tanner cycle length, or NA
Row = dict[str, dict[Label, int]]


def _row(ts: dict, as_: Optional[dict] = None) -> Row:
    return {"ts": dict(ts), "as": dict(ts if as_ is None else as_)}


def _asym(ts: dict) -> Row:  # d_l = 3: absorbing == in-pool
    return _row(ts, ts)


_T36 = {
    (4, 0): _asym({6: 1}),
    (6, 0): _asym({8: 2}),
    (8, 0): _asym({10: 3, 12: 2}),
    (5, 1): _asym({6: 1}),
    (7, 1): _asym({8: 3, 10: 1}),
    (9, 1): _asym({10: 9, 12: 7, 14: 2, NA: 1}),
    (4, 2): _asym({6: 1}),
    (6, 2): _asym({8: 3, 10: 1}),
    (8, 2): _asym({10: 9, 12: 7, 14: 1, NA: 2}),
    (5, 3): _asym({8: 2}),
    (7, 3): _asym({10: 6, 12: 3, NA: 1}),
    (9, 3): _asym({12: 31, 14: 18, 16: 4, NA: 10}),
    (4, 4): _asym({8: 1}),
    (6, 4): _asym({10: 2, 12: 1, NA: 1}),
    (8, 4): _asym({12: 12, 14: 6, 16: 2, NA: 5}),
    (5, 5): _asym({10: 1}),
    (7, 5): _asym({12: 3, 14: 1, NA: 2}),
    (9, 5): _asym({14: 19, 16: 13, 18: 3, NA: 17}),
    (6, 6): _asym({12: 1}),
    (8, 6): _asym({14: 3, 16: 2, NA: 5}),
    (7, 7): _asym({14: 1}),
    (9, 7): _asym({16: 4, 18: 2, NA: 7}),
    (8, 8): _asym({16: 1}),
}

_T38 = {
    (6, 0): _asym({8: 1}),
    (8, 0): _asym({10: 1, 12: 1}),
    (7, 1): _asym({8: 1}),
    (9, 1): _asym({10: 3, 12: 1}),
    (6, 2): _asym({8: 1}),
    (8, 2): _asym({10: 3, 12: 2}),
    (5, 3): _asym({8: 1}),
    (7, 3): _asym({10: 2, 12: 1}),
    (9, 3): _asym({12: 13, 14: 4}),
    (4, 4): _asym({8: 1}),
    (6, 4): _asym({10: 1, 12: 1}),
    (8, 4): _asym({12: 6, 14: 2, 16: 2}),
    (5, 5): _asym({10: 1}),
    (7, 5): _asym({12: 2, 14: 1}),
    (9, 5): _asym({14: 10, 16: 7, 18: 3, NA: 1}),
    (6, 6): _asym({12: 1}),
    (8, 6): _asym({14: 2, 16: 2, NA: 2}),
    (7, 7): _asym({14: 1}),
    (9, 7): _asym({16: 3, 18: 2, NA: 3}),
    (8, 8): _asym({16: 1}),
}

_T46 = {
    (5, 0): _row({6: 1}),
    (6, 0): _row({6: 1}),
    (7, 0): _row({6: 2}),
    (8, 0): _row({6: 4, 8: 2}),
    (9, 0): _row({6: 10, 8: 6}),
    (5, 2): _row({6: 1}),
    (6, 2): _row({6: 3}, {6: 2}),
    (7, 2): _row({6: 9}, {6: 7}),
    (8, 2): _row({6: 32, 8: 3}, {6: 25, 8: 3}),
    (9, 2): _row({6: 127, 8: 24, 10: 3}, {6: 102, 8: 21, 10: 3}),
    (4, 4): _row({6: 1}),
    (5, 4): _row({6: 2}, {6: 1}),
    (6, 4): _row({6: 7}, {6: 3}),
    (7, 4): _row({6: 25, 8: 2, 10: 1}, {6: 9, 8: 2}),
    (8, 4): _row({6: 101, 8: 18, 10: 3, 12: 1, NA: 1}, {6: 34, 8: 15, 10: 1}),
    (9, 4): _row(
        {6: 460, 8: 165, 10: 26, 12: 7, NA: 5},
        {6: 154, 8: 110, 10: 16, 12: 3, NA: 2},
    ),
    (4, 6): _row({6: 1}, {}),
    (5, 6): _row({6: 3}, {}),
    (6, 6): _row({6: 8, 8: 3}, {8: 2}),
    (7, 6): _row({6: 28, 8: 12, 10: 3, NA: 1}, {8: 3, 10: 1}),
    (8, 6): _row(
        {6: 116, 8: 81, 10: 21, 12: 6, NA: 7}, {8: 22, 10: 4, 12: 1, NA: 1}
    ),
    (9, 6): _row(
        {6: 523, 8: 617, 10: 149, 12: 51, 14: 6, NA: 33},
        {8: 131, 10: 32, 12: 10, 14: 1, NA: 3},
    ),
    (4, 8): _row({8: 1}, {}),
    (5, 8): _row({8: 2, NA: 1}, {}),
    (6, 8): _row({8: 8, 10: 1, NA: 1}, {}),
    (7, 8): _row({8: 29, 10: 9, 12: 1, NA: 5}, {}),
    (8, 8): _row(
        {8: 144, 10: 63, 12: 21, 14: 1, 16: 1, NA: 20}, {10: 3, 12: 2}
    ),
    (9, 8): _row(
        {8: 855, 10: 446, 12: 173, 14: 30, 16: 5, NA: 104},
        {10: 18, 12: 6, 14: 1, NA: 2},
    ),
}

_T48 = {
    (8, 0): _row({8: 1}),
    (8, 2): _row({8: 1}),
    (9, 2): _row({8: 2}, {8: 1}),
    (7, 4): _row({8: 1}),
    (8, 4): _row({8: 2}, {8: 1}),
    (9, 4): _row({8: 7}, {8: 3}),
    (6, 6): _row({8: 1}),
    (7, 6): _row({8: 1}, {}),
    (8, 6): _row({8: 5}, {8: 2}),
    (9, 6): _row({8: 18, 10: 1}, {8: 5}),
    (4, 8): _row({8: 1}, {}),
    (5, 8): _row({8: 1}, {}),
    (6, 8): _row({8: 2}, {}),
    (7, 8): _row({8: 3}, {}),
    (8, 8): _row({8: 10, 10: 2, 12: 2}, {10: 1, 12: 1}),
    (9, 8): _row({8: 36, 10: 10, 12: 4}, {8: 3}),
}

_T56 = {
    (6, 0): _row({6: 1}),
    (8, 0): _row({6: 3}),
    (7, 1): _row({6: 1}),
    (9, 1): _row({6: 28}),
    (6, 2): _row({6: 1}),
    (8, 2): _row({6: 16}),
    (7, 3): _row({6: 6}, {6: 5}),
    (9, 3): _row({6: 289}, {6: 276}),
    (6, 4): _row({6: 2}),
    (8, 4): _row({6: 75}, {6: 68}),
    (5, 5): _row({6: 1}),
    (7, 5): _row({6: 18}, {6: 14}),
    (9, 5): _row({6: 1355, 8: 2}, {6: 1149, 8: 2}),
    (6, 6): _row({6: 5}, {6: 4}),
    (8, 6): _row({6: 222, 10: 1}, {6: 165}),
    (5, 7): _row({6: 1}),
    (7, 7): _row({6: 37}, {6: 23}),
    (9, 7): _row({6: 3768, 8: 9, 10: 6, 12: 1, NA: 3}, {6: 2533, 8: 7, 10: 1}),
    (4, 8): _row({6: 1}),
    (6, 8): _row({6: 8}, {6: 5}),
    (8, 8): _row({6: 453, 8: 5, 10: 2, NA: 1}, {6: 249, 8: 3}),
    (5, 9): _row({6: 2}, {6: 1}),
    (7, 9): _row({6: 61, 8: 1}, {6: 25}),
    (9, 9): _row(
        {6: 6957, 8: 66, 10: 43, 12: 7, NA: 19}, {6: 3243, 8: 33, 10: 7, NA: 1}
    ),
}

_T58 = {
    (9, 5): _row({8: 1}),
    (9, 7): _row({8: 1}),
    (8, 8): _row({8: 1}),
    (9, 9): _row({8: 3}, {8: 2}),
}

_T66 = {
    (7, 0): _row({6: 1}),
    (8, 0): _row({6: 1}),
    (9, 0): _row({6: 4}),
    (7, 2): _row({6: 1}),
    (8, 2): _row({6: 3}),
    (9, 2): _row({6: 25}),
    (7, 4): _row({6: 2}),
    (8, 4): _row({6: 15}, {6: 12}),
    (9, 4): _row({6: 162}, {6: 146}),
    (6, 6): _row({6: 1}),
    (7, 6): _row({6: 5}, {6: 4}),
    (8, 6): _row({6: 48}, {6: 32}),
    (9, 6): _row({6: 726}, {6: 525}),
    (6, 8): _row({6: 1}),
    (7, 8): _row({6: 10}, {6: 6}),
    (8, 8): _row({6: 120}, {6: 60}),
    (9, 8): _row({6: 2273, 10: 1}, {6: 1157}),
    (5, 10): _row({6: 1}),
    (6, 10): _row({6: 2}, {6: 1}),
    (7, 10): _row({6: 20}, {6: 7}),
    (8, 10): _row({6: 260}, {6: 76}),
    (9, 10): _row({6: 5406, 8: 2, 10: 2, NA: 1}, {6: 1620}),
}

_T68: dict = {}  # no class with a < 10, b <= 10 exists for d_l = 6 above girth 6


@dataclass(frozen=True)
class ReferenceTable:
    d_l: int
    g: int
    a_range: tuple[int, int]
    b_range: tuple[int, int]
    rows: Mapping[tuple[int, int], Row]

    def in_scope(self, a: int, b: int) -> bool:
        return (
            self.a_range[0] <= a <= self.a_range[1]
            and self.b_range[0] <= b <= self.b_range[1]
        )

    def row(self, a: int, b: int) -> Optional[Row]:
        """None means the class cannot exist; raises outside the grid."""
        if not self.in_scope(a, b):
            raise KeyError(f"(a={a}, b={b}) outside table scope")
        return self.rows.get((a, b))

    def expected_total(self, a: int, b: int) -> int:
        row = self.row(a, b)
        return sum(row["ts"].values()) if row else 0


TABLES: dict[tuple[int, int], ReferenceTable] = {
    (3, 6): ReferenceTable(3, 6, (4, 9), (0, 8), _T36),
    (3, 8): ReferenceTable(3, 8, (4, 9), (0, 8), _T38),
    (4, 6): ReferenceTable(4, 6, (4, 9), (0, 8), _T46),
    (4, 8): ReferenceTable(4, 8, (4, 9), (0, 8), _T48),
    (5, 6): ReferenceTable(5, 6, (4, 9), (0, 9), _T56),
    (5, 8): ReferenceTable(5, 8, (4, 9), (0, 9), _T58),
    (6, 6): ReferenceTable(6, 6, (4, 9), (0, 10), _T66),
    (6, 8): ReferenceTable(6, 8, (4, 9), (0, 10), _T68),
}


def get_table(d_l: int, g) -> Optional[ReferenceTable]:
    """The table of ``(d_l, g)``; ``g == 6.0`` finds the girth-6 table,
    and an infinite or fractional girth none."""
    return TABLES.get((d_l, g))


def _canonical_dump() -> str:
    payload = {
        f"{dl},{g}": {
            f"{a},{b}": {
                kind: {str(k): v for k, v in sorted(hist.items(), key=str)}
                for kind, hist in row.items()
            }
            for (a, b), row in sorted(table.rows.items())
        }
        for (dl, g), table in sorted(TABLES.items())
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


CHECKSUM = "sha256:7deab4f904068f5c079501a503148006f935680816ae73b167654d01752e95dd"


def verify_checksum() -> None:
    digest = "sha256:" + hashlib.sha256(_canonical_dump().encode()).hexdigest()
    if digest != CHECKSUM:
        raise RuntimeError(
            f"reference tables corrupted: {digest} != {CHECKSUM}"
        )
