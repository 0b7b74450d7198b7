import pytest

from etskit.tables import NA, TABLES, get_table, verify_checksum


def test_checksum_holds():
    verify_checksum()


def test_all_eight_tables_present():
    assert set(TABLES) == {(3, 6), (3, 8), (4, 6), (4, 8),
                           (5, 6), (5, 8), (6, 6), (6, 8)}


def test_d3_absorbing_rows_equal_ts():
    for g in (6, 8):
        for row in TABLES[(3, g)].rows.values():
            assert row["as"] == row["ts"]


def test_absorbing_never_exceeds_ts():
    for table in TABLES.values():
        for row in table.rows.values():
            assert sum(row["as"].values()) <= sum(row["ts"].values())
            for label, count in row["as"].items():
                assert count <= row["ts"].get(label, 0) or label == NA


def test_parity_of_every_row():
    for (dl, g), table in TABLES.items():
        for (a, b) in table.rows:
            assert (a * dl - b) % 2 == 0


def test_row_access_and_scope():
    t = get_table(3, 6)
    assert t.row(8, 2)["ts"] == {10: 9, 12: 7, 14: 1, NA: 2}
    assert t.row(4, 1) is None  # parity-impossible: explicit dash
    with pytest.raises(KeyError):
        t.row(10, 0)
    assert t.expected_total(8, 2) == 19
    assert t.expected_total(5, 2) == 0


def test_d6_g8_table_is_empty():
    t = get_table(6, 8)
    assert t.rows == {}
    assert t.expected_total(9, 10) == 0


def test_get_table_handles_girth_values():
    assert get_table(3, 6.0) is TABLES[(3, 6)]
    assert get_table(3, float("inf")) is None
    assert get_table(3, 10) is None
    for g in (float("nan"), 6.5, "6"):
        assert get_table(3, g) is None


def test_labels_are_at_least_girth():
    for (dl, g), table in TABLES.items():
        for row in table.rows.values():
            for label in row["ts"]:
                if isinstance(label, int):
                    assert label >= g and label % 2 == 0
