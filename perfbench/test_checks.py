"""The benchmark's checks accept real etskit output and reject corrupted
copies of it.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from etskit import cli, tables  # noqa: E402

N, M, D_L, K, MAX_LEN = 60, 30, 3, 5, 8
CELL = (4, 6, 6, 2)  # 3 structures, 2 of them absorbing


def run_cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def search_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("search")
    var_adj = inputs.build_code(N, M, D_L, seed=3)
    (tmp / "code.alist").write_text(inputs.alist_text(var_adj, M))
    run_cli(["search", "--alist", str(tmp / "code.alist"), "--k", str(K),
             "--max-cycle-len", str(MAX_LEN), "--out", str(tmp / "report.json"),
             "--sets-out", str(tmp / "sets.tsv")])
    return (checks.Code(var_adj, M), (tmp / "report.json").read_text(),
            (tmp / "sets.tsv").read_text())


@pytest.fixture(scope="module")
def catalog_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("catalog")
    d_l, g, a, b = CELL
    cat = str(tmp / "cell.cat")
    gen_out = run_cli(["gen", "--dl", str(d_l), "--girth", str(g), "--a", str(a),
                       "--b", str(b), "--out", cat, "--no-lss"])
    classify_out = run_cli(["classify", "--catalog", cat])
    return (tmp / "cell.cat").read_text(), gen_out, classify_out


def paper_row():
    d_l, g, a, b = CELL
    return tables.get_table(d_l, g).row(a, b)


def check(code, report, sets):
    return checks.check_search(code, K, MAX_LEN, report, sets)


def test_search_output_passes(search_output):
    figures = check(*search_output)
    assert figures["sets"] > figures["six_cycle_sets"] > 0


def test_set_with_one_member_swapped_is_rejected(search_output):
    code, report, sets = search_output
    lines = sets.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("4\t"))
    a, b, members = lines[i].split("\t")
    members = [int(x) for x in members.split(",")]
    outside = next(v for v in range(N) if v not in members)
    swapped = sorted(members[1:] + [outside])
    lines[i] = f"{a}\t{b}\t{','.join(map(str, swapped))}"
    with pytest.raises(checks.CheckFailed):
        check(code, report, "\n".join(lines) + "\n")


def test_duplicated_set_is_rejected(search_output):
    code, report, sets = search_output
    lines = sets.splitlines()
    with pytest.raises(checks.CheckFailed, match="twice"):
        check(code, report, "\n".join(lines + lines[-1:]) + "\n")


def test_missing_six_cycle_set_is_rejected(search_output):
    code, report, sets = search_output
    lines = sets.splitlines()
    dropped = lines.pop(0)
    a, b = (int(x) for x in dropped.split("\t")[:2])
    assert a == 3
    doc = json.loads(report)
    for cls in doc["classes"]:
        if (cls["a"], cls["b"]) == (a, b):
            cls["count"] -= 1
    with pytest.raises(checks.CheckFailed, match="6-cycle"):
        check(code, json.dumps(doc), "\n".join(lines) + "\n")


def test_conflict_verdict_is_rejected(search_output):
    code, report, sets = search_output
    doc = json.loads(report)
    doc["classes"][-1]["guarantee"] = "conflict"
    with pytest.raises(checks.CheckFailed, match="conflict"):
        check(code, json.dumps(doc), sets)


def test_catalog_output_passes(catalog_output):
    text, gen_out, classify_out = catalog_output
    hists = checks.check_catalog(CELL, text, paper_row())
    assert hists == {"ts": {6: 3}, "as": {6: 2}}
    checks.check_catalog_stdout(CELL, gen_out, classify_out, hists)


def test_duplicated_catalog_row_is_rejected(catalog_output):
    text = catalog_output[0]
    lines = text.splitlines()
    with pytest.raises(checks.CheckFailed, match="twice"):
        checks.check_catalog(CELL, "\n".join(lines + lines[-1:]) + "\n", paper_row())


def test_wrong_absorbing_flag_is_rejected(catalog_output):
    text = catalog_output[0]
    lines = text.splitlines()
    hexform, flag, label = lines[1].split("\t")
    lines[1] = "\t".join([hexform, "0" if flag == "1" else "1", label])
    with pytest.raises(checks.CheckFailed, match="absorbing"):
        checks.check_catalog(CELL, "\n".join(lines) + "\n", paper_row())


def test_label_histogram_off_by_one_is_rejected(catalog_output):
    text, gen_out, classify_out = catalog_output
    lines = text.splitlines()
    hexform, flag, label = lines[1].split("\t")
    lines[1] = "\t".join([hexform, flag, str(int(label) + 2)])
    with pytest.raises(checks.CheckFailed, match="paper"):
        checks.check_catalog(CELL, "\n".join(lines) + "\n", paper_row())
    hists = checks.check_catalog(CELL, text, paper_row())
    with pytest.raises(checks.CheckFailed, match="classify printed"):
        checks.check_catalog_stdout(CELL, gen_out, classify_out.replace(":3", ":4"), hists)


def test_tables_checksum_is_pinned():
    assert tables.CHECKSUM == checks.TABLES_CHECKSUM
    tables.verify_checksum()
