import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from etskit import cli
from etskit.cli import main
from etskit.normal import from_normal
from helpers import brute_gamma, frontier_sets, random_tanner, to_alist


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_6_2(tmp_path, capsys):
    out = tmp_path / "c.cat"
    code, stdout, _ = run(capsys, "gen", "--dl", "4", "--girth", "6",
                          "--a", "6", "--b", "2", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "total=3 absorbing=2 lss={6:3}"
    lines = out.read_text().splitlines()
    assert lines[0] == "# 4 6 6 2"
    assert len(lines) == 4


def test_gen_4_4_d3_g8(tmp_path, capsys):
    out = tmp_path / "c.cat"
    code, stdout, _ = run(capsys, "gen", "--dl", "3", "--girth", "8",
                          "--a", "4", "--b", "4", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "total=1 absorbing=1 lss={8:1}"


def test_gen_empty_class(tmp_path, capsys):
    out = tmp_path / "c.cat"
    code, stdout, _ = run(capsys, "gen", "--dl", "5", "--girth", "8",
                          "--a", "7", "--b", "9", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "total=0 (class infeasible or empty)"


def test_gen_extended_gate(tmp_path, capsys):
    out = tmp_path / "c.cat"
    code, _, stderr = run(capsys, "gen", "--dl", "6", "--girth", "6",
                          "--a", "9", "--b", "8", "--out", str(out))
    assert code == 2
    assert "--extended" in stderr
    assert not out.exists()


def test_classify_cycle(tmp_path, capsys):
    out = tmp_path / "c.cat"
    code, _, _ = run(capsys, "gen", "--dl", "3", "--girth", "6",
                     "--a", "6", "--b", "4", "--out", str(out), "--no-lss")
    assert code == 0
    code, stdout, _ = run(capsys, "classify", "--catalog", str(out))
    assert code == 0
    assert stdout.strip() == "{10:2, 12:1, NA:1}"
    # relabeling without --force refuses
    code, _, stderr = run(capsys, "classify", "--catalog", str(out))
    assert code == 2 and "--force" in stderr
    code, stdout, _ = run(capsys, "classify", "--catalog", str(out), "--force")
    assert code == 0


def test_classify_failed_write_keeps_catalog(tmp_path, capsys, monkeypatch):
    cat = tmp_path / "c.cat"
    code, _, _ = run(capsys, "gen", "--dl", "3", "--girth", "6",
                     "--a", "6", "--b", "4", "--out", str(cat))
    assert code == 0
    before = cat.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, _, stderr = run(capsys, "classify", "--catalog", str(cat), "--force")
    assert code == 2 and "disk full" in stderr
    assert cat.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.cat"]


@pytest.mark.parametrize("out,code", [("missing/c.cat", errno.ENOENT), ("ro", errno.EISDIR)])
def test_unwritable_out_names_the_given_path(tmp_path, capsys, monkeypatch, out, code):
    # the error names --out as given, not the random temporary file the write
    # goes through, and that file is removed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ro").mkdir()
    exit_code, _, stderr = run(capsys, "gen", "--dl", "3", "--girth", "6",
                               "--a", "6", "--b", "4", "--out", out)
    assert exit_code == 2
    assert stderr == f"error: [Errno {code}] {os.strerror(code)}: {out!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["ro"]


@pytest.mark.parametrize("option,path", [
    ("--out", ""), ("--out", "/"), ("--out", "."), ("--sets-out", ""),
])
def test_output_path_naming_no_file_is_a_usage_error(tmp_path, capsys, monkeypatch, ets54,
                                                      option, path):
    # the error names the path as given and nothing is written; the report is
    # written before --sets-out, as for any other unwritable --sets-out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "code.alist").write_text(to_alist(ets54))
    if option == "--out":
        argv = ["gen", "--dl", "3", "--girth", "6", "--a", "6", "--b", "4", "--out", path]
    else:
        argv = ["search", "--alist", "code.alist", "--k", "5", "--max-cycle-len", "6",
                "--out", "r.json", "--sets-out", path]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr == f"error: output path {path!r} names no file\n"
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["code.alist"] if option == "--out" else ["code.alist", "r.json"])


def test_classify_empty_catalog(tmp_path, capsys):
    out = tmp_path / "c.cat"
    run(capsys, "gen", "--dl", "5", "--girth", "8", "--a", "7", "--b", "9",
        "--out", str(out))
    code, stdout, _ = run(capsys, "classify", "--catalog", str(out))
    assert code == 0
    assert stdout.strip() == "{}"


def test_classify_empty_class_header_takes_no_row(tmp_path, capsys):
    # a*d_l - b = 19 is odd, so class (7,2) of d_l = 3 is empty; the rows of
    # class (7,3) have the degree sum 18 that rounding 19 down would give
    cat = tmp_path / "c.cat"
    run(capsys, "gen", "--dl", "3", "--girth", "6", "--a", "7", "--b", "3",
        "--no-lss", "--out", str(cat))
    rows = cat.read_text().split("\n", 1)[1]
    cat.write_text("# 3 6 7 2\n" + rows)
    code, stdout, stderr = run(capsys, "classify", "--catalog", str(cat))
    assert code == 3 and stdout == ""
    assert stderr == (f"error: {cat}: line 2: entry {rows[:8]} does not match "
                      "class (a=7, b=2)\n")
    # the header alone still reads, as gen writes it for an empty class
    cat.write_text("# 3 6 7 2\n")
    code, stdout, _ = run(capsys, "classify", "--catalog", str(cat))
    assert code == 0 and stdout == "{}\n"


def test_classify_rejects_node_above_left_degree(tmp_path, capsys):
    from etskit.canon import canonical_form
    from etskit.normal import NormalGraph

    # two triangles sharing node 0: (5,3) edge count for d_l = 3, but node 0
    # has degree 4
    bowtie = NormalGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    cat = tmp_path / "c.cat"
    cat.write_text(f"# 3 6 5 3\n{canonical_form(bowtie).hex()}\t0\t?\n")
    code, _, stderr = run(capsys, "classify", "--catalog", str(cat))
    assert code == 3
    assert "degree 4, above left degree 3" in stderr


@pytest.mark.parametrize("row, message", [
    ("061af8\t1", "bad catalog row '061af8\\t1'"),
    ("061af8\t2\t?", "bad absorbing flag in '061af8\\t2\\t?'"),
])
def test_classify_bad_row_names_file_and_line(tmp_path, capsys, row, message):
    cat = tmp_path / "bad.cat"
    cat.write_text(f"# 3 6 6 2\n{row}\n")
    code, stdout, stderr = run(capsys, "classify", "--catalog", str(cat))
    assert code == 3 and stdout == ""
    assert stderr == f"error: {cat}: line 2: {message}\n"


def test_search_ets54(tmp_path, capsys, ets54):
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(ets54))
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "search", "--alist", str(alist),
                          "--k", "5", "--max-cycle-len", "6",
                          "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    counts = {(c["a"], c["b"]): c["count"] for c in data["classes"]}
    assert counts[(5, 4)] == 1


def test_search_prints_empty_table(tmp_path, capsys):
    # the K4 alist of test_tanner.py: its only 6-cycles have 3 variables,
    # above k = 2, so no seed is kept
    alist = tmp_path / "k4.alist"
    alist.write_text("4 6\n3 2\n3 3 3 3\n2 2 2 2 2 2\n1 2 3\n1 4 5\n2 4 6\n3 5 6\n"
                     "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, stdout, stderr = run(capsys, "search", "--alist", str(alist), "--k", "2",
                               "--max-cycle-len", "6", "--out", str(tmp_path / "r.json"))
    assert code == 0 and stderr == ""
    assert stdout == (
        "code k4: d_l=3 girth=6 k=2 max_len=6 (g+0)\n"
        "no trapping sets found\n"
    )


def test_search_code_without_cycles(tmp_path, capsys):
    # two variables, each on three checks of its own: a forest, so no girth
    alist = tmp_path / "tree.alist"
    alist.write_text("2 6\n3 1\n3 3\n1 1 1 1 1 1\n1 2 3\n4 5 6\n1\n1\n1\n2\n2\n2\n")
    out = tmp_path / "r.json"
    code, stdout, stderr = run(capsys, "search", "--alist", str(alist), "--k", "4",
                               "--max-cycle-len", "8", "--out", str(out))
    assert code == 0 and stderr == ""
    assert stdout == "code tree: d_l=3 girth=-1 k=4 max_len=8\nno trapping sets found\n"
    data = json.loads(out.read_text())
    assert data["g"] == -1 and data["classes"] == []


def test_search_bad_alist(tmp_path, capsys):
    alist = tmp_path / "bad.alist"
    alist.write_text("2 3\n3 2\n3 3\n2 2 2\n1 2 2\n1 2 3\n1 2\n1 2\n2\n")
    out = tmp_path / "report.json"
    code, _, stderr = run(capsys, "search", "--alist", str(alist),
                          "--k", "5", "--max-cycle-len", "6", "--out", str(out))
    assert code == 3
    assert "line 5" in stderr and "parallel edge" in stderr
    assert "bad.alist" in stderr  # file context alongside the line number


def test_search_undecodable_alist(tmp_path, capsys):
    alist = tmp_path / "bad.alist"
    alist.write_bytes(b"2 3\n3 2\n3 \xff3\n")
    code, _, stderr = run(capsys, "search", "--alist", str(alist),
                          "--k", "5", "--max-cycle-len", "6",
                          "--out", str(tmp_path / "r.json"))
    assert code == 3
    assert "bad.alist" in stderr and "line 3" in stderr and "0xff" in stderr


def test_classify_undecodable_catalog(tmp_path, capsys):
    cat = tmp_path / "c.cat"
    code, _, _ = run(capsys, "gen", "--dl", "3", "--girth", "6",
                     "--a", "6", "--b", "4", "--out", str(cat), "--no-lss")
    assert code == 0
    data = cat.read_bytes()
    cat.write_bytes(data + b"\xfe\t0\t?\n")
    lines = len(data.splitlines())
    code, _, stderr = run(capsys, "classify", "--catalog", str(cat))
    assert code == 3
    assert f"line {lines + 1}" in stderr and "0xfe" in stderr
    assert cat.read_bytes() == data + b"\xfe\t0\t?\n"


def test_search_missing_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "search", "--alist", str(tmp_path / "nope"),
                          "--k", "5", "--max-cycle-len", "6",
                          "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "error" in stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--dl", "4"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", [
    ["gen", "--dl", "4", "--girth", "6", "--a", "6", "--b", "2", "--out", "c.cat"],
    ["classify", "--catalog", "c.cat"],
    ["search", "--alist", "c.alist", "--k", "5", "--max-cycle-len", "6",
     "--out", "r.json"],
    ["verify", "--dl", "3", "--girth", "8"],
])
def test_threads_bounded_by_cpu_count(command, capsys):
    # parsing only: no command runs
    cap = os.cpu_count()
    parser = cli.build_parser()
    assert parser.parse_args(command + ["--threads", str(cap)]).threads == cap
    for bad in ("0", "-1", str(cap + 1), "two"):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(command + ["--threads", bad])
        assert err.value.code == 2
        assert f"1..{cap}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["\u0664", "+4", "1_0", "\u0661"])
@pytest.mark.parametrize("command,option", [
    ("gen", "--dl"), ("gen", "--girth"), ("gen", "--a"), ("gen", "--b"),
    ("gen", "--threads"), ("search", "--k"), ("search", "--max-cycle-len"),
    ("verify", "--max-a"),
])
def test_integer_options_take_ascii_decimal_only(command, option, bad, capsys):
    # parsing only: int() would read each of these as a number
    argv = {
        "gen": ["gen", "--dl", "4", "--girth", "6", "--a", "6", "--b", "2",
                "--out", "c.cat"],
        "search": ["search", "--alist", "c.alist", "--k", "5",
                   "--max-cycle-len", "6", "--out", "r.json"],
        "verify": ["verify", "--dl", "3", "--girth", "8"],
    }[command]
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv + [option, bad])
    assert err.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    # every command runs in one process, so the CLI has no reason to load
    # the multiprocessing machinery; a fresh interpreter shows what it pulls in
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, etskit.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"


def test_threads_help_says_one_process():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["classify", "gen", "search", "verify"]
    for name, command in sub.choices.items():
        (threads,) = [a for a in command._actions if "--threads" in a.option_strings]
        assert "one process" in threads.help, name


def test_package_exports_resolve():
    import etskit

    for name in etskit.__all__:
        assert getattr(etskit, name) is not None, name
    # names that are not part of the package API
    for name in ("from_normal", "normal_b", "to_normal", "gamma_split",
                 "GammaSplit", "classify_lss"):
        assert name not in etskit.__all__


def test_verify_d3_g8(capsys):
    code, stdout, _ = run(capsys, "verify", "--dl", "3", "--girth", "8",
                          "--max-a", "6")
    assert code == 0
    assert "0 diff(s)" in stdout


def test_verify_reports_diffs(capsys, monkeypatch):
    from dataclasses import replace

    from etskit.structgen import Catalog
    from etskit.tables import NA

    monkeypatch.setattr(cli, "label_catalog", lambda catalog: Catalog(
        catalog.spec, [replace(e, lss=NA) for e in catalog.entries]))
    code, stdout, _ = run(capsys, "verify", "--dl", "3", "--girth", "8",
                          "--max-a", "4")
    assert code == 1
    # every other b of a = 4 is an empty class, which still matches
    assert stdout.splitlines() == [
        *(f"(4,{b}): ok" for b in range(4)),
        "(4,4): DIFF ts={NA:1} want {8:1} as={NA:1} want {8:1}",
        *(f"(4,{b}): ok" for b in range(5, 9)),
        "verify d_l=3 g=8: 1 diff(s)",
    ]


def test_verify_without_reference_table(capsys):
    code, stdout, stderr = run(capsys, "verify", "--dl", "7", "--girth", "6")
    assert code == 2 and stdout == ""
    assert stderr == "error: no reference table for d_l=7, g=6\n"


@pytest.mark.parametrize("max_a", ["3", "0", "-1"])
def test_verify_rejects_max_a_below_table(capsys, max_a):
    # below the table's smallest a the row loop would be empty, and verify
    # would report "0 diff(s)" having checked nothing
    code, stdout, stderr = run(capsys, "verify", "--dl", "3", "--girth", "6",
                               "--max-a", max_a)
    assert code == 2
    assert "diff" not in stdout
    assert f"--max-a {max_a}" in stderr and "a range 4..9" in stderr


def test_verify_extended_skip(capsys):
    code, stdout, _ = run(capsys, "verify", "--dl", "5", "--girth", "6",
                          "--max-a", "9")
    assert code == 0
    assert "skipped (needs --extended)" in stdout


def test_gen_deterministic_across_runs_and_threads(tmp_path, capsys):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", str(os.cpu_count()))):
        out = tmp_path / f"{name}.cat"
        code, _, _ = run(capsys, "gen", "--dl", "4", "--girth", "6",
                         "--a", "7", "--b", "4", "--out", str(out),
                         "--threads", threads)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_search_deterministic_across_runs_and_threads(tmp_path, capsys):
    g = random_tanner(20, 3, 30, seed=11, girth_exactly=6)
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(g))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", str(os.cpu_count()))):
        out = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "search", "--alist", str(alist),
                         "--k", "6", "--max-cycle-len", "10",
                         "--out", str(out), "--sets", "--threads", threads,
                         "--code-id", "fixed")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_search_json_prints_the_report_it_writes(tmp_path, capsys, monkeypatch):
    from etskit.search import SearchReport

    calls = []
    to_json = SearchReport.to_json
    monkeypatch.setattr(SearchReport, "to_json",
                        lambda self, sets=False: calls.append(sets) or to_json(self, sets))
    g = random_tanner(20, 3, 30, seed=11, girth_exactly=6)
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(g))
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "search", "--alist", str(alist),
                          "--k", "6", "--max-cycle-len", "8",
                          "--out", str(out), "--json", "--sets")
    assert code == 0
    assert json.loads(stdout)["sets"]
    assert stdout.encode() == out.read_bytes()
    assert calls == [True]  # one report text for the file and for stdout


def test_search_sets_out(tmp_path, capsys, ets54):
    alist = tmp_path / "code.alist"
    alist.write_text(to_alist(ets54))
    out = tmp_path / "report.json"
    tsv = tmp_path / "sets.tsv"
    code, _, _ = run(capsys, "search", "--alist", str(alist),
                     "--k", "5", "--max-cycle-len", "6",
                     "--out", str(out), "--sets-out", str(tsv))
    assert code == 0
    from etskit.search import find_etss

    frontier = find_etss(ets54, k=5, max_len=6).frontier
    expected = [
        f"{len(m)}\t{len(brute_gamma(ets54, m)[0])}\t{','.join(map(str, m))}"
        for m in frontier_sets(frontier)
    ]
    assert tsv.read_text().splitlines() == expected
    assert any(ln.startswith("5\t4\t") for ln in tsv.read_text().splitlines())
