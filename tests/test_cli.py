import json
import os
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


def test_classify_empty_catalog(tmp_path, capsys):
    out = tmp_path / "c.cat"
    run(capsys, "gen", "--dl", "5", "--girth", "8", "--a", "7", "--b", "9",
        "--out", str(out))
    code, stdout, _ = run(capsys, "classify", "--catalog", str(out))
    assert code == 0
    assert stdout.strip() == "{}"


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


def test_search_bad_alist(tmp_path, capsys):
    alist = tmp_path / "bad.alist"
    alist.write_text("2 3\n3 2\n3 3\n2 2 2\n1 2 2\n1 2 3\n1 2\n1 2\n2\n")
    out = tmp_path / "report.json"
    code, _, stderr = run(capsys, "search", "--alist", str(alist),
                          "--k", "5", "--max-cycle-len", "6", "--out", str(out))
    assert code == 3
    assert "line 5" in stderr and "parallel edge" in stderr
    assert "bad.alist" in stderr  # file context alongside the line number


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
    # parsing only: no command runs, so no worker process starts
    cap = os.cpu_count()
    parser = cli.build_parser()
    assert parser.parse_args(command + ["--threads", str(cap)]).threads == cap
    for bad in ("0", "-1", str(cap + 1), "two"):
        with pytest.raises(SystemExit) as err:
            parser.parse_args(command + ["--threads", bad])
        assert err.value.code == 2
        assert f"1..{cap}" in capsys.readouterr().err


def test_verify_d3_g8(capsys):
    code, stdout, _ = run(capsys, "verify", "--dl", "3", "--girth", "8",
                          "--max-a", "6")
    assert code == 0
    assert "0 diff(s)" in stdout


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
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
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
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "search", "--alist", str(alist),
                         "--k", "6", "--max-cycle-len", "10",
                         "--out", str(out), "--sets", "--threads", threads,
                         "--code-id", "fixed")
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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

    _, frontier = find_etss(ets54, k=5, max_len=6)
    expected = [
        f"{len(m)}\t{len(brute_gamma(ets54, m)[0])}\t{','.join(map(str, m))}"
        for m in frontier_sets(frontier)
    ]
    assert tsv.read_text().splitlines() == expected
    assert any(ln.startswith("5\t4\t") for ln in tsv.read_text().splitlines())
