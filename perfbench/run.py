#!/usr/bin/env python3
"""Seeded end-to-end benchmark of etskit's `search`, `gen` and `classify`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-wide --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and explained in the README next
to this file.  Each run starts the workload in processes of its own
(``workload.py``): a few that only set up, to time set-up, and one that
sets up and then runs whole rounds of the workload's commands for about
``--seconds`` seconds.  Every output is then checked here with the
independent checks of ``checks.py``.  Round times are given in reference
seconds, scaled by a calibration loop timed during the rounds
(``calibrate.py``); set-up times are wall times.  ``--trace 1`` runs
untraced and traced rounds in turn and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Result and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9  # set-up is timed in this many fresh processes; median reported
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run to its end."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in (str(root / "src"), env.get("PYTHONPATH")) if x
    )
    return env


def start_child(root: Path, work: Path, args, setup_only: bool):
    """Start workload.py; returns the process and its set-up time, from
    process start until it reports its inputs ready."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"workload process failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout: float = 10) -> None:
    """Wait for a child to end; kill it past the timeout."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process killed after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")


def successful_rounds(work: Path, summary: dict):
    """Directories of the rounds whose commands all succeeded."""
    return [
        work / f"round-{i}"
        for i, r in enumerate(summary["rounds"])
        if all(code == 0 for _, code, _ in r["commands"])
    ]


def check_outputs(root: Path, workload: str, seed: int, dirs: list[Path]) -> dict:
    """Check the first successful round fully and every later round for
    byte equality with it."""
    if not dirs:
        return {}
    first = dirs[0]
    if workload in inputs.SEARCH_WORKLOADS:
        p = inputs.SEARCH_WORKLOADS[workload]
        figures = {}
        for i, var_adj in enumerate(inputs.search_codes(workload, seed)):
            figures[f"code-{i}"] = checks.check_search(
                checks.Code(var_adj, p["m"]), p["k"], p["max_len"],
                (first / f"report-{i}.json").read_text(),
                (first / f"sets-{i}.tsv").read_text(),
            )
    else:
        sys.path.insert(0, str(root / "src"))
        from etskit import tables

        checks.require(tables.CHECKSUM == checks.TABLES_CHECKSUM,
                        f"tables.CHECKSUM is {tables.CHECKSUM}")
        try:
            tables.verify_checksum()
        except RuntimeError as exc:
            raise checks.CheckFailed(str(exc)) from exc
        figures = {}
        for cell in inputs.CATALOG_CELLS:
            d_l, g, a, b = cell
            name = inputs.cell_name(cell)
            row = tables.get_table(d_l, g).row(a, b)
            hists = checks.check_catalog(cell, (first / f"{name}.cat").read_text(), row)
            checks.check_catalog_stdout(
                cell,
                (first / f"{name}.gen.stdout").read_text(),
                (first / f"{name}.classify.stdout").read_text(),
                hists,
            )
            figures[name] = sum(hists["ts"].values())
    for other in dirs[1:]:
        for path in sorted(first.iterdir()):
            checks.require(
                (other / path.name).read_bytes() == path.read_bytes(),
                f"{other.name}/{path.name} differs from {first.name}",
            )
    return figures


def per_layer(summary: dict) -> dict:
    rounds = summary["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    out = {
        name: statistics.median([layer[name] for layer in summary["layers"]])
        for name in summary["layers"][0]
    }
    for kind in ("search", "gen", "classify"):
        out[f"cli.{kind}_s"] = statistics.median(
            [sum(s for k, _, s in r["commands"] if k == kind) for r in plain]
        )
    untraced_s = statistics.median([r["seconds"] for r in plain])
    overhead = statistics.median([r["seconds"] for r in traced]) - untraced_s
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / untraced_s
    out["kernel.compiled"] = 1 if summary["backend"] == "c" else 0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "etskit" / "__init__.py").is_file():
        print(f"error: no etskit sources under {root / 'src'}; run from the root "
              "of an etskit checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    proc = None
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                proc, ready = start_child(root, work / f"setup-{i}", args, True)
                finish(proc)
                setups.append(ready)
        proc, ready = start_child(root, work, args, False)
        setups.append(ready)
        finish(proc, CHILD_TIMEOUT_S)
        summary = json.loads((work / "summary.json").read_text())
        if not Path(summary["etskit_file"]).resolve().is_relative_to(root / "src"):
            raise BenchError(f"etskit imported from {summary['etskit_file']}")

        commands = [c for r in summary["rounds"] for c in r["commands"]]
        failed = [c for c in commands if c[1] != 0]
        correct = True
        figures = {}
        try:
            figures = check_outputs(root, args.workload, args.seed,
                                    successful_rounds(work, summary))
        except (checks.CheckFailed, ValueError, KeyError, OSError) as exc:
            # a malformed or missing output fails its check like a wrong one
            print(f"check failed: {exc!r}", file=sys.stderr)
            correct = False

        if args.trace:
            values = per_layer(summary)
        else:
            values = {
                "round_ref_s": statistics.median(
                    [r["ref_seconds"] for r in summary["rounds"]]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": summary["peak_rss_mb"],
            }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        result = {
            "correct": correct,
            "attempted": len(commands),
            "failed": len(failed),
            "metrics": metrics,
        }
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, backend=summary["backend"],
                      python=sys.version.split()[0], setups_s=setups,
                      rounds=summary["rounds"], checked=figures)
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (out_dir / f"result-{stem}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        if args.trace:
            (out_dir / f"trace-{stem}.json").write_text(
                json.dumps(dict(summary["trace"], layers=summary["layers"])) + "\n")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    rounds = summary["rounds"]
    print(f"workload={args.workload} seed={args.seed} backend={summary['backend']} "
          f"rounds={len(rounds)} attempted={len(commands)} failed={len(failed)} "
          f"correct={str(correct).lower()}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
