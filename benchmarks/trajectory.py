#!/usr/bin/env python3
"""Run the benchmark on both kernels and write ``BENCH_<workload>.json``.

For each workload, kernel and seed, runs ``perfbench/run.py`` twice, with
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer ones, and stores each metric's median, range and per-seed
values.  The pure kernel runs from this checkout with ``ETSKIT_PURE=1``;
the compiled kernel runs from a temporary copy of the sources built with
``python setup.py build_ext --inplace``.  Each run's full record must name
the kernel it was meant to measure, or nothing is written.  Run from
anywhere:

    python benchmarks/trajectory.py                      # every workload, seeds 1-3
    python benchmarks/trajectory.py --workload catalog --seeds 1 --seconds 1 --out /tmp
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench", "setup.py", "pyproject.toml", "README.md", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", "*.so", "out", "build")


def run_bench(root: Path, env: dict, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``; returns its full record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode} in {root}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((root / "perfbench" / "out" / f"result-{stem}.json").read_text())


def summarise(records: list) -> dict:
    """Median, range and per-seed values of every metric of the records."""
    out = {}
    for name, metric in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        out[name] = {"unit": metric["unit"], "median": statistics.median(values),
                     "min": min(values), "max": max(values), "values": values}
    return out


def measure(root: Path, env: dict, backend: str, workloads, seeds, seconds) -> dict:
    """Per workload: one kernel's result over the seeds, untraced and traced."""
    results = {}
    for workload in workloads:
        runs = {0: [], 1: []}
        for seed in seeds:
            for trace in runs:
                record = run_bench(root, env, workload, seed, seconds, trace)
                if record["backend"] != backend:
                    raise SystemExit(f"{workload} seed {seed} ran the {record['backend']} "
                                     f"kernel, not {backend}")
                runs[trace].append(record)
                print(f"{backend:>4} {workload} seed={seed} trace={trace} "
                      f"correct={record['correct']}", file=sys.stderr)
        every = runs[0] + runs[1]
        results[workload] = {
            "backend": backend,
            "python": every[0]["python"],
            "correct": all(r["correct"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "end_to_end": summarise(runs[0]),
            "per_layer": summarise(runs[1]),
        }
    return results


def git_commit() -> tuple:
    """The checkout's commit, and whether the measured files differ from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", *COPIED], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, bool(status.strip())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the BENCH_<workload>.json files")
    args = ap.parse_args(argv)
    workloads = args.workload or names

    pure_env = dict(os.environ, ETSKIT_PURE="1")
    results = {"pure": measure(ROOT, pure_env, "pure", workloads, args.seeds, args.seconds)}
    c_env = {k: v for k, v in os.environ.items() if k != "ETSKIT_PURE"}
    with tempfile.TemporaryDirectory(prefix="etskit-bench-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(src, copy / name)
        subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                       cwd=copy, env=c_env, check=True, stdout=subprocess.DEVNULL)
        results["c"] = measure(copy, c_env, "c", workloads, args.seeds, args.seconds)

    commit, dirty = git_commit()
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        doc = {
            "workload": workload,
            "commit": commit,
            "uncommitted_changes": dirty,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "results": [results[kernel][workload] for kernel in ("pure", "c")],
        }
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
