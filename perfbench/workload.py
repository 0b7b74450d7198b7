"""One benchmark process: set up a workload's inputs, then run rounds of
its `etskit` commands in-process through ``etskit.cli.main``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``ready`` on standard output once the inputs are
written, which ends the set-up time ``run.py`` measures, and writes
``summary.json`` into its work directory at the end.  The output files of every round stay in the work
directory for ``run.py`` to check.

An untraced run samples the calibration loop during its rounds, to give
each round in reference seconds.  In a traced run, rounds alternate
untraced and traced, so that the tracing overhead is the difference of
the two within one process; it takes no samples.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import calibrate
import inputs
import tracing


def setup(workload: str, seed: int, work: Path):
    """Import etskit, write the inputs and return one round's commands as
    ``(kind, argv, stdout file stem)`` triples; ``{round}`` in an argument
    stands for the round's directory."""
    import etskit.cli  # noqa: F401  (the import is part of set-up)
    from etskit import tables

    tables.verify_checksum()
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    if workload in inputs.SEARCH_WORKLOADS:
        p = inputs.SEARCH_WORKLOADS[workload]
        commands = []
        for i, var_adj in enumerate(inputs.search_codes(workload, seed)):
            alist = work / "inputs" / f"code-{i}.alist"
            alist.write_text(inputs.alist_text(var_adj, p["m"]))
            argv = ["search", "--alist", str(alist), "--k", str(p["k"]),
                    "--max-cycle-len", str(p["max_len"]),
                    "--out", f"{{round}}/report-{i}.json",
                    "--sets-out", f"{{round}}/sets-{i}.tsv",
                    "--code-id", f"{workload}-{i}", "--threads", "1"]
            commands.append(("search", argv, f"search-{i}"))
        return commands
    commands = []
    for d_l, g, a, b in inputs.catalog_cells(seed):
        name = inputs.cell_name((d_l, g, a, b))
        cat = "{round}/" + name + ".cat"
        commands.append(("gen", ["gen", "--dl", str(d_l), "--girth", str(g),
                                 "--a", str(a), "--b", str(b), "--out", cat,
                                 "--no-lss", "--threads", "1"], name + ".gen"))
        commands.append(("classify", ["classify", "--catalog", cat,
                                      "--threads", "1"], name + ".classify"))
    return commands


def run_round(cli, commands, round_dir: Path):
    """Run the commands once; returns the round's start and end times, its
    CPU seconds and per-command ``[kind, exit code, wall seconds]``."""
    round_dir.mkdir(parents=True)
    results = []
    printed = []
    start = time.perf_counter()
    cpu = time.process_time()
    for kind, argv, _ in commands:
        argv = [x.replace("{round}", str(round_dir)) for x in argv]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(argv)
        results.append([kind, code, time.perf_counter() - t0])
        printed.append(buf.getvalue())
    end = time.perf_counter()
    cpu = time.process_time() - cpu
    for (_, _, stem), text in zip(commands, printed):
        (round_dir / (stem + ".stdout")).write_text(text)
    return start, end, cpu, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="work directory")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)

    commands = setup(args.workload, args.seed, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import etskit
    from etskit import cli

    rounds = []
    layers = []
    tracer = None
    sampler = None if args.trace else calibrate.Sampler()
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        try:
            t0, t1, cpu, results = run_round(cli, commands, work / f"round-{len(rounds)}")
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracing.layer_metrics(tracer))
        record = {"traced": traced, "seconds": t1 - t0, "cpu_seconds": cpu,
                  "commands": results}
        if sampler is not None:
            ref, wall, samples = sampler.measure(t0, t1)
            record.update(ref_seconds=ref, work_seconds=wall, samples=samples)
        rounds.append(record)
        # whole rounds (whole untraced/traced pairs when tracing) until the
        # next one would end after the run's measuring time
        if args.trace and len(rounds) % 2 == 1:
            continue
        elapsed = time.perf_counter() - start
        longest = max(r["seconds"] for r in rounds) * (2 if args.trace else 1)
        if elapsed + longest > args.seconds:
            break
    if sampler is not None:
        sampler.stop()

    summary = {
        "backend": etskit.kernel_backend(),
        "etskit_file": etskit.__file__,
        "rounds": rounds,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        summary["trace"] = {
            "stats": tracer.stats,
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }
    (work / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
