"""Command-line surface.

Subcommands: ``gen`` (catalog one class), ``classify`` (fill LSS labels of
a catalog file), ``search`` (find trapping sets of a concrete code from
its short cycles), ``verify`` (regenerate catalogs and diff against the
shipped reference tables).

Commands raise and ``main`` reports: each error a command raises is one
``error: ...`` line on stderr, and an input error names the command's alist
or catalog file.
Exit codes: 0 success, 1 mismatch/diff, 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from etskit import tables
from etskit.errors import EtsError, is_decimal
from etskit.lss import label_catalog
from etskit.search import find_etss, format_report_table
from etskit.structgen import (
    ClassSpec,
    generate_structures,
    read_catalog,
    write_catalog,
    write_text_atomic,
)
from etskit.tanner import parse_alist

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

EXTENDED_THRESHOLD = 1000


def _hist_str(hist: dict) -> str:
    inner = ", ".join(f"{k}:{v}" for k, v in hist.items())
    return "{" + inner + "}"


def _integer(text: str) -> int:
    if not is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"must be an ASCII decimal integer, got {text!r}")
    return int(text)


def _class_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dl", type=_integer, required=True, help="variable-node degree (3..6)")
    p.add_argument("--girth", type=_integer, required=True, help="Tanner girth (6 or 8)")


def _thread_count(text: str) -> int:
    cap = os.cpu_count() or 1
    if not is_decimal(text) or not 1 <= int(text) <= cap:
        raise argparse.ArgumentTypeError(
            f"must be an integer in 1..{cap} (the CPU count), got {text!r}"
        )
    return int(text)


def _threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=_thread_count, default=1, metavar="N",
        help="N in 1..CPU count; accepted for compatibility, every command "
        "runs in one process",
    )


def cmd_gen(args) -> int:
    spec = ClassSpec(d_l=args.dl, g=args.girth, a=args.a, b=args.b)
    table = tables.get_table(spec.d_l, spec.g)
    if table and table.in_scope(spec.a, spec.b):
        expected = table.expected_total(spec.a, spec.b)
        if expected > EXTENDED_THRESHOLD and not args.extended:
            raise ValueError(
                f"class ({spec.a},{spec.b}) has {expected} structures; rerun with --extended"
            )
    catalog = generate_structures(spec)
    if not args.no_lss:
        catalog = label_catalog(catalog)
    write_catalog(catalog, args.out)
    if len(catalog) == 0:
        print("total=0 (class infeasible or empty)")
    else:
        print(
            f"total={len(catalog)} absorbing={catalog.absorbing_count} "
            f"lss={_hist_str(catalog.label_histogram())}"
        )
    return EXIT_OK


def cmd_classify(args) -> int:
    catalog = read_catalog(args.catalog)
    if any(e.lss is not None for e in catalog.entries) and not args.force:
        raise ValueError("catalog already carries labels; use --force to relabel")
    labeled = label_catalog(catalog)
    write_catalog(labeled, args.catalog)
    print(_hist_str(labeled.label_histogram()))
    return EXIT_OK


def cmd_search(args) -> int:
    graph = parse_alist(Path(args.alist).read_bytes())
    report = find_etss(
        graph,
        k=args.k,
        max_len=args.max_cycle_len,
        code_id=args.code_id or Path(args.alist).stem,
    )
    text = report.to_json(args.sets)
    write_text_atomic(args.out, text)
    if args.sets_out:
        lines = report.export_lines()
        write_text_atomic(args.sets_out, "\n".join(lines) + ("\n" if lines else ""))
    if args.json:
        sys.stdout.write(text)
    else:
        sys.stdout.write(format_report_table(report))
    return EXIT_OK


def cmd_verify(args) -> int:
    table = tables.get_table(args.dl, args.girth)
    if table is None:
        raise ValueError(f"no reference table for d_l={args.dl}, g={args.girth}")
    lo, hi = table.a_range
    if args.max_a < lo:
        raise ValueError(
            f"--max-a {args.max_a} is below the d_l={args.dl} g={args.girth} "
            f"table's a range {lo}..{hi}; nothing would be checked"
        )
    tables.verify_checksum()
    diffs = 0
    skipped = []
    for a in range(lo, min(args.max_a, hi) + 1):
        for b in range(table.b_range[0], table.b_range[1] + 1):
            expected = table.expected_total(a, b)
            if expected > EXTENDED_THRESHOLD and not args.extended:
                skipped.append((a, b))
                continue
            row = table.rows.get((a, b))
            want_ts = dict(row["ts"]) if row else {}
            want_as = dict(row["as"]) if row else {}
            catalog = label_catalog(
                generate_structures(ClassSpec(d_l=args.dl, g=args.girth, a=a, b=b))
            )
            got_ts = catalog.label_histogram()
            got_as = catalog.label_histogram(absorbing_only=True)
            if got_ts == want_ts and got_as == want_as:
                status = "ok"
            else:
                status = (
                    f"DIFF ts={_hist_str(got_ts)} want {_hist_str(want_ts)} "
                    f"as={_hist_str(got_as)} want {_hist_str(want_as)}"
                )
                diffs += 1
            print(f"({a},{b}): {status}")
    for a, b in skipped:
        print(f"({a},{b}): skipped (needs --extended)")
    print(f"verify d_l={args.dl} g={args.girth}: {diffs} diff(s)")
    return EXIT_DIFF if diffs else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etskit",
        description="Trapping-set structure catalogs and cycle-based search "
        "for variable-regular LDPC codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the catalog of one (a,b) class")
    _class_args(p)
    p.add_argument("--a", type=_integer, required=True, help="trapping-set size")
    p.add_argument("--b", type=_integer, required=True, help="unsatisfied-check count")
    p.add_argument("--out", required=True, help="catalog file to write")
    p.add_argument("--extended", action="store_true",
                   help="allow classes with more than 1000 structures")
    p.add_argument("--no-lss", action="store_true",
                   help="skip LSS labeling (writes '?' labels)")
    _threads_arg(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("classify", help="fill LSS labels of a catalog file")
    p.add_argument("--catalog", required=True)
    p.add_argument("--force", action="store_true", help="relabel labeled catalogs")
    _threads_arg(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", help="search a concrete code for trapping sets")
    p.add_argument("--alist", required=True, help="parity-check matrix in alist form")
    p.add_argument("--k", type=_integer, required=True, help="largest set size to search")
    p.add_argument("--max-cycle-len", type=_integer, required=True, dest="max_cycle_len",
                   help="longest cycle length used as seeds")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--sets", action="store_true", help="include the sets in the report")
    p.add_argument("--sets-out", help="also write the frontier as TSV lines")
    p.add_argument("--code-id", help="code identifier for the report")
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    _threads_arg(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="diff regenerated catalogs against shipped tables")
    _class_args(p)
    p.add_argument("--max-a", type=_integer, default=9, dest="max_a")
    p.add_argument("--extended", action="store_true",
                   help="include classes with more than 1000 structures")
    _threads_arg(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EtsError as exc:
        path = getattr(args, "alist", None) or getattr(args, "catalog", None)
        print(f"error: {path}: {exc}" if path else f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
