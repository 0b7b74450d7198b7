#!/usr/bin/env bash
# Runs each benchmark workload for one second, untraced and traced, and fails
# when an output check fails.  Run it from the checkout root with etskit on
# PYTHONPATH: bash .github/benchmark-checks.sh
#
# run.py exits 0 even when a check fails; its last line says whether one did.
# The traced run fails when an attribute the tracer patches is gone.
set -eo pipefail
for w in search-wide search-deep catalog; do
  for t in 0 1; do
    python perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace "$t" | tail -n 1 |
      python -c 'import json, sys; r = json.load(sys.stdin); assert r["correct"] is True and r["failed"] == 0, r'
  done
done
