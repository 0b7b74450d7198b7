"""The benchmark tracer (``perfbench/tracing.py``) wraps etskit functions
by module attribute; installing it must find every attribute it names,
uninstalling must put every original back, and the counts it takes from a
search must be the search's own."""

import importlib.util
from pathlib import Path

from etskit import cli, lss, search, structgen, tanner
from helpers import random_tanner

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (cli, lss, search, structgen, tanner)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return {m.__name__: dict(vars(m)) for m in MODULES}


def test_install_then_uninstall_restores_every_attribute():
    tracing = _load_tracing()
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        during = _snapshot()
    finally:
        tracer.uninstall()
    after = _snapshot()

    patched = {
        (module, name)
        for module, attrs in before.items()
        for name, value in attrs.items()
        if during[module][name] is not value
    }
    # the labelling layers the catalog workload reports on
    for name in ("from_normal", "CycleCensus", "classify", "expand_to_k"):
        assert ("etskit.lss", name) in patched
    for module, attrs in before.items():
        assert after[module].keys() == attrs.keys(), module
        for name, value in attrs.items():
            assert after[module][name] is value, (module, name)


def test_tracer_counts_match_one_search():
    tracing = _load_tracing()
    g = random_tanner(30, 3, 30, seed=1, girth_exactly=6)
    k, max_len = 5, 12  # the 6-node sets of the 12-cycles are not seeds
    cycles = lss.enumerate_tanner_cycles(g, max_len)
    cycle_sets = [s for sets in cycles.values() for s in sets if len(s) <= k]
    kept = sum((r := tanner.classify(g, s)).elementary and r.in_t for s in cycle_sets)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        frontier = search.find_etss(g, k=k, max_len=max_len).frontier
    finally:
        tracer.uninstall()
    assert len(cycle_sets) < sum(map(len, cycles.values()))
    # seeds are decided by ``search.cycle_seeds`` without ``classify``, so
    # the patched ``search.classify`` sees no call and counts no seed
    assert tracer.calls("tanner.classify") == 0
    assert tracer.counts["search.seeds_kept"] == 0 < kept
    assert tracer.calls("lss.expand_to_k") == 1
    assert tracer.counts["lss.sets_found"] == len(frontier) > kept
