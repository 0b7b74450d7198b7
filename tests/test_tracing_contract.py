"""The benchmark tracer (``perfbench/tracing.py``) wraps etskit functions
by module attribute; installing it must find every attribute it names, and
uninstalling must put every original back."""

import importlib.util
from pathlib import Path

from etskit import cli, lss, search, structgen, tanner

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
