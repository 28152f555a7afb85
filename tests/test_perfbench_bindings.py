"""The benchmark tracer looks qborel's callables up by name, with no default,
so a rename in the package breaks `perfbench/run.py --trace 1`.  This test
reads the tracer's name tables and resolves every entry."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode cache in the benchmark's directory
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = []
    for table in (tracer.SPANNED, tracer.COUNTED):
        for mod, names in table.items():
            module = importlib.import_module(f"qborel.{mod}")
            missing += [f"{mod}.{n}" for n in names if not hasattr(module, n)]
    for (mod, cls), names in tracer.METHODS.items():
        owner = getattr(importlib.import_module(f"qborel.{mod}"), cls, None)
        missing += [f"{mod}.{cls}.{n}" for n in names if not hasattr(owner, n)]
    assert tracer.SPANNED and tracer.METHODS
    assert missing == []
