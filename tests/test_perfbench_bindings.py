"""The benchmark tracer looks qborel's callables up by name, with no default,
so a rename in the package breaks `perfbench/run.py --trace 1`.  These tests
read the tracer's name tables and every module's `__all__`, and resolve
every entry."""

import importlib
from pathlib import Path

from tests.conftest import perfbench_module


def test_every_traced_name_resolves():
    tracer = perfbench_module("tracer")
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


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from qborel.<module> import *`
    package = importlib.import_module("qborel")
    root = Path(package.__file__).parent
    checked = 0
    for path in sorted(root.glob("*.py")):
        module = importlib.import_module(f"qborel.{path.stem}")
        names = getattr(module, "__all__", [])
        assert [n for n in names if not hasattr(module, n)] == [], path.stem
        exec(f"from qborel.{path.stem} import *", {})
        checked += len(names)
    assert checked > 0


def test_traced_attributes_read_every_verb_call(tmp_path, monkeypatch):
    """The tracer reads len(rows) and the file size off each `write_csv`
    call, so every verb must hand it a sized row sequence."""
    from qborel import cli
    from tests.test_cli import small_config

    tracer = perfbench_module("tracer")
    write_csv = cli.write_csv
    seen = []

    def traced(*args, **kwargs):
        result = write_csv(*args, **kwargs)
        seen.append(tracer._attrs("cli.write_csv", args, kwargs, result))
        return result

    monkeypatch.setattr(cli, "write_csv", traced)
    assert cli.run("all", small_config(tmp_path), str(tmp_path / "out")) == 0
    assert seen and all(a["rows"] >= 1 and a["bytes"] > 0 for a in seen)
