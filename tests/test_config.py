"""The config schema table against README's table, its ignored keys in
run_report.json, and a fuzz of config JSON drawn from the table."""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qborel.cli import run
from qborel.config import SCHEMA, as_complex, as_points
from qborel.errors import ConfigError
from test_cli import small_config

README = Path(__file__).resolve().parents[1] / "README.md"
TOP_LEVEL = "(top level)"


def _readme_rows() -> dict:
    """(section, key) -> (kind, status) of each row of README's config table."""
    lines = README.read_text().splitlines()
    start = lines.index("| section | key | kind | bounds | default | read for, or why ignored |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line.strip("|"))
        section, key, kind, _, _, status = (c.strip() for c in cells)
        assert key.startswith("`") and key.endswith("`"), line
        rows[("" if section == TOP_LEVEL else section, key.strip("`"))] = (kind, status)
    return rows


def test_readme_config_table_is_the_schema():
    rows = _readme_rows()
    # every schema key in its section's row, and no row the schema lacks
    assert sorted(rows) == sorted((key.section, key.name) for key in SCHEMA)
    for key in SCHEMA:
        kind, status = rows[(key.section, key.name)]
        assert kind == key.kind, key
        assert status.startswith("ignored:") == bool(key.ignored), key


def test_unknown_and_ignored_keys_are_listed_and_exit_0(tmp_path):
    path = small_config(tmp_path, m_nodez=11, tolerances=5)
    cfg = json.loads(path.read_text())
    cfg["quadrature"]["m_nodez"] = 11
    cfg["grid"]["n_angles"] = 8
    cfg["problem"]["forcing"]["Cf"] = 2.0
    path.write_text(json.dumps(cfg))
    assert run("check-geometry", path, str(tmp_path / "out")) == 0
    report = json.loads((tmp_path / "out" / "run_report.json").read_text())
    assert report["ignored_keys"] == ["grid.n_angles", "m_nodez", "problem.forcing.Cf",
                                      "quadrature.m_nodez", "tolerances"]


def test_unread_symbol_and_term_fields_are_listed(tmp_path):
    shipped = json.loads((README.parent / "configs" / "example_k13.json").read_text())
    # a misspelled gauss: b11 loses its Gaussian decay, which check-geometry
    # finds, and the run names the field it did not read
    cfg = copy.deepcopy(shipped)
    cfg["problem"]["coeffs"]["b11"] = {"gaus": 1.0, "num": [0.0006]}
    path = tmp_path / "gaus.json"
    path.write_text(json.dumps(cfg))
    assert run("check-geometry", path, str(tmp_path / "gaus")) == 2
    report = json.loads((tmp_path / "gaus" / "run_report.json").read_text())
    assert "problem.coeffs.b11.gaus" in report["ignored_keys"]
    # fields no parser reads change nothing: exit 0, each listed by its path
    cfg = copy.deepcopy(shipped)
    problem = cfg["problem"]
    problem["terms"][0]["note"] = "x"
    problem["terms"][0]["C"]["gaus"] = 2.0
    problem["forcing"]["f0"]["1"]["nmu"] = [1.0]
    # a tabulated symbol reads no num
    problem["coeffs"]["b00"] = {"m": [-1.0, 1.0], "values": [0.0, 0.0], "num": [1.0]}
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(cfg))
    assert run("check-geometry", path, str(tmp_path / "fields")) == 0
    report = json.loads((tmp_path / "fields" / "run_report.json").read_text())
    assert report["ignored_keys"] == [
        "problem.coeffs.b00.num", "problem.forcing.f0[1].nmu", "problem.terms[0].C.gaus",
        "problem.terms[0].note", "tolerances.formal_tol", "tolerances.max_iter",
        "tolerances.solve_tol"]


def test_points_read_as_one_array_match_the_per_value_readers():
    rows = [[0.01, -0.0, 1, -2.5], [3, 0.0, -0.0, 1e-300], [0.02, 0.0, 0.25, 0.5]]
    slow = [(as_complex(p[:2], "points"), as_complex(p[2:], "points")) for p in rows]
    fast = as_points(rows, "points")
    assert all(type(v) is complex for point in fast for v in point)
    assert np.array(fast).tobytes() == np.array(slow).tobytes()      # signed zeros too
    for bad, shown in ((True, "True"), ("0.1", "'0.1'"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(ConfigError, match=re.escape(f"points must be finite and real, "
                                                        f"got {shown}")):
            as_points(rows + [[0.01, 0.0, bad, 0.0]], "points")


def _bound_values(key) -> list:
    """Values just outside a key's bounds, and the closed bound itself."""
    values = []
    if key.gt is not None:
        values.append(key.gt)
    if key.ge is not None:
        values += [key.ge - 1, key.ge]
    if key.lt is not None:
        values.append(key.lt)
    if key.kind == "int":
        return [int(v) for v in values]
    if key.kind == "range":
        return [[v, 1.0, 3] for v in values]
    return values


BAD_BY_KIND = {
    "int": [1.5, math.nan, "3"],
    "real": [math.nan, math.inf, "2"],
    "complex": [[math.nan, 0.0], [1.0], "0.01"],
    "range": [[1.0, 2.0], [0.1, 0.2, 1], [math.nan, 1.0, 3], [-1.0, 1.0, 3]],
    "points": [[[0.1]], [[math.nan, 0.0, 0.1, 0.0]], [[0.1, 0.0, 0.1, 0.0, 1.0]]],
    "path": [5, "missing.csv"],
    "poly": [[], [0.0, 0.0], [[1.0, 2.0, 3.0]]],
    "terms": [[{}], [[1]], [{"d": 2, "Delta": 3, "delta": [1, 0], "R": [1.0]}]],
    "symbols": [{"0": {"num": [math.nan]}}, {"x": None}, {"0": 5}],
    "symbol": [{"num": [math.nan]}, {"m": [0.0], "values": [1.0]}, 5, {"num": "x"}],
}
ABSENT = object()


def _candidates(key) -> list:
    """What the fuzz sets a key to: absent, null, a bool, a mapping, the
    values its kind refuses and those at and beyond its bounds."""
    common = [ABSENT, None, True, {"a": 1}]
    if key.ignored:
        return common + ["anything"]
    return common + BAD_BY_KIND[key.kind] + _bound_values(key)


def _set(cfg: dict, key, value) -> None:
    mapping = cfg
    for part in filter(None, key.section.split(".")):
        mapping = mapping.setdefault(part, {})
    if value is ABSENT:
        mapping.pop(key.name, None)
    else:
        mapping[key.name] = value


EDITS = st.lists(st.sampled_from(SCHEMA).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_candidates(key)))),
    min_size=1, max_size=3)
with tempfile.TemporaryDirectory() as _tmp:
    BASE = json.loads(small_config(Path(_tmp)).read_text())


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(edits=EDITS, typo=st.booleans())
def test_fuzzed_config_exits_with_a_contract_code(edits, typo):
    cfg = copy.deepcopy(BASE)
    for key, value in edits:
        _set(cfg, key, value)
    if typo:
        cfg["densty_factor"] = 4.0
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err):
            code = run("check-geometry", path, str(Path(tmp) / "out"))
    assert code in (0, 2, 3, 64, 65), (code, edits)
    assert "Traceback" not in err.getvalue()
