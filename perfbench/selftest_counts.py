"""Self-checks of the benchmark.  Not part of the tier-1 suite (the file name
keeps pytest from collecting it); run from the repository root with

    python3 -m pytest -q perfbench/selftest_counts.py

The count test runs two traced iterations per workload, about two minutes on
two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import Runner  # noqa: E402
from tracer import (COUNT_METRICS, Tracer, layer_metrics, load_trace,  # noqa: E402
                    metric_units, self_times)
from workloads import WORKLOADS, make_config  # noqa: E402


class Boom(Exception):
    pass


def test_spans_pass_values_and_exceptions_through(tmp_path):
    tr = Tracer("t")
    sentinel = object()
    err = Boom("x")

    def inner(a, b=0):
        return sentinel

    def failing():
        raise err

    wrapped_inner = tr.span("inner", inner)
    wrapped_fail = tr.span("fail", failing)

    def outer():
        assert wrapped_inner(1, b=2) is sentinel
        with pytest.raises(Boom) as info:
            wrapped_fail()
        assert info.value is err
        return 7

    assert tr.span("outer", outer)() == 7
    path = tmp_path / "t.jsonl"
    tr.dump(path)
    spans, counts = load_trace(path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["fail"]["error"] == "Boom"
    assert by_name["outer"]["error"] is None
    assert all(s["run"] == "t" for s in spans)
    own = self_times(spans)
    outer_s = by_name["outer"]["end"] - by_name["outer"]["start"]
    children = sum(s["end"] - s["start"] for s in spans
                   if s["parent"] == by_name["outer"]["id"])
    assert own[by_name["outer"]["id"]] == pytest.approx(outer_s - children)


def test_self_time_subtracts_direct_children_only():
    spans = [{"id": i, "name": name, "parent": parent, "start": start, "end": end}
             for i, (name, parent, start, end) in enumerate([
                 ("a", None, 0.0, 10.0), ("b", 0, 1.0, 5.0), ("c", 1, 2.0, 3.0),
                 ("b", 0, 6.0, 7.0)])]
    assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_benchmark_refuses_a_directory_without_the_program():
    bare = ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "example_all", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(bare)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    work = ROOT / ".perfbench_run" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(ROOT, WORKLOADS[workload], 11)
    config = work / "config.json"
    config.write_text(json.dumps(cfg))
    runner = Runner(ROOT, work, config, WORKLOADS[workload].verbs,
                    min(2, len(os.sched_getaffinity(0))))
    counts = []
    for _ in range(2):
        rec = runner.iteration(workload, cfg, True)
        assert rec["failures"] == []
        metrics = layer_metrics(*load_trace(work / f"{rec['tag']}.trace.jsonl"))
        counts.append({name: metrics[name] for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    shutil.rmtree(work)


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metric_units()
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
