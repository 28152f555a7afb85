"""qborel benchmark: run one workload for a fixed time, check every output,
print the metrics.

    python3 perfbench/run.py --workload example_all --seed 1 --seconds 40 --trace 0

Run from the repository root.  Load model: closed loop, one client.  Each
iteration is a fresh child process (perfbench/child.py) that imports qborel
from ./src, loads the generated config and runs the workload's verbs through
`qborel.cli.run`; the next iteration starts when the previous one has ended.
BLAS threads are pinned to min(2, nproc).

--trace 0 reports the end-to-end metrics: setup_s (child start to the first
verb's dispatch, median over the iterations and the set-up-only probes),
wall_s (the verb sequence, median over iterations) and peak_rss_mb (median).
--trace 1 alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones (tracer.py), with the tracing overhead.

The last line of stdout is the result object; the line before it is the run
record (machine, versions, seed, per-iteration samples, error_rate).  Work
files go to .perfbench_run/ in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs, digest
from tracer import COUNT_METRICS, layer_metrics, load_trace, metric_units
from workloads import WORKLOADS, make_config, point_stats

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this
# example_all artifacts that depend on the seed: it is echoed in run_report.json
# and draws the contraction probes reported in solve_report.json
SEEDED_ARTIFACTS = {"run_report.json", "solve_report.json"}


def machine_record(root: Path, threads: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[level.lower()] = int(out) if out.isdigit() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpu_cache_bytes": caches,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/ and configs/, naming the code measured when there is no git."""
    h = hashlib.sha256()
    for base in ("src", "configs"):
        for p in sorted((root / base).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


class Runner:
    """Spawns the child processes of one benchmark run."""

    def __init__(self, root: Path, work: Path, config: Path, verbs, threads: int):
        self.root = root
        self.source = source_digest(root)
        self.work = work
        self.config = config
        self.verbs = ",".join(verbs)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.count = 0
        self.limit = time.monotonic() + RUN_LIMIT_S

    def spawn(self, verbs: str, trace: bool) -> dict:
        """Run one child to completion; its timings, exit code and output dir."""
        self.count += 1
        tag = f"iter{self.count}"
        out = self.work / tag
        result = self.work / f"{tag}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config),
               "--verbs", verbs, "--out", str(out), "--result", str(result),
               "--run-id", tag]
        if trace:
            cmd += ["--trace", str(self.work / f"{tag}.trace.jsonl")]
        with open(self.work / f"{tag}.log", "w") as log:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env,
                                      cwd=self.root, stdout=log, stderr=log,
                                      timeout=max(0.0, self.limit - t0))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        rec = {"tag": tag, "traced": trace, "exit": code, "out": out}
        if result.is_file():
            rec.update(json.loads(result.read_text()))
        return rec

    def setup_probe(self) -> float | None:
        rec = self.spawn("", trace=False)
        return rec.get("setup_s") if rec["exit"] == 0 else None

    def iteration(self, workload: str, cfg: dict, trace: bool) -> dict:
        rec = self.spawn(self.verbs, trace)
        failures = [] if rec["exit"] == 0 else [f"exit code {rec['exit']}"]
        if "wall_s" not in rec:
            failures.append("child wrote no result")
        else:
            failures += check_outputs(workload, cfg, rec["out"])
        if workload == "example_all" and rec["out"].is_dir():
            failures += self.check_identical(cfg["seed"], digest(rec["out"]))
        shutil.rmtree(rec["out"], ignore_errors=True)  # omega*.csv is 62 MB
        rec["out"] = str(rec["out"].relative_to(self.root))
        rec["failures"] = failures
        return rec

    def check_identical(self, seed: int, files: dict[str, str]) -> list[str]:
        """Artifacts must be byte-identical to every earlier example_all
        iteration of the same source in this checkout, in this run or an
        earlier one; files that carry the seed are compared only between
        iterations of the same seed."""
        store = self.root / ".perfbench_run" / "example_all-digests.json"
        seen = json.loads(store.read_text()) if store.is_file() else []
        failures = []
        for prev in seen:
            if prev["source"] != self.source:
                continue
            names = set(files) | set(prev["files"])
            if prev["seed"] != seed:
                names -= SEEDED_ARTIFACTS
            changed = sorted(n for n in names if files.get(n) != prev["files"].get(n))
            if changed:
                failures.append(f"artifacts differ from seed {prev['seed']}'s: {changed}")
                break
        if not any(p["source"] == self.source and p["seed"] == seed for p in seen):
            seen.append({"source": self.source, "seed": seed, "files": files})
            store.write_text(json.dumps(seen))
        return failures


def preflight(root: Path, workload: str) -> str | None:
    """Why this directory cannot run the benchmark, or None."""
    need = [root / "src" / "qborel" / "cli.py", root / WORKLOADS[workload].config]
    missing = [str(p.relative_to(root)) for p in need if not p.is_file()]
    return f"missing {', '.join(missing)}" if missing else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    problem = preflight(root, args.workload)
    if problem:
        print(f"perfbench: cannot run here: {problem}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_run" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(root, wl, args.seed)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1))
    threads = min(2, len(os.sched_getaffinity(0)))
    runner = Runner(root, work, config, wl.verbs, threads)

    # the first probe also compiles bytecode; it is not a sample
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES + 1)]
    if any(s is None for s in setups):
        print(f"perfbench: qborel does not import here; see {work}/iter1.log",
              file=sys.stderr)
        return 2
    setups = setups[1:]

    iters = []
    deadline = time.monotonic() + args.seconds
    while True:
        trace = bool(args.trace) and len(iters) % 2 == 1
        start = time.monotonic()
        rec = runner.iteration(wl.name, cfg, trace)
        rec["elapsed_s"] = time.monotonic() - start
        iters.append(rec)
        # stop before an iteration that would overrun the measuring window,
        # once both kinds a traced run needs are in
        took = statistics.median(r["elapsed_s"] for r in iters)
        kinds = {r["traced"] for r in iters}
        if len(kinds) == 1 + args.trace and time.monotonic() + took > deadline:
            break

    # timings come from iterations that passed every check; if none did, the
    # run is reported as incorrect with the timings of all of them
    timed = [r for r in iters if not r["failures"]] or [r for r in iters if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"perfbench: no iteration finished; see the logs in {work}",
              file=sys.stderr)
        return 3
    if args.trace:
        metrics, count_failures = traced_metrics(work, plain, traced)
        for r in traced:
            r["failures"] += count_failures
        units = metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in timed]),
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    failed = sum(1 for r in iters if r["failures"])
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine_record(root, threads),
        "source_sha256": runner.source,
        "setup_probes": setups, "wall_samples": len(plain),
        "error_rate": failed / len(iters),
        "iterations": iters,
    }
    if wl.name == "dense_points":
        stats = point_stats(cfg)
        stats["points_per_eps_t"] = stats["points"] / stats["distinct_eps_t"]
        record["points"] = stats
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for r in iters:
        for msg in r["failures"]:
            print(f"perfbench: {r['tag']}: {msg}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(iters), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(work: Path, plain, traced):
    """Per-layer metrics: times are medians over traced iterations, counts
    must repeat exactly across them."""
    per_iter = []
    for r in traced:
        spans, counts = load_trace(work / f"{r['tag']}.trace.jsonl")
        per_iter.append(layer_metrics(spans, counts))
    failures = []
    for name in COUNT_METRICS:
        if len({m[name] for m in per_iter}) > 1:
            failures.append(f"count {name} differs between traced iterations")
    metrics = {name: statistics.median(m[name] for m in per_iter) for name in per_iter[0]}
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median([r["wall_s"] for r in plain])
    return metrics, failures


if __name__ == "__main__":
    sys.exit(main())
