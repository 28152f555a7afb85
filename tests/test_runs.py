"""Run-level checks: whole runs of the shipped configs against the output
checks that every benchmark iteration applies, at the test process's BLAS
thread count (two in CI) and at one, and the exit-code contract of the
`qborel` command as a process."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import qborel
from qborel.borel_solver import TAYLOR_MAX_ORDER
from qborel.cli import run
from tests.conftest import CONFIG_DIR, ROOT, perfbench_module

checks = perfbench_module("checks")
workloads = perfbench_module("workloads")

EXAMPLE = CONFIG_DIR / "example_k13.json"
WIDE = CONFIG_DIR / "asymptotics_k13.json"


def _config(path: Path) -> dict:
    return json.loads(path.read_text())


def _written(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def _qborel(*args, **env) -> subprocess.Popen:
    """Start the installed `qborel` command, or the package's module where
    none is installed, with the variables env sets."""
    command = shutil.which("qborel")
    command = [command] if command else [sys.executable, "-m", "qborel.cli"]
    env = {**os.environ, "PYTHONPATH": str(Path(qborel.__file__).parents[1]), **env}
    return subprocess.Popen(command + [str(a) for a in args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_example_all_passes_the_benchmark_checks(example_all):
    assert checks.check_example_all(_config(EXAMPLE), example_all) == []
    solve, geometry = (json.loads((example_all / name).read_text())
                       for name in ("solve_report.json", "geometry_report.json"))
    assert solve["smallness_ok"] is geometry["smallness"]["pass"]


def test_wide_asymptotics_passes_the_benchmark_checks(wide_asymptotics):
    out = wide_asymptotics[0]
    assert checks.check_wide_asymptotics(_config(WIDE), out) == []
    solves = json.loads((out / "fits.json").read_text())["solves"]
    assert solves["arc_terms_max"] < TAYLOR_MAX_ORDER
    # a residual that counted the rows held at the Taylor sum would read 1e-10
    assert solves["worst_relative_residual"] <= 1e-12


def test_wide_asymptotics_gives_the_same_bytes_whatever_the_ignored_keys(tmp_path,
                                                                        wide_asymptotics):
    # a second run, with every ignored key set, writes the bytes of the first
    # and lists the six keys it did not read
    cfg = _config(WIDE)
    cfg["grid"].update(n_angles=8, T_min=0.02)
    cfg["tolerances"].update(solve_tol=1e-3, formal_tol=1e-3, max_iter=1)
    cfg["seed"] = -1
    out = tmp_path / "out"
    assert run("asymptotics", _written(tmp_path / "ignored.json", cfg), str(out)) == 0
    for name in ("decay.csv", "remainders.csv", "fits.json"):
        assert (out / name).read_bytes() == (wide_asymptotics[0] / name).read_bytes(), name
    ignored = json.loads((out / "run_report.json").read_text())["ignored_keys"]
    assert {"grid.n_angles", "grid.T_min", "tolerances.solve_tol", "tolerances.formal_tol",
            "tolerances.max_iter", "seed"} <= set(ignored)


def test_wide_asymptotics_with_an_eps_dependent_b11(tmp_path):
    # b11 = (1 + 0.5 eps) times its m part: no one order block serves every
    # eps, so each Taylor order of the family is a Picard run
    cfg = _config(WIDE)
    cfg["problem"]["coeffs"]["b11"]["eps_poly"] = [1.0, 0.5]
    out = tmp_path / "out"
    assert run("asymptotics", _written(tmp_path / "b11.json", cfg), str(out)) == 0
    assert json.loads((out / "fits.json").read_text())["decay"]["relative_deviation"] <= 0.10


def test_dense_points_pass_the_benchmark_checks(tmp_path):
    # the config that a benchmark iteration of seed 1 runs: 360 points on 18 values of t
    cfg = workloads.make_config(ROOT, workloads.WORKLOADS["dense_points"], 1)
    path = _written(tmp_path / "dense.json", cfg)
    for verb in ("evaluate", "residual"):
        assert run(verb, path, str(tmp_path / "out")) == 0, verb
    assert checks.check_dense_points(cfg, tmp_path / "out") == []


def test_runs_at_one_blas_thread_pass_the_benchmark_checks(tmp_path):
    # one BLAS thread sums the kernel products in another order than two,
    # and numpy fixes the thread count when it loads: one process per run
    runs = [("all", EXAMPLE, checks.check_example_all),
            ("asymptotics", WIDE, checks.check_wide_asymptotics)]
    procs = [_qborel(verb, config, "--output-dir", tmp_path / verb, OPENBLAS_NUM_THREADS="1")
             for verb, config, _ in runs]
    for (verb, config, check), proc in zip(runs, procs):
        err = proc.communicate(timeout=300)[1]
        assert proc.returncode == 0, err
        assert check(_config(config), tmp_path / verb) == []


def test_the_qborel_command_keeps_the_exit_code_contract(tmp_path):
    k12 = _config(EXAMPLE)
    k12["problem"]["k"] = 12
    k12["problem"]["terms"][0]["delta"] = [1, 12]
    # eps t = 6e-4, above the grid's T_max = 4e-4
    high = dict(_config(EXAMPLE), points=[[0.04, 0.0, 0.1, 0.0]])
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + EXAMPLE.read_text().encode("utf-16-le"))
    (tmp_path / "file").write_text("")

    def out(name):
        return ["--output-dir", tmp_path / name]

    cases = [
        (0, ["check-geometry", EXAMPLE, *out("0")]),
        (0, ["--help"]),
        (2, ["check-geometry", _written(tmp_path / "k12.json", k12), *out("2")]),
        (3, ["evaluate", _written(tmp_path / "high.json", high), *out("3")]),
        (64, ["frobnicate", EXAMPLE]),
        (65, ["solve", utf16, *out("65")]),
        # an output directory that is a file, last
        (64, ["check-geometry", EXAMPLE, *out("file")]),
    ]
    procs = [_qborel(*args) for _, args in cases]
    for (code, args), proc in zip(cases, procs):
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == code and "Traceback" not in err, (args, err)
    assert err.count("\n") == 1 and str(tmp_path / "file") in err
