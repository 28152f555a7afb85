import cmath
import json
import math
from pathlib import Path

import numpy as np

import pytest

from qborel.borel_solver import SolveReport, TaylorRecursion
from qborel.errors import ConfigError
from qborel.cli import (COMMANDS, _relative_residual, cmd_solve, load_config, main, run,
                        write_csv)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = CONFIG_DIR / "example_k13.json"


def small_config(tmp_path, **overrides):
    """Reduced copy of the bundled config for fast CLI exercises."""
    cfg = json.loads(GOLDEN.read_text())
    cfg["quadrature"]["m_nodes"] = 81
    cfg["grid"].update({"T_min": 4e-6})
    cfg["geometry_m_grid"] = [-50.0, 50.0, 401]
    cfg["asymptotics"] = {"N_max": 2, "eps_gevrey": [0.008, 0.018, 3],
                          "eps_decay": [0.006, 0.015, 4], "pair": 0}
    for key, val in overrides.items():
        cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_command_is_usage_error(tmp_path):
    path = small_config(tmp_path)
    assert run("frobnicate", path) == 64


def test_unparsable_config_is_65(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", bad) == 65
    missing = tmp_path / "missing.json"
    missing.write_text('{"problem": {"D": 2}}')
    assert run("solve", missing) == 65


def _with(path, edit):
    cfg = json.loads(path.read_text())
    edit(cfg)
    path.write_text(json.dumps(cfg))
    return path


def test_even_m_nodes_is_65(tmp_path):
    path = _with(small_config(tmp_path), lambda c: c["quadrature"].update(m_nodes=80))
    assert run("evaluate", path, str(tmp_path / "out")) == 65


@pytest.mark.parametrize("point", [[0.012], [], [0.012, 0.0, 0.1], 0.012,
                                   [[0.012], 0.1], [[0.012, 0.0, 1.0], 0.1]])
def test_short_point_is_65(tmp_path, point):
    path = small_config(tmp_path, points=[[0.012, 0.0, 0.1, 0.0], point])
    assert run("evaluate", path, str(tmp_path / "out")) == 65


def test_zero_delta_denominator_is_65(tmp_path):
    path = _with(small_config(tmp_path),
                 lambda c: c["problem"]["terms"][0].update(delta=[1, 0]))
    assert run("check-geometry", path, str(tmp_path / "out")) == 65


@pytest.mark.parametrize("verb", COMMANDS)
def test_zero_polynomial_is_65_for_every_verb(tmp_path, capsys, verb):
    # every assumption check reads the degrees of Q, R_D and the R_l, so a
    # zero polynomial is refused on load, by the verbs that check no
    # assumption as well
    path = _with(small_config(tmp_path),
                 lambda c: c["problem"]["terms"][0].update(R=[0.0, 0.0]))
    assert run(verb, path, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert "zero polynomial" in err and "Traceback" not in err


def _problem_with(**fields):
    problem = json.loads(GOLDEN.read_text())["problem"]
    problem.update(fields)
    return {"problem": problem}


def _grid_with(**fields):
    grid = {"T_min": 4e-6, "T_max": 0.025}
    grid.update(fields)
    return {"grid": grid}


def _tolerances_with(**fields):
    tolerances = {"solve_tol": 1e-11, "max_iter": 200, "formal_tol": 1e-13}
    tolerances.update(fields)
    return {"tolerances": tolerances}


# settings that load_config itself rejects with ConfigError
REJECTED_ON_LOAD = [
    {"asymptotics": {"N_max": -1, "eps_gevrey": [0.008, 0.018, 3],
                     "eps_decay": [0.006, 0.015, 4]}},
    _grid_with(density_factor=0.0),
    _grid_with(density_factor=-1.0),
    _grid_with(T_min=0.0),
    _grid_with(T_max=-0.025),
    _grid_with(T_min=0.025),
    {"quadrature": {"M": 0.0, "m_nodes": 81}},
    {"quadrature": {"M": -12.0, "m_nodes": 81}},
    _tolerances_with(solve_tol=0.0),
    _tolerances_with(solve_tol=-1.0),
    _tolerances_with(solve_tol=math.nan),
    _tolerances_with(formal_tol=0.0),
    _tolerances_with(formal_tol=math.nan),
    _tolerances_with(max_iter=0),
    # rejected on load even for a verb that never reads them: check-geometry
    # reads no m_nodes, formal no zeta or geometry_m_grid
    {"quadrature": {"M": 12.0, "m_nodes": 80}},
    {"covering": {"zeta": 1}},
    {"geometry_m_grid": [-50.0, 40.0, 401]},
]

# one per key that load_config checks although some verbs never read it
CHECKED_ON_LOAD = [
    pytest.param({"quadrature": {"M": 12.0, "m_nodes": 240}}, "m_nodes", id="even_m_nodes"),
    pytest.param({"covering": {"zeta": 1}}, "zeta", id="zeta_1"),
    pytest.param({"geometry_m_grid": [-50.0, 40.0, 401]}, "geometry_m_grid",
                 id="asymmetric_geometry_m_grid"),
]


@pytest.mark.parametrize("override", REJECTED_ON_LOAD)
def test_malformed_setting_fails_on_load(tmp_path, override):
    with pytest.raises(ConfigError):
        load_config(small_config(tmp_path, **override))


@pytest.mark.parametrize("override", [
    {"geometry_m_grid": [-50.0, 50.0]},
    {"eps": [0.5]},
    {"asymptotics": {"N_max": 2, "eps_gevrey": [0.008, 0.018], "eps_decay": [0.006, 0.015, 4]}},
    {"asymptotics": {"N_max": 2, "eps_gevrey": [0.0, 0.018, 3], "eps_decay": [0.006, 0.015, 4]}},
    {"asymptotics": {"N_max": 2, "eps_gevrey": [0.008, 0.018, 3], "eps_decay": 0.01}},
    {"asymptotics": {"N_max": 2, "eps_gevrey": [0.008, 0.018, 3], "eps_decay": [-0.006, 0.015, 4]}},
    {"problem": []},
    {"grid": []},
    _problem_with(forcing=[]),
    _problem_with(forcing={"f0": [0.1]}),
    _problem_with(coeffs=[]),
    {"geometry_m_grid": [0.0, 0.0, 1]},
    *REJECTED_ON_LOAD,
])
def test_malformed_setting_is_65(tmp_path, override):
    path = small_config(tmp_path, **override)
    assert run("check-geometry", path, str(tmp_path / "out")) == 65


@pytest.mark.parametrize("verb", COMMANDS)
@pytest.mark.parametrize("override, key", CHECKED_ON_LOAD)
def test_setting_unread_by_the_verb_is_65(tmp_path, capsys, verb, override, key):
    path = small_config(tmp_path, **override)
    assert run(verb, path, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_n_angles_setting_is_ignored(tmp_path):
    # the arc takes ARC_SAMPLES samples whatever the grid section says
    outs = []
    for n_angles in (None, 8):
        base = tmp_path / f"n_angles_{n_angles}"
        base.mkdir()
        path = small_config(base)
        if n_angles is not None:
            _with(path, lambda c: c["grid"].update(n_angles=n_angles))
        assert run("asymptotics", path, str(base / "out")) == 0
        outs.append((base / "out" / "decay.csv").read_bytes())
    assert outs[0] == outs[1] and outs[0].count(b"\n") > 1


def _quadrature_with(Delta):
    return {"quadrature": {"m_nodes": 81, "Delta": Delta}}


@pytest.mark.parametrize("verb, override, key", [
    pytest.param("solve", {"eps": math.inf}, "eps", id="inf_eps"),
    pytest.param("solve", {"eps": math.nan}, "eps", id="nan_eps"),
    pytest.param("evaluate", {"points": [[0.012, 0.0, math.inf, 0.0]]}, "points", id="inf_z"),
    pytest.param("evaluate", {"points": [[math.nan, 0.0, 0.1, 0.0]]}, "points", id="nan_t"),
    pytest.param("evaluate", {"points": [], "points_csv": "nan_z.csv"}, "points_csv",
                 id="nan_z_csv"),
    pytest.param("evaluate", _quadrature_with(math.nan), "Delta", id="nan_Delta"),
    pytest.param("evaluate", _quadrature_with(math.inf), "Delta", id="inf_Delta"),
    pytest.param("evaluate", _quadrature_with(0.0), "Delta", id="zero_Delta"),
    pytest.param("solve", {"eps": 0.0}, "eps", id="zero_eps"),
    pytest.param("solve", _grid_with(T_max=math.inf), "T_max", id="inf_T_max"),
    pytest.param("check-geometry", {"geometry_m_grid": [-50.0, math.nan, 401]},
                 "geometry_m_grid", id="nan_geometry_m_grid"),
    pytest.param("solve", {"quadrature": {"M": math.inf, "m_nodes": 81}}, "M",
                 id="inf_M"),
    pytest.param("asymptotics", {"asymptotics": {
        "N_max": 2, "eps_gevrey": [0.008, math.inf, 3], "eps_decay": [0.006, 0.015, 4]}},
        "eps_gevrey", id="inf_eps_gevrey"),
    pytest.param("check-geometry", {"covering": {"t_radius": math.nan}}, "t_radius",
                 id="nan_t_radius"),
    pytest.param("check-geometry", {"covering": {"t_direction": math.nan}}, "t_direction",
                 id="nan_t_direction"),
    pytest.param("check-geometry", {"covering": {"t_aperture": math.inf}}, "t_aperture",
                 id="inf_t_aperture"),
    pytest.param("check-geometry", _problem_with(q=math.nan), "q", id="nan_q"),
    pytest.param("solve", _problem_with(q=math.nan), "q", id="nan_q_solve"),
    pytest.param("solve", _problem_with(mu=math.nan), "mu", id="nan_mu"),
    pytest.param("solve", _problem_with(varsigma=math.nan), "varsigma", id="nan_varsigma"),
    pytest.param("solve", _problem_with(alpha=math.inf), "alpha", id="inf_alpha"),
    pytest.param("check-geometry", _problem_with(beta=math.nan), "beta", id="nan_beta"),
    pytest.param("check-geometry", _problem_with(beta_prime=math.inf), "beta_prime",
                 id="inf_beta_prime"),
    pytest.param("check-geometry", _problem_with(eps0=math.nan), "eps0", id="nan_eps0"),
])
def test_non_finite_setting_is_65(tmp_path, capsys, verb, override, key):
    # rejected on load, before any solve: these used to end in a traceback,
    # a NaN row, exit 3 from a non-finite Picard update, a kernel-cone test
    # that NaN switched off, exit 2 from r1 = 0 (alpha) or a clean exit 0
    # (varsigma); nan_z.csv sits next to the config
    (tmp_path / "nan_z.csv").write_text("re_t,im_t,re_z,im_z\n0.012,0,nan,0\n")
    path = small_config(tmp_path, **override)
    assert run(verb, path, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["evaluate", "residual"])
@pytest.mark.parametrize("t", [1e-6, 1e-5, 0.04])
def test_point_outside_the_grid_T_range_is_3(tmp_path, capsys, verb, t):
    # the grid's line serves |eps t| in [T_min, T_max] = [4e-6, 4e-4] only:
    # eps t = 1.5e-8 and 1.5e-7 lie below it (they used to exit 0 with a
    # wrong u), 6e-4 above it
    path = small_config(tmp_path, points=[[0.012, 0.0, 0.1, 0.0], [t, 0.0, 0.1, 0.0]])
    assert run(verb, path, str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "[4e-06, 0.0004]" in err and "Traceback" not in err


def test_formal_builds_the_eps_series_once(tmp_path, monkeypatch):
    # formal_residual checks the series against the recursion it was solved
    # with, kept on the series, instead of building its kernels again
    builds = []
    build = TaylorRecursion.eps_series.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(TaylorRecursion, "eps_series", classmethod(counted))
    assert run("formal", small_config(tmp_path), str(tmp_path / "out")) == 0
    assert len(builds) == 1
    report = json.loads((tmp_path / "out" / "formal_report.json").read_text())
    assert report["residual"] <= 1e-9


def test_check_geometry_bundled_golden(tmp_path):
    out = tmp_path / "out"
    assert run("check-geometry", GOLDEN, str(out)) == 0
    consts = dict(line.split(",") for line in
                  (out / "constants.csv").read_text().splitlines()[1:])
    assert abs(float(consts["D3"]) - 1.0 / 3.0) < 1e-9
    assert float(consts["C_D"]) >= 0.5
    assert int(float(consts["k_threshold"])) == 13


def test_check_geometry_k12_fails_with_witness(tmp_path):
    cfg = json.loads(GOLDEN.read_text())
    cfg["problem"]["k"] = 12
    cfg["problem"]["terms"][0]["delta"] = [1, 12]
    path = tmp_path / "k12.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("check-geometry", path, str(out)) == 2
    witness = json.loads((out / "witness.json").read_text())
    assert any(f["name"] == "D.condition" for f in witness["failures"])


def test_solve_zero_forcing_writes_zero_grids(tmp_path):
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["problem"]["forcing"]["f0"] = {}
    cfg["problem"]["forcing"]["f1"] = {}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("solve", path, str(out)) == 0
    with np.load(out / "omega.npz", allow_pickle=False) as f:
        data = f["omega0"]
    assert np.max(np.abs(data)) == 0.0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["iterations"] == 1


def test_evaluate_and_residual_verbs(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("evaluate", path, str(out)) == 0
    lines = (out / "evaluate.csv").read_text().splitlines()
    assert len(lines) == 6  # header + five points
    assert run("residual", path, str(out)) == 0
    rep = json.loads((out / "residual_report.json").read_text())
    assert rep["physical_residual_max"] <= 1e-6


def test_evaluate_rows_combine_their_components(tmp_path):
    points = [[0.012, 0.0, 0.1, 0.0], [0.009, 0.001, -0.2, 0.1], [0.006, -0.002, 0.3, -0.2]]
    path = small_config(tmp_path, points=points)
    out = tmp_path / "out"
    assert run("evaluate", path, str(out)) == 0
    rc = load_config(path)
    data = np.loadtxt(out / "evaluate.csv", delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (len(points), 10)
    for row in data:
        t, u0, u1, u = (complex(row[i], row[i + 1]) for i in (0, 4, 6, 8))
        assert u == u0 + u1 * cmath.log(rc.eps_solve * t) / rc.spec.lnq


def test_evaluate_on_the_branch_cut_is_3(tmp_path, capsys):
    # eps = 0.015 on the example, so eps t lies on (-inf, 0]
    path = small_config(tmp_path, points=[[0.012, 0.0, 0.1, 0.0], [-0.012, 0.0, 0.1, 0.0]])
    assert run("evaluate", path, str(tmp_path / "out")) == 3
    assert "branch cut" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "residual"])
def test_verb_builds_the_eps_kernels_once(tmp_path, monkeypatch, verb):
    # the solve, the contraction probe and the Borel residual share one build
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli

    path = small_config(tmp_path)
    eps = load_config(path).eps_solve
    builds = []
    real = borel_solver.eps_kernels

    def counting(spec, m, at):
        builds.append(at)
        return real(spec, m, at)

    monkeypatch.setattr(borel_solver, "eps_kernels", counting)
    monkeypatch.setattr(cli, "eps_kernels", counting, raising=False)
    assert run(verb, path, str(tmp_path / "out")) == 0
    assert builds.count(eps) == 1


def test_evaluate_and_residual_build_no_geometry_constants(tmp_path, monkeypatch):
    # the smallness certificate belongs to check-geometry and solve; the
    # point verbs solve without it
    import qborel.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a point verb computed geometry constants")

    monkeypatch.setattr(cli, "bound_constants", refuse)
    monkeypatch.setattr(cli, "operator_constants", refuse)
    path = small_config(tmp_path)
    for verb in ("evaluate", "residual"):
        assert run(verb, path, str(tmp_path / verb)) == 0


def test_solve_report_carries_the_geometry_smallness_pass(tmp_path):
    path = small_config(tmp_path)

    def read(out, name):
        return json.loads((out / name).read_text())

    out = tmp_path / "all"
    assert run("all", path, str(out)) == 0
    passed = read(out, "geometry_report.json")["smallness"]["pass"]
    assert isinstance(passed, bool)
    assert read(out, "solve_report.json")["smallness_ok"] is passed
    alone = tmp_path / "solve"
    assert run("solve", path, str(alone)) == 0
    assert read(alone, "solve_report.json")["smallness_ok"] is passed


def test_evaluate_without_points_is_usage_error(tmp_path):
    path = small_config(tmp_path, points=[])
    assert run("evaluate", path, str(tmp_path / "out")) == 64


def test_formal_verb_writes_orders(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "out"
    assert run("formal", path, str(out)) == 0
    rep = json.loads((out / "formal_report.json").read_text())
    assert rep["residual"] <= 1e-9
    assert (out / "formal_order_3.csv").exists()


def test_dD_zero_formal_and_asymptotics(tmp_path):
    # with dD = 0 the R_D term stays on the left, in P(0) = Q(im) - R_D(im),
    # and the series still matches the analytic solution: R_1 << R_0
    path = _with(small_config(tmp_path), lambda c: (
        c["problem"].update(dD=0), c["problem"]["terms"][0].update(delta=[0, 1])))
    out = tmp_path / "out"
    for verb in ("formal", "asymptotics"):
        assert run(verb, path, str(out)) == 0, verb
    assert json.loads((out / "formal_report.json").read_text())["residual"] <= 1e-13
    rows = np.loadtxt(out / "remainders.csv", delimiter=",", skiprows=1, ndmin=2)
    r0, r1 = (rows[rows[:, 0] == N, 2] for N in (0, 1))
    assert r0.size == r1.size == 3 and np.all(r1 < 1e-6 * r0), (r0, r1)


def test_main_argparse_roundtrip(tmp_path):
    path = small_config(tmp_path)
    assert main(["check-geometry", str(path),
                 "--output-dir", str(tmp_path / "o")]) == 0
    assert main(["definitely-not-a-verb", str(path)]) == 64


def test_solve_runs_deterministically(tmp_path):
    path = small_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", path, str(out1)) == 0
    assert run("solve", path, str(out2)) == 0
    for name in ("omega.npz", "solve_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_load_config_defaults(tmp_path):
    path = small_config(tmp_path)
    rc = load_config(path)
    assert rc.zeta == 2
    assert rc.spec.k == 13
    assert rc.eps_solve == 0.015 + 0j


def test_points_csv_list(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("re_t,im_t,re_z,im_z,re_eps,im_eps\n"
                   "0.012,0,0.1,0,0.015,0\n0.009,0.001,-0.2,0,0.015,0\n")
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["points"] = []
    cfg["points_csv"] = str(pts)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = load_config(path)
    assert rc.points == [(0.012 + 0j, 0.1 + 0j), (0.009 + 0.001j, -0.2 + 0j)]
    out = tmp_path / "out"
    assert run("evaluate", path, str(out)) == 0
    assert len((out / "evaluate.csv").read_text().splitlines()) == 3
    # fewer than the four point columns
    pts.write_text("re_t,im_t,re_z\n0.012,0,0.1\n")
    assert run("evaluate", path, str(out)) == 65


@pytest.fixture(scope="module")
def solved_small(tmp_path_factory):
    """`cmd_solve` on the reduced config, its ctx and the whole-line solve it
    wrote out, recorded as `solve_coupled` returned it: ctx keeps only the
    held-row solution that evaluate and residual read."""
    import qborel.cli as cli

    tmp = tmp_path_factory.mktemp("solve")
    rc = load_config(small_config(tmp), str(tmp / "out"))
    rc.output_dir.mkdir()
    ctx: dict = {}
    solved = []
    solve = cli.solve_coupled

    def recorded(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "solve_coupled", recorded)
        assert cmd_solve(rc, ctx) == 0
    assert len(solved) == 1
    return rc, ctx, solved[0]


def test_omega_npz_holds_the_solved_grid(solved_small):
    rc, ctx, (w0, w1, _) = solved_small
    grid = ctx["grid"]
    with np.load(rc.output_dir / "omega.npz", allow_pickle=False) as f:
        arrays = {key: f[key] for key in f.files}
    assert set(arrays) == {"tau", "m", "omega0", "omega1"}
    rows = grid.n_nodes + 1
    assert arrays["tau"].shape == (rows,)
    assert arrays["m"].shape == (grid.m.size,)
    for key, w in (("omega0", w0), ("omega1", w1)):
        assert arrays[key].shape == (rows, grid.m.size)
        assert arrays[key].dtype == np.complex128
        assert arrays[key].tobytes() == w.tobytes()
    assert arrays["tau"].dtype == np.complex128
    assert arrays["tau"].tobytes() == np.append(grid.tau, 0.0 + 0.0j).tobytes()
    assert arrays["m"].dtype == np.float64
    assert arrays["m"].tobytes() == grid.m.tobytes()


def test_norms_csv_matches_the_per_node_loop(solved_small, tmp_path):
    rc, ctx, (w0, w1, _) = solved_small
    grid = ctx["grid"]
    w_nodes = grid.stacked_weights(rc.spec)[:-1]
    rows = []
    for i, tau in enumerate(grid.tau):
        rows.append((tau.real, tau.imag,
                     float(np.max(w_nodes[i] * np.abs(w0[i]))),
                     float(np.max(w_nodes[i] * np.abs(w1[i])))))
    ref = tmp_path / "norms.csv"
    write_csv(ref, ["re_tau", "im_tau", "weighted_omega0", "weighted_omega1"], rows)
    assert (rc.output_dir / "norms.csv").read_bytes() == ref.read_bytes()


def test_relative_residual_divides_by_the_larger_norm():
    report = SolveReport(iterations=3, final_update=0.0, contraction=0.0,
                         norms=(2.0, 4.0), residual=1e-12)
    assert _relative_residual(report) == 2.5e-13
    zero = SolveReport(iterations=1, final_update=0.0, contraction=0.0,
                       norms=(0.0, 0.0), residual=0.0)
    assert _relative_residual(zero) == 0.0


def test_evaluate_and_residual_solve_no_picard_on_the_example(tmp_path, monkeypatch):
    # the example's line tops out at 0.011 rho, below the arc rung, so the
    # Taylor series at tau = 0 gives every row that the point verbs read
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a Picard solve ran")

    for module, name in ((borel_solver, "solve_coupled"), (borel_solver, "solve_triangular"),
                         (cli, "solve_coupled")):
        monkeypatch.setattr(module, name, refuse)
    for verb in ("evaluate", "residual"):
        assert run(verb, GOLDEN, str(tmp_path / verb)) == 0, verb
    report = json.loads((tmp_path / "residual" / "residual_report.json").read_text())
    assert report["borel_residual"] <= 1e-12 and report["physical_residual_max"] <= 1e-15


def test_point_verbs_read_no_theta_kernel_on_a_taylor_line(tmp_path, monkeypatch):
    # every row of the example's line is a Taylor sum, so its q-Laplace
    # transform is their closed form; the wide config's line has Picard rows
    # above the arc rung and keeps the theta-kernel trapezoid
    import qborel.solution_assembly as assembly

    calls = []
    inv_theta = assembly.inv_theta

    def counted(*args, **kwargs):
        calls.append(1)
        return inv_theta(*args, **kwargs)

    monkeypatch.setattr(assembly, "inv_theta", counted)
    for verb in ("evaluate", "residual"):
        assert run(verb, GOLDEN, str(tmp_path / verb)) == 0, verb
    assert calls == []
    assert run("evaluate", CONFIG_DIR / "asymptotics_k13.json", str(tmp_path / "wide")) == 0
    assert calls


@pytest.mark.parametrize("verb", ["evaluate", "residual"])
def test_first_bad_point_names_the_error(tmp_path, capsys, verb):
    # every point is checked, in input order, before any is summed: the 2nd
    # point leaves the line's |eps t| range, and the 3rd, which shares the
    # 1st point's t and so its Fourier pass, leaves the strip
    points = [[0.012, 0.0, 0.1, 0.0], [5.0, 0.0, 0.1, 0.0], [0.012, 0.0, 0.1, 0.9]]
    assert run(verb, small_config(tmp_path, points=points), str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "outside" in err and "strip" not in err


def test_held_path_runs_picard_above_the_arc_rung_on_the_wide_config(monkeypatch):
    # the wide config's line tops out at 0.73 rho, above the arc rung: the
    # held-row solve runs Picard there only, and matches the whole-line
    # solve_coupled row for row and in evaluate
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli
    from qborel.borel_solver import held_bottom, solve_coupled
    from qborel.solution_assembly import LogSolution

    rc = load_config(CONFIG_DIR / "asymptotics_k13.json")
    ranges = []
    solve = borel_solver.solve_triangular

    def recorded(spec, eps, grid, **kwargs):
        ranges.append((grid.g_lo, grid.g_hi))
        return solve(spec, eps, grid, **kwargs)

    monkeypatch.setattr(borel_solver, "solve_triangular", recorded)
    ctx: dict = {}
    sol = cli._log_solution(rc, ctx)
    grid = ctx["grid"]
    assert grid.g_hi > grid.arc_rung()
    assert ranges == [(held_bottom(rc.spec, grid), grid.g_hi)]
    w0, w1, report = solve_coupled(rc.spec, rc.eps_solve, grid, tol=rc.solve_tol,
                                   max_iter=rc.max_iter, kernels=ctx["eps_kernels"])
    weights = grid.stacked_weights(rc.spec)
    gap = max(float(np.max(weights * np.abs(a - b))) for a, b in ((w0, sol.w0), (w1, sol.w1)))
    assert gap <= 1e-14 * max(report.norms)
    full = LogSolution(rc.spec, grid, w0, w1, rc.eps_solve, Delta=rc.Delta)
    for t, z in rc.points:
        for got, want in zip(sol.evaluate_parts(t, z), full.evaluate_parts(t, z)):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_shift_sized_held_block_gives_the_rows_of_a_five_rung_block(monkeypatch):
    # the lowest free rung reads one dilation shift below it, so holding
    # more rungs of the Taylor sum changes no free row: on the wide config
    # the family's rows from the derived block equal, bit for bit, those
    # from a block of 5 rungs below the arc rung
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli
    from qborel.formal_asymptotics import SolutionFamily

    rc = load_config(CONFIG_DIR / "asymptotics_k13.json")
    cov = cli._covering(rc, {})
    arg = np.angle(cov.overlap_sample(rc.decay_pair))
    samples = [(p, complex(size * np.exp(1j * arg))) for size in rc.eps_decay[:2]
               for p in (0, 1)]

    def rows(held_bottom):
        monkeypatch.setattr(borel_solver, "held_bottom", held_bottom)
        family = SolutionFamily(rc.spec, cov, rc.gspec, tol=min(rc.solve_tol, 1e-12),
                                m_grid=rc.geometry_m_grid)
        sols = [family.at(p, eps) for p, eps in samples]
        return [(s.w0, s.w1) for s in sols], family.grid_rows

    derived, derived_rows = rows(borel_solver.held_bottom)
    five, five_rows = rows(lambda spec, grid: grid.arc_rung() - 5)
    # one shift (1 rung) held instead of 6 rungs: 5 stacked rows fewer per solve
    assert five_rows - derived_rows == 5 * len(samples)
    for got, want in zip(derived, five):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_solve_reports_the_taylor_gap(tmp_path, name):
    # the whole-line Picard rows against the held-path rows that evaluate
    # and residual read: two methods for one fixed point
    assert run("solve", CONFIG_DIR / name, str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["taylor_gap"] <= 1e-12


def test_all_builds_the_point_verbs_solution_once(tmp_path, monkeypatch):
    # solve builds the held-path solution for its taylor_gap, and evaluate
    # and residual read that one solution
    import qborel.cli as cli

    expansions = []
    expand = cli.taylor_at_origin

    def counted(*args, **kwargs):
        expansions.append(args[1])
        return expand(*args, **kwargs)

    monkeypatch.setattr(cli, "taylor_at_origin", counted)
    path = small_config(tmp_path)
    assert run("all", path, str(tmp_path / "out")) == 0
    assert expansions == [load_config(path).eps_solve]
