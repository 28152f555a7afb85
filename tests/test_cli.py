import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import qborel
from qborel.borel_solver import SolveReport, SolverContext, TaylorRecursion, solve_coupled
from qborel.errors import ConfigError, DivergenceError
from qborel.cli import (COMMANDS, _line, _relative_residual, cmd_solve, load_config, main,
                        run, write_csv)
from tests.oracles import contraction_probe

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = CONFIG_DIR / "example_k13.json"


def small_config(tmp_path, **overrides):
    """Reduced copy of the bundled config for fast CLI exercises."""
    cfg = json.loads(GOLDEN.read_text())
    cfg["quadrature"]["m_nodes"] = 81
    cfg["geometry_m_grid"] = [-50.0, 50.0, 401]
    cfg["asymptotics"] = {"N_max": 2, "eps_gevrey": [0.008, 0.018, 3],
                          "eps_decay": [0.006, 0.015, 4], "pair": 0}
    for key, val in overrides.items():
        cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_that_is_not_utf8_is_65(tmp_path, capsys):
    # a UTF-16 byte order mark: the file cannot be decoded, let alone parsed
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + GOLDEN.read_text().encode("utf-16-le"))
    assert run("solve", bad, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert "config error" in err and "codec" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


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
    grid = {"T_max": 0.025}
    grid.update(fields)
    return {"grid": grid}


def _b11(**symbol):
    """The example's problem with the b11 symbol given."""
    coeffs = json.loads(GOLDEN.read_text())["problem"]["coeffs"]
    coeffs["b11"] = symbol
    return _problem_with(coeffs=coeffs)


def _b11_table(m, values):
    """The example's problem with a tabulated b11 symbol."""
    return _b11(m=m, values=values)


# tabulated symbols that FourierSymbol refuses, each with the cause it names
BAD_TABLES = [
    (_b11_table([-1.0, 0.0, 1.0], [0.0, 0.0006]), "matching m/value arrays"),
    (_b11_table([1.0, 0.0, -1.0], [0.0, 0.0006, 0.0]), "strictly increasing"),
    (_b11_table([-1.0, 0.0, 0.0], [0.0, 0.0006, 0.0]), "strictly increasing"),
]


# a JSON integer of 401 digits, too large for a float
HUGE_INT = 10 ** 400

# settings that load_config itself rejects with ConfigError
REJECTED_ON_LOAD = [
    {"asymptotics": {"N_max": -1, "eps_gevrey": [0.008, 0.018, 3],
                     "eps_decay": [0.006, 0.015, 4]}},
    _grid_with(density_factor=0.0),
    _grid_with(density_factor=-1.0),
    _grid_with(T_max=0.0),
    _grid_with(T_max=-0.025),
    _grid_with(T_max=HUGE_INT),
    {"quadrature": {"M": 0.0, "m_nodes": 81}},
    {"quadrature": {"M": -12.0, "m_nodes": 81}},
    _b11_table([-1.0, math.nan, 1.0], [0.0, 0.0006, 0.0]),
    _b11_table([-1.0, 0.0, 1.0], [0.0, math.inf, 0.0]),
    _b11(num=[math.nan], gauss=1.0),
    *(table for table, _ in BAD_TABLES),
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
    # integer keys refuse what int() would truncate
    pytest.param({"quadrature": {"M": 12.0, "m_nodes": 241.9}}, "m_nodes",
                 id="fractional_m_nodes"),
    pytest.param({"covering": {"zeta": 2.7}}, "zeta", id="fractional_zeta"),
    pytest.param({"asymptotics": {"N_max": True, "eps_gevrey": [0.008, 0.018, 3],
                                  "eps_decay": [0.006, 0.015, 4]}}, "N_max", id="bool_N_max"),
    # real and complex keys refuse what float() would coerce
    pytest.param(_grid_with(density_factor=True), "density_factor", id="bool_density_factor"),
    pytest.param({"quadrature": {"M": True, "m_nodes": 81}}, "M", id="bool_M"),
    pytest.param({"covering": {"t_radius": True}}, "t_radius", id="bool_t_radius"),
    pytest.param({"eps": "0.01"}, "eps", id="string_eps"),
    pytest.param(_problem_with(q="2"), "q", id="string_q"),
    # and an int too large for a float, in a number and in the points array
    pytest.param({"eps": HUGE_INT}, "eps", id="huge_int_eps"),
    pytest.param({"points": [[HUGE_INT, 0, 0.1, 0]]}, "points", id="huge_int_point"),
    # the overlap a sector difference samples lies in [0, zeta), not modulo zeta
    *(pytest.param({"asymptotics": {"N_max": 2, "eps_gevrey": [0.008, 0.018, 3],
                                    "eps_decay": [0.006, 0.015, 4], "pair": pair}},
                   "pair", id=f"pair_{pair}") for pair in (-1, 2, 7)),
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
    # a refused value is echoed clipped, however long it is
    assert all(len(line) < 200 for line in err.splitlines()), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, cause", BAD_TABLES)
def test_malformed_table_is_65_and_names_its_cause(tmp_path, capsys, override, cause):
    path = small_config(tmp_path, **override)
    assert run("check-geometry", path, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err


def _forcing_f0(**symbol):
    """The example's problem with the f0 symbol of t^0 given."""
    forcing = json.loads(GOLDEN.read_text())["problem"]["forcing"]
    forcing["f0"]["0"] = symbol
    return _problem_with(forcing=forcing)


def _term_C(**symbol):
    """The example's problem with the C symbol of its one term given."""
    terms = json.loads(GOLDEN.read_text())["problem"]["terms"]
    terms[0]["C"] = symbol
    return _problem_with(terms=terms)


@pytest.mark.parametrize("override, cause", [
    pytest.param(_b11_table([-1.0, math.nan, 1.0], [0.0, 0.0006, 0.0]), "b11: m",
                 id="nan_table_m"),
    pytest.param(_b11_table([-1.0, 0.0, 1.0], [0.0, math.inf, 0.0]), "b11: values",
                 id="inf_table_values"),
    pytest.param(_b11(num=[math.nan], gauss=1.0), "b11: num", id="nan_num"),
    pytest.param(_b11(num=[0.0006], den=[1.0, math.inf]), "b11: den", id="inf_den"),
    pytest.param(_b11(num=[0.0006], exp_abs=math.nan), "b11: exp_abs", id="nan_exp_abs"),
    pytest.param(_b11(num=[0.0006], gauss=math.inf), "b11: gauss", id="inf_gauss"),
    pytest.param(_b11(num=[0.0006], gauss=1.0, eps_poly=[1.0, math.nan]), "b11: eps_poly",
                 id="nan_eps_poly"),
    pytest.param(_forcing_f0(num=[0.1], gauss=math.nan), "f0[0]: gauss", id="nan_f0_gauss"),
    pytest.param(_term_C(num=[math.inf], gauss=1.0), "C1: num", id="inf_C1_num"),
])
def test_non_finite_symbol_is_65_and_names_it(tmp_path, capsys, override, cause):
    # NaN passes the m ordering and decay rate comparisons, so these used to
    # load and exit 2 from an envelope check that read NaN
    path = small_config(tmp_path, **override)
    assert run("check-geometry", path, str(tmp_path / "out")) == 65
    err = capsys.readouterr().err
    assert f"{cause} must be finite" in err and "Traceback" not in err


def test_n_angles_setting_is_ignored(tmp_path):
    # no grid setting reaches the arc, which sums the Taylor series at its
    # own quadrature nodes, and every Picard run, Borel solve and Taylor
    # order alike, stops at one rule and one cap, whatever solve_tol,
    # formal_tol and max_iter say or whether solve_tol is there at all.  The
    # Taylor ray serves every |eps t| up to T_max, whatever T_min says (0.02
    # lies above T_max), and no computation reads the seed
    ignored = [("grid", "n_angles", 8), ("tolerances", "formal_tol", 1e-3),
               ("tolerances", "max_iter", 1), ("tolerances", "solve_tol", 1e-3),
               ("tolerances", "solve_tol", None), ("grid", "T_min", 0.02), ("", "seed", -1)]
    outs = []
    for i, case in enumerate([None, *ignored]):
        base = tmp_path / ("shipped" if case is None else f"{i}_{case[1]}")
        base.mkdir()
        path = small_config(base)
        if case is not None and case[2] is None:
            _with(path, lambda c: c[case[0]].pop(case[1]))
        elif case is not None:
            _with(path, lambda c: (c[case[0]] if case[0] else c).update({case[1]: case[2]}))
        assert run("all", path, str(base / "out")) == 0
        outs.append({f.name: f.read_bytes() for f in sorted((base / "out").iterdir())})
    assert outs[0]["decay.csv"].count(b"\n") > 1 and "formal_order_3.csv" in outs[0]
    # run_report.json lists the keys present, ignored_keys apart
    shipped = json.loads(outs[0].pop("run_report.json"))
    assert shipped.pop("ignored_keys") == [f"tolerances.{key}" for key in
                                           ("formal_tol", "max_iter", "solve_tol")]
    for (section, key, value), out in zip(ignored, outs[1:]):
        report = json.loads(out.pop("run_report.json"))
        assert (f"{section}.{key}".lstrip(".") in report.pop("ignored_keys")) \
            == (value is not None)
        assert report == shipped
        assert out == outs[0]


def _quadrature_with(Delta):
    return {"quadrature": {"m_nodes": 81, "Delta": Delta}}


@pytest.mark.parametrize("verb, override, key", [
    pytest.param("solve", {"eps": math.inf}, "eps", id="inf_eps"),
    pytest.param("evaluate", {"eps": math.inf}, "eps", id="inf_eps_evaluate"),
    pytest.param("solve", {"eps": math.nan}, "eps", id="nan_eps"),
    pytest.param("evaluate", {"points": [[0.012, 0.0, math.inf, 0.0]]}, "points", id="inf_z"),
    pytest.param("solve", {"points": [[0.012, 0.0, math.inf, 0.0]]}, "points", id="inf_z_solve"),
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
    # the grid's line serves |eps t| up to T_max = 4e-4: eps t = 6e-4 exits
    # 3 and names T_max.  eps t = 1.5e-8 and 1.5e-7 lie far below the line's
    # rows, where a component reads the Taylor series at tau = 0: they exit
    # 0, each component the formal series in eps summed to N_max
    from qborel.formal_asymptotics import evaluate_formal, formal_coefficients

    path = small_config(tmp_path, points=[[0.012, 0.0, 0.1, 0.0], [t, 0.0, 0.1, 0.0]])
    out = tmp_path / "out"
    code = run(verb, path, str(out))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if t == 0.04:
        assert code == 3 and "(0, 0.0004]" in err and "T_max" in err
        return
    assert code == 0
    if verb == "residual":
        report = json.loads((out / "residual_report.json").read_text())
        assert report["physical_residual_max"] <= 1e-12
        return
    rc = load_config(path)
    series = formal_coefficients(rc.spec, rc.N_max + 1, m_grid=rc.gspec.m_grid())
    # the row of the second point: t, z, u0, u1, u
    tt, z, u0, u1, _ = np.loadtxt(out / "evaluate.csv", delimiter=",", skiprows=1)[1].view(complex)
    assert tt == t
    for got, j in ((u0, 0), (u1, 1)):
        want = evaluate_formal(series, j, tt, z, rc.eps_solve)[-1]
        assert abs(got - want) <= 1e-13 * abs(want)


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


def test_check_geometry_bounds_a_symbol_over_the_whole_eps_disc(tmp_path):
    # b11 = x exp(-m^2) (1 + e^(i pi/8) eps) on |eps| <= 0.5: its weighted sup
    # is 1.5 S, with S that of its m part, at eps = 0.5 e^(-i pi/8), between
    # two rays of an 8-ray sample of the disc, which reads only 1.474 S.  CB
    # lies between the two, so the envelope check must fail
    from qborel.special_functions import m_weight

    cfg = json.loads(small_config(tmp_path).read_text())
    problem = cfg["problem"]
    m = np.linspace(*cfg["geometry_m_grid"])
    weighted = m_weight(m, problem["beta"], problem["mu"]) * np.exp(-m * m)
    S, m_sup = float(weighted.max()), m[np.argmax(weighted)]
    turn = cmath.exp(1j * math.pi / 8)
    sampled = max(abs(1 + 0.5 * turn * cmath.exp(1j * a * math.pi / 4)) for a in range(8))
    x = problem["coeffs"]["CB"] / (1.487 * S)
    assert x * S * sampled < problem["coeffs"]["CB"] < x * S * 1.5
    problem["eps0"] = 0.5
    problem["coeffs"]["b11"] = {"num": [x], "gauss": 1.0,
                                "eps_poly": [1.0, [turn.real, turn.imag]]}
    path = tmp_path / "b11.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run("check-geometry", path, str(out)) == 2
    failures = json.loads((out / "witness.json").read_text())["failures"]
    # the witness names the m of the sup, the first of the pair +-1.25
    assert {"name": "B2.b11", "witness": f"m={m_sup:.6g}"} in failures and m_sup == -1.25
    rows = (out / "assumptions.csv").read_text().splitlines()
    row = next(r.split(",") for r in rows if r.startswith("B2.b11,"))
    assert row[1] == "0" and float(row[3]) == pytest.approx(1.5 * x * S, rel=1e-15)


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
    # the small config at these points, and the shipped example at its own
    for path in (small_config(tmp_path, points=points), GOLDEN):
        out = tmp_path / path.stem
        assert run("evaluate", path, str(out)) == 0
        rc = load_config(path)
        data = np.loadtxt(out / "evaluate.csv", delimiter=",", skiprows=1, ndmin=2)
        assert data.shape == (len(rc.points), 10)
        for row in data:
            t, u0, u1, u = (complex(row[i], row[i + 1]) for i in (0, 4, 6, 8))
            assert u == u0 + u1 * cmath.log(rc.eps_solve * t) / rc.spec.lnq


def test_evaluate_on_the_branch_cut_is_3(tmp_path, capsys):
    # eps = 0.015 on the example, so eps t lies on (-inf, 0]
    path = small_config(tmp_path, points=[[0.012, 0.0, 0.1, 0.0], [-0.012, 0.0, 0.1, 0.0]])
    assert run("evaluate", path, str(tmp_path / "out")) == 3
    assert "branch cut" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "residual"])
def test_verb_builds_the_symbol_kernels_once(tmp_path, monkeypatch, verb):
    # the solve, the contraction probe, the Taylor expansion and the Borel
    # residual read one build of the m grid's kernels
    from qborel.borel_solver import SymbolKernels

    path = small_config(tmp_path)
    builds = []
    real = SymbolKernels.build.__func__

    def counting(cls, spec, m):
        builds.append(m.size)
        return real(cls, spec, m)

    monkeypatch.setattr(SymbolKernels, "build", classmethod(counting))
    assert run(verb, path, str(tmp_path / "out")) == 0
    assert builds == [load_config(path).gspec.m_nodes]


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


@pytest.mark.parametrize("name", ["file", "file/sub"])
def test_output_dir_that_cannot_be_made_is_64(tmp_path, capsys, name):
    # an existing file, and a path below one
    (tmp_path / "file").write_text("")
    out = tmp_path / name
    assert run("check-geometry", small_config(tmp_path), str(out)) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err


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
    def dD_zero(c):
        c["problem"].update(dD=0)
        c["problem"]["terms"][0].update(delta=[0, 1])

    path = _with(small_config(tmp_path), dD_zero)
    out = tmp_path / "out"
    for verb in ("formal", "asymptotics"):
        assert run(verb, path, str(out)) == 0, verb
    assert json.loads((out / "formal_report.json").read_text())["residual"] <= 1e-13
    rows = np.loadtxt(out / "remainders.csv", delimiter=",", skiprows=1, ndmin=2)
    r0, r1 = (rows[rows[:, 0] == N, 2] for N in (0, 1))
    assert r0.size == r1.size == 3 and np.all(r1 < 1e-6 * r0), (r0, r1)
    # and the shipped example's series, to all its orders and m nodes
    shipped = tmp_path / "shipped.json"
    shipped.write_text(GOLDEN.read_text())
    assert run("formal", _with(shipped, dD_zero), str(tmp_path / "shipped")) == 0
    assert json.loads((tmp_path / "shipped" / "formal_report.json").read_text())["residual"] <= 1e-9


def test_main_argparse_roundtrip(tmp_path):
    path = small_config(tmp_path)
    assert main(["check-geometry", str(path),
                 "--output-dir", str(tmp_path / "o")]) == 0
    assert main(["definitely-not-a-verb", str(path)]) == 64
    assert main(["--help"]) == 0


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


def test_solve_leaves_no_whole_line_factors_on_the_line(solved_small):
    # the whole-line solve and its contraction bound each build the line's
    # factors in a SolverContext of their own, which go with it
    rc, ctx, _ = solved_small
    assert not hasattr(ctx["grid"], "_factors")


def test_nan_in_omega_1_alone_is_a_divergence_and_exit_3(tmp_path, capsys, monkeypatch):
    # Python's max(x, nan) is x, so a NaN confined to omega_1 once slipped
    # past the update's finiteness check and the stopping rule.  The patched
    # map reads omega_1's NaN as zero, so omega_0 stays finite
    real = SolverContext.apply_H

    def nan_in_omega_1(self, w0, w1, out=None):
        h0, h1 = real(self, w0, np.nan_to_num(w1), out=out)
        h1[0, 0] = math.nan
        return h0, h1

    monkeypatch.setattr(SolverContext, "apply_H", nan_in_omega_1)
    rc = load_config(GOLDEN)
    with pytest.raises(DivergenceError, match="not finite"):
        solve_coupled(rc.spec, rc.eps_solve, _line(rc, {}))
    assert run("solve", GOLDEN, str(tmp_path)) == 3
    assert "not finite" in capsys.readouterr().err


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
    # above the arc rung and reads the theta kernel on the ray and its tail
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
    wide = CONFIG_DIR / "asymptotics_k13.json"
    assert run("evaluate", wide, str(tmp_path / "wide")) == 0
    assert calls
    rows = np.loadtxt(tmp_path / "wide" / "evaluate.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (len(load_config(wide).points), 10) and np.isfinite(rows).all()


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
    # the wide config's line reaches above the arc rung, up to the ray
    # tail's reach at T_max: the held-row solve runs Picard there only, and
    # matches the whole-line solve_coupled row for row, and in evaluate the
    # theta-kernel trapezoid over the whole line's rows
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli
    from qborel.borel_solver import held_bottom, solve_coupled
    from qborel.solution_assembly import tail_top

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
    assert grid.g_hi == tail_top(rc.spec, grid) > grid.arc_rung()
    assert ranges == [(held_bottom(rc.spec, grid), grid.g_hi)]
    w0, w1, report = solve_coupled(rc.spec, rc.eps_solve, grid)
    weights = grid.stacked_weights(rc.spec)
    gap = max(float(np.max(weights * np.abs(a - b))) for a, b in ((w0, sol.w0), (w1, sol.w1)))
    assert gap <= 1e-14 * max(report.norms)
    for t, z in rc.points:
        want = _trapezoid_parts(rc, grid, w0, w1, t, z)
        for got, want in zip(sol.evaluate_parts(t, z), want):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_evaluate_at_T_max_on_the_wide_line(tmp_path):
    # the wide config's line has Picard rows, and its top is the rung that
    # the ray tail reads at T_max: a point at |eps t| = T_max evaluates, and
    # matches the trapezoid over the rows of a whole-line solve on that line
    import qborel.cli as cli
    from qborel.borel_solver import solve_coupled

    cfg = json.loads((CONFIG_DIR / "asymptotics_k13.json").read_text())
    rc = load_config(CONFIG_DIR / "asymptotics_k13.json")
    t = rc.gspec.T_max / rc.eps_solve.real
    assert rc.eps_solve.imag == 0 and abs(rc.eps_solve * t) == rc.gspec.T_max
    cfg["points"] = [[t, 0.0, 0.1, 0.0], [t, 0.0, -0.2, 0.1]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("evaluate", path, str(tmp_path / "out")) == 0
    rows = np.loadtxt(tmp_path / "out" / "evaluate.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, 10)
    grid = cli._line(rc, {})
    w0, w1, _ = solve_coupled(rc.spec, rc.eps_solve, grid)
    for row in rows:
        t, z = complex(row[0], row[1]), complex(row[2], row[3])
        want = _trapezoid_parts(rc, grid, w0, w1, t, z)
        for got, ref in zip((complex(row[4], row[5]), complex(row[6], row[7]),
                             complex(row[8], row[9])), want):
            assert abs(got - ref) <= 1e-13 * abs(ref)


def _trapezoid_parts(rc, grid, w0, w1, t, z):
    """(u_0, u_1, u) at (t, z) from the stacked rows w0, w1 of grid at the
    config's eps, by the theta-kernel trapezoid oracle over every row."""
    from tests.oracles import trapezoid_components

    T = rc.eps_solve * complex(t)
    u0, u1 = trapezoid_components(rc.spec, grid, w0, w1, T, z)
    return u0, u1, u0 + u1 * cmath.log(T) / rc.spec.lnq


def test_shift_sized_held_block_gives_the_rows_of_a_five_rung_block(monkeypatch):
    # the lowest free rung reads one dilation shift below it, so holding
    # more rungs of the Taylor sum changes no free row: on the wide config
    # the family's rows from the derived block equal, bit for bit, those
    # from a block of 5 rungs below the arc rung, on every rung both lines
    # hold (the family's line starts at its held block or the tail's stencil)
    import qborel.borel_solver as borel_solver
    import qborel.cli as cli
    import qborel.formal_asymptotics as formal_asymptotics
    from qborel.formal_asymptotics import SolutionFamily
    from tests.conftest import kept_rows

    rc = load_config(CONFIG_DIR / "asymptotics_k13.json")
    cov = cli._covering(rc, {})
    arg = np.angle(cov.overlap_sample(rc.decay_pair))
    samples = [(p, complex(size * np.exp(1j * arg))) for size in rc.eps_decay[:2]
               for p in (0, 1)]

    def rows(held_bottom):
        for module in (borel_solver, formal_asymptotics):
            monkeypatch.setattr(module, "held_bottom", held_bottom)
        family = SolutionFamily(rc.spec, cov, rc.gspec, m_grid=rc.geometry_m_grid)
        return [family.at(p, eps) for p, eps in samples], family.grid_rows

    derived, derived_rows = rows(borel_solver.held_bottom)
    five, five_rows = rows(lambda spec, grid: grid.arc_rung() - 5)
    # one shift (1 rung) held instead of 6 rungs: 5 stacked rows fewer per solve
    assert five_rows - derived_rows == 5 * len(samples)
    for got, want in zip(derived, five):
        shared = kept_rows(want.grid, got.grid)
        for a, b in ((got.w0, want.w0), (got.w1, want.w1)):
            assert a.tobytes() == b[shared].tobytes()


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_solve_reports_the_taylor_gap(tmp_path, name):
    # the whole-line Picard rows against the held-path rows that evaluate
    # and residual read: two methods for one fixed point
    assert run("solve", CONFIG_DIR / name, str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["taylor_gap"] <= 1e-12
    # omega.npz holds the solved line's finite rows, all on one radial line
    rows = report["grid_nodes"] + 1
    cols = json.loads((tmp_path / "run_report.json").read_text())["m_nodes"]
    with np.load(tmp_path / "omega.npz", allow_pickle=False) as f:
        arrays = {key: f[key] for key in f.files}
    assert {key: a.shape for key, a in arrays.items()} == {
        "tau": (rows,), "m": (cols,), "omega0": (rows, cols), "omega1": (rows, cols)}
    assert all(np.isfinite(a).all() for a in arrays.values())
    tau = arrays["tau"]
    assert np.ptp(np.angle(tau[tau != 0])) <= 1e-12


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_solve_reports_a_contraction_bound_above_the_estimates(tmp_path, name):
    assert run("solve", CONFIG_DIR / name, str(tmp_path)) == 0
    report = json.loads((tmp_path / "solve_report.json").read_text())
    bound = report["contraction_bound"]
    # the key of the retired random probes holds the bound
    assert report["contraction_probe"] == bound
    rc = load_config(CONFIG_DIR / name)
    probe = contraction_probe(rc.spec, rc.eps_solve, _line(rc, {}))
    assert probe <= bound and report["contraction_iter"] <= bound <= 0.55
    # no config tolerance is read: every Picard run stops at PICARD_RTOL
    assert report["final_update"] < 1e-11
    error = report["solve_error_bound"]
    assert error == bound / (1.0 - bound) * report["final_update"]
    assert math.isfinite(error) and (name != "example_k13.json" or error <= 1e-11)


@pytest.fixture(scope="module")
def modules_after_all(tmp_path_factory):
    # one fresh process runs `all`, every verb, and prints whether
    # numpy.random is loaded and which of numpy.ma, numpy.polynomial and
    # argparse are; both tests below read this one run
    out_dir = tmp_path_factory.mktemp("all_modules")
    code = ("import sys; from qborel.cli import run; "
            f"assert run('all', {str(GOLDEN)!r}, {str(out_dir)!r}) == 0; "
            "print('numpy.random' in sys.modules); "
            "print([name for name in ('numpy.ma', 'numpy.polynomial', 'argparse') "
            "if name in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(qborel.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()


def test_no_verb_loads_numpy_random(modules_after_all):
    # the contraction certificate draws nothing: `all` runs every verb and
    # leaves numpy.random, its memory and import time, unloaded
    assert modules_after_all[0] == "False"


def test_all_leaves_numpy_ma_numpy_polynomial_and_argparse_unloaded(modules_after_all):
    # the ratio medians, the polynomial values and the Gauss-Legendre rule
    # need none of them, and argparse is imported by main alone
    assert modules_after_all[1:] == ["[]"]


@pytest.mark.parametrize("rows", [
    [(0, 1, -0.0, 0.0), (math.nan, math.inf, -math.inf, 5), (True, 2 ** 60, 1e-320, -1.5e300),
     (np.float64(0.1), np.float32(0.1), np.float64(-0.0), 7)],
    [(1.0, 2.0), (3.0,)],
    [(1.0, 1 + 2j), (-0.0, complex(math.nan, -0.0))],
    [(1, "x", 0.5), (2, "y", -0.0)],
    [(np.int64(3), 0.5)],
    [],
])
def test_write_csv_bytes_match_the_per_value_format(tmp_path, rows):
    # one "%.17g" format string for an all-real file, the per-value path for
    # rows of mixed width, complex, str or numpy integer values: the bytes
    # are those of _fmt value by value
    from qborel.cli import _fmt

    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], rows)
    want = "a,b\n" + "".join(
        ",".join(_fmt(v) if isinstance(v, (int, float, complex, np.floating,
                                           np.complexfloating))
                 else str(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()


def test_wide_asymptotics_builds_the_kernels_once_and_inverts_one_block(wide_asymptotics):
    # every grid of the run, the formal series and every family expansion
    # read one kernel build of the one m grid, and the family's expansions
    # share one OrderBlock, since no b symbol of the config depends on eps
    out, builds, blocks = wide_asymptotics
    path = CONFIG_DIR / "asymptotics_k13.json"
    assert builds == blocks == [load_config(path).gspec.m_grid().tobytes()]
    solves = json.loads((out / "fits.json").read_text())["solves"]
    assert solves["arc_expansions"] == 14


def test_asymptotics_beyond_the_smallness_budget_is_3(tmp_path, capsys):
    # a b11 far beyond the budget: the per-order fixed points of the formal
    # series diverge, and the family's order block would be refused as well
    cfg = json.loads((CONFIG_DIR / "asymptotics_k13.json").read_text())
    cfg["problem"]["coeffs"]["b11"] = {"num": [5.0], "gauss": 1.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("asymptotics", path, str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "smallness" in err and "Traceback" not in err


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
