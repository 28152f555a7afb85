"""Command-line pipeline: geometry checks, the Borel solve, evaluation,
residuals, formal series and asymptotic fits, all driven by one JSON config.

Exit codes: 0 success, 2 assumption/geometry failure (witness file written),
3 numerical failure, 64 usage error, 65 unparsable config.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .borel_solver import (GridSpec, _weighted_sup, build_grid, contraction_estimate,
                           eps_kernels, solve_coupled, solve_held, taylor_at_origin)
from .errors import ConfigError, DivergenceError, DomainError, GeometryError, UsageError
from .formal_asymptotics import (
    SolutionFamily,
    difference_decay_fit,
    formal_coefficients,
    formal_residual,
    gevrey_remainder_check,
)
from .geometry import (
    bound_constants,
    build_good_covering,
    check_assumption_d,
    check_smallness,
    make_geometry,
    operator_constants,
)
from .problem_model import ProblemSpec, _as_complex, _section, validate_assumptions
from .solution_assembly import LogSolution, residual_borel, residual_physical

COMMANDS = ("check-geometry", "solve", "evaluate", "residual", "formal",
            "asymptotics", "all")


@dataclass
class RunConfig:
    spec: ProblemSpec
    zeta: int
    t_radius: float
    t_aperture: float
    t_direction: float
    Delta: float
    gspec: GridSpec
    solve_tol: float
    max_iter: int
    formal_tol: float
    eps_solve: complex
    points: list
    N_max: int
    eps_gevrey: tuple
    eps_decay: tuple
    decay_pair: int
    seed: int
    output_dir: Path
    geometry_m_grid: np.ndarray


def _complex_of(x, default=None):
    if x is None:
        return default
    if isinstance(x, (list, tuple)):
        return _as_complex(x)
    return complex(float(x), 0.0)


def _point_of(p) -> tuple[complex, complex]:
    """(t, z) from [re t, im t, re z, im z] or from a pair [t, z]."""
    if not isinstance(p, list) or len(p) not in (2, 4):
        raise ConfigError(
            f"a point is [re t, im t, re z, im z] or [t, z], got {p!r}")
    if len(p) == 4:
        return _complex_of(p[:2]), _complex_of(p[2:4])
    return _complex_of(p[0]), _complex_of(p[1])


def _finite_points(points: list, key: str) -> list:
    """points, after a check that every coordinate of every (t, z) is finite."""
    for t, z in points:
        if not (cmath.isfinite(t) and cmath.isfinite(z)):
            raise ConfigError(f"{key}: the point (t, z) = ({t}, {z}) must be finite")
    return points


def _range_of(x, name: str, positive: bool = False) -> tuple[float, float, int]:
    """(lo, hi, n) from a [lo, hi, n] setting; positive ranges are log-spaced."""
    if not isinstance(x, list) or len(x) != 3:
        raise ConfigError(f"{name} must be [lo, hi, n], got {x!r}")
    lo, hi, n = float(x[0]), float(x[1]), int(x[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name} = {x!r} needs finite lo, hi")
    if n < 2:
        raise ConfigError(f"{name} = {x!r} needs n >= 2")
    if positive and not (lo > 0 and hi > 0):
        raise ConfigError(f"{name} = {x!r} needs lo, hi > 0")
    return lo, hi, n


def load_config(path: str | Path, output_dir: str | None = None) -> RunConfig:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        if not isinstance(raw, dict):
            raise ConfigError("the configuration must be a JSON object")
        spec = ProblemSpec.from_dict(_section(raw, "problem"))
        cov = _section(raw, "covering")
        q = _section(raw, "quadrature")
        g = _section(raw, "grid")
        gspec = GridSpec(
            m_max=float(q.get("M", 40.0 / spec.beta)),
            m_nodes=int(q.get("m_nodes", 241)),
            T_min=g.get("T_min"), T_max=g.get("T_max"),
            density_factor=float(g.get("density_factor", 4.0)))
        tol = _section(raw, "tolerances")
        solve_tol = float(tol.get("solve_tol", 1e-11))
        formal_tol = float(tol.get("formal_tol", 1e-13))
        max_iter = int(tol.get("max_iter", 200))
        # `not x > 0` also rejects NaN
        for name, value in (("solve_tol", solve_tol), ("formal_tol", formal_tol)):
            if not value > 0:
                raise ConfigError(f"tolerances {name} = {value} must be > 0")
        if max_iter < 1:
            raise ConfigError(f"tolerances max_iter = {max_iter} must be >= 1")
        mg = _range_of(raw.get("geometry_m_grid", [-50.0, 50.0, 2001]), "geometry_m_grid")
        # the symmetry bound of the assumption checks, checked here for every verb
        if abs(mg[0] + mg[1]) > 1e-12 * max(1.0, abs(max(mg[:2]))):
            raise ConfigError(f"geometry_m_grid = {list(mg)} must be symmetric about 0")
        asym = _section(raw, "asymptotics")
        N_max = int(asym.get("N_max", 6))
        if N_max < 0:
            raise ConfigError(f"asymptotics N_max = {N_max} must be >= 0")
        points = _finite_points([_point_of(p) for p in raw.get("points", [])], "points")
        if "points_csv" in raw:
            base = Path(path).parent
            csv_path = Path(raw["points_csv"])
            if not csv_path.is_absolute():
                csv_path = base / csv_path
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape[1] < 4:
                raise ConfigError(f"{csv_path} needs columns re_t, im_t, re_z, im_z")
            points += _finite_points([(complex(row[0], row[1]), complex(row[2], row[3]))
                                      for row in data], "points_csv")
        eps_solve = _complex_of(raw.get("eps"), 0.75 * spec.eps0)
        if not (cmath.isfinite(eps_solve) and eps_solve != 0):
            raise ConfigError(f"eps = {eps_solve} must be finite and nonzero")
        zeta = int(cov.get("zeta", 2))
        if zeta < 2:
            raise ConfigError(f"covering zeta = {zeta} must be >= 2: a good covering "
                              "needs two sectors")
        t_radius = float(cov.get("t_radius", 0.02))
        t_aperture = float(cov.get("t_aperture", 0.1))
        t_direction = float(cov.get("t_direction", 0.0))
        # `not lo < x < inf` also rejects NaN
        if not 0 < t_radius < math.inf:
            raise ConfigError(f"covering t_radius = {t_radius} must be finite and > 0")
        if not 0 <= t_aperture < math.inf:
            raise ConfigError(f"covering t_aperture = {t_aperture} must be finite and >= 0")
        if not math.isfinite(t_direction):
            raise ConfigError(f"covering t_direction = {t_direction} must be finite")
        Delta = float(q.get("Delta", 0.5))
        if not (math.isfinite(Delta) and Delta > 0):
            raise ConfigError(f"quadrature Delta = {Delta} must be finite and > 0")
        out = Path(output_dir if output_dir is not None
                   else raw.get("output_dir", "out"))
        return RunConfig(
            spec=spec,
            zeta=zeta,
            t_radius=t_radius, t_aperture=t_aperture, t_direction=t_direction,
            Delta=Delta, gspec=gspec,
            solve_tol=solve_tol, max_iter=max_iter, formal_tol=formal_tol,
            eps_solve=eps_solve,
            points=points,
            N_max=N_max,
            eps_gevrey=_range_of(asym.get("eps_gevrey", [0.25 * spec.eps0, 0.9 * spec.eps0, 5]),
                                 "eps_gevrey", positive=True),
            eps_decay=_range_of(asym.get("eps_decay", [0.012 * spec.eps0, 0.9 * spec.eps0, 9]),
                                "eps_decay", positive=True),
            decay_pair=int(asym.get("pair", 0)),
            seed=int(raw.get("seed", 0)),
            output_dir=out,
            geometry_m_grid=np.linspace(*mg))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed configuration: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g},{x.imag:.17g}"
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, complex,
                                                        np.floating, np.complexfloating))
                              else str(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _covering(rc: RunConfig, ctx: dict):
    if "covering" not in ctx:
        ctx["covering"] = build_good_covering(
            rc.zeta, rc.spec.eps0, rc.spec, t_radius=rc.t_radius,
            t_aperture=rc.t_aperture, t_direction=rc.t_direction,
            m_grid=rc.geometry_m_grid, Delta=rc.Delta)
    return ctx["covering"]


def _geometry(rc: RunConfig, ctx: dict):
    if "geom" not in ctx:
        cov = _covering(rc, ctx)
        ctx["geom"] = make_geometry(rc.spec, cov.d_rays[0], m_grid=rc.geometry_m_grid)
    return ctx["geom"]


def _certificate(rc: RunConfig, ctx: dict):
    """(bound constants, operator constants, smallness check) of the first
    Borel direction, computed once per run: check-geometry reports them and
    solve writes the smallness pass next to its solve."""
    if "certificate" not in ctx:
        spec = rc.spec
        geom = _geometry(rc, ctx)
        consts = bound_constants(spec, geom, rc.geometry_m_grid)
        ops = operator_constants(spec, geom, consts, rc.geometry_m_grid)
        small = check_smallness(spec, consts, spec.eps0, spec.coeffs.C_B,
                                ops["C2_plain"], ops["C3"])
        ctx["certificate"] = (consts, ops, small)
    return ctx["certificate"]


def cmd_check_geometry(rc: RunConfig, ctx: dict) -> int:
    spec = rc.spec
    rep = validate_assumptions(spec, rc.geometry_m_grid)
    failures = [{"name": c.name, "witness": c.witness} for c in rep.failures()]
    rows = [(c.name, int(c.passed), c.witness or "", "" if c.value is None else _fmt(c.value))
            for c in rep.checks]
    consts, ops = {}, None
    assump_d = {"pass": False}
    small = {"pass": False}
    try:
        consts, ops, small = _certificate(rc, ctx)
        assump_d = check_assumption_d(spec, consts)
        rows.append(("D.condition", int(assump_d["pass"]), "",
                     _fmt(assump_d["margin"])))
        rows.append(("smallness", int(small["pass"]), "", _fmt(small["lhs"])))
        if not assump_d["pass"]:
            failures.append({"name": "D.condition",
                             "witness": f"k_threshold={assump_d['k_threshold']}"})
        if not small["pass"]:
            failures.append({"name": "smallness", "witness": f"lhs={small['lhs']:.6g}"})
    except GeometryError as exc:
        failures.append({"name": "geometry", "witness": str(exc)})

    write_csv(rc.output_dir / "assumptions.csv",
              ["check", "passed", "witness", "value"], rows)
    const_rows = sorted(consts.items())
    if assump_d:
        const_rows.append(("k_threshold", assump_d.get("k_threshold", math.nan)))
    if ops is not None:
        const_rows.append(("C2_plain", ops["C2_plain"]))
        for i, c in enumerate(ops["C3"], start=1):
            const_rows.append((f"C3_{i}", c))
    write_csv(rc.output_dir / "constants.csv", ["name", "value"], const_rows)
    write_json(rc.output_dir / "geometry_report.json", {
        "passed": not failures, "failures": failures,
        "assumption_d": assump_d, "smallness": small,
        "D1": rep.D1, "D2": rep.D2,
        "arc_center": rep.arc_center, "arc_width": rep.arc_width,
    })
    if failures:
        write_json(rc.output_dir / "witness.json", {"failures": failures})
        return 2
    return 0


def _line(rc: RunConfig, ctx: dict):
    """(grid, kernels): `build_grid`'s line in the first Borel direction and
    the eps_solve kernels on it, built once per run.  One kernel build
    serves the whole-line solve, the contraction probe, the Taylor
    expansion of the held-row solve and the Borel residual."""
    if "grid" not in ctx:
        ctx["grid"] = build_grid(rc.spec, _geometry(rc, ctx), rc.gspec)
    if "eps_kernels" not in ctx:
        ctx["eps_kernels"] = eps_kernels(rc.spec, ctx["grid"].m, rc.eps_solve)
    return ctx["grid"], ctx["eps_kernels"]


def _relative(value: float, norms) -> float:
    """value over the larger weighted solution norm (absolute when the
    solution is zero), so rounding noise reads near machine epsilon."""
    scale = max(norms)
    return value / scale if scale > 0 else value


def cmd_solve(rc: RunConfig, ctx: dict) -> int:
    small = _certificate(rc, ctx)[2]
    grid, kernels = _line(rc, ctx)
    # the paper's fixed point, by Picard on the whole line; its rows are
    # written out here and not kept in ctx
    w0, w1, report = solve_coupled(rc.spec, rc.eps_solve, grid, tol=rc.solve_tol,
                                   max_iter=rc.max_iter, kernels=kernels)
    np.savez(rc.output_dir / "omega.npz", tau=grid.stacked_tau,
             m=grid.m, omega0=w0, omega1=w1)
    weights = grid.stacked_weights(rc.spec)
    sup0, sup1 = (np.max(weights[:-1] * np.abs(w[:-1]), axis=1) for w in (w0, w1))
    write_csv(rc.output_dir / "norms.csv",
              ["re_tau", "im_tau", "weighted_omega0", "weighted_omega1"],
              list(zip(grid.tau.real, grid.tau.imag, sup0, sup1)))
    contraction = contraction_estimate(rc.spec, rc.eps_solve, grid, probes=4,
                                       seed=rc.seed, kernels=kernels)
    # two methods, one fixed point: the rows that evaluate and residual read
    # against the Picard rows
    sol = _log_solution(rc, ctx)
    gap = max(_weighted_sup(a - b, weights) for a, b in ((w0, sol.w0), (w1, sol.w1)))
    write_json(rc.output_dir / "solve_report.json", {
        "eps": rc.eps_solve, "iterations": report.iterations,
        "final_update": report.final_update,
        "contraction_iter": report.contraction,
        "contraction_probe": contraction,
        "norms": list(report.norms), "residual": report.residual,
        "smallness_ok": small["pass"], "varpi": report.varpi,
        "grid_nodes": grid.n_nodes, "ladder_density": grid.N,
        "taylor_gap": _relative(gap, report.norms),
    })
    return 0


def _log_solution(rc: RunConfig, ctx: dict) -> LogSolution:
    """The solution that evaluate and residual read, on `build_grid`'s line:
    its rows up to the lower of the line's top and the arc rung summed from
    the Taylor series at tau = 0, and Picard only above (`solve_held`).  It
    carries the coefficients, so on a line that ends below the arc rung its
    q-Laplace transform is their closed form."""
    if "log_solution" not in ctx:
        grid, kernels = _line(rc, ctx)
        radius = grid.radius_of_rung(min(grid.g_hi, grid.arc_rung()))
        coef = taylor_at_origin(rc.spec, rc.eps_solve, grid.m, radius, kernels)
        w0, w1, _, _ = solve_held(rc.spec, rc.eps_solve, grid, coef, kernels,
                                  tol=rc.solve_tol, max_iter=rc.max_iter)
        ctx["log_solution"] = LogSolution(rc.spec, grid, w0, w1, rc.eps_solve,
                                          Delta=rc.Delta, taylor=coef)
    return ctx["log_solution"]


def cmd_evaluate(rc: RunConfig, ctx: dict) -> int:
    if not rc.points:
        raise UsageError("evaluate requires points in the configuration")
    sol = _log_solution(rc, ctx)
    rows = [(t.real, t.imag, z.real, z.imag, u0.real, u0.imag, u1.real, u1.imag,
             u.real, u.imag)
            for (t, z), (u0, u1, u) in zip(rc.points, sol.evaluate_points(rc.points))]
    write_csv(rc.output_dir / "evaluate.csv",
              ["re_t", "im_t", "re_z", "im_z", "re_u0", "im_u0",
               "re_u1", "im_u1", "re_u", "im_u"], rows)
    return 0


def cmd_residual(rc: RunConfig, ctx: dict) -> int:
    if not rc.points:
        raise UsageError("residual requires points in the configuration")
    sol = _log_solution(rc, ctx)
    borel = residual_borel(sol.w0, sol.w1, rc.spec, rc.eps_solve, sol.grid,
                           kernels=_line(rc, ctx)[1])
    defects = residual_physical(sol, rc.spec, rc.points)
    rows = [(t.real, t.imag, z.real, z.imag, float(r))
            for (t, z), r in zip(rc.points, defects)]
    write_csv(rc.output_dir / "residual.csv",
              ["re_t", "im_t", "re_z", "im_z", "defect"], rows)
    write_json(rc.output_dir / "residual_report.json", {
        "borel_residual": borel, "physical_residual_max": float(defects.max()),
    })
    return 0


def _series(rc: RunConfig, ctx: dict):
    if "series" not in ctx:
        ctx["series"] = formal_coefficients(rc.spec, rc.N_max + 1,
                                            tol=rc.formal_tol,
                                            m_grid=rc.gspec.m_grid())
    return ctx["series"]


def cmd_formal(rc: RunConfig, ctx: dict) -> int:
    series = _series(rc, ctx)
    for n in range(series.order + 1):
        rows = [(j, p, m, v.real, v.imag)
                for j in (0, 1) for p, arr in enumerate(series.coef[j, n, :n + 1])
                if arr.any() for m, v in zip(series.m, arr)]
        write_csv(rc.output_dir / f"formal_order_{n}.csv",
                  ["component", "t_power", "m", "re", "im"], rows)
    res = formal_residual(series, rc.spec, series.order)
    write_json(rc.output_dir / "formal_report.json", {
        "order": series.order, "residual": res, "tol": rc.formal_tol,
    })
    return 0


def _relative_residual(report) -> float:
    """A solve's residual relative to its norms (`_relative`)."""
    return _relative(report.residual, report.norms)


def cmd_asymptotics(rc: RunConfig, ctx: dict) -> int:
    # the eps_solve kernels serve `solve`, the Taylor expansion that
    # `evaluate` and `residual` read and the Borel residual only; released
    # here, they do not sit under the peak memory of the solves below (a
    # later verb that still wants them builds them again)
    ctx.pop("eps_kernels", None)
    cov = _covering(rc, ctx)
    series = _series(rc, ctx)
    family = SolutionFamily(rc.spec, cov, rc.gspec, tol=min(rc.solve_tol, 1e-12),
                            m_grid=rc.geometry_m_grid)
    lo, hi, n = rc.eps_gevrey
    eps_g = [complex(m) * np.exp(1j * cov.directions[0])
             for m in np.exp(np.linspace(math.log(lo), math.log(hi), n))]
    grep = gevrey_remainder_check(family, 0, series, rc.N_max, eps_g)
    rows = []
    for N in sorted(grep.remainders):
        for eps, r in zip(grep.eps_samples, grep.remainders[N]):
            rows.append((N, abs(eps), r))
    write_csv(rc.output_dir / "remainders.csv", ["N", "abs_eps", "R_N"], rows)

    lo, hi, n = rc.eps_decay
    arg = np.angle(cov.overlap_sample(rc.decay_pair))
    eps_d = [complex(m * np.exp(1j * arg))
             for m in np.exp(np.linspace(math.log(lo), math.log(hi), n))]
    drep = difference_decay_fit(family, rc.decay_pair, eps_d)
    rows = [(abs(e), float(np.angle(e)), d0, d1)
            for e, d0, d1 in zip(drep.eps_samples, drep.decay[0], drep.decay[1])]
    write_csv(rc.output_dir / "decay.csv",
              ["abs_eps", "arg_eps", "delta0", "delta1"], rows)
    reports = list(family.reports.values())
    arc_orders = family.arc_orders
    write_json(rc.output_dir / "fits.json", {
        "gevrey": {"A": grep.fit_A, "C": grep.fit_C,
                   "fit_residual": grep.fit_residual,
                   "ratio_table": grep.ratio_table,
                   "ratio_monotone": grep.ratio_monotone,
                   "warnings": grep.warnings},
        "decay": {"coefficients": list(drep.decay_coeffs),
                  "target_quadratic": drep.target_quadratic,
                  "relative_deviation": drep.relative_deviation,
                  "samples_used": len(drep.eps_samples),
                  "warnings": drep.warnings},
        "solves": {"borel_solves": len(reports),
                   "grid_rows": family.grid_rows,
                   "picard_iterations": sum(len(r.update_history) for r in reports),
                   "worst_residual": max((r.residual for r in reports), default=0.0),
                   "worst_relative_residual": max(map(_relative_residual, reports),
                                                  default=0.0),
                   "decay_nudges": drep.nudges,
                   "arc_expansions": len(arc_orders),
                   "arc_terms_max": max(arc_orders, default=0)},
    })
    return 0


def cmd_all(rc: RunConfig, ctx: dict) -> int:
    code = cmd_check_geometry(rc, ctx)
    if code != 0:
        return code
    for fn in (cmd_solve, cmd_evaluate, cmd_residual, cmd_formal, cmd_asymptotics):
        code = fn(rc, ctx)
        if code != 0:
            return code
    return 0


DISPATCH = {
    "check-geometry": cmd_check_geometry,
    "solve": cmd_solve,
    "evaluate": cmd_evaluate,
    "residual": cmd_residual,
    "formal": cmd_formal,
    "asymptotics": cmd_asymptotics,
    "all": cmd_all,
}


def run(command: str, config_path: str | Path, output_dir: str | None = None) -> int:
    """Programmatic entry point mirroring the CLI contract."""
    if command not in DISPATCH:
        print(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}",
              file=sys.stderr)
        return 64
    try:
        rc = load_config(config_path, output_dir)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 65
    rc.output_dir.mkdir(parents=True, exist_ok=True)
    write_json(rc.output_dir / "run_report.json", {
        "version": __version__, "command": command, "seed": rc.seed,
        "solve_tol": rc.solve_tol, "m_nodes": rc.gspec.m_nodes,
        "M": rc.gspec.m_max, "zeta": rc.zeta,
    })
    ctx: dict = {}
    try:
        return DISPATCH[command](rc, ctx)
    except GeometryError as exc:
        print(f"geometry failure: {exc}", file=sys.stderr)
        write_json(rc.output_dir / "witness.json", {"failures": [str(exc)]})
        return 2
    except (DomainError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 65


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qborel",
        description="Analytic and formal solutions of a singularly perturbed "
                    "q-difference-differential equation, with verification.")
    parser.add_argument("command", help=f"one of: {', '.join(COMMANDS)}")
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 64
    return run(args.command, args.config, args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
