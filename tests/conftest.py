import copy
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

# the config table's `geometry_m_grid` and `quadrature.Delta` defaults, which
# the command line passes to the library
GEOMETRY_M_GRID = np.linspace(-50.0, 50.0, 2001)
DELTA = 0.5


def example_problem_dict():
    """Problem data for the worked instance: Q = 1 - z^2, R_D = -2 + z^2,
    d_D = 1, k = 13, one lower-order term, smooth (Gaussian) symbols."""
    return {
        "D": 2,
        "k": 13,
        "q": 2.0,
        "dD": 1,
        "terms": [
            {
                "d": 2,
                "Delta": 3,
                "delta": [1, 13],
                "R": [0.25, 0.0, 0.25],
                "C": {"num": [0.01], "gauss": 1.0, "eps_poly": [1.0, 0.2]},
            }
        ],
        "Q": [1.0, 0.0, -1.0],
        "RD": [-2.0, 0.0, 1.0],
        "beta": 1.0,
        "beta_prime": 0.5,
        "mu": 3.5,
        "alpha": 0.25,
        "eps0": 0.02,
        "varsigma": 0.05,
        "forcing": {
            "f0": {
                "0": {"num": [0.1], "gauss": 1.0, "eps_poly": [1.0, 0.5]},
                "1": {"num": [0.05], "den": [1.0, 0.0, 1.0], "gauss": 1.0},
            },
            "f1": {"0": {"num": [0.08], "gauss": 1.0}},
            "CF": 2.0,
        },
        "coeffs": {
            "b00": {"num": [0.0008], "gauss": 1.0},
            "b01": None,
            "b10": {"num": [0.0006], "gauss": 1.0},
            "b11": {"num": [0.0006], "gauss": 1.0},
            "CB": 0.011,
            "CC": 0.25,
        },
    }


def kept_rows(full, cut):
    """Rows of the full grid's stacked samples that the bottom-cut grid cut
    keeps, in cut's order: the line from its bottom rung, then the centre."""
    start = cut.g_lo - full.g_lo
    return np.r_[start:start + cut.n_nodes, full.n_nodes]


def arc_sample_gap(sol, samples: int = 16, octaves: float = 4.0) -> float:
    """Largest gap, relative to the largest value, between the Taylor series
    that sol carries, summed at `samples` uniform angles on the arc rung's
    circle, and solved ring lines `octaves` deep at those angles."""
    from qborel.borel_solver import taylor_values
    from tests.oracles import arc_values

    g_arc = sol.grid.arc_rung()
    ring = sol.grid.radius_of_rung(g_arc) * np.exp(2j * math.pi * np.arange(samples) / samples)
    worst = 0.0
    for got, ref in zip(taylor_values(sol.taylor, ring),
                        arc_values(sol.spec, sol.eps, sol.grid, g_arc, samples, octaves)):
        worst = max(worst, float(np.abs(got - ref).max() / np.abs(ref).max()))
    return worst


def disc_taylor_gap(spec, eps, sols) -> float:
    """Largest gap between one Taylor sum at tau = 0, summed to the disc
    radius rho, and the solved rows of each (grid, w0, w1) in sols at or
    below rung min(0, top) (inside the disc D(0, rho)) and at the centre."""
    from qborel.borel_solver import taylor_at_origin, taylor_values

    grid0 = sols[0][0]
    coef = taylor_at_origin(spec, eps, grid0.m, grid0.rho)
    worst = 0.0
    for grid, *ws in sols:
        disc = min(0, grid.g_hi) + 1 - grid.g_lo
        rows = np.r_[0:disc, grid.n_nodes]
        ref = taylor_values(coef, grid.stacked_tau[rows])
        for w, want in zip(ws, ref):
            worst = max(worst, float(np.abs(w[rows] - want).max()))
    return worst


def taylor_solution(spec, grid, w0, w1, eps):
    """The `LogSolution` of the solved rows w0, w1 on grid at eps, carrying
    the Taylor coefficients at tau = 0 summed to the radius of the grid's
    Taylor rung, as `borel_solver.solve_held` takes them."""
    from qborel.borel_solver import taylor_at_origin
    from qborel.solution_assembly import LogSolution

    coef = taylor_at_origin(spec, eps, grid.m, grid.radius_of_rung(grid.taylor_rung()))
    return LogSolution(spec, grid, w0, w1, eps, taylor=coef, Delta=DELTA)


@pytest.fixture
def problem_dict():
    return copy.deepcopy(example_problem_dict())


@pytest.fixture
def example_spec(problem_dict):
    from qborel.problem_model import ProblemSpec

    return ProblemSpec.from_dict(problem_dict)


GOLDEN_T_RADIUS = 0.02
GOLDEN_EPS = 0.015


@pytest.fixture(scope="session")
def golden():
    """Solved fixed point of the worked instance, shared across modules."""
    from qborel.borel_solver import GridSpec, build_grid, solve_coupled
    from qborel.geometry import bound_constants, check_smallness, make_geometry, operator_constants
    from qborel.problem_model import ProblemSpec

    spec = ProblemSpec.from_dict(example_problem_dict())
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    consts = bound_constants(spec, geom, GEOMETRY_M_GRID)
    ops = operator_constants(spec, geom, consts, GEOMETRY_M_GRID)
    small = check_smallness(spec, consts, spec.eps0, spec.coeffs.C_B,
                            ops["C2_plain"], ops["C3"])
    t_max = spec.eps0 * GOLDEN_T_RADIUS
    gspec = GridSpec(m_max=12.0, m_nodes=241, density_factor=4.0, T_max=t_max)
    grid = build_grid(spec, geom, gspec)
    w0, w1, report = solve_coupled(spec, GOLDEN_EPS, grid)
    return {
        "spec": spec, "geom": geom, "consts": consts, "ops": ops,
        "smallness": small, "grid": grid, "gspec": gspec,
        "eps": GOLDEN_EPS, "t_radius": GOLDEN_T_RADIUS,
        "w0": w0, "w1": w1, "report": report,
    }


def perfbench_module(name: str):
    """The benchmark's module perfbench/<name>.py, imported with perfbench/ on
    sys.path, where checks.py finds workloads.py, and with no bytecode cache
    written into the benchmark's directory."""
    saved_path, saved_flag = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag


@pytest.fixture(scope="session")
def example_all(tmp_path_factory):
    """The output directory of `all` on the shipped example, run once: the
    determinism criterion runs it again, and the run-level checks read it."""
    from qborel.cli import run

    out = tmp_path_factory.mktemp("example_all")
    assert run("all", CONFIG_DIR / "example_k13.json", str(out)) == 0
    return out


@pytest.fixture(scope="session")
def wide_asymptotics(tmp_path_factory):
    """`asymptotics` on the shipped wide config, run once: its output
    directory, and the m grid of each kernel build and each order block the
    run made."""
    from qborel.borel_solver import OrderBlock, SymbolKernels
    from qborel.cli import run

    builds, blocks = [], []
    build = SymbolKernels.build.__func__
    init = OrderBlock.__init__

    def counted_build(cls, spec, m):
        builds.append(m.tobytes())
        return build(cls, spec, m)

    def counted_init(self, spec, m):
        blocks.append(m.tobytes())
        init(self, spec, m)

    out = tmp_path_factory.mktemp("wide_asymptotics")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SymbolKernels, "build", classmethod(counted_build))
        mp.setattr(OrderBlock, "__init__", counted_init)
        assert run("asymptotics", CONFIG_DIR / "asymptotics_k13.json", str(out)) == 0
    return out, builds, blocks
