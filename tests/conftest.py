import copy

import numpy as np
import pytest


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


def arc_sample_gap(sol, octaves: float = 4.0) -> float:
    """Largest gap, relative to the largest sample, between the arc samples
    that sol sums from the Taylor series at tau = 0 and solved ring lines
    `octaves` deep at the arc rung."""
    from tests.oracles import arc_values

    g_arc = sol.grid.arc_rung()
    worst = 0.0
    for got, ref in zip(sol._arc_samples(g_arc),
                        arc_values(sol.spec, sol.eps, sol.grid, g_arc, octaves)):
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
    geom = make_geometry(spec, d=0.0)
    consts = bound_constants(spec, geom)
    ops = operator_constants(spec, geom, consts)
    small = check_smallness(spec, consts, spec.eps0, spec.coeffs.C_B,
                            ops["C2_plain"], ops["C3"])
    t_max = spec.eps0 * GOLDEN_T_RADIUS
    gspec = GridSpec(T_min=t_max / 1000.0, T_max=t_max)
    grid = build_grid(spec, geom, gspec)
    w0, w1, report = solve_coupled(spec, GOLDEN_EPS, grid, tol=1e-11)
    return {
        "spec": spec, "geom": geom, "consts": consts, "ops": ops,
        "smallness": small, "grid": grid, "gspec": gspec,
        "eps": GOLDEN_EPS, "t_radius": GOLDEN_T_RADIUS,
        "w0": w0, "w1": w1, "report": report,
    }
