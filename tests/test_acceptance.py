"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 1-6 and 8 run on the bundled worked instance (k = 13, q = 2, D = 2);
criterion 7 runs on the wide-eps variant where two decades of |eps| stay
representable.  Stated tolerances are asserted exactly as given.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qborel.borel_solver import GridSpec, build_grid, contraction_estimate, solve_coupled, solve_triangular
from qborel.cli import run
from qborel.formal_asymptotics import (
    SolutionFamily,
    difference_decay_fit,
    evaluate_formal,
    formal_coefficients,
    formal_residual,
    gevrey_remainder_check,
)
from qborel.geometry import bound_constants, build_good_covering, check_assumption_d, make_geometry
from qborel.problem_model import ProblemSpec, polyval_im, validate_assumptions
from qborel.solution_assembly import LogSolution, residual_borel, residual_physical
from qborel.special_functions import theta, theta_scaled
from tests.oracles import (
    QuadratureSpec,
    q_laplace,
    q_laplace_operational_check,
    theta_bound_margin,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _report(num, desc, dt=None):
    stamp = "" if dt is None else f" [{dt:.1f}s]"
    print(f"\nACCEPTANCE {num}: PASS - {desc}{stamp}")


def test_criterion_1_example_reproduction(problem_dict):
    t0 = time.perf_counter()
    spec = ProblemSpec.from_dict(problem_dict)
    m_grid = np.linspace(-50, 50, 2001)
    rep = validate_assumptions(spec, m_grid)
    assert rep.passed
    assert abs(rep.D1 - 0.5) < 1e-6
    assert abs(rep.D2 - 1.0) < 1e-6
    from qborel.geometry import pm_roots

    assert pm_roots(spec, 0.0)[0] == -0.5 + 0.0j  # exact
    geom = make_geometry(spec, d=0.0, m_grid=m_grid)
    consts = bound_constants(spec, geom, m_grid)
    assert consts["D31"] >= 1.0
    assert abs(consts["D32"] - 1.0 / 3.0) <= 1e-9
    assert abs(consts["D3"] - 1.0 / 3.0) <= 1e-9
    assert consts["C_D"] >= 0.5
    res = check_assumption_d(spec, consts)
    assert res["k_threshold"] == 13 and res["pass"]
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(1, "worked-example constants and k threshold", dt)


def test_criterion_2_transform_identities():
    t0 = time.perf_counter()
    quad = QuadratureSpec(nodes_per_decade=48)
    pairs = [(2.0, 1), (2.0, 3), (1.5, 2)]
    T_values = [0.05 * np.exp(0.25j * np.pi), 0.12 * np.exp(-0.3j),
                0.2 * np.exp(0.5j * np.pi), 0.33 * np.exp(0.1j),
                0.45 * np.exp(-0.45j * np.pi)]
    for q, k in pairs:
        for n in range(7):
            for T in T_values:
                got, _ = q_laplace(lambda u: u ** n, T, 0.0, q, k, quad)
                want = (q ** (1.0 / k)) ** (n * (n - 1) / 2.0) * T ** n
                assert abs(got - want) < 1e-8 * abs(want)
    T = 0.08 * np.exp(0.35j)
    for sigma in (0.0, 1.0, 2.0):
        for j in (0.0, 0.5, 1.0):
            lhs, rhs = q_laplace_operational_check(
                lambda u: u ** 2, sigma, j, T, 0.0, 2.0, 2, quad)
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(2, "q-Laplace monomial and operational identities", dt)


def test_criterion_3_theta_suite():
    t0 = time.perf_counter()
    q, k = 2.0, 1
    for m in range(-3, 4):
        z = -(q ** (m / k))
        _, log_scale = theta_scaled(z, q, k)
        assert abs(theta(z, q, k)) < 1e-10 * math.exp(log_scale)
    rng_pts = [0.4 + 0.2j, 2.0j, -3.0 + 1.0j, 7.0, 0.05 * 1j]
    for z in rng_pts:
        lhs = theta(q ** (1.0 / k) * z, q, k)
        rhs = q ** (1.0 / k) * z * theta(z, q, k)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    radii = np.exp(np.linspace(math.log(1e-2), math.log(1e3), 100))
    margins = [theta_bound_margin(r * 1j, q, k, 0.5) for r in radii]
    assert min(margins) > 0
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(3, "theta zeros, functional identity, lower-bound margin", dt)


def test_criterion_4_solver_suite(golden):
    t0 = time.perf_counter()
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    w0, w1, rep = solve_coupled(spec, eps, grid, tol=1e-10)
    assert rep.iterations <= 60 and rep.final_update < 1e-10
    contraction = contraction_estimate(spec, eps, grid, probes=4, seed=11)
    assert contraction <= 0.55
    borel = residual_borel(w0, w1, spec, eps, grid)
    assert borel <= 1e-8
    sol = LogSolution(spec, grid, w0, w1, eps)
    points = [(0.008, -0.3), (0.016, 0.0), (0.012, 0.4),
              (0.010 + 0.002j, 0.1), (0.014, -0.1 + 0.2j)]
    phys = residual_physical(sol, spec, points).max()
    assert phys <= 1e-6
    w0t, w1t, _ = solve_triangular(spec, eps, grid, tol=1e-10)
    nodewise = max(np.max(np.abs(w0t[:-1] - w0[:-1])),
                   np.max(np.abs(w1t[:-1] - w1[:-1])),
                   np.max(np.abs(w0t[-1] - w0[-1])),
                   np.max(np.abs(w1t[-1] - w1[-1])))
    assert nodewise <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(4, f"solver: {rep.iterations} iters, contraction {contraction:.3f}, "
               f"borel {borel:.2e}, physical {phys:.2e}, "
               f"triangular agreement {nodewise:.2e}", dt)


def test_criterion_5_disc_agreement(golden):
    # every sector shares omega on the disc D(0, rho): the lines of both
    # directions, at or below rung 0, and the centre must equal one Taylor sum
    # at tau = 0, which does not depend on the direction
    from tests.conftest import disc_taylor_gap

    spec, eps, gspec = golden["spec"], golden["eps"], golden["gspec"]
    geom2 = make_geometry(spec, d=0.3)
    geom2.rho = golden["geom"].rho
    geom2.delta = golden["geom"].delta
    grid2 = build_grid(spec, geom2, gspec)
    w0b, w1b, _ = solve_coupled(spec, eps, grid2, tol=1e-11)
    worst = disc_taylor_gap(spec, eps, [(golden["grid"], golden["w0"], golden["w1"]),
                                        (grid2, w0b, w1b)])
    assert worst <= 1e-8
    _report(5, f"disc agreement across directions: {worst:.2e}")


def test_criterion_6_formal_suite(golden, problem_dict):
    spec = golden["spec"]
    m_small = np.linspace(-12, 12, 241)
    series = formal_coefficients(spec, 6, m_grid=m_small)
    res = formal_residual(series, spec, 6)
    assert res <= 1e-9
    # order-0 coefficients against the eps -> 0 analytic limit
    sol = LogSolution(spec, golden["grid"], *_resolve(spec, golden, 0.002), 0.002)
    for (t, z) in [(0.012, 0.1), (0.016, -0.2)]:
        for j in (0, 1):
            u = sol.component(j, t, z)
            v0 = evaluate_formal(series, j, t, z, 0.0, 0)
            assert abs(u - v0) <= 0.01 * abs(v0)
    # with b, c off the order-0 data is the direct Fourier division
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    problem_dict["terms"][0]["C"] = None
    bare = ProblemSpec.from_dict(problem_dict)
    bare_series = formal_coefficients(bare, 1, m_grid=m_small)
    Q = polyval_im(bare.Q, m_small)
    for j in (0, 1):
        sym = bare.forcing.powers(j)[0]
        want = sym.eps_coefficient(0)(m_small) / Q
        assert np.max(np.abs(bare_series.coef[j][0][0] - want)) <= 1e-10
    _report(6, f"formal residual {res:.2e}, order-0 limits, division oracle")


def _resolve(spec, golden, eps):
    w0, w1, _ = solve_coupled(spec, eps, golden["grid"], tol=1e-12)
    return w0, w1


@pytest.fixture(scope="module")
def wide_instance():
    from tests.conftest import example_problem_dict

    d = example_problem_dict()
    d["eps0"] = 0.3
    spec = ProblemSpec.from_dict(d)
    cov = build_good_covering(2, spec.eps0, spec, t_radius=0.08, t_aperture=0.1,
                              m_grid=np.linspace(-50, 50, 401))
    gspec = GridSpec(m_max=12.0, m_nodes=161, T_min=5e-6, T_max=0.025)
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    series = formal_coefficients(spec, 7, m_grid=np.linspace(-12, 12, 161))
    return spec, cov, family, series


def test_criterion_7_asymptotics_suite(wide_instance):
    t0 = time.perf_counter()
    spec, cov, family, series = wide_instance
    arg = np.angle(cov.overlap_sample(0))
    mags = np.exp(np.linspace(math.log(3e-3), math.log(0.27), 9))
    eps_decay = [m * np.exp(1j * arg) for m in mags]
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1),
              (0.04 * np.exp(1j * cov.t_direction), -0.2)]
    drep = difference_decay_fit(family, 0, eps_decay, probes=probes)
    decades = math.log10(abs(drep.eps_samples[-1]) / abs(drep.eps_samples[0]))
    assert decades >= 1.9
    assert drep.relative_deviation <= 0.10
    eps_g = [complex(m) for m in (0.27, 0.2, 0.15, 0.11, 0.08)]
    grep = gevrey_remainder_check(family, 0, series, 6, eps_g,
                                  probes=[(0.06, 0.1), (0.05, -0.2), (0.04, 0.25)])
    assert len(grep.ratio_table) >= 5
    assert all(b > a for a, b in zip(grep.ratio_table[:5], grep.ratio_table[1:5]))
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(7, f"decay exponent {drep.decay_coeffs[0]:.3f} vs "
               f"{drep.target_quadratic:.3f} ({100 * drep.relative_deviation:.1f}%), "
               f"ratio trend monotone", dt)


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = CONFIG_DIR / "example_k13.json"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run("all", cfg, str(out1)) == 0
    assert run("all", cfg, str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    dt = time.perf_counter() - t0
    _report(8, f"byte-identical `all` outputs over {len(names)} files", dt)
