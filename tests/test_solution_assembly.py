import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from qborel.borel_solver import (GridSpec, build_grid, solve_coupled, solve_triangular,
                                 taylor_at_origin)
from qborel.errors import DomainError, UsageError
from qborel.geometry import make_geometry
from qborel.problem_model import ProblemSpec
import qborel.solution_assembly as assembly
import qborel.special_functions as special_functions
from qborel.solution_assembly import (
    LogSolution,
    residual_borel,
    residual_physical,
    solution_difference,
)
from qborel.transforms import inverse_fourier
from tests.conftest import kept_rows
from tests.oracles import (QuadratureSpec, monodromy_components, q_laplace,
                           residual_physical_per_component, stacked)


@pytest.fixture
def golden_solution(golden):
    return LogSolution(golden["spec"], golden["grid"], golden["w0"],
                       golden["w1"], golden["eps"])


def test_zero_density_evaluates_to_zero(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    zero = stacked(grid, 0.0, 0.0)
    sol = LogSolution(spec, grid, zero, zero.copy(), eps)
    assert sol.component(0, 0.01, 0.1) == 0.0
    assert sol.evaluate(0.01, 0.1) == 0.0


def test_linear_density_reproduces_monomial_rule(golden):
    # omega(u, m) = u * g(m) must assemble to (eps t) * F^{-1}(g)(z)
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    m = grid.m
    g = np.exp(-(m ** 2))
    w = stacked(grid, grid.tau[:, None] * g[None, :], 0.0)
    sol = LogSolution(spec, grid, w, stacked(grid, 0.0, 0.0), eps)
    for (t, z) in [(0.012, 0.2), (0.005 + 0.004j, -0.3 + 0.2j), (0.018, 0.0)]:
        got = sol.component(0, t, z)
        want = eps * t * inverse_fourier(g, complex(z), m)
        assert abs(got - want) < 1e-10 * abs(want)


@pytest.mark.parametrize("n", range(4))
def test_ladder_laplace_matches_the_monomial_transform(golden, n):
    # Analytic oracle for the production q-Laplace sum: the density
    # tau^n (x) g_j(m) on the principal line and the centre must assemble to
    # q^(n(n-1)/2k) T^n F^{-1}(g_j)(z), T = eps t, across the grid's
    # [T_min, T_max].  The bound was fixed before this test first ran: on
    # a density_factor 8 ladder (N = 26 instead of 13) every value here
    # moves by under 7e-15 relative, so the default ladder's quadrature
    # error is at rounding level and 1e-13 leaves room only for rounding.
    spec, grid, eps, gspec = golden["spec"], golden["grid"], golden["eps"], golden["gspec"]
    m = grid.m
    gs = (np.exp(-m ** 2) * (1.0 + 0.3j * m), np.exp(-0.5 * m ** 2) / (1.0 + m ** 2))
    ws = []
    for g in gs:
        ws.append(stacked(grid, grid.tau[:, None] ** n * g[None, :], g if n == 0 else 0.0))
    sol = LogSolution(spec, grid, ws[0], ws[1], eps)
    Ts = [1.05 * gspec.T_min * np.exp(-0.2j), 1e-6 * np.exp(0.3j),
          2e-5 * np.exp(-0.45j), 1e-4, 0.975 * gspec.T_max * np.exp(0.4j)]
    factor = spec.q ** (n * (n - 1) / (2.0 * spec.k))
    for T in Ts:
        assert gspec.T_min <= abs(T) <= gspec.T_max
        for z in (0.0, 0.3 - 0.1j):
            for j, g in enumerate(gs):
                got = sol.component(j, T / eps, z)
                want = factor * T ** n * inverse_fourier(g, complex(z), m)
                assert abs(got - want) <= 1e-13 * abs(want), (n, T, z, j)


def test_component_linearity_in_density(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    rng = np.random.default_rng(21)
    m = grid.m
    env = np.exp(-(m ** 2))

    def rand_density():
        profile = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        poly = (profile[0] + profile[1] * grid.tau + profile[2] * grid.tau ** 2)
        return stacked(grid, poly[:, None] * env[None, :], profile[0] * env)

    a, b = rand_density(), rand_density()
    lam = 0.6 - 0.3j
    t, z = 0.011, 0.15
    sol_a = LogSolution(spec, grid, a, a, eps)
    sol_b = LogSolution(spec, grid, b, b, eps)
    sol_ab = LogSolution(spec, grid, a + lam * b, a + lam * b, eps)
    va = sol_a.component(0, t, z)
    vb = sol_b.component(0, t, z)
    vab = sol_ab.component(0, t, z)
    assert abs(vab - (va + lam * vb)) < 1e-12 * max(abs(va), abs(vb))


def _fresh(sol, Delta=None):
    """The same solution with empty caches."""
    return LogSolution(sol.spec, sol.grid, sol.w0, sol.w1, sol.eps,
                       Delta=sol.Delta if Delta is None else Delta, taylor=sol.taylor)


def test_cached_components_match_fresh_solution(golden_solution):
    sol = golden_solution
    spec = sol.spec
    qdk = spec.q ** (spec.dD / spec.k)
    qd = spec.q ** float(spec.terms[0].delta)
    ts = [0.008, 0.012 + 0.002j]
    ts += [qdk * t for t in ts] + [qd * t for t in ts]
    mults = [None, spec.Q, spec.RD, spec.terms[0].R]
    cases = [(j, t, z, mult) for t in ts for z in (-0.3, 0.1 + 0.2j, 0.4)
             for mult in mults for j in (0, 1)]
    first = [sol.component(*c) for c in cases]
    again = [sol.component(*c) for c in reversed(cases)][::-1]
    assert first == again
    for case, val in zip(cases, first):
        assert _fresh(sol).component(*case) == val


def test_pair_cache_is_bounded(golden_solution, monkeypatch):
    monkeypatch.setattr(assembly, "PAIR_CACHE_LIMIT", 2)
    sol = _fresh(golden_solution)
    ts = [0.006, 0.008, 0.01, 0.012, 0.008]
    vals = [sol.component(1, t, 0.2) for t in ts]
    assert len(sol._pairs) <= 2
    assert vals == [_fresh(sol).component(1, t, 0.2) for t in ts]


def test_theta_kernel_once_per_eps_t(golden_solution, monkeypatch):
    calls = []
    real = special_functions.theta_scaled

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(special_functions, "theta_scaled", counting)
    sol = _fresh(golden_solution)
    spec = sol.spec
    ts = [0.008, 0.01, 0.013]
    points = [(t, z) for t in ts for z in (-0.3, -0.1 + 0.1j, 0.2, 0.35)]
    residual_physical(sol, spec, points)
    for (t, z) in points:
        sol.evaluate(t, z)
    dilations = {1.0, spec.q ** (spec.dD / spec.k)}
    dilations |= {spec.q ** float(term.delta) for term in spec.terms}
    distinct = {sol.eps * complex(r * t) for r in dilations for t in ts}
    assert len(calls) == len(distinct)


def test_evaluate_combines_components(golden_solution):
    sol = golden_solution
    t, z = 0.013, 0.21
    T = sol.eps * t
    u0 = sol.component(0, t, z)
    u1 = sol.component(1, t, z)
    assert sol.evaluate(t, z) == pytest.approx(u0 + u1 * cmath.log(T) / sol.spec.lnq)
    # with the u1 density removed, evaluate reduces to the first component
    sol_no_log = LogSolution(sol.spec, sol.grid, sol.w0,
                             stacked(sol.grid, 0.0, 0.0), sol.eps)
    assert sol_no_log.evaluate(t, z) == pytest.approx(u0)


def test_domain_rejections(golden_solution):
    sol = golden_solution
    # |eps t| beyond the admissible radius r1
    with pytest.raises(DomainError):
        sol.component(0, 1.0 / sol.eps, 0.0)
    # branch cut: eps t on the negative axis
    with pytest.raises(DomainError):
        sol.evaluate(-0.013, 0.1)
    # z outside the strip
    with pytest.raises(DomainError):
        sol.component(0, 0.01, 2.0j)
    # theta-proximity: eps t opposite the Borel direction
    with pytest.raises(DomainError) as err:
        sol.component(0, -0.013, 0.1)
    assert "radius" in str(err.value)


def _t_at(T: float, eps: float) -> float:
    """A real t with |eps t| exactly T in floating point."""
    t = T / eps
    for _ in range(8):
        got = abs(eps * complex(t))
        if got == T:
            return t
        t = float(np.nextafter(t, math.inf if got < T else -math.inf))
    raise AssertionError(f"no t with |{eps} t| = {T}")


def test_laplace_refuses_T_outside_the_grid_range(golden_solution):
    # the line ends at the envelope top of [T_min, T_max]: the ends are
    # served, and any |eps t| beyond them is refused with the range named
    sol = golden_solution
    grid = sol.grid
    for T, outside in ((grid.T_min, 1 - 1e-12), (grid.T_max, 1 + 1e-12)):
        t = _t_at(T, sol.eps)
        assert math.isfinite(abs(sol.evaluate(t, 0.1)))
        for call in (lambda: sol.evaluate(outside * t, 0.1),
                     lambda: sol.component(1, outside * t, 0.1),
                     lambda: residual_physical(sol, sol.spec, [(outside * t, 0.1)])):
            with pytest.raises(DomainError, match=r"outside \[4e-07, 0.0004\]"):
                call()


def test_cut_line_matches_the_line_to_the_old_top(golden):
    # build_grid's line used to run out to 16 rho; the ladder that far is the
    # oracle for the cut: the rows both lines hold agree within the solve
    # tolerance, and evaluate agrees to 1e-12 across [T_min, T_max]
    spec, eps, grid = golden["spec"], golden["eps"], golden["grid"]
    old_top = math.ceil(grid.N * math.log(16.0) / spec.lnq)
    assert grid.g_hi < grid.arc_rung() < old_top
    line = grid.rung_range(grid.g_lo, old_top)
    w0, w1, _ = solve_coupled(spec, eps, line, tol=1e-11)
    rows = kept_rows(line, grid)
    weights = grid.stacked_weights(spec)
    for w, ref in ((golden["w0"], w0), (golden["w1"], w1)):
        assert (np.abs(w - ref[rows]) * weights).max() <= 1e-11
    cut = LogSolution(spec, grid, golden["w0"], golden["w1"], eps)
    ref = LogSolution(spec, line, w0, w1, eps)
    for T in np.geomspace(grid.T_min, grid.T_max, 13):
        t = _t_at(float(T), eps)
        for z in (-0.3, 0.1 + 0.2j):
            want = ref.evaluate(t, z)
            assert abs(cut.evaluate(t, z) - want) <= 1e-12 * abs(want)


def test_monodromy_component_form_and_roundtrip():
    q = 2.0
    u0, u1 = 0.37 - 0.21j, -0.54 + 0.11j
    v0, v1 = monodromy_components(u0, u1, q)
    assert v1 == u1
    assert v0 == u0 + 2j * math.pi / math.log(q) * u1
    # identity when the log component vanishes
    assert monodromy_components(u0, 0.0, q) == (u0, 0.0)
    # unit shift example
    got = monodromy_components(0.0, math.log(q) / (2j * math.pi), q)
    assert got[0] == pytest.approx(1.0)
    # component extraction from full values at a point
    L = cmath.log(0.3 + 0.2j)
    w = u0 + u1 * L / math.log(q)
    w_mon = v0 + v1 * L / math.log(q)
    u1_rec = math.log(q) / (2j * math.pi) * (w_mon - w)
    u0_rec = w - (w_mon - w) / (2j * math.pi) * L
    assert u1_rec == pytest.approx(u1)
    assert u0_rec == pytest.approx(u0)


def test_monodromy_linearity():
    q = 3.0
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = monodromy_components(a * x[0] + b * y[0], a * x[1] + b * y[1], q)
    gx, gy = monodromy_components(*x, q), monodromy_components(*y, q)
    assert lhs[0] == pytest.approx(a * gx[0] + b * gy[0])
    assert lhs[1] == pytest.approx(a * gx[1] + b * gy[1])


def test_residual_borel_at_fixed_point(golden):
    spec = golden["spec"]
    res = residual_borel(golden["w0"], golden["w1"], spec, golden["eps"], golden["grid"])
    m = golden["grid"].m
    q_max = float(np.max(np.abs(np.polynomial.polynomial.polyval(1j * m, spec.Q))))
    assert res <= 10 * 1e-11 * q_max


def test_residual_borel_spike_sensitivity(golden):
    spec = golden["spec"]
    base = residual_borel(golden["w0"], golden["w1"], spec, golden["eps"], golden["grid"])
    for h in (1e-6, 1e-5):
        w0 = golden["w0"].copy()
        w0[10, golden["grid"].m.size // 2] += h
        res = residual_borel(w0, golden["w1"], spec, golden["eps"], golden["grid"])
        assert res > base
        assert 1e-3 * h < res < 1e3 * h


def test_residual_borel_zero_problem(problem_dict):
    problem_dict["forcing"]["f0"] = {}
    problem_dict["forcing"]["f1"] = {}
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0)
    grid = build_grid(spec, geom, GridSpec(m_nodes=81))
    zero = stacked(grid, 0.0, 0.0)
    assert residual_borel(zero, zero, spec, 0.01, grid) == 0.0


def test_residual_physical_on_golden(golden):
    sol = LogSolution(golden["spec"], golden["grid"], golden["w0"],
                      golden["w1"], golden["eps"])
    points = [(0.008, -0.3), (0.016, 0.0), (0.012, 0.4),
              (0.010 + 0.002j, 0.1), (0.014, -0.1 + 0.2j)]
    res = residual_physical(sol, golden["spec"], points)
    assert res.shape == (len(points),)
    assert res.max() <= 1e-6


def test_residual_physical_sensitivity(golden):
    spec = golden["spec"]
    w1 = golden["w1"].copy()
    w1[:-1] *= 1.0 + 1e-3
    sol = LogSolution(spec, golden["grid"], golden["w0"], w1, golden["eps"])
    res = residual_physical(sol, spec, [(0.012, 0.1)]).max()
    assert 1e-6 < res < 1e-1


RESIDUAL_POINTS = [(0.008, -0.3), (0.016, 0.0), (0.012, 0.4), (0.010 + 0.002j, 0.1),
                   (0.014, -0.1 + 0.2j), (0.008, 0.25 - 0.15j)]


def test_residual_physical_matches_the_per_component_loop(golden_solution):
    # numpy sums each row of the stack as it sums a lone vector
    sol = golden_solution
    got = residual_physical(_fresh(sol), sol.spec, RESIDUAL_POINTS)
    want = residual_physical_per_component(_fresh(sol), sol.spec, RESIDUAL_POINTS)
    assert np.array_equal(got, want)


def test_residual_physical_sums_each_point_once(golden_solution, monkeypatch):
    calls = []
    real = assembly.inverse_fourier

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(assembly, "inverse_fourier", counting)
    residual_physical(_fresh(golden_solution), golden_solution.spec, RESIDUAL_POINTS)
    # one Fourier pass per distinct t: the two points at t = 0.008 share one
    assert len(calls) == len({t for t, _ in RESIDUAL_POINTS}) == 5


def test_evaluate_parts_are_the_components(golden_solution):
    sol = _fresh(golden_solution)
    for t, z in RESIDUAL_POINTS:
        u0, u1, u = sol.evaluate_parts(t, z)
        assert (u0, u1) == (sol.component(0, t, z), sol.component(1, t, z))
        assert u == u0 + u1 * cmath.log(sol.eps * t) / sol.spec.lnq
        assert sol.evaluate(t, z) == u


@pytest.fixture(scope="module")
def taylor_line():
    """The point verbs' solution on the example's line, whose top lies below
    the arc rung, so every row is a Taylor sum and the solution carries the
    coefficients; and the same rows without them."""
    from qborel.cli import _log_solution, load_config

    rc = load_config(Path(__file__).resolve().parents[1] / "configs" / "example_k13.json")
    sol = _log_solution(rc, {})
    assert sol.taylor is not None and sol.grid.g_hi <= sol.grid.arc_rung()
    return sol, LogSolution(sol.spec, sol.grid, sol.w0, sol.w1, sol.eps, Delta=sol.Delta)


def test_taylor_line_laplace_matches_the_trapezoid(taylor_line):
    # the closed form sum_n q^(n(n-1)/2k) T^n c_n against the theta-kernel
    # trapezoid over the same rows, across the line's [T_min, T_max] and
    # 0.05 rad either side of arg eps
    sol, bare = taylor_line
    grid = sol.grid
    arg = cmath.phase(sol.eps)
    Ts = [r * cmath.exp(1j * (arg + d)) for r in np.geomspace(grid.T_min, grid.T_max, 8)
          for d in (-0.05, 0.0, 0.05)]
    for T in Ts:
        for got, want in zip(sol._laplace_all_m(T), bare._laplace_all_m(T)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), T


def test_taylor_line_laplace_against_the_ray_quadrature(taylor_line):
    # a synthetic degree-5 density (sum_n a_(j,n) tau^n) g(m), its terms of
    # one size at |T| = T_ref, against the oracle's self-bracketing ray
    # quadrature of the polynomial
    sol = taylor_line[0]
    spec, grid = sol.spec, sol.grid
    T_ref = math.sqrt(grid.T_min * grid.T_max)
    rng = np.random.default_rng(21)
    a = (rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))) / T_ref ** np.arange(6)
    g = np.exp(-grid.m ** 2) * (1.0 + 0.2j * grid.m)
    synth = LogSolution(spec, grid, sol.w0, sol.w1, sol.eps, taylor=a[:, :, None] * g)
    quad = QuadratureSpec(nodes_per_decade=48)
    for T in (T_ref / 3.0, T_ref * cmath.exp(0.3j), 3.0 * T_ref * cmath.exp(-0.2j)):
        for j, got in enumerate(synth._laplace_all_m(T)):
            want, _ = q_laplace(lambda u: np.polynomial.polynomial.polyval(u, a[j]), T,
                                grid.direction, spec.q, spec.k, quad)
            assert np.abs(got - want * g).max() <= 1e-8 * abs(want), (T, j)


def test_taylor_line_refuses_a_difference(taylor_line):
    # its coefficients are summed to the line's top only, below the arc
    from dataclasses import replace

    sol = taylor_line[0]
    turned = LogSolution(sol.spec, replace(sol.grid, direction=0.3), sol.w0, sol.w1,
                         sol.eps, Delta=sol.Delta, taylor=sol.taylor)
    with pytest.raises(UsageError, match="only to its line's top"):
        solution_difference(sol, turned, 0, 0.01, 0.1)


@pytest.mark.parametrize("which", ["trapezoid", "taylor"])
def test_grouped_evaluation_is_the_per_point_evaluation(golden_solution, taylor_line, which):
    # points sharing t share one Fourier pass over their z; every value is
    # the one evaluate_parts gives that point alone, bit for bit
    sol = golden_solution if which == "trapezoid" else taylor_line[0]
    points = [(0.008, -0.3), (0.012, 0.1 + 0.2j), (0.008, 0.25 - 0.15j), (0.016, 0.0),
              (0.012, -0.4), (0.008, 0.0), (0.010 + 0.002j, 0.1)]
    got = _fresh(sol).evaluate_points(points)
    for (t, z), parts in zip(points, got):
        assert parts == _fresh(sol).evaluate_parts(t, z)


def test_forcing_only_dD0_matches_direct_construction(problem_dict):
    # all couplings off, dD = 0: the equation collapses to (Q - R_D)(d/dz) u = f
    problem_dict["dD"] = 0
    problem_dict["RD"] = [-1.0, 0.0, 0.25]
    problem_dict["terms"][0]["delta"] = [0, 1]
    problem_dict["terms"][0]["C"] = None
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0)
    # the grid serves |eps t| from 1e-4, the smaller of the two points
    grid = build_grid(spec, geom, GridSpec(m_nodes=161, T_min=1e-4))
    eps = 0.01
    w0, w1, _ = solve_triangular(spec, eps, grid, tol=1e-12)
    sol = LogSolution(spec, grid, w0, w1, eps)
    m = grid.m
    qf = 1.0  # q_power_factor(0)
    from qborel.problem_model import polyval_im

    P = polyval_im(spec.Q, m) - qf * polyval_im(spec.RD, m)
    for (t, z) in [(0.01, 0.2), (0.02, -0.1)]:
        for h in (0, 1):
            got = sol.component(h, t, z)
            want = 0.0 + 0.0j
            for p, sym in spec.forcing.powers(h).items():
                vals = sym(m, eps) / P
                qpow = (spec.q ** (1.0 / spec.k)) ** (p * (p - 1) / 2.0)
                want += qpow * (eps * t) ** p * inverse_fourier(vals, complex(z), m)
            assert abs(got - want) < 1e-9 * max(abs(want), 1e-6)


@pytest.fixture(scope="module")
def k1_pair():
    """Triangular k = 1 instance solved on two directions at one eps, each
    given the Taylor coefficients at tau = 0 summed to the arc radius."""
    from tests.conftest import example_problem_dict

    d = example_problem_dict()
    d["k"] = 1
    d["eps0"] = 0.3
    d["terms"][0]["delta"] = [1, 2]
    spec = ProblemSpec.from_dict(d)
    eps = 0.2 * np.exp(0.25j)
    sols = []
    for ray in (0.0, 0.5):
        geom = make_geometry(spec, d=ray)
        grid = build_grid(spec, geom, GridSpec(m_nodes=161, T_min=1e-4, T_max=0.06))
        w0, w1, _ = solve_triangular(spec, eps, grid, tol=1e-12)
        coef = taylor_at_origin(spec, eps, grid.m, grid.radius_of_rung(grid.arc_rung()))
        sols.append(LogSolution(spec, grid, w0, w1, eps, taylor=coef))
    return spec, sols[0], sols[1]


def test_difference_by_deformation_matches_subtraction(k1_pair):
    spec, sol_a, sol_b = k1_pair
    t, z = 0.25, 0.1
    for j in (0, 1):
        direct = sol_b.component(j, t, z) - sol_a.component(j, t, z)
        deformed = solution_difference(sol_a, sol_b, j, t, z)
        scale = max(abs(sol_a.component(j, t, z)), 1e-12)
        assert abs(direct - deformed) < 5e-7 * scale, (j, direct, deformed)


def test_difference_cache_keeps_values_and_checks(k1_pair):
    spec, sol_a, sol_b = k1_pair
    t = 0.25
    zs = (-0.3, 0.0, 0.1 + 0.1j, 0.3)
    for j in (0, 1):
        got = [solution_difference(sol_a, sol_b, j, t, z) for z in zs]
        for z, val in zip(zs, got):
            assert solution_difference(_fresh(sol_a), _fresh(sol_b), j, t, z) == val
    # a kernel zero ring sits exactly 10% of a lattice step inside the arc
    # radius at |T| = r_arc q^(-(2 + 0.1)/k); with eps t = -|T| e^(0.25 i) the
    # zero direction lies inside the wedge [0, 0.5]
    sol_a, sol_b = _fresh(sol_a, Delta=0.05), _fresh(sol_b, Delta=0.05)
    grid = sol_a.grid
    g_arc = grid.arc_rung()
    edge = grid.radius_of_rung(g_arc) * spec.q ** (-2.1 / spec.k)
    unit = -np.exp(0.25j) / sol_a.eps
    solution_difference(sol_a, sol_b, 0, edge * (1 - 1e-9) * unit, 0.1)
    with pytest.raises(DomainError, match="zero ring"):
        solution_difference(sol_a, sol_b, 0, edge * (1 + 1e-9) * unit, 0.1)


def test_difference_same_direction_is_noise(k1_pair):
    spec, sol_a, _ = k1_pair
    val = solution_difference(sol_a, sol_a, 0, 0.25, 0.1)
    scale = abs(sol_a.component(0, 0.25, 0.1))
    assert abs(val) < 1e-10 * scale


def test_taylor_arc_samples_match_the_ring_rows_at_k1(k1_pair):
    # k = 1 and delta = 1/2: another ladder density and dilation rate for
    # the Taylor recursion, held against solved ring lines of both directions
    from tests.conftest import arc_sample_gap

    _, sol_a, sol_b = k1_pair
    for sol in (sol_a, sol_b):
        assert arc_sample_gap(sol) <= 1e-13


def test_tail_stencil_must_not_read_below_the_line(golden):
    # the ray tail's stencil reads TAIL_REACH rungs below the arc rung; a
    # range of the ladder cut above them has no rows there
    spec, eps = golden["spec"], golden["eps"]
    grid = golden["grid"]
    g_arc = grid.arc_rung()
    T = eps * 0.01
    top = assembly.tail_reach(spec, grid, g_arc, T)[1]
    for below, ok in ((assembly.TAIL_REACH, True), (assembly.TAIL_REACH - 1, False)):
        cut = grid.rung_range(g_arc - below, top)
        sol = LogSolution(spec, cut, stacked(cut, 0.0, 0.0), stacked(cut, 0.0, 0.0),
                          eps)
        if ok:
            assert not any(v.any() for v in sol._tail_integral(T, g_arc))
        else:
            with pytest.raises(UsageError, match="tail stencil"):
                sol._tail_integral(T, g_arc)



def test_tail_raises_when_its_reach_passes_the_top_of_the_line(golden):
    # the tail grows with |T|, so its reach at T_max covers the grid's range;
    # a line one rung short of the reach raises instead of cutting the tail
    spec, eps, grid = golden["spec"], golden["eps"], golden["grid"]
    g_arc = grid.arc_rung()
    tops = [assembly.tail_reach(spec, grid, g_arc, T)[1]
            for T in np.geomspace(grid.T_min, grid.T_max, 9)]
    assert tops == sorted(tops) and tops[0] < tops[-1]
    T = eps * 0.01
    top = assembly.tail_reach(spec, grid, g_arc, T)[1]
    for g_hi, ok in ((top, True), (top - 1, False)):
        cut = grid.rung_range(g_arc - assembly.TAIL_REACH, g_hi)
        sol = LogSolution(spec, cut, stacked(cut, 1.0, 1.0), stacked(cut, 1.0, 1.0),
                          eps)
        if ok:
            assert all(np.isfinite(v).all() and v.any() for v in sol._tail_integral(T, g_arc))
        else:
            with pytest.raises(DomainError, match=rf"reads rung {top}, above .* top rung "
                                                  rf"{top - 1}.*\[4e-07, 0.0004\]"):
                sol._tail_integral(T, g_arc)
