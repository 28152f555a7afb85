import math

import numpy as np
import pytest

from qborel import borel_solver, formal_asymptotics
import qborel.solution_assembly as assembly
from qborel.borel_solver import (
    GridSpec,
    SolverContext,
    build_grid,
    held_bottom,
    rung_shifts,
    solve_coupled,
    solve_triangular,
    taylor_at_origin,
)
from qborel.errors import ConfigError, DivergenceError, DomainError, UsageError, ZeroRingError
from qborel.formal_asymptotics import (
    SolutionFamily,
    default_probes,
    difference_decay_fit,
    evaluate_formal,
    formal_coefficients,
    formal_residual,
    gevrey_remainder_check,
)
from qborel.geometry import admissible_r1, build_good_covering, make_geometry
from qborel.problem_model import ProblemSpec, polyval_im
from qborel.solution_assembly import (LogSolution, difference_arc_rung, solution_difference,
                                      tail_reach)
from qborel.transforms import convolution_kernel

from tests.conftest import arc_sample_gap, kept_rows
from tests.oracles import RingArcSolution, formal_order_rhs, order_dense_solve, stacked

M_SMALL = np.linspace(-12, 12, 161)


def asymptotics_dict():
    from tests.conftest import example_problem_dict

    d = example_problem_dict()
    d["eps0"] = 0.3
    return d


@pytest.fixture(scope="module")
def asym():
    """Covering, family and formal series for the wide-eps instance."""
    spec = ProblemSpec.from_dict(asymptotics_dict())
    cov = build_good_covering(2, spec.eps0, spec, t_radius=0.08, t_aperture=0.1,
                              m_grid=np.linspace(-50, 50, 401))
    gspec = GridSpec(m_max=12.0, m_nodes=161, T_min=5e-6, T_max=0.025)
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    series = formal_coefficients(spec, 7, m_grid=M_SMALL)
    return {"spec": spec, "cov": cov, "gspec": gspec, "family": family,
            "series": series}


def test_zero_problem_gives_zero_series(problem_dict):
    problem_dict["forcing"]["f0"] = {}
    problem_dict["forcing"]["f1"] = {}
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    problem_dict["terms"][0]["C"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    series = formal_coefficients(spec, 4, m_grid=M_SMALL)
    assert series.coef.shape == (2, 5, 5, M_SMALL.size) and not series.coef.any()
    assert formal_residual(series, spec, 4) == 0.0


def test_order0_fourier_division_oracle(problem_dict):
    # with b and c off, order 0 must be the plain division by Q(im)
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    problem_dict["terms"][0]["C"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    series = formal_coefficients(spec, 2, m_grid=M_SMALL)
    Q = polyval_im(spec.Q, M_SMALL)
    for j in (0, 1):
        sym = spec.forcing.powers(j).get(0)
        want = sym.eps_coefficient(0)(M_SMALL) / Q
        got = series.coef[j][0][0]
        assert np.max(np.abs(got - want)) <= 1e-10


def test_low_orders_forcing_driven_without_b(problem_dict):
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    series = formal_coefficients(spec, 0, m_grid=M_SMALL)
    Q = polyval_im(spec.Q, M_SMALL)
    for j in (0, 1):
        sym = spec.forcing.powers(j).get(0)
        want = sym.eps_coefficient(0)(M_SMALL) / Q
        assert np.max(np.abs(series.coef[j][0][0] - want)) <= 1e-12


def test_formal_residual_self_consistency(asym):
    res = formal_residual(asym["series"], asym["spec"], 6)
    assert res <= 1e-9


def test_formal_residual_detects_dropped_coefficient(asym):
    import copy

    series = asym["series"]
    broken = copy.deepcopy(series)
    p = min(p for p in range(3) if broken.coef[1, 2, p].any())
    dropped = np.max(np.abs(broken.coef[1, 2, p]))
    broken.coef[1, 2, p] = 0.0
    res = formal_residual(broken, asym["spec"], 2)
    assert res > 0.1 * dropped


def test_formal_residual_requires_order(asym):
    with pytest.raises(UsageError):
        formal_residual(asym["series"], asym["spec"], asym["series"].order + 1)


def _check_orders_against_a_dense_solve(spec):
    # each t-power of each order is one fixed point of the physical-form
    # recursion, (Q(im) I - K_b) V_(n,p) = rhs with the eps-constant b
    # kernels and rhs rebuilt from the lower coefficients on its own;
    # np.linalg.solve is the oracle for the iteration in Taylor form
    series = formal_coefficients(spec, 3, m_grid=M_SMALL)
    b0 = {jk: convolution_kernel(sym.eps_coefficient(0), M_SMALL, [1.0])
          for jk, sym in spec.coeffs.b.items() if not sym.is_zero()}
    Q = polyval_im(spec.Q, M_SMALL)
    checked = 0
    for n in range(4):
        for p in range(n + 1):
            rhs = formal_order_rhs(spec, series.coef, M_SMALL, n, p)
            if not rhs.any():
                assert not series.coef[:, n, p].any(), (n, p)
                continue
            want = order_dense_solve(rhs, Q, b0)
            got = series.coef[:, n, p]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, p)
            checked += 1
    assert checked >= 4


def test_formal_orders_match_a_dense_solve_of_each_order(example_spec):
    _check_orders_against_a_dense_solve(example_spec)


def test_formal_orders_with_b_eps_powers_match_a_dense_solve(problem_dict):
    # b symbols with eps powers feed the higher eps powers of the same
    # t-power, and b_01 couples omega_0 into equation 1
    problem_dict["coeffs"]["b10"]["eps_poly"] = [1.0, 4.0]
    problem_dict["coeffs"]["b01"] = {"num": [0.0005], "gauss": 1.0,
                                     "eps_poly": [0.5, 0.0, 3.0]}
    _check_orders_against_a_dense_solve(ProblemSpec.from_dict(problem_dict))


def test_formal_series_is_the_taylor_recursion_in_eps_powers(example_spec):
    # the q-Laplace transform sends tau^p to q^(p(p-1)/2k) (eps t)^p, so the
    # t^p part of the formal sum at eps is eps^p q^(p(p-1)/2k) times the
    # Taylor coefficient c_p of omega at tau = 0, solved at that eps
    spec, eps, N = example_spec, 1e-3, 8
    series = formal_coefficients(spec, N, m_grid=M_SMALL)
    coef = taylor_at_origin(spec, eps, M_SMALL, 1e-3)
    powers = eps ** np.arange(N + 1)
    for p in range(4):
        got = np.tensordot(powers, series.coef[:, :, p], axes=(0, 1))
        want = eps ** p / spec.q_power_factor(p) * coef[:, p]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), p


def test_formal_series_with_dD_zero(problem_dict):
    # R_D on the left, in P(0): order 0 is the division by Q(im) - R_D(im)
    # when the b and term symbols are off
    problem_dict.update(dD=0)
    problem_dict["terms"][0].update(delta=[0, 1], C=None)
    for jk in ("b00", "b10", "b11"):
        problem_dict["coeffs"][jk] = None
    spec = ProblemSpec.from_dict(problem_dict)
    series = formal_coefficients(spec, 3, m_grid=M_SMALL)
    p0 = polyval_im(spec.Q, M_SMALL) - polyval_im(spec.RD, M_SMALL)
    for j in (0, 1):
        want = spec.forcing.powers(j)[0].eps_coefficient(0)(M_SMALL) / p0
        assert np.abs(series.coef[j, 0, 0] - want).max() <= 1e-12 * np.abs(want).max()
    assert formal_residual(series, spec, 3) <= 1e-15


def test_formal_series_refuses_Delta_below_d(problem_dict):
    # a term with Delta_l < d_l would move eps powers down, below the t-power;
    # the series is refused rather than summed without those terms
    problem_dict["terms"][0]["Delta"] = 1
    with pytest.raises(ConfigError, match="Delta_l >= d_l"):
        formal_coefficients(ProblemSpec.from_dict(problem_dict), 2, m_grid=M_SMALL)


def test_taylor_order_matches_a_dense_solve(example_spec):
    # order 0 of the Taylor recursion at tau = 0 is P(0) c - K_b c = F_0 with
    # the b kernels at eps, since every dilation term and R_D tau^dD reach
    # only higher orders (dD = 1 here)
    spec, eps = example_spec, 0.015
    assert spec.dD == 1 and min(t.d for t in spec.terms) >= 1
    _, b_kernel = borel_solver.eps_kernels(spec, M_SMALL, eps)
    rhs = np.zeros((2, M_SMALL.size), dtype=complex)
    for h in (0, 1):
        rhs[h] = spec.forcing.powers(h)[0](M_SMALL, eps)
    want = order_dense_solve(rhs, spec.pm(0.0, M_SMALL), b_kernel)
    got = taylor_at_origin(spec, eps, M_SMALL, 1e-3)[:, 0]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_formal_recursion_beyond_the_smallness_budget_names_the_eps_order(problem_dict):
    # b symbols far beyond the budget: the per-order fixed point diverges at
    # the first order of the eps-series
    problem_dict["coeffs"]["b11"] = {"num": [5.0], "gauss": 1.0}
    with pytest.raises(DivergenceError, match=r"the eps\^0 coefficients .*smallness"):
        formal_coefficients(ProblemSpec.from_dict(problem_dict), 2, m_grid=M_SMALL)


def test_both_recursions_iterate_through_the_one_picard_loop(example_spec, monkeypatch):
    # every t-power of the formal series and every Taylor order at tau = 0 is
    # one _picard run; the worked instance's b kernels make each take steps
    spec = example_spec
    runs = []
    real = borel_solver._picard

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        runs.append(out[1])
        return out

    monkeypatch.setattr(borel_solver, "_picard", counting)
    series = formal_coefficients(spec, 2, m_grid=M_SMALL)
    solved = sum(bool(series.coef[:, n, p].any()) for n in range(3) for p in range(n + 1))
    assert solved >= 3 and len(runs) >= solved and max(runs) > 1
    runs.clear()
    coef = taylor_at_origin(spec, 0.015, M_SMALL, 1e-3)
    assert len(runs) == coef.shape[1] and max(runs) > 1


def test_order_fixed_point_of_a_zero_right_side_is_zero(example_spec):
    # the tolerance scales with the right side, so it is 0 here: the first
    # update, 0, must meet it
    _, b_kernel = borel_solver.eps_kernels(example_spec, M_SMALL, 0.015)
    coupling = [(j, eq, K) for (j, eq), K in b_kernel.items() if K is not None]
    assert coupling
    c = borel_solver._order_fixed_point(np.zeros((2, M_SMALL.size), dtype=complex),
                                        coupling, np.ones(M_SMALL.size), "zero", rtol=1e-13)
    assert c.shape == (2, M_SMALL.size) and not c.any()


def test_order_fixed_point_names_what_diverged():
    n = M_SMALL.size
    coupling = [(0, 0, np.full((n, n), np.nan))]
    with pytest.raises(DivergenceError, match=r"the test coefficients .*smallness") as err:
        borel_solver._order_fixed_point(np.ones((2, n), dtype=complex), coupling,
                                        np.ones(n), "the test coefficients", rtol=1e-13)
    assert len(err.value.history) == 1


def test_order0_matches_analytic_limit(asym):
    family, series = asym["family"], asym["series"]
    sol = family.at(0, 0.002 + 0.0j)
    for (t, z) in [(0.06, 0.1), (0.05, -0.2)]:
        for j in (0, 1):
            u = sol.component(j, t, z)
            v0 = evaluate_formal(series, j, t, z, 0.0, 0)
            assert abs(u - v0) <= 0.01 * abs(v0)


def test_divided_difference_recovers_low_coefficients(asym):
    # one-sided divided differences along a real-eps ray, orders <= 2
    family, series = asym["family"], asym["series"]
    t, z = 0.06, 0.1
    eps_pts = [0.012, 0.008, 0.005, 0.003]
    vals = [family.at(0, complex(e)).component(0, t, z) for e in eps_pts]
    table = {(i, i): vals[i] for i in range(len(eps_pts))}
    for width in range(1, len(eps_pts)):
        for i in range(len(eps_pts) - width):
            table[(i, i + width)] = (
                (table[(i + 1, i + width)] - table[(i, i + width - 1)])
                / (eps_pts[i + width] - eps_pts[i]))
    for n in (1, 2):
        dd = table[(0, n)]
        want = evaluate_formal(series, 0, t, z, 1.0, n) - evaluate_formal(
            series, 0, t, z, 1.0, n - 1)  # the eps^n coefficient at eps = 1
        assert abs(dd - want) <= 0.05 * abs(want), (n, dd, want)


def test_gevrey_remainders_and_ratio_trend(asym):
    eps_samples = [complex(m) for m in (0.27, 0.2, 0.15, 0.11, 0.08)]
    probes = [(0.06, 0.1), (0.05, -0.2), (0.04, 0.25)]
    rep = gevrey_remainder_check(asym["family"], 0, asym["series"], 6,
                                 eps_samples, probes=probes)
    # first-order slope: R_0 scales like |eps|
    r0 = rep.remainders[0]
    slope = (math.log(r0[0]) - math.log(r0[-1])) / (
        math.log(0.27) - math.log(0.08))
    assert 0.7 < slope < 1.3
    # envelope fit exists and the growth-ratio table is monotone up to N = 4
    assert rep.fit_A > 0 and rep.fit_C > 0
    assert len(rep.ratio_table) >= 5
    assert all(b > a for a, b in zip(rep.ratio_table[:5], rep.ratio_table[1:5]))
    assert rep.ratio_monotone


def test_gevrey_floor_capping(asym):
    eps_samples = [complex(0.05)]
    probes = [(0.06, 0.1)]
    rep = gevrey_remainder_check(asym["family"], 0, asym["series"], 7,
                                 eps_samples, probes=probes, floor=1e-9)
    assert any("below floor" in w for w in rep.warnings)


def test_difference_decay_fit_matches_theorem(asym):
    cov, family = asym["cov"], asym["family"]
    arg = np.angle(cov.overlap_sample(0))
    mags = np.exp(np.linspace(math.log(3e-3), math.log(0.27), 9))
    eps_samples = [m * np.exp(1j * arg) for m in mags]
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1),
              (0.04 * np.exp(1j * cov.t_direction), -0.2)]
    rep = difference_decay_fit(family, 0, eps_samples, probes=probes)
    assert len(rep.eps_samples) >= 8
    span = math.log10(abs(rep.eps_samples[-1])) - math.log10(abs(rep.eps_samples[0]))
    assert span >= 1.9
    a = rep.decay_coeffs[0]
    assert a < 0
    assert rep.relative_deviation <= 0.10
    # decays span an enormous range yet stay finite and positive
    assert min(rep.decay[0]) > 0
    assert max(rep.decay[0]) / min(rep.decay[0]) > 1e100


def test_arc_rung_precheck_raises_exactly_where_the_difference_does(asym):
    # zero densities, with zero Taylor coefficients, on the two sectors'
    # lines, which reach as far as the ray tails read: solution_difference
    # then runs every check and integral without a solve
    spec, cov, family = asym["spec"], asym["cov"], asym["family"]
    grid_a, grid_b = family._line(0), family._line(1)
    r1 = admissible_r1(spec.q, spec.k, spec.alpha)
    arg = np.angle(cov.overlap_sample(0))
    t = 0.06 * np.exp(1j * cov.t_direction)
    # 2 log_q steps at k = 13: 26 zero-ring crossings of the arc radius; then
    # eps t beyond r1, eps t off both directions' cones and |eps t| = 0.03
    # above T_max = 0.025
    sweep = [complex(mag * np.exp(1j * arg))
             for mag in np.exp(np.linspace(math.log(0.05), math.log(0.2), 157))]
    outcomes = []
    for eps in sweep + [10.0 * np.exp(1j * arg), 0.1 * np.exp(1j * (arg + 1.5)),
                        0.5 * np.exp(1j * arg)]:
        sols = [LogSolution(spec, g, stacked(g, 0.0, 0.0), stacked(g, 0.0, 0.0),
                            eps, Delta=cov.Delta,
                            taylor=np.zeros((2, 1, g.m.size), dtype=complex))
                for g in (grid_a, grid_b)]
        try:
            solution_difference(sols[0], sols[1], 0, t, 0.1)
            want = None
        except DomainError as exc:
            want = type(exc), str(exc)
        try:
            g_arc = difference_arc_rung(spec, grid_a, grid_b, eps * t, cov.Delta, r1)
            got = None
        except DomainError as exc:
            got = type(exc), str(exc)
        assert got == want, eps
        if got is None:
            assert g_arc == grid_a.arc_rung()
        outcomes.append(got and got[0])
    # the sweep's rejections are zero rings, which a nudge mends; the last
    # three are not
    assert outcomes[-3:] == [DomainError] * 3 and "T_max = 0.025" in got[1]
    assert set(outcomes[:-3]) == {None, ZeroRingError}
    assert 20 <= outcomes[:-3].count(ZeroRingError) and 20 <= outcomes.count(None)


def test_decay_fit_solves_only_the_samples_it_keeps(asym):
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    arg = np.angle(cov.overlap_sample(0))
    # 0.1 and 0.2 pass; at 0.106 the second probe's zero ring meets the arc
    eps_samples = [m * np.exp(1j * arg) for m in (0.1, 0.106, 0.2)]
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1),
              (0.04 * np.exp(1j * cov.t_direction), -0.2)]
    rep = difference_decay_fit(family, 0, eps_samples, probes=probes)
    assert rep.nudges >= 1
    assert len(rep.eps_samples) == 3
    assert set(family.reports) == {(p, e) for e in rep.eps_samples for p in (0, 1)}
    assert all(r.residual < 1e-10 for r in family.reports.values())
    # Picard runs on both sectors' ladders from one largest dilation shift
    # below the arc rung (the held block's rungs) up to the ray tail's reach
    # at T_max, above build_grid's top; one Taylor expansion per kept eps
    # holds the rows below and gives the arc
    line, picard = family._line(0), _picard(family, 0)
    grid = build_grid(spec, make_geometry(spec, cov.d_rays[0], m_grid=family.m_grid), gspec)
    g_arc, shift = grid.arc_rung(), max(rung_shifts(spec, grid.N))
    assert picard.g_lo == g_arc - shift + 1
    assert picard.g_hi == line.g_hi == tail_reach(spec, grid, g_arc, grid.T_max)[1]
    assert line.g_hi > grid.g_hi and line.g_lo == grid.g_lo
    assert _picard(family, 1).n_nodes == picard.n_nodes
    # each solve stacks the Picard rungs and the centre
    assert family.grid_rows == 6 * (line.g_hi - g_arc + shift + 1)
    assert len(family.arc_orders) == 3
    assert all(0 < n < borel_solver.TAYLOR_MAX_ORDER for n in family.arc_orders)


def test_family_builds_each_sectors_operator_factors_once(asym, monkeypatch):
    # a sector's Picard range is one grid for the family's life, so its
    # eps-independent factors, dilations and weights are built once, not
    # once per eps
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    builds = []
    build = borel_solver.OperatorFactors.build

    def counted(spec, grid):
        builds.append((grid.direction, grid.g_lo, grid.g_hi))
        return build(spec, grid)

    monkeypatch.setattr(borel_solver.OperatorFactors, "build", counted)
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    arg = np.angle(cov.overlap_sample(0))
    for size in (0.1, 0.14, 0.2):
        for p in (0, 1):
            family.at(p, size * np.exp(1j * arg))
    assert len(family.reports) == 6
    assert sorted(builds) == sorted((family._line(p).direction, _picard(family, p).g_lo,
                                     family._line(p).g_hi) for p in (0, 1))
    assert _picard(family, 0) is _picard(family, 0)


def test_arc_misuse_raises_what_no_nudge_mends(asym, monkeypatch):
    # a Taylor series that has not converged by the order cap is a numerical
    # failure, not a DomainError, which an eps nudge could mend
    spec, cov, gspec, family = asym["spec"], asym["cov"], asym["gspec"], asym["family"]
    eps = complex(0.1 * np.exp(1j * np.angle(cov.overlap_sample(0))))
    t = 0.06 * np.exp(1j * cov.t_direction)
    sol_a, sol_b = family.at(0, eps), family.at(1, eps)
    assert solution_difference(sol_a, sol_b, 0, t, 0.1) != 0.0
    # one order short of what this eps needs: the family's expansion for
    # eps, which its solutions and their arcs read, raises before a solve
    monkeypatch.setattr(borel_solver, "TAYLOR_MAX_ORDER", family.arc_orders[-1] - 1)
    fresh = SolutionFamily(spec, cov, gspec, tol=family.tol)
    with pytest.raises(DivergenceError, match="does not converge"):
        fresh.at(0, eps)
    assert fresh.reports == {} and fresh.arc_orders == []


def test_difference_without_taylor_coefficients_is_refused_first(asym, monkeypatch):
    # the arc reads only the Taylor coefficients its solution was given; a
    # solution without them still evaluates, but refuses a difference with a
    # UsageError, which is no DomainError (so no nudge is tried), before any
    # integral or Taylor sum
    spec, cov, family = asym["spec"], asym["cov"], asym["family"]
    eps = complex(0.1 * np.exp(1j * np.angle(cov.overlap_sample(0))))
    t = 0.06 * np.exp(1j * cov.t_direction)
    sol_a, sol_b = family.at(0, eps), family.at(1, eps)
    bare = LogSolution(spec, sol_a.grid, sol_a.w0, sol_a.w1, eps, Delta=cov.Delta)
    other = LogSolution(spec, sol_b.grid, sol_b.w0, sol_b.w1, eps, Delta=cov.Delta,
                        taylor=sol_b.taylor)
    assert bare.component(0, t, 0.1) == sol_a.component(0, t, 0.1)
    bare._pairs.clear()

    def no_taylor_sum(*args):
        raise AssertionError("the arc summed a Taylor series")

    monkeypatch.setattr(assembly, "taylor_values", no_taylor_sum)
    with pytest.raises(UsageError, match="Taylor coefficients") as info:
        solution_difference(bare, other, 0, t, 0.1)
    assert not isinstance(info.value, DomainError)
    assert bare._pairs == {} and other._pairs == {}


def test_decay_fit_lets_an_arc_failure_through(asym, monkeypatch):
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    arg = np.angle(cov.overlap_sample(0))
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1)]
    monkeypatch.setattr(borel_solver, "TAYLOR_MAX_ORDER", 4)
    with pytest.raises(DivergenceError):
        difference_decay_fit(family, 0, [0.1 * np.exp(1j * arg)], probes=probes)
    # raised on the first attempt, by the expansion that both solves read,
    # so nothing was solved and no nudge was tried
    assert len(family._sols) == 0 and family.reports == {}
    assert family.arc_orders == []


def test_family_rows_match_the_full_grid_solve(asym):
    # a whole-line solve on build_grid's line is the oracle for the rows it
    # shares with the family's longer line and for the components; a sector
    # difference, whose ray tails reach past that line, is held against a
    # whole-line solve on the family's line with the arc read from solved
    # ring lines
    spec, cov, gspec, family = asym["spec"], asym["cov"], asym["gspec"], asym["family"]
    eps = complex(0.11 * np.exp(1j * np.angle(cov.overlap_sample(0))))
    solve = solve_triangular if spec.coeffs.triangular else solve_coupled
    grid = build_grid(spec, make_geometry(spec, cov.d_rays[0], m_grid=family.m_grid), gspec)
    w0, w1, _ = solve(spec, eps, grid, tol=family.tol)
    full = LogSolution(spec, grid, w0, w1, eps, Delta=cov.Delta)
    weights = grid.stacked_weights(spec)
    sol = family.at(0, eps)
    rows = kept_rows(sol.grid, grid)
    assert sol.grid.stacked_tau[rows].tobytes() == grid.stacked_tau.tobytes()
    for w, ref in ((sol.w0[rows], full.w0), (sol.w1[rows], full.w1)):
        gap = np.abs(w - ref)
        assert gap.max() <= 1e-14 * np.abs(ref).max()
        assert (gap * weights).max() <= family.tol
    ring = [_full_line(family, p, eps, RingArcSolution) for p in (0, 1)]
    sols = [family.at(p, eps) for p in (0, 1)]
    for t, z in [(0.06 * np.exp(1j * cov.t_direction), 0.1),
                 (0.04 * np.exp(1j * cov.t_direction), -0.2)]:
        for j in (0, 1):
            ref = full.component(j, t, z)
            assert abs(sol.component(j, t, z) - ref) <= 1e-9 * abs(ref)
            ref = solution_difference(*ring, j, t, z)
            assert abs(solution_difference(*sols, j, t, z) - ref) <= 1e-12 * abs(ref)


def _picard(family, p):
    """The rung range of sector p's line that `solve_held` runs Picard on."""
    line = family._line(p)
    return line.rung_range(held_bottom(family.spec, line), line.g_hi)


def _full_line(family, p, eps, cls=LogSolution):
    """A whole-line Picard solve on the line of the family's sector p, as a
    cls."""
    line = family._line(p)
    solve = solve_triangular if family.spec.coeffs.triangular else solve_coupled
    w0, w1, _ = solve(family.spec, eps, line, tol=family.tol)
    return cls(family.spec, line, w0, w1, eps, Delta=family.covering.Delta)


def _assert_rows_match(full, sol, components=()):
    """Every row of the family's solution sol, summed from the Taylor
    expansion or solved by Picard, equals the row of the whole-line solve
    full to 1e-14 of the row's largest value, and so do the components at
    the (t, z) points given."""
    assert sol.grid.stacked_tau.tobytes() == full.grid.stacked_tau.tobytes()
    for w, ref in ((sol.w0, full.w0), (sol.w1, full.w1)):
        assert np.all(np.abs(w - ref) <= 1e-14 * np.abs(ref).max(axis=1, keepdims=True))
    for t, z in components:
        for j in (0, 1):
            ref = full.component(j, t, z)
            assert abs(sol.component(j, t, z) - ref) <= 1e-14 * abs(ref)


def test_family_rows_match_the_whole_line_solve(asym):
    # both ends of the wide config's eps_gevrey range at the first sector's
    # direction, where the components are read, and the decay fit's overlap
    # eps, on both sectors
    cov, family = asym["cov"], asym["family"]
    t = 0.05 * np.exp(1j * cov.t_direction)
    overlap = np.angle(cov.overlap_sample(0))
    for eps, sectors, points in ((0.08 * np.exp(1j * cov.directions[0]), (0,), [(t, 0.1)]),
                                 (0.27 * np.exp(1j * cov.directions[0]), (0,), [(t, 0.1)]),
                                 (0.005 * np.exp(1j * overlap), (0, 1), []),
                                 (0.11 * np.exp(1j * overlap), (0, 1), [])):
        for p in sectors:
            sol = family.at(p, complex(eps))
            picard = _picard(family, p)
            assert picard.n_nodes < sol.grid.n_nodes // 5
            _assert_rows_match(_full_line(family, p, complex(eps)), sol, points)


def test_family_rows_match_the_whole_line_solve_with_b01(problem_dict):
    # b_01 != 0: the family runs the coupled Picard iteration
    problem_dict["eps0"] = 0.3
    problem_dict["coeffs"]["b01"] = {"num": [0.0005], "gauss": 1.0}
    spec = ProblemSpec.from_dict(problem_dict)
    assert not spec.coeffs.triangular
    cov = build_good_covering(2, spec.eps0, spec, t_radius=0.08, t_aperture=0.1,
                              m_grid=np.linspace(-50, 50, 401))
    family = SolutionFamily(spec, cov, GridSpec(m_max=12.0, m_nodes=81, T_min=5e-6,
                                                T_max=0.025), tol=1e-13)
    # components only at the first sector's direction: at the overlap the
    # theta kernel keeps too few digits for a 1e-14 comparison
    t = 0.05 * np.exp(1j * cov.t_direction)
    for eps, points in ((0.11 * np.exp(1j * np.angle(cov.overlap_sample(0))), []),
                        (0.2 * np.exp(1j * cov.directions[0]), [(t, 0.1)])):
        for p in (0, 1):
            _assert_rows_match(_full_line(family, p, complex(eps)),
                               family.at(p, complex(eps)), points if p == 0 else [])
    # the coupled solve reports its contraction bound; a triangular one does not
    assert all(math.isfinite(r.varpi) for r in family.reports.values())


def test_family_residual_and_norms_read_the_free_rows_only(asym):
    spec, cov, family = asym["spec"], asym["cov"], asym["family"]
    eps = complex(0.11 * np.exp(1j * np.angle(cov.overlap_sample(0))))
    sol = family.at(0, eps)
    rep = family.reports[(0, eps)]
    # the solution's rows on the range Picard solved
    grid = _picard(family, 0)
    rows = kept_rows(sol.grid, grid)
    w0, w1 = sol.w0[rows], sol.w1[rows]
    ctx = SolverContext(spec, grid, eps)
    gaps = [h - w for h, w in zip((ctx.apply_H0(w0, ctx.g_eps(w1)), ctx.apply_H1(w1)),
                                  (w0, w1))]
    weights = grid.stacked_weights(spec)
    free = np.arange(grid.arc_rung() - grid.g_lo + 1, grid.n_nodes)

    def sup(data, rows):
        return float((np.abs(data[rows]) * weights[rows]).max())

    assert rep.residual == max(sup(gap, free) for gap in gaps)
    assert rep.norms == tuple(sup(w, free) for w in (w0, w1))
    assert rep.residual <= 1e-15 * max(rep.norms)
    # H's lowest rows read the bottom quadratic below the cut, not the
    # series: a residual over every row would read that instead
    every = np.arange(grid.n_nodes + 1)
    assert max(sup(gap, every) for gap in gaps) > 100 * rep.residual


def test_family_keeps_the_last_eps_solutions_and_every_report(asym, monkeypatch):
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    solved = []
    solve = borel_solver.solve_triangular

    def counted(spec, eps, grid, **kwargs):
        solved.append(grid.n_nodes + 1)
        return solve(spec, eps, grid, **kwargs)

    monkeypatch.setattr(borel_solver, "solve_triangular", counted)
    eps_a, eps_b = (complex(m * np.exp(1j * cov.directions[0])) for m in (0.1, 0.2))
    first = family.at(0, eps_a)
    assert family.at(0, eps_a) is first and family.at(2, eps_a) is first
    family.at(1, eps_a)
    assert set(family._sols) == {(0, eps_a), (1, eps_a)}
    family.at(0, eps_b)
    # the solutions of eps_a are let go, their reports kept
    assert set(family._sols) == {(0, eps_b)}
    assert set(family.reports) == {(0, eps_a), (1, eps_a), (0, eps_b)}
    # grid_rows counts the stacked rows of the Picard ranges, not the lines
    picard = _picard(family, 0)
    assert solved == [picard.n_nodes + 1] * 3 and family.grid_rows == sum(solved)
    assert family.grid_rows < first.grid.n_nodes
    assert len(family.arc_orders) == 2


def test_decay_fit_drops_what_no_nudge_mends(asym):
    # |eps t| = 0.03 passes T_max = 0.025: the sample is dropped at once,
    # with no nudge and no solve, and the warning names the cause
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    eps = 0.5 * np.exp(1j * np.angle(cov.overlap_sample(0)))
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1)]
    rep = difference_decay_fit(family, 0, [eps], probes=probes)
    assert rep.nudges == 0 and rep.eps_samples == []
    assert family.reports == {} and family.arc_orders == [] and family.grid_rows == 0
    assert any(w.startswith("|eps| = 0.5 dropped") and "T_max = 0.025" in w
               for w in rep.warnings)
    assert not any("nudge" in w for w in rep.warnings)


def test_decay_fit_builds_the_kernels_once_per_eps(asym, monkeypatch):
    spec, cov, gspec = asym["spec"], asym["cov"], asym["gspec"]
    builds = []
    build = borel_solver.eps_kernels

    def counted(spec, m, eps):
        builds.append(eps)
        return build(spec, m, eps)

    monkeypatch.setattr(borel_solver, "eps_kernels", counted)
    monkeypatch.setattr(formal_asymptotics, "eps_kernels", counted)
    family = SolutionFamily(spec, cov, gspec, tol=1e-13)
    arg = np.angle(cov.overlap_sample(0))
    probes = [(0.06 * np.exp(1j * cov.t_direction), 0.1)]
    rep = difference_decay_fit(family, 0, [m * np.exp(1j * arg) for m in (0.1, 0.2)],
                               probes=probes)
    # one build serves the expansion and both sectors' solves
    assert len(rep.eps_samples) == 2 and len(family.reports) == 4
    assert builds == rep.eps_samples
    assert len(family.arc_orders) == 2
    # a solve at another eps builds its own
    family.at(0, 0.05 * np.exp(1j * cov.directions[0]))
    assert len(builds) == 3


def test_taylor_samples_match_the_solved_ring_rows(asym):
    # the arc samples summed from the Taylor series at tau = 0 against solved
    # ring lines at the arc rung, and the order-0 coefficients against the
    # solved centre row
    spec, cov, gspec, family = asym["spec"], asym["cov"], asym["gspec"], asym["family"]
    grid = build_grid(spec, make_geometry(spec, cov.d_rays[0], m_grid=family.m_grid), gspec)
    for eps in (0.005j, 0.2j, 0.11 * np.exp(1j * np.angle(cov.overlap_sample(0)))):
        w0, w1, _ = solve_triangular(spec, eps, grid, tol=family.tol)
        coef = taylor_at_origin(spec, eps, grid.m, grid.radius_of_rung(grid.arc_rung()))
        sol = LogSolution(spec, grid, w0, w1, eps, Delta=cov.Delta, taylor=coef)
        assert arc_sample_gap(sol) <= 1e-13
        for c0, w in zip(coef[:, 0], (w0, w1)):
            assert np.abs(c0 - w[-1]).max() <= 1e-13 * np.abs(w[-1]).max()


def test_taylor_samples_match_the_ring_rows_with_b01(problem_dict):
    # b_01 != 0 couples omega_0 into equation 1: the per-order fixed point
    # and the coupled Picard solve must still agree
    problem_dict["eps0"] = 0.3
    problem_dict["coeffs"]["b01"] = {"num": [0.0005], "gauss": 1.0}
    spec = ProblemSpec.from_dict(problem_dict)
    assert not spec.coeffs.triangular
    grid = build_grid(spec, make_geometry(spec, 0.0),
                      GridSpec(m_max=12.0, m_nodes=81, T_min=5e-6, T_max=0.025))
    eps = 0.15 * np.exp(0.3j)
    w0, w1, _ = solve_coupled(spec, eps, grid, tol=1e-13)
    coef = taylor_at_origin(spec, eps, grid.m, grid.radius_of_rung(grid.arc_rung()))
    sol = LogSolution(spec, grid, w0, w1, eps, taylor=coef)
    assert arc_sample_gap(sol) <= 1e-13
    for c0, w in zip(coef[:, 0], (w0, w1)):
        assert np.abs(c0 - w[-1]).max() <= 1e-13 * np.abs(w[-1]).max()


def test_taylor_series_that_does_not_converge_raises(asym, problem_dict):
    spec = asym["spec"]
    m = M_SMALL
    # past the nearest zero of P_m(tau) the terms grow until the order cap
    root = float(np.min(np.abs(polyval_im(spec.Q, m) / polyval_im(spec.RD, m))))
    assert spec.dD == 1 and spec.q_power_factor(1) == 1.0
    taylor_at_origin(spec, 0.1, m, 0.5 * root)
    with pytest.raises(DivergenceError, match="does not converge at"):
        taylor_at_origin(spec, 0.1, m, 1.5 * root)
    # b symbols far beyond the smallness budget: no order converges
    problem_dict["coeffs"]["b11"] = {"num": [5.0], "gauss": 1.0}
    with pytest.raises(DivergenceError, match="Taylor coefficients at tau = 0 .*smallness"):
        taylor_at_origin(ProblemSpec.from_dict(problem_dict), 0.1, m, 0.1)


def test_difference_decay_quiet_overlap(asym):
    # the other overlap has no Stokes ray inside the wedge: differences sit at
    # the noise floor many orders below the active overlap at equal |eps|
    cov, family = asym["cov"], asym["family"]
    arg = np.angle(cov.overlap_sample(1))
    eps = 0.11 * np.exp(1j * arg)
    sol_a = family.at(1, eps)
    sol_b = family.at(2, eps)
    from qborel.solution_assembly import solution_difference

    t = 0.05 * np.exp(1j * cov.t_direction)
    quiet = abs(solution_difference(sol_a, sol_b, 0, t, 0.1))
    active_eps = 0.11 * np.exp(1j * np.angle(cov.overlap_sample(0)))
    loud = abs(solution_difference(family.at(0, active_eps),
                                   family.at(1, active_eps), 0, t, 0.1))
    assert quiet < 1e-6 * loud


def test_series_fits_both_sectors(asym):
    # Ramis-Sibuya realised numerically: the same series is the expansion of
    # every sectorial solution
    family, series = asym["family"], asym["series"]
    for p in (0, 1):
        eps = 0.1 * np.exp(1j * family.covering.directions[p])
        sol = family.at(p, eps)
        t = 0.05 * np.exp(1j * family.covering.t_direction)
        for j in (0, 1):
            u = sol.component(j, t, 0.1)
            part = evaluate_formal(series, j, t, 0.1, eps, 3)
            assert abs(u - part) < 5e-5 * abs(u), (p, j)


def test_default_probes_inside_domain(asym):
    pts = default_probes(asym["cov"])
    assert len(pts) == 9
    for (t, z) in pts:
        assert abs(t) < asym["cov"].t_radius
        assert abs(complex(z).imag) < asym["spec"].beta_prime
