import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qborel import borel_solver
from qborel.borel_solver import (
    BorelGrid,
    GridSpec,
    SolverContext,
    _picard,
    build_grid,
    contraction_bound,
    held_bottom,
    solve_coupled,
    solve_held,
    solve_triangular,
    taylor_at_origin,
)
from qborel.errors import DivergenceError, UsageError
from qborel.geometry import make_geometry
from qborel.problem_model import ProblemSpec, forcing_borel
from qborel.solution_assembly import residual_borel
from tests.conftest import GEOMETRY_M_GRID, disc_taylor_gap, kept_rows
from tests.oracles import (apply_HP, apply_Hl, contraction_probe, stacked, weighted_norm,
                           whole_array_solve, whole_line_operators)


def test_grid_alignment_and_exact_dilation(golden):
    grid, spec = golden["grid"], golden["spec"]
    # the single lower-order term dilates by exactly one rung at this density
    ctx = SolverContext(spec, grid, golden["eps"])
    assert ctx.fac.shifts == (grid.N * 1 // 13,)
    f = stacked(grid, grid.tau[:, None] ** 2, 0.0)
    shifted = grid.dilation(2).apply(f)
    fac = spec.q ** (-2.0 / grid.N)
    want = (fac * grid.tau) ** 2
    got = shifted[2:-1, 0]
    expect = want[2:]
    assert np.max(np.abs(got - expect)) < 1e-15 * max(1.0, np.max(np.abs(expect)))


def test_dilation_bottom_interpolation_accuracy(golden):
    # the ladder from 5 octaves below the disc radius up to it: its bottom
    # row, the one interpolated row, reads the quadratic through the centre
    # and the two lowest nodes
    grid = golden["grid"].rung_range(-5 * golden["grid"].N, 0)
    f = stacked(grid, np.exp(grid.tau)[:, None], 1.0)
    shifted = grid.dilation(1).apply(f)
    fac = grid.spec_q ** (-1.0 / grid.N)
    assert abs(shifted[0, 0] - np.exp(fac * grid.tau[0])) < 1e-6


def test_apply_hl_zero_cases(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    ctx = SolverContext(spec, grid, eps)
    zero = stacked(grid, 0.0, 0.0)
    out = apply_Hl(ctx, zero, 0)
    assert weighted_norm(grid, spec, out) == 0.0


def test_apply_hl_respects_c3_bound(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    ctx = SolverContext(spec, grid, eps)
    c3 = golden["ops"]["C3"][0]
    rng = np.random.default_rng(3)
    weights = grid.stacked_weights(spec)
    w_nodes, w_center = weights[:-1], weights[-1]
    worst = 0.0
    for _ in range(20):
        w = stacked(
            grid,
            (rng.standard_normal(w_nodes.shape) + 1j * rng.standard_normal(w_nodes.shape)) / w_nodes,
            (rng.standard_normal(w_center.shape) + 1j * rng.standard_normal(w_center.shape)) / w_center)
        # C3 composes the coefficient envelope bound; scale by measured sup/C_C
        out = apply_Hl(ctx, w, 0)
        worst = max(worst, weighted_norm(grid, spec, out) / weighted_norm(grid, spec, w))
    assert worst <= c3 * 1.05


def test_apply_hp_zero_and_bound(golden):
    spec, grid, eps, consts = golden["spec"], golden["grid"], golden["eps"], golden["consts"]
    ctx = SolverContext(spec, grid, eps)
    zero = stacked(grid, 0.0, 0.0)
    assert weighted_norm(grid, spec, apply_HP(ctx, zero)) == 0.0
    bound = (spec.dD / spec.k) / consts["D1"] * max(1.0 / consts["C_D"], 1.0 / consts["D3"])
    rng = np.random.default_rng(5)
    weights = grid.stacked_weights(spec)
    w_nodes, w_center = weights[:-1], weights[-1]
    for _ in range(10):
        w = stacked(
            grid,
            (rng.standard_normal(w_nodes.shape) + 1j * rng.standard_normal(w_nodes.shape)) / w_nodes,
            (rng.standard_normal(w_center.shape) + 1j * rng.standard_normal(w_center.shape)) / w_center)
        assert weighted_norm(grid, spec, apply_HP(ctx, w)) \
            <= bound * weighted_norm(grid, spec, w) * (1 + 1e-12)


def test_apply_hp_vanishes_for_dD0(problem_dict):
    problem_dict["dD"] = 0
    problem_dict["RD"] = [-1.0, 0.0, 0.25]
    problem_dict["terms"][0]["delta"] = [0, 1]
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    grid = build_grid(spec, geom, GridSpec(m_max=12.0, m_nodes=81, density_factor=4.0))
    ctx = SolverContext(spec, grid, 0.01)
    w = stacked(grid, 1.0, 1.0)
    assert weighted_norm(grid, spec, apply_HP(ctx, w)) == 0.0


def test_apply_h_structure(golden, problem_dict):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    ctx = SolverContext(spec, grid, eps)
    zero = stacked(grid, 0.0, 0.0)
    h0, h1 = ctx.apply_H(zero, zero)
    # one application to (0,0) returns the forcing terms over P
    want0 = (ctx.F[0] * ctx.fac.inv_p)[:-1]
    want1 = (ctx.F[1] * ctx.fac.inv_p)[:-1]
    assert np.max(np.abs(h0[:-1] - want0)) == 0.0
    assert np.max(np.abs(h1[:-1] - want1)) == 0.0
    # triangular structure: the second component ignores omega_0
    rng = np.random.default_rng(7)
    w0 = stacked(grid, rng.standard_normal(h0[:-1].shape) * (0.01 + 0j),
                 rng.standard_normal(grid.m.size) * (0.01 + 0j))
    _, h1_perturbed = ctx.apply_H(w0, zero)
    assert np.max(np.abs(h1_perturbed[:-1] - h1[:-1])) == 0.0


def test_apply_h_zero_problem(problem_dict):
    problem_dict["forcing"]["f0"] = {}
    problem_dict["forcing"]["f1"] = {}
    problem_dict["coeffs"]["b00"] = None
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    problem_dict["terms"][0]["C"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    grid = build_grid(spec, geom, GridSpec(m_max=12.0, m_nodes=81, density_factor=4.0))
    w0, w1, rep = solve_coupled(spec, 0.01, grid)
    assert rep.iterations == 1
    assert weighted_norm(grid, spec, w0) == 0.0 and weighted_norm(grid, spec, w1) == 0.0


def test_solver_report_on_golden(golden):
    rep = golden["report"]
    spec = golden["spec"]
    assert golden["smallness"]["pass"]
    assert rep.iterations <= 60
    assert rep.final_update < 1e-11
    assert rep.contraction <= 0.55
    assert rep.residual <= 1e-10
    assert max(rep.norms) <= rep.varpi


def test_fixed_point_residual_via_reapplication(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    ctx = SolverContext(spec, grid, eps)
    h0, h1 = ctx.apply_H(golden["w0"], golden["w1"])
    res = max(weighted_norm(grid, spec, h0 - golden["w0"]),
              weighted_norm(grid, spec, h1 - golden["w1"]))
    assert res <= 10 * 1e-11


def test_triangular_matches_coupled(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    assert spec.coeffs.triangular
    w0t, w1t, rep = solve_triangular(spec, eps, grid)
    d0 = np.max(np.abs(w0t[:-1] - golden["w0"][:-1]))
    d1 = np.max(np.abs(w1t[:-1] - golden["w1"][:-1]))
    dc = max(np.max(np.abs(w0t[-1] - golden["w0"][-1])),
             np.max(np.abs(w1t[-1] - golden["w1"][-1])))
    assert max(d0, d1, dc) <= 1e-9


def test_triangular_residual_is_the_coupled_one_from_its_blocks(golden, monkeypatch):
    # The triangular report takes the coupled map's rows from its blocks,
    # apply_H0(w0, g) and apply_H1(w1), and never calls apply_H.  Both sums
    # round differently, and under the stopping rule the residual is itself
    # rounding noise (about 2e-16, where the two differ by a quarter), so
    # they must agree to 1e-14 relative to the solution's norm.  Stopped at
    # 1e-3 of the first update the residual is 1e-7, and the same bound pins
    # every term of the tail.
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    real = SolverContext.apply_H
    calls = []

    def counting(self, w0, w1):
        calls.append(1)
        return real(self, w0, w1)

    monkeypatch.setattr(SolverContext, "apply_H", counting)
    ctx = SolverContext(spec, grid, eps)
    for rtol in (1e-3, borel_solver.PICARD_RTOL):
        monkeypatch.setattr(borel_solver, "PICARD_RTOL", rtol)
        w0, w1, rep = solve_triangular(spec, eps, grid)
        assert calls == []
        want = max(weighted_norm(grid, spec, h - w)
                   for h, w in zip(real(ctx, w0, w1), (w0, w1)))
        assert abs(rep.residual - want) <= 1e-14 * max(rep.norms), (rtol, rep.residual, want)


def test_triangular_requires_flag(golden, problem_dict):
    problem_dict["coeffs"]["b01"] = {"num": [0.0005], "gauss": 1.0}
    spec = ProblemSpec.from_dict(problem_dict)
    with pytest.raises(UsageError):
        solve_triangular(spec, golden["eps"], golden["grid"])


def test_triangular_one_step_when_uncoupled(problem_dict):
    problem_dict["coeffs"]["b10"] = None
    problem_dict["coeffs"]["b11"] = None
    problem_dict["terms"][0]["C"] = None
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    grid = build_grid(spec, geom, GridSpec(m_max=12.0, m_nodes=81, density_factor=4.0))
    ctx = SolverContext(spec, grid, 0.01)
    w0, w1, rep = solve_triangular(spec, 0.01, grid)
    want = ctx.F[1] * ctx.fac.inv_p
    assert np.max(np.abs(w1 - want)) < 1e-14


def test_contraction_bound(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    bound = contraction_bound(spec, eps, grid)
    # the bound lies above both lower estimates of H's Lipschitz constant
    assert contraction_probe(spec, eps, grid, seed=1) <= bound <= 0.55
    assert golden["report"].contraction <= bound


def test_contraction_bound_is_one_operator_pass(golden, monkeypatch):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    before = SolverContext(spec, grid, eps).apply_H(golden["w0"], golden["w1"])
    passes = []
    real = SolverContext._contributions

    def counting(self, unknowns, accs):
        passes.append((sorted(unknowns), sorted(accs)))
        return real(self, unknowns, accs)

    def refused(*args, **kwargs):
        raise AssertionError("the bound reads no forcing and applies no H")

    monkeypatch.setattr(SolverContext, "_contributions", counting)
    monkeypatch.setattr(SolverContext, "apply_H", refused)
    monkeypatch.setattr(borel_solver, "forcing_borel", refused)
    contraction_bound(spec, eps, grid)
    assert passes == [([0, 1], [0, 1])]
    monkeypatch.undo()
    # the moduli live on a copy: the grid's cached factors and dilations
    # still give the solve's operator
    after = SolverContext(spec, grid, eps).apply_H(golden["w0"], golden["w1"])
    for a, b in zip(before, after):
        assert a.tobytes() == b.tobytes()


def test_picard_stops_at_first_non_finite_update():
    steps = []

    def step(w):
        steps.append(w)
        return w + (math.nan if len(steps) == 2 else 1.0)

    with pytest.raises(DivergenceError, match="iteration 2") as err:
        _picard(step, 0.0, lambda a, b: abs(a - b), step(0.0))
    assert len(steps) == 2
    assert len(err.value.history) == 2


def test_seeded_first_iterate_is_the_first_picard_step(golden, monkeypatch):
    # both solves seed Picard with the image of zero, which they know without
    # applying the map; a run that applies the map instead must take the same
    # iterates, so the same count and update history
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    solves = (solve_coupled, solve_triangular)
    seeded = [solve(spec, eps, grid)[2] for solve in solves]
    picard = borel_solver._picard

    def unseeded(step, start, diff_norm, first):
        return picard(step, start, diff_norm, step(start))

    monkeypatch.setattr(borel_solver, "_picard", unseeded)
    for solve, want in zip(solves, seeded):
        got = solve(spec, eps, grid)[2]
        assert got.iterations == want.iterations
        assert len(got.update_history) == len(want.update_history)
        for a, b in zip(got.update_history, want.update_history):
            assert abs(a - b) <= 1e-15 * b, (solve.__name__, a, b)


@pytest.mark.parametrize("solve", [solve_coupled, solve_triangular])
def test_every_picard_run_stops_at_the_one_rule(golden, monkeypatch, solve):
    # on the whole line and with its lowest rows held, every Picard run of
    # the solve stops at its first update of at most PICARD_RTOL of its first
    # iterate's size, and not one update earlier: the rule is the bound the
    # runs stop at, not a looser one.  Each run starts from zero, so its
    # first update is that size: for the first run, the weighted sup over
    # the free rows of the forcing over P, of both equations for the coupled
    # map and of equation 1 for the triangular one
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    histories = []
    real = borel_solver._picard

    def recording(*args):
        out = real(*args)
        histories.append(out[-1])
        return out

    monkeypatch.setattr(borel_solver, "_picard", recording)
    ctx = SolverContext(spec, grid, eps)
    n = 2 * max(ctx.fac.shifts)
    held = np.stack([np.concatenate([w[:n], w[-1:]]) for w in (golden["w0"], golden["w1"])])
    for rows in (None, held):
        histories.clear()
        solve(spec, eps, grid, held=rows)
        assert len(histories) == (1 if solve is solve_coupled else 2)
        for h in histories:
            assert h[-1] <= borel_solver.PICARD_RTOL * h[0] < h[-2], h
        weights = grid.stacked_weights(spec).copy()
        if rows is not None:
            weights[np.r_[0:n, grid.n_nodes]] = 0.0
        sizes = [float(np.max(np.abs(ctx.image_of_zero(j)) * weights)) for j in (0, 1)]
        first = max(sizes) if solve is solve_coupled else sizes[1]
        assert histories[0][0] == pytest.approx(first, rel=1e-15)


@pytest.mark.parametrize("solve", [solve_coupled, solve_triangular])
@pytest.mark.parametrize("held", [False, True])
def test_solves_hand_back_the_whole_array_solve_in_arrays_of_their_own(golden, monkeypatch,
                                                                       solve, held):
    # the iterates ping-pong between preallocated buffers and the report's
    # images go into the ones a run leaves spare: the returned arrays are
    # bit for bit those of a solve that takes a new array for every iterate
    # and image, and neither they nor the images share memory, so no later
    # sweep of the solve, such as the triangular solve's omega_0 run, has
    # written over omega_1
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    rows = None
    if held:
        n = 2 * max(grid.factors(spec).shifts)
        rows = np.stack([np.concatenate([w[:n], w[-1:]]) for w in (golden["w0"], golden["w1"])])
    reported = []
    real = borel_solver._solve_report

    def recording(weights, dist, pair, images, *rest):
        reported.append((*pair, *images))
        return real(weights, dist, pair, images, *rest)

    monkeypatch.setattr(borel_solver, "_solve_report", recording)
    w0, w1, rep = solve(spec, eps, grid, held=rows)
    want = whole_array_solve(spec, eps, grid, rows, triangular=solve is solve_triangular)
    assert w0.tobytes() == want[0].tobytes() and w1.tobytes() == want[1].tobytes()
    assert rep.residual == want[2] and rep.update_history == want[3]
    (arrays,) = reported
    assert arrays[0] is w0 and arrays[1] is w1
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


def test_affine_linearity(golden):
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    ctx = SolverContext(spec, grid, eps)
    rng = np.random.default_rng(9)
    weights = grid.stacked_weights(spec)
    w_nodes, w_center = weights[:-1], weights[-1]

    def rand_fn():
        return stacked(
            grid,
            (rng.standard_normal(w_nodes.shape) + 1j * rng.standard_normal(w_nodes.shape)) / w_nodes,
            (rng.standard_normal(w_center.shape) + 1j * rng.standard_normal(w_center.shape)) / w_center)

    a0, a1, c0, c1 = rand_fn(), rand_fn(), rand_fn(), rand_fn()
    lam = 0.37
    base = ctx.apply_H(a0, a1)
    plus = ctx.apply_H(a0 + lam * c0, a1 + lam * c1)
    once = ctx.apply_H(a0 + c0, a1 + c1)
    for j in range(2):
        lhs = plus[j] - base[j]
        rhs = lam * (once[j] - base[j])
        scale = max(weighted_norm(grid, spec, base[j]), 1e-12)
        assert weighted_norm(grid, spec, lhs - rhs) <= 1e-10 * scale


def test_divergence_detected(problem_dict):
    problem_dict["coeffs"]["b00"] = {"num": [200.0], "gauss": 1.0}
    problem_dict["coeffs"]["CB"] = 5000.0
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    grid = build_grid(spec, geom, GridSpec(m_max=12.0, m_nodes=81, density_factor=4.0))
    with pytest.raises(DivergenceError) as err:
        solve_coupled(spec, 0.015, grid)
    assert len(err.value.history) >= 3


def test_disc_agreement_between_directions(golden):
    # omega on the disc D(0, rho) does not depend on the direction: the rows
    # of each line at or below rung 0 and its centre equal the Taylor sum at
    # tau = 0 to rounding, relative to the line's largest value.  The grids
    # of build_grid end far inside the disc, so each direction is solved on
    # its ladder up to rung 0
    spec, eps, gspec = golden["spec"], golden["eps"], golden["gspec"]
    geom2 = make_geometry(spec, d=0.3, m_grid=GEOMETRY_M_GRID)
    geom2.rho = golden["geom"].rho
    geom2.delta = golden["geom"].delta
    for grid in (golden["grid"], build_grid(spec, geom2, gspec)):
        line = grid.rung_range(grid.g_lo, 0)
        sol = (line, *solve_coupled(spec, eps, line)[:2])
        scale = max(np.abs(w).max() for w in sol[1:])
        assert disc_taylor_gap(spec, eps, [sol]) <= 1e-13 * scale


def test_eps_holomorphy_proxy(golden):
    # Cauchy-Riemann in eps via central differences of the fixed point
    spec, grid = golden["spec"], golden["grid"]
    eps, h = golden["eps"], 2e-4
    sols = {}
    for de in (h, -h, 1j * h, -1j * h):
        w0, _, _ = solve_coupled(spec, eps + de, grid)
        sols[de] = w0
    ddre = 1.0 / (2 * h) * (sols[h] - sols[-h])
    ddim = 1.0 / (2j * h) * (sols[1j * h] - sols[-1j * h])
    diff = weighted_norm(grid, spec, ddre - ddim)
    scale = max(weighted_norm(grid, spec, ddre), 1e-12)
    assert diff <= 1e-4 * scale


def _lagrange(xs, x):
    """Weights of the polynomial through the nodes xs, evaluated at x."""
    return [math.prod((x - b) / (a - b) for b in xs if b != a) for a in xs]


def _dense_affine_fixed_point(problem_dict):
    """Oracle: the affine map H(w) = L w + f written out from the equations as
    one dense matrix on a tiny grid, without SolverContext or the shared
    convolution kernel, then (I - L) w = f solved directly.  Strong, wide
    symbols make every kernel entry, the end weights included, count.
    b_01 stays zero, so the triangular solve applies too.

    Returns (spec, grid, eps, solution), the solution stacked as the nodes
    and centre of omega_0, then those of omega_1.
    """
    wide = {"num": [0.05], "gauss": 0.02}
    problem_dict["coeffs"].update(b00=wide, b10=wide, b11=wide)
    problem_dict["terms"][0]["C"] = {"num": [0.5], "gauss": 0.02, "eps_poly": [1.0, 0.2]}
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    m = np.linspace(-12.0, 12.0, 9)
    grid = BorelGrid(spec.q, 13, geom.rho, geom.delta, 0.0, m, -24, 6)
    eps = 0.015

    n, n_m = grid.n_nodes, m.size
    ext = np.append(grid.tau, 0.0)          # every node, then the centre tau = 0
    h = m[1] - m[0]
    tw = np.full(n_m, h)
    tw[0] = tw[-1] = h / 2

    def conv(sym, poly):
        """I (x) K with K[a, b] = sym(m_a - m_b) poly(i m_b) tw_b / sqrt(2 pi)."""
        R = np.polyval(np.asarray(poly, dtype=complex)[::-1], 1j * m)
        K = np.array([[sym(ma - mb, eps) * R[b] * tw[b] for b, mb in enumerate(m)]
                      for ma in m]) / math.sqrt(2.0 * math.pi)
        return np.kron(np.eye(n + 1), K)

    def dilation(shift):
        """tau -> q^(-shift/N) tau: a rung shift along the line; below the
        bottom rung the quadratic through the centre and the two lowest nodes."""
        D = np.zeros((n + 1, n + 1))
        D[n, n] = 1.0
        nodes = [0.0, grid.radius_of_rung(grid.g_lo), grid.radius_of_rung(grid.g_lo + 1)]
        for j in range(n):
            if j >= shift:
                D[j, j - shift] = 1.0
                continue
            wts = _lagrange(nodes, grid.radius_of_rung(grid.g_lo + j - shift))
            for col, wt in zip((n, 0, 1), wts):
                D[j, col] += wt
        return np.kron(D, np.eye(n_m))

    def diag(a):
        return np.diag(np.broadcast_to(a, (n + 1, n_m)).ravel())

    rd = np.polyval(np.asarray(spec.RD, dtype=complex)[::-1], 1j * m)
    hp = (spec.dD / spec.k) * spec.q_power_factor(spec.dD) * np.outer(ext ** spec.dD, rd)
    zero = np.zeros(((n + 1) * n_m,) * 2)
    A = {(0, 0): zero, (0, 1): diag(hp), (1, 0): zero, (1, 1): zero}  # (equation, unknown)
    for t in spec.terms:
        shift = (Fraction(t.d, spec.k) - t.delta) * grid.N
        pref = spec.q_power_factor(t.d) * ext[:, None] ** t.d
        H_t = eps ** (t.Delta - t.d) * diag(pref) @ conv(t.C, t.R) @ dilation(int(shift))
        A[(0, 0)] = A[(0, 0)] + H_t
        A[(0, 1)] = A[(0, 1)] + float(t.delta) * H_t
        A[(1, 1)] = A[(1, 1)] + H_t
    for (j, kk), sym in spec.coeffs.b.items():
        A[(kk, j)] = A[(kk, j)] + conv(sym, [1.0])
    inv_p = diag(1.0 / spec.pm(ext, m))
    L = np.block([[inv_p @ A[(r, c)] for c in (0, 1)] for r in (0, 1)])
    f = np.concatenate([(forcing_borel(spec, comp, ext, m, eps) / spec.pm(ext, m)).ravel()
                        for comp in (0, 1)])
    return spec, grid, eps, np.linalg.solve(np.eye(L.shape[0]) - L, f)


def _assert_matches_dense(solve, problem_dict):
    spec, grid, eps, dense = _dense_affine_fixed_point(problem_dict)
    w0, w1, _ = solve(spec, eps, grid)
    picard = np.concatenate([w0.ravel(), w1.ravel()])
    scale = np.max(np.abs(dense))
    assert scale > 0
    err = np.max(np.abs(picard - dense))
    assert err <= 1e-12 * scale, err / scale


def test_picard_matches_dense_solve_of_affine_fixed_point(problem_dict):
    _assert_matches_dense(solve_coupled, problem_dict)


def test_contraction_bound_bounds_the_dense_row_sum_norm(problem_dict):
    """L, the linear part of H, column by column on the dense oracle's grid,
    as H(e_j) - H(0) of each unit sample e_j: its exact weighted row-sum
    norm max_i w_i sum_j |L_ij| / w_j lies below the bound."""
    spec, grid, eps, _ = _dense_affine_fixed_point(problem_dict)
    ctx = SolverContext(spec, grid, eps)
    shape = (grid.n_nodes + 1, grid.m.size)
    size = shape[0] * shape[1]
    image_of_zero = np.concatenate([ctx.image_of_zero(eq).ravel() for eq in (0, 1)])
    columns = []
    for j in range(2 * size):
        unit = np.zeros(2 * size, dtype=complex)
        unit[j] = 1.0
        image = ctx.apply_H(unit[:size].reshape(shape), unit[size:].reshape(shape))
        columns.append(np.concatenate([h.ravel() for h in image]) - image_of_zero)
    L = np.array(columns).T
    w = np.tile(grid.stacked_weights(spec).ravel(), 2)
    exact = float(np.max(w * (np.abs(L) @ (1.0 / w))))
    bound = contraction_bound(spec, eps, grid)
    assert exact <= bound * (1.0 + 1e-12)
    assert exact > 0.5 * bound, (exact, bound)


def test_triangular_picard_matches_dense_solve_of_affine_fixed_point(problem_dict):
    _assert_matches_dense(solve_triangular, problem_dict)


def _dilate_per_row(grid, values, center, shift):
    """Oracle: the rung shift row by row, with the quadratic through the
    centre and the two lowest nodes below the bottom rung."""
    out = np.empty_like(values)
    r0, r1 = grid.radius_of_rung(grid.g_lo), grid.radius_of_rung(grid.g_lo + 1)
    for j in range(grid.n_nodes):
        if j >= shift:
            out[j] = values[j - shift]
            continue
        r = grid.radius_of_rung(grid.g_lo + j - shift)
        l0 = (r - r0) * (r - r1) / (r0 * r1)
        l1 = r * (r - r1) / (r0 * (r0 - r1))
        l2 = r * (r - r0) / (r1 * (r1 - r0))
        out[j] = l0 * center + l1 * values[0] + l2 * values[1]
    return out


def _random_function(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (grid.n_nodes, grid.m.size)
    return stacked(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                   rng.standard_normal(grid.m.size) + 1j * rng.standard_normal(grid.m.size))


@pytest.mark.parametrize("shift", [0, 1, 3, 4, 40])
def test_dilation_gather_matches_per_line_loop_bit_for_bit(shift):
    # lines of 31 and 4 nodes: shifts 4 and 40 reach past the short line's top
    for g_lo, g_hi in ((-24, 6), (-3, 0)):
        grid = BorelGrid(2.0, 13, 0.7, 0.1, 0.3, np.linspace(-3.0, 3.0, 5), g_lo, g_hi)
        f = _random_function(grid, shift)
        got = grid.dilation(shift).apply(f)
        want = _dilate_per_row(grid, f[:-1], f[-1], shift)
        assert got[:-1].tobytes() == want.tobytes()
        assert got[-1].tobytes() == f[-1].tobytes()
        with pytest.raises(UsageError):
            grid.dilation(-1)


def test_truncated_grid_keeps_the_ladder_and_the_rungs_above_the_cut():
    grid = BorelGrid(2.0, 13, 0.7, 0.1, 0.3, np.linspace(-3.0, 3.0, 5), -40, 6, T_max=0.1)
    # the rung nearest rho/2: q^(g/N) = 1/2 at g = -N for q = 2
    assert grid.arc_rung() == -13
    f = _random_function(grid, 7)
    for bottom, top in ((-40, 6), (-13, 6), (5, 6), (-40, -20), (-13, 0)):
        cut = grid.rung_range(bottom, top)
        assert (cut.N, cut.rho, cut.direction, cut.spec_q) == (13, 0.7, 0.3, 2.0)
        assert cut.T_max == 0.1
        assert cut.m is grid.m and (cut.g_lo, cut.g_hi) == (bottom, top)
        assert cut.arc_rung() == grid.arc_rung()
        rows = kept_rows(grid, cut)
        assert cut.tau.tobytes() == grid.tau[rows[:-1]].tobytes()
        # a rung reads only lower rungs and the centre, so rows at least one
        # shift above the cut's bottom dilate as on the whole line, whatever
        # its top; the rows below read the cut's own bottom quadratic
        part = f[rows]
        for shift in (1, 3, 40):
            got = cut.dilation(shift).apply(part)
            want = grid.dilation(shift).apply(f)[rows]
            start = 0 if bottom == grid.g_lo else shift
            assert got[start:].tobytes() == want[start:].tobytes()
            assert got[-1].tobytes() == want[-1].tobytes()
    # the same ladder reaches past the line's ends
    wide = grid.rung_range(-41, 52)
    assert wide.tau[1:-46].tobytes() == grid.tau.tobytes()
    # a line of one rung would take its bottom quadratic through a made-up
    # second node
    for bottom in (6, 7):
        with pytest.raises(UsageError, match="two rungs"):
            grid.rung_range(bottom, 6)
    with pytest.raises(UsageError, match="two rungs"):
        BorelGrid(2.0, 13, 0.7, 0.1, 0.3, grid.m, 0, 0)


def test_operators_on_a_truncated_grid_restrict_the_full_ones(golden):
    # one application of every operator on a cut of the ladder equals the
    # longer line's application on the rows it keeps at least one dilation
    # shift above the cut's bottom, whose inputs are all kept: build_grid's
    # line (cut at its top) and a range from below the arc rung up to the
    # disc radius, both against the line from build_grid's bottom to rung 0
    spec, grid, eps = golden["spec"], golden["grid"], golden["eps"]
    full = grid.rung_range(grid.g_lo, 0)
    rng = np.random.default_rng(11)
    shape = (full.n_nodes + 1, full.m.size)
    w0, w1 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in range(2))

    def outputs(ctx, a, b):
        return [*ctx.apply_H(a, b), *ctx.undivided_residual(a, b), ctx.apply_H1(b),
                *ctx.g_eps(b), ctx.apply_H0(a, b)]

    want = outputs(SolverContext(spec, full, eps), w0, w1)
    for cut in (grid, full.rung_range(full.arc_rung() - 5, 0)):
        shift = max(cut.factors(spec).shifts)
        rows = kept_rows(full, cut)
        a, b = (w[rows] for w in (w0, w1))
        for got, ref in zip(outputs(SolverContext(spec, cut, eps), a, b), want):
            ref = ref[rows][shift:]
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(got[shift:] - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("density_factor, shift", [(4.0, 1), (8.0, 2)])
def test_held_block_must_span_the_dilation_shift(problem_dict, density_factor, shift):
    # the lowest free rung reads the rung one shift below it: a held block of
    # fewer rungs would feed it from the bottom quadratic below the cut
    spec = ProblemSpec.from_dict(problem_dict)
    grid = build_grid(spec, make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID),
                      GridSpec(m_max=12.0, m_nodes=41, density_factor=density_factor))
    cut = grid.rung_range(grid.arc_rung() - 5, grid.g_hi)
    assert cut.factors(spec).shifts == (shift,)
    for solve in (solve_coupled, solve_triangular):
        with pytest.raises(UsageError, match="dilation shift"):
            solve(spec, 0.015, cut, held=np.zeros((2, shift, cut.m.size)))
        # a block that leaves no free row is refused as well
        with pytest.raises(UsageError, match="free"):
            solve(spec, 0.015, cut, held=np.zeros((2, cut.n_nodes + 1, cut.m.size)))
    w0, w1, rep = solve_triangular(spec, 0.015, cut,
                                   held=np.zeros((2, shift + 1, cut.m.size)))
    assert not w0[:shift].any() and not w1[-1].any() and rep.norms[1] > 0
    with pytest.raises(UsageError):
        grid.rung_range(grid.g_hi, grid.g_hi)
    # solve_held holds the least block, one shift of rungs up to the arc
    # rung, and runs Picard on the rungs above it and the centre
    g_arc = grid.arc_rung()
    assert held_bottom(spec, grid) == g_arc - shift + 1 and grid.g_hi > 0
    coef = taylor_at_origin(spec, 0.015, grid.m, grid.radius_of_rung(g_arc))
    *_, rep, picard = solve_held(spec, 0.015, grid, coef)
    assert (picard.g_lo, picard.g_hi) == (g_arc - shift + 1, grid.g_hi)
    assert picard.n_nodes + 1 == grid.g_hi - g_arc + shift + 1 and rep.residual < 1e-10
    # a line above the arc rung that starts higher cannot hold the block,
    # and is refused before a solve
    short = grid.rung_range(held_bottom(spec, grid) + 1, grid.g_hi)
    with pytest.raises(UsageError, match="must reach"):
        solve_held(spec, 0.015, short, np.zeros((2, 1, short.m.size)))


def test_taylor_rung_is_the_lower_of_the_top_and_the_arc_rung(problem_dict):
    # a line that ends below or at its arc rung is all Taylor sum, and
    # solve_held runs no Picard on it; one that ends above is Taylor sum up
    # to the arc rung, with Picard above
    spec = ProblemSpec.from_dict(problem_dict)
    grid = build_grid(spec, make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID),
                      GridSpec(m_max=12.0, m_nodes=41, density_factor=4.0))
    g_arc = grid.arc_rung()
    coef = taylor_at_origin(spec, 0.015, grid.m, grid.radius_of_rung(g_arc))
    for top, want in ((g_arc - 3, g_arc - 3), (g_arc, g_arc), (g_arc + 3, g_arc)):
        line = grid.rung_range(grid.g_lo, top)
        assert line.taylor_rung() == want
        *_, picard = solve_held(spec, 0.015, line, coef)
        assert (picard is None) == (top <= g_arc)


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_shipped_kernels_and_order_block_inverses_are_real(name):
    # every shipped symbol has an even real m part and a real R_l(i m), so
    # each kernel, and each inverse of the Taylor orders' b block, is stored
    # as float64 and applied as one real product
    from pathlib import Path

    from qborel.cli import load_config

    rc = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    m = rc.gspec.m_grid()
    kernels = borel_solver.SymbolKernels.of(rc.spec, m)
    stored = [*kernels.terms, *(K for K in kernels.b.values() if K is not None)]
    block = borel_solver.OrderBlock(rc.spec, m)
    stored += [inv for inv in block.diag if inv is not None]
    assert len(stored) == 6
    assert all(K.dtype == np.float64 for K in stored), [K.dtype for K in stored]


@pytest.fixture(scope="module")
def example_line():
    """The example config and the line its verbs solve on: 205 stacked rows
    of 241 m nodes."""
    from pathlib import Path

    from qborel.cli import _line, load_config

    rc = load_config(Path(__file__).resolve().parents[1] / "configs" / "example_k13.json")
    return rc, _line(rc, {})


@pytest.mark.parametrize("rows", [205, borel_solver.KERNEL_ROWS + 1])
def test_block_passes_keep_the_bits_of_the_whole_line_pass(example_line, rows):
    # every operator walks the line in blocks of KERNEL_ROWS stacked rows;
    # each block's kernel products are the GEMMs that the whole-line pass
    # takes on its rows, and every elementwise step runs in the same order.
    # The line of KERNEL_ROWS + 1 rows leaves the centre alone in its last
    # block
    rc, line = example_line
    line = line.rung_range(line.g_hi - rows + 2, line.g_hi)
    assert line.n_nodes + 1 == rows
    rng = np.random.default_rng(rows)
    shape = (rows, line.m.size)
    w0, w1 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    want = whole_line_operators(SolverContext(rc.spec, line, rc.eps_solve), w0, w1)
    ctx = SolverContext(rc.spec, line, rc.eps_solve)
    got = {
        "apply_H": ctx.apply_H(w0, w1), "apply_H1": ctx.apply_H1(w1), "g_eps": ctx.g_eps(w1),
        "apply_H0": ctx.apply_H0(w0, w1),
        "undivided_residual": ctx.undivided_residual(w0, w1),
        "residual_borel": residual_borel(w0, w1, rc.spec, rc.eps_solve, line),
        "contraction_bound": contraction_bound(rc.spec, rc.eps_solve, line),
    }

    def bits(value):
        return [np.asarray(v).tobytes() for v in (value if isinstance(value, tuple) else (value,))]

    assert got.keys() == want.keys()
    for name, value in got.items():
        assert bits(value) == bits(want[name]), name


@pytest.mark.parametrize("solve", [solve_coupled, solve_triangular])
def test_solve_peak_is_its_buffers_the_forcing_and_one_block(example_line, solve):
    # above the line's kernels, factors and weights, built beforehand, the
    # whole-line coupled solve holds two iterate pairs and the forcing, six
    # line arrays, and one block's temporaries, about seven arrays of
    # KERNEL_ROWS rows: 8.2 line arrays at 205 rows.  The triangular solve
    # holds its two runs' buffers, g and the forcing, seven, and a smaller
    # block: 8.5.  An iterate or image allocated per sweep, a zero start, a
    # kept first image or the omega_0 buffers made before the pass that
    # computes g each costs a line array more (11.2 and 10.5 did)
    rc, line = example_line
    spec, eps = rc.spec, rc.eps_solve
    array = (line.n_nodes + 1) * line.m.size * 16
    bound = 9 * array
    borel_solver.SymbolKernels.of(spec, line.m)
    line.stacked_weights(spec)
    fac = line.factors(spec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w0, w1, _ = solve(spec, eps, line, fac=fac)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w0.shape == (205, 241)
    assert peak - before < bound, (peak - before) / array
    # the solve keeps nothing but the two arrays it returns
    assert after - before < 2.1 * array, (after - before) / array


@pytest.mark.parametrize("shape", [(241,), (25, 161), (206, 241), (2, 3, 161)])
def test_real_kernel_product_matches_the_complex_one(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
    K = rng.standard_normal((shape[-1], shape[-1]))
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = borel_solver.apply_kernel(data, K)
    want = data @ K.astype(complex).T
    assert got.shape == want.shape and got.dtype == complex
    gap = np.abs(got - want).max(axis=-1)
    assert np.all(gap <= 1e-15 * np.linalg.norm(want, axis=-1)), gap.max()
    # a complex kernel, or real data, takes the product as it is
    Kc = K + 1j * rng.standard_normal(K.shape)
    assert np.array_equal(borel_solver.apply_kernel(data, Kc), data @ Kc.T)
    assert np.array_equal(borel_solver.apply_kernel(data.real, K), data.real @ K.T)


def test_complex_term_kernel_solves_as_every_kernel_cast_to_complex(problem_dict, monkeypatch):
    # an odd coefficient in the term's R makes R(i m) complex: its kernel
    # stays complex while the b kernels are real, and the mixed products
    # give the rows that complex kernels throughout give; wide b symbols
    # make the b products count in every row
    problem_dict["terms"][0]["R"] = [0.25, 0.1, 0.25]
    wide = {"num": [0.05], "gauss": 0.02}
    problem_dict["coeffs"].update(b00=wide, b10=wide, b11=wide)
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=GEOMETRY_M_GRID)
    grid = BorelGrid(spec.q, 13, geom.rho, geom.delta, 0.0, np.linspace(-12.0, 12.0, 161),
                     -60, 10)
    kernels = borel_solver.SymbolKernels.of(spec, grid.m)
    assert kernels.terms[0].dtype == complex
    assert all(K.dtype == np.float64 for K in kernels.b.values() if K is not None)
    mixed = solve_triangular(spec, 0.015, grid)

    build = borel_solver.SymbolKernels.build.__func__

    def complex_build(cls, spec, m):
        kernels = build(cls, spec, m)
        return cls(terms=tuple(K.astype(complex) for K in kernels.terms),
                   b={jk: None if K is None else K.astype(complex)
                      for jk, K in kernels.b.items()})

    monkeypatch.setattr(borel_solver.SymbolKernels, "build", classmethod(complex_build))
    spec = ProblemSpec.from_dict(problem_dict)
    assert borel_solver.SymbolKernels.of(spec, grid.m).b[(0, 0)].dtype == complex
    cast = solve_triangular(spec, 0.015, grid)
    for got, want in zip(mixed[:2], cast[:2]):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
