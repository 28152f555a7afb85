"""Formal power-series solution in eps and the asymptotic link to the
analytic one: remainder envelopes of q-Gevrey type and the q-exponential
decay of differences across covering sectors.

The series is one array coef[j, n, p], the eps^n t^p coefficient of u_j on
the m grid.  The q-Laplace transform sends tau^p to q^(p(p-1)/2k) (eps t)^p,
so coef[j, n, p] is q^(p(p-1)/2k) times the eps^(n-p) part of the Taylor
coefficient c_p(eps) of omega_j at tau = 0: `borel_solver.TaylorRecursion`
with truncated eps-series for coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .borel_solver import (GridSpec, TaylorRecursion, build_grid, eps_kernels, held_bottom,
                           solve_held, taylor_at_origin)
from .errors import DomainError, UsageError, ZeroRingError
from .geometry import GoodCovering, admissible_r1, make_geometry
from .problem_model import ProblemSpec
from .solution_assembly import (LogSolution, difference_arc_rung, solution_difference,
                                tail_reach)
from .transforms import inverse_fourier

__all__ = [
    "FormalSeries",
    "AsymptoticsReport",
    "SolutionFamily",
    "formal_coefficients",
    "formal_residual",
    "evaluate_formal",
    "gevrey_remainder_check",
    "difference_decay_fit",
]


@dataclass
class FormalSeries:
    """Truncated eps-series pair: coef[j, n, p] is the eps^n t^p coefficient
    of u_j on the m grid, a (2, order + 1, order + 1, n_m) array, zero for
    p > n.  `recursion` is the `TaylorRecursion.eps_series` it was solved
    with, which `formal_residual` checks it against."""

    order: int
    m: np.ndarray
    coef: np.ndarray
    solve_tol: float
    recursion: TaylorRecursion = field(repr=False, compare=False)


@dataclass
class AsymptoticsReport:
    eps_samples: list = field(default_factory=list)
    remainders: dict = field(default_factory=dict)   # N -> list over eps
    fit_C: float = math.nan
    fit_A: float = math.nan
    fit_residual: float = math.nan
    ratio_table: list = field(default_factory=list)  # g_N values
    ratio_monotone: bool | None = None
    decay: dict = field(default_factory=dict)        # j -> list over eps
    decay_coeffs: tuple = ()
    target_quadratic: float = math.nan
    relative_deviation: float = math.nan
    nudges: int = 0                                  # eps moves off a kernel zero ring
    warnings: list = field(default_factory=list)


def formal_coefficients(spec: ProblemSpec, N: int, tol: float = 1e-13,
                        m_grid=None) -> FormalSeries:
    """Solve the coefficient recursion up to eps^N: the orders p <= N of
    `TaylorRecursion.eps_series`, each eps power of each one small fixed
    point iterated to tol (convergent under the smallness budget)."""
    m = GridSpec().m_grid() if m_grid is None else np.asarray(m_grid, dtype=float)
    coef = np.zeros((2, N + 1, N + 1, m.size), dtype=complex)
    rec = TaylorRecursion.eps_series(spec, m, N)
    orders = rec.orders(lambda p, e: f"the eps^{p + e} coefficients of t^{p}", rtol=tol)
    for p, c_p in zip(range(N + 1), orders):
        coef[:, p:, p] = c_p[:, :N + 1 - p] / spec.q_power_factor(p)
    return FormalSeries(order=N, m=m, coef=coef, solve_tol=tol, recursion=rec)


def formal_residual(series: FormalSeries, spec: ProblemSpec, N: int) -> float:
    """Max defect P(0) c_p - rhs - sum_j K_(j,eq) c_(j,p) of the recursion
    `formal_coefficients` solves (`series.recursion`, whose kernels it
    reuses), over the eps^n t^p identities with n <= N and over m, in units
    of the series coefficients.  The recursion is triangular in eps powers,
    so the identities with n <= N read no coefficient above eps^N."""
    if N > series.order:
        raise UsageError("series order too low for the requested check")
    rec = series.recursion
    # c_p over eps powers 0..order, zero above order - p
    c = [np.pad(series.coef[:, p:, p], ((0, 0), (0, p), (0, 0))) * spec.q_power_factor(p)
         for p in range(N + 1)]
    worst = 0.0
    for p, c_p in enumerate(c):
        n = N + 1 - p
        defect = (rec.p0 * c_p - rec.rhs(c, p))[:, :n]
        for j, eq, shift, K in rec.b:
            if shift < n:
                defect[eq, shift:] -= c_p[j, :n - shift] @ K.T
        worst = max(worst, float(np.abs(defect).max()) / spec.q_power_factor(p))
    return worst


def evaluate_formal(series: FormalSeries, j: int, t: complex, z: complex,
                    eps: complex, N: int | None = None) -> complex:
    """Partial sum sum_{n<=N} V_{j,n}(t, z) eps^n via the inverse transform."""
    N = series.order if N is None else N
    if N > series.order:
        raise UsageError("series order too low")
    powers = np.arange(N + 1)
    total = complex(eps) ** powers @ (complex(t) ** powers @ series.coef[j, :N + 1, :N + 1])
    return inverse_fourier(total, complex(z), series.m)


class SolutionFamily:
    """Analytic solutions indexed by covering sector, solved on demand.

    The densities are one analytic function on the disc D(0, rho), which
    every sector shares, continued along each sector's ray beyond it.
    `at(p, eps)` solves sector p's line (`_line`): from the bottom of
    `build_grid`'s line, which the q-Laplace integrals at |eps t| in
    [T_min, T_max] read, to the higher of its top and the top rung that the
    ray tail of a sector difference reads at T_max (`tail_reach`).  One
    Taylor expansion at tau = 0 per eps (`_taylor`, summed to the arc
    radius, about rho/2) gives the centre, the rows up to the arc rung
    g_arc and the arc of a sector difference: every solution carries it as
    `LogSolution.taylor`, the one source of its arc samples, and
    `arc_orders` records the highest order of each.  The line's rows come
    from `borel_solver.solve_held`, the solve path that the CLI's
    `evaluate` and `residual` share: Picard runs only on the rung range
    from `held_bottom` (one largest dilation shift less one below g_arc)
    to the top, with its rungs up to g_arc and the centre held at the
    expansion.  That range is one grid per sector for the family's life,
    so its operator factors are built once.  The expansion and both
    sectors' solves at one eps share one eps_kernels build.  Only the last
    eps's kernels, expansion and solutions are kept, so the family's memory
    does not grow with the samples.

    A solution's rows agree to within the solve tolerance with a whole-line
    Picard solve on its line.  `reports` keeps the SolveReport of every
    solve under its (sector, eps) key, whose residual and norms read the
    free rows only; `grid_rows` counts the stacked rows of every Picard
    range.
    """

    def __init__(self, spec: ProblemSpec, covering: GoodCovering,
                 gspec: GridSpec, tol: float = 1e-12, m_grid=None):
        self.spec = spec
        self.covering = covering
        self.gspec = gspec
        self.tol = tol
        self.m_grid = m_grid
        self._lines = {}
        self._sols = {}                     # (sector, eps) -> solution, last eps only
        self.reports = {}
        self._expansion = None              # (eps, kernels, Taylor coefficients)
        self.arc_orders = []                # highest order of every expansion
        self.grid_rows = 0                  # stacked rows of every Picard range

    def _line(self, p: int):
        """The line of sector p's solutions: a rung range of `build_grid`'s
        grid, from the lower of its bottom and `held_bottom` to the top, with
        its ladder, direction, m grid and T range, all that is read of it."""
        p = p % self.covering.zeta
        if p not in self._lines:
            geom = make_geometry(self.spec, self.covering.d_rays[p], m_grid=self.m_grid)
            grid = build_grid(self.spec, geom, self.gspec)
            top = max(grid.g_hi, tail_reach(self.spec, grid, grid.arc_rung(), grid.T_max)[1])
            self._lines[p] = grid.rung_range(min(grid.g_lo, held_bottom(self.spec, grid)), top)
        return self._lines[p]

    def _taylor(self, eps: complex):
        """(kernels, coefficients): eps_kernels at eps and the Taylor
        coefficients at tau = 0 summed to the arc radius, built from them
        (kept for the last eps asked for, whose solutions alone are kept)."""
        if self._expansion is None or self._expansion[0] != eps:
            line = self._line(0)
            kernels = eps_kernels(self.spec, line.m, eps)
            coef = taylor_at_origin(self.spec, eps, line.m,
                                    line.radius_of_rung(line.arc_rung()), kernels)
            self.arc_orders.append(coef.shape[1] - 1)
            self._expansion = (eps, kernels, coef)
            self._sols = {}
        return self._expansion[1:]

    def at(self, p: int, eps: complex) -> LogSolution:
        """The solution of sector p at eps on the sector's line."""
        p = p % self.covering.zeta
        key = (p, complex(eps))
        if key not in self._sols:
            kernels, coef = self._taylor(key[1])
            line = self._line(p)
            w0, w1, report, picard = solve_held(self.spec, eps, line, coef, kernels,
                                                tol=self.tol)
            if picard is not None:
                self.reports[key] = report
                self.grid_rows += picard.n_nodes + 1
            self._sols[key] = LogSolution(self.spec, line, w0, w1, eps,
                                          Delta=self.covering.Delta, taylor=coef)
        return self._sols[key]


def default_probes(covering: GoodCovering, n: int = 3):
    """n x n probe grid in the interior of the t sector times a real z span."""
    fracs = np.linspace(0.35, 0.8, n)
    ts = [f * covering.t_radius * np.exp(1j * covering.t_direction) for f in fracs]
    zs = np.linspace(-0.3, 0.3, n)
    return [(t, z) for t in ts for z in zs]


def gevrey_remainder_check(family: SolutionFamily, p: int,
                           series: FormalSeries, N_max: int, eps_samples,
                           probes=None, floor: float = 1e-12) -> AsymptoticsReport:
    """Remainder norms against the formal series inside one sector, with the
    q-Gevrey envelope fit and the term-ratio growth table."""
    if N_max > series.order:
        raise UsageError("series order below N_max")
    rep = AsymptoticsReport(eps_samples=list(eps_samples))
    probes = default_probes(family.covering) if probes is None else probes
    rem = {N: [] for N in range(N_max + 1)}
    for eps in eps_samples:
        sol = family.at(p, eps)
        vals = {(j, t, z): sol.component(j, t, z) for (t, z) in probes for j in (0, 1)}
        for N in range(N_max + 1):
            rem[N].append(max(abs(u - evaluate_formal(series, j, t, z, eps, N))
                              for (j, t, z), u in vals.items()))
    rep.remainders = rem

    xs, ys = [], []
    scale = max(rem[0]) if rem[0] else 1.0
    for N in range(N_max + 1):
        for eps, r in zip(eps_samples, rem[N]):
            if r < floor * scale:
                rep.warnings.append(f"remainder below floor at N={N}, |eps|={abs(eps):.3g}")
                continue
            y = math.log(r) - (N + 1) * math.log(abs(eps)) \
                - N * (N + 1) / (2.0 * family.spec.k) * family.spec.lnq
            xs.append([N + 1.0, 1.0])
            ys.append(y)
    if len(ys) >= 3:
        coef, res, *_ = np.linalg.lstsq(np.asarray(xs), np.asarray(ys), rcond=None)
        rep.fit_A = math.exp(coef[0])
        rep.fit_C = math.exp(coef[1])
        rep.fit_residual = float(res[0]) if len(res) else 0.0

    table = []
    for N in range(N_max):
        gs = []
        for i, eps in enumerate(eps_samples):
            r0, r1 = rem[N][i], rem[N + 1][i]
            if r0 > floor * scale and r1 > floor * scale:
                gs.append(math.log(r1 / (r0 * abs(eps))))
        if gs:
            table.append(float(np.median(gs)))
    rep.ratio_table = table
    rep.ratio_monotone = all(b > a for a, b in zip(table, table[1:])) if len(table) > 1 else None
    return rep


def difference_decay_fit(family: SolutionFamily, p: int, eps_samples,
                         probes=None) -> AsymptoticsReport:
    """Fit log |u_{j,p+1} - u_{j,p}| = a log^2|eps| + b log|eps| + c on the
    overlap of consecutive sectors; a targets -k/(2 log q).

    Samples whose arc radius collides with the kernel zero lattice are nudged
    along the q^(1/k) ladder; samples that fail any other domain check
    (|eps t| above T_max, outside a cone or beyond r1), which no nudge
    mends, are dropped at once with a warning naming the cause; samples whose
    difference underflows are dropped with a warning.  The checks depend on
    eps t and the two sector grids alone, so they run for every probe before
    the two sectors are solved, and a rejected eps costs no solve.  Each kept
    eps costs one Taylor expansion at tau = 0, summed to the arc radius, and
    two solves (`SolutionFamily.at`): the expansion holds the disc rows of
    both lines and gives the first sector's arc, and Picard solves only the
    rows beyond the arc, which the ray tails read.
    """
    spec = family.spec
    rep = AsymptoticsReport()
    probes = default_probes(family.covering) if probes is None else probes
    line_a, line_b = family._line(p), family._line(p + 1)
    r1 = admissible_r1(spec.q, spec.k, spec.alpha)
    deltas = {0: [], 1: []}
    used_eps = []
    for eps0 in eps_samples:
        eps, d = complex(eps0), None
        for attempt in range(4):
            try:
                for (t, _) in probes:
                    difference_arc_rung(spec, line_a, line_b, eps * complex(t),
                                        family.covering.Delta, r1)
            except ZeroRingError:
                rep.nudges += 1
                eps *= spec.q ** (1.0 / (4.0 * spec.k))
                continue
            except DomainError as exc:
                rep.warnings.append(f"|eps| = {abs(eps0):.3g} dropped: {exc}")
                break
            sol_a, sol_b = family.at(p, eps), family.at(p + 1, eps)
            d = [max(abs(solution_difference(sol_a, sol_b, j, t, z)) for (t, z) in probes)
                 for j in (0, 1)]
            break
        else:
            rep.warnings.append(f"no admissible nudge for |eps| = {abs(eps0):.3g}")
        if d is None:
            continue
        if max(d) <= 0.0 or not (math.isfinite(math.log(max(d)))):
            rep.warnings.append(f"difference underflows at |eps| = {abs(eps):.3g}")
            continue
        used_eps.append(eps)
        deltas[0].append(d[0])
        deltas[1].append(d[1])
    rep.eps_samples = used_eps
    rep.decay = deltas
    if len(used_eps) < 4:
        rep.warnings.append("too few usable samples for a quadratic fit")
        return rep
    x = np.array([math.log(abs(e)) for e in used_eps])
    y = np.array([math.log(max(a, b)) for a, b in zip(deltas[0], deltas[1])])
    w = np.ones(x.size)
    # the smallest tenth of the |eps| samples (at least one) weigh double
    n_small = max(1, int(0.1 * x.size))
    w[np.argsort(x)[:n_small]] = 2.0
    A = np.vstack([x * x, x, np.ones_like(x)]).T * w[:, None]
    coef, *_ = np.linalg.lstsq(A, y * w, rcond=None)
    rep.decay_coeffs = tuple(float(c) for c in coef)
    rep.target_quadratic = -spec.k / (2.0 * spec.lnq)
    rep.relative_deviation = abs(coef[0] - rep.target_quadratic) / abs(rep.target_quadratic)
    return rep
