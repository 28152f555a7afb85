"""Formal power-series solution in eps and the asymptotic link to the
analytic one: remainder envelopes of q-Gevrey type and the q-exponential
decay of differences across covering sectors.

The series is one array coef[j, n, p], the eps^n t^p coefficient of u_j on
the m grid.  The q-Laplace transform sends tau^p to q^(p(p-1)/2k) (eps t)^p,
so coef[j, n, p] is q^(p(p-1)/2k) times the eps^(n-p) part of the Taylor
coefficient c_p(eps) of omega_j at tau = 0: `borel_solver.TaylorRecursion`
with truncated eps-series for coefficients, each eps power of each order one
small Picard run, stopped by the one rule of every Picard run
(`borel_solver._picard`).

The analytic solutions of a covering (`SolutionFamily`) take one Taylor
expansion at tau = 0 per eps, summed to the lines' Taylor rung
(`BorelGrid.taylor_rung`); each fit expands all of its eps in one recursion,
whose kernel products serve every sample (`SolutionFamily.expand`).  When
no b symbol depends on eps, their orders share one b block inverted once
per family (`borel_solver.OrderBlock`), and otherwise each order is a
Picard run per sample.  The remainder check takes every
partial sum of a probe from one Fourier sum (`evaluate_formal`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .borel_solver import (GridSpec, OrderBlock, TaylorRecursion, apply_kernel, build_grid,
                           held_bottom, solve_held, taylor_at_origin)
from .errors import DomainError, UsageError, ZeroRingError
from .geometry import GoodCovering, admissible_r1, make_geometry
from .problem_model import ProblemSpec
from .solution_assembly import (TAIL_REACH, LogSolution, difference_arc_rung,
                                solution_difference, tail_top)
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


def formal_coefficients(spec: ProblemSpec, N: int, m_grid) -> FormalSeries:
    """Solve the coefficient recursion up to eps^N: the orders p <= N of
    `TaylorRecursion.eps_series`, each eps power of each one small fixed
    point (`borel_solver._order_fixed_point`, convergent under the
    smallness budget)."""
    m = np.asarray(m_grid, dtype=float)
    coef = np.zeros((2, N + 1, N + 1, m.size), dtype=complex)
    rec = TaylorRecursion.eps_series(spec, m, N)
    orders = rec.orders(lambda p, e: f"the eps^{p + e} coefficients of t^{p}")
    for p, c_p in zip(range(N + 1), orders):
        coef[:, p:, p] = c_p[:, :N + 1 - p] / spec.q_power_factor(p)
    return FormalSeries(order=N, m=m, coef=coef, recursion=rec)


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
        for j, eq, shift, s, K in rec.b:
            if shift < n:
                defect[eq, shift:] -= s[0] * apply_kernel(c_p[j, :n - shift], K)
        worst = max(worst, float(np.abs(defect).max()) / spec.q_power_factor(p))
    return worst


def evaluate_formal(series: FormalSeries, j: int, t: complex, z: complex,
                    eps: complex, N: int | None = None) -> np.ndarray:
    """The partial sums S_0, ..., S_N of sum_n V_{j,n}(t, z) eps^n, an
    (N + 1,) array: the stack of their m data is inverse-transformed in one
    Fourier sum."""
    N = series.order if N is None else N
    if N > series.order:
        raise UsageError("series order too low")
    powers = np.arange(N + 1)
    terms = complex(t) ** powers @ series.coef[j, :N + 1, :N + 1]
    terms *= (complex(eps) ** powers)[:, None]
    return inverse_fourier(np.cumsum(terms, axis=0), complex(z), series.m)


class SolutionFamily:
    """Analytic solutions indexed by covering sector, solved on demand.

    The densities are one analytic function on the disc D(0, rho), which
    every sector shares, continued along each sector's ray beyond it.
    `at(p, eps)` solves sector p's line (`_line`).  One Taylor expansion at
    tau = 0 per eps (summed to the radius of the lines' arc rung g_arc,
    about rho/2) is that function on the disc: every solution carries
    it as `LogSolution.taylor`, which sums it on the ray of each component
    below g_arc and on the arc of a sector difference, and `arc_orders`
    records the highest order of each.  Above g_arc the line holds Picard
    rows up to the top rung that the ray tail reads at T_max (`tail_top`),
    from `borel_solver.solve_held`, the solve path that the CLI's
    `evaluate` and `residual` share: Picard runs only on the rung range
    from `held_bottom` (one largest dilation shift less one below g_arc)
    to the top, with its rungs up to g_arc and the centre held at the
    expansion.  Below that the line keeps only the rows the tail's stencil
    reads, down to TAIL_REACH rungs below g_arc.  The Picard range is one
    grid per sector for the family's life, so its operator factors are
    built once, and every grid of the family reads the kernels of the one
    m grid (`SymbolKernels`), with eps entering as scalars.

    `expand(eps_values)` expands a fit's eps in one recursion
    (`borel_solver.taylor_at_origin`): each order is one kernel product per
    term and, when no b symbol depends on eps, one solve of the family's
    `OrderBlock` (inverted once, at the first expansion) for every sample;
    otherwise it is one Picard run per sample.  `at` expands an eps that
    the family does not hold on its own.  The family holds one fit's
    expansions, each sample's orders apart, and stacks an eps's
    coefficients from its orders when that eps is solved (`_taylor`), then
    lets the orders go.  Only the last eps's coefficients and solutions are
    kept, so the family's memory falls as a fit's samples are solved.

    A solution's rows agree with those of a whole-line Picard solve from
    the bottom of `build_grid`'s line to the same top to within the one
    stopping rule (`borel_solver.PICARD_RTOL`).  `reports`
    keeps the SolveReport of every solve under its (sector, eps) key, whose
    residual and norms read the free rows only; `grid_rows` counts the
    stacked rows of every Picard range.
    """

    def __init__(self, spec: ProblemSpec, covering: GoodCovering,
                 gspec: GridSpec, m_grid):
        self.spec = spec
        self.covering = covering
        self.gspec = gspec
        self.m_grid = m_grid
        self._lines = {}
        self._sols = {}                     # (sector, eps) -> solution, last eps only
        self.reports = {}
        self._expansions = None             # TaylorExpansions of the current fit's eps
        self._coef = None                   # (eps, its Taylor coefficients), last eps only
        self.arc_orders = []                # highest order of every expansion
        self.grid_rows = 0                  # stacked rows of every Picard range

    def _line(self, p: int):
        """The line of sector p's solutions: a rung range of `build_grid`'s
        grid, with its ladder, direction, m grid and T_max, all that is
        read of it, from the lowest row that the held block or the tail's
        stencil reads to `tail_top`."""
        p = p % self.covering.zeta
        if p not in self._lines:
            geom = make_geometry(self.spec, self.covering.d_rays[p], m_grid=self.m_grid)
            grid = build_grid(self.spec, geom, self.gspec)
            bottom = min(held_bottom(self.spec, grid), grid.arc_rung() - TAIL_REACH)
            self._lines[p] = grid.rung_range(bottom, tail_top(self.spec, grid))
        return self._lines[p]

    @functools.cached_property
    def _block(self) -> OrderBlock | None:
        """The family's OrderBlock, built at its first expansion; None when a
        b symbol depends on eps, so that each order is a Picard run."""
        if OrderBlock.eps_dependent(self.spec):
            return None
        return OrderBlock(self.spec, self._line(0).m)

    def expand(self, eps_values) -> None:
        """The Taylor series at tau = 0 at every eps of eps_values, summed to
        the radius of the line's Taylor rung, from one recursion
        (`taylor_at_origin`): they replace the family's expansions and
        solutions."""
        samples = list(dict.fromkeys(complex(e) for e in eps_values))
        self._expansions = self._coef = None
        self._sols = {}
        if samples:
            line = self._line(0)
            self._expansions = taylor_at_origin(self.spec, samples, line.m,
                                                line.radius_of_rung(line.taylor_rung()),
                                                self._block)
            self.arc_orders.extend(self._expansions.stops)

    def _taylor(self, eps: complex) -> np.ndarray:
        """The Taylor coefficients at tau = 0 at eps, taken from the family's
        expansions, which are made for eps alone when they do not hold it.
        Only the last eps's are kept, as only its solutions are."""
        if self._coef is None or self._coef[0] != eps:
            self._coef, self._sols = None, {}
            if self._expansions is None or not self._expansions.holds(eps):
                self.expand([eps])
            self._coef = (eps, self._expansions.take(eps))
        return self._coef[1]

    def at(self, p: int, eps: complex) -> LogSolution:
        """The solution of sector p at eps on the sector's line."""
        p = p % self.covering.zeta
        key = (p, complex(eps))
        if key not in self._sols:
            coef = self._taylor(key[1])
            line = self._line(p)
            w0, w1, report, picard = solve_held(self.spec, eps, line, coef)
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


def _median(values: list) -> float:
    """The median of a non-empty list of floats, the middle one or the mean
    of the middle two: the bits of np.median and of statistics.median,
    without importing numpy.ma, which np.median loads, or statistics."""
    values = sorted(values)
    half = len(values) // 2
    return float(values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2)


def gevrey_remainder_check(family: SolutionFamily, p: int,
                           series: FormalSeries, N_max: int, eps_samples,
                           probes=None, floor: float = 1e-12) -> AsymptoticsReport:
    """Remainder norms against the formal series inside one sector, with the
    q-Gevrey envelope fit and the term-ratio growth table.  The samples are
    expanded in one recursion (`SolutionFamily.expand`)."""
    if N_max > series.order:
        raise UsageError("series order below N_max")
    rep = AsymptoticsReport(eps_samples=list(eps_samples))
    probes = default_probes(family.covering) if probes is None else probes
    rem = {N: [] for N in range(N_max + 1)}
    family.expand(eps_samples)
    for eps in eps_samples:
        sol = family.at(p, eps)
        # every partial sum N <= N_max of a probe from one Fourier sum
        worst = np.zeros(N_max + 1)
        for (t, z) in probes:
            for j in (0, 1):
                sums = evaluate_formal(series, j, t, z, eps, N_max)
                np.maximum(worst, np.abs(sol.component(j, t, z) - sums), out=worst)
        for N, r in enumerate(worst.tolist()):
            rem[N].append(r)
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
            table.append(_median(gs))
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
    eps t and the two sector grids alone, so they run for every sample and
    probe before any sector is solved, and a rejected eps costs no solve.
    The kept eps are expanded at tau = 0 in one recursion, summed to the arc
    radius (`SolutionFamily.expand`), and each costs two solves
    (`SolutionFamily.at`): the expansion holds the disc rows of both lines
    and gives the first sector's arc, and Picard solves only the rows beyond
    the arc, which the ray tails read.  The warnings follow the samples'
    order.
    """
    spec = family.spec
    rep = AsymptoticsReport()
    probes = default_probes(family.covering) if probes is None else probes
    line_a, line_b = family._line(p), family._line(p + 1)
    r1 = admissible_r1(spec.q, spec.k, spec.alpha)
    checked = []                        # (eps, None) to solve, or (None, warning)
    for eps0 in eps_samples:
        eps = complex(eps0)
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
                checked.append((None, f"|eps| = {abs(eps0):.3g} dropped: {exc}"))
                break
            checked.append((eps, None))
            break
        else:
            checked.append((None, f"no admissible nudge for |eps| = {abs(eps0):.3g}"))
    family.expand([eps for eps, _ in checked if eps is not None])
    deltas = {0: [], 1: []}
    used_eps = []
    for eps, warning in checked:
        if eps is None:
            rep.warnings.append(warning)
            continue
        sol_a, sol_b = family.at(p, eps), family.at(p + 1, eps)
        d = [max(abs(solution_difference(sol_a, sol_b, j, t, z)) for (t, z) in probes)
             for j in (0, 1)]
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
