"""Discretised Borel-plane operators and the Picard fixed point.

The (tau, m) grid is one radial line through the origin, anchored to a
geometric ladder rho * q^(g/N) with integer rungs g, plus the centre
tau = 0.  N is a multiple of every dilation denominator, so the dilations
tau -> q^(delta - d/k) tau shift rungs exactly and never interpolate, except
below the bottom rung where a quadratic through the centre value is used.
The line runs along the Borel direction d over the radii where the kernel
envelope of the q-Laplace transform is alive for some T = eps t in the
grid's range [T_min, T_max], which is all the transform reads there.  Every
dilation shift is positive, so a rung reads only lower rungs and the
centre, and a line cut at any top rung solves its rows as a longer line
does, to within the solve tolerance; a range of the ladder cut from below
solves alike once its lowest rows are held (`BorelGrid.rung_range`, `held`
of the solves).  Coupling in m is a dense kernel matrix per symbol;
coupling in tau is the pure rung shift.

Inside the disc omega_j(tau, m) is a power series in tau.  Its Taylor
coefficients at tau = 0 solve the same fixed point written in monomials, one
order at a time (`TaylorRecursion`, summed by `taylor_at_origin`).
`solve_held` is the one solve path of every `LogSolution`: it sums a line's
rows up to the arc rung, about rho/2, from them and runs Picard only on the
rows above, holding just the summed rungs those read, one largest dilation
shift (`held_bottom`); on a line that ends below the arc rung it runs no
Picard at all.
`solve_coupled` on a whole line remains the paper's fixed point, which the
`solve` verb writes out.  With coefficients that are truncated eps-series,
the same recursion gives the formal series (`formal_asymptotics`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DivergenceError, UsageError
from .geometry import SectorGeometry
from .problem_model import ProblemSpec, forcing_borel, polyval_im
from .special_functions import WeightParams, expq_weight
from .transforms import convolution_kernel

__all__ = [
    "GridSpec",
    "BorelGrid",
    "Dilation",
    "OperatorFactors",
    "SolveReport",
    "radial_envelope_log",
    "build_grid",
    "rung_shifts",
    "eps_kernels",
    "SolverContext",
    "solve_coupled",
    "solve_triangular",
    "held_bottom",
    "solve_held",
    "contraction_estimate",
    "TaylorRecursion",
    "taylor_at_origin",
    "taylor_values",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolution controls for the Borel-plane grid: the Fourier grid of
    m_nodes points (odd, >= 3) on [-m_max, m_max], the |eps t| range
    [T_min, T_max] that its line serves and the ladder's density factor.  The
    arc of a sector difference takes a fixed number of samples
    (`solution_assembly.ARC_SAMPLES`), which no grid setting changes."""

    m_max: float = 12.0
    m_nodes: int = 241
    T_min: float | None = None
    T_max: float | None = None
    density_factor: float = 4.0

    def __post_init__(self):
        if self.m_nodes < 3 or self.m_nodes % 2 == 0:
            raise ConfigError(f"m_nodes = {self.m_nodes} must be an odd integer >= 3")
        # `not 0 < x < inf` also rejects NaN
        for name in ("m_max", "density_factor", "T_min", "T_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                key = "M" if name == "m_max" else name
                raise ConfigError(f"{key} = {value} must be finite and > 0")
        if self.T_min is not None and self.T_max is not None \
                and not self.T_min < self.T_max:
            raise ConfigError(f"T_min = {self.T_min} must be below T_max = {self.T_max}")

    def m_grid(self) -> np.ndarray:
        return np.linspace(-self.m_max, self.m_max, self.m_nodes)


@dataclass
class BorelGrid:
    spec_q: float
    N: int
    rho: float
    delta: float
    direction: float
    m: np.ndarray
    g_lo: int
    g_hi: int
    # the |eps t| range whose q-Laplace transform the line serves
    T_min: float = 0.0
    T_max: float = math.inf
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.g_lo < self.g_hi:
            raise UsageError(f"the line [{self.g_lo}, {self.g_hi}] needs two rungs, "
                             "which its bottom quadratic reads")
        g = np.arange(self.g_lo, self.g_hi + 1)
        self.tau = self.rho * self.spec_q ** (g / self.N) * np.exp(1j * self.direction)
        self._dilations = {}
        self._ranges = {}

    @property
    def n_nodes(self) -> int:
        return self.g_hi - self.g_lo + 1

    @property
    def stacked_tau(self) -> np.ndarray:
        """tau on the stacked rows of the grid: the nodes, then the centre."""
        return np.append(self.tau, 0.0 + 0.0j)

    def radius_of_rung(self, g: int) -> float:
        return self.rho * self.spec_q ** (g / self.N)

    def stacked_weights(self, spec: ProblemSpec) -> np.ndarray:
        """expq weight on all nodes and, in the last row, on the centre
        (cached per grid)."""
        key = (spec.k, spec.beta, spec.mu, spec.alpha)
        cached = getattr(self, "_weights", None)
        if cached is None or cached[0] != key:
            p = WeightParams(k=spec.k, beta=spec.beta, mu=spec.mu, alpha=spec.alpha,
                             delta=self.delta, q=spec.q)
            w_center = expq_weight(np.array([0.0 + 0.0j]), self.m, p)[0]
            self._weights = (key, np.vstack([expq_weight(self.tau, self.m, p), w_center]))
        return self._weights[1]

    def dilation(self, shift: int) -> "Dilation":
        """The rung-shift gather of tau -> q^(-shift/N) tau (cached per grid)."""
        if shift < 0:
            raise UsageError("only contracting dilations map the grid into itself")
        if shift not in self._dilations:
            self._dilations[shift] = Dilation.build(self, shift)
        return self._dilations[shift]

    def factors(self, spec: ProblemSpec) -> "OperatorFactors":
        """The eps-independent operator factors of spec on this grid (cached
        per grid for the last spec asked for)."""
        cached = getattr(self, "_factors", None)
        if cached is None or cached[0] is not spec:
            self._factors = (spec, OperatorFactors.build(spec, self))
        return self._factors[1]

    def arc_rung(self) -> int:
        """The rung nearest rho/2, where sector differences take their arc."""
        return math.floor(self.N * math.log(0.5) / math.log(self.spec_q))

    def rung_range(self, g_lo: int, g_hi: int) -> "BorelGrid":
        """Rungs g_lo..g_hi of the same ladder and direction, with the same
        m grid and T range.

        A rung reads only lower rungs and the centre, so rows the ranges
        share at least one dilation shift above both bottoms solve alike.
        The rungs just above a new bottom read below it through the bottom
        quadratic, so a solve on a range cut from below must hold its lowest
        rows (`held` of `solve_triangular`/`solve_coupled`).  The same
        (g_lo, g_hi) gives the same grid object (cached per grid), so its
        factors, dilations and weights are built once.
        """
        key = (g_lo, g_hi)
        if key not in self._ranges:
            self._ranges[key] = replace(self, g_lo=g_lo, g_hi=g_hi)
        return self._ranges[key]


@dataclass(frozen=True)
class Dilation:
    """Samples of tau -> f(q^(-shift/N) tau) as one gather over the stacked
    rows (nodes, then the centre).

    A node at least `shift` rungs above the bottom takes the row `shift`
    rungs below it.  The lowest rows, whose sources lie below the bottom
    rung, take the quadratic through (0, centre) and the two lowest nodes,
    rows 0 and 1, with weights `coef` on (centre, row 0, row 1).
    """

    src: np.ndarray       # (n_nodes + 1,) source row of every output row
    coef: np.ndarray      # (3, min(shift, n_nodes))

    @classmethod
    def build(cls, grid: BorelGrid, shift: int) -> "Dilation":
        n = grid.n_nodes
        src = np.arange(n + 1)
        src[shift:n] -= shift
        r0, r1 = grid.radius_of_rung(grid.g_lo), grid.radius_of_rung(grid.g_lo + 1)
        coef = []
        for j in range(min(shift, n)):
            r = grid.radius_of_rung(grid.g_lo + j - shift)
            coef.append(((r - r0) * (r - r1) / (r0 * r1),
                         r * (r - r1) / (r0 * (r0 - r1)),
                         r * (r - r0) / (r1 * (r1 - r0))))
        return cls(src, np.array(coef, dtype=float).reshape(-1, 3).T)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """The dilated copy of stacked samples data, (n_nodes + 1, n_m)."""
        out = data[self.src]
        if self.coef.size:
            c0, c1, c2 = self.coef[:, :, None]
            out[:c0.shape[0]] = c0 * data[-1] + c1 * data[0] + c2 * data[1]
        return out


def rung_shifts(spec: ProblemSpec, N: int) -> tuple:
    """The rung shift (d_l/k - delta_l) N of each term's dilation on a ladder
    of density N."""
    shifts = []
    for t in spec.terms:
        shift = (Fraction(t.d, spec.k) - t.delta) * N
        if shift.denominator != 1:
            raise ConfigError("grid density does not align with the dilation exponents")
        shifts.append(int(shift))
    return tuple(shifts)


@dataclass(frozen=True)
class OperatorFactors:
    """Factors of the Borel operator that do not depend on eps, on the
    stacked rows (nodes, then the centre tau = 0)."""

    inv_p: np.ndarray            # 1 / P_m(tau)
    moved: np.ndarray            # q^(...) R_D(im) tau^dD
    hp: np.ndarray               # (dD/k) q^(...) R_D(im) tau^dD
    q_im: np.ndarray             # Q(im), (n_m,)
    shifts: tuple                # rung shift of each term
    prefs: tuple                 # q^(...) tau^d_l of each term, (n_nodes + 1, 1)
    dilations: tuple             # Dilation of each term

    @classmethod
    def build(cls, spec: ProblemSpec, grid: BorelGrid) -> "OperatorFactors":
        m = grid.m
        tau = grid.stacked_tau
        moved = spec.q_power_factor(spec.dD) * polyval_im(spec.RD, m)[None, :] \
            * (tau ** spec.dD)[:, None]
        shifts = rung_shifts(spec, grid.N)
        return cls(inv_p=1.0 / spec.pm(tau, m), moved=moved,
                   hp=(spec.dD / spec.k) * moved, q_im=polyval_im(spec.Q, m),
                   shifts=shifts,
                   prefs=tuple(spec.q_power_factor(t.d) * (tau ** t.d)[:, None]
                               for t in spec.terms),
                   dilations=tuple(grid.dilation(s) for s in shifts))


def _weighted_sup(data: np.ndarray, weights: np.ndarray) -> float:
    scaled = np.abs(data)
    scaled *= weights
    return float(scaled.max())


@dataclass
class SolveReport:
    iterations: int
    final_update: float
    contraction: float
    norms: tuple[float, float]
    residual: float
    varpi: float = math.nan
    update_history: list[float] = field(default_factory=list)


def radial_envelope_log(s, lnT: float, k: int, q: float, alpha: float,
                        delta: float) -> np.ndarray:
    """Log-envelope of the q-Laplace integrand for an Exp^q-bounded density.

    Combines the weight growth exp((k/2) log^2(r+delta)/log q + alpha log(r+delta))
    of the density with the kernel lower bound, in the log-radius variable.
    """
    s = np.asarray(s, dtype=float)
    r = np.exp(s)
    lr = np.log(r + delta)
    lnq = math.log(q)
    return (0.5 * k / lnq) * (lr * lr - (s - lnT) ** 2) \
        + alpha * lr - 0.5 * (s - lnT)


def _envelope_cutoffs(lnT_min: float, lnT_max: float, k: int, q: float,
                      alpha: float, delta: float):
    """Radial range outside which the integrand is < e^(-drop) of its peak."""
    drop = 34.5
    span = 30.0 + 10.0 * math.sqrt(math.log(q) / k)
    s = np.linspace(lnT_min - span, lnT_max + span, 4000)
    lo_env = radial_envelope_log(s, lnT_min, k, q, alpha, delta)
    hi_env = radial_envelope_log(s, lnT_max, k, q, alpha, delta)
    i_lo = int(np.argmax(lo_env))
    i_hi = int(np.argmax(hi_env))
    below = np.nonzero(lo_env[:i_lo + 1] < lo_env[i_lo] - drop)[0]
    s_floor = s[below[-1]] if below.size else s[0]
    above = np.nonzero(hi_env[i_hi:] < hi_env[i_hi] - drop)[0]
    s_top = s[i_hi + above[0]] if above.size else s[-1]
    return s_floor, s_top


def _ladder_density(spec: ProblemSpec, density_factor: float) -> int:
    den = 1
    for t in spec.terms:
        x = Fraction(t.d, spec.k) - t.delta
        if x <= 0:
            raise ConfigError("Assumption (A) violated: d_l <= k delta_l")
        den = den * x.denominator // math.gcd(den, x.denominator)
    n_min = math.ceil(density_factor * math.sqrt(spec.k * spec.lnq))
    return den * math.ceil(n_min / den)


def build_grid(spec: ProblemSpec, geom: SectorGeometry,
               gspec: GridSpec = GridSpec()) -> BorelGrid:
    """Assemble the radial line of one Borel direction for |eps t| in
    [T_min, T_max] (by default T_max = rho/4 and T_min = T_max/1000): from
    the radius below which the q-Laplace integrand at T_min has fallen
    e^(-34.5) under its peak to the radius above which the integrand at
    T_max has.  The grid carries that range, and `LogSolution` refuses any
    T outside it."""
    N = _ladder_density(spec, gspec.density_factor)
    lnq = spec.lnq
    T_max = gspec.T_max if gspec.T_max is not None else 0.25 * geom.rho
    T_min = gspec.T_min if gspec.T_min is not None else T_max / 1000.0
    s_floor, s_top = _envelope_cutoffs(math.log(T_min), math.log(T_max),
                                       spec.k, spec.q, spec.alpha, geom.delta)
    g_floor = math.floor(N * (s_floor - math.log(geom.rho)) / lnq)
    g_top = math.ceil(N * (s_top - math.log(geom.rho)) / lnq)
    return BorelGrid(spec_q=spec.q, N=N, rho=geom.rho, delta=geom.delta,
                     direction=geom.d, m=gspec.m_grid(), g_lo=g_floor, g_hi=g_top,
                     T_min=T_min, T_max=T_max)


def eps_kernels(spec: ProblemSpec, m: np.ndarray, eps: complex):
    """The eps-dependent convolution kernels of spec on the m grid: one per
    dilation term, and one per b symbol keyed (j, eq), None where the symbol
    vanishes."""
    terms = [convolution_kernel(functools.partial(t.C, eps=eps), m, t.R)
             for t in spec.terms]
    b = {jk: None if sym.is_zero()
         else convolution_kernel(functools.partial(sym, eps=eps), m, [1.0])
         for jk, sym in spec.coeffs.b.items()}
    return terms, b


class SolverContext:
    """Kernel matrices and forcing for one (grid, eps), over the grid's
    eps-independent OperatorFactors.

    The coupled map of (omega_0, omega_1) is written once, in
    `_contributions`, as what each unknown adds to the right side of each
    equation before the division by P.  Every operator is a selection from
    it: which unknowns and equations, whether the forcing or the moved
    R_D tau^dD term is added, and whether the sum is divided by P.  Each
    unknown and each image is a stacked complex array (n_nodes + 1, n_m):
    the node samples, then the centre tau = 0 in the last row.
    """

    def __init__(self, spec: ProblemSpec, grid: BorelGrid, eps: complex,
                 kernels=None):
        if eps == 0:
            raise UsageError("the fixed point is defined for eps != 0")
        self.spec = spec
        self.grid = grid
        self.eps = complex(eps)
        self.fac = grid.factors(spec)
        m = grid.m
        tau = grid.stacked_tau
        self.F = [forcing_borel(spec, h, tau, m, eps) for h in (0, 1)]
        # `kernels`, when given, is eps_kernels(spec, grid.m, eps), built once
        # by a caller that shares it
        self.term_kernel, self.b_kernel = (eps_kernels(spec, m, eps) if kernels is None
                                           else kernels)
        # tau^d_l prefactor times eps^(Delta_l - d_l)
        self.term_scale = [self.eps ** (t.Delta - t.d) * pref
                           for t, pref in zip(spec.terms, self.fac.prefs)]

    def _contributions(self, unknowns: dict, accs: dict) -> dict:
        """Add in place to accs[eq], for each equation eq in accs, what the
        unknowns {j: stacked samples of omega_j} add to the right side of
        equation eq before the division by P.  An accumulator given as None
        takes the first part as its buffer.

        omega_j enters equation j through every term H_l, and omega_1 also
        enters equation 0 through delta_l H_l and the HP term, so each
        H_l(omega_j) is computed once and read by every equation that needs
        it.  The b symbol (j, eq) adds omega_j K_b^T.  A spec has at least
        one term (D >= 2), so every accumulator a caller asks for gets filled.
        """
        def add(eq, part):
            if accs[eq] is None:
                accs[eq] = part
            else:
                accs[eq] += part

        for source, data in unknowns.items():
            cross = source == 1 and 0 in accs
            if cross:
                add(0, self.fac.hp * data)
            for ell, (t, scale) in enumerate(zip(self.spec.terms, self.term_scale)):
                h = self.fac.dilations[ell].apply(data) @ self.term_kernel[ell].T
                h *= scale
                if cross:
                    add(0, float(t.delta) * h)
                if source in accs:
                    add(source, h)
            for eq in accs:
                K = self.b_kernel[(source, eq)]
                if K is not None:
                    add(eq, data @ K.T)
        return accs

    def _forced(self, acc: np.ndarray, eq: int) -> np.ndarray:
        acc += self.F[eq]
        return acc

    def _divided(self, acc: np.ndarray) -> np.ndarray:
        acc *= self.fac.inv_p
        return acc

    # -- operators ------------------------------------------------------

    def image_of_zero(self, eq: int) -> np.ndarray:
        """Equation eq's forcing over P: what apply_H and apply_H1 send zero
        to, without applying them."""
        return self._divided(self.F[eq].copy())

    def apply_H(self, w0: np.ndarray, w1: np.ndarray):
        accs = self._contributions({0: w0, 1: w1}, {0: None, 1: None})
        return tuple(self._divided(self._forced(accs[eq], eq)) for eq in (0, 1))

    def undivided_residual(self, w0: np.ndarray, w1: np.ndarray):
        """Q(im) omega_j minus the full right side, nodewise, with the
        q^(...) R_D tau^dD omega_j terms that the fixed point moves to the
        left put back."""
        ws = (w0, w1)
        accs = self._contributions({0: w0, 1: w1},
                                   {eq: self.F[eq] + self.fac.moved * w
                                    for eq, w in enumerate(ws)})
        return tuple(self.fac.q_im * w - accs[eq] for eq, w in enumerate(ws))

    # -- triangular blocks (b_01 = 0) -----------------------------------

    def apply_H1(self, w1: np.ndarray) -> np.ndarray:
        """Equation 1, which reads omega_1 alone."""
        acc = self._contributions({1: w1}, {1: None})[1]
        return self._divided(self._forced(acc, 1))

    def g_eps(self, w1: np.ndarray) -> np.ndarray:
        """Equation 0's forcing and omega_1 part, fixed once omega_1 is."""
        acc = self._contributions({1: w1}, {0: None})[0]
        return self._divided(self._forced(acc, 0))

    def apply_H0(self, w0: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Equation 0 with its omega_1 part and forcing given as g."""
        out = self._divided(self._contributions({0: w0}, {0: None})[0])
        out += g
        return out


def _picard(step, start, diff_norm, tol, max_iter, first=None):
    """Picard iteration of step from start until an update is <= tol, so
    that a fixed point with tol 0 (a zero right side) stops at its first
    step; `first`, when given, is step(start), which the caller knows
    without applying step.  The one fixed-point loop of the package: Borel
    solves and every eps power of every TaylorRecursion order run through it."""
    w = start
    history = []
    contraction = 0.0
    for it in range(1, max_iter + 1):
        w_next = first if it == 1 and first is not None else step(w)
        update = diff_norm(w_next, w)
        history.append(update)
        if not math.isfinite(update):
            raise DivergenceError(
                f"Picard update is not finite ({update}) at iteration {it}", history)
        if it >= 3 and history[-2] > 0:
            contraction = max(contraction, history[-1] / history[-2])
        if len(history) >= 4 and history[-1] > history[-2] > history[-3]:
            raise DivergenceError("Picard iteration diverges", history)
        w = w_next
        if update <= tol:
            return w, it, update, contraction, history
    raise DivergenceError(
        f"Picard iteration did not reach tol={tol} in {max_iter} iterations",
        history)


def _distance(weights: np.ndarray):
    """The weighted sup distance of two stacked sample arrays, as one
    reduction."""
    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return _weighted_sup(a - b, weights)
    return dist


def _holding(ctx: SolverContext, held):
    """(weights, hold) of a solve on ctx's grid that holds some rows fixed.

    held, when given, is a (2, n + 1, n_m) array: omega_0 and omega_1 on the
    n lowest rungs of the line, then on the centre.  `weights` are
    the grid's stacked weights with the held rows zeroed, so that no
    distance, norm or residual reads them, and hold(f, j) resets omega_j's
    held rows of f in place and returns f.  The lowest free rung reads the
    rung one dilation shift below it, so the held block must span the
    largest shift; a shorter one would feed the free rows from the bottom
    quadratic instead of from held values.
    """
    weights = ctx.grid.stacked_weights(ctx.spec)
    if held is None:
        return weights, lambda f, j: f
    n = held.shape[1] - 1
    shift = max(ctx.fac.shifts)
    if not shift <= n < ctx.grid.n_nodes:
        raise UsageError(f"a held block of {n} rungs must span the largest dilation "
                         f"shift ({shift}) and leave rows of the line free")
    rows = np.r_[0:n, ctx.grid.n_nodes]
    weights = weights.copy()
    weights[rows] = 0.0

    def hold(f: np.ndarray, j: int) -> np.ndarray:
        f[rows] = held[j]
        return f
    return weights, hold


def _solve_report(weights: np.ndarray, dist, pair, images, runs,
                  varpi: float = math.nan):
    """(w0, w1, SolveReport) of a solve that ends at pair, whose coupled map
    sends it to images; runs holds the (iterations, final update,
    contraction, history) of each of its Picard iterations, in solve order.
    The norms and the residual read the rows that `weights` weigh."""
    iterations, updates, contractions, histories = zip(*runs)
    report = SolveReport(iterations=max(iterations), final_update=max(updates),
                         contraction=max(contractions),
                         norms=tuple(_weighted_sup(w, weights) for w in pair),
                         residual=max(dist(h, w) for h, w in zip(images, pair)),
                         varpi=varpi,
                         update_history=sum(histories, []))
    return (*pair, report)


def solve_coupled(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                  tol: float = 1e-10, max_iter: int = 200, kernels=None, held=None):
    """Picard iteration on the coupled map from (0, 0), whose first iterate
    is the forcing over P.

    Convergence is guaranteed when the smallness budget of
    `geometry.check_smallness` holds; otherwise the solve still runs.  `kernels`
    is an eps_kernels result to share; `held` fixes the lowest rows of the
    line and the centre (see `_holding`), and the solve then
    updates, measures and reports the other rows only.
    """
    ctx = SolverContext(spec, grid, eps, kernels)
    weights, hold = _holding(ctx, held)
    dist = _distance(weights)
    zero = np.zeros((grid.n_nodes + 1, grid.m.size), dtype=complex)

    def pair_dist(a, b):
        return max(dist(a[0], b[0]), dist(a[1], b[1]))

    def step(pair):
        return tuple(hold(h, j) for j, h in enumerate(ctx.apply_H(*pair)))

    first = tuple(hold(ctx.image_of_zero(j), j) for j in (0, 1))
    pair, *run = _picard(step, (zero, zero), pair_dist, tol, max_iter, first)
    contraction = run[2]
    cf = max(_weighted_sup(w, weights) for w in first)
    varpi = 2.0 * cf / max(1e-12, 1.0 - contraction)
    return _solve_report(weights, dist, pair, ctx.apply_H(*pair), [run], varpi)


def solve_triangular(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                     tol: float = 1e-10, max_iter: int = 200, kernels=None, held=None):
    """Forward-substitution solve for the b_01 = 0 regime: omega_1 from its
    own equation, then omega_0 with omega_1's part of equation 0 fixed as g.
    Each Picard run starts from zero, whose images are known: omega_1's
    forcing over P, and g.  `kernels` and `held` are as in `solve_coupled`."""
    if not spec.coeffs.triangular:
        raise UsageError("triangular solve requires b_01 identically zero")
    ctx = SolverContext(spec, grid, eps, kernels)
    weights, hold = _holding(ctx, held)
    dist = _distance(weights)
    zero = np.zeros((grid.n_nodes + 1, grid.m.size), dtype=complex)
    w1, *run1 = _picard(lambda w: hold(ctx.apply_H1(w), 1), zero, dist, tol, max_iter,
                        hold(ctx.image_of_zero(1), 1))
    g = ctx.g_eps(w1)
    w0, *run0 = _picard(lambda w: hold(ctx.apply_H0(w, g), 0), zero, dist, tol, max_iter,
                        hold(g.copy(), 0))
    # the coupled map's rows from the blocks: row 0 reuses g, and row 1
    # reads no omega_0 because b_01 = 0
    return _solve_report(weights, dist, (w0, w1), (ctx.apply_H0(w0, g), ctx.apply_H1(w1)),
                         [run1, run0])


def held_bottom(spec: ProblemSpec, grid: BorelGrid) -> int:
    """The lowest rung `solve_held` runs Picard on, on a line of grid's
    ladder: the largest dilation shift less one below the arc rung.  The
    held block, from there up to the arc rung, then spans exactly the
    largest shift, the least that `_holding` accepts: the lowest free rung
    reads one shift below itself."""
    return grid.arc_rung() - max(rung_shifts(spec, grid.N)) + 1


def solve_held(spec: ProblemSpec, eps: complex, line: BorelGrid, coef: np.ndarray,
               kernels, tol: float = 1e-10, max_iter: int = 200):
    """(w0, w1, report, picard): omega_0 and omega_1 on the stacked rows of
    line, with the rows inside the disc summed from their Taylor
    coefficients coef at tau = 0 and Picard run only above.

    coef must converge at the radius of the lower of the line's top and its
    arc rung (`taylor_at_origin`), and kernels is eps_kernels(spec, line.m,
    eps).  The rows up to the arc rung and the centre come from
    `taylor_values`.  When the line's top lies at or below the arc rung,
    that is every row, and report and picard are None.  Otherwise Picard
    (`solve_triangular` for b_01 = 0, else `solve_coupled`) runs on the
    rung range picard from `held_bottom` to the top, with the rows up to
    the arc rung and the centre held, and report is its SolveReport; the
    line must then reach down to `held_bottom`.
    """
    g_arc, g_lo = line.arc_rung(), held_bottom(spec, line)
    if line.g_hi <= g_arc:
        w0, w1 = taylor_values(coef, line.stacked_tau)
        return w0, w1, None, None
    if g_lo < line.g_lo:
        raise UsageError(f"the line [{line.g_lo}, {line.g_hi}] must reach rung {g_lo}, "
                         "the bottom of its held block")
    picard = line.rung_range(g_lo, line.g_hi)
    n_disc = g_arc - line.g_lo + 1
    disc = taylor_values(coef, line.stacked_tau[np.r_[0:n_disc, line.n_nodes]])
    below = g_lo - line.g_lo
    solve = solve_triangular if spec.coeffs.triangular else solve_coupled
    *ws, report = solve(spec, eps, picard, tol=tol, max_iter=max_iter, kernels=kernels,
                        held=disc[:, below:])
    w0, w1 = (np.concatenate([d[:below], w]) for d, w in zip(disc, ws))
    return w0, w1, report, picard


def contraction_estimate(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                         probes: int = 6, seed: int = 0,
                         scale: float = 1.0, kernels=None) -> float:
    """Max over unordered random probe pairs of the H-difference quotient.
    `kernels` is as in `solve_coupled`."""
    if probes < 2:
        raise UsageError("need at least two probes")
    ctx = SolverContext(spec, grid, eps, kernels)
    weights = grid.stacked_weights(spec)
    dist = _distance(weights)
    rng = np.random.default_rng(seed)
    w_nodes, w_center = weights[:-1], weights[-1]

    def random_fn():
        v = (rng.standard_normal(w_nodes.shape) + 1j * rng.standard_normal(w_nodes.shape))
        c = (rng.standard_normal(w_center.shape) + 1j * rng.standard_normal(w_center.shape))
        return np.vstack([scale * v / w_nodes, scale * c / w_center])

    fns = [(random_fn(), random_fn()) for _ in range(probes)]
    # H is affine, so H(a) - H(b) = L(a - b): one application per probe
    hs = [ctx.apply_H(a[0], a[1]) for a in fns]
    worst = 0.0
    # both distances are symmetric, so each unordered pair is measured once
    for (a, ha), (b, hb) in itertools.combinations(zip(fns, hs), 2):
        denom = max(dist(a[0], b[0]), dist(a[1], b[1]))
        if denom == 0:
            continue
        num = max(dist(ha[0], hb[0]), dist(ha[1], hb[1]))
        worst = max(worst, num / denom)
    return worst


# Taylor terms at the arc radius below TAYLOR_RTOL of the largest are dropped;
# a series still above that at order TAYLOR_MAX_ORDER is not summed
TAYLOR_RTOL = 1e-18
TAYLOR_MAX_ORDER = 160


def _order_fixed_point(rhs: np.ndarray, coupling, inv_p0: np.ndarray, what: str,
                       rtol: float, max_iter: int = 200) -> np.ndarray:
    """The coefficients c (2, n_m) of one order with P(0) c_eq = rhs_eq +
    sum_j K_(j,eq) c_j over the (j, eq, K) list coupling, by Picard iteration
    from rhs / P(0) until the max-abs update is within rtol of the start's
    largest entry; the b symbols are small under the smallness budget.
    `what` names c in a DivergenceError."""
    def step(c):
        nxt = rhs.copy()
        for j, eq, K in coupling:
            nxt[eq] += c[j] @ K.T
        nxt *= inv_p0
        return nxt

    start = rhs * inv_p0
    try:
        return _picard(step, start, lambda a, b: float(np.abs(a - b).max()),
                       rtol * float(np.abs(start).max()), max_iter)[0]
    except DivergenceError as exc:
        raise DivergenceError(f"{what} do not converge ({exc}): "
                              "smallness condition violated", exc.history) from exc


class TaylorRecursion:
    """The fixed point of SolverContext in monomials of tau.  Order p's
    coefficient c_p, a (2, n_eps, n_m) array over eps powers, solves
    P(0) c_p = forcing_p + q_f R_D(im) c_(p-dD) + sum over the term entries
    (d, delta, shift, scale, dilation, K) of scale dilation^(p-d) K c_(p-d)
    + sum over the b entries (j, eq, shift, K) of K c_(j,p), each entry
    shift eps powers up; equation 0 also reads c_1, through (dD/k) R_D and
    delta.  Assumption (A) gives d >= 1, so within one eps power of one order
    only the shift-0 b entries couple, one small fixed point each.  For
    dD = 0 the R_D part stays on the left, in P(0) = Q(im) - q_f R_D(im).

    `at_eps` is the Taylor series at tau = 0 at one eps (one eps power, eps
    folded into the kernels); `eps_series` is the formal series, whose
    eps^n t^p coefficient is q^(p(p-1)/2k) c_(p,n-p).
    """

    def __init__(self, spec: ProblemSpec, m: np.ndarray, eps_parts, terms: list,
                 b: list, degree: int | None = None):
        """eps_parts(sym) lists a forcing symbol's m data by eps power; terms
        holds (LowerOrderTerm, eps shift, eps factor, K), b (j, eq, shift, K)."""
        if any(t.d < 1 for t in spec.terms):
            raise ConfigError("Assumption (A) violated: d_l <= k delta_l")
        self.spec, self.m, self.b, self.degree = spec, m, b, degree
        self.n_eps = 1 if degree is None else degree + 1
        self.forcing = {p: np.zeros((2, self.n_eps, m.size), dtype=complex)
                        for h in (0, 1) for p in spec.forcing.powers(h)}
        for h in (0, 1):
            for p, sym in spec.forcing.powers(h).items():
                parts = eps_parts(sym)[:self.n_eps]
                self.forcing[p][h, :len(parts)] = parts
        self.terms = [(t.d, float(t.delta), shift, factor * spec.q_power_factor(t.d),
                       spec.q ** -(t.d / spec.k - float(t.delta)), K)
                      for t, shift, factor, K in terms]
        self.moved = spec.q_power_factor(spec.dD) * polyval_im(spec.RD, m)
        self.p0 = spec.pm(0.0, m)

    @classmethod
    def at_eps(cls, spec: ProblemSpec, m: np.ndarray, eps: complex,
               kernels=None) -> "TaylorRecursion":
        """At one eps, over kernels = eps_kernels(spec, m, eps) when given."""
        term_kernel, b_kernel = eps_kernels(spec, m, eps) if kernels is None else kernels
        return cls(spec, m, lambda sym: [sym(m, eps)],
                   [(t, 0, eps ** (t.Delta - t.d), K)
                    for t, K in zip(spec.terms, term_kernel)],
                   [(j, eq, 0, K) for (j, eq), K in b_kernel.items() if K is not None])

    @classmethod
    def eps_series(cls, spec: ProblemSpec, m: np.ndarray, degree: int) -> "TaylorRecursion":
        """In eps powers 0..degree: the kernel of a symbol's eps^a part moves
        term l up Delta_l - d_l + a eps powers, and b up a."""
        if any(t.Delta < t.d for t in spec.terms):
            raise ConfigError("Assumption (A) violated: the formal eps-series "
                              "needs Delta_l >= d_l")

        def split(sym):
            return [sym.eps_coefficient(a) for a in range(min(sym.eps_degree, degree) + 1)]

        return cls(spec, m, lambda sym: [part(m) for part in split(sym)],
                   [(t, t.Delta - t.d + a, 1.0, convolution_kernel(part, m, t.R))
                    for t in spec.terms for a, part in enumerate(split(t.C))],
                   [(j, eq, a, convolution_kernel(part, m, [1.0]))
                    for (j, eq), sym in spec.coeffs.b.items() if not sym.is_zero()
                    for a, part in enumerate(split(sym))], degree)

    def powers(self, p: int) -> int:
        """How many eps powers order p solves: all, or those up to eps^(degree-p)."""
        return self.n_eps if self.degree is None else max(0, self.degree + 1 - p)

    def rhs(self, c: list, p: int) -> np.ndarray:
        """Order p's right side but its b part, (2, n_eps, n_m), from c[:p],
        zero above its `powers`."""
        spec, n = self.spec, self.powers(p)
        rhs = np.zeros((2, self.n_eps, self.m.size), dtype=complex)
        if p in self.forcing:
            rhs[:, :n] += self.forcing[p][:, :n]
        if 1 <= spec.dD <= p:
            low = self.moved * c[p - spec.dD][:, :n]
            rhs[0, :n] += (spec.dD / spec.k) * low[1]
            rhs[:, :n] += low
        for d, delta, shift, scale, dilation, K in self.terms:
            if d <= p and shift < n:
                src = c[p - d][:, :n - shift]
                h = (src.reshape(-1, self.m.size) @ K.T).reshape(src.shape)
                h *= scale * dilation ** (p - d)
                rhs[0, shift:n] += delta * h[1]
                rhs[:, shift:n] += h
        return rhs

    def orders(self, what, rtol: float):
        """Yield c_0, c_1, ...: each eps power one `_order_fixed_point` to
        rtol, after the b entries of shift >= 1 add the lower powers of its
        order; what(p, e) names c_(p,e) in a DivergenceError."""
        coupling = [(j, eq, K) for j, eq, shift, K in self.b if shift == 0]
        inv_p0 = 1.0 / self.p0
        c = []
        for p in itertools.count():
            c_p = self.rhs(c, p)
            for e in range(self.powers(p)):
                for j, eq, shift, K in self.b:
                    if 1 <= shift <= e:
                        c_p[eq, e] += c_p[j, e - shift] @ K.T
                c_p[:, e] = _order_fixed_point(c_p[:, e], coupling, inv_p0,
                                               what(p, e), rtol)
            c.append(c_p)
            yield c_p


def taylor_at_origin(spec: ProblemSpec, eps: complex, m: np.ndarray,
                     radius: float, kernels=None) -> np.ndarray:
    """Taylor coefficients c_{j,n}(m) of (omega_0, omega_1) at tau = 0, the
    orders of `TaylorRecursion.at_eps` (over `kernels` = eps_kernels(spec, m,
    eps) when given), as a (2, orders, n_m) array.  The sum stops once the
    terms of the last max(dD, d_l) orders at |tau| = radius fall below
    TAYLOR_RTOL of the largest; a series that has not by order
    TAYLOR_MAX_ORDER raises DivergenceError."""
    if eps == 0:
        raise UsageError("the fixed point is defined for eps != 0")
    m = np.asarray(m, dtype=float)
    rec = TaylorRecursion.at_eps(spec, m, complex(eps), kernels)
    last_forced = max(rec.forcing, default=0)
    reach = max([spec.dD] + [t.d for t in spec.terms])
    # to a few units of rounding of the largest coefficient
    orders = rec.orders(lambda n, _: f"the order-{n} Taylor coefficients at tau = 0",
                        rtol=4e-16)
    c = []
    peak, quiet = 0.0, 0
    for n, c_n in zip(range(TAYLOR_MAX_ORDER + 1), orders):
        c.append(c_n[:, 0])
        size = float(np.abs(c_n).max()) * radius ** n
        if not math.isfinite(size):
            raise DivergenceError(f"the order-{n} Taylor coefficients at tau = 0 "
                                  f"are not finite ({size})")
        peak = max(peak, size)
        quiet = quiet + 1 if size <= TAYLOR_RTOL * peak else 0
        if n >= last_forced and quiet >= reach:
            return np.stack(c, axis=1)
    raise DivergenceError(
        f"the Taylor series of omega at tau = 0 does not converge at |tau| = "
        f"{radius:.4g} by order {TAYLOR_MAX_ORDER}")


def taylor_values(coef: np.ndarray, tau) -> np.ndarray:
    """(omega_0, omega_1) at the points tau, as a (2, tau.size, n_m) array,
    summed from their Taylor coefficients coef at tau = 0 (exactly c_0 at
    tau = 0)."""
    powers = np.asarray(tau)[:, None] ** np.arange(coef.shape[1])
    return np.stack([powers @ coef[0], powers @ coef[1]])
