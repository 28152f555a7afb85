"""Discretised Borel-plane operators and the Picard fixed point.

The (tau, m) grid is a bundle of radial lines through the origin, all anchored
to one geometric ladder rho * q^(g/N) with integer rungs g.  N is a multiple
of every dilation denominator, so the dilations tau -> q^(delta - d/k) tau
shift rungs exactly and never interpolate, except below the bottom rung of a
line where a quadratic through the centre value is used.  The principal line
runs along the Borel direction d from far inside the disc out to the ray tip;
uniform-angle ring lines populate the disc for norms, disc-agreement checks
and diagnostics.  Coupling in m is a dense kernel matrix per symbol; coupling
in tau is the pure rung shift, so every radial line evolves independently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DivergenceError, UsageError
from .geometry import SectorGeometry
from .problem_model import ProblemSpec, forcing_borel, polyval_im
from .special_functions import WeightParams, expq_weight
from .transforms import convolution_kernel

__all__ = [
    "GridSpec",
    "RadialLine",
    "BorelGrid",
    "BorelFunction",
    "SolveReport",
    "radial_envelope_log",
    "build_grid",
    "SolverContext",
    "solve_coupled",
    "solve_triangular",
    "contraction_estimate",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolution controls for the Borel-plane grid."""

    m_max: float = 12.0
    m_nodes: int = 241
    n_angles: int = 16
    ring_octaves: float = 5.0
    T_min: float | None = None
    T_max: float | None = None
    density_factor: float = 4.0

    def m_grid(self) -> np.ndarray:
        if self.m_nodes < 3 or self.m_nodes % 2 == 0:
            raise ConfigError("m_nodes must be an odd integer >= 3")
        return np.linspace(-self.m_max, self.m_max, self.m_nodes)


@dataclass(frozen=True)
class RadialLine:
    angle: float
    g_lo: int
    g_hi: int

    @property
    def size(self) -> int:
        return self.g_hi - self.g_lo + 1


@dataclass
class BorelGrid:
    spec_q: float
    k: int
    N: int
    rho: float
    delta: float
    direction: float
    m: np.ndarray
    lines: list[RadialLine]
    offsets: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        sizes = [ln.size for ln in self.lines]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        taus = []
        for ln in self.lines:
            g = np.arange(ln.g_lo, ln.g_hi + 1)
            taus.append(self.rho * self.spec_q ** (g / self.N) * np.exp(1j * ln.angle))
        self.tau = np.concatenate(taus)

    @property
    def n_nodes(self) -> int:
        return int(self.offsets[-1])

    def line_rows(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def radius_of_rung(self, g: int) -> float:
        return self.rho * self.spec_q ** (g / self.N)

    def weight_params(self, spec: ProblemSpec) -> WeightParams:
        return WeightParams(k=spec.k, beta=spec.beta, mu=spec.mu,
                            alpha=spec.alpha, rho=self.rho, delta=self.delta,
                            q=spec.q)

    def weights(self, spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
        """expq weight on all nodes and on the centre (cached per grid)."""
        key = (spec.k, spec.beta, spec.mu, spec.alpha)
        cached = getattr(self, "_weights", None)
        if cached is None or cached[0] != key:
            p = self.weight_params(spec)
            w_nodes = expq_weight(self.tau, self.m, p)
            w_center = expq_weight(np.array([0.0 + 0.0j]), self.m, p)[0]
            self._weights = (key, w_nodes, w_center)
        return self._weights[1], self._weights[2]

    def principal_rows(self) -> slice:
        return self.line_rows(0)

    def ring_line_indices(self) -> list[int]:
        return list(range(1, len(self.lines)))


@dataclass
class BorelFunction:
    """Grid samples of one Borel-plane unknown at a fixed eps."""

    grid: BorelGrid
    values: np.ndarray          # (n_nodes, n_m) complex
    center: np.ndarray          # (n_m,) complex, value at tau = 0
    eps: complex = 0.0

    @classmethod
    def zero(cls, grid: BorelGrid, eps: complex = 0.0) -> "BorelFunction":
        return cls(grid, np.zeros((grid.n_nodes, grid.m.size), dtype=complex),
                   np.zeros(grid.m.size, dtype=complex), eps)

    def copy(self) -> "BorelFunction":
        return BorelFunction(self.grid, self.values.copy(), self.center.copy(), self.eps)

    def __add__(self, other):
        return BorelFunction(self.grid, self.values + other.values,
                             self.center + other.center, self.eps)

    def __sub__(self, other):
        return BorelFunction(self.grid, self.values - other.values,
                             self.center - other.center, self.eps)

    def scaled(self, c) -> "BorelFunction":
        return BorelFunction(self.grid, c * self.values, c * self.center, self.eps)

    def dilate_down(self, shift: int) -> "BorelFunction":
        """Samples of tau -> self(q^(-shift/N) tau): rung shift within each line.

        Below a line's bottom rung the value comes from the quadratic through
        (0, centre) and the two lowest stored nodes of the same line.
        """
        if shift < 0:
            raise UsageError("only contracting dilations map the grid into itself")
        if shift == 0:
            return self.copy()
        g = self.grid
        out = np.empty_like(self.values)
        for i, ln in enumerate(g.lines):
            rows = g.line_rows(i)
            vals = self.values[rows]
            n = ln.size
            block = np.empty_like(vals)
            keep = max(0, n - shift)
            if keep:
                block[shift:] = vals[:keep]
            r0 = g.radius_of_rung(ln.g_lo)
            r1 = g.radius_of_rung(ln.g_lo + 1) if n > 1 else 2.0 * r0
            v0 = vals[0]
            v1 = vals[1] if n > 1 else vals[0]
            for j in range(min(shift, n)):
                r = g.radius_of_rung(ln.g_lo + j - shift)
                l0 = (r - r0) * (r - r1) / (r0 * r1)
                l1 = r * (r - r1) / (r0 * (r0 - r1))
                l2 = r * (r - r0) / (r1 * (r1 - r0))
                block[j] = l0 * self.center + l1 * v0 + l2 * v1
            out[rows] = block
        return BorelFunction(self.grid, out, self.center.copy(), self.eps)

    def norm(self, spec: ProblemSpec) -> float:
        w_nodes, w_center = self.grid.weights(spec)
        a = float(np.max(w_nodes * np.abs(self.values))) if self.values.size else 0.0
        b = float(np.max(w_center * np.abs(self.center)))
        return max(a, b)


@dataclass
class SolveReport:
    iterations: int
    final_update: float
    contraction: float
    norms: tuple[float, float]
    residual: float
    smallness_ok: bool | None = None
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
                      alpha: float, delta: float, drop: float = 34.5):
    """Radial range outside which the integrand is < e^(-drop) of its peak."""
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
    """Assemble the radial-line grid for one Borel direction."""
    N = _ladder_density(spec, gspec.density_factor)
    lnq = spec.lnq
    T_max = gspec.T_max if gspec.T_max is not None else 0.25 * geom.rho
    T_min = gspec.T_min if gspec.T_min is not None else T_max / 1000.0
    s_floor, s_top = _envelope_cutoffs(math.log(T_min), math.log(T_max),
                                       spec.k, spec.q, spec.alpha, geom.delta)
    s_top = max(s_top, math.log(geom.r_max))
    g_floor = math.floor(N * (s_floor - math.log(geom.rho)) / lnq)
    g_top = math.ceil(N * (s_top - math.log(geom.rho)) / lnq)
    lines = [RadialLine(angle=geom.d, g_lo=g_floor, g_hi=g_top)]
    # ring angles stay uniform even when one coincides with the direction:
    # the arc interpolation relies on a full uniform circle of samples
    g_ring = math.floor(-gspec.ring_octaves * N)
    for j in range(gspec.n_angles):
        ang = 2.0 * math.pi * j / gspec.n_angles
        lines.append(RadialLine(angle=ang, g_lo=g_ring, g_hi=0))
    return BorelGrid(spec_q=spec.q, k=spec.k, N=N, rho=geom.rho,
                     delta=geom.delta, direction=geom.d, m=gspec.m_grid(),
                     lines=lines)


class SolverContext:
    """Precomputed factor arrays and kernel matrices for one (grid, eps)."""

    def __init__(self, spec: ProblemSpec, grid: BorelGrid, eps: complex):
        if eps == 0:
            raise UsageError("the fixed point is defined for eps != 0")
        self.spec = spec
        self.grid = grid
        self.eps = complex(eps)
        m = grid.m
        tau = grid.tau

        self.Q_im = polyval_im(spec.Q, m)
        self.P = spec.pm(tau, m)
        self.P_center = spec.pm(np.array([0.0 + 0.0j]), m)[0]
        self.invP = 1.0 / self.P
        self.invP_center = 1.0 / self.P_center

        qfD = spec.q_power_factor(spec.dD)
        rd = polyval_im(spec.RD, m)
        tau_dD = tau ** spec.dD
        self.moved_term = qfD * rd[None, :] * tau_dD[:, None]
        self.moved_center = qfD * rd * (0.0 if spec.dD > 0 else 1.0)
        self.hp_raw = (spec.dD / spec.k) * self.moved_term
        self.hp_center = (spec.dD / spec.k) * self.moved_center

        self.F_raw = []
        self.F_center = []
        for h in (0, 1):
            self.F_raw.append(forcing_borel(spec, h, tau, m, eps))
            self.F_center.append(forcing_borel(spec, h, np.array([0.0 + 0.0j]), m, eps)[0])

        self.term_shift = []
        self.term_pref = []
        self.term_kernel = []
        self.term_eps_pow = []
        for t in spec.terms:
            x = Fraction(t.d, spec.k) - t.delta
            shift = x * grid.N
            if shift.denominator != 1:
                raise ConfigError("grid density does not align with the dilation exponents")
            self.term_shift.append(int(shift))
            self.term_pref.append(spec.q_power_factor(t.d) * (tau ** t.d)[:, None])
            self.term_kernel.append(
                convolution_kernel(functools.partial(t.C, eps=eps), m, t.R))
            self.term_eps_pow.append(self.eps ** (t.Delta - t.d))
        self.b_kernel = {
            jk: None if sym.is_zero()
            else convolution_kernel(functools.partial(sym, eps=eps), m, [1.0])
            for jk, sym in spec.coeffs.b.items()}

    # -- elementary operator pieces (undivided unless noted) ------------

    def _conv(self, K: np.ndarray, w: BorelFunction):
        return w.values @ K.T, w.center @ K.T

    def hl_raw(self, w: BorelFunction, ell: int):
        """tau^d_l damped dilation-convolution of one unknown, times P omitted."""
        wd = w.dilate_down(self.term_shift[ell])
        vals, cen = self._conv(self.term_kernel[ell], wd)
        pref = self.term_pref[ell]
        dl = self.spec.terms[ell].d
        cen_out = cen * (0.0 if dl > 0 else 1.0)
        return pref * vals, cen_out

    def apply_Hl(self, w: BorelFunction, ell: int) -> BorelFunction:
        vals, cen = self.hl_raw(w, ell)
        return BorelFunction(self.grid, vals * self.invP,
                             cen * self.invP_center, self.eps)

    def apply_HP(self, w1: BorelFunction) -> BorelFunction:
        return BorelFunction(self.grid, self.hp_raw * self.invP * w1.values,
                             self.hp_center * self.invP_center * w1.center,
                             self.eps)

    def _rhs_components(self, w0: BorelFunction, w1: BorelFunction,
                        include_moved: bool):
        """Right sides of the two convolution equations, before dividing by P.

        include_moved adds the q^(...) R_D tau^dD omega_j terms that the fixed
        point formulation moves to the left.
        """
        pieces0 = self.hp_raw * w1.values
        cen0 = self.hp_center * w1.center
        pieces1 = np.zeros_like(pieces0)
        cen1 = np.zeros_like(cen0)
        if include_moved:
            pieces0 = pieces0 + self.moved_term * w0.values
            cen0 = cen0 + self.moved_center * w0.center
            pieces1 = pieces1 + self.moved_term * w1.values
            cen1 = cen1 + self.moved_center * w1.center
        for ell in range(len(self.spec.terms)):
            ep = self.term_eps_pow[ell]
            dl = float(self.spec.terms[ell].delta)
            v0, c0 = self.hl_raw(w0, ell)
            v1, c1 = self.hl_raw(w1, ell)
            pieces0 = pieces0 + ep * (v0 + dl * v1)
            cen0 = cen0 + ep * (c0 + dl * c1)
            pieces1 = pieces1 + ep * v1
            cen1 = cen1 + ep * c1
        pieces0 = pieces0 + self.F_raw[0]
        cen0 = cen0 + self.F_center[0]
        pieces1 = pieces1 + self.F_raw[1]
        cen1 = cen1 + self.F_center[1]
        for (j, kk), K in self.b_kernel.items():
            if K is None:
                continue
            w = w0 if j == 0 else w1
            vals, cen = self._conv(K, w)
            if kk == 0:
                pieces0 = pieces0 + vals
                cen0 = cen0 + cen
            else:
                pieces1 = pieces1 + vals
                cen1 = cen1 + cen
        return pieces0, cen0, pieces1, cen1

    def apply_H(self, w0: BorelFunction, w1: BorelFunction):
        p0, c0, p1, c1 = self._rhs_components(w0, w1, include_moved=False)
        out0 = BorelFunction(self.grid, p0 * self.invP, c0 * self.invP_center, self.eps)
        out1 = BorelFunction(self.grid, p1 * self.invP, c1 * self.invP_center, self.eps)
        return out0, out1

    def undivided_residual(self, w0: BorelFunction, w1: BorelFunction):
        """Q(im) omega_j minus the full right side, nodewise."""
        p0, c0, p1, c1 = self._rhs_components(w0, w1, include_moved=True)
        q = self.Q_im[None, :]
        r0 = BorelFunction(self.grid, q * w0.values - p0,
                           self.Q_im * w0.center - c0, self.eps)
        r1 = BorelFunction(self.grid, q * w1.values - p1,
                           self.Q_im * w1.center - c1, self.eps)
        return r0, r1

    # -- triangular sub-operators ---------------------------------------

    def apply_H1(self, w1: BorelFunction) -> BorelFunction:
        out = BorelFunction(self.grid, self.F_raw[1] * self.invP,
                            self.F_center[1] * self.invP_center, self.eps)
        for ell in range(len(self.spec.terms)):
            out = out + self.apply_Hl(w1, ell).scaled(self.term_eps_pow[ell])
        K = self.b_kernel[(1, 1)]
        if K is not None:
            vals, cen = self._conv(K, w1)
            out = out + BorelFunction(self.grid, vals * self.invP,
                                      cen * self.invP_center, self.eps)
        return out

    def g_eps(self, w1: BorelFunction) -> BorelFunction:
        out = self.apply_HP(w1) + BorelFunction(
            self.grid, self.F_raw[0] * self.invP,
            self.F_center[0] * self.invP_center, self.eps)
        for ell in range(len(self.spec.terms)):
            dl = float(self.spec.terms[ell].delta)
            out = out + self.apply_Hl(w1, ell).scaled(self.term_eps_pow[ell] * dl)
        K = self.b_kernel[(1, 0)]
        if K is not None:
            vals, cen = self._conv(K, w1)
            out = out + BorelFunction(self.grid, vals * self.invP,
                                      cen * self.invP_center, self.eps)
        return out

    def apply_H0(self, w0: BorelFunction, g: BorelFunction) -> BorelFunction:
        out = g.copy()
        for ell in range(len(self.spec.terms)):
            out = out + self.apply_Hl(w0, ell).scaled(self.term_eps_pow[ell])
        K = self.b_kernel[(0, 0)]
        if K is not None:
            vals, cen = self._conv(K, w0)
            out = out + BorelFunction(self.grid, vals * self.invP,
                                      cen * self.invP_center, self.eps)
        return out


def _picard(step, start, diff_norm, tol, max_iter):
    w = start
    history = []
    contraction = 0.0
    for it in range(1, max_iter + 1):
        w_next = step(w)
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
        if update < tol:
            return w, it, update, contraction, history
    raise DivergenceError(
        f"Picard iteration did not reach tol={tol} in {max_iter} iterations",
        history)


def solve_coupled(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                  tol: float = 1e-10, max_iter: int = 200,
                  smallness_ok: bool | None = None):
    """Picard iteration on the coupled map from (0, 0).

    Convergence is guaranteed when the smallness budget holds; otherwise the
    solve still runs and the report flags the missing guarantee.
    """
    ctx = SolverContext(spec, grid, eps)
    zero = BorelFunction.zero(grid, eps)

    def step(pair):
        return ctx.apply_H(pair[0], pair[1])

    def pair_norm(a, b):
        return max((a[0] - b[0]).norm(spec), (a[1] - b[1]).norm(spec))

    start = (zero, zero.copy())
    pair, iters, update, contraction, history = _picard(step, start, pair_norm,
                                                        tol, max_iter)
    w0, w1 = pair
    h0, h1 = ctx.apply_H(w0, w1)
    residual = max((h0 - w0).norm(spec), (h1 - w1).norm(spec))
    cf = max(BorelFunction(grid, ctx.F_raw[h] * ctx.invP,
                           ctx.F_center[h] * ctx.invP_center, eps).norm(spec)
             for h in (0, 1))
    varpi = 2.0 * cf / max(1e-12, 1.0 - contraction)
    report = SolveReport(iterations=iters, final_update=update,
                         contraction=contraction,
                         norms=(w0.norm(spec), w1.norm(spec)),
                         residual=residual, smallness_ok=smallness_ok,
                         varpi=varpi, update_history=history)
    return w0, w1, report


def solve_triangular(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                     tol: float = 1e-10, max_iter: int = 200,
                     smallness_ok: bool | None = None):
    """Forward-substitution solve for the b_01 = 0 regime."""
    if not spec.coeffs.triangular:
        raise UsageError("triangular solve requires b_01 identically zero")
    ctx = SolverContext(spec, grid, eps)
    zero = BorelFunction.zero(grid, eps)

    def single_norm(a, b):
        return (a - b).norm(spec)

    w1, it1, upd1, con1, hist1 = _picard(ctx.apply_H1, zero, single_norm,
                                         tol, max_iter)
    g = ctx.g_eps(w1)
    w0, it0, upd0, con0, hist0 = _picard(lambda w: ctx.apply_H0(w, g),
                                         zero.copy(), single_norm, tol, max_iter)
    h0, h1 = ctx.apply_H(w0, w1)
    residual = max((h0 - w0).norm(spec), (h1 - w1).norm(spec))
    report = SolveReport(iterations=max(it0, it1),
                         final_update=max(upd0, upd1),
                         contraction=max(con0, con1),
                         norms=(w0.norm(spec), w1.norm(spec)),
                         residual=residual, smallness_ok=smallness_ok,
                         varpi=math.nan, update_history=hist1 + hist0)
    return w0, w1, report


def contraction_estimate(spec: ProblemSpec, eps: complex, grid: BorelGrid,
                         probes: int = 6, seed: int = 0,
                         scale: float = 1.0) -> float:
    """Max over random probe pairs of the H-difference quotient."""
    if probes < 2:
        raise UsageError("need at least two probes")
    ctx = SolverContext(spec, grid, eps)
    rng = np.random.default_rng(seed)
    w_nodes, w_center = grid.weights(spec)

    def random_fn():
        v = (rng.standard_normal(w_nodes.shape) + 1j * rng.standard_normal(w_nodes.shape))
        c = (rng.standard_normal(w_center.shape) + 1j * rng.standard_normal(w_center.shape))
        return BorelFunction(grid, scale * v / w_nodes, scale * c / w_center, eps)

    fns = [(random_fn(), random_fn()) for _ in range(probes)]
    # H is affine, so H(a) - H(b) = L(a - b): one application per probe
    hs = [ctx.apply_H(a[0], a[1]) for a in fns]
    worst = 0.0
    for a, ha in zip(fns, hs):
        for b, hb in zip(fns, hs):
            if a is b:
                continue
            d0, d1 = a[0] - b[0], a[1] - b[1]
            denom = max(d0.norm(spec), d1.norm(spec))
            if denom == 0:
                continue
            num = max((ha[0] - hb[0]).norm(spec), (ha[1] - hb[1]).norm(spec))
            worst = max(worst, num / denom)
    return worst
