"""Independent oracles for the tests.

None of this is production code.  `q_laplace` is a self-bracketing trapezoid
quadrature of the q-Laplace ray integral for any callable density, held
against the closed-form transforms of monomials and the operational rule.
`e_norm` writes the m weight out on its own.  `expq_norm` and the
single-term operators `apply_Hl` and `apply_HP` read a `SolverContext`'s
public factors; `stacked` and `weighted_norm` build and measure stacked
samples.  `theta_bound_margin` (with `theta_log_abs` and
`theta_zero_clearance`), `monodromy_components` and `coverage_count` (with
`sector_interval` and `sector_contains`) are the paper-level checks of the
theta lower bound, the formal monodromy and the good covering.
`order_dense_solve` solves one order of the formal or Taylor recursion as
one dense linear system, the oracle for its fixed-point iteration, and
`formal_order_rhs` rebuilds the right side of one coefficient of the formal
series in physical form, in t-powers rather than Taylor orders.
`arc_values` solves a ring line at each arc sample angle and reads it at
the arc rung, the oracle for the arc samples summed from the Taylor series
at tau = 0, and `RingArcSolution` takes its sector-difference arc from them.
`residual_physical_per_component` assembles the physical defect from one
`LogSolution.component` call, with its own Fourier sum, per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from qborel.borel_solver import SolverContext, eps_kernels, solve_coupled
from qborel.errors import DivergenceError, DomainError, UsageError
from qborel.geometry import GoodCovering
from qborel.problem_model import polyval_im
from qborel.solution_assembly import ARC_SAMPLES, LogSolution
from qborel.special_functions import WeightParams, expq_weight, inv_theta, theta_scaled
from qborel.transforms import check_admissible, convolution_kernel, inverse_fourier

_FLOOR = 1e-16          # relative integrand floor for bracket expansion
_TAIL_RUN = 12          # consecutive sub-floor nodes ending the expansion
_MAX_NODES = 60000


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls of the ray quadrature in q_laplace; the m grid belongs to
    borel_solver.GridSpec."""

    nodes_per_decade: int = 48
    delta_admissible: float = 0.5
    r1: float | None = None

    @property
    def step(self) -> float:
        return math.log(10.0) / self.nodes_per_decade


def _integrand(w, s: np.ndarray, T: complex, gamma: float, q: float, k: int):
    u = np.exp(s + 1j * gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        return w(u) * inv_theta(u / T, q, k)


def q_laplace(w, T: complex, gamma: float, q: float, k: int,
              quad: QuadratureSpec) -> tuple[complex, float]:
    """q-Laplace transform of order k of w along direction gamma at T.

    w is a callable of the complex ray variable.  Returns (value, error
    estimate); the estimate combines a stride-2 Richardson difference with the
    relative size of the end contributions.
    """
    check_admissible(T, gamma, quad.delta_admissible, quad.r1)
    h = quad.step
    s, vals = _expand_bracket(w, T, gamma, q, k, h, math.log(abs(T)))
    tw = np.full(s.size, h)
    tw[0] = tw[-1] = 0.5 * h
    pref = k / math.log(q)
    value = pref * np.sum(tw * vals)
    coarse = pref * 2 * h * np.sum(vals[::2]) if s.size > 4 else value
    peak = float(np.max(np.abs(vals)))
    edge = max(abs(vals[0]), abs(vals[-1])) / peak if peak > 0 else 0.0
    err = abs(value - coarse) / 3.0 + edge * abs(value)
    return complex(value), float(err)


def _expand_bracket(w, T, gamma, q, k, h, s_center):
    chunk = 48
    s = s_center + h * np.arange(-chunk, chunk + 1)
    vals = _integrand(w, s, T, gamma, q, k)
    for side in (-1, +1):
        while True:
            mags = np.abs(vals)
            peak = mags.max()
            run = mags[:_TAIL_RUN] if side < 0 else mags[-_TAIL_RUN:]
            if peak > 0 and np.all(run < _FLOOR * peak):
                break
            if s.size > _MAX_NODES or abs(s[0 if side < 0 else -1]) > 600.0:
                raise DivergenceError(
                    "q-Laplace integrand does not decay within the node budget; "
                    "growth envelope violated at large radius"
                )
            if side < 0:
                s_new = s[0] - h * np.arange(chunk, 0, -1)
                vals = np.concatenate([_integrand(w, s_new, T, gamma, q, k), vals])
                s = np.concatenate([s_new, s])
            else:
                s_new = s[-1] + h * np.arange(1, chunk + 1)
                vals = np.concatenate([vals, _integrand(w, s_new, T, gamma, q, k)])
                s = np.concatenate([s, s_new])
    return s, vals


def q_laplace_operational_check(w, sigma: float, j: float, T: complex,
                                gamma: float, q: float, k: int,
                                quad: QuadratureSpec) -> tuple[complex, complex]:
    """Both sides of the dilation/multiplication rule of the q-Laplace transform.

    lhs = T^sigma (L w)(q^j T); rhs = L[z^sigma q^(-sigma(sigma-1)/2k) w(q^(j-sigma/k) z)](T).
    The two sides are computed by independent quadratures.
    """
    if sigma < 0 or j < 0:
        raise DomainError("the operational rule requires sigma >= 0 and j >= 0")
    qj = q ** j
    lhs = T ** sigma * q_laplace(w, qj * T, gamma, q, k, quad)[0]
    factor = q ** (-(sigma * (sigma - 1.0)) / (2.0 * k))
    shift = q ** (j - sigma / k)

    def g(z):
        return z ** sigma * factor * w(shift * z)

    rhs = q_laplace(g, T, gamma, q, k, quad)[0]
    return lhs, rhs


def e_norm(f, beta: float, mu: float, m_grid):
    """Grid estimator of the weighted sup norm sup (1+|m|)^mu e^(beta|m|) |f|."""
    m = np.asarray(m_grid, dtype=float)
    if m.size == 0:
        raise DomainError("empty m grid")
    vals = f(m) if callable(f) else np.asarray(f)
    weight = (1.0 + np.abs(m)) ** mu * np.exp(beta * np.abs(m))
    return float(np.max(weight * np.abs(vals)))


def expq_norm(values, tau, m_grid, params: WeightParams):
    """Grid estimator of the Exp^q norm: sup of expq_weight * |values|.

    values has shape tau.shape + m_grid.shape.
    """
    vals = np.asarray(values)
    if vals.shape != np.shape(tau) + np.shape(m_grid):
        raise DomainError("values shape does not match (tau, m) grids")
    if vals.size == 0:
        return 0.0
    return float(np.max(expq_weight(tau, m_grid, params) * np.abs(vals)))


def stacked(grid, values, center) -> np.ndarray:
    """The stacked (n_nodes + 1, n_m) samples of a Borel density on grid:
    values on the nodes, then center at tau = 0 in the last row."""
    data = np.empty((grid.n_nodes + 1, grid.m.size), dtype=complex)
    data[:-1] = values
    data[-1] = center
    return data


def weighted_norm(grid, spec, data: np.ndarray) -> float:
    """The weighted sup norm of stacked samples data on grid."""
    return float(np.max(np.abs(data) * grid.stacked_weights(spec)))


def apply_Hl(ctx: SolverContext, w: np.ndarray, ell: int) -> np.ndarray:
    """tau^d_l damped dilation-convolution of one unknown over P, without
    the eps power."""
    data = ctx.fac.dilations[ell].apply(w) @ ctx.term_kernel[ell].T
    data *= ctx.fac.prefs[ell]
    data *= ctx.fac.inv_p
    return data


def apply_HP(ctx: SolverContext, w1: np.ndarray) -> np.ndarray:
    """The (dD/k) q^(...) R_D tau^dD omega_1 term of equation 0 over P."""
    return ctx.fac.hp * ctx.fac.inv_p * w1


def theta_log_abs(z, q: float, k: int = 1):
    """log |theta(z)|, finite for any z where the evaluation window suffices."""
    scaled, log_scale = theta_scaled(z, q, k)
    return np.log(np.abs(scaled)) + log_scale


def theta_zero_clearance(z: complex, q: float, k: int = 1):
    """Distance data min_m |1 + z q^(m/k)| together with the minimising m.

    Only finitely many integers m can make the product small: q^(m/k)|z| must
    fall inside (0, 2), all other indices give |1 + z q^(m/k)| > 1.
    """
    az = abs(z)
    if az == 0:
        raise DomainError("clearance undefined at z = 0")
    lnq = math.log(q)
    m_hi = math.floor(k * math.log(2.0 / az) / lnq)
    m_lo = math.ceil(k * math.log(1e-3 / az) / lnq)
    best = 1.0
    best_m = None
    for m in range(min(m_lo, m_hi), m_hi + 1):
        val = abs(1.0 + z * q ** (m / k))
        if val < best:
            best = val
            best_m = m
    return best, best_m


def theta_bound_margin(z: complex, q: float, k: int, delta_clear: float):
    """Ratio |theta(z)| / (Delta exp((k/2) log^2|z|/log q) |z|^(1/2)).

    A positive value certifies the lower-bound shape for this z; the infimum
    over a sample of z estimates the constant C_{q,k}.  Requires the zero
    clearance |1 + z q^(m/k)| > Delta for all integers m.
    """
    if delta_clear <= 0:
        raise DomainError("Delta must be positive")
    clearance, worst_m = theta_zero_clearance(z, q, k)
    if clearance <= delta_clear:
        raise DomainError(
            f"certificate inapplicable: |1 + z q^(m/k)| = {clearance:.3e} <= "
            f"Delta at m = {worst_m}"
        )
    lnq = math.log(q)
    la = math.log(abs(z))
    log_den = math.log(delta_clear) + 0.5 * k * la * la / lnq + 0.5 * la
    return float(np.exp(theta_log_abs(z, q, k) - log_den))


def monodromy_components(u0val: complex, u1val: complex, q: float):
    """Action of the formal monodromy on the component pair:
    (u_0, u_1) -> (u_0 + (2 pi i / log q) u_1, u_1)."""
    return u0val + 2j * math.pi / math.log(q) * u1val, u1val


def sector_interval(cov: GoodCovering, p: int) -> tuple[float, float]:
    """The argument interval of the covering's eps sector p."""
    c = cov.directions[p % cov.zeta]
    return c - cov.aperture / 2.0, c + cov.aperture / 2.0


def sector_contains(cov: GoodCovering, p: int, eps: complex) -> bool:
    """Whether the covering's eps sector p holds eps."""
    if not (0.0 < abs(eps) <= cov.radius):
        return False
    lo, hi = sector_interval(cov, p)
    a = np.angle(eps)
    return any(lo <= a + 2 * math.pi * s <= hi for s in (-1, 0, 1))


def coverage_count(cov: GoodCovering, angle: float) -> int:
    """How many sectors of the covering hold eps = (radius / 2) e^(i angle)."""
    return sum(
        1 for p in range(cov.zeta)
        if sector_contains(cov, p, 0.5 * cov.radius * np.exp(1j * angle))
    )


def order_dense_solve(rhs: np.ndarray, p0: np.ndarray, b_kernel: dict) -> np.ndarray:
    """The coefficients c (2, n_m) of one order with p0 c_eq - sum_j
    K_(j,eq) c_j = rhs_eq, from one np.linalg.solve of the (2 n_m)-square
    system (p0 I - K_b) c = rhs.  b_kernel maps (j, eq) to K_(j,eq), or to
    None where the b symbol vanishes."""
    n = p0.size
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    for eq in (0, 1):
        A[eq * n:(eq + 1) * n, eq * n:(eq + 1) * n] = np.diag(p0)
    for (j, eq), K in b_kernel.items():
        if K is not None:
            A[eq * n:(eq + 1) * n, j * n:(j + 1) * n] -= K
    return np.linalg.solve(A, np.asarray(rhs, dtype=complex).ravel()).reshape(2, n)


def formal_order_rhs(spec, coef: np.ndarray, m: np.ndarray, n: int, p: int) -> np.ndarray:
    """The right side (2, n_m) of the eps^n t^p identity of the formal series
    in physical form, Q(im) V_(n,p) = rhs + sum_j K_(j,eq) V_(j,n,p) with the
    eps-constant b kernels K, rebuilt from the lower coefficients of the
    dense array coef[j, n, p]: the (eps t)^dD R_D term, the eps^a part of
    each dilation term, the forcing and the eps^a (a >= 1) parts of the b
    symbols.  The R_D term stays on the right, so dD >= 1."""
    if spec.dD < 1:
        raise UsageError("the physical form keeps R_D on the right: needs dD >= 1")
    q, k = spec.q, spec.k
    rhs = np.zeros((2, m.size), dtype=complex)

    def feed(v, delta):
        rhs[0] += v[0] + delta * v[1]
        rhs[1] += v[1]

    if p >= spec.dD and n >= spec.dD:
        src = coef[:, n - spec.dD, p - spec.dD]
        feed(q ** (spec.dD * (p - spec.dD) / k) * polyval_im(spec.RD, m) * src, spec.dD / k)
    for t in spec.terms:
        for a in range(t.C.eps_degree + 1):
            if p >= t.d and n >= t.Delta + a:
                K = convolution_kernel(t.C.eps_coefficient(a), m, t.R)
                src = coef[:, n - t.Delta - a, p - t.d]
                feed(q ** (float(t.delta) * (p - t.d)) * (src @ K.T), float(t.delta))
    for h in (0, 1):
        sym = spec.forcing.powers(h).get(p)
        if sym is not None and 0 <= n - p <= sym.eps_degree:
            rhs[h] += q ** (p * (p - 1) / (2.0 * k)) * sym.eps_coefficient(n - p)(m)
    for (j, eq), sym in spec.coeffs.b.items():
        for a in range(1, min(sym.eps_degree, n) + 1):
            rhs[eq] += coef[j, n - a, p] @ convolution_kernel(sym.eps_coefficient(a), m,
                                                               [1.0]).T
    return rhs


def arc_values(spec, eps: complex, grid, g_arc: int, octaves: float = 4.0,
               tol: float = 1e-13):
    """(w_0, w_1) at rung g_arc and ARC_SAMPLES uniform angles, by
    increasing angle: (ARC_SAMPLES, n_m) each, from solved ring lines.

    A radial line couples only to itself and the centre, and the centre to
    nothing, so the ring line at angle theta is its own grid: the ladder of
    grid turned to theta, from `octaves` octaves below the disc radius up to
    it.  Each is solved by the coupled Picard iteration.
    """
    g_ring = math.floor(-octaves * grid.N)
    if not g_ring <= g_arc <= 0:
        raise UsageError(f"ring lines over rungs {g_ring}..0 miss the arc rung {g_arc}")
    kernels = eps_kernels(spec, grid.m, eps)
    samples = []
    for j in range(ARC_SAMPLES):
        ring = replace(grid, direction=2.0 * math.pi * j / ARC_SAMPLES,
                       g_lo=g_ring, g_hi=0)
        w0, w1, _ = solve_coupled(spec, eps, ring, tol=tol, kernels=kernels)
        samples.append((w0[g_arc - g_ring], w1[g_arc - g_ring]))
    return tuple(np.array(s) for s in zip(*samples))


class RingArcSolution(LogSolution):
    """A LogSolution whose sector-difference arc reads solved ring lines
    (`arc_values`) instead of the Taylor series at tau = 0."""

    def _arc_samples(self, g_arc: int):
        return arc_values(self.spec, self.eps, self.grid, g_arc)


def residual_physical_per_component(sol: LogSolution, spec, points) -> np.ndarray:
    """`solution_assembly.residual_physical` with every component of every
    point Fourier-summed on its own: 13 `component` calls per point on the
    worked instance, each sampling its multiplier again."""
    eps = sol.eps
    m = sol.grid.m
    qdk = spec.q ** (spec.dD / spec.k)
    n_terms = len(spec.terms)
    b_keys = list(spec.coeffs.b)
    forcing = [(h, p, sym) for h in (0, 1) for p, sym in spec.forcing.powers(h).items()]
    symbols = ([term.C for term in spec.terms] + [spec.coeffs.b[jk] for jk in b_keys]
               + [sym for _, _, sym in forcing])
    samples = np.array([sym(m, eps) for sym in symbols], dtype=complex).reshape(-1, m.size)
    defects = np.zeros(len(points))
    for i, (t, z) in enumerate(points):
        t, z = complex(t), complex(z)
        T = eps * t
        sym_vals = inverse_fourier(samples, z, m)
        b = dict(zip(b_keys, sym_vals[n_terms:n_terms + len(b_keys)]))
        u0 = sol.component(0, t, z)
        u1 = sol.component(1, t, z)
        lhs0 = sol.component(0, t, z, multiplier=spec.Q)
        lhs1 = sol.component(1, t, z, multiplier=spec.Q)
        rhs0 = T ** spec.dD * (
            sol.component(0, qdk * t, z, multiplier=spec.RD)
            + (spec.dD / spec.k) * sol.component(1, qdk * t, z, multiplier=spec.RD))
        rhs1 = T ** spec.dD * sol.component(1, qdk * t, z, multiplier=spec.RD)
        for term, c_val in zip(spec.terms, sym_vals[:n_terms]):
            qd = spec.q ** float(term.delta)
            pref = eps ** term.Delta * t ** term.d * c_val
            r0 = sol.component(0, qd * t, z, multiplier=term.R)
            r1 = sol.component(1, qd * t, z, multiplier=term.R)
            rhs0 += pref * (r0 + float(term.delta) * r1)
            rhs1 += pref * r1
        forced = [0.0 + 0.0j, 0.0 + 0.0j]
        for (h, p, _), F in zip(forcing, sym_vals[n_terms + len(b_keys):]):
            forced[h] += F * (spec.q ** (1.0 / spec.k)) ** (p * (p - 1) / 2.0) * T ** p
        rhs0 += forced[0] + b[(0, 0)] * u0 + b[(1, 0)] * u1
        rhs1 += forced[1] + b[(0, 1)] * u0 + b[(1, 1)] * u1
        defects[i] = max(abs(lhs0 - rhs0), abs(lhs1 - rhs1))
    return defects


def c_d_scan(spec, rho: float, m_grid, n_r: int = 40, n_ang: int = 48) -> float:
    """The minimum of |P_m(tau)| / |Q(im)| over a polar grid of the disc
    |tau| <= rho (n_r radii from 0 to rho, n_ang angles from 0) and m_grid,
    one radius at a time."""
    m = np.asarray(m_grid, dtype=float)
    abs_q = np.abs(polyval_im(spec.Q, m))
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False))
    return float(min((np.abs(spec.pm(r * angles, m)) / abs_q).min()
                     for r in np.linspace(0.0, rho, n_r)))
