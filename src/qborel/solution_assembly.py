"""Assembly of the logarithmic solution from the Borel-plane fixed point.

u(t, z, eps) = u_0 + u_1 log(eps t)/log q with each component the q-Laplace
transform (along the grid direction) and inverse Fourier transform of its
Borel density.  Inside the disc the density is its Taylor series at tau = 0.
On a line whose rows are all summed from that series the q-Laplace transform
is summed in closed form, since it sends tau^n to q^(n(n-1)/2k) (eps t)^n.
Otherwise it is a ray through the kernel window up to the line's Taylor
rung, where the series is summed at the ray's quadrature nodes, plus the ray
tail above that rung, which interpolates the line's Picard rows.
Sector differences deform one direction into the other: two ray tails on
the principal lines and an arc inside the disc, where the densities are the
Taylor series at tau = 0, summed at the arc's quadrature nodes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .borel_solver import BorelGrid, SolverContext
from .errors import DomainError, UsageError, ZeroRingError
from .geometry import admissible_r1
from .problem_model import ProblemSpec, polyval_im
from .special_functions import inv_theta
from .transforms import check_admissible, inverse_fourier

__all__ = [
    "LogSolution",
    "difference_arc_rung",
    "residual_borel",
    "residual_physical",
    "solution_difference",
    "tail_top",
]


# (w_0, w_1) pairs kept per solution: one pair is 2 n_m complex numbers
# (7.7 kB at n_m = 241), so a long list of distinct eps t must not grow the
# cache without bound.
PAIR_CACHE_LIMIT = 1024

# rungs below the arc rung that the ray tail's interpolation stencil reads
TAIL_REACH = 2

# angular frequency that the arc's panel rule adds to the kernel's rate.  The
# rule is not converged: dropping the term moves single `decay.csv` values by
# up to 76% (wide config) and 350% (example); ROADMAP item 1(c) re-derives it
ARC_PANEL_FREQ = 16


# e-fold drop of the kernel, from its peak or from the arc radius, beyond
# which the ray and its tail integrate nothing
KERNEL_DROP = 45.0


def tail_reach(spec: ProblemSpec, grid: BorelGrid, g_arc: int, T: complex):
    """(s_end, g_top) of the ray tail beyond rung g_arc at T = eps t: the
    log radius where the kernel has fallen e^(-KERNEL_DROP) below its value
    at the arc radius, and the highest rung the tail's 6-point stencil
    reads.  The tail grows with |T|, so the reach at a grid's T_max covers
    its range."""
    s0 = math.log(grid.radius_of_rung(g_arc))
    a = 0.5 * spec.k / spec.lnq
    x0 = s0 - math.log(abs(T))
    s_end = s0 + (math.sqrt(x0 * x0 + KERNEL_DROP / a) - x0)
    return s_end, g_arc - TAIL_REACH + 5 + math.floor((s_end - s0) / (spec.lnq / grid.N))


def tail_top(spec: ProblemSpec, grid: BorelGrid) -> int:
    """The top rung of a line of grid's ladder whose components carry their
    ray tails up to grid's T_max: the higher of grid's top and the reach of
    the tail from its arc rung at T_max (`tail_reach`)."""
    return max(grid.g_hi, tail_reach(spec, grid, grid.arc_rung(), grid.T_max)[1])


# the 8-point Gauss-Legendre rule on [-1, 1] of every ray, tail and arc panel:
# the values of numpy.polynomial.legendre.leggauss(8), written out
GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                 -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                 0.7966664774136267, 0.9602898564975362])
GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                 0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                 0.22238103445337443, 0.10122853629037706])


def _gauss_legendre_panels(a: float, b: float, panels: int):
    """Nodes and weights of `panels` equal 8-point Gauss-Legendre panels on
    [a, b], panel by panel."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * GL_X[None, :]).ravel(),
            (half[:, None] * GL_W[None, :]).ravel())


def _log_radius_panels(spec: ProblemSpec, lnT: float, s_lo: float, s_hi: float):
    """Nodes and weights of Gauss-Legendre panels on [s_lo, s_hi] in log
    radius for the kernel at T = eps t with ln|T| = lnT: at least four, each
    at most one kernel width 1/sqrt(2a) and one period 2 pi/rate of its
    fastest chirp, rate = 2a max|s - lnT| + 1 with a = k/(2 ln q)."""
    a = 0.5 * spec.k / spec.lnq
    rate = 2.0 * a * max(abs(s_lo - lnT), abs(s_hi - lnT)) + 1.0
    width = min(2.0 * math.pi / rate, 1.0 / math.sqrt(2.0 * a), s_hi - s_lo)
    return _gauss_legendre_panels(s_lo, s_hi, max(4, math.ceil((s_hi - s_lo) / width)))


def _cached_pair(compute):
    """Cache a LogSolution method's (w_0, w_1) vector pair under its exact
    arguments, in the solution's one store, which is cleared once it holds
    PAIR_CACHE_LIMIT pairs."""
    @functools.wraps(compute)
    def cached(self, *args):
        key = (compute.__name__, *args)
        pair = self._pairs.get(key)
        if pair is None:
            if len(self._pairs) >= PAIR_CACHE_LIMIT:
                self._pairs.clear()
            pair = self._pairs[key] = compute(self, *args)
        return pair
    return cached


@dataclass
class LogSolution:
    """Evaluable pair (u_0, u_1) attached to one Borel direction.

    w0 and w1 are the Borel densities omega_0 and omega_1 as stacked
    (n_nodes + 1, n_m) arrays on the grid: the node samples w[:-1], then the
    centre tau = 0 in the last row.

    The q-Laplace part of a component depends on eps t alone; z and d/dz
    multipliers enter only through the Fourier sum over m.  Every vector that
    depends on eps t is therefore computed once per exact T = eps t, for both
    components at once, and reused for every z and multiplier.

    `taylor` holds the Taylor coefficients of (omega_0, omega_1) at tau = 0,
    summed to the radius of the line's Taylor rung (`BorelGrid.taylor_rung`),
    as `borel_solver.solve_held` takes them; they are the densities of every
    component below that rung.  When the line's top is its Taylor rung, every
    row is their sum, and the q-Laplace transform is summed from them in
    closed form; the arc of a sector difference, which they do not reach, is
    then refused (UsageError).  Otherwise a component is the ray through the
    kernel window up to the Taylor rung (the arc rung), which sums them at
    its quadrature nodes, plus the ray tail above it, which reads the line's
    rows from TAIL_REACH rungs below the arc rung; the arc sums them at its
    quadrature nodes too (`SolutionFamily` passes its expansion at eps).
    """

    spec: ProblemSpec
    grid: BorelGrid
    w0: np.ndarray
    w1: np.ndarray
    eps: complex
    taylor: np.ndarray = field(repr=False, compare=False)
    Delta: float
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def direction(self) -> float:
        return self.grid.direction

    @property
    def r1(self) -> float:
        return admissible_r1(self.spec.q, self.spec.k, self.spec.alpha)

    @property
    def _taylor_line(self) -> bool:
        """Whether every row of the line is summed from `taylor`: its top
        is its Taylor rung."""
        return self.grid.taylor_rung() == self.grid.g_hi

    def _taylor_sum(self, moments: np.ndarray):
        """sum_n moments_n c_(j,n) over m for j = 0, 1: a kernel integral of
        the Taylor series `taylor` whose moments of tau^n are moments_n."""
        return tuple(moments @ c for c in self.taylor)

    def _taylor_path(self, u: np.ndarray, weights: np.ndarray):
        """`_taylor_sum` of a quadrature with nodes u and kernel weights:
        its moments of tau^n are weights @ u^n."""
        return self._taylor_sum(weights @ np.vander(u, self.taylor.shape[1], increasing=True))

    @_cached_pair
    def _laplace_all_m(self, T: complex):
        """q-Laplace of (w_0, w_1)(., m) at T along the grid's line, for
        every m.  On a Taylor line it is sum_n q^(n(n-1)/2k) T^n c_(j,n);
        otherwise it is the ray up to the Taylor rung plus the tail above."""
        if self._taylor_line:
            n = np.arange(self.taylor.shape[1])
            return self._taylor_sum(T ** n / self.spec.q_power_factor(n))
        return tuple(r + t for r, t in zip(self._ray_integral(T),
                                           self._tail_integral(T, self.grid.taylor_rung())))

    def _ray_integral(self, T: complex):
        """q-Laplace of the Taylor series `taylor` along the line's direction,
        restricted to the kernel window |s - ln|T|| <= sqrt(KERNEL_DROP/a),
        a = k/(2 ln q), below the line's Taylor rung, for every m:
        Gauss-Legendre panels in log radius (`_log_radius_panels`), whose
        kernel moments the series sums.  A window wholly above the rung
        gives zero."""
        spec = self.spec
        lnT = math.log(abs(T))
        half = math.sqrt(2.0 * KERNEL_DROP * spec.lnq / spec.k)
        s_hi = min(math.log(self.grid.radius_of_rung(self.grid.taylor_rung())), lnT + half)
        if s_hi <= lnT - half:
            zero = np.zeros(self.grid.m.size, dtype=complex)
            return zero, zero.copy()
        s, wq = _log_radius_panels(spec, lnT, lnT - half, s_hi)
        u = np.exp(s + 1j * self.grid.direction)
        weights = (spec.k / spec.lnq) * wq * inv_theta(u / T, spec.q, spec.k)
        return self._taylor_path(u, weights)

    @_cached_pair
    def _tail_integral(self, T: complex, g_arc: int):
        """q-Laplace of (w_0, w_1) restricted to the ray part
        r >= rho q^(g_arc/N), for every m.

        Far above the kernel peak the integrand chirps faster than the stored
        ladder resolves, so the tail is integrated on Gauss-Legendre panels
        sized to the local oscillation rate (`_log_radius_panels`), with the
        smooth density interpolated along the line by a 6-point stencil.
        Both components share the panels and the kernel.
        """
        spec, grid = self.spec, self.grid
        if g_arc - TAIL_REACH < grid.g_lo:
            raise UsageError(f"the tail stencil reads rung {g_arc - TAIL_REACH}, below "
                             f"the line's bottom rung {grid.g_lo}")
        s_end, g_top = tail_reach(spec, grid, g_arc, T)
        if g_top > grid.g_hi:
            raise DomainError(
                f"the ray tail at |eps t| = {abs(T):.4g} reads rung {g_top}, above the "
                f"line's top rung {grid.g_hi}; the line serves |eps t| up to "
                f"T_max = {grid.T_max:.4g}")
        h = spec.lnq / grid.N
        s0 = math.log(grid.radius_of_rung(g_arc))
        s, wq = _log_radius_panels(spec, math.log(abs(T)), s0, s_end)
        # 6-point Lagrange interpolation of the density in log radius
        base = np.floor((s - s0) / h).astype(int) + (g_arc - grid.g_lo) - TAIL_REACH
        s_base = math.log(grid.radius_of_rung(grid.g_lo)) + base * h
        xi = (s - s_base) / h
        lags = []
        for jj in range(6):
            lag = np.ones(s.size)
            for kk in range(6):
                if kk != jj:
                    lag *= (xi - kk) / (jj - kk)
            lags.append(lag)
        u = np.exp(s + 1j * grid.direction)
        weights = wq * inv_theta(u / T, spec.q, spec.k)
        # each node's weight times its stencil, summed per row read
        lo = int(base.min())
        rows = np.zeros(int(base.max()) + 6 - lo, dtype=complex)
        for jj, lag in enumerate(lags):
            np.add.at(rows, base - lo + jj, weights * lag)
        return tuple((spec.k / spec.lnq) * (rows @ w[lo:lo + rows.size])
                     for w in (self.w0, self.w1))

    @_cached_pair
    def _arc_integral(self, d_b: float, T: complex, g_arc: int):
        """Kernel integral of (w_0, w_1) over the arc of radius
        rho q^(g_arc/N) from this solution's direction to d_b, for every m.
        The densities on the arc are the Taylor series `taylor`, summed at
        the quadrature nodes as moments of the kernel weights; both
        components share the panels and the kernel."""
        spec, grid = self.spec, self.grid
        d_a = self.direction
        if d_a == d_b:
            zero = np.zeros(grid.m.size, dtype=complex)
            return zero, zero.copy()
        if self._taylor_line:
            raise UsageError("a sector difference reads the Taylor coefficients at "
                             "tau = 0 on its arc, and this solution's are summed only "
                             "to its line's top, below the arc rung")
        r_arc = grid.radius_of_rung(g_arc)
        # Gauss-Legendre panels, roughly one per kernel oscillation
        osc_freq = spec.k * abs(math.log(r_arc / abs(T))) / spec.lnq + ARC_PANEL_FREQ
        panels = max(6, math.ceil(abs(d_b - d_a) * osc_freq / (2 * math.pi)) * 2)
        thetas, twt = _gauss_legendre_panels(d_a, d_b, panels)
        u = r_arc * np.exp(1j * thetas)
        weights = (spec.k / spec.lnq) * 1j * twt * inv_theta(u / T, spec.q, spec.k)
        return self._taylor_path(u, weights)

    def checked_T(self, t: complex, z: complex) -> complex:
        """T = eps t, after the checks every evaluation at (t, z) makes: z
        lies in the strip, T is admissible and |T| does not pass the top
        T_max of the range that the grid's line serves."""
        if abs(complex(z).imag) > self.spec.beta_prime:
            raise DomainError(
                f"|Im z| = {abs(complex(z).imag):.4g} leaves the strip "
                f"beta' = {self.spec.beta_prime}")
        T = self.eps * complex(t)
        check_admissible(T, self.direction, self.Delta, self.r1)
        if abs(T) > self.grid.T_max:
            raise DomainError(
                f"|eps t| = {abs(T):.4g} lies outside (0, {self.grid.T_max:.4g}], the "
                "range the Borel grid's line serves (grid T_max)")
        return T

    def laplace_pair(self, t: complex, z: complex):
        """(L_0, L_1), the q-Laplace vectors over m of both components at
        T = eps t, after the checks of `checked_T`."""
        return self._laplace_all_m(self.checked_T(t, z))

    def component(self, j: int, t: complex, z: complex,
                  multiplier=None) -> complex:
        """u_j(t, z, eps), optionally with a polynomial of d/dz applied.

        The multiplier acts as the Fourier factor poly(i m) inside the
        m-integral.
        """
        if j not in (0, 1):
            raise DomainError("component index must be 0 or 1")
        lap = self.laplace_pair(t, z)[j]
        m = self.grid.m
        if multiplier is not None:
            lap = lap * polyval_im(multiplier, m)
        return inverse_fourier(lap, complex(z), m)

    def evaluate_points(self, points) -> list[tuple[complex, complex, complex]]:
        """`evaluate_parts` at every (t, z) of points, in order.

        Every point's checks run first, in input order, so the first bad
        point names the error.  Then the points that share an exact t share
        one Laplace pair and one Fourier pass over all their z.
        """
        points = [(complex(t), complex(z)) for t, z in points]
        for t, z in points:
            if abs(math.remainder(cmath.phase(self.eps * t) - math.pi, 2 * math.pi)) < 1e-9:
                raise DomainError("eps * t lies on the branch cut (-inf, 0]")
            self.checked_T(t, z)
        parts = [None] * len(points)
        for t, (index, zs) in _by_t(points).items():
            T = self.eps * t
            sums = inverse_fourier(np.array(self._laplace_all_m(T)), zs, self.grid.m)
            for i, (u0, u1) in zip(index, sums.tolist()):
                parts[i] = u0, u1, u0 + u1 * cmath.log(T) / self.spec.lnq
        return parts

    def evaluate_parts(self, t: complex, z: complex) -> tuple[complex, complex, complex]:
        """(u_0, u_1, u) with u = u_0 + u_1 log(eps t)/log q on the principal
        branch of the log; both components come from one Fourier sum."""
        return self.evaluate_points([(t, z)])[0]

    def evaluate(self, t: complex, z: complex) -> complex:
        """u_0 + u_1 log(eps t)/log q with the principal branch of the log."""
        return self.evaluate_parts(t, z)[2]


def _by_t(points) -> dict:
    """t -> (indices, z array) of the (t, z) points sharing that exact t, in
    order of first appearance."""
    groups = {}
    for i, (t, z) in enumerate(points):
        index, zs = groups.setdefault(t, ([], []))
        index.append(i)
        zs.append(z)
    return {t: (index, np.array(zs)) for t, (index, zs) in groups.items()}


def residual_borel(w0: np.ndarray, w1: np.ndarray, spec: ProblemSpec,
                   eps: complex, grid: BorelGrid) -> float:
    """Weighted norm of the defect of the two convolution equations,
    assembled in un-divided form Q(im) omega_j - RHS_j, for the stacked
    samples w0 and w1 on grid, streamed block by block
    (`SolverContext.undivided_residual`)."""
    return SolverContext(spec, grid, eps).undivided_residual(w0, w1,
                                                             grid.stacked_weights(spec))


def residual_physical(sol: LogSolution, spec: ProblemSpec, points) -> np.ndarray:
    """Defect max(|eq_0|, |eq_1|) of the two split equations at each (t, z)
    point, as an array over the points.

    d/dz acts as the Fourier multiplier inside the component integrals;
    dilations re-evaluate the components at q^r t.  All dilated points must
    stay inside the admissible domain; every point's checks run first, in
    input order.  The multipliers and the coefficient and forcing symbols
    are sampled once per call.  Per distinct t, the Laplace pairs times
    their multipliers and the symbol samples are stacked once and
    Fourier-summed together, in one pass over the z of its points.
    """
    eps = sol.eps
    m = sol.grid.m
    qdk = spec.q ** (spec.dD / spec.k)
    n_terms = len(spec.terms)
    b_keys = list(spec.coeffs.b)
    forcing = [(h, p, sym) for h in (0, 1) for p, sym in spec.forcing.powers(h).items()]
    symbols = ([term.C for term in spec.terms] + [spec.coeffs.b[jk] for jk in b_keys]
               + [sym for _, _, sym in forcing])
    samples = np.array([sym(m, eps) for sym in symbols], dtype=complex).reshape(-1, m.size)
    # the pair at t under Q, then each dilated pair under its multiplier
    q_mult = polyval_im(spec.Q, m)
    dilated = [(qdk, polyval_im(spec.RD, m))] + [
        (spec.q ** float(term.delta), polyval_im(term.R, m)) for term in spec.terms]
    n_lap = 4 + 2 * len(dilated)
    points = [(complex(t), complex(z)) for t, z in points]
    for t, z in points:
        sol.checked_T(t, z)
        for r, _ in dilated:
            sol.checked_T(r * t, z)
    defects = np.zeros(len(points))
    for t, (index, zs) in _by_t(points).items():
        T = eps * t
        lap = np.array(sol._laplace_all_m(T))
        stack = [lap, lap * q_mult]
        stack += [np.array(sol._laplace_all_m(eps * (r * t))) * mult for r, mult in dilated]
        for i, vals in zip(index, inverse_fourier(np.concatenate(stack + [samples]), zs, m)):
            u0, u1, lhs0, lhs1, rd0, rd1, *term_vals = vals[:n_lap].tolist()
            sym_vals = vals[n_lap:]
            b = dict(zip(b_keys, sym_vals[n_terms:n_terms + len(b_keys)]))
            rhs0 = T ** spec.dD * (rd0 + (spec.dD / spec.k) * rd1)
            rhs1 = T ** spec.dD * rd1
            for l, (term, c_val) in enumerate(zip(spec.terms, sym_vals[:n_terms])):
                pref = eps ** term.Delta * t ** term.d * c_val
                r0, r1 = term_vals[2 * l:2 * l + 2]
                rhs0 += pref * (r0 + float(term.delta) * r1)
                rhs1 += pref * r1
            forced = [0.0 + 0.0j, 0.0 + 0.0j]
            for (h, p, _), F in zip(forcing, sym_vals[n_terms + len(b_keys):]):
                forced[h] += F * (spec.q ** (1.0 / spec.k)) ** (p * (p - 1) / 2.0) * T ** p
            rhs0 += forced[0] + b[(0, 0)] * u0 + b[(1, 0)] * u1
            rhs1 += forced[1] + b[(0, 1)] * u0 + b[(1, 1)] * u1
            defects[i] = max(abs(lhs0 - rhs0), abs(lhs1 - rhs1))
    return defects


def difference_arc_rung(spec: ProblemSpec, grid_a: BorelGrid, grid_b: BorelGrid,
                        T: complex, Delta: float, r1: float) -> int:
    """Ladder rung of the arc that deforms the direction of grid_a into that
    of grid_b at T = eps t, after every domain check the difference makes.

    The checks depend on T and the two grids alone, so a caller can reject an
    eps before solving for it: the grids must share the ladder, T must be
    admissible for both directions, |T| may not pass either grid's T_max,
    up to which `SolutionFamily`'s lines carry the ray tails, and no kernel
    zero ring may lie near the arc circle.  That last rejection raises
    ZeroRingError, the one a small move of eps mends.
    """
    if grid_a.N != grid_b.N or grid_a.rho != grid_b.rho:
        raise DomainError("solutions must share the ladder geometry")
    for grid in (grid_a, grid_b):
        check_admissible(T, grid.direction, Delta, r1)
        if abs(T) > grid.T_max:
            raise DomainError(f"|eps t| = {abs(T):.4g} lies above the grid's T_max = "
                              f"{grid.T_max:.4g}, beyond the ray tails it carries")
    d_a, d_b = grid_a.direction, grid_b.direction
    g_arc = grid_a.arc_rung()

    # when the zero ray arg(-T) lies in the wedge that the arc sweeps (the
    # short way), refuse an arc radius within 10% of a lattice step of a zero
    # ring |T| q^(m/k).  That keeps the arc off the poles of 1/theta only: the
    # sweep through the zero ray is a defect, missing the residues of the
    # poles inside the arc (ROADMAP item 1(b))
    zero_dir = math.remainder(cmath.phase(-T), 2 * math.pi)
    lo, hi = min(d_a, d_b), max(d_a, d_b)
    in_wedge = any(lo <= zero_dir + 2 * math.pi * s <= hi for s in (-1, 0, 1))
    if in_wedge:
        frac = (math.log(grid_a.radius_of_rung(g_arc) / abs(T)) * spec.k / spec.lnq) % 1.0
        if min(frac, 1.0 - frac) < 0.1:
            raise ZeroRingError(
                "arc radius passes within 10% of a kernel zero ring; "
                "perturb |eps t| to move the zero lattice")
    return g_arc


def solution_difference(sol_a: LogSolution, sol_b: LogSolution, j: int,
                        t: complex, z: complex) -> complex:
    """u_{j,b} - u_{j,a} evaluated by contour deformation.

    The two Borel densities coincide on the shared disc, so the difference is
    the pair of ray tails beyond the arc radius plus the arc integral at that
    radius.  The tails read the two principal lines; the arc reads the
    Taylor series of the densities at tau = 0.  Each piece is exponentially
    small in log^2|eps t|; computing them directly preserves relative
    accuracy long after a plain subtraction of the two evaluations would
    drown in cancellation noise.  The tails and the arc do not depend on z
    and are cached per exact eps t, so further z probes cost one Fourier sum
    each.  The arc is taken first, so a solution whose Taylor coefficients
    do not reach it is refused (UsageError) before any integral.
    """
    T = sol_a.eps * complex(t)
    g_arc = difference_arc_rung(sol_a.spec, sol_a.grid, sol_b.grid, T,
                                sol_a.Delta, sol_a.r1)
    arc = sol_a._arc_integral(sol_b.direction, T, g_arc)[j]
    total = sol_b._tail_integral(T, g_arc)[j] + arc - sol_a._tail_integral(T, g_arc)[j]
    return inverse_fourier(total, complex(z), sol_a.grid.m)
