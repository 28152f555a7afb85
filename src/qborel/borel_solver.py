"""Discretised Borel-plane operators and the Picard fixed point.

The (tau, m) grid is one radial line through the origin, anchored to a
geometric ladder rho * q^(g/N) with integer rungs g, plus the centre
tau = 0.  N is a multiple of every dilation denominator, so the dilations
tau -> q^(delta - d/k) tau shift rungs exactly and never interpolate, except
below the bottom rung where a quadratic through the centre value is used.
`build_grid`'s line runs along the Borel direction d over the radii where
the kernel envelope of the q-Laplace transform is alive for some T = eps t
with T_max/1000 <= |T| <= T_max; the whole-line fixed point of `solve`
lives there.  Below the Taylor rung a component reads the Taylor series at
tau = 0 rather than rows (`solution_assembly.LogSolution`), so a line of
solutions needs its rows only from the held block up.  Every dilation shift
is positive, so a rung reads only lower rungs and the centre, and a line
cut at any top rung solves its rows as a longer line does, to within the
stopping rule; a range of the ladder cut from below solves alike once its
lowest rows are held (`BorelGrid.rung_range`, `held` of the solves).
Coupling in m is a dense kernel matrix per symbol, built once per m grid
from the symbol's m part (`SymbolKernels`): a symbol is its m part times a
polynomial in eps, which enters every operator as a scalar.  Coupling in tau
is the pure rung shift.

Inside the disc omega_j(tau, m) is a power series in tau.  Its Taylor
coefficients at tau = 0 solve the same fixed point written in monomials, one
order at a time (`TaylorRecursion`, summed by `taylor_at_origin`).  Within
an order only the b symbols couple, through a block that is the same for
every order: each order is one Picard run, or, where many expansions
share a block whose b symbols do not depend on eps (a `SolutionFamily`),
one solve of the block inverted once (`OrderBlock`).  Several eps expand in
one recursion whose eps axis holds them, so each order's kernel products and
block solve serve every sample (`TaylorExpansions`).
`solve_held` is the one solve path of every `LogSolution`: it sums a line's
rows up to its Taylor rung (`BorelGrid.taylor_rung`: the arc rung, about
rho/2, or the line's top if lower) from them and runs Picard only on the
rows above, holding just the summed rungs those read, one largest dilation
shift (`held_bottom`); on a line that ends below the arc rung it runs no
Picard at all.
`solve_coupled` on a whole line remains the paper's fixed point, which the
`solve` verb writes out.  With coefficients that are truncated eps-series,
the same recursion gives the formal series (`formal_asymptotics`).  Every
Picard run, a Borel solve or a Taylor order alike, starts from zero and
stops by one rule (`_picard`), relative to its first iterate's size.  A
Borel solve's iterates ping-pong between two preallocated buffers
(`_ping_pong`), so a sweep allocates no whole-line array.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    "moved_part",
    "SolveReport",
    "radial_envelope_log",
    "build_grid",
    "rung_shifts",
    "SymbolKernels",
    "apply_kernel",
    "term_scalars",
    "b_scalars",
    "SolverContext",
    "solve_coupled",
    "solve_triangular",
    "held_bottom",
    "solve_held",
    "contraction_bound",
    "OrderBlock",
    "TaylorRecursion",
    "TaylorExpansions",
    "taylor_at_origin",
    "taylor_values",
]


@dataclass(frozen=True)
class GridSpec:
    """Resolution controls for the Borel-plane grid: the Fourier grid of
    m_nodes points (odd, >= 3) on [-m_max, m_max], the top T_max of the
    |eps t| range that its line serves and the ladder's density factor.  The
    arc of a sector difference reads no grid rows: it sums the Taylor series
    at tau = 0 at its own quadrature nodes."""

    m_max: float
    m_nodes: int
    density_factor: float
    T_max: float | None = None

    def __post_init__(self):
        if self.m_nodes % 2 == 0:
            raise ConfigError(f"m_nodes = {self.m_nodes} must be odd")

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
    # the top of the |eps t| range whose q-Laplace transform the line serves
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
        per grid for the last spec asked for).  `solve_held` reads those of
        its Picard range, which its line keeps (`rung_range`), so every
        solve on the range shares one build; any other solve's
        `SolverContext` builds its own, which go with it."""
        cached = getattr(self, "_factors", None)
        if cached is None or cached[0] is not spec:
            self._factors = (spec, OperatorFactors.build(spec, self))
        return self._factors[1]

    def arc_rung(self) -> int:
        """The rung nearest rho/2, where sector differences take their arc."""
        return math.floor(self.N * math.log(0.5) / math.log(self.spec_q))

    def taylor_rung(self) -> int:
        """The top rung of the line's rows that are Taylor sums at tau = 0:
        the arc rung, or the line's top where that is lower.  The Taylor
        coefficients of a solution on the line are summed to its radius."""
        return min(self.g_hi, self.arc_rung())

    def rung_range(self, g_lo: int, g_hi: int) -> "BorelGrid":
        """Rungs g_lo..g_hi of the same ladder and direction, with the same
        m grid and T_max.

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

    def apply(self, data: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """The dilated copy of stacked samples data, (n_nodes + 1, n_m), on
        the stacked rows `rows` (a slice of step 1; all by default): a
        block's rows are those of the whole copy, bit for bit."""
        out = data[self.src[rows]]
        # column j of coef is output row j: the columns of the rows kept
        start = rows.indices(self.src.size)[0]
        c0, c1, c2 = self.coef[:, start:start + out.shape[0], None]
        if c0.size:
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


def moved_part(spec: ProblemSpec, tau: np.ndarray, m: np.ndarray) -> np.ndarray:
    """q^(...) R_D(im) tau^dD at the stacked points tau, (tau.size, n_m):
    the part of the right side that the fixed point moves to the left."""
    return spec.q_power_factor(spec.dD) * polyval_im(spec.RD, m)[None, :] \
        * (tau ** spec.dD)[:, None]


@dataclass(frozen=True)
class OperatorFactors:
    """Factors of the Borel operator that do not depend on eps, on the
    stacked rows (nodes, then the centre tau = 0), or on a block of them.
    Every row of a factor is elementwise in its tau, so a block's factors
    are those rows of the whole line's, bit for bit; the dilations gather
    from the whole line either way."""

    inv_p: np.ndarray            # 1 / P_m(tau)
    hp: np.ndarray               # (dD/k) q^(...) R_D(im) tau^dD
    q_im: np.ndarray             # Q(im), (n_m,)
    shifts: tuple                # rung shift of each term
    prefs: tuple                 # q^(...) tau^d_l of each term, (n_nodes + 1, 1)
    dilations: tuple             # Dilation of each term

    @classmethod
    def build(cls, spec: ProblemSpec, grid: BorelGrid,
              rows: slice = slice(None)) -> "OperatorFactors":
        """The factors on the stacked rows `rows` of grid (all by default)."""
        m = grid.m
        tau = grid.stacked_tau[rows]
        shifts = rung_shifts(spec, grid.N)
        return cls(inv_p=1.0 / spec.pm(tau, m),
                   hp=(spec.dD / spec.k) * moved_part(spec, tau, m), q_im=polyval_im(spec.Q, m),
                   shifts=shifts,
                   prefs=tuple(spec.q_power_factor(t.d) * (tau ** t.d)[:, None]
                               for t in spec.terms),
                   dilations=tuple(grid.dilation(s) for s in shifts))

    def rows(self, rows: slice) -> "OperatorFactors":
        """These factors on the stacked rows `rows` of theirs, as views."""
        return replace(self, inv_p=self.inv_p[rows], hp=self.hp[rows],
                       prefs=tuple(p[rows] for p in self.prefs))


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
               gspec: GridSpec) -> BorelGrid:
    """Assemble the radial line of one Borel direction up to |eps t| = T_max
    (by default rho/4): from the radius below which the q-Laplace integrand
    at T_max/1000 has fallen e^(-34.5) under its peak to the radius above
    which the integrand at T_max has.  The grid carries T_max, and
    `LogSolution` refuses any T above it; below the Taylor rung a component
    reads the Taylor series at tau = 0, not the line, so nothing smaller is
    refused."""
    N = _ladder_density(spec, gspec.density_factor)
    lnq = spec.lnq
    T_max = gspec.T_max if gspec.T_max is not None else 0.25 * geom.rho
    s_floor, s_top = _envelope_cutoffs(math.log(T_max / 1000.0), math.log(T_max),
                                       spec.k, spec.q, spec.alpha, geom.delta)
    g_floor = math.floor(N * (s_floor - math.log(geom.rho)) / lnq)
    g_top = math.ceil(N * (s_top - math.log(geom.rho)) / lnq)
    return BorelGrid(spec_q=spec.q, N=N, rho=geom.rho, delta=geom.delta,
                     direction=geom.d, m=gspec.m_grid(), g_lo=g_floor, g_hi=g_top,
                     T_max=T_max)


def _real_if_exact(K: np.ndarray) -> np.ndarray:
    """K as a float64 array when its imaginary part is exactly zero, else K."""
    if np.iscomplexobj(K) and not K.imag.any():
        return np.ascontiguousarray(K.real)
    return K


# data rows per real GEMM of apply_kernel: one chunk's transposed copy is the
# product's only temporary, however long the line.  The passes of
# SolverContext walk a line in blocks of as many stacked rows, so that each
# block's kernel products are the GEMMs of one chunk
KERNEL_ROWS = 64


def _row_blocks(n: int) -> list:
    """The slices of KERNEL_ROWS rows, the last one shorter, that cover n rows."""
    return [slice(start, start + KERNEL_ROWS) for start in range(0, n, KERNEL_ROWS)]


def apply_kernel(data: np.ndarray, K: np.ndarray) -> np.ndarray:
    """data @ K.T over data's last axis: the one product of every kernel
    (`SymbolKernels`, `OrderBlock`'s inverses) with samples over m.

    A complex K, or real data, takes that product as it is.  A real K on
    complex data takes real GEMMs, K times the real and imaginary parts of
    KERNEL_ROWS rows of data at a time: a chunk's transpose, read as float64,
    interleaves the two parts, and the product is written, read as complex,
    into the transpose of the result.  They need half the flops of the
    complex product and read K at half the bytes.  The result is then a
    transposed (column-major) array."""
    if np.iscomplexobj(K) or not np.iscomplexobj(data):
        return data @ K.T
    rows = data.reshape(-1, data.shape[-1])
    out_t = np.empty((K.shape[0], rows.shape[0]), dtype=complex)
    for chunk in _row_blocks(rows.shape[0]):
        # K on the left: with the data on the left, OpenBLAS summed a row
        # differently as the row count changed, even at the 25 to 30 rows of
        # a family's Picard range, so rows that solves on different rung
        # ranges share lost their bit identity
        np.matmul(K, np.ascontiguousarray(rows[chunk].T).view(float),
                  out=out_t[:, chunk].view(float))
    return out_t.T.reshape(data.shape[:-1] + K.shape[:1])


@dataclass(frozen=True)
class SymbolKernels:
    """The convolution kernels of spec's symbols on one m grid, built from
    the symbols' m parts alone: one per dilation term, with its R_l(i m)
    factor, and one per b symbol keyed (j, eq), None where the symbol
    vanishes.  A `FourierSymbol` is its m part times a polynomial in eps, so
    eps enters every operator as a scalar (`term_scalars`, `b_scalars`).  A
    kernel whose imaginary part is exactly zero, as that of an even real m
    part with a real R_l(i m) is, is stored as float64 (`_real_if_exact`);
    every kernel is applied by `apply_kernel`."""

    terms: tuple
    b: dict

    @classmethod
    def of(cls, spec: ProblemSpec, m: np.ndarray) -> "SymbolKernels":
        """The kernels of spec on the m grid, built once per m grid: kept on
        spec for the last m grid asked for."""
        m = np.asarray(m, dtype=float)
        cached = getattr(spec, "_symbol_kernels", None)
        if cached is None or cached[0] != m.tobytes():
            spec._symbol_kernels = (m.tobytes(), cls.build(spec, m))
        return spec._symbol_kernels[1]

    @classmethod
    def build(cls, spec: ProblemSpec, m: np.ndarray) -> "SymbolKernels":
        return cls(terms=tuple(_real_if_exact(convolution_kernel(t.C.m_part, m, t.R))
                               for t in spec.terms),
                   b={jk: None if sym.is_zero()
                      else _real_if_exact(convolution_kernel(sym.m_part, m, [1.0]))
                      for jk, sym in spec.coeffs.b.items()})


def term_scalars(spec: ProblemSpec, eps: complex) -> list:
    """eps^(Delta_l - d_l) c_l(eps) of each dilation term: its operator's
    scalar at eps over `SymbolKernels.terms`."""
    return [eps ** (t.Delta - t.d) * t.C.eps_factor(eps) for t in spec.terms]


def b_scalars(spec: ProblemSpec, eps: complex) -> dict:
    """(j, eq) -> b_(j,eq)'s eps polynomial at eps, for every b symbol that
    does not vanish: its scalar over `SymbolKernels.b`."""
    return {jk: sym.eps_factor(eps) for jk, sym in spec.coeffs.b.items()
            if not sym.is_zero()}


class SolverContext:
    """The operators of one (grid, eps): the forcing at eps and the eps
    scalars of the terms and b symbols, over the grid's eps-independent
    OperatorFactors and the SymbolKernels of its m grid.

    The coupled map of (omega_0, omega_1) is written once, in `_block`, as
    what each unknown adds to the right side of each equation before the
    division by P, on one block of stacked rows.  Every operator is a
    selection from it: which unknowns and equations, whether the forcing or
    the moved R_D tau^dD term is added, and whether the sum is divided by
    P.  Each unknown and each image is a stacked complex array (n_nodes + 1,
    n_m): the node samples, then the centre tau = 0 in the last row.  An
    operator writes its images into the arrays `out` that the caller gives,
    which must not overlap its inputs, or into new ones.

    A pass walks the line in blocks of KERNEL_ROWS stacked rows, so its
    temporaries are those of one block, however long the line.  The
    operators of the Picard solves read whole-line factors and the forcing,
    which every sweep reads, built on first use: the factors are `fac` when
    the caller holds them (`BorelGrid.factors`), else the context's own,
    which go with it.  `undivided_residual` builds its factors and forcing
    block by block and caches nothing.
    """

    def __init__(self, spec: ProblemSpec, grid: BorelGrid, eps: complex,
                 fac: OperatorFactors | None = None):
        if eps == 0:
            raise UsageError("the fixed point is defined for eps != 0")
        self.spec = spec
        self.grid = grid
        self.eps = complex(eps)
        if fac is not None:
            self.fac = fac
        kernels = SymbolKernels.of(spec, grid.m)
        self.term_kernel, self.b_kernel = kernels.terms, kernels.b
        # each term's eps scalar, which its tau^d_l prefactor multiplies
        self.term_eps = term_scalars(spec, self.eps)
        self.b_scale = b_scalars(spec, self.eps)

    @cached_property
    def fac(self) -> OperatorFactors:
        """The whole-line OperatorFactors of spec on the grid."""
        return OperatorFactors.build(self.spec, self.grid)

    @cached_property
    def F(self) -> list:
        """The forcing of each equation on the stacked rows."""
        return [forcing_borel(self.spec, h, self.grid.stacked_tau, self.grid.m, self.eps)
                for h in (0, 1)]

    @cached_property
    def term_scale(self) -> list:
        """Each term's tau^d_l prefactor times its eps scalar, (n_nodes + 1, 1)."""
        return self._term_scale(self.fac)

    def _term_scale(self, fac: OperatorFactors) -> list:
        return [scalar * pref for scalar, pref in zip(self.term_eps, fac.prefs)]

    def empty(self) -> np.ndarray:
        """An uninitialised stacked complex array of the grid."""
        return np.empty((self.grid.n_nodes + 1, self.grid.m.size), dtype=complex)

    def zero(self) -> np.ndarray:
        """The zero start of a Picard run on the grid: a zero-strided view
        of one zero, so that it allocates nothing."""
        return np.broadcast_to(np.zeros((), dtype=complex),
                               (self.grid.n_nodes + 1, self.grid.m.size))

    def modulus(self) -> "SolverContext":
        """A copy whose every factor is its modulus: |inv_p|, |hp|, the
        |term and b scalars|, the |kernels| and each dilation's gather with
        |coef|, and no forcing.  On nonnegative data its `_contributions`
        bound entrywise those of self on data of that modulus."""
        fac = self.fac
        out = copy.copy(self)
        out.fac = replace(fac, inv_p=np.abs(fac.inv_p), hp=np.abs(fac.hp),
                          dilations=tuple(replace(d, coef=np.abs(d.coef))
                                          for d in fac.dilations))
        out.term_kernel = tuple(np.abs(K) for K in self.term_kernel)
        out.b_kernel = {jk: None if K is None else np.abs(K) for jk, K in self.b_kernel.items()}
        out.term_scale = [np.abs(s) for s in self.term_scale]
        out.b_scale = {jk: abs(s) for jk, s in self.b_scale.items()}
        out.F = None
        return out

    def _block(self, unknowns: dict, rows: slice, accs: dict, fac: OperatorFactors,
               term_scale: list) -> dict:
        """Add in place to accs[eq], for each equation eq in accs, what the
        unknowns {j: stacked samples of omega_j} add on the stacked rows
        `rows` to the right side of equation eq before the division by P.
        fac and term_scale are the factors on those rows.  An accumulator
        given as None takes the first part as its buffer.

        omega_j enters equation j through every term H_l, and omega_1 also
        enters equation 0 through delta_l H_l and the HP term, so each
        H_l(omega_j) is computed once and read by every equation that needs
        it.  The b symbol (j, eq) adds its eps scalar times omega_j K_b^T.
        Every kernel product is an `apply_kernel`.  A spec has at least one
        term (D >= 2), so every accumulator a caller asks for gets filled.
        """
        def add(eq, part):
            if accs[eq] is None:
                accs[eq] = part
            else:
                accs[eq] += part

        for source, data in unknowns.items():
            cross = source == 1 and 0 in accs
            if cross:
                add(0, fac.hp * data[rows])
            for ell, (t, scale) in enumerate(zip(self.spec.terms, term_scale)):
                h = apply_kernel(fac.dilations[ell].apply(data, rows), self.term_kernel[ell])
                h *= scale
                if cross:
                    add(0, float(t.delta) * h)
                if source in accs:
                    add(source, h)
            for eq in accs:
                K = self.b_kernel[(source, eq)]
                if K is not None:
                    scale = self.b_scale[(source, eq)]
                    part = apply_kernel(data[rows], K)
                    if scale != 1:
                        part *= scale
                    add(eq, part)
        return accs

    def _contributions(self, unknowns: dict, out: dict) -> dict:
        """Write into out[eq], for each equation eq in out, what the
        unknowns {j: stacked samples of omega_j} add to the right side of
        equation eq before the division by P: one pass of `_block` per block
        of stacked rows, over the whole-line factors.  A block's rows of an
        unknown feed later blocks, so out must not overlap the unknowns."""
        for rows in _row_blocks(self.grid.n_nodes + 1):
            accs = self._block(unknowns, rows, dict.fromkeys(out), self.fac.rows(rows),
                               [s[rows] for s in self.term_scale])
            for eq, acc in accs.items():
                out[eq][rows] = acc
        return out

    def _forced(self, acc: np.ndarray, eq: int) -> np.ndarray:
        acc += self.F[eq]
        return acc

    def _divided(self, acc: np.ndarray) -> np.ndarray:
        acc *= self.fac.inv_p
        return acc

    # -- operators ------------------------------------------------------

    def image_of_zero(self, eq: int, out: np.ndarray | None = None) -> np.ndarray:
        """Equation eq's forcing over P: what apply_H and apply_H1 send zero
        to, without applying them, written into out when given."""
        return np.multiply(self.F[eq], self.fac.inv_p, out=out)

    def _images(self, unknowns: dict, out) -> tuple:
        """Both equations' images of unknowns, forced and divided by P,
        written into the pair out when given."""
        accs = self._contributions(unknowns, dict(enumerate(out or (self.empty(), self.empty()))))
        return tuple(self._divided(self._forced(accs[eq], eq)) for eq in (0, 1))

    def apply_H(self, w0: np.ndarray, w1: np.ndarray, out=None):
        return self._images({0: w0, 1: w1}, out)

    def undivided_residual(self, w0: np.ndarray, w1: np.ndarray, weights=None):
        """Q(im) omega_j minus the full right side, nodewise, with the
        q^(...) R_D tau^dD omega_j terms that the fixed point moves to the
        left put back: the two defects as stacked arrays, or, given the
        stacked weights, the larger of their weighted sups.

        It streams: each block of stacked rows takes its forcing from
        `forcing_borel` and its factors from `OperatorFactors.build` on the
        block's tau, bit for bit the rows of the whole line's, so it builds
        no whole-line forcing or factor and caches nothing on the grid.
        Given weights, it keeps a running max and builds no whole-line
        accumulator or defect either.
        """
        ws = (w0, w1)
        tau, m = self.grid.stacked_tau, self.grid.m
        out = None if weights is not None else [np.empty(w.shape, dtype=complex) for w in ws]
        sups = []
        for rows in _row_blocks(self.grid.n_nodes + 1):
            fac = OperatorFactors.build(self.spec, self.grid, rows)
            moved = moved_part(self.spec, tau[rows], m)
            accs = {}
            for eq, w in enumerate(ws):
                accs[eq] = forcing_borel(self.spec, eq, tau[rows], m, self.eps)
                accs[eq] += moved * w[rows]
            self._block({0: w0, 1: w1}, rows, accs, fac, self._term_scale(fac))
            for eq, w in enumerate(ws):
                defect = fac.q_im * w[rows]
                defect -= accs[eq]
                if out is None:
                    sups.append(_weighted_sup(defect, weights[rows]))
                else:
                    out[eq][rows] = defect
        return tuple(out) if out is not None else float(np.max(sups))

    # -- triangular blocks (b_01 = 0) -----------------------------------

    def apply_H1(self, w1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Equation 1, which reads omega_1 alone."""
        acc = self._contributions({1: w1}, {1: self.empty() if out is None else out})[1]
        return self._divided(self._forced(acc, 1))

    def g_eps(self, w1: np.ndarray, out=None):
        """(g, apply_H1(w1)): equation 0's forcing and omega_1 part, fixed
        once omega_1 is, and equation 1's image of omega_1, from one pass
        that computes each H_l(omega_1) once for both."""
        return self._images({1: w1}, out)

    def apply_H0(self, w0: np.ndarray, g: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Equation 0 with its omega_1 part and forcing given as g."""
        h0 = self._divided(self._contributions(
            {0: w0}, {0: self.empty() if out is None else out})[0])
        h0 += g
        return h0


# the stopping rule and the iteration cap of every Picard run (`_picard`)
PICARD_RTOL = 1e-12
PICARD_MAX_ITER = 200


def _picard(step, start, diff_norm, first):
    """Picard iteration of step from start, zero, whose image `first` the
    caller knows without applying step, until an update in diff_norm is at
    most PICARD_RTOL of the first, first's size: a zero right side stops at
    its first step.  The one fixed-point loop of the package: Borel solves
    and every eps power of every TaylorRecursion order run through it."""
    w = start
    history = []
    contraction = 0.0
    for it in range(1, PICARD_MAX_ITER + 1):
        if it == 1:
            # hand the first image over to w, so that no name here keeps it
            # alive once later iterates replace it
            w_next, first = first, None
        else:
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
        if update <= PICARD_RTOL * history[0]:
            return w, it, update, contraction, history
    raise DivergenceError(
        f"Picard iteration did not reach {PICARD_RTOL:g} of its first update in "
        f"{PICARD_MAX_ITER} iterations", history)


def _distance(weights: np.ndarray):
    """The weighted sup distance of two stacked sample arrays, as one
    reduction."""
    def dist(a: np.ndarray, b: np.ndarray) -> float:
        return _weighted_sup(a - b, weights)
    return dist


def _largest(values: list) -> float:
    """The largest of values, NaN when any is NaN: Python's max drops a NaN
    that does not come first, which every finiteness check would miss."""
    return float(np.max(values))


def _ping_pong(a, b):
    """The step buffer of a Picard run whose iterates alternate between the
    preallocated buffers a and b: given the iterate w, the one of them that
    does not hold it (a for the start), so each sweep writes over the
    iterate before w and a run allocates no iterate."""
    return lambda w: b if w is a else a


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
                         residual=_largest([dist(h, w) for h, w in zip(images, pair)]),
                         varpi=varpi,
                         update_history=sum(histories, []))
    return (*pair, report)


def solve_coupled(spec: ProblemSpec, eps: complex, grid: BorelGrid, held=None,
                  fac: OperatorFactors | None = None):
    """Picard iteration on the coupled map from (0, 0), whose first iterate
    is the forcing over P, in the weighted sup over the free rows.

    Convergence is guaranteed when the smallness budget of
    `geometry.check_smallness` holds; otherwise the solve still runs.
    `held` fixes the lowest rows of the line and the centre (see
    `_holding`), and the solve then updates, measures and reports the other
    rows only.  fac, the grid's factors of spec, is for a caller that holds
    them (`SolverContext`).  The iterates ping-pong between two preallocated
    pairs (`_ping_pong`), and the image of the last, which the report's
    residual reads, goes into the pair it leaves spare.
    """
    ctx = SolverContext(spec, grid, eps, fac)
    weights, hold = _holding(ctx, held)
    dist = _distance(weights)
    start = (ctx.zero(),) * 2
    spare = _ping_pong(*((ctx.empty(), ctx.empty()) for _ in range(2)))

    def pair_dist(a, b):
        return _largest([dist(a[0], b[0]), dist(a[1], b[1])])

    def step(pair):
        out = spare(pair)
        for j, h in enumerate(ctx.apply_H(*pair, out=out)):
            hold(h, j)
        return out

    first = spare(start)
    for j, w in enumerate(first):
        hold(ctx.image_of_zero(j, out=w), j)
    cf = _largest([_weighted_sup(w, weights) for w in first])
    pair, *run = _picard(step, start, pair_dist, first)
    varpi = 2.0 * cf / max(1e-12, 1.0 - run[2])
    return _solve_report(weights, dist, pair, ctx.apply_H(*pair, out=spare(pair)), [run],
                         varpi)


def solve_triangular(spec: ProblemSpec, eps: complex, grid: BorelGrid, held=None,
                     fac: OperatorFactors | None = None):
    """Forward-substitution solve for the b_01 = 0 regime: omega_1 from its
    own equation, then omega_0 with omega_1's part of equation 0 fixed as g.
    Each Picard run starts from zero, whose images are known: omega_1's
    forcing over P, and g.  `held` and fac are as in `solve_coupled`.  Each
    run ping-pongs between two buffers of its own; equation 1's image of
    omega_1 goes into the one that run leaves spare, and equation 0's image
    of omega_0 into the one the other leaves.  The omega_0 run's buffers
    are made once g is, so the pass that computes g holds three."""
    if not spec.coeffs.triangular:
        raise UsageError("triangular solve requires b_01 identically zero")
    ctx = SolverContext(spec, grid, eps, fac)
    weights, hold = _holding(ctx, held)
    dist = _distance(weights)
    zero = ctx.zero()
    spare1 = _ping_pong(ctx.empty(), ctx.empty())
    w1, *run1 = _picard(lambda w: hold(ctx.apply_H1(w, out=spare1(w)), 1), zero, dist,
                        hold(ctx.image_of_zero(1, out=spare1(zero)), 1))
    g, h1 = ctx.g_eps(w1, out=(ctx.empty(), spare1(w1)))
    spare0 = _ping_pong(ctx.empty(), ctx.empty())
    first0 = spare0(zero)
    np.copyto(first0, g)
    w0, *run0 = _picard(lambda w: hold(ctx.apply_H0(w, g, out=spare0(w)), 0), zero, dist,
                        hold(first0, 0))
    # the coupled map's rows from the blocks: row 0 reuses g, and row 1,
    # which reads no omega_0 because b_01 = 0, is h1
    return _solve_report(weights, dist, (w0, w1), (ctx.apply_H0(w0, g, out=spare0(w0)), h1),
                         [run1, run0])


def held_bottom(spec: ProblemSpec, grid: BorelGrid) -> int:
    """The lowest rung `solve_held` runs Picard on, on a line of grid's
    ladder: the largest dilation shift less one below the arc rung.  The
    held block, from there up to the arc rung, then spans exactly the
    largest shift, the least that `_holding` accepts: the lowest free rung
    reads one shift below itself."""
    return grid.arc_rung() - max(rung_shifts(spec, grid.N)) + 1


def solve_held(spec: ProblemSpec, eps: complex, line: BorelGrid, coef: np.ndarray):
    """(w0, w1, report, picard): omega_0 and omega_1 on the stacked rows of
    line, with the rows inside the disc summed from their Taylor
    coefficients coef at tau = 0 and Picard run only above.

    coef must converge at the radius of the line's Taylor rung
    (`BorelGrid.taylor_rung`, `taylor_at_origin`).  The rows up to that
    rung and the centre come from `taylor_values`.  When the line's top is
    its Taylor rung, that is every row, and report and picard are None.
    Otherwise Picard (`solve_triangular` for b_01 = 0, else
    `solve_coupled`) runs on the rung range picard from `held_bottom` to
    the top, with the rows up to the arc rung and the centre held, and
    report is its SolveReport; the line must then reach down to
    `held_bottom`.  The range, which the line keeps, holds its factors for
    every solve on it (`BorelGrid.factors`).
    """
    g_taylor, g_lo = line.taylor_rung(), held_bottom(spec, line)
    if g_taylor == line.g_hi:
        w0, w1 = taylor_values(coef, line.stacked_tau)
        return w0, w1, None, None
    if g_lo < line.g_lo:
        raise UsageError(f"the line [{line.g_lo}, {line.g_hi}] must reach rung {g_lo}, "
                         "the bottom of its held block")
    picard = line.rung_range(g_lo, line.g_hi)
    n_disc = g_taylor - line.g_lo + 1
    disc = taylor_values(coef, line.stacked_tau[np.r_[0:n_disc, line.n_nodes]])
    below = g_lo - line.g_lo
    solve = solve_triangular if spec.coeffs.triangular else solve_coupled
    *ws, report = solve(spec, eps, picard, held=disc[:, below:], fac=picard.factors(spec))
    w0, w1 = (np.concatenate([d[:below], w]) for d, w in zip(disc, ws))
    return w0, w1, report, picard


def contraction_bound(spec: ProblemSpec, eps: complex, grid: BorelGrid) -> float:
    """An upper bound on the Lipschitz constant of the coupled map H on the
    whole line in the solve's weighted sup norm: the largest weighted row
    sum max_i w_i sum_j |L_ij| / w_j of the linear part L of H.

    It is one pass of `_contributions` on the `SolverContext.modulus` of
    the solve's operators, on 1/w for both unknowns.  Where several terms
    add to one entry of L, the sum of their moduli bounds the entry's
    modulus, so the value stays an upper bound; below 1 it certifies that
    Picard converges.  `OrderBlock` bounds its block by the same row sums.
    """
    ctx = SolverContext(spec, grid, eps).modulus()
    weights = grid.stacked_weights(spec)
    inverse = 1.0 / weights
    accs = ctx._contributions({0: inverse, 1: inverse},
                              {eq: np.empty(inverse.shape) for eq in (0, 1)})
    return _largest([_weighted_sup(ctx._divided(acc), weights) for acc in accs.values()])


# the name perfbench's tracer spans the certification step by
contraction_estimate = contraction_bound


# Taylor terms at the arc radius below TAYLOR_RTOL of the largest are dropped;
# a series still above that at order TAYLOR_MAX_ORDER is not summed
TAYLOR_RTOL = 1e-18
TAYLOR_MAX_ORDER = 160


def _order_fixed_point(rhs: np.ndarray, coupling, inv_p0: np.ndarray, what: str) -> np.ndarray:
    """The coefficients c (2, n_m) of one order with P(0) c_eq = rhs_eq +
    sum_j K_(j,eq) c_j over the (j, eq, K) list coupling, by Picard iteration
    from zero, whose first iterate is rhs / P(0), in the max-abs norm; the b
    symbols are small under the smallness budget.  `what` names c in a
    DivergenceError."""
    def step(c):
        nxt = rhs.copy()
        for j, eq, K in coupling:
            nxt[eq] += apply_kernel(c[j], K)
        nxt *= inv_p0
        return nxt

    first = rhs * inv_p0
    try:
        return _picard(step, np.zeros_like(first),
                       lambda a, b: float(np.abs(a - b).max()), first)[0]
    except DivergenceError as exc:
        raise DivergenceError(f"{what} do not converge ({exc}): "
                              "smallness condition violated", exc.history) from exc


class OrderBlock:
    """The b block of every Taylor order at tau = 0 of a spec whose b
    symbols do not depend on eps, inverted once.

    Within one order only the b symbols couple the unknowns, P(0) c_eq =
    rhs_eq + sum_j s_(j,eq) K_(j,eq) c_j with the symbols' eps scalars s
    (`b_scalars`), so c = (I - P(0)^(-1) B)^(-1) P(0)^(-1) rhs.  The block
    depends on neither the order nor the forcing, and, when no live b symbol
    depends on eps, on no eps either: one inversion serves every order of
    every expansion, and an order costs two or three matrix-vector products
    instead of a Picard run (`_order_fixed_point`).  A spec with an
    eps-dependent b symbol is refused (UsageError naming it); its orders
    take the Picard run.  For b_01 = 0 the block is triangular: the two
    per-equation n_m x n_m factors are inverted, omega_1's first, and
    omega_1 enters equation 0 through K_(1,0); otherwise the whole 2 n_m
    block is.  I - P(0)^(-1) B lies near the identity under the smallness
    budget.  A block whose contraction bound, the max-abs row-sum norm of
    P(0)^(-1) B in which the Picard run measures its updates, reaches 1 is
    refused (DivergenceError), as the run there need not converge.  A block
    whose entries are real, as with real b kernels and a real P(0), is
    inverted and stored as float64 (`_real_if_exact`), and every inverse is
    applied by `apply_kernel`.
    """

    @staticmethod
    def eps_dependent(spec: ProblemSpec) -> list:
        """The names (bjk) of spec's live b symbols that depend on eps."""
        return [f"b{j}{eq}" for (j, eq), sym in spec.coeffs.b.items()
                if not sym.is_zero() and sym.eps_degree > 0]

    def __init__(self, spec: ProblemSpec, m: np.ndarray):
        dependent = self.eps_dependent(spec)
        if dependent:
            raise UsageError(f"an order block needs b symbols that do not depend on eps, "
                             f"but {', '.join(dependent)} does")
        m = np.asarray(m, dtype=float)
        n = m.size
        kernels = SymbolKernels.of(spec, m)
        self.inv_p0 = 1.0 / spec.pm(0.0, m)
        # s / P(0) of each b symbol: P(0)^(-1) s K scales row i of K by entry i
        over_p0 = {jk: s * self.inv_p0 for jk, s in b_scalars(spec, 0.0).items()}
        rows = np.zeros((2, n))
        for (j, eq), w in over_p0.items():
            rows[eq] += np.abs(w) * np.abs(kernels.b[(j, eq)]).sum(axis=1)
        bound = float(rows.max())
        if not bound < 1.0:
            raise DivergenceError(
                f"the Taylor coefficients at tau = 0 do not converge: the b block's "
                f"contraction bound is {bound:.3g} >= 1, smallness condition violated")
        if spec.coeffs.triangular:
            self.full = None
            self.diag = [None if (j, j) not in over_p0 else np.linalg.inv(_real_if_exact(
                np.eye(n) - over_p0[(j, j)][:, None] * kernels.b[(j, j)])) for j in (0, 1)]
            # omega_1's part of equation 0: K_(1,0) and its s / P(0)
            self.cross = (kernels.b[(1, 0)], over_p0.get((1, 0)))
        else:
            block = np.eye(2 * n, dtype=complex)
            for (j, eq), w in over_p0.items():
                block[eq * n:(eq + 1) * n, j * n:(j + 1) * n] -= w[:, None] * kernels.b[(j, eq)]
            self.full = np.linalg.inv(_real_if_exact(block))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The coefficients c (2, ..., n_m) of one order from its right side
        but its b part, rhs (2, ..., n_m): the middle axes, the samples of a
        `TaylorRecursion.at_eps`, are solved in one product per inverse."""
        c = rhs * self.inv_p0
        if self.full is not None:
            # each sample's (c_0, c_1) as one row of 2 n_m
            rows = np.moveaxis(c, 0, -2).reshape(c.shape[1:-1] + (-1,))
            rows = apply_kernel(rows, self.full).reshape(rows.shape[:-1] + (2, -1))
            return np.moveaxis(rows, -2, 0)
        inv0, inv1 = self.diag
        if inv1 is not None:
            c[1] = apply_kernel(c[1], inv1)
        K, w = self.cross
        if K is not None:
            c[0] += w * apply_kernel(c[1], K)
        if inv0 is not None:
            c[0] = apply_kernel(c[0], inv0)
        return c


class TaylorRecursion:
    """The fixed point of SolverContext in monomials of tau.  Order p's
    coefficient c_p, a (2, n_eps, n_m) array along an eps axis, solves
    P(0) c_p = forcing_p + q_f R_D(im) c_(p-dD) + sum over the term entries
    (d, delta, shift, scales, dilation, K) of scale dilation^(p-d) K c_(p-d)
    + sum over the b entries (j, eq, shift, s, K) of s K c_(j,p), each entry
    shift places up the eps axis; equation 0 also reads c_1, through (dD/k)
    R_D and delta.  Every K is a `SymbolKernels` kernel of a symbol's m part,
    and the symbol's eps polynomial enters as the scalars scale and s.
    Assumption (A) gives d >= 1, so within one place of one order only the
    shift-0 b entries couple: one small fixed point each, a `_picard` run,
    or one solve of an `OrderBlock`.  For dD = 0 the R_D part stays on the
    left, in P(0) = Q(im) - q_f R_D(im).

    `at_eps` is the Taylor series at tau = 0 at a list of eps: the eps axis
    holds the samples, each with its own forcing and scalars (the symbols'
    eps polynomials evaluated at it), and no entry shifts, so each kernel
    product of an order, and its block solve, serves every sample at once,
    while each sample's arithmetic is that of a recursion of its own.
    `eps_series` is the formal series: the eps axis holds eps powers, one
    scalar of each entry serves them all, and the series' eps^n t^p
    coefficient is q^(p(p-1)/2k) c_(p,n-p).
    """

    def __init__(self, spec: ProblemSpec, m: np.ndarray, eps_parts, terms: list,
                 b: list, degree: int | None = None, samples: int = 1):
        """eps_parts(sym) lists a forcing symbol's m data along the eps axis,
        terms holds (LowerOrderTerm, eps shift, eps factors, K), b (j, eq,
        shift, s, K).  The factors and s are tuples: with degree None, one
        per sample, the eps axis's places; otherwise one for every eps power
        up to degree."""
        if any(t.d < 1 for t in spec.terms):
            raise ConfigError("Assumption (A) violated: d_l <= k delta_l")
        self.spec, self.m, self.b, self.degree = spec, m, b, degree
        self.n_eps = samples if degree is None else degree + 1
        self.forcing = {p: np.zeros((2, self.n_eps, m.size), dtype=complex)
                        for h in (0, 1) for p in spec.forcing.powers(h)}
        for h in (0, 1):
            for p, sym in spec.forcing.powers(h).items():
                parts = eps_parts(sym)[:self.n_eps]
                self.forcing[p][h, :len(parts)] = parts
        self.terms = [(t.d, float(t.delta), shift,
                       tuple(factor * spec.q_power_factor(t.d) for factor in factors),
                       spec.q ** -(t.d / spec.k - float(t.delta)), K)
                      for t, shift, factors, K in terms]
        self.moved = spec.q_power_factor(spec.dD) * polyval_im(spec.RD, m)
        self.p0 = spec.pm(0.0, m)
        # the farthest order back that an order's right side reads
        self.reach = max([spec.dD] + [t.d for t in spec.terms])

    @classmethod
    def at_eps(cls, spec: ProblemSpec, m: np.ndarray, eps) -> "TaylorRecursion":
        """At the samples eps, a sequence: the kernels of the m grid with
        each sample's eps scalars."""
        kernels = SymbolKernels.of(spec, m)
        scalars = [term_scalars(spec, e) for e in eps]
        b = [b_scalars(spec, e) for e in eps]
        return cls(spec, m, lambda sym: [sym(m, e) for e in eps],
                   [(t, 0, tuple(s[i] for s in scalars), K)
                    for i, (t, K) in enumerate(zip(spec.terms, kernels.terms))],
                   [(j, eq, 0, tuple(s[(j, eq)] for s in b), K)
                    for (j, eq), K in kernels.b.items() if K is not None],
                   samples=len(eps))

    @classmethod
    def eps_series(cls, spec: ProblemSpec, m: np.ndarray, degree: int) -> "TaylorRecursion":
        """In eps powers 0..degree: a symbol's eps^a coefficient moves term l
        up Delta_l - d_l + a eps powers, and b up a."""
        if any(t.Delta < t.d for t in spec.terms):
            raise ConfigError("Assumption (A) violated: the formal eps-series "
                              "needs Delta_l >= d_l")
        kernels = SymbolKernels.of(spec, m)

        def split(sym):
            return [sym.eps_coefficient(a) for a in range(min(sym.eps_degree, degree) + 1)]

        def powers(sym):
            """(a, the eps^a coefficient) of sym's nonzero eps powers up to degree."""
            return [(a, complex(c)) for a, c in enumerate(sym.eps_poly[:degree + 1]) if c != 0]

        return cls(spec, m, lambda sym: [part(m) for part in split(sym)],
                   [(t, t.Delta - t.d + a, (c,), K)
                    for t, K in zip(spec.terms, kernels.terms) for a, c in powers(t.C)],
                   [(j, eq, a, (c,), K) for (j, eq), K in kernels.b.items() if K is not None
                    for a, c in powers(spec.coeffs.b[(j, eq)])], degree)

    def powers(self, p: int) -> int:
        """How many places of the eps axis order p solves: all, or those up
        to eps^(degree-p)."""
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
        for d, delta, shift, scales, dilation, K in self.terms:
            if d <= p and shift < n:
                src = c[p - d][:, :n - shift]
                h = apply_kernel(src, K)
                # one scale per sample, or one for every eps power
                h *= np.array([s * dilation ** (p - d) for s in scales])[:, None]
                rhs[0, shift:n] += delta * h[1]
                rhs[:, shift:n] += h
        return rhs

    def orders(self, what, block: OrderBlock | None = None, live: list | None = None):
        """Yield c_0, c_1, ...: after the b entries of shift >= 1 add the
        lower powers of its order, each place of the eps axis is one
        `_order_fixed_point`, or, when block is given (for an `at_eps`
        recursion, whose entries do not shift), the whole order is one solve
        of that `OrderBlock` of the spec.  live, a list of flags over the eps
        axis that the caller may clear between orders, zeroes the places
        whose flag is clear instead of solving them.  what(p, e) names
        c_(p,e) in a DivergenceError.  Only the last `reach` orders, which
        the next right side reads, are kept."""
        if block is None:
            # the shift-0 b entries at each sample's scalars, or at the one
            # scalar of every eps power, scaled once
            coupling = [[(j, eq, K if s[i] == 1 else _real_if_exact(s[i] * K))
                         for j, eq, shift, s, K in self.b if shift == 0]
                        for i in range(self.n_eps if self.degree is None else 1)]
            inv_p0 = 1.0 / self.p0
        c = []
        for p in itertools.count():
            c_p = self.rhs(c, p)
            for e in range(self.powers(p)):
                if live is not None and not live[e]:
                    c_p[:, e] = 0.0
                    continue
                for j, eq, shift, s, K in self.b:
                    if 1 <= shift <= e:
                        c_p[eq, e] += s[0] * apply_kernel(c_p[j, e - shift], K)
                if block is None:
                    c_p[:, e] = _order_fixed_point(
                        c_p[:, e], coupling[e if self.degree is None else 0], inv_p0,
                        what(p, e))
            if block is not None:
                c_p = block.solve(c_p)
            c.append(c_p)
            if p >= self.reach:
                c[p - self.reach] = None
            yield c_p


@dataclass
class TaylorExpansions:
    """The Taylor series at tau = 0 of the samples eps from one recursion
    (`taylor_at_origin`): series[i] lists sample i's coefficients order by
    order, (2, n_m) arrays, up to its stopping order stops[i], until the
    sample is taken."""

    eps: list
    stops: list
    series: list

    def holds(self, eps: complex) -> bool:
        """Whether the series of eps is here and not yet taken."""
        return eps in self.eps and self.series[self.eps.index(eps)] is not None

    def take(self, eps: complex) -> np.ndarray:
        """The coefficients of eps, a (2, orders, n_m) array stacked from its
        orders, which are then let go."""
        i = self.eps.index(eps)
        coef = np.stack(self.series[i], axis=1)
        self.series[i] = None
        return coef


def taylor_at_origin(spec: ProblemSpec, eps, m: np.ndarray,
                     radius: float, block: OrderBlock | None = None):
    """Taylor coefficients c_{j,n}(m) of (omega_0, omega_1) at tau = 0, the
    orders of `TaylorRecursion.at_eps`: at one eps a (2, orders, n_m) array,
    at a sequence of eps their `TaylorExpansions`, from one recursion whose
    kernel products serve every sample, each sample's orders copied out of
    the recursion's as they come.  Each order is one Picard run per
    sample, or, when block is given, one solve of that OrderBlock of spec,
    shared by every expansion, for all samples.  A sample's sum stops once
    its terms of the last max(dD, d_l) orders at |tau| = radius fall below
    TAYLOR_RTOL of its largest; the recursion runs until every sample has
    stopped, and one that has not by order TAYLOR_MAX_ORDER raises
    DivergenceError."""
    one = np.ndim(eps) == 0
    samples = [complex(eps)] if one else [complex(e) for e in eps]
    if 0 in samples:
        raise UsageError("the fixed point is defined for eps != 0")
    m = np.asarray(m, dtype=float)
    rec = TaylorRecursion.at_eps(spec, m, samples)
    last_forced = max(rec.forcing, default=0)
    live = [True] * len(samples)
    orders = rec.orders(lambda n, _: f"the order-{n} Taylor coefficients at tau = 0",
                        block, live)
    series = [[] for _ in samples]
    stops, peak, quiet = [0] * len(samples), [0.0] * len(samples), [0] * len(samples)
    for n, c_n in zip(range(TAYLOR_MAX_ORDER + 1), orders):
        sizes = (np.abs(c_n).max(axis=(0, 2)) * radius ** n).tolist()
        for i in itertools.compress(range(len(samples)), live):
            series[i].append(c_n[:, i].copy())
            size = sizes[i]
            if not math.isfinite(size):
                raise DivergenceError(f"the order-{n} Taylor coefficients at tau = 0 "
                                      f"are not finite ({size})")
            peak[i] = max(peak[i], size)
            quiet[i] = quiet[i] + 1 if size <= TAYLOR_RTOL * peak[i] else 0
            if n >= last_forced and quiet[i] >= rec.reach:
                live[i], stops[i] = False, n
        if not any(live):
            expansions = TaylorExpansions(samples, stops, series)
            return expansions.take(samples[0]) if one else expansions
    raise DivergenceError(
        f"the Taylor series of omega at tau = 0 does not converge at |tau| = "
        f"{radius:.4g} by order {TAYLOR_MAX_ORDER}")


def taylor_values(coef: np.ndarray, tau) -> np.ndarray:
    """(omega_0, omega_1) at the points tau, as a (2, tau.size, n_m) array,
    summed from their Taylor coefficients coef at tau = 0 (exactly c_0 at
    tau = 0)."""
    powers = np.asarray(tau)[:, None] ** np.arange(coef.shape[1])
    return np.stack([powers @ coef[0], powers @ coef[1]])
