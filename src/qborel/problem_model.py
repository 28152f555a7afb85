"""Equation data and executable forms of the structural assumptions.

A problem instance bundles the polynomial symbols, the dilation exponents, the
forcing and coefficient Fourier symbols and the weight parameters.  The
assumptions the construction rests on (ordering of the exponents, weighted
envelopes of the symbols, degree and argument conditions on Q and R_D) are
checked on an m sample grid, the envelopes over the whole eps disc through
a bound of each eps polynomial, and reported with witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import FIELDS, as_complex, as_int, as_mapping, as_poly, as_real, read_keys, shown
from .errors import ConfigError
from .special_functions import m_weight

__all__ = [
    "FourierSymbol",
    "LowerOrderTerm",
    "ForcingData",
    "CoefficientData",
    "ProblemSpec",
    "CheckResult",
    "AssumptionReport",
    "polyval",
    "polyval_im",
    "poly_degree",
    "ratio_bounds",
    "validate_assumptions",
    "forcing_borel",
]


def polyval(x, coeffs):
    """sum_i coeffs[i] x^i by Horner's rule, in the order of operations of
    numpy.polynomial.polynomial.polyval, so with its bits, but without
    importing numpy.polynomial."""
    c = np.atleast_1d(coeffs)
    if c.dtype.kind in "biu":
        c = c + 0.0
    value = c[-1] + x * 0
    for ci in c[-2::-1]:
        value = ci + value * x
    return value


def polyval_im(coeffs, m):
    """Evaluate a z-polynomial at z = i m (Fourier multiplier of d/dz)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0:
        raise ConfigError("polynomial with empty coefficient list")
    return polyval(1j * np.asarray(m, dtype=float), c)


def poly_degree(coeffs) -> int:
    c = np.asarray(coeffs, dtype=complex)
    if not c.any():
        raise ConfigError("an empty or zero polynomial has no degree")
    return int(np.flatnonzero(c)[-1])


class FourierSymbol:
    """Evaluable map (m, eps) -> complex.

    Closed-form symbols come from a small expression language,

        rational(m) * exp(-a |m|) * exp(-g m^2) * polynomial(eps),

    rich enough to realise the weighted-envelope bounds while keeping their
    verification a finite grid check.  Tabulated symbols carry (m, value)
    samples with a declared range, linearly interpolated and zero outside.
    """

    def __init__(self, num=(1.0,), den=(1.0,), exp_abs=0.0, gauss=0.0,
                 eps_poly=(1.0,), table=None):
        self.num, self.den, self.eps_poly = (
            np.asarray([as_complex(c, name) for c in coeffs], dtype=complex)
            for name, coeffs in (("num", num), ("den", den), ("eps_poly", eps_poly)))
        self.exp_abs, self.gauss = as_real(exp_abs, "exp_abs"), as_real(gauss, "gauss")
        if self.exp_abs < 0 or self.gauss < 0:
            raise ConfigError("decay rates exp_abs and gauss must be >= 0")
        if self.num.size == 0 or self.den.size == 0 or self.eps_poly.size == 0:
            raise ConfigError("symbol with empty coefficient list")
        self.table = None
        if table is not None:
            tm = np.asarray([as_real(m, "m") for m in table[0]], dtype=float)
            tv = np.asarray([as_complex(v, "values") for v in table[1]], dtype=complex)
            if tm.size != tv.size or tm.size < 2:
                raise ConfigError("tabulated symbol needs matching m/value arrays")
            if np.any(np.diff(tm) <= 0):
                raise ConfigError("tabulated m grid must be strictly increasing")
            self.table = (tm, tv)

    @classmethod
    def zero(cls):
        return cls(num=(0.0,))

    @classmethod
    def from_dict(cls, d, name: str = "symbol") -> "FourierSymbol":
        """The symbol d describes; a ConfigError names it as name."""
        try:
            if d is None or d == 0 or d == "zero":
                return cls.zero()
            if "m" in as_mapping(d, "symbol description") or "values" in d:
                return cls(eps_poly=d.get("eps_poly", (1.0,)),
                           table=(d["m"], d["values"]))
            return cls(**{name: d[name] for name in FIELDS["symbol"] if name in d})
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    def m_part(self, m):
        """The symbol's factor in m: rational(m) exp(-a|m|) exp(-g m^2), or
        the interpolated table."""
        m = np.asarray(m, dtype=float)
        if self.table is not None:
            tm, tv = self.table
            re = np.interp(m, tm, tv.real, left=0.0, right=0.0)
            im = np.interp(m, tm, tv.imag, left=0.0, right=0.0)
            return re + 1j * im
        vals = polyval(m, self.num) / polyval(m, self.den)
        return vals * np.exp(-self.exp_abs * np.abs(m) - self.gauss * m * m)

    def eps_factor(self, eps) -> complex:
        """The symbol's factor in eps, its eps polynomial at eps."""
        return complex(polyval(complex(eps), self.eps_poly))

    def __call__(self, m, eps=0.0):
        return self.m_part(m) * self.eps_factor(eps)

    @property
    def eps_degree(self) -> int:
        nz = np.nonzero(np.abs(self.eps_poly) > 0)[0]
        return int(nz[-1]) if nz.size else 0

    def eps_coefficient(self, n: int):
        """m-part scaled by the eps^n coefficient, as a plain callable of m."""
        c = self.eps_poly[n] if n < self.eps_poly.size else 0.0
        if c == 0:
            return lambda m: np.zeros(np.shape(m), dtype=complex)
        return lambda m, _c=complex(c): self.m_part(m) * _c

    def is_zero(self) -> bool:
        if self.table is not None:
            return bool(np.all(self.table[1] == 0))
        return bool(np.all(self.num == 0) or np.all(self.eps_poly == 0))


@dataclass
class LowerOrderTerm:
    """One dilation term: eps^Delta t^d c(z, eps) R(d/dz) u(q^delta t)."""

    d: int
    Delta: int
    delta: Fraction
    R: np.ndarray
    C: FourierSymbol

    def __post_init__(self):
        if self.d < 0 or self.Delta < 0 or self.delta < 0:
            raise ConfigError("term exponents must be nonnegative")


@dataclass
class ForcingData:
    """Monomial forcing data: index sets Lambda_h with one symbol per power."""

    lambda0: dict[int, FourierSymbol]
    lambda1: dict[int, FourierSymbol]
    C_F: float

    def powers(self, h: int) -> dict[int, FourierSymbol]:
        return self.lambda0 if h == 0 else self.lambda1


@dataclass
class CoefficientData:
    """Monodromy-coupling symbols b_jk and dilation coefficients; bounds."""

    b: dict[tuple[int, int], FourierSymbol]
    C_B: float
    C_C: float

    @property
    def triangular(self) -> bool:
        return self.b[(0, 1)].is_zero()


@dataclass
class ProblemSpec:
    D: int
    k: int
    q: float
    dD: int
    terms: list[LowerOrderTerm]
    Q: np.ndarray
    RD: np.ndarray
    beta: float
    beta_prime: float
    mu: float
    alpha: float
    eps0: float
    varsigma: float
    forcing: ForcingData
    coeffs: CoefficientData

    def __post_init__(self):
        if len(self.terms) != self.D - 1:
            raise ConfigError(f"expected {self.D - 1} lower-order terms, got {len(self.terms)}")
        if not (0 < self.beta_prime < self.beta):
            raise ConfigError("need 0 < beta' < beta")

    @property
    def lnq(self) -> float:
        return math.log(self.q)

    def q_power_factor(self, d: int) -> float:
        """(q^(1/k))^(-d(d-1)/2), the Borel-plane damping of t^d dilations."""
        return self.q ** (-d * (d - 1) / (2.0 * self.k))

    def pm(self, tau, m):
        """Symbol P_m(tau) = Q(im) - q^(-dD(dD-1)/2k) R_D(im) tau^dD.

        Broadcasts tau against a trailing m axis.
        """
        tau = np.asarray(tau, dtype=complex)
        qf = self.q_power_factor(self.dD)
        return (polyval_im(self.Q, m) -
                qf * polyval_im(self.RD, m) * (tau ** self.dD)[..., None])

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemSpec":
        """The spec a config's problem section d describes (`config.SCHEMA`)."""
        try:
            keys = read_keys(d, "problem")
            forcing = read_keys(d.get("forcing", {}), "problem.forcing")
            coeffs = read_keys(d.get("coeffs", {}), "problem.coeffs")
            terms = []
            for t in keys.pop("terms"):
                key = f"terms[{len(terms)}]"
                num, den = (as_int(v, f"{key} delta") for v in t["delta"])
                if den == 0:
                    raise ConfigError(f"delta {shown(t['delta'])} has a zero denominator")
                terms.append(LowerOrderTerm(
                    d=as_int(t["d"], f"{key} d"), Delta=as_int(t["Delta"], f"{key} Delta"),
                    delta=Fraction(num, den), R=as_poly(t["R"], f"{key} R"),
                    C=FourierSymbol.from_dict(t.get("C"), f"C{len(terms) + 1}")))
            lam0, lam1 = ({int(k): FourierSymbol.from_dict(v, f"f{h}[{k}]")
                           for k, v in forcing[f"f{h}"].items()} for h in (0, 1))
            b = {(j, kk): FourierSymbol.from_dict(coeffs[f"b{j}{kk}"], f"b{j}{kk}")
                 for j in (0, 1) for kk in (0, 1)}
            return cls(terms=terms, forcing=ForcingData(lam0, lam1, forcing["CF"]),
                       coeffs=CoefficientData(b, coeffs["CB"], coeffs["CC"]), **keys)
        except KeyError as exc:
            raise ConfigError(f"problem description missing field {exc}") from exc


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None
    value: float | None = None


@dataclass
class AssumptionReport:
    checks: list[CheckResult] = field(default_factory=list)
    D1: float = math.nan
    D2: float = math.nan
    arc_center: float = math.nan
    arc_width: float = math.nan

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, witness=None, value=None):
        self.checks.append(CheckResult(name, bool(passed), witness, value))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _envelope_sup(symbol: FourierSymbol, beta, mu, m_grid, eps0: float):
    """(bound, m): an upper bound of the weighted |symbol| over the m grid
    and the disc |eps| <= eps0, the sup over m of weight |m part| times
    sum_i |a_i| eps0^i over the eps polynomial, and the m of that sup."""
    m = np.asarray(m_grid, dtype=float)
    on_disc = float(polyval(eps0, np.abs(symbol.eps_poly)))
    weighted = m_weight(m, beta, mu) * np.abs(symbol.m_part(m) * on_disc)
    i = int(np.argmax(weighted))
    return float(weighted[i]), float(m[i])


def _symmetric_m_grid(m_grid, name: str = "m grid") -> np.ndarray:
    m = np.asarray(m_grid, dtype=float)
    if m.size == 0:
        raise ConfigError(f"empty {name}")
    if abs(m.max() + m.min()) > 1e-12 * max(1.0, abs(m.max())):
        raise ConfigError(f"{name} = [{m.min()}, {m.max()}, ...] must be symmetric about 0")
    return m


def ratio_bounds(spec: ProblemSpec, m_grid) -> tuple[float, float]:
    """(D1, D2) of Assumption (C): the extrema of |Q(im)| / |R_D(im)| over
    the m grid, which must be nonempty and symmetric about zero, joined with
    the |m| -> infinity limit of the leading coefficients when the degrees
    are equal (which makes that limit finite); NaN when Q or R_D vanishes on
    the grid."""
    m = _symmetric_m_grid(m_grid)
    degQ, degRD = poly_degree(spec.Q), poly_degree(spec.RD)
    qi, ri = np.abs(polyval_im(spec.Q, m)), np.abs(polyval_im(spec.RD, m))
    if not (qi.all() and ri.all()):
        return math.nan, math.nan
    ratio = qi / ri
    if degRD == degQ:
        limit = abs(spec.Q[degQ]) / abs(spec.RD[degRD])
        return float(min(ratio.min(), limit)), float(max(ratio.max(), limit))
    return float(ratio.min()), float(ratio.max())


def validate_assumptions(spec: ProblemSpec, m_grid) -> AssumptionReport:
    """Run the executable checks of the structural assumptions on a grid.

    The m grid must be nonempty and symmetric about zero; the ratio bounds
    D1, D2 are those of `ratio_bounds`.
    """
    m = _symmetric_m_grid(m_grid)
    rep = AssumptionReport()

    # Assumption (A): exponent ordering and mu against the R_l degrees
    for i, t in enumerate(spec.terms, start=1):
        ok = t.Delta > t.d and Fraction(t.d) > spec.k * t.delta
        rep.add("A.order", ok, witness=None if ok else f"l={i}")
        ok2 = Fraction(spec.dD) >= spec.k * t.delta
        rep.add("A.dD", ok2, witness=None if ok2 else f"l={i}")
        ok3 = spec.mu > poly_degree(t.R) + 1
        rep.add("A.mu", ok3, witness=None if ok3 else f"l={i}")

    # Assumptions (B1), (B2): forcing and coefficient symbols inside their
    # declared envelopes over the m grid and the eps disc
    envelopes = [(f"B1.f{h}[{power}]", sym, spec.forcing.C_F)
                 for h in (0, 1) for power, sym in spec.forcing.powers(h).items()]
    envelopes += [(f"B2.b{j}{kk}", sym, spec.coeffs.C_B)
                  for (j, kk), sym in spec.coeffs.b.items()]
    envelopes += [(f"B2.C{i}", t.C, spec.coeffs.C_C)
                  for i, t in enumerate(spec.terms, start=1)]
    for name, sym, bound in envelopes:
        sup, m_sup = _envelope_sup(sym, spec.beta, spec.mu, m, spec.eps0)
        ok = sup <= bound * (1 + 1e-12)
        rep.add(name, ok, value=sup, witness=None if ok else f"m={m_sup:.6g}")

    # Assumption (C): degrees, nonvanishing, ratio bounds, argument arc
    degQ, degRD = poly_degree(spec.Q), poly_degree(spec.RD)
    rep.add("C.deg_equal", degRD == degQ,
            witness=None if degRD == degQ else f"deg RD={degRD}, deg Q={degQ}")
    for i, t in enumerate(spec.terms, start=1):
        ok = poly_degree(t.R) <= degQ
        rep.add("C.deg_Rl", ok, witness=None if ok else f"l={i}")

    qi, ri = polyval_im(spec.Q, m), polyval_im(spec.RD, m)
    bad_q = np.nonzero(np.abs(qi) == 0)[0]
    rep.add("C.Q_nonzero", bad_q.size == 0,
            witness=None if bad_q.size == 0 else f"m={m[bad_q[0]]:.6g}")
    bad_r = np.nonzero(np.abs(ri) == 0)[0]
    rep.add("C.RD_nonzero", bad_r.size == 0,
            witness=None if bad_r.size == 0 else f"m={m[bad_r[0]]:.6g}")
    if bad_q.size or bad_r.size:
        return rep

    rep.D1, rep.D2 = ratio_bounds(spec, m)
    rep.add("C.ratio_bounded", math.isfinite(rep.D1) and rep.D1 > 0, value=rep.D1)

    args = np.unwrap(np.angle(qi / ri))
    center = float(np.angle(np.mean(np.exp(1j * args))))
    dev = np.angle(np.exp(1j * (args - center)))
    width = float(np.max(np.abs(dev)))
    rep.arc_center, rep.arc_width = center, width
    ok = width <= spec.varsigma
    worst = m[int(np.argmax(np.abs(dev)))]
    rep.add("C.arg_arc", ok, value=width, witness=None if ok else f"m={worst:.6g}")
    return rep


def forcing_borel(spec: ProblemSpec, h: int, tau, m, eps):
    """Borel-plane forcing sum over the monomial powers of component h.

    tau broadcasts against a trailing m axis: the result has shape
    tau.shape + m.shape (scalars give a scalar).
    """
    powers = spec.forcing.powers(h)
    tau = np.asarray(tau, dtype=complex)
    mv = np.asarray(m, dtype=float)
    total = np.zeros(tau.shape + mv.shape, dtype=complex)
    for p, sym in powers.items():
        total += np.multiply.outer(tau ** p, sym(mv, eps))
    return total if total.ndim else complex(total)
