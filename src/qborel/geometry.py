"""Root loci of P_m, admissible sectors, the geometric bound constants and
good coverings of the punctured eps disc.

All constants are grid estimates: minima/suprema over declared sample grids,
with the |m| -> infinity limit of |Q/R_D| joined in through the leading
coefficients.  They certify the shape of the bounds, not rigorous enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError
from .problem_model import ProblemSpec, polyval, polyval_im, ratio_bounds

__all__ = [
    "SectorGeometry",
    "GoodCovering",
    "pm_roots",
    "default_rho",
    "set_dist_to_shift",
    "default_delta",
    "make_geometry",
    "sector_root_clearance",
    "bound_constants",
    "check_assumption_d",
    "measure_c2",
    "operator_constants",
    "check_smallness",
    "ray_cone_clearance",
    "build_good_covering",
]

SECTOR_APERTURE = math.pi / 36.0


@dataclass
class SectorGeometry:
    """An unbounded sector S_d with the disc and shift it is paired with."""

    d: float
    aperture: float
    rho: float
    delta: float
    constants: dict = field(default_factory=dict)


def admissible_r1(q: float, k: int, alpha: float) -> float:
    """Radius q^((1/2 - alpha)/k) / 2 on which the q-Laplace image is tame."""
    return q ** ((0.5 - alpha) / k) / 2.0


def _roots_on_grid(spec: ProblemSpec, m_grid) -> np.ndarray:
    """Roots q_l(m) of tau -> P_m(tau) for every m of the grid, shape (n_m, dD).

    For dD = 1 the single root is the exact ratio; the general case uses the
    modulus-argument form.  The symbols are evaluated on the whole grid, while
    the ratio, modulus and power stay in Python scalar arithmetic, whose
    rounding numpy's vector loops do not share.
    """
    m = np.asarray(m_grid, dtype=float)
    rd = polyval_im(spec.RD, m)
    if np.any(rd == 0):
        raise GeometryError(f"R_D(im) vanishes at m = {m[np.argmax(rd == 0)]}: "
                            "degenerate symbol")
    if spec.dD == 0:
        return np.empty((m.size, 0), dtype=complex)
    qv = polyval_im(spec.Q, m).tolist()
    rd = rd.tolist()
    ratio = np.array([a / b for a, b in zip(qv, rd)], dtype=complex)
    if spec.dD == 1:
        return ratio[:, None]
    c = spec.q ** (spec.dD * (spec.dD - 1) / (2.0 * spec.k))
    modulus = np.array([(abs(a) * c / abs(b)) ** (1.0 / spec.dD) for a, b in zip(qv, rd)])
    ells = np.arange(spec.dD)
    return modulus[:, None] * np.exp(
        1j * (np.angle(ratio)[:, None] / spec.dD + 2.0 * math.pi * ells / spec.dD))


def pm_roots(spec: ProblemSpec, m: float) -> np.ndarray:
    """Roots q_l(m) of tau -> P_m(tau), l = 0..dD-1 (empty for dD = 0)."""
    return _roots_on_grid(spec, [m])[0]


def default_rho(spec: ProblemSpec, D1: float) -> float:
    """Disc radius just under min(1, q^((dD-1)/2k) D1^(1/dD) / 2)."""
    if spec.dD == 0:
        return 0.5
    cap = min(1.0, 0.5 * spec.q ** ((spec.dD - 1) / (2.0 * spec.k)) * D1 ** (1.0 / spec.dD))
    return 0.98 * cap


def set_dist_to_shift(d: float, aperture: float, rho: float, delta: float) -> float:
    """dist(S_d u D(0, rho), -delta) for the shift point on the negative axis."""
    p = -delta + 0.0j
    dist_disc = max(0.0, delta - rho)
    best = dist_disc
    half = aperture / 2.0
    # inside the angular span of the sector the distance is zero
    gap = abs(math.remainder(math.pi - d, 2.0 * math.pi))
    if gap <= half:
        return 0.0
    for edge in (d - half, d + half):
        u = complex(math.cos(edge), math.sin(edge))
        t = max(0.0, (p * u.conjugate()).real)
        best = min(best, abs(p - t * u))
    return best


def default_delta(d: float, aperture: float, rho: float) -> float:
    """Smallest shift with dist(S_d u D(0,rho), -delta) >= 1, by bisection."""
    lo, hi = 1e-6, 4.0
    while set_dist_to_shift(d, aperture, rho, hi) < 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise GeometryError("no admissible shift: sector meets the negative axis")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if set_dist_to_shift(d, aperture, rho, mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def sector_root_clearance(spec: ProblemSpec, d: float, aperture: float,
                          m_grid) -> tuple[float, tuple[float, int] | None]:
    """Smallest angular distance from the sector to any root ray.

    Returns (clearance beyond the half-aperture, witness (m, l) if the sector
    is hit).  Roots move along rays as m sweeps; an unbounded sector hits a
    root iff its argument falls inside the aperture.  The witness is the
    first (m, l) in grid order that attains the minimum.
    """
    if spec.dD == 0:
        return math.pi, None
    m = np.asarray(m_grid, dtype=float)
    if m.size == 0:
        return math.inf, None
    diff = np.angle(_roots_on_grid(spec, m)) - d
    gaps = np.array([abs(math.remainder(v, 2.0 * math.pi)) for v in diff.ravel().tolist()]
                    ).reshape(diff.shape) - aperture / 2.0
    # the scalar scan skipped NaN gaps, since NaN < worst is false
    gaps = np.where(np.isnan(gaps), math.inf, gaps)
    i, ell = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    worst = float(gaps[i, ell])
    return worst, ((float(m[i]), int(ell)) if worst <= 0 else None)


def make_geometry(spec: ProblemSpec, d: float, m_grid) -> SectorGeometry:
    """Assemble an admissible sector geometry of aperture SECTOR_APERTURE for
    the direction d."""
    m_grid = np.asarray(m_grid, dtype=float)
    D1, D2 = ratio_bounds(spec, m_grid)
    rho = default_rho(spec, D1)
    gap, witness = sector_root_clearance(spec, d, SECTOR_APERTURE, m_grid)
    if witness is not None:
        raise GeometryError(
            f"sector at direction {d:.4f} hits the root locus: witness m={witness[0]}, l={witness[1]}")
    geom = SectorGeometry(d=d, aperture=SECTOR_APERTURE, rho=rho,
                          delta=default_delta(d, SECTOR_APERTURE, rho))
    geom.constants["D1"] = D1
    geom.constants["D2"] = D2
    return geom


def bound_constants(spec: ProblemSpec, geom: SectorGeometry, m_grid) -> dict:
    """Geometric constants: C_D on the disc, the sector constants D31/D32/D3
    and the dilation-weight constant D4.

    D31 is evaluated on the sector bisectrix (theta = d - arg q_l(m)), the
    sharp small-opening value; D32 uses the split radius R = 2 with the 1/2
    distance factor.  C_D is the minimum of |P_m(tau)| / |Q(im)| over the
    disc |tau| <= rho and the m grid, in closed form, and must sit above the
    lemma floor 1 - 2^(-dD).
    """
    m_grid = np.asarray(m_grid, dtype=float)

    D1 = geom.constants.get("D1")
    D2 = geom.constants.get("D2")
    if D1 is None or D2 is None:
        D1, D2 = ratio_bounds(spec, m_grid)

    consts = {"D1": D1, "D2": D2}
    qi = polyval_im(spec.Q, m_grid)
    consts["inv_Q_sup"] = float(np.max(1.0 / np.abs(qi)))

    if spec.dD == 0:
        # P_m does not depend on tau
        consts["C_D"] = float((np.abs(spec.pm(0.0, m_grid)) / np.abs(qi)).min())
    else:
        # P_m(tau) / Q(im) = 1 - q_f (R_D / Q)(im) tau^dD, and tau^dD covers
        # the disc of radius rho^dD
        ratio = float(np.abs(polyval_im(spec.RD, m_grid) / qi).max())
        consts["C_D"] = max(0.0, 1.0 - spec.q_power_factor(spec.dD) * geom.rho ** spec.dD * ratio)
    consts["C_D_floor"] = 1.0 - 2.0 ** (-spec.dD) if spec.dD > 0 else consts["C_D"]

    if spec.dD == 0:
        consts["D31"] = consts["D32"] = consts["D3"] = consts["C_D"]
    else:
        c = D2 ** (1.0 / spec.dD) * spec.q ** ((spec.dD - 1) / (2.0 * spec.k))
        # bisectrix angles of the sector seen from each root ray
        thetas = []
        for m in m_grid[:: max(1, m_grid.size // 200)]:
            for r in pm_roots(spec, m):
                thetas.append(geom.d - float(np.angle(r)))
        thetas = np.asarray(sorted(set(np.round(thetas, 12))))
        u = np.linspace(0.0, 2.0, 801)[None, :]
        num = np.abs(1.0 - u ** spec.dD * np.exp(1j * spec.dD * thetas)[:, None])
        den = (1.0 + u * c) ** spec.dD
        consts["D31"] = float((num / den).min())
        R = 2.0
        consts["D32"] = 0.5 * (R / (1.0 + c * R)) ** spec.dD
        consts["D3"] = min(consts["D31"], consts["D32"])

    lr = math.log(geom.rho + geom.delta)
    consts["D4"] = spec.k / (2.0 * spec.lnq) * (lr * lr + spec.alpha * lr)
    return consts


def check_assumption_d(spec: ProblemSpec, consts: dict) -> dict:
    """dD/k < (1/2) D1 min(C_D, D3), with the k threshold making it pass."""
    bound = 0.5 * consts["D1"] * min(consts["C_D"], consts["D3"])
    lhs = spec.dD / spec.k
    if spec.dD == 0:
        return {"pass": True, "margin": bound, "k_threshold": 1}
    k_threshold = int(math.floor(spec.dD / bound)) + 1
    return {"pass": lhs < bound, "margin": bound - lhs, "k_threshold": k_threshold}


def measure_c2(b, h_poly, mu: float, m_grid) -> float:
    """Convolution constant sup_m (1+|m|)^mu |b(m)| I(m) with
    I(m) = integral |h(i m1)| (1+|m-m1|)^(-mu) (1+|m1|)^(-mu) dm1.

    This is the grid evaluation of the bound the convolution estimate
    actually produces, so norm products scaled by it dominate the weighted
    convolution on grids.
    """
    m = np.asarray(m_grid, dtype=float)
    h = np.abs(polyval(1j * m, np.asarray(h_poly, dtype=complex)))
    bv = np.abs(b(m) if callable(b) else np.asarray(b))
    dm = m[1] - m[0]
    # on the uniform grid m_i - m_j = (i - j) dm: one discrete convolution
    # over the 2n - 1 offsets
    offsets = (1.0 + dm * np.abs(np.arange(1 - m.size, m.size))) ** (-mu)
    weighted = (1.0 + np.abs(m)) ** (-mu) * h
    integral = np.convolve(weighted, offsets)[m.size - 1:2 * m.size - 1] * dm
    return float(np.max((1.0 + np.abs(m)) ** mu * bv * integral))


# radii per block of operator_constants' C1 scan
C1_RADIUS_BLOCK = 32


def operator_constants(spec: ProblemSpec, geom: SectorGeometry, consts: dict,
                       m_grid) -> dict:
    """Measured constants C1, C2 and the composed per-term bounds C3_l.

    C1 is the grid supremum of the exact pointwise factor of the sector part
    of the dilation operator, |Q/P_m| |tau|^d_l W(tau)/W(q^(-x) tau); C2 is
    the convolution constant of measure_c2 with b = (2 pi)^(-1/2)/|Q|.
    """
    m = np.asarray(m_grid, dtype=float)
    qi = polyval_im(spec.Q, m)
    inv_q_sup = float(np.max(1.0 / np.abs(qi)))
    lnq = spec.lnq

    def weight_log(r_shifted: np.ndarray) -> np.ndarray:
        lt = np.log(r_shifted)
        return -0.5 * spec.k * lt * lt / lnq - spec.alpha * lt

    # 16 radii per power of q, from rho/8 out to at least 8192 rho
    n_oct = max(1, int(math.ceil(math.log(65536.0) / lnq)))
    r = geom.rho / 8.0 * spec.q ** (np.arange(0, n_oct * 16 + 1) / 16.0)
    tau = r * np.exp(1j * geom.d)

    out = {"C2_plain": measure_c2(np.full(m.size, 1.0 / math.sqrt(2 * math.pi)),
                                  [1.0], spec.mu, m),
           "inv_Q_sup": inv_q_sup, "C1": [], "C2": [], "C3": []}
    radial = []
    for t in spec.terms:
        x = float(t.d) / spec.k - float(t.delta)
        wr = np.exp(weight_log(np.abs(tau + geom.delta))
                    - weight_log(np.abs(spec.q ** (-x) * tau + geom.delta)))
        radial.append(r ** t.d * wr)
    # the supremum over blocks of radii: |P_m(tau)| of one block at a time
    # keeps the scan's arrays small on a fine m grid
    block_maxima = []
    for start in range(0, r.size, C1_RADIUS_BLOCK):
        block = slice(start, start + C1_RADIUS_BLOCK)
        q_over_pm = np.abs(qi)[None, :] / np.abs(spec.pm(tau[block], m))
        block_maxima.append([(q_over_pm * w[block, None]).max() for w in radial])
    for t, c1 in zip(spec.terms, np.max(block_maxima, axis=0).tolist()):
        c2 = measure_c2(1.0 / (math.sqrt(2 * math.pi) * np.abs(qi)), t.R, spec.mu, m)
        disc_part = (1.0 / (1.0 - 2.0 ** (-spec.dD)) if spec.dD > 0 else 1.0) \
            * geom.rho ** t.d * math.exp(consts["D4"])
        out["C1"].append(c1)
        out["C2"].append(c2)
        out["C3"].append(max(disc_part, c1) * c2 * spec.coeffs.C_C)
    return out


def check_smallness(spec: ProblemSpec, consts: dict, eps0: float,
                    varsigma_b: float, C2: float, C3l) -> dict:
    """Contraction budget: the three-term sum must stay at or below 1/2."""
    if spec.dD > 0:
        t1 = (spec.dD / spec.k) / consts["D1"] * max(1.0 / consts["C_D"],
                                                     1.0 / consts["D3"])
    else:
        t1 = 0.0
    t2 = sum(eps0 ** (t.Delta - t.d) * c3 * (1.0 + float(t.delta))
             for t, c3 in zip(spec.terms, C3l))
    t3 = consts["inv_Q_sup"] * (2.0 / consts["C_D"]) * varsigma_b * C2
    lhs = t1 + t2 + t3
    return {"pass": lhs <= 0.5, "lhs": lhs, "terms": (t1, t2, t3)}


def ray_cone_clearance(d: float, arg_lo: float, arg_hi: float, n: int = 721) -> float:
    """min over arg T in [lo, hi] of min_r |1 + e^(i d) r / T|."""
    phis = np.linspace(arg_lo, arg_hi, n)
    psi = d - phis
    vals = np.where(np.cos(psi) >= 0.0, 1.0, np.abs(np.sin(psi)))
    return float(vals.min())


@dataclass
class GoodCovering:
    """Overlapping eps sectors with admissible Borel directions attached."""

    zeta: int
    directions: list[float]          # bisecting directions of the eps sectors
    aperture: float                  # common aperture, slightly over 2 pi / zeta
    radius: float                    # eps0
    d_rays: list[float]              # admissible Borel direction per sector
    t_direction: float
    t_aperture: float
    t_radius: float
    Delta: float
    r1: float

    def overlap_sample(self, p: int) -> complex:
        # sectors p and p+1 are centred 2 pi / zeta apart; the overlap midpoint
        # sits halfway between the two bisectors, at 0.7 of the radius
        mid = self.directions[p % self.zeta] + math.pi / self.zeta
        return self.radius * 0.7 * np.exp(1j * mid)


def build_good_covering(zeta: int, eps0: float, spec: ProblemSpec,
                        t_radius: float, t_aperture: float, t_direction: float,
                        m_grid, Delta: float) -> GoodCovering:
    """Choose zeta overlapping eps sectors and one admissible Borel direction
    per sector.

    The scan keeps S_(d_p) clear of the root rays, keeps the shifted distance
    condition satisfiable and keeps eps * t inside the kernel cone
    R_(d_p, Delta) for all sampled arguments.  Directions closest to the
    sector bisector win (they keep the kernel best conditioned).
    """
    m_grid = np.asarray(m_grid, dtype=float)
    r1 = admissible_r1(spec.q, spec.k, spec.alpha)
    if eps0 * t_radius > r1:
        raise GeometryError(
            f"eps0 * r_T = {eps0 * t_radius:.3g} exceeds r1 = {r1:.3g}")
    # 12% wider than 2 pi / zeta, so that neighbouring sectors overlap
    aperture = 1.12 * 2.0 * math.pi / zeta
    directions = [2.0 * math.pi * p / zeta for p in range(zeta)]
    candidates = np.linspace(-math.pi, math.pi, 720, endpoint=False)

    d_rays = []
    for p, center in enumerate(directions):
        lo = center - aperture / 2.0 + t_direction - t_aperture / 2.0
        hi = center + aperture / 2.0 + t_direction + t_aperture / 2.0
        best, blocked = None, []
        order = sorted(candidates, key=lambda c: abs(math.remainder(c - center, 2 * math.pi)))
        for d in order:
            # the cheap test first: a root scan costs a pass over the m grid
            if abs(math.remainder(math.pi - d, 2 * math.pi)) < SECTOR_APERTURE:
                blocked.append((d, "negative axis"))
                continue
            witness = sector_root_clearance(spec, d, SECTOR_APERTURE, m_grid)[1]
            if witness is not None:
                blocked.append((d, f"roots at m={witness[0]}"))
                continue
            if ray_cone_clearance(d, lo, hi) < Delta:
                blocked.append((d, "kernel cone"))
                continue
            best = d
            break
        if best is None:
            arcs = sorted({reason for _, reason in blocked})
            raise GeometryError(
                f"no admissible direction for sector {p}: blocked by {arcs}")
        d_rays.append(float(best))

    return GoodCovering(zeta=zeta, directions=directions, aperture=aperture,
                        radius=eps0, d_rays=d_rays, t_direction=t_direction,
                        t_aperture=t_aperture, t_radius=t_radius, Delta=Delta,
                        r1=r1)
