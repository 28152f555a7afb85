"""q-Laplace transform of order k, inverse Fourier transform, the eps*t
admissibility check and the convolution kernel with its two products.

The ray integral is computed in log-radius: with u = e^s e^(i gamma) the
integrand w(u)/Theta(u/T) decays at least exponentially in s on both sides of
its peak, so a uniform trapezoid rule in s converges superalgebraically.  The
bracket [s_min, s_max] is found by expanding outward until the integrand falls
below 1e-16 of its running peak.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .problem_model import polyval_im
from .special_functions import inv_theta

__all__ = [
    "QuadratureSpec",
    "ray_admissibility",
    "check_admissible",
    "q_laplace",
    "q_laplace_operational_check",
    "inverse_fourier",
    "convolution_kernel",
    "convolve",
    "convolve_weighted",
    "trapezoid_weights",
]

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


def trapezoid_weights(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise DomainError("grid needs at least two nodes")
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


def ray_admissibility(T: complex, gamma: float) -> tuple[float, float]:
    """min over r >= 0 of |1 + e^(i gamma) r / T| and the minimising radius."""
    if T == 0:
        raise DomainError("T = 0 is outside every admissible domain")
    psi = gamma - cmath.phase(T)
    c = math.cos(psi)
    if c >= 0.0:
        return 1.0, 0.0
    return abs(math.sin(psi)), -c * abs(T)


def check_admissible(T: complex, gamma: float, Delta: float,
                     r1: float | None = None) -> None:
    """Raise DomainError unless T = eps t may be summed along direction gamma:
    T != 0, the ray keeps |1 + e^(i gamma) r / T| >= Delta (T lies in the
    kernel cone R_(gamma, Delta)) and |T| <= r1 when r1 is given."""
    dist, r_bad = ray_admissibility(T, gamma)
    if dist < Delta:
        raise DomainError(
            f"eps*t = {T:.6g} leaves R_(gamma,Delta): |1 + e^(i gamma) r / T| = "
            f"{dist:.3e} < Delta = {Delta} at radius r = {r_bad:.6g}")
    if r1 is not None and abs(T) > r1:
        raise DomainError(
            f"|eps*t| = {abs(T):.6g} exceeds the admissible radius r1 = {r1:.6g}")


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


def inverse_fourier(f, z: complex, m_grid, beta: float | None = None):
    """(2 pi)^(-1/2) integral of f(m) e^(i z m) dm by trapezoid on the grid.

    f is a callable of m or samples on the grid; a stack of samples with the
    grid as last axis gives one value per row.
    """
    m = np.asarray(m_grid, dtype=float)
    if beta is not None and abs(z.imag) >= beta:
        raise DomainError(f"|Im z| = {abs(z.imag):.3g} >= beta = {beta}: integral diverges")
    vals = f(m) if callable(f) else np.asarray(f)
    total = np.sum(trapezoid_weights(m) * vals * np.exp(1j * z * m), axis=-1)
    total = total / math.sqrt(2.0 * math.pi)
    return complex(total) if np.ndim(total) == 0 else total


def convolution_kernel(f, m_grid, h_poly) -> np.ndarray:
    """Matrix K[i, j] = f(m_i - m_j) h(i m_j) tw_j / sqrt(2 pi) of the
    convolution (2 pi)^(-1/2) integral f(m - m1) h(i m1) g(m1) dm1 on the grid.

    f is a callable of the offset m_i - m_j, or samples on a uniform grid,
    read off at the offsets the grid holds and zero beyond it; h_poly is a
    coefficient array (low to high) and tw the trapezoid weights.
    """
    m = np.asarray(m_grid, dtype=float)
    diff = m[:, None] - m[None, :]
    if callable(f):
        F = f(diff)
    else:
        F = _offset_lookup(np.asarray(f), m, diff)
    return F * (polyval_im(h_poly, m) * trapezoid_weights(m))[None, :] \
        / math.sqrt(2.0 * math.pi)


def _offset_lookup(vals: np.ndarray, m: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """F[i, j] = f(m_i - m_j) gathered exactly from samples on a uniform grid
    whose lattice contains every offset."""
    if vals.shape != m.shape:
        raise DomainError("kernel samples must match the m grid")
    h = m[1] - m[0]
    if not np.allclose(np.diff(m), h, rtol=0, atol=1e-12 * abs(h)):
        raise DomainError("convolution requires a uniform m grid")
    idx = np.rint((diff - m[0]) / h).astype(int)
    if not np.all(np.abs(m[0] + idx * h - diff) < 1e-9 * abs(h)):
        raise DomainError("kernel offsets m_i - m_j fall off the sample lattice; "
                          "use a grid symmetric about 0 with an odd node count")
    inside = (idx >= 0) & (idx < m.size)
    out = np.zeros_like(diff, dtype=vals.dtype)
    out[inside] = vals[idx[inside]]
    return out


def convolve(f, g, m_grid) -> np.ndarray:
    """(f * g)(m) = (2 pi)^(-1/2) integral f(m - m1) g(m1) dm1 on the grid."""
    m = np.asarray(m_grid, dtype=float)
    gv = np.asarray(g(m) if callable(g) else g)
    if gv.shape != m.shape:
        raise DomainError("g samples must match the m grid")
    return convolution_kernel(f, m, [1.0]) @ gv


def convolve_weighted(b, h_poly, f, g, m_grid) -> np.ndarray:
    """Weighted product b(m) * integral f(m-m1) h(i m1) g(tau, m1) dm1.

    g has shape (n_tau, n_m); b is a callable or per-m samples; h_poly is a
    coefficient array (low to high) evaluated at i m1.  With b = (2 pi)^(-1/2)
    and h = [1] this reduces to convolve applied tau-slice by tau-slice.
    """
    m = np.asarray(m_grid, dtype=float)
    gv = np.asarray(g)
    if gv.ndim != 2 or gv.shape[1] != m.size:
        raise DomainError("g must be a (tau, m) grid matching m_grid")
    bv = np.asarray(b(m) if callable(b) else b)
    K = convolution_kernel(f, m, h_poly)
    return (gv @ K.T) * (math.sqrt(2.0 * math.pi) * bv)[None, :]
