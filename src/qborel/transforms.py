"""Inverse Fourier transform, the eps*t admissibility check of the q-Laplace
transform and the convolution kernel of the Borel-plane products.

The q-Laplace transform itself is a trapezoid sum over the Borel grid's
ladder, in `solution_assembly.LogSolution`; `check_admissible` is the domain
it may be taken on.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, UsageError
from .problem_model import polyval_im

__all__ = [
    "ray_admissibility",
    "check_admissible",
    "inverse_fourier",
    "convolution_kernel",
    "trapezoid_weights",
]


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


def inverse_fourier(f, z, m_grid):
    """(2 pi)^(-1/2) integral of f(m) e^(i z m) dm by trapezoid on the grid.

    f holds samples on the grid; a stack of samples with the grid as last
    axis gives one value per row.  z is one point or an array of points,
    which adds its shape in front: each row is summed at each z as a lone
    vector at that z is, bit for bit.  Callers check that z lies in the
    strip where the integral converges (`LogSolution.checked_T`).
    """
    m = np.asarray(m_grid, dtype=float)
    weighted = trapezoid_weights(m) * np.asarray(f)
    zs = np.asarray(z, dtype=complex)
    # one z at a time, so memory stays that of one stack however many z
    total = np.array([(weighted * phase).sum(axis=-1) for phase
                      in np.exp(np.multiply.outer(1j * zs, m)).reshape(-1, m.size)])
    total = total.reshape(zs.shape + weighted.shape[:-1]) / math.sqrt(2.0 * math.pi)
    return complex(total) if np.ndim(total) == 0 else total


def convolution_kernel(f, m_grid, h_poly) -> np.ndarray:
    """Matrix K[i, j] = f(m_i - m_j) h(i m_j) tw_j / sqrt(2 pi) of the
    convolution (2 pi)^(-1/2) integral f(m - m1) h(i m1) g(m1) dm1 on the
    uniform grid m_grid (UsageError otherwise).

    There m_i - m_j = (i - j) dm, so the callable f is evaluated once on the
    2n - 1 offsets, and the n x n matrix reads them through a Toeplitz view;
    h_poly is a coefficient array (low to high) and tw the trapezoid weights.
    """
    m = np.asarray(m_grid, dtype=float)
    n = m.size
    tw = trapezoid_weights(m)
    dm = (m[-1] - m[0]) / (n - 1)
    if np.abs(np.diff(m) - dm).max() > 1e-9 * np.abs(m).max():
        raise UsageError("a convolution kernel needs a uniform m grid")
    # row i of the reversed offsets' windows, taken from the last, holds
    # f((i - j) dm) at column j
    offsets = f(dm * np.arange(1 - n, n))
    toeplitz = np.lib.stride_tricks.sliding_window_view(offsets[::-1], n)[::-1]
    return toeplitz * (polyval_im(h_poly, m) * tw)[None, :] / math.sqrt(2.0 * math.pi)
