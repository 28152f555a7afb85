"""Jacobi theta function of order k and the weights of the Borel-plane norms.

The theta series sum_p q^(-p(p-1)/2k) z^p converges for every z != 0 thanks to
the Gaussian decay of the coefficients.  All magnitudes are tracked in log
space so that evaluation stays finite far outside the unit disc, where the
function grows like exp((k/2) log^2|z| / log q).  Each sample is summed over
its own fixed-width index window around the peak term, so a batch of samples
costs the same per sample however far apart their moduli lie, and a sample's
value does not depend on the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "WeightParams",
    "theta",
    "theta_scaled",
    "inv_theta",
    "m_weight",
    "expq_weight",
]


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the q-exponential weight on (tau, m) grids.

    delta shifts tau away from the origin (|tau + delta| >= 1 on admissible
    geometries).
    """

    k: int
    beta: float
    mu: float
    alpha: float
    delta: float
    q: float


# bound on the relative size of the series tail that theta_scaled drops,
# which sets the half width of each sample's index window
THETA_TOL = 1e-12

# relative distance, in ulps, within which inv_theta reads a sample as lying
# on a zero of theta
ZERO_LATTICE_ULPS = 8

# samples per block of theta_scaled: a block's term arrays, 2P + 2 terms per
# sample (88 at k = 13, q = 2), fit in a core's L2 cache
THETA_BLOCK = 256


def theta_scaled(z, q: float, k: int = 1):
    """Evaluate theta as (scaled, log_scale) with theta = scaled * exp(log_scale).

    Vectorised over z.  The scaling keeps the partial sums O(1) even when the
    true value would overflow a double.

    The term log-magnitude f(p) = -p(p-1) ln q / (2k) + p ln|z| is a downward
    parabola peaking at p* = 1/2 + k ln|z| / ln q; a half width P with
    (ln q / 2k) P^2 > |ln THETA_TOL| + margin bounds the discarded tail.  Each
    sample sums its own 2P + 2 indices from floor(p*) - P, so a sample's
    value does not depend on the others it is evaluated with, and the
    samples are summed THETA_BLOCK at a time into preallocated outputs: the
    term arrays of one block stay small however many samples a call has.
    """
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == 0):
        raise DomainError("theta has an essential singularity at z = 0")
    if not np.all(np.isfinite(zs)):
        raise DomainError("theta requires finite arguments")
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    log_abs = np.log(np.abs(zs)).ravel()
    arg = np.angle(zs).ravel()
    lnq = math.log(q)
    half = math.ceil(math.sqrt(2.0 * k * (abs(math.log(THETA_TOL)) + 16.0) / lnq)) + 2
    total = np.empty(log_abs.size, dtype=complex)
    scale = np.empty(log_abs.size)
    for start in range(0, log_abs.size, THETA_BLOCK):
        block = slice(start, start + THETA_BLOCK)
        _theta_block(log_abs[block], arg[block], lnq, k, half, total[block], scale[block])
    if scalar:
        return complex(total[0]), float(scale[0])
    return total.reshape(zs.shape), scale.reshape(zs.shape)


def _theta_block(log_abs, arg, lnq: float, k: int, half: int, total, scale):
    """theta_scaled on one block of samples, given by log|z| and arg z and
    written into the block's slices total and scale of the outputs."""
    p_star = 0.5 + k * log_abs / lnq
    p = (np.floor(p_star) - half)[:, None] + np.arange(2 * half + 2, dtype=float)
    # log-magnitude and phase of each term, per evaluation point
    logmag = -p * (p - 1.0) * lnq / (2.0 * k) + log_abs[:, None] * p
    logmag.max(axis=-1, out=scale)
    # exp(logmag - scale + i arg p), built and exponentiated in one complex
    # array; adding 0.0 turns a -0.0 phase into +0.0, as the complex sum
    # logmag - scale + 1j * (arg p) does, so every term keeps its bits
    terms = np.empty(logmag.shape, dtype=complex)
    np.subtract(logmag, scale[:, None], out=terms.real)
    np.multiply(arg[:, None], p, out=terms.imag)
    terms.imag += 0.0
    np.exp(terms, out=terms)
    terms.sum(axis=-1, out=total)


def inv_theta(z, q: float, k: int = 1):
    """1/theta(z) from the scaled evaluation, vectorised over z.

    theta vanishes on the lattice z = -q^(m/k).  A sample within
    ZERO_LATTICE_ULPS ulps of a lattice point, where the double sum is left
    with rounding noise only, gets 0, as does one where the quotient is not
    finite.
    """
    zs = np.asarray(z, dtype=complex)
    scaled, log_scale = theta_scaled(zs, q, k)
    with np.errstate(under="ignore", over="ignore"):
        out = np.exp(-log_scale) / scaled
    m = np.round(k * np.log(np.abs(zs)) / math.log(q))
    on_zero = np.abs(1.0 + zs * q ** (-m / k)) <= ZERO_LATTICE_ULPS * np.finfo(float).eps
    return np.where(np.isfinite(out) & ~on_zero, out, 0.0)


def theta(z, q: float, k: int = 1):
    """Jacobi theta function of order k, sum over p of q^(-p(p-1)/2k) z^p."""
    scaled, log_scale = theta_scaled(z, q, k)
    return scaled * np.exp(log_scale)


def m_weight(m_grid, beta: float, mu: float) -> np.ndarray:
    """The m part (1+|m|)^mu e^(beta|m|) of every weight on the Borel plane."""
    m = np.abs(np.asarray(m_grid, dtype=float))
    return (1.0 + m) ** mu * np.exp(beta * m)


def expq_weight(tau, m_grid, params: WeightParams):
    """Weight array (1+|m|)^mu e^(beta|m|) exp(-(k/2) log^2|tau+delta|/log q - alpha log|tau+delta|).

    Broadcasts tau (any shape) against a trailing m axis.  The radial factor
    is normalised to 1 at tau = 0 (an equivalent norm): large admissible
    shifts delta would otherwise crush the whole weight by exp(-k log^2(delta)
    / 2 log q) and make update tolerances meaningless.
    """
    tau = np.asarray(tau, dtype=complex)
    lnq = math.log(params.q)
    lt = np.log(np.abs(tau + params.delta))
    l0 = math.log(params.delta)
    tau_part = np.exp(-0.5 * params.k * (lt * lt - l0 * l0) / lnq
                      - params.alpha * (lt - l0))
    return tau_part[..., None] * m_weight(m_grid, params.beta, params.mu)
