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

    def __post_init__(self):
        if self.q <= 1.0:
            raise DomainError("weight requires q > 1")
        if self.mu <= 1.0:
            raise DomainError("weight requires mu > 1")


# bound on the relative size of the series tail that theta_scaled drops,
# which sets the half width of each sample's index window
THETA_TOL = 1e-12

# relative distance, in ulps, within which inv_theta reads a sample as lying
# on a zero of theta
ZERO_LATTICE_ULPS = 8


def theta_scaled(z, q: float, k: int = 1):
    """Evaluate theta as (scaled, log_scale) with theta = scaled * exp(log_scale).

    Vectorised over z.  The scaling keeps the partial sums O(1) even when the
    true value would overflow a double.

    The term log-magnitude f(p) = -p(p-1) ln q / (2k) + p ln|z| is a downward
    parabola peaking at p* = 1/2 + k ln|z| / ln q; a half width P with
    (ln q / 2k) P^2 > |ln THETA_TOL| + margin bounds the discarded tail.  Each
    sample sums its own 2P + 2 indices from floor(p*) - P, so a sample's
    value does not depend on the others it is evaluated with.
    """
    zs = np.asarray(z, dtype=complex)
    if np.any(zs == 0):
        raise DomainError("theta has an essential singularity at z = 0")
    if not np.all(np.isfinite(zs)):
        raise DomainError("theta requires finite arguments")
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    log_abs = np.log(np.abs(zs))
    arg = np.angle(zs)
    lnq = math.log(q)

    half = math.ceil(math.sqrt(2.0 * k * (abs(math.log(THETA_TOL)) + 16.0) / lnq)) + 2
    p_star = 0.5 + k * log_abs / lnq
    p = (np.floor(p_star) - half)[..., None] + np.arange(2 * half + 2, dtype=float)
    # log-magnitude and phase of each term, per evaluation point
    logmag = -p * (p - 1.0) * lnq / (2.0 * k) + log_abs[..., None] * p
    scale = logmag.max(axis=-1)
    terms = np.exp(logmag - scale[..., None] + 1j * (arg[..., None] * p))
    total = terms.sum(axis=-1)
    if scalar:
        return complex(total[0]), float(scale[0])
    return total, scale


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
