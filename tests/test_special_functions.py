import math
import tracemalloc

import numpy as np
import pytest

from qborel.errors import DomainError
from qborel.special_functions import (
    THETA_BLOCK,
    THETA_TOL,
    WeightParams,
    expq_weight,
    inv_theta,
    theta,
    theta_scaled,
)
from tests.oracles import e_norm, expq_norm, theta_bound_margin, theta_zero_clearance


def theta_direct(z, q, k, half_width):
    """Independent brute-force oracle: plain summation over a wide window."""
    total = 0.0 + 0.0j
    for p in range(-half_width, half_width + 1):
        total += q ** (-p * (p - 1) / (2.0 * k)) * z ** p
    return total


def test_zeros_on_negative_q_powers():
    q, k = 2.0, 1
    for m in range(-2, 3):
        z = -(q ** (m / k))
        val = theta(z, q, k)
        # natural scale: largest term magnitude of the series at this z
        _, log_scale = theta_scaled(z, q, k)
        assert abs(val) < 1e-10 * math.exp(log_scale)


def test_functional_identity_against_direct_series():
    z, q, k = 1.0 + 1.0j, 2.0, 3
    lhs = theta_direct(q ** (1.0 / k) * z, q, k, 80)
    rhs = q ** (1.0 / k) * z * theta_direct(z, q, k, 80)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    assert abs(theta(q ** (1.0 / k) * z, q, k) - lhs) < 1e-11 * abs(lhs)
    assert abs(theta(z, q, k) - theta_direct(z, q, k, 80)) < 1e-12 * abs(lhs)


def test_functional_identity_on_2d_sample():
    # 1e-10 relative: truncation is far below this, the rest is cancellation noise
    q, k = 2.0, 2
    radii = np.exp(np.linspace(math.log(0.05), math.log(20.0), 7))
    angles = np.linspace(0.1, 2 * math.pi - 0.4, 6)
    for r in radii:
        for a in angles:
            z = r * np.exp(1j * a)
            lhs = theta(q ** (1.0 / k) * z, q, k)
            rhs = q ** (1.0 / k) * z * theta(z, q, k)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def theta_shared_window(z, q, k):
    """theta_scaled's sum with one index window for every sample,
    [floor(min p*) - P, ceil(max p*) + P], with theta_scaled's half width P."""
    log_abs, arg, lnq = np.log(np.abs(z)), np.angle(z), math.log(q)
    p_star = 0.5 + k * log_abs / lnq
    half = math.ceil(math.sqrt(2.0 * k * (abs(math.log(THETA_TOL)) + 16.0) / lnq)) + 2
    p = np.arange(int(np.floor(p_star.min())) - half, int(np.ceil(p_star.max())) + half + 1,
                  dtype=float)
    logmag = (-p * (p - 1.0) * lnq / (2.0 * k))[None, :] + np.outer(log_abs, p)
    scale = logmag.max(axis=1)
    terms = np.exp(logmag - scale[:, None] + 1j * np.outer(arg, p))
    return terms.sum(axis=1), scale


def test_theta_sample_does_not_depend_on_its_batch():
    # the radial line of a q-Laplace sum: p* spans about 370 indices, over
    # more than three blocks of samples, given as a 2-d batch
    q, k = 2.0, 13
    n = 3 * THETA_BLOCK + 36
    z = 0.004 * 2.0 ** (np.arange(n) * 340 / (12 * n)) * np.exp(0.3j)
    scaled, log_scale = theta_scaled(z.reshape(4, -1), q, k)
    assert scaled.shape == log_scale.shape == (4, n // 4)
    alone = [theta_scaled(zi, q, k) for zi in z]
    assert np.array_equal(scaled.ravel(), [s for s, _ in alone])
    assert np.array_equal(log_scale.ravel(), [ls for _, ls in alone])


def test_theta_memory_stays_that_of_one_block():
    # 4,096 arc samples: the term arrays of the whole batch would take
    # about 11 MB, those of one block well under 1 MB
    z = 3.7 * np.exp(1j * np.linspace(-3.0, 3.0, 4096))
    tracemalloc.start()
    try:
        theta_scaled(z, 2.0, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_theta_on_a_circle_is_the_shared_window_sum():
    # the arc of a sector difference: its samples share |z|, so each one's
    # window is the window they would share, and the sums agree bit for bit
    q, k = 2.0, 13
    z = 0.37 / 0.011 * np.exp(1j * (np.linspace(-3.046, 0.0, 400) - 0.4))
    p_star = 0.5 + k * np.log(np.abs(z)) / math.log(q)
    assert np.ptp(np.floor(p_star)) == 0 and 0.1 < p_star[0] % 1.0 < 0.9
    scaled, log_scale = theta_scaled(z, q, k)
    want_scaled, want_scale = theta_shared_window(z, q, k)
    assert np.array_equal(scaled, want_scaled)
    assert np.array_equal(log_scale, want_scale)
    alone = [theta_scaled(zi, q, k) for zi in z]
    assert np.array_equal(scaled, [s for s, _ in alone])


def theta_one_expression(z, q, k):
    """theta_scaled's sums over its per-sample windows, with the terms taken
    as the one complex expression exp(logmag - scale + 1j * (arg p))."""
    log_abs, arg, lnq = np.log(np.abs(z)), np.angle(z), math.log(q)
    half = math.ceil(math.sqrt(2.0 * k * (abs(math.log(THETA_TOL)) + 16.0) / lnq)) + 2
    p = (np.floor(0.5 + k * log_abs / lnq) - half)[:, None] \
        + np.arange(2 * half + 2, dtype=float)
    logmag = -p * (p - 1.0) * lnq / (2.0 * k) + log_abs[:, None] * p
    scale = logmag.max(axis=1)
    return np.exp(logmag - scale[:, None] + 1j * (arg[:, None] * p)).sum(axis=1), scale


@pytest.mark.parametrize("k", [1, 13])
def test_theta_terms_keep_the_bits_of_the_one_expression(k):
    # the terms are filled and exponentiated in place; their sums must equal
    # those of the one complex expression bit for bit, zero signs included:
    # on the negative real axis from either side, within 1e-12 to 1.5 rad of
    # it, on the positive axis (all-negative windows at the small radii) and
    # off both axes
    q = 2.0
    r = np.exp(np.linspace(math.log(1e-6), math.log(1e4), 97))
    near = [math.pi - o for o in (1e-12, 1e-6, 0.01, 0.5, 1.5)]
    angles = near + [-a for a in near] + [1.0, -2.0]
    z = np.concatenate([r * np.exp(1j * a) for a in angles]
                       + [-r + 0j, np.conj(-r + 0j), r + 0j, np.conj(r + 0j)])
    scaled, log_scale = theta_scaled(z, q, k)
    want_scaled, want_scale = theta_one_expression(z, q, k)
    assert scaled.tobytes() == want_scaled.tobytes()
    assert log_scale.tobytes() == want_scale.tobytes()


def test_real_positive_argument_gives_real_value():
    val = theta(1.7, 2.0, 1)
    assert abs(val.imag) < 1e-14 * abs(val.real)


def test_truncation_convergence_under_window_doubling():
    q, k = 2.0, 3
    for z in [0.3 + 0.1j, 5.0j, -2.0 + 7.0j, 40.0]:
        base = theta(z, q, k)
        wide = theta_direct(z, q, k, 120)
        assert abs(base - wide) < 1e-11 * max(abs(wide), 1e-30)


def test_rejects_zero_argument():
    with pytest.raises(DomainError):
        theta(0.0, 2.0, 1)


def test_overflow_guard_via_log_scale():
    # far outside the disc the plain value overflows but the scaled pair is finite
    scaled, log_scale = theta_scaled(1e80, 2.0, 1)
    assert np.isfinite(log_scale) and np.isfinite(scaled.real)
    assert log_scale > 700.0


def test_margin_positive_along_ray():
    q, k, delta = 2.0, 1, 0.5
    radii = np.exp(np.linspace(math.log(1e-2), math.log(1e3), 100))
    margins = [theta_bound_margin(r * 1j, q, k, delta) for r in radii]
    assert min(margins) > 0.0


def test_margin_precondition_fails_on_zero_of_theta():
    q, k = 2.0, 1
    z = -(q ** 1.0)
    with pytest.raises(DomainError) as err:
        theta_bound_margin(z, q, k, 0.5)
    assert "m = " in str(err.value)


def test_margin_scales_linearly_in_delta():
    q, k = 2.0, 1
    z = 3.0 * 1j
    m1 = theta_bound_margin(z, q, k, 0.5)
    m2 = theta_bound_margin(z, q, k, 0.25)
    assert m1 == pytest.approx(0.5 * m2, rel=0, abs=0)


def test_zero_clearance_window():
    q, k = 2.0, 1
    clear, _ = theta_zero_clearance(1j, q, k)
    # |1 + i q^m| >= 1 for every m on the imaginary axis
    assert clear >= 1.0


def test_e_norm_weight_cancellation_and_homogeneity():
    beta, mu = 1.0, 3.5
    m = np.linspace(-30, 30, 1201)
    f = lambda mm: np.exp(-beta * np.abs(mm)) * (1 + np.abs(mm)) ** (-mu)
    assert e_norm(f, beta, mu, m) == pytest.approx(1.0, rel=1e-14)
    assert e_norm(lambda mm: 0.0 * mm, beta, mu, m) == 0.0
    assert e_norm(lambda mm: 3.0 * f(mm), beta, mu, m) == pytest.approx(3.0, rel=1e-14)


@pytest.fixture
def weight_params():
    return WeightParams(k=2, beta=1.0, mu=2.5, alpha=0.3, delta=1.3, q=2.0)


def test_expq_norm_weight_cancellation(weight_params):
    p = weight_params
    tau = np.concatenate([np.linspace(0, 0.25, 8), np.exp(np.linspace(0, 3, 12))]).astype(complex)
    m = np.linspace(-10, 10, 41)
    w = 1.0 / expq_weight(tau, m, p)
    assert expq_norm(w, tau, m, p) == pytest.approx(1.0, rel=1e-13)
    assert expq_norm(np.zeros_like(w), tau, m, p) == 0.0
    c = -2.0 + 1.5j
    assert expq_norm(c * w, tau, m, p) == pytest.approx(abs(c), rel=1e-13)


def test_norm_axioms_on_grid_data(weight_params):
    p = weight_params
    rng = np.random.default_rng(7)
    tau = np.exp(np.linspace(-2, 2, 9)).astype(complex)
    m = np.linspace(-5, 5, 21)
    a = rng.standard_normal((9, 21)) + 1j * rng.standard_normal((9, 21))
    b = rng.standard_normal((9, 21)) + 1j * rng.standard_normal((9, 21))
    na, nb = expq_norm(a, tau, m, p), expq_norm(b, tau, m, p)
    assert expq_norm(a + b, tau, m, p) <= na + nb + 1e-15
    lam = 3.7
    assert expq_norm(lam * a, tau, m, p) == pytest.approx(lam * na, rel=1e-14)
    # multiplication bound with a bounded continuous factor
    factor = 1.0 / (1.0 + np.abs(tau)[:, None] + m[None, :] ** 2)
    assert expq_norm(factor * a, tau, m, p) <= float(np.max(np.abs(factor))) * na + 1e-15


def test_expq_norm_shape_mismatch_rejected(weight_params):
    with pytest.raises(DomainError):
        expq_norm(np.zeros((3, 4)), np.zeros(2, dtype=complex), np.zeros(4), weight_params)


@pytest.mark.parametrize("q,k", [(2.0, 1), (1.5, 2), (2.0, 13)])
def test_inv_theta_against_mpmath_direct_sum(q, k):
    # Oracle: 50-digit direct summation of the theta series, |z| from 1e-6
    # to 1e6 on four rays off the zero set (the negative real axis), and at
    # relative distances 1e-2 to 1e-8 from zeros -q^(m/k) in four directions.
    # A double sum loses the digits that cancel between its largest term and
    # theta (about 7 at k = 2, arg z = 2.6, and up to 8 more next to a zero),
    # so the error is measured against the largest term.
    mpmath = pytest.importorskip("mpmath")
    rays = (np.logspace(-6.0, 6.0, 25)[:, None]
            * np.exp(1j * np.array([0.0, 0.9, -1.7, 2.6]))[None, :]).ravel()
    zeros = -q ** (np.array([-5, 0, 1, 7]) / k)
    offsets = (np.array([1e-2, 1e-4, 1e-6, 1e-8])[:, None]
               * np.exp(1j * np.array([0.0, 0.5 * math.pi, math.pi, -1.1]))[None, :]).ravel()
    near = (zeros[:, None] * (1.0 + offsets)[None, :]).ravel()
    # a sample on a zero, to double precision, has no digit of theta left
    assert not inv_theta(zeros + 0j, q, k).any()
    z = np.concatenate([rays, near])
    got = inv_theta(z, q, k)
    with mpmath.workdps(50):
        for zi, gi in zip(z, got):
            zm = mpmath.mpc(zi.real, zi.imag)
            p_star = round(0.5 + k * math.log(abs(zi)) / math.log(q))
            terms = [mpmath.mpf(q) ** (-mpmath.mpf(p * (p - 1)) / (2 * k)) * zm ** p
                     for p in range(p_star - 80, p_star + 81)]
            total = mpmath.fsum(terms)
            cancellation = float(max(abs(t) for t in terms) / abs(total))
            want = complex(1 / total)
            assert abs(gi - want) <= 1e-12 * cancellation * abs(want), (zi, gi, want)
