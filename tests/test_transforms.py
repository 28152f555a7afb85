import math

import numpy as np
import pytest

from qborel.errors import DomainError, UsageError
from qborel.problem_model import polyval_im
from qborel.transforms import (
    convolution_kernel,
    inverse_fourier,
    ray_admissibility,
    trapezoid_weights,
)
from tests.oracles import QuadratureSpec, q_laplace, q_laplace_operational_check

QUAD = QuadratureSpec(nodes_per_decade=48)

PAIRS = [(2.0, 1), (2.0, 3), (1.5, 2)]
# T stays far enough from the zero cone of the kernel (arg(T) - gamma away
# from pi): near it, theta evaluation loses digits to cancellation and the
# 1e-8 target is unreachable in doubles.
T_VALUES = [
    0.05 * np.exp(0.25j * np.pi),
    0.12 * np.exp(-0.3j),
    0.2 * np.exp(0.5j * np.pi),
    0.33 * np.exp(0.1j),
    0.45 * np.exp(-0.45j * np.pi),
]


def monomial(n):
    return lambda u: u ** n


def test_monomial_identity_all_pairs():
    for q, k in PAIRS:
        for n in range(7):
            for T in T_VALUES:
                got, err = q_laplace(monomial(n), T, 0.0, q, k, QUAD)
                want = (q ** (1.0 / k)) ** (n * (n - 1) / 2.0) * T ** n
                assert abs(got - want) < 1e-8 * abs(want), (q, k, n, T, err)


def test_monomial_constant_and_linear():
    q, k = 2.0, 1
    T = 0.3 * np.exp(0.4j)
    one, _ = q_laplace(monomial(0), T, 0.0, q, k, QUAD)
    assert abs(one - 1.0) < 1e-10
    lin, _ = q_laplace(monomial(1), T, 0.7, q, k, QUAD)
    assert abs(lin - T) < 1e-10 * abs(T)


def test_cube_q2_k1():
    T = 0.25 * np.exp(0.3j)
    got, _ = q_laplace(monomial(3), T, 0.0, 2.0, 1, QUAD)
    assert abs(got - 8.0 * T ** 3) < 1e-8 * abs(8.0 * T ** 3)


def test_direction_independence_for_polynomials():
    q, k = 2.0, 2
    T = 0.3 * np.exp(2.2j)

    def w(u):
        return 1.5 * u ** 2 - 0.25j * u + 0.4

    a, _ = q_laplace(w, T, 0.0, q, k, QUAD)
    b, _ = q_laplace(w, T, 0.5, q, k, QUAD)
    assert abs(a - b) < 1e-8 * abs(a)


def test_linearity_of_q_laplace():
    q, k = 2.0, 1
    T = 0.2 * np.exp(0.5j)
    f, g = monomial(1), monomial(2)
    lam = 0.7 - 0.2j
    combo, _ = q_laplace(lambda u: f(u) + lam * g(u), T, 0.0, q, k, QUAD)
    fa, _ = q_laplace(f, T, 0.0, q, k, QUAD)
    ga, _ = q_laplace(g, T, 0.0, q, k, QUAD)
    assert abs(combo - (fa + lam * ga)) < 1e-10 * abs(combo)


def test_inadmissible_T_names_radius():
    # T straight opposite the ray direction sits on the zero locus of the kernel
    with pytest.raises(DomainError) as err:
        q_laplace(monomial(0), -0.2 + 0.001j, 0.0, 2.0, 1, QUAD)
    assert "radius" in str(err.value)
    dist, r_bad = ray_admissibility(-0.2 + 0.001j, 0.0)
    assert dist < 0.5 and r_bad > 0


def test_r1_enforced_when_declared():
    quad = QuadratureSpec(nodes_per_decade=48, r1=0.1)
    with pytest.raises(DomainError):
        q_laplace(monomial(0), 0.3 + 0.1j, 0.0, 2.0, 1, quad)


def test_operational_rule_identity_case():
    T = 0.2 * np.exp(0.3j)
    lhs, rhs = q_laplace_operational_check(monomial(2), 0.0, 0.0, T, 0.0, 2.0, 2, QUAD)
    base, _ = q_laplace(monomial(2), T, 0.0, 2.0, 2, QUAD)
    assert abs(lhs - base) < 1e-10 * abs(base)
    assert abs(rhs - base) < 1e-10 * abs(base)


def test_operational_rule_square_sigma1_j1():
    T = 0.11 * np.exp(0.4j)
    lhs, rhs = q_laplace_operational_check(monomial(2), 1.0, 1.0, T, 0.0, 2.0, 2, QUAD)
    assert abs(lhs - rhs) < 1e-8 * abs(lhs)


@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("j", [0.0, 0.5, 1.0])
def test_operational_rule_family(sigma, j):
    q, k = 2.0, 2
    T = 0.08 * np.exp(0.35j)
    for n in (1, 3):
        lhs, rhs = q_laplace_operational_check(monomial(n), sigma, j, T, 0.0, q, k, QUAD)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs)), (sigma, j, n)


def test_inverse_fourier_zero_and_two_sided_exponential():
    m = np.linspace(-40, 40, 3201)
    assert inverse_fourier(np.zeros_like(m), 0.0 + 0.0j, m) == 0
    f = np.exp(-np.abs(m))
    got = inverse_fourier(f, 0.0 + 0.0j, m)
    # closed form: (2 pi)^(-1/2) * integral e^(-|m|) dm = sqrt(2/pi)
    assert abs(got - math.sqrt(2.0 / math.pi)) < 2e-4


def test_inverse_fourier_derivative_rule():
    m = np.linspace(-40, 40, 3201)
    f = np.exp(-(m ** 2))
    z = 0.3 + 0.1j
    lhs = inverse_fourier(1j * m * f, z, m)
    h = 1e-4
    rhs = (inverse_fourier(f, z + h, m) - inverse_fourier(f, z - h, m)) / (2 * h)
    assert abs(lhs - rhs) < 1e-6


def test_convolve_zero_and_linearity():
    m = np.linspace(-20, 20, 801)
    f = lambda x: np.exp(-(x ** 2))
    assert np.max(np.abs(convolution_kernel(f, m, [1.0]) @ np.zeros_like(m))) == 0.0
    g1 = np.exp(-((m - 1) ** 2))
    g2 = np.exp(-((m + 2) ** 2) / 2)
    lam = 0.3 - 0.7j
    K = convolution_kernel(f, m, [1.0])
    direct = K @ (g1 + lam * g2)
    split = K @ g1 + lam * (K @ g2)
    assert np.max(np.abs(direct - split)) < 1e-14


def test_convolve_matches_dense_grid_oracle():
    m = np.linspace(-20, 20, 801)
    f = lambda x: np.exp(-(x ** 2))
    g = lambda x: np.exp(-(x ** 2))
    got = convolution_kernel(f, m, [1.0]) @ g(m)
    # oracle: same integral on a 4x denser lattice, evaluated per target m
    dense = np.linspace(-20, 20, 3201)
    tw = trapezoid_weights(dense)
    want = np.array([np.sum(tw * f(mm - dense) * g(dense)) for mm in m]) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(got - want)) < 1e-7


def test_multiplication_property():
    m = np.linspace(-40, 40, 1601)
    f = lambda x: np.exp(-np.abs(x))
    g = np.exp(-np.abs(m) / 2) / (1 + m ** 2)
    conv = convolution_kernel(f, m, [1.0]) @ g
    for z in np.linspace(-0.4, 0.4, 10):
        zc = complex(z, 0.05)
        lhs = inverse_fourier(f(m), zc, m) * inverse_fourier(g, zc, m)
        rhs = inverse_fourier(conv, zc, m)
        assert abs(lhs - rhs) < 1e-5 * abs(lhs)


def test_growth_envelope_violation_flagged():
    # double-exponential growth beats the kernel decay: the bracket expansion
    # must give up with a divergence signal instead of spinning
    from qborel.errors import DivergenceError

    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        q_laplace(lambda u: np.exp(np.abs(u)), 0.3 + 0.1j, 0.0, 2.0, 1, QUAD)


def test_callable_kernel_on_an_even_node_count():
    # an even node count puts the offsets m_i - m_j half-way between nodes;
    # a callable kernel is evaluated at the offsets themselves
    m = np.linspace(-10, 10, 400)
    K = convolution_kernel(lambda x: np.exp(-x ** 2), m, [1.0])
    assert np.all(np.isfinite(K @ np.exp(-m ** 2)))


@pytest.mark.parametrize("n", [241, 400])
def test_offset_kernel_matches_the_full_offset_matrix(n):
    # f at the 2n - 1 offsets (i - j) dm, read as a Toeplitz matrix, against
    # f on the n x n matrix m_i - m_j, on an odd and an even node count.  The
    # matrix rounds each offset by up to ulp(12) = 1.8e-15 and |f'| <= 1
    # here, so the two agree to a few of those
    m = np.linspace(-12.0, 12.0, n)

    def f(x):
        return np.exp(-0.5 * x ** 2) * (1.0 + 0.3j * x) + 0.1 / (1.0 + x ** 2)

    h = [0.25, 0.0, 0.25]
    want = f(m[:, None] - m[None, :]) * (polyval_im(h, m) * trapezoid_weights(m))[None, :] \
        / math.sqrt(2.0 * math.pi)
    got = convolution_kernel(f, m, h)
    assert got.shape == (n, n)
    assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


def test_offset_kernel_refuses_a_non_uniform_grid():
    m = np.linspace(-12.0, 12.0, 241)
    m[100] += 1e-3
    with pytest.raises(UsageError, match="uniform"):
        convolution_kernel(lambda x: np.exp(-x ** 2), m, [1.0])


def test_tabulated_symbol_gives_the_kernel_of_the_symbol_it_samples(problem_dict):
    # b11 tabulated at the 2n - 1 offsets (i - j) dm that convolution_kernel
    # evaluates, from the closed form num exp(-a|m|) exp(-g m^2) / den: linear
    # interpolation at the table's own nodes returns its samples, so the two
    # symbols give one kernel to rounding
    from qborel.borel_solver import SymbolKernels
    from qborel.problem_model import FourierSymbol, ProblemSpec

    closed = {"num": [0.0006, 0.0, 0.0001], "den": [1.0, 0.0, 0.5], "exp_abs": 0.3,
              "gauss": 0.5}
    m = np.linspace(-12.0, 12.0, 81)
    offsets = (m[-1] - m[0]) / (m.size - 1) * np.arange(1 - m.size, m.size)
    values = FourierSymbol.from_dict(closed).m_part(offsets)
    kernels = []
    for b11 in (closed, {"m": offsets.tolist(),
                         "values": [[v.real, v.imag] for v in values]}):
        problem_dict["coeffs"]["b11"] = b11
        kernels.append(SymbolKernels.build(ProblemSpec.from_dict(problem_dict), m).b[(1, 1)])
    want = kernels[0]
    assert np.abs(want).max() > 0
    assert np.abs(kernels[1] - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
