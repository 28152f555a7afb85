from fractions import Fraction

import numpy as np
import pytest

from qborel.config import READERS
from qborel.errors import ConfigError
from qborel.problem_model import (
    FourierSymbol,
    ProblemSpec,
    forcing_borel,
    poly_degree,
    polyval,
    polyval_im,
    validate_assumptions,
)

M_GRID = np.linspace(-50, 50, 2001)


def test_example_spec_passes_with_ratio_bounds(example_spec):
    rep = validate_assumptions(example_spec, M_GRID)
    assert rep.passed, rep.failures()
    assert rep.D1 == pytest.approx(0.5, abs=1e-6)
    assert rep.D2 == pytest.approx(1.0, abs=1e-6)
    # Q/R_D is negative real for this instance: arc of zero width at pi
    assert abs(abs(rep.arc_center) - np.pi) < 1e-12
    assert rep.arc_width < 1e-12


def test_equal_exponents_fail_assumption_a(problem_dict):
    problem_dict["terms"][0]["Delta"] = problem_dict["terms"][0]["d"]
    spec = ProblemSpec.from_dict(problem_dict)
    rep = validate_assumptions(spec, M_GRID)
    bad = [c for c in rep.failures() if c.name == "A.order"]
    assert bad and bad[0].witness == "l=1"


def test_degree_mismatch_fails_assumption_c(problem_dict):
    problem_dict["RD"] = [1.0, 1.0]  # degree 1 against deg Q = 2
    spec = ProblemSpec.from_dict(problem_dict)
    rep = validate_assumptions(spec, M_GRID)
    assert any(c.name == "C.deg_equal" for c in rep.failures())


def test_envelope_violation_reports_witness(problem_dict):
    problem_dict["forcing"]["CF"] = 1e-6
    spec = ProblemSpec.from_dict(problem_dict)
    rep = validate_assumptions(spec, M_GRID)
    bad = [c for c in rep.failures() if c.name.startswith("B1")]
    assert bad and bad[0].witness is not None


def test_shrinking_eps0_never_flips_b_checks(problem_dict):
    spec = ProblemSpec.from_dict(problem_dict)
    base = {c.name: c.passed for c in validate_assumptions(spec, M_GRID).checks}
    for shrink in (0.5, 0.1, 0.01):
        problem_dict["eps0"] = 0.02 * shrink
        rep = validate_assumptions(ProblemSpec.from_dict(problem_dict), M_GRID)
        for c in rep.checks:
            if c.name.startswith(("B1", "B2")) and base[c.name]:
                assert c.passed, (c.name, shrink)


def test_ratio_bounds_stable_under_grid_refinement(example_spec):
    rep1 = validate_assumptions(example_spec, M_GRID)
    fine = np.linspace(-50, 50, 4001)
    rep2 = validate_assumptions(example_spec, fine)
    qi = polyval_im(example_spec.Q, fine)
    ri = polyval_im(example_spec.RD, fine)
    ratio = np.abs(qi) / np.abs(ri)
    assert np.all(ratio >= rep1.D1 - 1e-12) and np.all(ratio <= rep1.D2 + 1e-12)
    # refinement may tighten but never invert
    assert rep2.D1 >= rep1.D1 - 1e-12 and rep2.D2 <= rep1.D2 + 1e-12


def test_asymmetric_grid_rejected(example_spec):
    with pytest.raises(ConfigError):
        validate_assumptions(example_spec, np.linspace(-10, 20, 31))


def test_malformed_polynomial_rejected():
    with pytest.raises(ConfigError):
        poly_degree([])
    with pytest.raises(ConfigError):
        polyval_im([], 0.0)


def test_forcing_borel_constant_and_monomial(example_spec):
    spec = example_spec
    spec.forcing.lambda0 = {0: FourierSymbol(num=[1.0])}
    for tau in (0.3 + 0.1j, 2.0, -1.0j):
        assert forcing_borel(spec, 0, tau, 0.7, 0.01) == pytest.approx(1.0)
    c = 0.6 - 0.2j
    spec.forcing.lambda0 = {2: FourierSymbol(num=[[c.real, c.imag]])}
    tau = 0.4 + 0.2j
    assert forcing_borel(spec, 0, tau, 0.0, 0.0) == pytest.approx(c * tau ** 2)


def test_forcing_borel_two_powers_matches_direct_sum(example_spec):
    spec = example_spec
    m, eps = 0.35, 0.012 + 0.003j
    a = spec.forcing.lambda1[0](m, eps)
    spec.forcing.lambda1 = {
        0: spec.forcing.lambda1[0],
        1: FourierSymbol(num=[0.03], gauss=0.5),
    }
    b = spec.forcing.lambda1[1](m, eps)
    tau = 0.25 - 0.4j
    want = a + b * tau
    assert forcing_borel(spec, 1, tau, m, eps) == pytest.approx(want)


def test_forcing_borel_is_polynomial_in_tau(example_spec):
    # finite differences of order max(Lambda_0)+1 in tau must vanish
    spec = example_spec
    deg = max(spec.forcing.lambda0)
    h = 0.05
    taus = np.array([0.2 + j * h for j in range(deg + 2)], dtype=complex)
    vals = np.array([forcing_borel(spec, 0, t, 0.4, 0.01) for t in taus])
    for _ in range(deg + 1):
        vals = np.diff(vals)
    assert np.all(np.abs(vals) < 1e-12)


def test_symbol_table_path_and_eps_coefficients():
    m = np.linspace(-5, 5, 101)
    sym = FourierSymbol(eps_poly=[1.0, 2.0], table=(m, np.exp(-m ** 2)))
    assert sym(0.0, 0.0) == pytest.approx(1.0)
    assert sym(0.0, 0.5) == pytest.approx(2.0)
    assert sym(7.0, 0.0) == 0.0  # outside declared range
    c1 = sym.eps_coefficient(1)
    assert c1(0.0) == pytest.approx(2.0)
    assert sym.eps_degree == 1


def test_pm_symbol_matches_direct_formula(example_spec):
    spec = example_spec
    tau = np.array([0.1 + 0.2j, -0.3, 1.5j])
    m = np.array([-1.0, 0.0, 2.0])
    got = spec.pm(tau, m)
    qf = spec.q ** (-spec.dD * (spec.dD - 1) / (2.0 * spec.k))
    for i, t in enumerate(tau):
        for j, mm in enumerate(m):
            want = (polyval_im(spec.Q, mm) -
                    qf * polyval_im(spec.RD, mm) * t ** spec.dD)
            assert got[i, j] == pytest.approx(want)


def test_integer_keys_take_integral_numbers_only(problem_dict):
    # an int or an integral float loads; a bool, a fraction, a non-finite
    # float or a string is refused with the key named, not truncated
    as_int = READERS["int"]
    assert as_int(3, "k") == 3 and as_int(3.0, "k") == 3
    for bad in (True, 1.7, float("inf"), float("nan"), "3", None):
        with pytest.raises(ConfigError, match="seed"):
            as_int(bad, "seed")
    problem_dict["terms"][0]["delta"] = [1.0, 13.0]
    assert ProblemSpec.from_dict(problem_dict).terms[0].delta == Fraction(1, 13)
    for key, bad in (("k", 13.5), ("D", True), ("dD", "1")):
        with pytest.raises(ConfigError, match=key):
            ProblemSpec.from_dict(dict(problem_dict, **{key: bad}))
    problem_dict["terms"][0]["delta"] = [1, 13.2]
    with pytest.raises(ConfigError, match=r"terms\[0\] delta"):
        ProblemSpec.from_dict(problem_dict)


@pytest.mark.parametrize("coeffs", [
    [3],
    [1, -2, 0, 5],
    [0.25, 0.0, -1.5, 2.0 / 3.0],
    np.array([1.0 + 2.0j, -0.5j, 0.3, -1e-3 + 4.0j]),
])
def test_polyval_gives_the_bits_of_numpys(coeffs):
    # Horner's rule in numpy.polynomial's order of operations: every bit
    # equal on real and complex coefficients and points, from a scalar to a
    # 2-D array
    rng = np.random.default_rng(7)
    points = [0.37, -2.5, 1.5 - 0.25j, np.float64(0.9), complex(-0.0, 3.0),
              rng.standard_normal(17), 1j * rng.standard_normal(17),
              rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))]
    for x in points:
        got = polyval(x, coeffs)
        want = np.polynomial.polynomial.polyval(x, coeffs)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x
