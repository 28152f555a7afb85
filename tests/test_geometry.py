import math
from pathlib import Path

import numpy as np
import pytest

from qborel import geometry, problem_model
from qborel.errors import ConfigError, GeometryError
from qborel.geometry import (
    SECTOR_APERTURE,
    bound_constants,
    build_good_covering,
    check_assumption_d,
    check_smallness,
    default_delta,
    make_geometry,
    measure_c2,
    operator_constants,
    pm_roots,
    ray_cone_clearance,
    sector_root_clearance,
    set_dist_to_shift,
)
from qborel.problem_model import ProblemSpec, ratio_bounds, validate_assumptions
from tests.oracles import c_d_scan, coverage_count

M_GRID = np.linspace(-50, 50, 2001)


@pytest.fixture
def example_geometry(example_spec):
    return make_geometry(example_spec, d=0.0, m_grid=M_GRID)


def test_single_root_at_m0_is_exact(example_spec):
    roots = pm_roots(example_spec, 0.0)
    assert roots.shape == (1,)
    assert roots[0] == -0.5 + 0.0j


def test_root_formula_general_m(example_spec):
    for m in (-3.0, 0.7, 12.0):
        want = -(m * m + 1.0) / (m * m + 2.0)
        assert pm_roots(example_spec, m)[0] == pytest.approx(want, rel=1e-14)


def test_roots_match_companion_matrix_on_random_specs(problem_dict):
    rng = np.random.default_rng(11)
    for trial in range(12):
        dD = int(rng.integers(1, 5))
        d = dict(problem_dict)
        d["dD"] = dD
        d["k"] = int(rng.integers(1, 6))
        d["Q"] = list(rng.standard_normal(3)) if rng.random() < 0.5 else [1.0, 0.2, 0.5]
        d["RD"] = list(rng.standard_normal(2)) + [0.7 + 0.1 * trial]
        spec = ProblemSpec.from_dict(d)
        m = float(rng.uniform(-4, 4))
        qf = spec.q ** (-dD * (dD - 1) / (2.0 * spec.k))
        from qborel.problem_model import polyval_im

        coeffs = np.zeros(dD + 1, dtype=complex)
        coeffs[0] = polyval_im(spec.Q, m)
        coeffs[-1] = -qf * polyval_im(spec.RD, m)
        oracle = np.roots(coeffs[::-1])
        got = np.sort_complex(pm_roots(spec, m))
        assert np.allclose(np.sort_complex(oracle), got, atol=1e-10)


def test_sector_avoids_roots_on_positive_axis(example_spec):
    gap, witness = sector_root_clearance(example_spec, 0.0, SECTOR_APERTURE, M_GRID)
    assert witness is None and gap > 0
    gap_pi, witness_pi = sector_root_clearance(example_spec, math.pi, SECTOR_APERTURE, M_GRID)
    assert witness_pi is not None


def _scalar_root_clearance(spec, d, aperture, m_grid):
    """Reference scan: one pm_roots call per m, first strict minimum wins."""
    half = aperture / 2.0
    worst, witness = math.inf, None
    for m in np.asarray(m_grid, dtype=float):
        for ell, r in enumerate(pm_roots(spec, m)):
            gap = abs(math.remainder(np.angle(r) - d, 2.0 * math.pi)) - half
            if gap < worst:
                worst, witness = gap, (float(m), int(ell))
    return worst, (witness if worst <= 0 else None)


def test_vectorised_root_clearance_matches_scalar_scan(problem_dict):
    m_grid = np.linspace(-50, 50, 401)
    dD2 = dict(problem_dict, dD=2, Q=[1.0, [0.0, 0.2], -1.0],
               RD=[-2.0, [0.3, 0.1], 1.0])
    for spec in (ProblemSpec.from_dict(problem_dict), ProblemSpec.from_dict(dD2)):
        # a clear direction, the direction of a root ray (blocked) and its
        # neighbour one ulp away
        clear = 0.0 if spec.dD == 1 else float(np.angle(pm_roots(spec, 0.0)[0])) + 0.5 * math.pi
        hit = float(np.angle(pm_roots(spec, m_grid[57])[spec.dD - 1]))
        for d in (clear, hit, math.nextafter(hit, 4.0), math.pi, -math.pi):
            assert sector_root_clearance(spec, d, SECTOR_APERTURE, m_grid) == \
                _scalar_root_clearance(spec, d, SECTOR_APERTURE, m_grid)
        assert sector_root_clearance(spec, clear, SECTOR_APERTURE, m_grid)[1] is None
        assert sector_root_clearance(spec, hit, SECTOR_APERTURE, m_grid)[1] is not None


def test_default_delta_meets_distance_condition(example_spec):
    rho = 0.24
    delta = default_delta(0.0, SECTOR_APERTURE, rho)
    assert set_dist_to_shift(0.0, SECTOR_APERTURE, rho, delta) >= 1.0 - 1e-9
    assert set_dist_to_shift(0.0, SECTOR_APERTURE, rho, delta - 1e-3) < 1.0


def test_example_constants(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    assert consts["D1"] == pytest.approx(0.5, abs=1e-6)
    assert consts["D2"] == pytest.approx(1.0, abs=1e-6)
    assert consts["D31"] >= 1.0
    assert consts["D32"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert consts["D3"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert consts["C_D"] >= 0.5
    assert consts["C_D"] >= consts["C_D_floor"] - 1e-12


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_c_d_closed_form_is_the_disc_scan_on_the_shipped_configs(name):
    # on both shipped specs R_D/Q is real and negative, so the minimum over
    # the disc lies at tau = -rho, a node of the scan's polar grid
    from qborel.cli import _geometry, load_config

    rc = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    geom = _geometry(rc, {})
    c_d = bound_constants(rc.spec, geom, rc.geometry_m_grid)["C_D"]
    assert c_d == c_d_scan(rc.spec, geom.rho, rc.geometry_m_grid) == 0.51


@pytest.mark.parametrize("edit", ["complex_rd", "dD2", "dD0", "large_rho"])
def test_c_d_closed_form_is_at_most_the_disc_scan(problem_dict, edit):
    # the closed form is the minimum over the whole disc, so no grid of it
    # reads lower; a complex R_D/Q puts the minimiser off the scan's angles
    if edit == "complex_rd":
        problem_dict["RD"] = [-2.0, 3.0, 1.0]
    elif edit == "dD2":
        problem_dict["dD"] = 2
    elif edit == "dD0":
        problem_dict["dD"] = 0
        problem_dict["RD"] = [-1.0, 0.0, 0.25]
        problem_dict["terms"][0]["delta"] = [0, 1]
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=M_GRID)
    rho = 3.0 if edit == "large_rho" else geom.rho
    if edit == "large_rho":
        geom = geometry.SectorGeometry(d=geom.d, aperture=geom.aperture, rho=rho,
                                       delta=geom.delta)
    c_d = bound_constants(spec, geom, M_GRID)["C_D"]
    scan = c_d_scan(spec, rho, M_GRID)
    assert 0.0 <= c_d <= scan
    if edit == "complex_rd":
        assert c_d < scan - 1e-6
    if edit == "dD0":
        assert c_d == scan
    if edit == "large_rho":
        assert c_d == 0.0


def test_lemma_floor_at_dD1(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    assert consts["C_D_floor"] == pytest.approx(0.5)


def test_pm_lower_bounds_on_grids(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    m = np.linspace(-20, 20, 401)
    from qborel.problem_model import polyval_im

    q_abs = np.abs(polyval_im(example_spec.Q, m))
    radii = np.linspace(0, example_geometry.rho, 25)
    angles = np.linspace(0, 2 * math.pi, 17)
    disc = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    assert np.all(np.abs(example_spec.pm(disc, m)) >= consts["C_D"] * q_abs[None, :] - 1e-12)
    ray = np.exp(np.linspace(math.log(1e-3), math.log(50.0), 300)).astype(complex)
    lower = consts["D3"] * (1 + np.abs(ray)) ** example_spec.dD
    assert np.all(np.abs(example_spec.pm(ray, m)) >= lower[:, None] * q_abs[None, :] - 1e-12)


def test_assumption_d_threshold_is_13(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    res = check_assumption_d(example_spec, consts)
    assert res["k_threshold"] == 13
    assert res["pass"]  # the instance has k = 13


def test_assumption_d_fails_at_k12(problem_dict):
    problem_dict["k"] = 12
    problem_dict["terms"][0]["delta"] = [1, 12]
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=M_GRID)
    consts = bound_constants(spec, geom, M_GRID)
    res = check_assumption_d(spec, consts)
    assert not res["pass"] and res["k_threshold"] == 13


def test_assumption_d_trivial_for_dD0(problem_dict):
    problem_dict["dD"] = 0
    problem_dict["RD"] = [-1.0, 0.0, 0.25]
    problem_dict["terms"][0]["delta"] = [0, 1]
    spec = ProblemSpec.from_dict(problem_dict)
    geom = make_geometry(spec, d=0.0, m_grid=M_GRID)
    consts = bound_constants(spec, geom, M_GRID)
    assert check_assumption_d(spec, consts)["pass"]


def test_assumption_d_margin_monotone_in_k(problem_dict):
    margins = []
    for k in (13, 26):
        problem_dict["k"] = k
        problem_dict["terms"][0]["delta"] = [1, k]
        spec = ProblemSpec.from_dict(problem_dict)
        geom = make_geometry(spec, d=0.0, m_grid=M_GRID)
        consts = bound_constants(spec, geom, M_GRID)
        margins.append(check_assumption_d(spec, consts)["margin"])
    assert 0 < margins[0] < margins[1]


def test_smallness_on_example(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    ops = operator_constants(example_spec, example_geometry, consts, M_GRID)
    res = check_smallness(example_spec, consts, example_spec.eps0,
                          example_spec.coeffs.C_B, ops["C2_plain"], ops["C3"])
    assert res["pass"], res
    # first summand alone is 6/13 for this instance
    assert res["terms"][0] == pytest.approx(6.0 / 13.0, rel=1e-6)


def test_smallness_limits(example_spec, example_geometry):
    consts = bound_constants(example_spec, example_geometry, M_GRID)
    ops = operator_constants(example_spec, example_geometry, consts, M_GRID)
    # eps0 -> 0 and varsigma_b -> 0 keep only the Assumption (D) term
    res = check_smallness(example_spec, consts, 1e-12, 0.0, ops["C2_plain"], ops["C3"])
    assert res["pass"] and res["lhs"] == pytest.approx(res["terms"][0])
    # a huge b-envelope breaks the budget through the third summand
    res_bad = check_smallness(example_spec, consts, example_spec.eps0, 50.0,
                              ops["C2_plain"], ops["C3"])
    assert not res_bad["pass"] and res_bad["lhs"] > 0.5


def test_measure_c2_finite_and_stable(example_spec):
    m1 = np.linspace(-50, 50, 1001)
    m2 = np.linspace(-50, 50, 2001)
    b = lambda m: np.full(np.shape(m), 1.0 / math.sqrt(2 * math.pi))
    c_a = measure_c2(b(m1), [1.0], example_spec.mu, m1)
    c_b = measure_c2(b(m2), [1.0], example_spec.mu, m2)
    assert 0 < c_a < 10
    assert c_b == pytest.approx(c_a, rel=2e-2)
    # reference: the integral as a dense double sum over all node pairs
    m, mu = m1, example_spec.mu
    h = np.abs(np.polynomial.polynomial.polyval(1j * m, [0.25, 0.0, 0.25]))
    inner = (1.0 + np.abs(m[:, None] - m[None, :])) ** (-mu) * ((1.0 + np.abs(m)) ** (-mu) * h)
    want = np.max((1.0 + np.abs(m)) ** mu * b(m) * inner.sum(axis=1) * (m[1] - m[0]))
    assert measure_c2(b(m), [0.25, 0.0, 0.25], mu, m) == pytest.approx(want, rel=1e-12)


def test_ray_cone_clearance():
    # T arguments near d + pi are the dangerous ones
    assert ray_cone_clearance(0.0, -0.5, 0.5) == 1.0
    assert ray_cone_clearance(0.0, math.pi - 0.1, math.pi + 0.1) < 0.11


def test_build_good_covering(example_spec):
    cov = build_good_covering(4, example_spec.eps0, example_spec,
                              t_radius=0.02, m_grid=np.linspace(-50, 50, 401))
    assert len(cov.d_rays) == 4
    # every angle lies in one or two sectors, never three, never zero
    for ang in np.linspace(0, 2 * math.pi, 3600, endpoint=False):
        assert 1 <= coverage_count(cov, ang) <= 2
    # chosen rays avoid the root locus at pi
    for d in cov.d_rays:
        assert abs(math.remainder(d - math.pi, 2 * math.pi)) > SECTOR_APERTURE / 2


def test_good_covering_two_sectors(example_spec):
    cov = build_good_covering(2, example_spec.eps0, example_spec,
                              t_radius=0.02, m_grid=np.linspace(-50, 50, 201))
    for ang in np.linspace(0, 2 * math.pi, 1800, endpoint=False):
        assert 1 <= coverage_count(cov, ang) <= 2


def test_covering_rejects_oversized_radius(example_spec):
    with pytest.raises(GeometryError):
        build_good_covering(2, example_spec.eps0, example_spec, t_radius=500.0)


@pytest.mark.parametrize("name", ["example_k13.json", "asymptotics_k13.json"])
def test_covering_scans_roots_only_off_the_negative_axis(monkeypatch, name):
    # the negative-axis test runs before the root scan, so the candidates
    # near pi that it rejects cost no scan of the m grid: one scan per sector
    import qborel.geometry as geometry
    from qborel.cli import load_config

    rc = load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    scanned = []
    scan = geometry.sector_root_clearance

    def counted(spec, d, *args):
        scanned.append(d)
        return scan(spec, d, *args)

    monkeypatch.setattr(geometry, "sector_root_clearance", counted)
    cov = build_good_covering(rc.zeta, rc.spec.eps0, rc.spec, t_radius=rc.t_radius,
                              t_aperture=rc.t_aperture, t_direction=rc.t_direction,
                              m_grid=rc.geometry_m_grid, Delta=rc.Delta)
    assert cov.d_rays == [0.0, -3.045599544730105]
    assert scanned == cov.d_rays


def test_make_geometry_reads_the_ratio_bounds_without_validating(problem_dict, monkeypatch):
    # make_geometry reads only D1 and D2, so it runs none of the other
    # assumption checks; its bounds are validate_assumptions' own
    def refuse(*args, **kwargs):
        raise AssertionError("make_geometry ran validate_assumptions")

    example = ProblemSpec.from_dict(problem_dict)
    problem_dict["dD"] = 0
    problem_dict["RD"] = [-1.0, 0.0, 0.25]
    problem_dict["terms"][0]["delta"] = [0, 1]
    specs = [example, ProblemSpec.from_dict(problem_dict)]
    wants = [validate_assumptions(spec, M_GRID) for spec in specs]
    monkeypatch.setattr(problem_model, "validate_assumptions", refuse)
    monkeypatch.setattr(geometry, "validate_assumptions", refuse, raising=False)
    for spec, want in zip(specs, wants):
        geom = make_geometry(spec, d=0.0, m_grid=M_GRID)
        assert (geom.constants["D1"], geom.constants["D2"]) == (want.D1, want.D2)
        assert math.isfinite(want.D1) and want.D1 > 0
    # the grid checks stay, and a ratio with a zero on the grid has no bounds
    for grid in (np.array([]), np.linspace(-10, 20, 31)):
        with pytest.raises(ConfigError, match="m grid"):
            make_geometry(example, d=0.0, m_grid=grid)
    problem_dict["RD"] = [1.0, 0.0, 1.0]                # R_D(im) = 1 - m^2
    assert all(map(math.isnan, ratio_bounds(ProblemSpec.from_dict(problem_dict),
                                            np.linspace(-2, 2, 5))))
