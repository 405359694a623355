import numpy as np
import pytest

from machstem import shock_relations as sr

DEG = np.degrees
RAD = np.radians

# Frozen oracle values, independently recomputed with a 50-digit
# bisection of the same closed-form relations before being pinned here.
THETA_N_M3 = 19.655574
THETA_D_M3 = 21.457804
THETA_N_M4 = 20.854177
THETA_D_M4 = 25.606662


def test_normal_shock_ratios_m3():
    assert sr.normal_shock_pressure_ratio(3.0) == pytest.approx(10.333333, abs=1e-5)
    assert sr.normal_shock_density_ratio(3.0) == pytest.approx(3.857143, abs=1e-5)


def test_normal_shock_ratio_m4():
    assert sr.normal_shock_pressure_ratio(4.0) == pytest.approx(18.5, abs=1e-12)


def test_normal_shock_downstream_subsonic():
    for m in (1.2, 2.0, 3.0, 6.0):
        assert sr.normal_shock_mach(m) < 1.0


def test_max_deflection_m3():
    theta_max, beta_star = sr.max_deflection(3.0)
    assert DEG(theta_max) == pytest.approx(34.073440, abs=1e-4)
    assert sr.mach_angle(3.0) < beta_star < np.pi / 2


def test_max_deflection_monotone_in_mach():
    assert sr.max_deflection(4.0)[0] > sr.max_deflection(3.0)[0]


def test_beta_weak_values():
    assert DEG(sr.beta_from_theta(3.0, RAD(10.0))) == pytest.approx(27.382691, abs=1e-4)
    assert DEG(sr.beta_from_theta(3.0, RAD(20.0))) == pytest.approx(37.763634, abs=1e-4)


def test_beta_strong_value():
    b = sr.beta_from_theta(3.0, RAD(20.0), branch="strong")
    assert DEG(b) == pytest.approx(82.146671, abs=1e-4)


def test_beta_roundtrip():
    for m in (2.0, 3.0, 4.5):
        for theta_deg in (2.0, 8.0, 15.0):
            for branch in ("weak", "strong"):
                b = sr.beta_from_theta(m, RAD(theta_deg), branch=branch)
                assert DEG(sr.theta_from_beta(m, b)) == pytest.approx(
                    theta_deg, abs=1e-10)


def test_beta_weak_increasing_strong_decreasing():
    thetas = RAD(np.linspace(2.0, 20.0, 12))
    weak = [sr.beta_from_theta(3.0, t) for t in thetas]
    strong = [sr.beta_from_theta(3.0, t, branch="strong") for t in thetas]
    assert np.all(np.diff(weak) > 0)
    assert np.all(np.diff(strong) < 0)


def test_oblique_matches_normal_shock_limit():
    # beta -> 90 deg collapses onto the normal-shock relations.
    m = 2.5
    theta = sr.theta_from_beta(m, np.pi / 2 - 1e-9)
    assert abs(theta) < 1e-8
    msb = m
    assert sr.normal_shock_pressure_ratio(msb) == pytest.approx(
        1 + 2 * 1.4 / 2.4 * (m * m - 1), abs=1e-12)


def test_detached_deflection_raises_naming_maximum():
    with pytest.raises(ValueError) as err:
        sr.beta_from_theta(3.0, RAD(35.0))
    assert "34.07" in str(err.value)


def test_subsonic_upstream_rejected():
    with pytest.raises(ValueError):
        sr.beta_from_theta(0.8, RAD(5.0))


def test_oblique_shock_bundle():
    ob = sr.oblique_shock(3.0, RAD(20.0))
    assert ob.branch == "weak"
    assert ob.m2 == pytest.approx(1.994132, abs=1e-4)
    assert ob.pressure_ratio == pytest.approx(3.771257, abs=1e-4)
    assert ob.m2 > 1.0
    strong = sr.oblique_shock(3.0, RAD(20.0), branch="strong")
    assert strong.m2 < 1.0


def test_transition_angles_m3():
    assert DEG(sr.detachment_angle(3.0)) == pytest.approx(THETA_D_M3, abs=1e-4)
    assert DEG(sr.von_neumann_angle(3.0)) == pytest.approx(THETA_N_M3, abs=1e-4)


def test_transition_angles_m4():
    assert DEG(sr.detachment_angle(4.0)) == pytest.approx(THETA_D_M4, abs=1e-4)
    assert DEG(sr.von_neumann_angle(4.0)) == pytest.approx(THETA_N_M4, abs=1e-4)


def test_dual_solution_domain_ordering_and_growth():
    n3, d3 = sr.von_neumann_angle(3.0), sr.detachment_angle(3.0)
    n4, d4 = sr.von_neumann_angle(4.0), sr.detachment_angle(4.0)
    assert n3 < d3 and n4 < d4
    assert (d4 - n4) > (d3 - n3)
