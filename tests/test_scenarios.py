"""Scenario registry, parameter validation, and sampling helpers."""

import numpy as np
import pytest

from bundlecurv.curvature import decomposition_terms
from bundlecurv.fields import ChartPoint, ConfigError, partial
from bundlecurv.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    sample_group_coordinates,
    sample_points,
)

from conftest import assert_close


def test_registry_names():
    assert SCENARIO_NAMES == ("abelian_limit", "flat_product",
                              "scaled_orbit", "twisted_bundle")


def test_every_scenario_builds_and_validates():
    for name in SCENARIO_NAMES:
        scen = build_scenario(name)
        assert scen.name == name
        assert scen.orig is not None
        assert scen.adapted.orig is scen.orig
        assert (scen.n_x, scen.n_v, scen.n_g) == (2, 3, 3)
        assert scen.adapted.n_t == 8


def test_unknown_scenario_and_parameter():
    with pytest.raises(ConfigError, match="unknown scenario"):
        build_scenario("moebius")
    with pytest.raises(ConfigError, match="unknown scenario parameter"):
        build_scenario("twisted_bundle", {"twistiness": 2.0})


def test_parameter_range_gates():
    with pytest.raises(ConfigError):
        build_scenario("flat_product", {"lam": -1.0})
    with pytest.raises(ConfigError):
        build_scenario("flat_product", {"group": "so3"})
    with pytest.raises(ConfigError):
        build_scenario("flat_product", {"gv_offdiag": 1.0})
    with pytest.raises(ConfigError):
        build_scenario("twisted_bundle", {"lam_v": 0.0})
    with pytest.raises(ConfigError):
        build_scenario("scaled_orbit", {"slope": float("inf")})


def test_keyword_parameters_win():
    scen = build_scenario("flat_product", {"lam": 2.0}, lam=3.0)
    assert scen.params["lam"] == 3.0


def test_flat_expected_values():
    su2 = build_scenario("flat_product", {"lam": 2.0})
    assert su2.expected["jacobian_zero"] is True
    assert_close(su2.expected["r_group"], -0.75, 1e-12, "su2 expectation")
    trivial = build_scenario("flat_product", {"group": "abelian"})
    assert trivial.expected["r_group"] == 0.0
    a = np.array([0.2, 0.1, 0.3])
    np.testing.assert_allclose(trivial.chart.rho(a), np.eye(3))


def test_scaled_expected_values_are_measured(engine):
    scen = build_scenario("scaled_orbit", {"slope": 1.3})
    want = 9.0 * 1.3 ** 2
    assert_close(scen.expected["grad_ln_d"], want, 1e-12, "stored gradient")
    assert_close(scen.expected["jacobian"], want, 1e-12, "stored Jacobian")
    assert_close(scen.expected["dddd"], 3.0 * 1.3 ** 2, 1e-12, "stored DdDd")
    point = ChartPoint([0.1, -0.2], [0.0, 0.1, 0.2])
    b = decomposition_terms(scen.adapted, point, engine)
    assert_close(b.grad_ln_d, want, 1e-8, "measured gradient")


def test_scaled_analytic_derivative_wired(engine):
    """The FD orbit-metric derivative against its closed form: only the
    first base slot moves d = e^{2 slope x0} I."""
    scen = build_scenario("scaled_orbit")
    slope = scen.params["slope"]
    point = ChartPoint([0.25, 0.1], [0.1, 0.0, -0.2])
    got = partial(engine, scen.adapted.d.d, point, range(5))
    want = np.zeros((5, 3, 3))
    want[0] = 2.0 * slope * np.exp(2.0 * slope * 0.25) * np.eye(3)
    assert_close(got, want, 1e-8, "FD vs closed-form orbit-metric derivative")


def test_sample_points_behavior(twisted):
    center = sample_points(twisted, 1)
    assert len(center) == 1
    np.testing.assert_allclose(center[0].coords, np.zeros(5))

    pts_a = sample_points(twisted, 10, seed=5)
    pts_b = sample_points(twisted, 10, seed=5)
    pts_c = sample_points(twisted, 10, seed=6)
    assert len(pts_a) == 10
    for p, q in zip(pts_a, pts_b):
        assert np.array_equal(p.coords, q.coords)
    assert not np.array_equal(pts_a[0].coords, pts_c[0].coords)
    box = twisted.sample_domain
    for p in pts_a:
        assert np.all(p.coords >= box[:, 0]) and np.all(p.coords <= box[:, 1])
    with pytest.raises(ConfigError):
        sample_points(twisted, 0)


def test_sample_group_coordinates_behavior(twisted):
    a_vals = sample_group_coordinates(twisted, 7, seed=3)
    assert a_vals.shape == (7, 3)
    box = twisted.a_domain
    assert np.all(a_vals >= box[:, 0]) and np.all(a_vals <= box[:, 1])
    center = sample_group_coordinates(twisted, 1)
    np.testing.assert_allclose(center[0], 0.5 * (box[:, 0] + box[:, 1]))
    with pytest.raises(ConfigError):
        sample_group_coordinates(twisted, 0)


def test_potential_field(twisted):
    point = ChartPoint([0.3, -0.4], [0.1, 0.2, 0.3])
    want = 0.5 * (0.09 + 0.16) + 0.15 * (0.01 + 0.04 + 0.09)
    assert_close(twisted.potential(point), want, 1e-12, "potential values")


def test_abelian_scenario_is_torsion_free(abelian):
    np.testing.assert_allclose(abelian.adapted.c.c, np.zeros((3, 3, 3)))
    assert abelian.chart is not None
    # twisted connection survives the abelian limit
    point = sample_points(abelian, 1)[0]
    a_val = np.asarray(abelian.adapted.A_conn(point), dtype=float)
    assert np.max(np.abs(a_val)) > 1e-3
