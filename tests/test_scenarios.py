"""Scenario registry, parameter validation, and sampling helpers."""

import numpy as np
import pytest

from bundlecurv.curvature import decomposition_terms, oracle_metric
from bundlecurv.fields import ChartPoint, ConfigError, partial
from bundlecurv.scenarios import (
    SCENARIO_NAMES,
    _SERIES_TERMS,
    _SU2_GENS,
    _cross,
    _dexp_apply,
    _exp_series,
    _phi_series,
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
    got = partial(engine, scen.adapted.d.d, point.coords[None], point.n_x,
                  range(5))[0]
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


def _exp_one(mat):
    """One-matrix reference of the exponential series."""
    total = term = np.eye(3)
    for k in range(1, _SERIES_TERMS):
        term = term @ mat / k
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total


def _phi_one(mat):
    """One-matrix reference of the subgroup Jacobian series."""
    total = term = np.eye(3)
    fact = 1.0
    for k in range(1, _SERIES_TERMS):
        term = term @ mat
        fact = fact * (k + 1)
        piece = term / fact
        total = total + piece
        if np.max(np.abs(piece)) < 1e-18:
            break
    return total


def _dexp_one(x_mat, y_mat):
    """One-matrix reference of phi(ad_X)(Y)."""
    total = np.zeros_like(y_mat)
    term = y_mat
    fact = 1.0
    for k in range(_SERIES_TERMS):
        total = total + term / fact
        term = x_mat @ term - term @ x_mat
        fact = fact * (k + 2)
        if np.max(np.abs(term)) / fact < 1e-18:
            break
    return total


def test_stacked_series_equal_one_matrix_sums():
    """Mixed scales in one stack: each matrix stops where it would alone,
    so every sum equals the one-matrix loop bit for bit."""
    rng = np.random.default_rng(67)
    vecs = np.concatenate([np.zeros((2, 3)),
                           rng.uniform(-2e-3, 2e-3, (3, 3)),
                           rng.uniform(-0.4, 0.4, (3, 3)),
                           rng.uniform(-2.0, 2.0, (2, 3))])
    mats = _cross(vecs)
    for v, m in zip(vecs, mats):
        want = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                         [-v[1], v[0], 0.0]])
        assert m.tobytes() == want.tobytes()
    for g, gen in enumerate(_SU2_GENS):
        want = np.stack([_dexp_one(m, gen) for m in mats])
        assert _dexp_apply(mats, gen).tobytes() == want.tobytes(), g
    for series, one in ((_exp_series, _exp_one), (_phi_series, _phi_one)):
        want = np.stack([one(m) for m in mats])
        got = series(mats.reshape(2, 5, 3, 3))
        assert got.shape == (2, 5, 3, 3)
        assert got.reshape(mats.shape).tobytes() == want.tobytes()


def _assert_rowwise(func, args, what):
    """``func`` on whole stacks equals the stack of its one-row calls,
    bit for bit."""
    stacked = func(*args)
    rows = np.concatenate([func(*(arg[i:i + 1] for arg in args))
                           for i in range(len(args[0]))])
    assert stacked.shape == rows.shape, what
    assert stacked.tobytes() == rows.tobytes(), what


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_callables_on_a_stack_equal_their_one_row_calls(name):
    """Section rows (b = 0), finite-difference offsets (|b| near 1e-3) and
    group draws of the oracle, all in one stack; the last rows repeat
    earlier ones, or differ from them only by the sign of a zero, which
    ``oracle_metric`` must keep apart as it runs its group side once per
    distinct row."""
    orig = build_scenario(name).orig
    rng = np.random.default_rng(61)
    xs = rng.uniform(-0.4, 0.4, (12, orig.n_x))
    fs = rng.uniform(-0.4, 0.4, (12, orig.n_v))
    bs = np.concatenate([
        np.zeros((4, orig.n_g)),
        rng.choice([-1.0, 1.0], (4, orig.n_g))
        * rng.uniform(0.5e-3, 2e-3, (4, orig.n_g)),
        rng.uniform(0.1, 0.35, (4, orig.n_g))])
    xs = np.concatenate([xs, xs[[9, 9]], [[0.0, 0.1], [-0.0, 0.1]]])
    fs = np.concatenate([fs, fs[[9, 2, 3, 3]]])
    bs = np.concatenate([bs, bs[[9, 9]], [[0.2, -0.0, 0.1], [0.2, 0.0, 0.1]]])
    qs = np.concatenate([xs, bs], axis=1)
    calls = {"section": (xs,), "section_jac": (xs,), "G_P": (qs,),
             "K_P": (qs,), "chi": (qs,), "chi_jac": (qs,),
             "right_translate": (xs, bs), "right_translate_jac": (xs, bs),
             "vspace_action": (bs,), "vspace_action_d": (bs,)}
    for what, args in calls.items():
        _assert_rowwise(getattr(orig, what), args, what)
    _assert_rowwise(orig.K_vector, (fs,), "K_vector")
    _assert_rowwise(lambda x, f, a: oracle_metric(orig, x, f, a),
                    (xs, fs, bs), "oracle_metric")


def test_abelian_scenario_is_torsion_free(abelian):
    np.testing.assert_allclose(abelian.adapted.c.c, np.zeros((3, 3, 3)))
    assert abelian.chart is not None
    # twisted connection survives the abelian limit
    point = sample_points(abelian, 1)[0]
    a_val = np.asarray(abelian.adapted.A_conn(point), dtype=float)
    assert np.max(np.abs(a_val)) > 1e-3
