"""Scenario registry, parameter validation, and sampling helpers."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import (decomposition_terms, oracle_metric,
                                  scalar_curvature_coordinate_oracle)
from bundlecurv.fields import ChartPoint, ConfigError, coordinate_partials
from bundlecurv.geometry import frames_at, validate_original
from bundlecurv.liecore import (StructureConstants, abelian_constants,
                                su2_constants)
from bundlecurv.scenarios import (
    SCENARIO_NAMES,
    _SERIES_TERMS,
    _SU2_GENS,
    _build_original,
    _dexp_apply,
    _exp_series,
    _phi_series,
    _scenario,
    build_scenario,
    sample_group_coordinates,
    sample_points,
)

from bundlecurv import scenarios
from bundlecurv.verify import run_checks

from conftest import assert_close, frame_array


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
    # an abelian group factor does not move off the section
    q = np.array([[0.1, -0.2, 0.2, 0.1, 0.3]])
    section = np.concatenate([q[:, :2], np.zeros((1, 3))], axis=1)
    assert np.array_equal(trivial.orig.G_P(q), trivial.orig.G_P(section))


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
    got = coordinate_partials(frame_array(scen.adapted, "d"), point.coords,
                              engine.fd_step)
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
    for count in (1, 3):
        with pytest.raises(ConfigError, match="seed"):
            sample_points(twisted, count, seed=-1)


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
    mats = np.einsum("ng,egm->nem", vecs, su2_constants().c)
    for v, m in zip(vecs, mats):
        want = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                         [-v[1], v[0], 0.0]])
        np.testing.assert_array_equal(m, want)
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
    # the Killing fields are the coordinate fields of the group factor,
    # off the section too
    q = np.array([[0.1, -0.2, 0.2, 0.1, 0.3]])
    want = np.concatenate([np.zeros((2, 3)), np.eye(3)])
    assert np.array_equal(abelian.orig.K_P(q)[0], want)
    # twisted connection survives the abelian limit
    point = sample_points(abelian, 1)[0]
    a_val = frames_at(abelian.adapted, point.coords[None]).A[0]
    assert np.max(np.abs(a_val)) > 1e-3


def test_series_keep_empty_matrices():
    """Stacks of 0 x 0 matrices, as a group acting on no vector sector
    gives, keep their leading shape through every series."""
    empty = np.zeros((2, 4, 0, 0))
    for series in (_exp_series, _phi_series):
        assert series(empty).shape == (2, 4, 0, 0)
    assert _dexp_apply(empty, np.zeros((4, 0, 0))).shape == (2, 4, 0, 0)


def _su2_u1():
    """su(2) + u(1): the su(2) constants on the first three directions."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = su2_constants().c
    return StructureConstants(4, c)


#: (n_x, n_v, constants, vector-sector generators, G_V) of shapes other
#: than the registered 2/3/3
_SHAPES = {
    "su2+u1": (2, 3, _su2_u1(),
               np.concatenate([_SU2_GENS, np.zeros((1, 3, 3))]),
               1.2 * np.eye(3)),
    "u1": (3, 2, abelian_constants(1),
           np.array([[[0.0, -0.7], [0.7, 0.0]]]), 1.3 * np.eye(2)),
    "su2-no-vectors": (2, 0, su2_constants(), np.zeros((3, 0, 0)),
                       np.zeros((0, 0))),
}


def _shape_scenario(n_x, c, gens, g_v):
    """A bundle over an ``n_x``-dim base from small closed-form blocks."""
    n_g = c.n_g

    def g_func(x):
        out = np.repeat(np.eye(n_x)[None], len(x), axis=0)
        out[:, 0, 0] += 0.1 * np.sin(x[:, -1])
        return out

    def bbar_func(x):
        return (np.diag(1.0 + 0.2 * np.arange(n_g))
                + (0.1 * np.sin(x[:, 0]))[:, None, None])

    def twist_func(x):
        out = np.empty((len(x), n_g, n_x))
        for g in range(n_g):
            for i in range(n_x):
                out[:, g, i] = 0.05 * (g - i) + 0.2 * x[:, (g + i) % n_x]
        return out

    return _scenario("shape", _build_original(
        n_x=n_x, g_func=g_func, bbar_func=bbar_func, twist_func=twist_func,
        gens=gens, g_v=g_v, c=c))


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_builder_takes_any_shape(shape, engine):
    """The builder reads the group from ``c`` alone: n_g = 4 and n_g = 1
    groups and an empty vector sector pass the geometry gates, all seven
    checks, and the frame-free oracle."""
    n_x, n_v, c, gens, g_v = _SHAPES[shape]
    scen = _shape_scenario(n_x, c, gens, g_v)
    assert (scen.n_x, scen.n_v, scen.n_g) == (n_x, n_v, c.n_g)
    probes = sample_points(scen, 3, seed=11)
    report = validate_original(scen.orig, probes,
                               group_points=sample_group_coordinates(
                                   scen, 3, seed=11))
    assert report.ok, report
    checks = run_checks(scen, sample_points(scen, 3, seed=12), engine=engine)
    assert len(checks.results) == 7 and not checks.not_run
    assert checks.passed, [(r.name, r.max_residual) for r in checks.results]
    point = probes[0]
    total = decomposition_terms(scen.adapted, point, engine).R_total
    for a in sample_group_coordinates(scen, 2, seed=13):
        oracle = scalar_curvature_coordinate_oracle(scen.orig, None, point.x,
                                                    point.f, a, engine)
        assert_close(oracle, total, 1e-6, "oracle vs decomposition")


def test_build_names_the_worst_bracket(twisted, monkeypatch):
    """Bundle data whose Killing fields do not close under its own ``c``
    fail the build, naming the worst pair."""
    c = np.array(twisted.orig.c.c)
    c[2, 0, 1] *= 1.1
    c[2, 1, 0] *= 1.1
    bad = dataclasses.replace(twisted.orig, c=StructureConstants(3, c))
    monkeypatch.setitem(scenarios._REGISTRY, "twisted_bundle",
                        lambda params: dataclasses.replace(twisted, orig=bad))
    with pytest.raises(ConfigError, match=r"bracket 1\.00e-01, worst at "
                                          r"\(alpha, beta\) = \(0, 1\)"):
        build_scenario("twisted_bundle")
