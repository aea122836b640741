"""Metric-block builders: orbit metric, connection, horizontal blocks, projectors."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import oracle_metric
from bundlecurv.fields import ChartPoint, NearSingularError
from bundlecurv.geometry import (
    OriginalGeometry,
    ambient_partial,
    assemble_block_metric,
    build_connection,
    build_horizontal_metric,
    build_orbit_metric,
    build_projectors,
    compile_adapted,
    det_factorization_check,
    frame_cache_info,
    orbit_metric_split,
    point_frame,
    point_frames,
    validate_original,
)
from bundlecurv.liecore import StructureConstants, su2_constants
from bundlecurv.scenarios import (
    _build_original,
    _twisted_bbar,
    _twisted_g,
    _twisted_twist,
    build_scenario,
    sample_points,
)

from conftest import assert_close


def _conformal_orig(scale=1.0):
    """No group at all: a conformally flat plane plus nothing."""
    def g_p(q):
        return scale * np.exp(2.0 * q[0]) * np.eye(2)

    return OriginalGeometry(
        n_P=2, n_v=0, n_g=0,
        G_P=g_p, G_V=np.zeros((0, 0)),
        K_P=lambda q: np.zeros((2, 0)),
        gens=np.zeros((0, 0, 0)),
        section=lambda x: np.asarray(x, dtype=float).copy(),
        section_jac=lambda x: np.eye(2),
        chi=lambda q: np.zeros(0),
        chi_jac=lambda q: np.zeros((0, 2)),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )


def _gens_zero_twisted():
    """Twisted base/group data but a trivial vector-sector action."""
    return _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=np.zeros((3, 3, 3)),
        g_v=np.eye(3), c=su2_constants(), abelian_group=False)


# ---------------------------------------------------------------------------
# orbit metric


def test_orbit_metric_scaled_is_pure_base(scaled):
    point = ChartPoint([0.25, -0.1], [0.3, 0.1, -0.2])
    d, d_inv = build_orbit_metric(scaled.orig, point)
    want = np.exp(2.0 * 0.25) * np.eye(3)
    assert_close(d, want, 1e-12, "scaled orbit metric")
    assert_close(d_inv, np.linalg.inv(want), 1e-12, "scaled orbit inverse")
    gamma, gamma_prime = orbit_metric_split(scaled.orig, point)
    np.testing.assert_allclose(gamma_prime, np.zeros((3, 3)), atol=1e-14)
    assert_close(gamma, want, 1e-12, "gens=0 puts everything in gamma")


def test_orbit_metric_flat_scales_linearly():
    for lam in (1.0, 2.0):
        scen = build_scenario("flat_product", {"lam": lam})
        d, _ = build_orbit_metric(scen.orig, ChartPoint([0.0, 0.0],
                                                        [0.1, 0.2, 0.3]))
        assert_close(d, lam * np.eye(3), 1e-12, "flat d, lam=%g" % lam)


def test_orbit_metric_twisted_loop_oracle(twisted):
    """Loop-summed K.G.K over both sectors against the builder."""
    orig = twisted.orig
    for point in sample_points(twisted, 5, seed=101):
        frame = point_frame(orig, point)
        q = frame.Q
        k_p = np.asarray(orig.K_P(q), dtype=float)
        g_p = np.asarray(orig.G_P(q), dtype=float)
        k_v = orig.K_vector(point.f)
        n_g = orig.n_g
        want = np.zeros((n_g, n_g))
        for m in range(n_g):
            for n in range(n_g):
                for a in range(orig.n_P):
                    for b in range(orig.n_P):
                        want[m, n] += k_p[a, m] * g_p[a, b] * k_p[b, n]
                for a in range(orig.n_v):
                    for b in range(orig.n_v):
                        want[m, n] += k_v[a, m] * orig.G_V[a, b] * k_v[b, n]
        assert_close(frame.d, want, 1e-12, "orbit metric loop oracle")
        gamma, gamma_prime = orbit_metric_split(orig, point)
        assert_close(gamma + gamma_prime, frame.d, 1e-12, "additive split")


# ---------------------------------------------------------------------------
# connection


def test_connection_vanishes_without_twist(scaled):
    point = ChartPoint([0.2, 0.1], [0.1, -0.3, 0.2])
    a_base, a_vector, a_gamma = build_connection(scaled.orig, point)
    np.testing.assert_allclose(a_base, np.zeros((3, 2)), atol=1e-13)
    np.testing.assert_allclose(a_vector, np.zeros((3, 3)), atol=1e-13)
    np.testing.assert_allclose(a_gamma, np.zeros((3, 2)), atol=1e-13)


def test_connection_twisted_loop_oracle(twisted):
    orig = twisted.orig
    for point in sample_points(twisted, 4, seed=7):
        frame = point_frame(orig, point)
        q = frame.Q
        k_p = np.asarray(orig.K_P(q), dtype=float)
        g_p = np.asarray(orig.G_P(q), dtype=float)
        k_v = orig.K_vector(point.f)
        q_jac = frame.Q_jac
        base = np.einsum("ab,cb,dc,di->ai", frame.d_inv, k_p, g_p, q_jac)
        vector = np.einsum("ab,cb,cd->ad", frame.d_inv, k_v, orig.G_V)
        assert_close(frame.A_base, base, 1e-12, "base connection")
        assert_close(frame.A_vector, vector, 1e-12, "vector connection")


def test_connection_gamma_variant_matches_when_vector_action_trivial():
    orig = _gens_zero_twisted()
    point = ChartPoint([0.3, -0.2], [0.1, 0.0, 0.4])
    a_base, a_vector, a_gamma = build_connection(orig, point)
    np.testing.assert_allclose(a_vector, np.zeros((3, 3)), atol=1e-13)
    assert np.max(np.abs(a_base)) > 1e-3  # the twist keeps it alive
    assert_close(a_gamma, a_base, 1e-12, "gamma variant, gamma' = 0")


# ---------------------------------------------------------------------------
# horizontal metric


def test_horizontal_blocks_decouple_without_vector_action(scaled):
    point = ChartPoint([0.15, 0.05], [0.2, -0.1, 0.3])
    h = build_horizontal_metric(scaled.orig, point)
    np.testing.assert_allclose(h.h_xv, np.zeros((2, 3)), atol=1e-13)
    assert_close(h.h_vv, np.eye(3), 1e-12, "vector block is G_V")
    assert_close(h.h_xx, np.eye(2), 1e-12, "base block, twist-free")
    assert_close(h.h_base, h.h_xx, 1e-12, "base-only reduction agrees")


def test_horizontal_metric_sandwich_oracle(twisted):
    """Joint-space G - G K d^-1 K^T G, pulled back through the section."""
    orig = twisted.orig
    for point in sample_points(twisted, 4, seed=13):
        frame = point_frame(orig, point)
        q = frame.Q
        g_p = np.asarray(orig.G_P(q), dtype=float)
        n_P, n_v = orig.n_P, orig.n_v
        g_joint = np.zeros((n_P + n_v, n_P + n_v))
        g_joint[:n_P, :n_P] = g_p
        g_joint[n_P:, n_P:] = orig.G_V
        k_joint = np.vstack([np.asarray(orig.K_P(q), dtype=float),
                             orig.K_vector(point.f)])
        gh = g_joint - g_joint @ k_joint @ frame.d_inv @ k_joint.T @ g_joint
        jac = np.zeros((n_P + n_v, orig.n_h))
        jac[:n_P, :orig.n_x] = frame.Q_jac
        jac[n_P:, orig.n_x:] = np.eye(n_v)
        assert_close(frame.h_tilde, jac.T @ gh @ jac, 1e-12,
                     "horizontal sandwich")
        assert_close(frame.h.full, frame.h_tilde, 1e-13, "block assembly")


def test_inverse_quadrant_is_base_inverse(twisted):
    """Upper-left of the inverse horizontal metric equals h_base^{-1}."""
    orig = twisted.orig
    n_x = orig.n_x
    for point in sample_points(twisted, 5, seed=23):
        frame = point_frame(orig, point)
        assert_close(frame.h_tilde_inv[:n_x, :n_x], frame.h_base_inv,
                     1e-10, "inverse quadrant identity")


# ---------------------------------------------------------------------------
# projectors


def test_projector_identities(twisted):
    orig = twisted.orig
    for point in sample_points(twisted, 5, seed=31):
        frame = point_frame(orig, point)
        pr = build_projectors(orig, point)
        np.testing.assert_allclose(pr.T @ frame.Q_jac, np.eye(orig.n_x),
                                   atol=1e-10)
        qt = frame.Q_jac @ pr.T
        assert_close(qt @ qt, qt, 1e-10, "section projector idempotent")
        assert_close(pr.N @ pr.N, pr.N, 1e-10, "gauge projector idempotent")
        k_joint = np.vstack([np.asarray(orig.K_P(frame.Q), dtype=float),
                             orig.K_vector(point.f)])
        annihilated = pr.Pi_tilde @ k_joint
        np.testing.assert_allclose(annihilated, np.zeros_like(annihilated),
                                   atol=1e-10)
        assert_close(pr.Pi_tilde @ pr.Pi_tilde, pr.Pi_tilde, 1e-10,
                     "orbit-complement projector idempotent")


def test_projectors_trivial_without_group():
    orig = _conformal_orig()
    pr = build_projectors(orig, ChartPoint([0.3, -0.2], []))
    np.testing.assert_allclose(pr.N, np.eye(2), atol=1e-13)
    np.testing.assert_allclose(pr.Pi_tilde, np.eye(2), atol=1e-13)


def test_frame_without_group_keeps_ambient_metric():
    orig = _conformal_orig()
    point = ChartPoint([0.4, 0.1], [])
    frame = point_frame(orig, point)
    assert frame.d.shape == (0, 0)
    assert_close(frame.h_tilde, np.exp(0.8) * np.eye(2), 1e-12,
                 "no group, no reduction")


def test_point_frame_is_cached(twisted):
    point = ChartPoint([0.1, 0.2], [0.0, 0.1, -0.1])
    assert point_frame(twisted.orig, point) is point_frame(twisted.orig, point)


def test_point_frame_arrays_are_frozen(twisted):
    """A cached frame is shared by every later lookup; writes must fail."""
    frame = point_frame(twisted.orig, ChartPoint([0.15, -0.1],
                                                 [0.2, 0.0, 0.1]))
    before = frame.d.copy()
    with pytest.raises(ValueError):
        frame.d[0, 0] += 1.0
    for array in (frame.h_tilde_inv, frame.h.h_xv, frame.projectors.Lambda):
        with pytest.raises(ValueError):
            array[...] = 0.0
    np.testing.assert_array_equal(frame.d, before)


def _frame_parts(frame):
    """Every array and float of a frame, by name."""
    parts = {"point.x": frame.point.x, "point.f": frame.point.f,
             "det_d": frame.det_d, "det_h": frame.det_h}
    for prefix, part in (("", frame), ("h.", frame.h),
                         ("projectors.", frame.projectors)):
        for name, value in vars(part).items():
            if isinstance(value, np.ndarray):
                parts[prefix + name] = value
    return parts


def test_point_frames_match_one_at_a_time_compiles(twisted):
    """A stacked compile over a stencil equals per-point compiles, field by
    field and bit for bit; duplicates compile once; arrays are read-only."""
    # fresh copies of the geometry, so that no earlier test's cache entry
    # serves these points
    stacked = dataclasses.replace(twisted.orig)
    single = dataclasses.replace(twisted.orig)
    center = np.array([0.12, -0.21, 0.3, -0.15, 0.22])
    coords = [center] + [center + sign * 1e-3 * np.eye(5)[s]
                         for s in range(5) for sign in (1.0, -1.0)]
    points = [ChartPoint.from_coords(c, 2) for c in coords]
    points.append(points[3])
    before = frame_cache_info()
    batch = point_frames(stacked, points)
    after = frame_cache_info()
    assert after.compiles == before.compiles + 1
    assert after.misses == before.misses + len(coords)
    assert batch[-1] is batch[3]
    for point, frame in zip(points, batch):
        want = _frame_parts(point_frame(single, point))
        got = _frame_parts(frame)
        assert got.keys() == want.keys()
        for name, value in got.items():
            if isinstance(value, np.ndarray):
                assert value.shape == want[name].shape, name
                assert value.tobytes() == want[name].tobytes(), name
                assert not value.flags.writeable, name
            else:
                assert value == want[name], name
    assert frame_cache_info().compiles == after.compiles + len(coords)


def test_point_frames_gate_every_point():
    """A degenerate metric at one point of a stack fails the whole compile,
    names that point, and caches nothing."""
    def g_p(q):
        return np.diag([1.0, q[0]])

    orig = dataclasses.replace(_conformal_orig(), G_P=g_p)
    points = [ChartPoint([x0, 0.1], []) for x0 in (0.3, 0.2, -0.1, 0.4)]
    size = frame_cache_info().currsize
    with pytest.raises(NearSingularError,
                       match=r"bundle metric not positive definite at "
                             r"x=\[-0.1, 0.1\]"):
        point_frames(orig, points)
    assert frame_cache_info().currsize == size
    assert point_frames(orig, points[:2])[1].G_P[1, 1] == 0.2


def test_same_point_on_two_geometries_gives_two_frames(twisted, abelian):
    point = ChartPoint([0.05, 0.15], [0.2, -0.1, 0.3])
    a = point_frame(twisted.orig, point)
    b = point_frame(abelian.orig, point)
    assert a is not b
    assert not np.array_equal(a.h_tilde, b.h_tilde)
    twin = dataclasses.replace(twisted.orig)
    assert point_frame(twin, point) is not a
    assert point_frame(twisted.orig, point) is a


def test_frame_cache_stays_at_maxsize(flat):
    maxsize = frame_cache_info().maxsize
    rng = np.random.default_rng(17)
    coords = rng.uniform(-0.4, 0.4, size=(maxsize + 40, 5))
    points = [ChartPoint.from_coords(c, 2) for c in coords]
    for start in range(0, len(points), 1024):
        point_frames(flat.orig, points[start:start + 1024])
    info = frame_cache_info()
    assert info.currsize == maxsize
    point_frame(flat.orig, points[-1])
    assert frame_cache_info().misses == info.misses
    point_frame(flat.orig, points[0])        # least recently used: evicted
    assert frame_cache_info().misses == info.misses + 1
    assert frame_cache_info().currsize == maxsize


# ---------------------------------------------------------------------------
# block assembly and determinant factorization


def test_assembled_metric_flat_is_block_diagonal():
    scen = build_scenario("flat_product", {"lam": 1.6, "gv_offdiag": 0.2})
    point = sample_points(scen, 1)[0]
    block = assemble_block_metric(scen.adapted, point)
    g_v = np.eye(3)
    g_v[0, 1] = g_v[1, 0] = 0.2
    want = np.zeros((8, 8))
    want[:2, :2] = np.eye(2)
    want[2:5, 2:5] = g_v
    want[5:, 5:] = 1.6 * np.eye(3)
    assert_close(block.matrix, want, 1e-12, "flat block metric")
    assert_close(block.det, 1.6 ** 3 * np.linalg.det(g_v), 1e-12, "flat det")
    assert_close(block.inverse, np.linalg.inv(want), 1e-12, "flat inverse")


def test_assembled_metric_inverse_round_trip(twisted):
    n_t = twisted.adapted.n_t
    for point in sample_points(twisted, 5, seed=41):
        block = assemble_block_metric(twisted.adapted, point)
        assert_close(block.matrix @ block.inverse, np.eye(n_t), 1e-10,
                     "closed-form inverse round trip")
        numeric = np.linalg.inv(block.matrix)
        n_h = twisted.adapted.n_h
        assert_close(block.inverse[:n_h, :n_h],
                     numeric[:n_h, :n_h], 1e-9, "horizontal quadrant")


def test_assembled_det_scales_with_orbit_volume():
    center = ChartPoint([0.0, 0.0], [0.0, 0.0, 0.0])
    det1 = assemble_block_metric(
        build_scenario("flat_product", {"lam": 1.0}).adapted, center).det
    det2 = assemble_block_metric(
        build_scenario("flat_product", {"lam": 2.0}).adapted, center).det
    assert_close(det2 / det1, 2.0 ** 3, 1e-12, "det tracks det d")


def test_assembled_matches_coordinate_oracle_at_identity(twisted):
    for point in sample_points(twisted, 3, seed=43):
        block = assemble_block_metric(twisted.adapted, point)
        oracle = oracle_metric(twisted.orig, point.x, point.f, np.zeros(3))
        assert_close(block.matrix, oracle, 1e-10,
                     "adapted blocks vs coordinate pullback")


def test_det_factorization_residuals(twisted, flat):
    center = sample_points(flat, 1)[0]
    assert det_factorization_check(flat.orig, center) <= 1e-12
    for point in sample_points(twisted, 20, seed=47):
        assert det_factorization_check(twisted.orig, point) <= 1e-9


# ---------------------------------------------------------------------------
# ambient derivatives and validity gates


def test_ambient_partial_product_field():
    def func(q):
        return np.array([np.sin(q[0]) * q[1], q[1] ** 2])

    got0 = ambient_partial(func, np.array([0.5, 2.0]), 0)
    got1 = ambient_partial(func, np.array([0.5, 2.0]), 1)
    assert_close(got0, [np.cos(0.5) * 2.0, 0.0], 1e-9, "ambient slot 0")
    assert_close(got1, [np.sin(0.5), 4.0], 1e-9, "ambient slot 1")


def test_validate_original_accepts_twisted(twisted):
    report = validate_original(twisted.orig, sample_points(twisted, 3, seed=3))
    assert report.ok
    assert report.killing_residual <= 1e-6
    assert report.section_residual <= 1e-10


def test_validate_original_flags_broken_invariance(twisted):
    good = twisted.orig

    def broken_metric(q):
        return np.asarray(good.G_P(q), dtype=float) + 0.1 * q[2] * np.eye(5)

    broken = dataclasses.replace(good, G_P=broken_metric)
    report = validate_original(broken, sample_points(twisted, 3, seed=3))
    assert not report.ok
    assert report.killing_residual > 1e-3


def test_constructor_shape_gates():
    with pytest.raises(ValueError):
        OriginalGeometry(
            n_P=2, n_v=3, n_g=3,  # n_P < n_g
            G_P=lambda q: np.eye(2), G_V=np.eye(3),
            K_P=lambda q: np.zeros((2, 3)), gens=np.zeros((3, 3, 3)),
            section=lambda x: x, section_jac=lambda x: np.eye(2),
            chi=lambda q: np.zeros(3), chi_jac=lambda q: np.zeros((3, 2)),
            c=su2_constants())
    with pytest.raises(ValueError):
        OriginalGeometry(
            n_P=5, n_v=3, n_g=3,
            G_P=lambda q: np.eye(5), G_V=np.eye(2),  # wrong G_V shape
            K_P=lambda q: np.zeros((5, 3)), gens=np.zeros((3, 3, 3)),
            section=lambda x: x, section_jac=lambda x: np.eye(2),
            chi=lambda q: np.zeros(3), chi_jac=lambda q: np.zeros((3, 5)),
            c=su2_constants())
