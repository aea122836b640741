"""Metric-block builders: orbit metric, connection, horizontal blocks,
gauge projector, and the stacked frame compile."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import PointTerms, log_density_terms, oracle_metric
from bundlecurv.fields import (ChartPoint, ConfigError, NearSingularError,
                               _levi_civita, _stencil, coordinate_partials,
                               invert_spd)
from bundlecurv.geometry import (
    OriginalGeometry,
    assemble_block_metric,
    compile_adapted,
    det_factorization_check,
    frames_at,
    point_frame,
    point_frames,
    validate_original,
)
from bundlecurv.liecore import (StructureConstants, abelian_constants,
                                su2_constants, validate_structure_constants)
from bundlecurv.scenarios import (
    SCENARIO_NAMES,
    _build_original,
    _twisted_bbar,
    _twisted_g,
    _twisted_twist,
    build_scenario,
    sample_group_coordinates,
    sample_points,
)

from conftest import assert_close, frame_array


def _conformal_orig(scale=1.0):
    """No group at all: a conformally flat plane plus nothing."""
    def g_p(qs):
        return scale * np.exp(2.0 * qs[:, 0])[:, None, None] * np.eye(2)

    return OriginalGeometry(
        n_P=2, n_v=0,
        G_P=g_p, G_V=np.zeros((0, 0)),
        K_P=lambda qs: np.zeros((len(qs), 2, 0)),
        gens=np.zeros((0, 0, 0)),
        section=lambda xs: xs.copy(),
        section_jac=lambda xs: np.repeat(np.eye(2)[None], len(xs), axis=0),
        chi=lambda qs: np.zeros((len(qs), 0)),
        chi_jac=lambda qs: np.zeros((len(qs), 0, 2)),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )


def _gens_zero_twisted():
    """Twisted base/group data but a trivial vector-sector action."""
    return _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=np.zeros((3, 3, 3)),
        g_v=np.eye(3), c=su2_constants())


# ---------------------------------------------------------------------------
# orbit metric


def _bundle_gamma(frames):
    """The bundle-side orbit metric ``K_P^T G_P K_P`` of a one-row frame
    stack, by the frame compile's own stacked products."""
    return frames.K_P.swapaxes(1, 2) @ frames.G_P @ frames.K_P


def test_orbit_metric_scaled_is_pure_base(scaled):
    point = ChartPoint([0.25, -0.1], [0.3, 0.1, -0.2])
    frames = point_frame(scaled.orig, point)
    want = np.exp(2.0 * 0.25) * np.eye(3)
    assert_close(frames.d[0], want, 1e-12, "scaled orbit metric")
    assert_close(frames.d_inv[0], np.linalg.inv(want), 1e-12,
                 "scaled orbit inverse")
    # gens=0: gamma' vanishes, so d is gamma alone
    gamma = _bundle_gamma(frames)[0]
    np.testing.assert_allclose(frames.d[0] - gamma,
                               np.zeros((3, 3)), atol=1e-14)
    assert_close(gamma, want, 1e-12, "gens=0 puts everything in gamma")


def test_orbit_metric_flat_scales_linearly():
    for lam in (1.0, 2.0):
        scen = build_scenario("flat_product", {"lam": lam})
        d = point_frame(scen.orig, ChartPoint([0.0, 0.0],
                                              [0.1, 0.2, 0.3])).d[0]
        assert_close(d, lam * np.eye(3), 1e-12, "flat d, lam=%g" % lam)


def test_orbit_metric_twisted_loop_oracle(twisted):
    """Loop-summed K.G.K over both sectors against the frame, and the
    bundle-side part ``gamma`` against the bundle sector's sum."""
    orig = twisted.orig
    for point in sample_points(twisted, 5, seed=101):
        frames = point_frame(orig, point)
        q = frames.Q
        k_p = orig.K_P(q)[0]
        g_p = orig.G_P(q)[0]
        k_v = orig.K_vector(point.f[None])[0]
        n_g = orig.n_g
        bundle = np.zeros((n_g, n_g))
        vector = np.zeros((n_g, n_g))
        for m in range(n_g):
            for n in range(n_g):
                for a in range(orig.n_P):
                    for b in range(orig.n_P):
                        bundle[m, n] += k_p[a, m] * g_p[a, b] * k_p[b, n]
                for a in range(orig.n_v):
                    for b in range(orig.n_v):
                        vector[m, n] += k_v[a, m] * orig.G_V[a, b] * k_v[b, n]
        assert_close(frames.d[0], bundle + vector, 1e-12,
                     "orbit metric loop oracle")
        assert_close(_bundle_gamma(frames)[0], bundle, 1e-12,
                     "additive split")


# ---------------------------------------------------------------------------
# connection


def test_connection_vanishes_without_twist(scaled):
    frames = point_frame(scaled.orig,
                         ChartPoint([0.2, 0.1], [0.1, -0.3, 0.2]))
    np.testing.assert_allclose(frames.A, np.zeros((1, 3, 5)), atol=1e-13)
    np.testing.assert_allclose(frames.A_gamma, np.zeros((1, 3, 2)),
                               atol=1e-13)


def test_connection_twisted_loop_oracle(twisted):
    orig = twisted.orig
    for point in sample_points(twisted, 4, seed=7):
        frames = point_frame(orig, point)
        q = frames.Q
        k_p = orig.K_P(q)[0]
        g_p = orig.G_P(q)[0]
        k_v = orig.K_vector(point.f[None])[0]
        d_inv, a = frames.d_inv[0], frames.A[0]
        base = np.einsum("ab,cb,dc,di->ai", d_inv, k_p, g_p, frames.Q_jac[0])
        vector = np.einsum("ab,cb,cd->ad", d_inv, k_v, orig.G_V)
        assert_close(a[:, :2], base, 1e-12, "base connection")
        assert_close(a[:, 2:], vector, 1e-12, "vector connection")


def test_connection_gamma_variant_matches_when_vector_action_trivial():
    orig = _gens_zero_twisted()
    frames = point_frame(orig, ChartPoint([0.3, -0.2], [0.1, 0.0, 0.4]))
    a = frames.A[0]
    np.testing.assert_allclose(a[:, 2:], np.zeros((3, 3)), atol=1e-13)
    assert np.max(np.abs(a[:, :2])) > 1e-3  # the twist keeps it alive
    assert_close(frames.A_gamma[0], a[:, :2], 1e-12,
                 "gamma variant, gamma' = 0")


# ---------------------------------------------------------------------------
# horizontal metric


def test_horizontal_blocks_decouple_without_vector_action(scaled):
    frames = point_frame(scaled.orig, ChartPoint([0.15, 0.05],
                                                 [0.2, -0.1, 0.3]))
    np.testing.assert_allclose(frames.h_xv[0], np.zeros((2, 3)), atol=1e-13)
    assert_close(frames.h_vv[0], np.eye(3), 1e-12, "vector block is G_V")
    assert_close(frames.h_xx[0], np.eye(2), 1e-12, "base block, twist-free")
    assert_close(np.linalg.inv(frames.h_base_inv[0]), frames.h_xx[0], 1e-12,
                 "base-only reduction agrees")


def test_horizontal_metric_sandwich_oracle(twisted):
    """Joint-space G - G K d^-1 K^T G, pulled back through the section."""
    orig = twisted.orig
    for point in sample_points(twisted, 4, seed=13):
        frames = point_frame(orig, point)
        q = frames.Q
        g_p = orig.G_P(q)[0]
        n_P, n_v = orig.n_P, orig.n_v
        g_joint = np.zeros((n_P + n_v, n_P + n_v))
        g_joint[:n_P, :n_P] = g_p
        g_joint[n_P:, n_P:] = orig.G_V
        k_joint = np.vstack([orig.K_P(q)[0], orig.K_vector(point.f[None])[0]])
        gh = (g_joint
              - g_joint @ k_joint @ frames.d_inv[0] @ k_joint.T @ g_joint)
        assert_close(frames.Gt_H[0], gh, 1e-12, "joint horizontal metric")
        jac = np.zeros((n_P + n_v, orig.n_h))
        jac[:n_P, :orig.n_x] = frames.Q_jac[0]
        jac[n_P:, orig.n_x:] = np.eye(n_v)
        h_tilde = frames.h_tilde[0]
        assert_close(h_tilde, jac.T @ gh @ jac, 1e-12, "horizontal sandwich")
        blocks = np.block([[frames.h_xx[0], frames.h_xv[0]],
                           [frames.h_xv[0].T, frames.h_vv[0]]])
        assert_close(blocks, h_tilde, 1e-13, "block assembly")


def test_inverse_quadrant_is_base_inverse(twisted):
    """Upper-left of the inverse horizontal metric equals h_base^{-1}."""
    orig = twisted.orig
    n_x = orig.n_x
    for point in sample_points(twisted, 5, seed=23):
        frames = point_frame(orig, point)
        assert_close(frames.h_tilde_inv[0, :n_x, :n_x], frames.h_base_inv[0],
                     1e-10, "inverse quadrant identity")


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_shared_inverses_equal_the_inversions_they_replace(name):
    """Each inverse and determinant is computed once, where its matrix is
    built, and the copy every formula reads equals, bit for bit, inverting
    the matrix again: h~ and d at a point, the frame's gamma, G_V and G_P
    at the section point. The one Levi-Civita contraction matches a loop
    over indices."""
    scenario = build_scenario(name)
    orig, adapted = scenario.orig, scenario.adapted
    assert np.array_equal(orig.G_V_inv, invert_spd(orig.G_V)[0])
    assert not orig.G_V_inv.flags.writeable
    for point in sample_points(scenario, 2, seed=31):
        at = frames_at(adapted, point.coords[None])
        for matrix, inverse, det in ((at.h_tilde, at.h_tilde_inv, at.det_h),
                                     (at.d, at.d_inv, at.det_d)):
            inv_again, det_again = invert_spd(matrix[0])
            assert np.array_equal(inverse[0], inv_again)
            assert det[0] == det_again
        frames = point_frame(orig, point)
        assert np.array_equal(frames.gamma_inv[0],
                              invert_spd(_bundle_gamma(frames)[0])[0])
        assert np.array_equal(frames.G_P_inv[0],
                              invert_spd(orig.G_P(frames.Q[:1])[0])[0])

    rng = np.random.default_rng(5)
    n = 4
    root = rng.normal(size=(3, n, n))
    g_inv = root @ root.swapaxes(1, 2) + n * np.eye(n)
    dg = rng.normal(size=(3, n, n, n))
    dg = dg + dg.swapaxes(2, 3)            # dg[i, b, c, d] = d_b g_cd
    want = np.zeros((3, n, n, n))
    for i, a, b, c, d in np.ndindex(3, n, n, n, n):
        want[i, a, b, c] += 0.5 * g_inv[i, a, d] * (
            dg[i, b, c, d] + dg[i, c, b, d] - dg[i, d, b, c])
    assert_close(_levi_civita(g_inv, dg), want, 1e-13, "Levi-Civita")


# ---------------------------------------------------------------------------
# gauge projector


def _gauge_projector(frames, orig):
    """``N = [[1 - K_P Lambda, 0], [N_vP, 1]]`` at row 0 of a frame
    stack."""
    n_P, n_v = orig.n_P, orig.n_v
    n = np.eye(n_P + n_v)
    n[:n_P, :n_P] -= frames.K_P[0] @ frames.Lambda[0]
    n[n_P:, :n_P] = frames.N_vP[0]
    return n


def test_projector_identities(twisted):
    """``Lambda`` inverts the Faddeev-Popov matrix on the Killing fields
    and kills the section directions; the gauge projector built from
    ``Lambda`` and ``N_vP`` is idempotent and kills the orbit."""
    orig = twisted.orig
    for point in sample_points(twisted, 5, seed=31):
        frames = point_frame(orig, point)
        lam = frames.Lambda[0]
        assert_close(lam @ frames.K_P[0], np.eye(orig.n_g), 1e-10,
                     "Lambda K_P = 1")
        np.testing.assert_allclose(lam @ frames.Q_jac[0],
                                   np.zeros((orig.n_g, orig.n_x)),
                                   atol=1e-10)
        assert_close(frames.N_vP[0], -frames.K_V[0] @ lam, 1e-13,
                     "N_vP = -K_V Lambda")
        n = _gauge_projector(frames, orig)
        assert_close(n @ n, n, 1e-10, "gauge projector idempotent")
        k_joint = np.vstack([frames.K_P[0], frames.K_V[0]])
        np.testing.assert_allclose(n @ k_joint, np.zeros_like(k_joint),
                                   atol=1e-10)


def test_projectors_trivial_without_group():
    orig = _conformal_orig()
    frames = point_frame(orig, ChartPoint([0.3, -0.2], []))
    assert frames.Lambda.shape == frames.N_vP.shape == (1, 0, 2)
    np.testing.assert_allclose(_gauge_projector(frames, orig), np.eye(2),
                               atol=1e-13)


def test_frame_without_group_keeps_ambient_metric():
    orig = _conformal_orig()
    point = ChartPoint([0.4, 0.1], [])
    frames = point_frame(orig, point)
    assert frames.d.shape == (1, 0, 0)
    assert_close(frames.h_tilde[0], np.exp(0.8) * np.eye(2), 1e-12,
                 "no group, no reduction")


def test_point_frame_arrays_are_frozen(twisted):
    """A stack is shared by every reader of a point record; writes must
    fail."""
    frames = point_frame(twisted.orig, ChartPoint([0.15, -0.1],
                                                  [0.2, 0.0, 0.1]))
    before = frames.d.copy()
    for array in vars(frames).values():
        with pytest.raises(ValueError):
            array[...] = 0.0
    np.testing.assert_array_equal(frames.d, before)


def test_point_frames_match_one_at_a_time_compiles(twisted, compiles):
    """A stacked compile over a stencil equals one-row compiles, field by
    field and bit for bit, the centre row included, and its arrays are
    read-only. Each call compiles, the repeated row's too."""
    orig = twisted.orig
    center = np.array([0.12, -0.21, 0.3, -0.15, 0.22])
    coords = [center] + [center + sign * 1e-3 * np.eye(5)[s]
                         for s in range(5) for sign in (1.0, -1.0)]
    zs = np.array(coords + [coords[3]])
    batch = point_frames(orig, zs)
    assert compiles == [len(zs)]
    for i, z in enumerate(zs):
        want = vars(point_frame(orig, ChartPoint(z[:2], z[2:])))
        got = vars(batch)
        assert got.keys() == want.keys()
        for name, value in got.items():
            assert value.shape == (len(zs),) + want[name].shape[1:], name
            assert value[i].tobytes() == want[name][0].tobytes(), name
            assert not value.flags.writeable, name
    assert compiles == [len(zs)] + [1] * len(zs)


def test_repeated_base_rows_compile_like_one_row_compiles(twisted):
    """The base-only half of a compile runs once per distinct base row
    ``x`` and is gathered to every row, bit for bit the one-row compiles.
    Base rows are told apart by their bytes: ``x`` with ``-0.0`` in place
    of ``0.0`` is a row of its own, and its ``Q`` keeps the sign."""
    base_rows = []

    def section(xs, _original=twisted.orig.section.func):
        base_rows.append(len(xs))
        return _original(xs)

    orig = dataclasses.replace(twisted.orig, section=section)
    zs = np.array([[0.0, 0.1, 0.3, -0.15, 0.22],
                   [0.21, -0.3, 0.1, 0.0, -0.2],
                   [-0.0, 0.1, 0.3, -0.15, 0.22],
                   [0.0, 0.1, -0.25, 0.05, 0.1],
                   [0.21, -0.3, 0.1, 0.0, -0.2],
                   [0.21, -0.3, 0.2, 0.3, -0.1]])
    batch = point_frames(orig, zs)
    assert base_rows == [3]
    assert np.signbit(batch.Q[2, 0]) and not np.signbit(batch.Q[0, 0])
    for i, z in enumerate(zs):
        want = vars(point_frame(orig, ChartPoint(z[:2], z[2:])))
        for name, value in vars(batch).items():
            assert value.shape == (len(zs),) + want[name].shape[1:], name
            assert value[i].tobytes() == want[name][0].tobytes(), (name, i)
    assert base_rows == [3] + [1] * len(zs)


def test_bundle_callables_run_on_the_distinct_base_rows(twisted, engine,
                                                        compiles):
    """On the 441-row nested stencil of ``R_M`` the bundle callables run
    on its 81 distinct base rows: 9 distinct ``x`` among the 21 outer
    rows, each with 9 among its 21 inner rows."""
    rows = {}

    def counting(name):
        func = getattr(twisted.orig, name).func

        def counted(qs):
            rows[name] = rows.get(name, 0) + len(qs)
            return func(qs)
        return counted

    orig = dataclasses.replace(
        twisted.orig, **{name: counting(name)
                         for name in ("section", "G_P", "K_P")})
    point = ChartPoint([0.17, -0.08], [0.2, -0.11, 0.05])
    PointTerms(compile_adapted(orig), point, engine).R_M
    assert compiles == [441]
    assert rows == {"section": 81, "G_P": 81, "K_P": 81}


def _break_at_large_x0(good, name):
    """``good`` with ``G_P`` negated, or the first Killing field of
    ``K_P`` zeroed, at bundle points with ``x0 > 0.25``."""
    def broken(qs):
        out = good(qs)
        bad = qs[:, 0] > 0.25
        if name == "G_P":
            out[bad] *= -1.0
        else:
            out[bad, :, 0] = 0.0
        return out
    return broken


@pytest.mark.parametrize("name", ["G_P", "K_P"])
def test_failing_base_row_is_named_at_its_first_copy(twisted, name):
    """A base-only gate -- ``G_P`` first in frame order, ``gamma`` after
    the stack-wide ``d`` -- that fails at a repeated base row raises the
    message a one-row compile of the first failing row raises, with that
    row's ``x`` and ``f``, not those of a later copy."""
    orig = dataclasses.replace(
        twisted.orig,
        **{name: _break_at_large_x0(getattr(twisted.orig, name).func,
                                    name)})
    zs = np.array([[0.1, 0.2, 0.3, -0.1, 0.2],
                   [0.3, -0.1, 0.1, 0.2, 0.3],
                   [0.1, 0.2, -0.2, 0.1, 0.0],
                   [0.3, -0.1, -0.3, 0.0, 0.1]])
    with pytest.raises(NearSingularError) as one:
        point_frames(orig, zs[1:2])
    message = str(one.value)
    assert "x=[0.3, -0.1] f=[0.1, 0.2, 0.3]" in message
    assert message.startswith("bundle metric not positive definite"
                              if name == "G_P" else
                              "bundle-side orbit metric gamma degenerate")
    with pytest.raises(NearSingularError) as stacked:
        point_frames(orig, zs)
    assert str(stacked.value) == message


def test_adapted_fields_on_a_stack_equal_one_row_calls(twisted, engine,
                                                       compiles):
    """The compiled geometry reads all seven arrays of a stencil from one
    stacked compile, with the values of one-point reads, bit for bit."""
    adapted = twisted.adapted
    rows, _ = _stencil(np.array([[0.14, -0.06, 0.21, -0.3, 0.05]]),
                       engine.fd_step)
    got = frames_at(adapted, rows[0])
    assert compiles == [20]
    rows_alone = [frames_at(adapted, z[None]) for z in rows[0]]
    for name in got._fields:
        want = np.array([getattr(alone, name)[0] for alone in rows_alone])
        assert getattr(got, name).shape == want.shape, name
        assert getattr(got, name).tobytes() == want.tobytes(), name


def test_degenerate_frame_in_a_stencil_names_its_point(engine):
    """A frame that fails its gate inside the nested stencil, on which
    ``log_density_terms`` differences ``ln det d``, raises with
    the chart point of that row, an outer row; the narrower
    first-derivative stencil stays clear of it."""
    def g_p(qs):
        return (8e-4 - qs[:, 0])[:, None, None] * np.eye(2)

    orig = dataclasses.replace(_conformal_orig(), G_P=g_p)
    adapted = compile_adapted(orig)
    point = ChartPoint([0.0, 0.0], [])
    coordinate_partials(frame_array(adapted, "h_tilde"), point.coords,
                        engine.fd_step)
    with pytest.raises(NearSingularError,
                       match=r"bundle metric not positive definite at "
                             r"x=\[0.001, 0.0\] f=\[\]"):
        log_density_terms(PointTerms(adapted, point, engine))


def test_wrong_stack_shape_names_the_callable(twisted):
    one_point = dataclasses.replace(twisted.orig, G_P=lambda qs: np.eye(5))
    with pytest.raises(ValueError, match=r"G_P returned shape \(5, 5\), "
                                         r"expected \(1, 5, 5\)"):
        point_frame(one_point, ChartPoint([0.1, 0.2], [0.0, 0.1, 0.2]))
    with pytest.raises(ValueError, match=r"K_P takes \(N, k\) coordinate "
                                         r"stacks"):
        twisted.orig.K_P(np.zeros(5))
    with pytest.raises(ValueError, match=r"K_vector takes an \(N, n_v\)"):
        twisted.orig.K_vector(np.zeros(3))


def test_point_frames_gate_every_point():
    """A degenerate metric at one point of a stack fails the whole compile,
    names that point, and keeps nothing."""
    def g_p(qs):
        out = np.zeros((len(qs), 2, 2))
        out[:, 0, 0], out[:, 1, 1] = 1.0, qs[:, 0]
        return out

    orig = dataclasses.replace(_conformal_orig(), G_P=g_p)
    zs = np.array([[x0, 0.1] for x0 in (0.3, 0.2, -0.1, 0.4)])
    with pytest.raises(NearSingularError,
                       match=r"bundle metric not positive definite at "
                             r"x=\[-0.1, 0.1\]"):
        point_frames(orig, zs)
    assert point_frames(orig, zs[:2]).G_P[1, 1, 1] == 0.2


def test_same_point_on_two_geometries_gives_two_frames(twisted, abelian):
    point = ChartPoint([0.05, 0.15], [0.2, -0.1, 0.3])
    a = point_frame(twisted.orig, point)
    b = point_frame(abelian.orig, point)
    assert a is not b
    assert not np.array_equal(a.h_tilde, b.h_tilde)


# ---------------------------------------------------------------------------
# block assembly and determinant factorization


def test_assembled_metric_flat_is_block_diagonal():
    scen = build_scenario("flat_product", {"lam": 1.6, "gv_offdiag": 0.2})
    point = sample_points(scen, 1)[0]
    block = assemble_block_metric(scen.adapted,
                                  frames_at(scen.adapted, point.coords))
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
        block = assemble_block_metric(
            twisted.adapted, frames_at(twisted.adapted, point.coords))
        assert_close(block.matrix @ block.inverse, np.eye(n_t), 1e-10,
                     "closed-form inverse round trip")
        numeric = np.linalg.inv(block.matrix)
        n_h = twisted.adapted.n_h
        assert_close(block.inverse[:n_h, :n_h],
                     numeric[:n_h, :n_h], 1e-9, "horizontal quadrant")


def test_assembled_det_scales_with_orbit_volume():
    center = ChartPoint([0.0, 0.0], [0.0, 0.0, 0.0])

    def det_at_center(lam):
        adapted = build_scenario("flat_product", {"lam": lam}).adapted
        return assemble_block_metric(adapted,
                                     frames_at(adapted, center.coords)).det

    det1, det2 = det_at_center(1.0), det_at_center(2.0)
    assert_close(det2 / det1, 2.0 ** 3, 1e-12, "det tracks det d")


def test_assembled_matches_coordinate_oracle_at_identity(twisted):
    for point in sample_points(twisted, 3, seed=43):
        block = assemble_block_metric(
            twisted.adapted, frames_at(twisted.adapted, point.coords))
        oracle = oracle_metric(twisted.orig, point.x[None], point.f[None],
                               np.zeros((1, 3)))[0]
        assert_close(block.matrix, oracle, 1e-10,
                     "adapted blocks vs coordinate pullback")


def test_det_factorization_residuals(twisted, flat):
    center = sample_points(flat, 1)[0]
    block = assemble_block_metric(flat.adapted,
                                  frames_at(flat.adapted, center.coords))
    assert det_factorization_check(block) <= 1e-12
    for point in sample_points(twisted, 20, seed=47):
        block = assemble_block_metric(
            twisted.adapted, frames_at(twisted.adapted, point.coords))
        assert det_factorization_check(block) <= 1e-9


# ---------------------------------------------------------------------------
# ambient derivatives and validity gates


def test_validate_original_accepts_twisted(twisted):
    report = validate_original(twisted.orig, sample_points(twisted, 3, seed=3))
    assert report.ok
    assert report.killing_residual <= 1e-6
    assert report.section_residual <= 1e-10


def test_validate_original_flags_broken_invariance(twisted):
    good = twisted.orig

    def broken_metric(qs):
        return good.G_P(qs) + 0.1 * qs[:, 2, None, None] * np.eye(5)

    broken = dataclasses.replace(good, G_P=broken_metric)
    report = validate_original(broken, sample_points(twisted, 3, seed=3))
    assert not report.ok
    assert report.killing_residual > 1e-3


def test_validate_original_reports_closed_brackets(twisted):
    """The Killing fields and the vector-sector generators of a built-in
    scenario close under its own structure constants."""
    report = validate_original(twisted.orig, sample_points(twisted, 3, seed=3))
    assert report.constants_valid
    assert report.bracket_residual <= 1e-10


@pytest.mark.parametrize("mutant", ["scaled", "negated"])
def test_validate_original_flags_constants_off_the_group(twisted, mutant):
    """Constants that are still a Lie algebra (c^2_01 and c^2_10 scaled by
    1.1) or that carry the opposite sign convention fail the bracket
    gate, though the Killing fields stay Killing."""
    c = np.array(twisted.orig.c.c)
    if mutant == "scaled":
        c[2, 0, 1] *= 1.1
        c[2, 1, 0] *= 1.1
        assert validate_structure_constants(c).valid
    else:
        c = -c
    bad = dataclasses.replace(twisted.orig, c=StructureConstants(3, c))
    report = validate_original(bad, sample_points(twisted, 3, seed=3))
    assert report.killing_residual <= 1e-6
    assert report.bracket_residual > 1e-2
    assert not report.ok


def test_validate_original_requires_a_lie_algebra(twisted):
    """Constants of a Lie algebra that breaks the trace condition,
    [e_0, e_1] = e_0, are reported invalid."""
    c = np.zeros((3, 3, 3))
    c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
    bad = dataclasses.replace(twisted.orig, c=StructureConstants(3, c))
    report = validate_original(bad, sample_points(twisted, 2, seed=3))
    assert not report.constants_valid
    assert not report.ok


def test_scenario_gates_difference_all_probe_points_at_once(monkeypatch):
    """``build_scenario`` runs the Killing and bracket gates of its three
    probe points on one section stencil: ``G_P`` and ``K_P`` are called
    once each on its 3 x 20 rows. Their other calls, the row-contract
    probes and the frame compile, take at most 6 rows."""
    from bundlecurv import scenarios

    lengths = {"G_P": [], "K_P": []}
    build = scenarios._REGISTRY["twisted_bundle"]

    def counting(name, scenario):
        original = getattr(scenario.orig, name).func

        def counted(qs):
            lengths[name].append(len(qs))
            return original(qs)

        return counted

    def built(params):
        scenario = build(params)
        orig = dataclasses.replace(
            scenario.orig, **{name: counting(name, scenario)
                              for name in lengths})
        return dataclasses.replace(scenario, orig=orig,
                                   adapted=compile_adapted(orig))

    monkeypatch.setitem(scenarios._REGISTRY, "twisted_bundle", built)
    build_scenario("twisted_bundle")
    for name, calls in lengths.items():
        assert [n for n in calls if n > 6] == [60], name


def test_gate_partials_are_the_point_record_section(twisted, engine,
                                                    monkeypatch):
    """The partials the Killing gate differences at each of its probe
    points are, bit for bit, the point record's ``section`` entry there
    and the ``coordinate_partials`` of ``G_P`` and ``K_P`` at its
    section point."""
    from bundlecurv import geometry

    taken = []

    def captured(*args, _original=geometry.section_partials):
        taken.append(_original(*args))
        return taken[-1]

    monkeypatch.setattr(geometry, "section_partials", captured)
    points = sample_points(twisted, 3, seed=3)
    assert validate_original(twisted.orig, points).ok
    (gate,) = taken
    for i, point in enumerate(points):
        terms = PointTerms(twisted.adapted, point, engine)
        assert [rows[i].tobytes() for rows in gate] == [
            partials.tobytes() for partials in terms.section]
        q = terms.stack.Q[0]
        for partials, func in zip(gate, (twisted.orig.G_P,
                                         twisted.orig.K_P)):
            assert partials[i].tobytes() == coordinate_partials(
                func, q, engine.fd_step).tobytes()


def _stack_dependent(good):
    """``good`` plus a shift that depends on the other rows of its
    stack: a breach of the row contract."""
    def shifted(*stacks):
        out = good(*stacks)
        return out + 1e-9 * float(np.mean(stacks[0]))
    return shifted


@pytest.mark.parametrize("name", ["section", "G_P", "chi_jac",
                                  "vspace_action_d"])
def test_validate_original_names_a_callable_off_the_row_contract(twisted,
                                                                 name):
    """A bundle callable whose row depends on the rest of its stack fails
    validation with a ``ConfigError`` that names it; without group
    coordinates the group-chart callables go unprobed."""
    points = sample_points(twisted, 3, seed=3)
    group = sample_group_coordinates(twisted, 3, seed=3)
    assert validate_original(twisted.orig, points, group_points=group).ok
    broken = dataclasses.replace(
        twisted.orig,
        **{name: _stack_dependent(getattr(twisted.orig, name).func)})
    with pytest.raises(ConfigError, match=r"^%s breaks the row contract"
                                          % name):
        validate_original(broken, points, group_points=group)
    if name == "vspace_action_d":
        assert validate_original(broken, points).ok


def _stack_of(mat):
    """A bundle callable giving ``mat`` at every row of its stack."""
    return lambda *stacks: np.repeat(np.asarray(mat)[None], len(stacks[0]),
                                     axis=0)


def test_structure_constants_set_the_group_dimension(twisted):
    """Both geometries read ``n_g`` from their structure constants, and
    bundle data whose generators do not match the dimension of ``c``
    raise at construction, naming both."""
    assert twisted.orig.n_g == twisted.adapted.n_g == twisted.orig.c.n_g
    with pytest.raises(ValueError, match=r"gens must be \(n_g, n_v, n_v\) "
                       r"= \(2, 3, 3\), with n_g that of the structure "
                       r"constants c, got \(3, 3, 3\)"):
        dataclasses.replace(twisted.orig, c=abelian_constants(2))


def test_constructor_shape_gates():
    with pytest.raises(ValueError):
        OriginalGeometry(
            n_P=2, n_v=3,  # n_P < n_g
            G_P=_stack_of(np.eye(2)), G_V=np.eye(3),
            K_P=_stack_of(np.zeros((2, 3))), gens=np.zeros((3, 3, 3)),
            section=lambda xs: xs, section_jac=_stack_of(np.eye(2)),
            chi=_stack_of(np.zeros(3)), chi_jac=_stack_of(np.zeros((3, 2))),
            c=su2_constants())
    with pytest.raises(ValueError):
        OriginalGeometry(
            n_P=5, n_v=3,
            G_P=_stack_of(np.eye(5)), G_V=np.eye(2),  # wrong G_V shape
            K_P=_stack_of(np.zeros((5, 3))), gens=np.zeros((3, 3, 3)),
            section=lambda xs: xs, section_jac=_stack_of(np.eye(2)),
            chi=_stack_of(np.zeros(3)), chi_jac=_stack_of(np.zeros((3, 5))),
            c=su2_constants())


def test_adapted_geometry_must_agree_with_its_bundle_data(twisted):
    """An adapted geometry whose own ``n_x``, ``n_v`` or structure
    constants disagree with its ``orig`` raises at construction, naming
    both values, instead of at its first frame read."""
    adapted = twisted.adapted
    with pytest.raises(ValueError, match=r"^c = .* disagrees with orig\.c"):
        dataclasses.replace(adapted, c=abelian_constants(2))
    with pytest.raises(ValueError, match=r"^c = .* disagrees with orig\.c"):
        dataclasses.replace(adapted, c=abelian_constants(3))
    with pytest.raises(ValueError,
                       match=r"^n_x = 3 disagrees with orig\.n_x = 2$"):
        dataclasses.replace(adapted, n_x=3)
    with pytest.raises(ValueError,
                       match=r"^n_v = 2 disagrees with orig\.n_v = 3$"):
        dataclasses.replace(adapted, n_v=2)
    assert dataclasses.replace(adapted, orig=None).orig is None
    assert dataclasses.replace(adapted, c=su2_constants()).n_g == 3
