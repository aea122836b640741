"""Connection curvature, covariant orbit-metric derivative, Christoffel tables."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.connection import (
    HorizontalJet,
    christoffel_general,
    christoffel_table,
    frame_derivatives,
    horizontal_jet,
)
from bundlecurv.curvature import PointTerms, _nested_stencil
from bundlecurv.fields import ChartPoint, _stencil, invert_spd
from bundlecurv.geometry import AdaptedGeometry, frames_at
from bundlecurv.liecore import (StructureConstants, abelian_constants,
                               su2_constants)
from bundlecurv.scenarios import SCENARIO_NAMES, build_scenario, sample_points

from conftest import (assert_close, constant_field, frame_array, frames_of,
                      jet_at, rule_by_loops)


def _jet_at(adapted, point, engine):
    return jet_at(adapted, point.coords[None], engine)


def _const_orbit(matrix):
    """The orbit-metric arrays of ``frames_of``: ``matrix`` everywhere."""
    matrix = np.asarray(matrix, dtype=float)
    inv = np.linalg.inv(matrix) if matrix.size else matrix
    return dict(d=constant_field(matrix), d_inv=constant_field(inv),
                det_d=constant_field(np.linalg.det(matrix)))


def _flat_base(n_h):
    """The horizontal-metric arrays of ``frames_of``: the identity."""
    return dict(h_tilde=constant_field(np.eye(n_h)),
                h_tilde_inv=constant_field(np.eye(n_h)),
                det_h=constant_field(1.0))


def _random_spd(rng, n_rows, n):
    m = rng.standard_normal((n_rows, n, n))
    return np.einsum("...ij,...kj->...ik", m, m) + n * np.eye(n)


def _curl_fixture():
    """One abelian orbit direction over a flat plane, rotational connection."""
    return AdaptedGeometry(
        n_x=2, n_v=0,
        frames=frames_of(
            A=lambda zs: np.stack([-zs[:, 1], zs[:, 0]], axis=1)[:, None],
            **_flat_base(2), **_const_orbit(np.eye(1))),
        c=StructureConstants(1, np.zeros((1, 1, 1))),
    )


def _pure_orbit(d_matrix):
    """One flat base direction, constant anisotropic orbit metric, no twist."""
    return AdaptedGeometry(
        n_x=1, n_v=0,
        frames=frames_of(A=constant_field(np.zeros((3, 1))),
                         **_flat_base(1), **_const_orbit(d_matrix)),
        c=su2_constants(),
    )


def _const_connection(a_matrix, d_matrix):
    a_matrix = np.asarray(a_matrix, dtype=float)
    return AdaptedGeometry(
        n_x=a_matrix.shape[1], n_v=0,
        frames=frames_of(A=constant_field(a_matrix),
                         **_flat_base(a_matrix.shape[1]),
                         **_const_orbit(d_matrix)),
        c=su2_constants(),
    )


# ---------------------------------------------------------------------------
# curvature of the connection


def test_curvature_flat_connection_is_zero(flat, engine):
    point = sample_points(flat, 1)[0]
    f_val = _jet_at(flat.adapted, point, engine).F[0]
    np.testing.assert_allclose(f_val, np.zeros((3, 5, 5)), atol=1e-12)


def test_curvature_picks_up_the_curl(engine):
    adapted = _curl_fixture()
    f_val = jet_at(adapted, np.array([[0.4, -0.7]]), engine).F[0]
    assert f_val.shape == (1, 2, 2)
    assert_close(f_val[0, 0, 1], 2.0, 1e-10, "abelian curl")
    assert_close(f_val[0, 1, 0], -2.0, 1e-10, "abelian curl, flipped")


def test_curvature_commutator_term(engine):
    """Constant connection: only the structure-constant term survives."""
    a_matrix = np.array([[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1]])
    adapted = _const_connection(a_matrix, np.eye(3))
    f_val = jet_at(adapted, np.zeros((1, 2)), engine).F[0]
    c = su2_constants().c
    want = np.einsum("msn,sa,nc->mac", c, a_matrix, a_matrix)
    assert_close(f_val, want, 1e-10, "commutator curvature")


def test_curvature_antisymmetry(twisted, engine):
    for point in sample_points(twisted, 3, seed=61):
        f_val = _jet_at(twisted.adapted, point, engine).F[0]
        swap = np.einsum("mac->mca", f_val)
        assert_close(f_val, -swap, 1e-9, "antisymmetric index pair")


# ---------------------------------------------------------------------------
# covariant derivative of the orbit metric


def test_covariant_d_flat_is_zero(flat, engine):
    point = sample_points(flat, 1)[0]
    dd = _jet_at(flat.adapted, point, engine).Dd[0]
    np.testing.assert_allclose(dd, np.zeros((5, 3, 3)), atol=1e-12)


def test_covariant_d_kills_invariant_metric(engine):
    """Round orbit metric is ad-invariant, so the correction cancels exactly."""
    a_matrix = np.array([[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1]])
    adapted = _const_connection(a_matrix, 2.0 * np.eye(3))
    dd = jet_at(adapted, np.array([[0.1, 0.2]]), engine).Dd[0]
    np.testing.assert_allclose(dd, np.zeros((2, 3, 3)), atol=1e-12)


def test_covariant_d_scaled_matches_closed_form(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.2, -0.3], [0.1, 0.0, 0.2])
    dd = _jet_at(scaled.adapted, point, engine).Dd[0]
    want0 = 2.0 * slope * np.exp(2.0 * slope * 0.2) * np.eye(3)
    assert_close(dd[0], want0, 1e-9, "base-slope derivative")
    for slot in range(1, 5):
        np.testing.assert_allclose(dd[slot], np.zeros((3, 3)), atol=1e-9)


def test_covariant_d_loop_oracle(twisted, engine):
    from bundlecurv.fields import coordinate_partials

    adapted = twisted.adapted
    c = adapted.c.c
    for point in sample_points(twisted, 2, seed=67):
        zs = point.coords[None]
        frames = frames_at(adapted, zs)
        a_val, d_val = frames.A[0], frames.d[0]
        got = jet_at(adapted, zs, engine).Dd[0]
        grads = coordinate_partials(frame_array(adapted, "d"), point.coords,
                                    engine.fd_step)
        for slot in range(adapted.n_h):
            want = grads[slot].copy()
            for m in range(3):
                for n in range(3):
                    for k in range(3):
                        for s in range(3):
                            want[m, n] -= c[k, s, m] * a_val[s, slot] * d_val[k, n]
                            want[m, n] -= c[k, s, n] * a_val[s, slot] * d_val[m, k]
            assert_close(got[slot], want, 1e-12, "loop oracle, slot %d" % slot)


# ---------------------------------------------------------------------------
# base Levi-Civita symbols


def test_levi_civita_constant_metric(flat, engine):
    point = sample_points(flat, 1)[0]
    got = _jet_at(flat.adapted, point, engine).lc[0]
    np.testing.assert_allclose(got, np.zeros((5, 5, 5)), atol=1e-10)


def test_levi_civita_conformal_plane(engine):
    adapted = AdaptedGeometry(
        n_x=2, n_v=0,
        frames=frames_of(
            h_tilde=lambda zs: np.exp(2.0 * zs[:, 0])[:, None, None]
            * np.eye(2),
            h_tilde_inv=lambda zs: np.exp(-2.0 * zs[:, 0])[:, None, None]
            * np.eye(2),
            det_h=lambda zs: np.exp(4.0 * zs[:, 0]),
            A=constant_field(np.zeros((0, 2))),
            **_const_orbit(np.zeros((0, 0)))),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )
    jet = jet_at(adapted, np.array([[0.3, -0.5]]), engine)
    got = jet.lc[0]
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = 1.0
    want[0, 1, 1] = -1.0
    want[1, 0, 1] = want[1, 1, 0] = 1.0
    assert_close(got, want, 1e-8, "conformal symbols")


# ---------------------------------------------------------------------------
# Christoffel tables


def test_table_flat_product_sectors(flat, engine):
    point = sample_points(flat, 1)[0]
    table = christoffel_table(_jet_at(flat.adapted, point, engine))
    np.testing.assert_allclose(table[0, :5, :5, :5],
                               np.zeros((5, 5, 5)), atol=1e-10)
    np.testing.assert_allclose(table[0, :5, 5:, 5:],
                               np.zeros((5, 3, 3)), atol=1e-10)
    np.testing.assert_allclose(table[0, 5:, :5, :5],
                               np.zeros((3, 5, 5)), atol=1e-10)
    # round orbit metric: the pure-orbit sector collapses to half the constants
    assert_close(table[0, 5:, 5:, 5:], 0.5 * su2_constants().c,
                 1e-12, "round-metric orbit sector")


def test_table_pure_orbit_loop_oracle(engine):
    d_matrix = np.diag([1.0, 1.7, 2.3])
    adapted = _pure_orbit(d_matrix)
    table = christoffel_table(jet_at(adapted, np.zeros((1, 1)),
                                             engine))
    c = su2_constants().c
    d_inv = np.linalg.inv(d_matrix)
    want = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for g in range(3):
                for m in range(3):
                    for e in range(3):
                        want[a, b, g] += 0.5 * d_inv[a, m] * (
                            c[e, b, g] * d_matrix[e, m]
                            - c[e, m, g] * d_matrix[e, b]
                            - c[e, m, b] * d_matrix[e, g])
    assert_close(table[0, 1:, 1:, 1:], want, 1e-12,
                 "anisotropic orbit sector")


def test_table_group_trace_vanishes(twisted, engine):
    for point in sample_points(twisted, 3, seed=71):
        table = christoffel_table(_jet_at(twisted.adapted, point, engine))
        trace = np.einsum("aag->g", table[0, 5:, 5:, 5:])
        np.testing.assert_allclose(trace, np.zeros(3), atol=1e-12)


def test_table_scaled_group_base_trace(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.15, 0.3], [0.0, 0.1, -0.2])
    table = christoffel_table(_jet_at(scaled.adapted, point, engine))
    # Gamma^gamma_{gamma i} and Gamma^gamma_{gamma a}
    trace = np.einsum("ggi->i", table[0, 5:, 5:, :2])
    assert_close(trace[0], 3.0 * slope, 1e-9, "log-volume slope")
    assert abs(trace[1]) <= 1e-9
    np.testing.assert_allclose(
        np.einsum("gga->a", table[0, 5:, 5:, 2:5]), np.zeros(3),
        atol=1e-9)


def test_table_matches_general_formula(twisted, abelian, engine):
    for scen in (twisted, abelian):
        for point in sample_points(scen, 5, seed=73):
            zs = point.coords[None]
            jet = jet_at(scen.adapted, zs, engine)
            table = christoffel_table(jet)
            general = christoffel_general(jet)
            assert_close(table, general, 1e-8,
                         "table vs general, %s" % scen.name)


def test_general_torsion_balance(twisted, engine):
    """Antisymmetric part of the symbols equals the structure functions."""
    for point in sample_points(twisted, 3, seed=79):
        zs = point.coords[None]
        jet = jet_at(twisted.adapted, zs, engine)
        general = christoffel_general(jet)
        anti = general - np.einsum("iabc->iacb", general)
        assert_close(anti, jet.CC, 1e-9, "torsion balance")


def test_structure_functions_layout(twisted, engine):
    point = sample_points(twisted, 1)[0]
    jet = _jet_at(twisted.adapted, point, engine)
    cc = jet.CC[0]
    n_h = twisted.adapted.n_h
    # only the upper-orbit components live
    np.testing.assert_allclose(cc[:n_h], np.zeros((n_h, 8, 8)), atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, :n_h, :n_h], -jet.F[0],
                               atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, n_h:, n_h:], su2_constants().c,
                               atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, :n_h, n_h:],
                               np.zeros((3, n_h, 3)), atol=1e-15)
    assert_close(cc, -np.einsum("abc->acb", cc), 1e-12,
                 "antisymmetric lower pair")


def test_general_frame_term_loop_oracle():
    """The structure-function term of the general formula,
    -1/2 G^{AD}(C^E_{BD} G_{CE} + C^E_{CD} G_{BE}), against plain loops.
    Random structure functions, random SPD blocks of the frame metric
    (n_h = 5), no derivatives and abelian constants leave that term and
    the torsion half 1/2 C alone. Over 20 draws the gap measured at most
    4.4e-16."""
    rng = np.random.default_rng(89)
    n_rows, n_h, n_g = 2, 5, 3
    adapted = _const_connection(np.zeros((n_g, n_h)), np.eye(n_g))
    adapted = dataclasses.replace(adapted, c=abelian_constants(n_g))
    h, d = (_random_spd(rng, n_rows, n) for n in (n_h, n_g))
    cc = rng.standard_normal((n_rows, 8, 8, 8))
    zeros = np.zeros
    jet = HorizontalJet(
        adapted, zeros((n_rows, n_h)), steps=zeros((n_rows, 2, n_h)),
        A=zeros((n_rows, n_g, n_h)), h=h,
        dh=zeros((n_rows, n_h, n_h, n_h)), d=d,
        d_rows=np.repeat(d[:, None], 1 + 4 * n_h, axis=1),
        dd=zeros((n_rows, n_h, n_g, n_g)), h_inv=np.linalg.inv(h),
        d_inv=np.linalg.inv(d), lc=zeros((n_rows, n_h, n_h, n_h)),
        F=zeros((n_rows, n_g, n_h, n_h)),
        Dd=zeros((n_rows, n_h, n_g, n_g)), CC=cc)
    got = christoffel_general(jet)
    metric = np.zeros((n_rows, 8, 8))
    metric[:, :n_h, :n_h], metric[:, n_h:, n_h:] = h, d
    inverse = np.zeros((n_rows, 8, 8))
    inverse[:, :n_h, :n_h], inverse[:, n_h:, n_h:] = jet.h_inv, jet.d_inv
    want = 0.5 * cc
    for i in range(n_rows):
        g, g_inv, c = metric[i], inverse[i], cc[i]
        for a, b, cz, dz, e in np.ndindex(8, 8, 8, 8, 8):
            want[i, a, b, cz] -= 0.5 * g_inv[a, dz] * (
                c[e, b, dz] * g[cz, e] + c[e, cz, dz] * g[b, e])
    assert_close(got, want, 1e-14, "frame term")


def test_frame_derivatives_loop_oracle():
    """Chart partial minus the connection times the rule along the lifts,
    the rule itself along the orbit directions, slot by slot and direction
    by direction. Over 30 draws the gap measured at most 3.6e-16."""
    rng = np.random.default_rng(97)
    c = StructureConstants(3, rng.standard_normal((3, 3, 3)))
    value = rng.standard_normal((2, 8, 8))
    grad = rng.standard_normal((2, 5, 8, 8))
    a_val = rng.standard_normal((2, 3, 5))
    got = frame_derivatives(value, grad, a_val, ("lower", "lower"), c)
    rule = [rule_by_loops(value, ("inert", "lower", "lower"), c.c, s)
            for s in range(3)]
    want = np.zeros((2, 8, 8, 8))
    for i in range(2):
        for bp in range(5):
            want[i, bp] = grad[i, bp]
            for s in range(3):
                want[i, bp] -= a_val[i, s, bp] * rule[s][i]
        for s in range(3):
            want[i, 5 + s] = rule[s][i]
    assert_close(got, want, 1e-14, "frame derivatives")


def test_table_mixed_pair_symmetry(twisted, engine):
    """The table is one ``(N, n_t, n_t, n_t)`` stack over the joint index
    order (base, vector, group), and its mixed entries are symmetric in
    their stated index pairs."""
    point = sample_points(twisted, 1)[0]
    table = christoffel_table(_jet_at(twisted.adapted, point, engine))
    assert table.shape == (1, 8, 8, 8)
    assert_close(table[:, :5, :5, 5:],
                 np.einsum("inma->inam", table[:, :5, 5:, :5]),
                 1e-12, "mixed-pair symmetry")


# ---------------------------------------------------------------------------
# the row-stack contract


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stacks_equal_one_row_calls(name, engine):
    """On the 20 shifted outer rows of a nested stencil, the rows of the
    Ricci pair's jet, a jet's arrays and everything computed from them
    equal those of one-row jets bit for bit. Each jet reads its frames
    on its own stencils."""
    stacked, single = build_scenario(name).adapted, build_scenario(name).adapted
    point = ChartPoint([0.12, -0.21], [0.3, -0.15, 0.22])
    nested = _nested_stencil(point.coords, engine)
    rows = nested.rows[1:]
    assert rows.shape == (20, 5)

    def values(jet):
        return {"A": jet.A, "h": jet.h, "dh": jet.dh, "d": jet.d,
                "dd": jet.dd, "h_inv": jet.h_inv, "d_inv": jet.d_inv,
                "lc": jet.lc, "F": jet.F, "Dd": jet.Dd, "CC": jet.CC,
                "table": christoffel_table(jet),
                "general": christoffel_general(jet)}

    got = values(horizontal_jet(stacked, nested.inner_rows[1:],
                                nested.inner_steps[1:],
                                frames_at(stacked, nested.inner_rows[1:])))
    for z_index, z in enumerate(rows):
        one_row = slice(z_index + 1, z_index + 2)
        one = values(horizontal_jet(single, nested.inner_rows[one_row],
                                    nested.inner_steps[one_row],
                                    frames_at(single,
                                              nested.inner_rows[one_row])))
        for label, stack in got.items():
            assert len(stack) == len(rows)
            assert np.array_equal(stack[z_index], one[label][0]), \
                (label, z)


def test_jet_takes_one_frames_call(twisted, engine):
    """A jet is built from one frames call, on the centre-first stencils
    of all its rows, which its caller makes and hands it; the jet makes
    no call of its own, and its centre rows are its ``zs``. Every array
    of the jet is read-only."""
    calls = []
    base = twisted.adapted

    def counted(zs):
        calls.append(zs.shape)
        return base.frames(zs)

    adapted = dataclasses.replace(base, frames=counted)
    rows, steps = _stencil(np.full((3, 5), 0.05), engine.fd_step,
                           centre=True)
    frames = frames_at(adapted, rows)
    assert calls == [(63, 5)]
    jet = horizontal_jet(adapted, rows, steps, frames)
    assert calls == [(63, 5)]
    assert np.array_equal(jet.zs, np.full((3, 5), 0.05))
    for field in dataclasses.fields(jet):
        array = getattr(jet, field.name)
        if isinstance(array, np.ndarray) and field.name != "zs":
            assert not array.flags.writeable, field.name
    assert (jet.dd.shape, jet.lc.shape, jet.F.shape, jet.CC.shape) == (
        (3, 5, 3, 3), (3, 5, 5, 5), (3, 3, 5, 5), (3, 8, 8, 8))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_jet_inverses_equal_inverting_its_metrics(name, engine):
    """The inverses a jet reads from the geometry equal, byte for byte,
    inverting the jet's own h~ and d again, at the point jet and the
    nested jet of a point's record."""
    scenario = build_scenario(name)
    terms = PointTerms(scenario.adapted, sample_points(scenario, 1,
                                                       seed=37)[0], engine)
    for jet in (terms.jet, terms.nested_jet):
        assert np.array_equal(jet.h_inv, invert_spd(jet.h)[0])
        assert np.array_equal(jet.d_inv, invert_spd(jet.d)[0])
