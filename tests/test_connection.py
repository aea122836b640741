"""Connection curvature, covariant orbit-metric derivative, Christoffel tables."""

import numpy as np
import pytest

from bundlecurv.connection import (
    base_levi_civita,
    christoffel_general,
    christoffel_table,
    covariant_D_orbit_metric,
    curvature_F,
    frame_structure_functions,
)
from bundlecurv.curvature import RICCI_OUTER_SCALE, _widened
from bundlecurv.fields import ChartPoint, FieldHandle, _stencil
from bundlecurv.geometry import AdaptedGeometry
from bundlecurv.liecore import OrbitMetric, StructureConstants, su2_constants
from bundlecurv.scenarios import SCENARIO_NAMES, build_scenario, sample_points

from conftest import assert_close, constant_field


def _const_orbit(matrix):
    matrix = np.asarray(matrix, dtype=float)
    inv = np.linalg.inv(matrix) if matrix.size else matrix
    return OrbitMetric(d=constant_field(matrix), d_inv=constant_field(inv),
                       det_d=constant_field(np.linalg.det(matrix), "scalar"))


def _curl_fixture():
    """One abelian orbit direction over a flat plane, rotational connection."""
    return AdaptedGeometry(
        n_x=2, n_v=0, n_g=1,
        h_tilde=constant_field(np.eye(2)),
        h_tilde_inv=constant_field(np.eye(2)),
        det_h=constant_field(1.0, "scalar"),
        d=_const_orbit(np.eye(1)),
        A_conn=FieldHandle(lambda zs: np.stack([-zs[:, 1], zs[:, 0]],
                                               axis=1)[:, None], "matrix"),
        c=StructureConstants(1, np.zeros((1, 1, 1))),
    )


def _pure_orbit(d_matrix):
    """One flat base direction, constant anisotropic orbit metric, no twist."""
    return AdaptedGeometry(
        n_x=1, n_v=0, n_g=3,
        h_tilde=constant_field(np.eye(1)),
        h_tilde_inv=constant_field(np.eye(1)),
        det_h=constant_field(1.0, "scalar"),
        d=_const_orbit(d_matrix),
        A_conn=constant_field(np.zeros((3, 1))),
        c=su2_constants(),
    )


def _const_connection(a_matrix, d_matrix):
    a_matrix = np.asarray(a_matrix, dtype=float)
    return AdaptedGeometry(
        n_x=a_matrix.shape[1], n_v=0, n_g=3,
        h_tilde=constant_field(np.eye(a_matrix.shape[1])),
        h_tilde_inv=constant_field(np.eye(a_matrix.shape[1])),
        det_h=constant_field(1.0, "scalar"),
        d=_const_orbit(d_matrix),
        A_conn=constant_field(a_matrix),
        c=su2_constants(),
    )


# ---------------------------------------------------------------------------
# curvature of the connection


def test_curvature_flat_connection_is_zero(flat, engine):
    point = sample_points(flat, 1)[0]
    f_val = curvature_F(flat.adapted, point.coords[None], engine)[0]
    np.testing.assert_allclose(f_val, np.zeros((3, 5, 5)), atol=1e-12)


def test_curvature_picks_up_the_curl(engine):
    adapted = _curl_fixture()
    f_val = curvature_F(adapted, np.array([[0.4, -0.7]]), engine)[0]
    assert f_val.shape == (1, 2, 2)
    assert_close(f_val[0, 0, 1], 2.0, 1e-10, "abelian curl")
    assert_close(f_val[0, 1, 0], -2.0, 1e-10, "abelian curl, flipped")


def test_curvature_commutator_term(engine):
    """Constant connection: only the structure-constant term survives."""
    a_matrix = np.array([[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1]])
    adapted = _const_connection(a_matrix, np.eye(3))
    f_val = curvature_F(adapted, np.zeros((1, 2)), engine)[0]
    c = su2_constants().c
    want = np.einsum("msn,sa,nc->mac", c, a_matrix, a_matrix)
    assert_close(f_val, want, 1e-10, "commutator curvature")


def test_curvature_antisymmetry(twisted, engine):
    for point in sample_points(twisted, 3, seed=61):
        f_val = curvature_F(twisted.adapted, point.coords[None], engine)[0]
        swap = np.einsum("mac->mca", f_val)
        assert_close(f_val, -swap, 1e-9, "antisymmetric index pair")


# ---------------------------------------------------------------------------
# covariant derivative of the orbit metric


def test_covariant_d_flat_is_zero(flat, engine):
    point = sample_points(flat, 1)[0]
    dd = covariant_D_orbit_metric(flat.adapted, point.coords[None],
                                  engine)[0]
    np.testing.assert_allclose(dd, np.zeros((5, 3, 3)), atol=1e-12)


def test_covariant_d_kills_invariant_metric(engine):
    """Round orbit metric is ad-invariant, so the correction cancels exactly."""
    a_matrix = np.array([[0.3, -0.1], [0.2, 0.5], [-0.4, 0.1]])
    adapted = _const_connection(a_matrix, 2.0 * np.eye(3))
    dd = covariant_D_orbit_metric(adapted, np.array([[0.1, 0.2]]),
                                  engine)[0]
    np.testing.assert_allclose(dd, np.zeros((2, 3, 3)), atol=1e-12)


def test_covariant_d_scaled_matches_closed_form(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.2, -0.3], [0.1, 0.0, 0.2])
    dd = covariant_D_orbit_metric(scaled.adapted, point.coords[None],
                                  engine)[0]
    want0 = 2.0 * slope * np.exp(2.0 * slope * 0.2) * np.eye(3)
    assert_close(dd[0], want0, 1e-9, "base-slope derivative")
    for slot in range(1, 5):
        np.testing.assert_allclose(dd[slot], np.zeros((3, 3)), atol=1e-9)


def test_covariant_d_loop_oracle(twisted, engine):
    from bundlecurv.fields import partial

    adapted = twisted.adapted
    c = adapted.c.c
    for point in sample_points(twisted, 2, seed=67):
        a_val = np.asarray(adapted.A_conn(point), dtype=float)
        d_val = np.asarray(adapted.d.d(point), dtype=float)
        zs = point.coords[None]
        got = covariant_D_orbit_metric(adapted, zs, engine)[0]
        grads = partial(engine, adapted.d.d, zs, adapted.n_x,
                        range(adapted.n_h))[0]
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
    got = base_levi_civita(flat.adapted, point.coords[None], engine)[0]
    np.testing.assert_allclose(got, np.zeros((5, 5, 5)), atol=1e-10)


def test_levi_civita_conformal_plane(engine):
    adapted = AdaptedGeometry(
        n_x=2, n_v=0, n_g=0,
        h_tilde=FieldHandle(lambda zs: np.exp(2.0 * zs[:, 0])[:, None, None]
                            * np.eye(2), "matrix"),
        h_tilde_inv=FieldHandle(
            lambda zs: np.exp(-2.0 * zs[:, 0])[:, None, None] * np.eye(2),
            "matrix"),
        det_h=FieldHandle(lambda zs: np.exp(4.0 * zs[:, 0]), "scalar"),
        d=_const_orbit(np.zeros((0, 0))),
        A_conn=constant_field(np.zeros((0, 2))),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )
    got = base_levi_civita(adapted, np.array([[0.3, -0.5]]), engine)[0]
    want = np.zeros((2, 2, 2))
    want[0, 0, 0] = 1.0
    want[0, 1, 1] = -1.0
    want[1, 0, 1] = want[1, 1, 0] = 1.0
    assert_close(got, want, 1e-8, "conformal symbols")


# ---------------------------------------------------------------------------
# Christoffel tables


def test_table_flat_product_sectors(flat, engine):
    point = sample_points(flat, 1)[0]
    table = christoffel_table(flat.adapted, point.coords[None], engine)
    np.testing.assert_allclose(table.block("h", "h", "h")[0],
                               np.zeros((5, 5, 5)), atol=1e-10)
    np.testing.assert_allclose(table.block("h", "g", "g")[0],
                               np.zeros((5, 3, 3)), atol=1e-10)
    np.testing.assert_allclose(table.block("g", "h", "h")[0],
                               np.zeros((3, 5, 5)), atol=1e-10)
    # round orbit metric: the pure-orbit sector collapses to half the constants
    assert_close(table.block("g", "g", "g")[0], 0.5 * su2_constants().c,
                 1e-12, "round-metric orbit sector")


def test_table_pure_orbit_loop_oracle(engine):
    d_matrix = np.diag([1.0, 1.7, 2.3])
    adapted = _pure_orbit(d_matrix)
    table = christoffel_table(adapted, np.zeros((1, 1)), engine)
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
    assert_close(table.block("g", "g", "g")[0], want, 1e-12,
                 "anisotropic orbit sector")


def test_table_group_trace_vanishes(twisted, engine):
    for point in sample_points(twisted, 3, seed=71):
        table = christoffel_table(twisted.adapted, point.coords[None], engine)
        trace = np.einsum("aag->g", table.block("g", "g", "g")[0])
        np.testing.assert_allclose(trace, np.zeros(3), atol=1e-12)


def test_table_scaled_group_base_trace(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.15, 0.3], [0.0, 0.1, -0.2])
    table = christoffel_table(scaled.adapted, point.coords[None], engine)
    # Gamma^gamma_{gamma i} and Gamma^gamma_{gamma a}
    trace = np.einsum("ggi->i", table.block("g", "g", "x")[0])
    assert_close(trace[0], 3.0 * slope, 1e-9, "log-volume slope")
    assert abs(trace[1]) <= 1e-9
    np.testing.assert_allclose(
        np.einsum("gga->a", table.block("g", "g", "v")[0]), np.zeros(3),
        atol=1e-9)


def test_table_matches_general_formula(twisted, abelian, engine):
    for scen in (twisted, abelian):
        for point in sample_points(scen, 5, seed=73):
            zs = point.coords[None]
            table = christoffel_table(scen.adapted, zs, engine)
            general = christoffel_general(scen.adapted, zs, engine)
            assert_close(table.gamma, general.gamma, 1e-8,
                         "table vs general, %s" % scen.name)


def test_general_torsion_balance(twisted, engine):
    """Antisymmetric part of the symbols equals the structure functions."""
    for point in sample_points(twisted, 3, seed=79):
        zs = point.coords[None]
        general = christoffel_general(twisted.adapted, zs, engine)
        structure = frame_structure_functions(twisted.adapted, zs, engine)
        anti = general.gamma - np.einsum("iabc->iacb", general.gamma)
        assert_close(anti, structure.CC, 1e-9, "torsion balance")


def test_structure_functions_layout(twisted, engine):
    point = sample_points(twisted, 1)[0]
    structure = frame_structure_functions(twisted.adapted,
                                          point.coords[None], engine)
    cc = structure.CC[0]
    n_h = twisted.adapted.n_h
    # only the upper-orbit components live
    np.testing.assert_allclose(cc[:n_h], np.zeros((n_h, 8, 8)), atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, :n_h, :n_h], -structure.F[0],
                               atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, n_h:, n_h:], su2_constants().c,
                               atol=1e-15)
    np.testing.assert_allclose(cc[n_h:, :n_h, n_h:],
                               np.zeros((3, n_h, 3)), atol=1e-15)
    assert_close(cc, -np.einsum("abc->acb", cc), 1e-12,
                 "antisymmetric lower pair")


def test_block_slicing_labels(twisted, engine):
    point = sample_points(twisted, 1)[0]
    table = christoffel_table(twisted.adapted, point.coords[None], engine)
    assert table.block("x", "v", "g").shape == (1, 2, 3, 3)
    assert table.block("h", "h", "h").shape == (1, 5, 5, 5)
    with pytest.raises(KeyError):
        table.block("q", "h", "h")
    # stated mixed symmetry of the table
    assert_close(table.block("h", "h", "g"),
                 np.einsum("inma->inam", table.block("h", "g", "h")),
                 1e-12, "mixed-pair symmetry")


# ---------------------------------------------------------------------------
# the row-stack contract


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_stacks_equal_one_row_calls(name, engine):
    """On the 20 outer rows of a Ricci-pair stencil, every connection
    function's stack equals its one-row calls bit for bit. The one-row
    calls compile their frames on a separate copy of the geometry."""
    stacked, single = build_scenario(name).adapted, build_scenario(name).adapted
    wide = _widened(engine)
    point = ChartPoint([0.12, -0.21], [0.3, -0.15, 0.22])
    rows = _stencil(point.coords[None],
                    wide.fd_step * RICCI_OUTER_SCALE)[0][0]
    assert rows.shape == (20, 5)
    for func in (christoffel_table, christoffel_general, curvature_F,
                 covariant_D_orbit_metric, base_levi_civita):
        def values(adapted, zs):
            out = func(adapted, zs, wide)
            return getattr(out, "gamma", out)

        got = values(stacked, rows)
        assert len(got) == len(rows)
        for z, row in zip(rows, got):
            assert np.array_equal(row, values(single, z[None])[0]), \
                (func.__name__, z)
