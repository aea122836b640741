"""Scalar-curvature decomposition, frame Ricci routes, and the coordinate oracle."""

import numpy as np
import pytest

from bundlecurv.connection import christoffel_general
from bundlecurv.curvature import (
    _widened,
    coordinate_ricci_scalar,
    decomposition_terms,
    log_density_terms,
    oracle_metric,
    ricci_scalar_pair,
    scalar_curvature_coordinate_oracle,
    validate_group_chart,
)
from bundlecurv.fields import (ChartPoint, DerivEngine, EvaluationError,
                               FieldHandle)
from bundlecurv.geometry import AdaptedGeometry, frame_cache_info
from bundlecurv.liecore import OrbitMetric, orbit_scalar_curvature, su2_constants
from bundlecurv.scenarios import (
    build_scenario,
    sample_group_coordinates,
    sample_points,
)

from conftest import assert_close


def _pure_orbit_block(d_matrix):
    d_matrix = np.asarray(d_matrix, dtype=float)
    d_inv = np.linalg.inv(d_matrix)
    return AdaptedGeometry(
        n_x=1, n_v=0, n_g=3,
        h_tilde=lambda p: np.eye(1),
        d=OrbitMetric(d=lambda p: d_matrix, d_inv=lambda p: d_inv),
        A_conn=lambda p: np.zeros((3, 1)),
        c=su2_constants(),
    )


# ---------------------------------------------------------------------------
# coordinate-formula scalar curvature


def test_coordinate_ricci_flat_plane(engine):
    got = coordinate_ricci_scalar(
        lambda zs: np.broadcast_to(np.eye(2), (len(zs), 2, 2)),
        np.array([0.3, 0.4]), engine)
    assert abs(got) <= 1e-9


def test_coordinate_ricci_round_sphere(engine):
    """Constant-curvature check; the library's sign convention makes the
    round sphere come out negative."""
    radius = 1.7

    def metric(zs):
        return np.stack([np.diag([radius ** 2,
                                  radius ** 2 * np.sin(z[0]) ** 2])
                         for z in zs])

    got = coordinate_ricci_scalar(metric, np.array([1.0, 0.7]), engine)
    assert_close(got, -2.0 / radius ** 2, 1e-6, "round sphere")


def test_coordinate_ricci_conformal_plane(engine):
    """e^{2x} flat metric in 2d: scalar curvature is identically zero in
    absolute value 2 e^{-2x} * (laplacian of x) = 0."""
    got = coordinate_ricci_scalar(
        lambda zs: np.exp(2.0 * zs[:, 0])[:, None, None] * np.eye(2),
        np.array([0.2, -0.1]), engine)
    assert abs(got) <= 1e-6


def test_coordinate_ricci_raises_on_non_finite_stencil(engine):
    """A metric that is NaN on one side of the stencil fails loudly."""
    def metric(zs):
        blown = np.where(zs[:, 0] > 0.3, np.nan, 1.0)
        return blown[:, None, None] * np.eye(2)

    with pytest.raises(EvaluationError, match="non-finite"):
        coordinate_ricci_scalar(metric, np.array([0.3, 0.4]), engine)


# ---------------------------------------------------------------------------
# decomposition pieces


def test_breakdown_sum_is_definitional(twisted, engine):
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(twisted.adapted, point, engine)
    total = b.R_M + b.R_G + b.FF + b.DdDd + b.lap_ln_d + b.grad_ln_d
    assert b.R_total == total


def test_flat_product_breakdown(flat, engine):
    point = sample_points(flat, 1)[0]
    b = decomposition_terms(flat.adapted, point, engine)
    for name in ("R_M", "FF", "DdDd", "lap_ln_d", "grad_ln_d"):
        assert abs(getattr(b, name)) <= 1e-10, name
    assert_close(b.R_G, flat.expected["r_group"], 1e-12, "flat orbit piece")


def test_scaled_orbit_breakdown(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.2, -0.1], [0.1, 0.2, -0.3])
    b = decomposition_terms(scaled.adapted, point, engine)
    assert abs(b.R_M) <= 1e-8
    assert abs(b.FF) <= 1e-10
    assert abs(b.lap_ln_d) <= 1e-7
    assert_close(b.grad_ln_d, scaled.expected["grad_ln_d"], 1e-8,
                 "squared gradient of log volume")
    assert_close(b.DdDd, scaled.expected["dddd"], 1e-8, "DdDd piece")
    assert_close(b.R_G, -1.5 * np.exp(-2.0 * slope * 0.2), 1e-10,
                 "pointwise orbit curvature")


#: ``(R_M, R_total)`` of ``decomposition_terms`` at ``_PIN`` with the
#: default engine, recorded from the serial per-point frame compile; the
#: stacked stencil must reproduce them bit for bit.
_PIN = ChartPoint([0.12, -0.21], [0.3, -0.15, 0.22])
_PINNED_DECOMPOSITION = {
    "twisted_bundle": (-13.73220446630276, -1.4331566315439004),
    "abelian_limit": (-6.900613069226026, -0.009642649961681182),
    "flat_product": (0.0, -1.5),
    "scaled_orbit": (0.0, 10.820058208648037),
}
#: The coordinate oracle at ``_PIN`` and group coordinates ``_PIN_A``,
#: recorded the same way.
_PIN_A = np.array([0.2, -0.1, 0.15])
_PINNED_ORACLE = {
    "twisted_bundle": -1.4331565983394752,
    "flat_product": -1.4999999832350597,
}


@pytest.mark.parametrize("name", sorted(_PINNED_DECOMPOSITION))
def test_decomposition_pinned_values(name, engine):
    b = decomposition_terms(build_scenario(name).adapted, _PIN, engine)
    assert (b.R_M, b.R_total) == _PINNED_DECOMPOSITION[name]


@pytest.mark.parametrize("name", sorted(_PINNED_ORACLE))
def test_oracle_pinned_values(name, engine):
    scen = build_scenario(name)
    got = scalar_curvature_coordinate_oracle(scen.orig, scen.chart, _PIN.x,
                                             _PIN.f, _PIN_A, engine)
    assert got == _PINNED_ORACLE[name]


def test_ricci_pair_reads_the_decomposition_stencil(twisted, engine):
    """The stacked R_M stencil fills the frame cache with exactly the
    frames both Ricci routes read next, so they compile none."""
    point = ChartPoint([-0.17, 0.26], [0.05, 0.31, -0.22])
    decomposition_terms(twisted.adapted, point, engine)
    before = frame_cache_info()
    ricci_scalar_pair(twisted.adapted, point, engine=engine)
    wide = _widened(engine)
    ricci_scalar_pair(twisted.adapted, point,
                      lambda p: christoffel_general(twisted.adapted, p, wide),
                      engine)
    after = frame_cache_info()
    assert after.misses == before.misses
    assert after.compiles == before.compiles
    assert after.hits > before.hits


def test_twisted_ff_matches_loop_oracle(twisted, engine):
    from bundlecurv.connection import curvature_F
    from bundlecurv.fields import invert_spd

    adapted = twisted.adapted
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(adapted, point, engine)
    h_inv, _ = invert_spd(np.asarray(adapted.h_tilde(point), dtype=float))
    d_val = np.asarray(adapted.d.d(point), dtype=float)
    f_val = curvature_F(adapted, point, engine)
    n_h, n_g = adapted.n_h, adapted.n_g
    want = 0.0
    for a in range(n_h):
        for bb in range(n_h):
            for c in range(n_h):
                for dd in range(n_h):
                    for m in range(n_g):
                        for n in range(n_g):
                            want += 0.25 * (h_inv[a, bb] * h_inv[c, dd]
                                            * d_val[m, n]
                                            * f_val[m, a, c] * f_val[n, bb, dd])
    assert_close(b.FF, want, 1e-12, "curvature-squared loop oracle")


def test_log_density_flat_and_analytic_route(flat, scaled, engine):
    point = sample_points(flat, 1)[0]
    lap, grad = log_density_terms(flat.adapted, point, engine)
    assert abs(lap) <= 1e-10 and abs(grad) <= 1e-12
    point = ChartPoint([0.15, 0.2], [0.0, 0.1, 0.0])
    fd = log_density_terms(scaled.adapted, point, engine)
    an = log_density_terms(scaled.adapted, point,
                           DerivEngine(fd_step=engine.fd_step,
                                       mode="analytic"))
    assert_close(an[1], fd[1], 1e-9, "analytic vs FD gradient term")
    assert abs(an[0] - fd[0]) <= 1e-7


# ---------------------------------------------------------------------------
# frame Ricci routes


def test_pure_orbit_total_matches_closed_form(engine):
    d_matrix = np.diag([1.0, 1.7, 2.3])
    adapted = _pure_orbit_block(d_matrix)
    point = ChartPoint([0.3], [])
    r_total, r_base = ricci_scalar_pair(adapted, point, engine=engine)
    assert_close(r_total, orbit_scalar_curvature(su2_constants(), d_matrix),
                 1e-6, "pure orbit block")
    assert abs(r_base) <= 1e-6


def test_flat_ricci_pair(flat, engine):
    point = sample_points(flat, 1)[0]
    r_total, r_base = ricci_scalar_pair(flat.adapted, point, engine=engine)
    assert_close(r_total, flat.expected["r_group"], 1e-8, "flat total")
    assert abs(r_base) <= 1e-8


def test_three_way_agreement(twisted, engine):
    """Decomposition, table Ricci, and general-formula Ricci coincide."""
    wide = _widened(engine)
    for point in sample_points(twisted, 2, seed=83):
        b = decomposition_terms(twisted.adapted, point, engine)
        t_total, t_base = ricci_scalar_pair(twisted.adapted, point,
                                            engine=engine)

        def provider(p):
            return christoffel_general(twisted.adapted, p, wide)

        g_total, g_base = ricci_scalar_pair(twisted.adapted, point,
                                            provider, engine)
        assert_close(t_total, b.R_total, 1e-6, "table vs decomposition")
        assert_close(g_total, b.R_total, 1e-6, "general vs decomposition")
        assert_close(t_base, b.R_M, 1e-6, "orbit-space block vs chart value")


# ---------------------------------------------------------------------------
# coordinate-basis oracle


def test_oracle_metric_block_structure(twisted):
    x = np.array([0.1, -0.2])
    f = np.array([0.3, 0.0, 0.1])
    got = oracle_metric(twisted.orig, x, f, np.zeros(3))
    assert got.shape == (8, 8)
    assert_close(got, got.T, 1e-12, "metric symmetry")
    w = np.linalg.eigvalsh(got)
    assert np.min(w) > 0


def test_oracle_flat_values(engine):
    su2 = build_scenario("flat_product", {"lam": 1.4})
    trivial = build_scenario("flat_product", {"group": "abelian"})
    point = sample_points(su2, 1)[0]
    a = np.array([0.2, 0.15, 0.1])
    got = scalar_curvature_coordinate_oracle(su2.orig, su2.chart, point.x,
                                             point.f, a, engine)
    assert_close(got, -1.5 / 1.4, 1e-6, "flat su2 oracle")
    got0 = scalar_curvature_coordinate_oracle(trivial.orig, trivial.chart,
                                              point.x, point.f, a, engine)
    assert abs(got0) <= 1e-6


def test_oracle_matches_adapted_total(twisted, engine):
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(twisted.adapted, point, engine)
    a_vals = sample_group_coordinates(twisted, 2, seed=89)
    o1 = scalar_curvature_coordinate_oracle(twisted.orig, twisted.chart,
                                            point.x, point.f, a_vals[0],
                                            engine)
    o2 = scalar_curvature_coordinate_oracle(twisted.orig, twisted.chart,
                                            point.x, point.f, a_vals[1],
                                            engine)
    assert_close(o1, b.R_total, 1e-6, "oracle vs adapted computation")
    assert_close(o1, o2, 1e-6, "group-coordinate independence")


# ---------------------------------------------------------------------------
# group charts


def test_group_chart_identities(twisted, abelian):
    for scen in (twisted, abelian):
        samples = sample_group_coordinates(scen, 6, seed=97)
        assert validate_group_chart(scen.chart, samples) <= 1e-12


def test_group_chart_factorization(twisted):
    chart = twisted.chart
    for a in sample_group_coordinates(twisted, 4, seed=98):
        u_bar = np.asarray(chart.u_bar(a), dtype=float)
        v = np.asarray(chart.v(a), dtype=float)
        rho = np.asarray(chart.rho(a), dtype=float)
        assert_close(u_bar @ v, rho, 1e-12, "chart factorization")
        # adjoint matrices of a compact group preserve the Killing form
        b = np.diag([-2.0, -2.0, -2.0])
        assert_close(rho.T @ b @ rho, b, 1e-10, "orthogonality")
