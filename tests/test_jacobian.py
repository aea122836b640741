"""Reduction Jacobian routes, Killing identities, second fundamental form."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import (_log_det_d_field, decomposition_terms,
                                  scalar_curvature_coordinate_oracle)
from bundlecurv.fields import ChartPoint, partial
from bundlecurv.geometry import compile_adapted
from bundlecurv.jacobian import (
    KillingIdentityResiduals,
    PointRecord,
    j_norm_squared,
    jacobian_direct,
    jacobian_geometric,
    killing_derivatives,
    killing_identities_check,
    second_fundamental_form,
)
from bundlecurv.liecore import su2_constants
from bundlecurv.scenarios import (
    _SU2_GENS,
    _build_original,
    _twisted_bbar,
    _twisted_g,
    _twisted_twist,
    sample_points,
)

from conftest import assert_close


def _vector_free_orig():
    """Twisted bundle with no vector sector at all (n_v = 0)."""
    return _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=np.zeros((3, 0, 0)),
        g_v=np.zeros((0, 0)), c=su2_constants())


# ---------------------------------------------------------------------------
# sigma field


def test_sigma_scaled_closed_form(scaled, engine):
    """``ln det d`` is ``6 slope x0`` on scaled_orbit."""
    slope = scaled.params["slope"]
    sigma = _log_det_d_field(scaled.adapted)
    point = ChartPoint([0.3, -0.2], [0.1, 0.0, 0.2])
    assert_close(sigma(point), 6.0 * slope * 0.3, 1e-12, "log volume")
    grad = partial(engine, sigma, point.coords[None], point.n_x,
                   range(5))[0]
    assert_close(grad[0], 6.0 * slope, 1e-9, "volume slope")
    np.testing.assert_allclose(grad[1:], np.zeros(4), atol=1e-9)


def test_sigma_gradient_routes_agree(twisted, engine):
    """Trace formula, ``tr(d^-1 partial d)``, versus direct differencing
    of ``ln det d``."""
    adapted = twisted.adapted
    sigma = _log_det_d_field(adapted)
    for point in sample_points(twisted, 3, seed=103):
        zs = point.coords[None]
        dd = partial(engine, adapted.d.d, zs, point.n_x, range(5))[0]
        trace = np.trace(adapted.d.d_inv(point) @ dd, axis1=-2, axis2=-1)
        fd = partial(engine, sigma, zs, point.n_x, range(5))[0]
        assert_close(trace, fd, 1e-9, "gradient routes")


# ---------------------------------------------------------------------------
# Jacobian, both faces


def test_jacobian_flat_vanishes(flat, engine):
    point = sample_points(flat, 1)[0]
    assert abs(jacobian_direct(flat.adapted, point, engine)) <= 1e-10
    assert abs(jacobian_geometric(flat.adapted, point, engine)) <= 1e-10


def test_jacobian_scaled_closed_form(scaled, engine):
    for point in sample_points(scaled, 3, seed=107):
        direct = jacobian_direct(scaled.adapted, point, engine)
        assert_close(direct, scaled.expected["jacobian"], 1e-8,
                     "exponential orbit volume")


def test_jacobian_direct_matches_geometric(twisted, engine):
    for point in sample_points(twisted, 3, seed=109):
        direct = jacobian_direct(twisted.adapted, point, engine)
        geometric = jacobian_geometric(twisted.adapted, point, engine)
        assert_close(direct, geometric, 1e-6, "two faces of the Jacobian")


# ---------------------------------------------------------------------------
# Killing covariant derivatives and identities


def test_killing_vector_part_is_generator_product(twisted, engine):
    orig = twisted.orig
    point = ChartPoint([0.1, 0.2], [0.3, -0.1, 0.2])
    _, v_part = killing_derivatives(orig, point, engine)
    assert v_part.shape == (3, 3, 3)
    for alpha in range(3):
        for beta in range(3):
            want = orig.gens[beta] @ orig.gens[alpha] @ point.f
            assert_close(v_part[:, alpha, beta], want, 1e-12,
                         "vector part (%d,%d)" % (alpha, beta))


def test_vector_identity_standalone_oracle():
    """-G_V^{-1} d(K.G_V.K)/df against the symmetrized generator products,
    with nothing from the library in the loop."""
    gens = _SU2_GENS
    lam = 1.3
    rng = np.random.default_rng(19)
    f = 0.4 * rng.normal(size=3)
    step = 1e-6

    def gamma_prime(fv):
        k = np.einsum("mab,b->am", gens, fv)
        return lam * k.T @ k

    for q in range(3):
        hi = f.copy(); hi[q] += step
        lo = f.copy(); lo[q] -= step
        lhs = -(gamma_prime(hi) - gamma_prime(lo)) / (2.0 * step * lam)
        for a in range(3):
            for b in range(3):
                rhs = (gens[b] @ gens[a] @ f + gens[a] @ gens[b] @ f)[q]
                assert abs(lhs[a, b] - rhs) <= 1e-8


def test_killing_identities_flat(flat, engine):
    point = sample_points(flat, 1)[0]
    res = killing_identities_check(PointRecord(flat.adapted, point, engine))
    assert res.max_residual() <= 1e-10


@pytest.mark.parametrize("position", range(4))
def test_killing_residuals_keep_a_nan(position):
    """A NaN residual in any position fails the bound of
    ``test_killing_identities_flat``."""
    residuals = [1e-12, 0.0, 0.0, 0.0]
    residuals[position] = float("nan")
    worst = KillingIdentityResiduals(*residuals).max_residual()
    assert np.isnan(worst)
    assert not worst <= 1e-10


def test_killing_identities_need_bundle_data(twisted, engine):
    adapted = dataclasses.replace(twisted.adapted, orig=None)
    point = sample_points(twisted, 1)[0]
    with pytest.raises(ValueError, match="bundle data"):
        killing_identities_check(PointRecord(adapted, point, engine))


def test_killing_identities_twisted(twisted, engine):
    for point in sample_points(twisted, 5, seed=127):
        res = killing_identities_check(PointRecord(twisted.adapted, point,
                                                   engine))
        assert res.raw_base <= 1e-7
        assert res.raw_vector <= 1e-7
        assert res.adapted_base <= 1e-7
        assert res.adapted_vector <= 1e-7


# ---------------------------------------------------------------------------
# second fundamental form


def test_form_vanishes_for_flat_product(flat, engine):
    point = sample_points(flat, 1)[0]
    form = second_fundamental_form(flat.adapted, point, engine)
    np.testing.assert_allclose(form.closed, np.zeros((5, 3, 3)), atol=1e-12)
    np.testing.assert_allclose(form.raw, np.zeros((5, 3, 3)), atol=1e-10)


def test_form_raw_matches_closed(twisted, engine):
    for point in sample_points(twisted, 4, seed=131):
        form = second_fundamental_form(twisted.adapted, point, engine)
        np.testing.assert_allclose(form.closed, form.closed.swapaxes(1, 2),
                                   rtol=0.0, atol=1e-10)
        assert_close(form.raw, form.closed, 1e-7, "raw projections")


def test_form_without_vector_sector(engine):
    orig = _vector_free_orig()
    point = ChartPoint([0.2, -0.3], [])
    form = second_fundamental_form(compile_adapted(orig), point, engine)
    j1, j2, j3, j4 = form.raw_pieces
    np.testing.assert_allclose(j2, np.zeros_like(j2), atol=1e-13)
    np.testing.assert_allclose(j3, np.zeros_like(j3), atol=1e-13)
    np.testing.assert_allclose(j4, np.zeros_like(j4), atol=1e-13)
    assert_close(form.raw, j1, 1e-13, "only the base projection survives")
    assert_close(form.raw, form.closed, 1e-7, "raw vs closed, n_v = 0")


def test_vector_free_oracle_matches_total(engine):
    """The coordinate oracle runs the group series on 0 x 0 vector-sector
    matrices, and agrees with the decomposition total at two group
    draws."""
    orig = _vector_free_orig()
    point = ChartPoint([0.2, -0.3], [])
    total = decomposition_terms(compile_adapted(orig), point, engine).R_total
    for a in ([0.2, 0.15, 0.1], [0.3, -0.1, 0.25]):
        oracle = scalar_curvature_coordinate_oracle(orig, None, point.x,
                                                    point.f, np.array(a),
                                                    engine)
        assert_close(oracle, total, 1e-6, "oracle vs decomposition, n_v = 0")


def test_form_adapted_only_route(twisted, engine):
    stripped = dataclasses.replace(twisted.adapted, orig=None)
    point = sample_points(twisted, 1)[0]
    form = second_fundamental_form(stripped, point, engine)
    assert form.raw is None
    full = second_fundamental_form(twisted.adapted, point, engine)
    assert_close(form.closed, full.closed, 1e-13, "closed form, no bundle")


# ---------------------------------------------------------------------------
# form norm


def test_norm_flat_and_scaled(flat, scaled, engine):
    point = sample_points(flat, 1)[0]
    assert abs(j_norm_squared(flat.adapted, point, engine)) <= 1e-12
    point = ChartPoint([0.1, 0.3], [0.2, 0.0, -0.1])
    assert_close(j_norm_squared(scaled.adapted, point, engine),
                 scaled.expected["dddd"], 1e-8, "scaled form norm")


def test_norm_matches_loop_pairing(twisted, engine):
    point = sample_points(twisted, 1)[0]
    adapted = twisted.adapted
    form = second_fundamental_form(adapted, point, engine)
    d_inv = np.asarray(adapted.d.d_inv(point), dtype=float)
    h_val = np.asarray(adapted.h_tilde(point), dtype=float)
    want = 0.0
    for a in range(3):
        for m in range(3):
            for b in range(3):
                for n in range(3):
                    for nn in range(5):
                        for mm in range(5):
                            want += (d_inv[a, m] * d_inv[b, n]
                                     * h_val[nn, mm]
                                     * form.closed[nn, a, b]
                                     * form.closed[mm, m, n])
    got = j_norm_squared(adapted, point, engine)
    assert_close(got, want, 1e-12, "trace pairing loops")


def test_norm_reads_the_closed_form_alone(twisted, engine, monkeypatch):
    """The norm builds the closed form only, with no Killing derivative,
    and equals the norm of the whole form bit for bit."""
    from bundlecurv import jacobian

    point = sample_points(twisted, 1, seed=139)[0]
    adapted = twisted.adapted
    form = second_fundamental_form(adapted, point, engine)
    want = form.norm_squared(adapted.d.d_inv(point), adapted.h_tilde(point))

    def refused(*args, **kwargs):
        raise AssertionError("killing_derivatives called")

    monkeypatch.setattr(jacobian, "killing_derivatives", refused)
    assert j_norm_squared(adapted, point, engine) == want


def test_norm_reproduces_decomposition_term(twisted, engine):
    for point in sample_points(twisted, 3, seed=137):
        b = decomposition_terms(twisted.adapted, point, engine)
        got = j_norm_squared(twisted.adapted, point, engine)
        assert_close(got, b.DdDd, 1e-9, "form norm vs decomposition term")
