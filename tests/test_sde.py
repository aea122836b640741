"""Reduced-process coefficients and the one-step moment check."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from bundlecurv.fields import (ChartPoint, ConfigError, NearSingularError,
                               _stencil)
from bundlecurv.geometry import (AdaptedGeometry, OriginalGeometry,
                                 compile_adapted, point_frame)
from bundlecurv.liecore import OrbitMetric, StructureConstants
from bundlecurv.sde import (
    ReducedSdeCoeffs,
    SdeParams,
    _DRIFT_FIELDS,
    _drift_field,
    density_H,
    diffusion_coefficients,
    drift_coefficients,
    drift_divergence_form,
    euler_maruyama_check,
    reduced_sde_coefficients,
    symmetric_sqrt,
)
from bundlecurv.scenarios import sample_points

from conftest import assert_close, constant_field


def _bare_plane(h_diag):
    """Group-free adapted geometry with a constant diagonal metric."""
    h = np.diag(np.asarray(h_diag, dtype=float))
    n = h.shape[0]
    empty = np.zeros((0, 0))
    return AdaptedGeometry(
        n_x=n, n_v=0, n_g=0,
        h_tilde=constant_field(h),
        h_tilde_inv=constant_field(np.diag(1.0 / np.diag(h))),
        det_h=constant_field(np.prod(np.diag(h)), "scalar"),
        d=OrbitMetric(d=constant_field(empty), d_inv=constant_field(empty),
                      det_d=constant_field(1.0, "scalar")),
        A_conn=constant_field(np.zeros((0, n))),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )


def _conformal_orig():
    def g_p(qs):
        return np.exp(2.0 * qs[:, 0])[:, None, None] * np.eye(2)

    return OriginalGeometry(
        n_P=2, n_v=0, n_g=0,
        G_P=g_p, G_V=np.zeros((0, 0)),
        K_P=lambda qs: np.zeros((len(qs), 2, 0)),
        gens=np.zeros((0, 0, 0)),
        section=lambda xs: xs.copy(),
        section_jac=lambda xs: np.repeat(np.eye(2)[None], len(xs), axis=0),
        chi=lambda qs: np.zeros((len(qs), 0)),
        chi_jac=lambda qs: np.zeros((len(qs), 0, 2)),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )


# ---------------------------------------------------------------------------
# parameters and the matrix root


def test_params_positivity_gates():
    SdeParams()  # defaults are fine
    for bad in ({"mu2": 0.0}, {"kappa": -1.0}):
        with pytest.raises(ConfigError):
            SdeParams(**bad)


def test_symmetric_sqrt_basics():
    np.testing.assert_allclose(symmetric_sqrt(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(symmetric_sqrt(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]))
    assert symmetric_sqrt(np.zeros((0, 0))).shape == (0, 0)


def test_symmetric_sqrt_random_spd():
    rng = np.random.default_rng(29)
    for _ in range(8):
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        root = symmetric_sqrt(m)
        assert_close(root @ root.T, m, 1e-10, "root squares back")
        assert_close(root, root.T, 1e-12, "root symmetry")


def test_symmetric_sqrt_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NearSingularError):
        symmetric_sqrt(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# density and diffusion blocks


def test_density_closed_forms(flat, twisted):
    point = sample_points(flat, 1)[0]
    assert_close(density_H(flat.adapted, point), 1.0, 1e-12, "flat density")
    plane = _bare_plane([4.0, 9.0])
    assert_close(density_H(plane, ChartPoint([0.0, 0.0], [])), 36.0,
                 1e-12, "diagonal density")
    for point in sample_points(twisted, 3, seed=139):
        want = np.linalg.det(np.asarray(twisted.adapted.h_tilde(point)))
        assert_close(density_H(twisted.adapted, point), want, 1e-9,
                     "twisted density")


def test_diffusion_base_block_is_root_of_inverse():
    plane = _bare_plane([0.25, 1.0 / 9.0])   # inverse block diag(4, 9)
    blocks = diffusion_coefficients(plane, ChartPoint([0.0, 0.0], []))
    assert_close(blocks.base, np.diag([2.0, 3.0]), 1e-12, "base root")
    assert blocks.full.shape == (2, 2)


def test_diffusion_squares_to_block_inverse(twisted):
    from bundlecurv.geometry import point_frame

    for point in sample_points(twisted, 3, seed=149):
        blocks = diffusion_coefficients(twisted.adapted, point)
        x = blocks.full
        h_tilde_inv = point_frame(twisted.orig, point).h_tilde_inv[0]
        assert_close(x @ x.T, h_tilde_inv, 1e-9,
                     "diffusion square vs block inverse")
        # lower block triangular by construction
        np.testing.assert_allclose(x[:2, 2:], np.zeros((2, 3)), atol=1e-15)


def test_diffusion_routes_agree(twisted):
    stripped = dataclasses.replace(twisted.adapted, orig=None)
    for point in sample_points(twisted, 3, seed=151):
        with_bundle = diffusion_coefficients(twisted.adapted, point)
        without = diffusion_coefficients(stripped, point)
        assert_close(without.base, with_bundle.base, 1e-9, "base route")
        assert_close(without.mixed, with_bundle.mixed, 1e-9, "mixed route")
        assert_close(without.vector, with_bundle.vector, 1e-9,
                     "vector route")


# ---------------------------------------------------------------------------
# drift


def test_drift_flat_vanishes(flat, engine):
    point = sample_points(flat, 1)[0]
    drift = drift_coefficients(flat.adapted, point, engine)
    np.testing.assert_allclose(drift, np.zeros(5), atol=1e-10)
    div = drift_divergence_form(flat.adapted, point, engine)
    np.testing.assert_allclose(div, np.zeros(5), atol=1e-10)


def test_drift_conformal_plane(engine):
    """sqrt(H) h^{ij} is constant for e^{2x} in two dimensions."""
    adapted = compile_adapted(_conformal_orig())
    point = ChartPoint([0.3, -0.1], [])
    drift = drift_coefficients(adapted, point, engine)
    div = drift_divergence_form(adapted, point, engine)
    np.testing.assert_allclose(drift, np.zeros(2), atol=1e-9)
    assert_close(drift, div, 1e-9, "display vs divergence, no group")


def test_drift_display_matches_divergence(twisted, engine):
    for point in sample_points(twisted, 3, seed=157):
        drift = drift_coefficients(twisted.adapted, point, engine)
        div = drift_divergence_form(twisted.adapted, point, engine)
        assert_close(drift, div, 1e-7, "drift displays")


def _drift_field_one_row(name, frames):
    """The drift field ``name`` at a one-row frame stack, by the display
    on the row's matrices."""
    sqrt_h = float(np.sqrt(frames.det_h[0]))
    n_vp = frames.N_vP[0]
    return {
        "sqrt_h": sqrt_h,
        "sqrt_h_h_base_inv": sqrt_h * frames.h_base_inv[0],
        "sqrt_h_K_V": sqrt_h * frames.K_V[0],
        "sqrt_h_connection": (sqrt_h * frames.h_base_inv[0]
                              @ frames.A_gamma[0].T),
        "W": n_vp @ frames.G_P_inv[0] @ n_vp.T,
    }[name]


def test_drift_fields_on_a_stack_equal_one_row_values(twisted, engine):
    """Each frame field the drift routes difference gives, at every row
    of a stencil, its one-row value, bit for bit."""
    orig = dataclasses.replace(twisted.orig)
    rows, _ = _stencil(np.array([[0.18, -0.12, 0.07, -0.25, 0.16]]),
                       engine.fd_step)
    for name in _DRIFT_FIELDS:
        got = _drift_field(orig, name).func(rows[0])
        want = np.array([
            _drift_field_one_row(name, point_frame(orig, ChartPoint(z[:2],
                                                                    z[2:])))
            for z in rows[0]])
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def test_drift_needs_bundle_data(twisted, engine):
    stripped = dataclasses.replace(twisted.adapted, orig=None)
    point = sample_points(twisted, 1)[0]
    with pytest.raises(ValueError):
        drift_coefficients(stripped, point, engine)


def test_reduced_coefficients_assembly(twisted, engine):
    point = sample_points(twisted, 1)[0]
    coeffs = reduced_sde_coefficients(twisted.adapted, point, engine)
    assert coeffs.H > 0
    assert coeffs.b.shape == (5,)
    assert coeffs.X.shape == (5, 5)
    assert coeffs.n_x == 2 and coeffs.n_v == 3
    assert_close(coeffs.b, drift_coefficients(twisted.adapted, point, engine),
                 1e-12, "drift slot")


# ---------------------------------------------------------------------------
# one-step moment check


def _wiener_coeffs(n=2):
    return ReducedSdeCoeffs(b=np.zeros(n), X=np.eye(n), H=1.0, n_x=n, n_v=0)


def test_moment_check_pure_wiener():
    report = euler_maruyama_check(_wiener_coeffs(), dt=1e-3, n_paths=50_000,
                                  seed=11)
    assert report.passed
    assert report.mean_max_sigma <= 4.0
    assert report.cov_max_sigma <= 4.0
    np.testing.assert_allclose(report.mean_target, np.zeros(2))
    np.testing.assert_allclose(report.cov_target, 1e-3 * np.eye(2))


def test_moment_check_scales_with_params():
    params = SdeParams(mu2=2.0, kappa=3.0)
    report = euler_maruyama_check(_wiener_coeffs(), params=params, dt=1e-3,
                                  n_paths=10_000, seed=5)
    np.testing.assert_allclose(report.cov_target, 6.0 * 1e-3 * np.eye(2))


def test_moment_check_twisted_point(twisted, engine):
    point = sample_points(twisted, 1)[0]
    report = euler_maruyama_check(twisted.adapted, point=point, dt=1e-4,
                                  n_paths=200_000, seed=42, engine=engine)
    assert report.passed
    assert report.mean_max_sigma <= 4.0
    assert report.cov_max_sigma <= 4.0


def test_moment_check_is_bit_reproducible():
    a = euler_maruyama_check(_wiener_coeffs(3), dt=1e-4, n_paths=20_000,
                             seed=123)
    b = euler_maruyama_check(_wiener_coeffs(3), dt=1e-4, n_paths=20_000,
                             seed=123)
    assert np.array_equal(a.mean_sample, b.mean_sample)
    assert np.array_equal(a.cov_sample, b.cov_sample)
    assert a.mean_max_sigma == b.mean_max_sigma
    c = euler_maruyama_check(_wiener_coeffs(3), dt=1e-4, n_paths=20_000,
                             seed=124)
    assert not np.array_equal(a.mean_sample, c.mean_sample)


def test_moment_check_sigma_limit():
    report = euler_maruyama_check(_wiener_coeffs(), dt=1e-3, n_paths=2_000,
                                  seed=1, sigma_limit=1e-6)
    assert not report.passed


def test_moment_check_input_gates(twisted):
    with pytest.raises(ConfigError):
        euler_maruyama_check(_wiener_coeffs(), n_paths=0)
    with pytest.raises(ConfigError):
        euler_maruyama_check(_wiener_coeffs(), dt=0.0)
    with pytest.raises(ConfigError):
        euler_maruyama_check(_wiener_coeffs(), seed="7")
    with pytest.raises(ConfigError):
        euler_maruyama_check(twisted.adapted)  # geometry without a point


def _two_pass_moments(coeffs, dt, n_paths, seed):
    """The moment check by whole-array arithmetic: one ``(n_paths, n)``
    draw from the same seed, the increments, their mean and centred
    covariance. The reference the streamed sums are held against."""
    n_dim = coeffs.b.shape[0]
    mean_target = 0.5 * coeffs.b * dt
    cov_target = dt * (coeffs.X @ coeffs.X.T)
    rng = np.random.Generator(np.random.Philox(seed))
    noise = rng.standard_normal((n_paths, n_dim))
    incr = mean_target[None, :] + np.sqrt(dt) * (noise @ coeffs.X.T)
    mean_sample = incr.mean(axis=0)
    if n_paths > 1:
        mean_se = incr.std(axis=0, ddof=1) / np.sqrt(n_paths)
        centered = incr - mean_sample[None, :]
        cov_sample = centered.T @ centered / (n_paths - 1)
        cov_se = np.sqrt(
            (np.outer(np.diag(cov_target), np.diag(cov_target))
             + cov_target ** 2) / (n_paths - 1))
    else:
        mean_se = np.full(n_dim, np.inf)
        cov_sample = np.zeros((n_dim, n_dim))
        cov_se = np.full((n_dim, n_dim), np.inf)
    mean_max = float(np.max(np.abs(mean_sample - mean_target)
                            / np.maximum(mean_se, 1e-300)))
    cov_max = float(np.max(np.abs(cov_sample - cov_target)
                           / np.maximum(cov_se, 1e-300)))
    return mean_sample, cov_sample, mean_max, cov_max


_ONE_DIM = ReducedSdeCoeffs(b=np.array([0.7]), X=np.array([[1.3]]), H=1.0,
                            n_x=1, n_v=0)


@pytest.mark.parametrize("coeffs", [_wiener_coeffs(5), _ONE_DIM],
                         ids=["wiener5", "one_dim"])
@pytest.mark.parametrize("n_paths", [1, 2, 8191, 8192, 8193, 200_000])
def test_streamed_moments_match_two_pass_formulas(coeffs, n_paths):
    """The noise is reduced block by block to its mean and centred Gram
    matrix; every statistic agrees with the whole-array arithmetic on the
    same normals within 1e-12 of its scale: the sample mean of its size
    or its standard error, whichever is larger, the covariance of the
    target's, a sigma score of itself or 1 (it is scored against a limit
    of a few units)."""
    report = euler_maruyama_check(coeffs, dt=1e-4, n_paths=n_paths, seed=3)
    mean, cov, mean_max, cov_max = _two_pass_moments(coeffs, 1e-4, n_paths,
                                                     3)
    mean_scale = max(np.max(np.abs(mean)),
                     np.max(np.sqrt(np.diag(report.cov_target) / n_paths)))
    assert np.max(np.abs(report.mean_sample - mean)) <= 1e-12 * mean_scale
    assert np.max(np.abs(report.cov_sample - cov)) \
        <= 1e-12 * np.max(np.abs(report.cov_target))
    assert abs(report.mean_max_sigma - mean_max) <= 1e-12 * max(1.0,
                                                                mean_max)
    assert abs(report.cov_max_sigma - cov_max) <= 1e-12 * max(1.0, cov_max)


def _traced_peak(coeffs, n_paths):
    """Peak traced allocation, in bytes, of one moment check."""
    tracemalloc.start()
    try:
        euler_maruyama_check(coeffs, dt=1e-4, n_paths=n_paths, seed=9)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_moment_check_memory_does_not_grow_with_paths():
    """numpy's data buffers are traced: one whole-array draw of 200 000
    five-dimensional rows alone is 8 MB."""
    coeffs = _wiener_coeffs(5)
    euler_maruyama_check(coeffs, n_paths=10)
    peak = _traced_peak(coeffs, 200_000)
    assert peak < 2_000_000
    assert _traced_peak(coeffs, 2_000_000) <= 1.1 * peak
