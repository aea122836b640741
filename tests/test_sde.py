"""Reduced-process coefficients and the one-step moment check."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bundlecurv.curvature import PointTerms
from bundlecurv.fields import (ChartPoint, ConfigError, NearSingularError,
                               _stencil)
from bundlecurv.geometry import (AdaptedGeometry, OriginalGeometry,
                                 compile_adapted, frames_at, point_frame,
                                 point_frames)
from bundlecurv.liecore import StructureConstants
from bundlecurv.sde import (
    ReducedSdeCoeffs,
    SdeParams,
    _drift_values,
    _moment_report,
    _noise_moments,
    density_H,
    diffusion_coefficients,
    drift_coefficients,
    drift_divergence_form,
    euler_maruyama_check,
    reduced_sde_coefficients,
    symmetric_sqrt,
)
from bundlecurv.scenarios import sample_points

from conftest import assert_close, constant_field, frames_of


def _bare_plane(h_diag):
    """Group-free adapted geometry with a constant diagonal metric."""
    h = np.diag(np.asarray(h_diag, dtype=float))
    n = h.shape[0]
    empty = np.zeros((0, 0))
    return AdaptedGeometry(
        n_x=n, n_v=0,
        frames=frames_of(
            h_tilde=constant_field(h),
            h_tilde_inv=constant_field(np.diag(1.0 / np.diag(h))),
            det_h=constant_field(np.prod(np.diag(h))),
            d=constant_field(empty), d_inv=constant_field(empty),
            det_d=constant_field(1.0), A=constant_field(np.zeros((0, n)))),
        c=StructureConstants(0, np.zeros((0, 0, 0))),
    )


def _conformal_orig():
    def g_p(qs):
        return np.exp(2.0 * qs[:, 0])[:, None, None] * np.eye(2)

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


def test_symmetric_sqrt_names_the_failing_matrix():
    """Of ``diag(100, -5e-11)`` and ``diag(1, -2e-12)`` only the second
    falls below its scaled eigenvalue floor: the error names index 1 and
    that matrix's eigenvalue, not the first's. An asymmetric matrix of a
    stack is named the same way."""
    stack = np.array([np.diag([100.0, -5e-11]), np.diag([1.0, -2e-12])])
    with pytest.raises(NearSingularError) as caught:
        symmetric_sqrt(stack)
    assert caught.value.index == 1
    assert str(caught.value) == ("matrix is not positive semidefinite "
                                 "(min eigenvalue -2.000e-12) at index 1")
    stack = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]], np.eye(2)])
    with pytest.raises(ValueError, match=r"not symmetric at index 1$"):
        symmetric_sqrt(stack)


# ---------------------------------------------------------------------------
# density and diffusion blocks


def test_density_closed_forms(flat, twisted):
    point = sample_points(flat, 1)[0]
    assert_close(density_H(PointTerms(flat.adapted, point))[0], 1.0, 1e-12,
                 "flat density")
    plane = _bare_plane([4.0, 9.0])
    assert_close(density_H(PointTerms(plane, ChartPoint([0.0, 0.0], [])))[0],
                 36.0, 1e-12, "diagonal density")
    points = sample_points(twisted, 3, seed=139)
    got = density_H(PointTerms(twisted.adapted, points))
    for point, value in zip(points, got):
        want = np.linalg.det(
            frames_at(twisted.adapted, point.coords[None]).h_tilde[0])
        assert_close(value, want, 1e-9, "twisted density")


def test_diffusion_base_block_is_root_of_inverse():
    plane = _bare_plane([0.25, 1.0 / 9.0])   # inverse block diag(4, 9)
    blocks = diffusion_coefficients(PointTerms(plane,
                                               ChartPoint([0.0, 0.0], [])))
    assert_close(blocks.base[0], np.diag([2.0, 3.0]), 1e-12, "base root")
    assert blocks.full.shape == (1, 2, 2)


def test_diffusion_squares_to_block_inverse(twisted):
    from bundlecurv.geometry import point_frame

    points = sample_points(twisted, 3, seed=149)
    stacked = diffusion_coefficients(PointTerms(twisted.adapted, points))
    for point, x in zip(points, stacked.full):
        h_tilde_inv = point_frame(twisted.orig, point).h_tilde_inv[0]
        assert_close(x @ x.T, h_tilde_inv, 1e-9,
                     "diffusion square vs block inverse")
        # lower block triangular by construction
        np.testing.assert_allclose(x[:2, 2:], np.zeros((2, 3)), atol=1e-15)


def test_diffusion_routes_agree(twisted):
    stripped = dataclasses.replace(twisted.adapted, orig=None)
    points = sample_points(twisted, 3, seed=151)
    with_bundle = diffusion_coefficients(PointTerms(twisted.adapted, points))
    without = diffusion_coefficients(PointTerms(stripped, points))
    for i in range(len(points)):
        assert_close(without.base[i], with_bundle.base[i], 1e-9, "base route")
        assert_close(without.mixed[i], with_bundle.mixed[i], 1e-9,
                     "mixed route")
        assert_close(without.vector[i], with_bundle.vector[i], 1e-9,
                     "vector route")


# ---------------------------------------------------------------------------
# drift


def test_drift_flat_vanishes(flat, engine):
    terms = PointTerms(flat.adapted, sample_points(flat, 1)[0], engine)
    drift = drift_coefficients(terms)[0]
    np.testing.assert_allclose(drift, np.zeros(5), atol=1e-10)
    div = drift_divergence_form(terms)[0]
    np.testing.assert_allclose(div, np.zeros(5), atol=1e-10)


def test_drift_conformal_plane(engine):
    """sqrt(H) h^{ij} is constant for e^{2x} in two dimensions."""
    adapted = compile_adapted(_conformal_orig())
    terms = PointTerms(adapted, ChartPoint([0.3, -0.1], []), engine)
    drift = drift_coefficients(terms)[0]
    div = drift_divergence_form(terms)[0]
    np.testing.assert_allclose(drift, np.zeros(2), atol=1e-9)
    assert_close(drift, div, 1e-9, "display vs divergence, no group")


def test_drift_display_matches_divergence(twisted, engine):
    terms = PointTerms(twisted.adapted, sample_points(twisted, 3, seed=157),
                       engine)
    for drift, div in zip(drift_coefficients(terms),
                          drift_divergence_form(terms)):
        assert_close(drift, div, 1e-7, "drift displays")


def _drift_values_one_row(frames):
    """The drift fields at a one-row frame stack, in the order of
    ``_drift_values``, by the displays on the row's matrices."""
    sqrt_h = float(np.sqrt(frames.det_h[0]))
    n_vp = frames.N_vP[0]
    return (sqrt_h * frames.h_base_inv[0], sqrt_h * frames.K_V[0], sqrt_h,
            n_vp @ frames.G_P_inv[0] @ n_vp.T,
            sqrt_h * frames.h_base_inv[0] @ frames.A_gamma[0].T)


def test_drift_fields_on_a_stack_equal_one_row_values(twisted, engine):
    """Each frame field the drift routes difference gives, at every row
    of a stencil, its one-row value, bit for bit."""
    orig = dataclasses.replace(twisted.orig)
    rows, _ = _stencil(np.array([[0.18, -0.12, 0.07, -0.25, 0.16]]),
                       engine.fd_step)
    stacked = _drift_values(point_frames(orig, rows[0]))
    single = [_drift_values_one_row(point_frame(orig, ChartPoint(z[:2],
                                                                 z[2:])))
              for z in rows[0]]
    assert len(stacked) == 5
    for index, got in enumerate(stacked):
        want = np.array([values[index] for values in single])
        assert got.shape == want.shape, index
        assert np.array_equal(got, want), index


def test_drift_needs_bundle_data(twisted, engine):
    stripped = dataclasses.replace(twisted.adapted, orig=None)
    point = sample_points(twisted, 1)[0]
    with pytest.raises(ValueError):
        drift_coefficients(PointTerms(stripped, point, engine))


def test_reduced_coefficients_assembly(twisted, engine, compiles):
    """The drift, diffusion and density are read from one point record,
    so from one frame compile on the point's 21-row stencil, with the
    bits each of the three routes gives at row 0 of its own record."""
    point = sample_points(twisted, 1)[0]
    coeffs = reduced_sde_coefficients(twisted.adapted, point, engine)
    assert compiles == [21]
    assert coeffs.H > 0
    assert coeffs.b.shape == (5,)
    assert coeffs.X.shape == (5, 5)
    adapted = twisted.adapted
    assert np.array_equal(
        coeffs.b, drift_coefficients(PointTerms(adapted, point, engine))[0])
    assert np.array_equal(
        coeffs.X,
        diffusion_coefficients(PointTerms(adapted, point, engine)).full[0])
    assert coeffs.H == density_H(PointTerms(adapted, point, engine))[0]


# ---------------------------------------------------------------------------
# one-step moment check


def _wiener_coeffs(n=2):
    return ReducedSdeCoeffs(b=np.zeros(n), X=np.eye(n), H=1.0)


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
    with pytest.raises(ConfigError, match="non-negative"):
        euler_maruyama_check(_wiener_coeffs(), seed=-1)
    with pytest.raises(ConfigError):
        euler_maruyama_check(twisted.adapted)  # geometry without a point


def _two_pass_moments(coeffs, dt, noise):
    """The moment check by whole-array arithmetic on the explicit normal
    rows ``noise``: the increments, their mean and centred covariance.
    The reference the scoring of the noise's two moments is held
    against."""
    n_paths, n_dim = noise.shape
    mean_target = 0.5 * coeffs.b * dt
    cov_target = dt * (coeffs.X @ coeffs.X.T)
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


def _gram_moments(noise):
    """Mean and centred Gram matrix of each stack of normal rows, two-pass:
    ``(..., n_paths, n)`` to ``(..., n)`` and ``(..., n, n)``."""
    mean = noise.mean(axis=-2)
    centred = noise - mean[..., None, :]
    return mean, centred.swapaxes(-1, -2) @ centred


_ONE_DIM = ReducedSdeCoeffs(b=np.array([0.7]), X=np.array([[1.3]]), H=1.0)


@pytest.mark.parametrize("coeffs", [_wiener_coeffs(5), _ONE_DIM],
                         ids=["wiener5", "one_dim"])
@pytest.mark.parametrize("n_paths", [1, 2, 8191, 8192, 8193, 200_000])
def test_streamed_moments_match_two_pass_formulas(coeffs, n_paths):
    """The check scores the mean and centred Gram matrix of its noise;
    fed those two of an explicit normal array, every statistic agrees
    with the whole-array arithmetic on the same array within 1e-12 of
    its scale: the sample mean of its size or its standard error,
    whichever is larger, the covariance of the target's, a sigma score
    of itself or 1 (it is scored against a limit of a few units)."""
    rng = np.random.Generator(np.random.Philox(3))
    noise = rng.standard_normal((n_paths, coeffs.b.shape[0]))
    report = _moment_report(coeffs, SdeParams(), 1e-4, n_paths, 3, 4.0,
                            *_gram_moments(noise))
    mean, cov, mean_max, cov_max = _two_pass_moments(coeffs, 1e-4, noise)
    mean_scale = max(np.max(np.abs(mean)),
                     np.max(np.sqrt(np.diag(report.cov_target) / n_paths)))
    assert np.max(np.abs(report.mean_sample - mean)) <= 1e-12 * mean_scale
    assert np.max(np.abs(report.cov_sample - cov)) \
        <= 1e-12 * np.max(np.abs(report.cov_target))
    assert abs(report.mean_max_sigma - mean_max) <= 1e-12 * max(1.0,
                                                                mean_max)
    assert abs(report.cov_max_sigma - cov_max) <= 1e-12 * max(1.0, cov_max)


@pytest.mark.parametrize("n_dim", [1, 5])
@pytest.mark.parametrize("n_paths", [1, 2, 3, 6, 50])
def test_drawn_moments_follow_the_law_of_normal_rows(n_paths, n_dim):
    """The drawn mean and centred Gram matrix have the law of those of
    ``n_paths`` explicit normal rows, ``n_paths - 1 < n_dim`` (a
    rank-deficient Gram matrix) included: a two-sample Kolmogorov-Smirnov
    test per entry over 2,000 seeds finds no difference at 1e-5."""
    draws = [_noise_moments(seed, n_paths, n_dim) for seed in range(2000)]
    drawn_mean = np.array([mean for mean, _ in draws])
    drawn_gram = np.array([gram for _, gram in draws])
    rng = np.random.Generator(np.random.Philox(1000 * n_paths + n_dim))
    mean, gram = _gram_moments(rng.standard_normal((2000, n_paths, n_dim)))
    upper = np.triu_indices(n_dim)
    pairs = [(drawn_mean[:, i], mean[:, i]) for i in range(n_dim)] \
        + [(drawn_gram[:, i, j], gram[:, i, j]) for i, j in zip(*upper)]
    for drawn, explicit in pairs:
        assert stats.ks_2samp(drawn, explicit).pvalue > 1e-5
    if n_paths == 1:
        assert not drawn_gram.any()


def test_drawn_gram_matrix_has_wishart_moments():
    """At 200,000 paths over 20,000 seeds the drawn Gram matrix has the
    mean ``(n - 1) I`` and the entry variances ``(n - 1)(1 + delta_ij)``
    of a Wishart matrix, within five standard errors of the estimates."""
    n_paths, n_dim, n_seeds = 200_000, 5, 20_000
    gram = np.array([_noise_moments(seed, n_paths, n_dim)[1]
                     for seed in range(n_seeds)])
    dof = n_paths - 1
    var = dof * (1.0 + np.eye(n_dim))
    mean_err = np.abs(gram.mean(axis=0) - dof * np.eye(n_dim))
    assert np.all(mean_err <= 5.0 * np.sqrt(var / n_seeds))
    # the entries are near normal, so a sample variance has a relative
    # standard error of sqrt(2 / n_seeds)
    var_err = np.abs(gram.var(axis=0, ddof=1) / var - 1.0)
    assert np.all(var_err <= 5.0 * np.sqrt(2.0 / n_seeds))


#: Failed calls of the default check on the 5-dimensional Wiener
#: coefficients over seeds 0 to 199,999.
_FALSE_ALARMS = 253 / 200_000


def test_false_alarm_rate_matches_the_measured_rate():
    """On correct coefficients the default check fails at the rate quoted
    in its docstring: over 20,000 other seeds the failures lie in the
    99.9% binomial interval of that rate."""
    seeds = range(1_000_000, 1_020_000)
    fails = sum(not euler_maruyama_check(_wiener_coeffs(5), seed=seed).passed
                for seed in seeds)
    low, high = stats.binom.interval(0.999, len(seeds), _FALSE_ALARMS)
    assert low <= fails <= high


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
