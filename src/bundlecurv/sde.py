r"""Drift and diffusion of the reduced stochastic process.

After the group is factored out, the local process on the orbit space
solves

.. math::

    d\tilde\xi(t) = \tfrac12 \mu^2\kappa\, \tilde b\, dt
        + \mu\sqrt\kappa\, \tilde X\, d\tilde w,

where the drift is the divergence part of the Laplace-Beltrami operator
of the orbit-space metric and :math:`\tilde X\tilde X^\top` is its block
inverse. Two consistency layers are exposed:

* algebra: ``diffusion_coefficients`` squares back to the block inverse,
  and the transcribed drift displays agree with the divergence form
  :math:`\tilde b^{A'} = H^{-1/2}\partial_{B'}(H^{1/2}\tilde h^{A'B'})`,
* statistics: ``euler_maruyama_check`` draws the sample moments of one
  short step from their exact law at a fixed seed, at a cost that does
  not grow with the paths, and scores them against the analytic ones.

Every coefficient route takes a record (``curvature.PointTerms``),
computes at all its points at once, from the frames it compiled once on
their centre-first stencils, and returns one leading entry per point.
``reduced_sde_coefficients`` reads the three coefficients at one point
from a fresh one-point record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, ConfigError, DEFAULT_ENGINE, DerivEngine,
                     NearSingularError, _first_failure, _stencil_partials,
                     invert_spd)
from .geometry import AdaptedGeometry
from .curvature import PointTerms

__all__ = [
    "SdeParams",
    "DiffusionBlocks",
    "ReducedSdeCoeffs",
    "MomentReport",
    "symmetric_sqrt",
    "density_H",
    "diffusion_coefficients",
    "drift_coefficients",
    "drift_divergence_form",
    "reduced_sde_coefficients",
    "euler_maruyama_check",
]

#: Most negative eigenvalue tolerated (relative to scale) when taking a
#: PSD square root; anything lower means the block was not a Gram matrix.
SQRT_EIGENVALUE_FLOOR = -1e-12


@dataclass(frozen=True)
class SdeParams:
    """Physical constants of the diffusion generator.

    ``mu2`` is the diffusivity scale (hbar over mass), ``kappa`` the real
    positive semigroup parameter.
    """

    mu2: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("mu2", "kappa"):
            if not float(getattr(self, name)) > 0.0:
                raise ConfigError(f"SdeParams.{name} must be positive")


@dataclass(frozen=True)
class DiffusionBlocks:
    r"""The three diffusion blocks, at one point or at each point of a
    stack.

    ``base`` is :math:`(h^{ij})^{1/2}`, ``mixed`` the induced
    :math:`\tilde X^a_{\bar m} = \tilde X^k_{\bar m}\,
    {}^{(\gamma)}\!\mathcal A^\mu_k K^a_\mu`, and ``vector`` the root of
    :math:`\gamma^{\alpha\beta}K^a_\alpha K^b_\beta + G^{ab}`.
    """

    base: np.ndarray
    mixed: np.ndarray
    vector: np.ndarray

    @property
    def full(self) -> np.ndarray:
        n_b, n_v = self.base.shape[-1], self.vector.shape[-1]
        full = np.zeros(self.base.shape[:-2] + (n_b + n_v, n_b + n_v))
        full[..., :n_b, :n_b] = self.base
        full[..., n_b:, :n_b] = self.mixed
        full[..., n_b:, n_b:] = self.vector
        return full


@dataclass(frozen=True)
class ReducedSdeCoeffs:
    """Reduced-process coefficients at one point.

    ``b`` stacks the base and vector drift components; ``X`` is the full
    lower-block-triangular diffusion matrix with ``X Xᵀ`` equal to the
    block inverse of the orbit-space metric; ``H`` its determinant.
    """

    b: np.ndarray
    X: np.ndarray
    H: float


@dataclass(frozen=True)
class MomentReport:
    """One-step Euler-Maruyama moments against their analytic targets."""

    n_paths: int
    dt: float
    seed: int
    sigma_limit: float
    mean_target: np.ndarray
    mean_sample: np.ndarray
    mean_max_sigma: float
    cov_target: np.ndarray
    cov_sample: np.ndarray
    cov_max_sigma: float
    passed: bool


def symmetric_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root by eigendecomposition.

    ``mat`` is one matrix or an ``(..., n, n)`` stack, rooted matrix by
    matrix. Any factor with ``X Xᵀ = mat`` gives the same process law;
    the symmetric root is chosen for determinism. Eigenvalues below the
    rounding floor raise; tiny negatives are clamped to zero. An error
    on a stack names the first failing matrix and its own eigenvalue.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.zeros_like(mat)
    mat_t = mat.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    asym = np.abs(mat - mat_t).max(axis=(-2, -1)) > 1e-10 * scale
    if asym.any():
        _first_failure(asym, ValueError,
                       "matrix square root input is not symmetric")
    w, v = np.linalg.eigh(0.5 * (mat + mat_t))
    # ascending eigenvalues: the first is the smallest
    w_min = w[..., 0]
    negative = w_min < SQRT_EIGENVALUE_FLOOR * scale
    if negative.any():
        _first_failure(negative, NearSingularError,
                       "matrix is not positive semidefinite (min eigenvalue "
                       "%.3e)", w_min)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)


def density_H(terms: PointTerms) -> np.ndarray:
    """Determinant of the orbit-space block metric at each point of
    ``terms``, a ``(B,)`` array read from the record's checked frames."""
    return terms.frames.det_h[:, 0]


def diffusion_coefficients(terms: PointTerms) -> DiffusionBlocks:
    """Diffusion blocks whose assembled square reproduces the block
    inverse, at every point of ``terms``, stacked.

    With bundle data the blocks follow the transcribed displays; without
    it they are recovered from the quadrants of the block inverse, which
    agrees by the gauge identity behind the inverse-metric display.
    """
    adapted = terms.adapted
    n_x = adapted.n_x
    if adapted.orig is not None:
        frames = terms.at_points
        k_v = frames.K_V
        x_base = symmetric_sqrt(frames.h_base_inv)
        mixed = k_v @ frames.A_gamma @ x_base
        x_vector = symmetric_sqrt(k_v @ frames.gamma_inv
                                  @ k_v.swapaxes(1, 2)
                                  + adapted.orig.G_V_inv)
        return DiffusionBlocks(base=x_base, mixed=mixed, vector=x_vector)
    h_inv = terms.frames.h_tilde_inv[:, 0]
    quad_xx = h_inv[:, :n_x, :n_x]
    quad_vx = h_inv[:, n_x:, :n_x]
    quad_vv = h_inv[:, n_x:, n_x:]
    h_mat, _ = invert_spd(quad_xx)
    x_base = symmetric_sqrt(quad_xx)
    mixed = quad_vx @ h_mat @ x_base
    x_vector = symmetric_sqrt(quad_vv
                              - quad_vx @ h_mat @ quad_vx.swapaxes(1, 2))
    return DiffusionBlocks(base=x_base, mixed=mixed, vector=x_vector)


def _drift_values(frames):
    r"""The five fields the transcribed drift differences, at the rows of
    a frame stack: :math:`\sqrt H h^{-1}`, :math:`\sqrt H K_V`,
    :math:`\sqrt H`, :math:`W^{ab} = G^{AB}N^a_A N^b_B` and
    :math:`\sqrt H h^{-1}\,{}^{(\gamma)}\!\mathcal A^{\rm T}`."""
    sqrt_h = np.sqrt(frames.det_h)
    scale = sqrt_h[:, None, None]
    return (scale * frames.h_base_inv, scale * frames.K_V, sqrt_h,
            frames.N_vP @ frames.G_P_inv @ frames.N_vP.swapaxes(1, 2),
            scale * frames.h_base_inv @ frames.A_gamma.swapaxes(1, 2))


def drift_coefficients(terms: PointTerms) -> np.ndarray:
    r"""Drift vector from the transcribed displays at every point of
    ``terms``, ``(B, n_x + n_v)``.

    .. math::

        \tilde b^i = \frac1{\sqrt H}\partial_{x^j}(\sqrt H\, h^{ij})
            + {}^{(\gamma)}\!\mathcal A^\mu_n h^{ni}
              \frac1{\sqrt H}\partial_{\tilde f^b}(\sqrt H\, K^b_\mu),

    .. math::

        \tilde b^a = \frac1{\sqrt H}\partial_{x^j}
              (\sqrt H\, h^{mj}\, {}^{(\gamma)}\!\mathcal A^\mu_m)K^a_\mu
            + (G^{ab} + W^{ab})\frac1{\sqrt H}\partial_{\tilde f^b}\sqrt H
            + \partial_{\tilde f^b} W^{ab},

    with :math:`W^{ab} = G^{AB}N^a_A N^b_B`. The last term sits outside
    the density factor exactly as displayed; ``drift_divergence_form`` is
    the arbiter that the whole transcription generates the
    Laplace-Beltrami operator.

    The five differenced fields come from the record's frame stack on
    the points' centre-first stencils over every chart slot, which the
    other first-derivative routes read too.
    """
    adapted = terms.adapted
    orig = adapted.orig
    if orig is None:
        raise ValueError("drift displays need original bundle data")
    n_x = adapted.n_x
    rows, steps = terms.stencil
    frames = terms.at_points
    values = [value.reshape(rows.shape[:2] + value.shape[1:])
              for value in _drift_values(terms.stack)]
    sqrt_h0, w0 = values[2][:, 0], values[3][:, 0]
    d_hinv, d_killing, grad_dens, d_w, d_conn = (
        _stencil_partials(value, steps) for value in values)
    d_hinv, d_conn = d_hinv[:, :n_x], d_conn[:, :n_x]
    d_killing, grad_dens, d_w = (d_killing[:, n_x:], grad_dens[:, n_x:],
                                 d_w[:, n_x:])
    div_hinv = np.einsum("...jij->...i", d_hinv)     # sum_j d_j(vH h^{ij})
    div_killing = np.einsum("...bbm->...m", d_killing)  # sum_b d_b(vH K^b_mu)
    # sum_j d_j(vH h^{mj} gA^mu_m)
    div_conn = np.einsum("...jjm->...m", d_conn)
    div_w = np.einsum("...bab->...a", d_w)           # sum_b d_b W^{ab}

    sqrt_h0 = sqrt_h0[:, None]
    b_base = (div_hinv / sqrt_h0
              + np.einsum("...mn,...ni,...m->...i", frames.A_gamma,
                          frames.h_base_inv, div_killing) / sqrt_h0)
    b_vector = ((frames.K_V @ div_conn[..., None])[..., 0] / sqrt_h0
                + ((orig.G_V_inv + w0) @ grad_dens[..., None])[..., 0]
                / sqrt_h0
                + div_w)
    return np.concatenate([b_base, b_vector], axis=1)


def drift_divergence_form(terms: PointTerms) -> np.ndarray:
    r"""The divergence form :math:`H^{-1/2}\partial_{B'}(H^{1/2}\tilde h^{A'B'})`
    at every point of ``terms``, ``(B, n_x + n_v)``.

    Independent oracle for ``drift_coefficients``: equality of the two
    certifies that the transcribed displays, together with
    :math:`\tfrac12\tilde h^{A'B'}\partial^2`, generate the
    Laplace-Beltrami operator of the orbit-space metric. For every
    geometry it inverts the checked h~ of ``terms`` once on the points'
    stencils, the points themselves included; it shares no field with
    the transcribed displays.
    """
    _, steps = terms.stencil
    inv, det = invert_spd(terms.frames.h_tilde)
    sqrt_h = np.sqrt(det)
    grad = _stencil_partials(sqrt_h[..., None, None] * inv, steps)
    return np.einsum("...sas->...a", grad) / sqrt_h[:, :1]


def reduced_sde_coefficients(adapted: AdaptedGeometry, point: ChartPoint,
                             engine: DerivEngine = DEFAULT_ENGINE
                             ) -> ReducedSdeCoeffs:
    """The drift ``b`` of ``drift_coefficients``, the assembled diffusion
    matrix ``X`` of ``diffusion_coefficients`` and the density ``H`` of
    ``density_H`` at ``point``, all three read from one fresh one-point
    ``PointTerms``, so from one frame compile. Needs bundle data, as the
    drift displays do."""
    terms = PointTerms(adapted, point, engine)
    return ReducedSdeCoeffs(b=drift_coefficients(terms)[0],
                            X=diffusion_coefficients(terms).full[0],
                            H=float(density_H(terms)[0]))


def _noise_moments(seed, n_paths: int, n_dim: int):
    """Mean and centred Gram matrix of ``n_paths`` standard normal rows of
    ``n_dim`` entries, drawn from their exact law as ``euler_maruyama_check``
    states (Bartlett 1933; Odell & Feiveson 1966)."""
    rng = np.random.Generator(np.random.Philox(seed))
    z_mean = rng.standard_normal(n_dim) / np.sqrt(n_paths)
    rank = min(n_paths - 1, n_dim)
    factor = np.zeros((rank, n_dim))
    factor[np.diag_indices(rank)] = np.sqrt(
        rng.chisquare(n_paths - 1 - np.arange(rank)))
    upper = np.arange(n_dim) > np.arange(rank)[:, None]
    factor[upper] = rng.standard_normal(np.count_nonzero(upper))
    return z_mean, factor.T @ factor


def _moment_report(coeffs: ReducedSdeCoeffs, params: SdeParams, dt: float,
                   n_paths: int, seed: int, sigma_limit: float,
                   z_mean: np.ndarray, z_centred: np.ndarray
                   ) -> MomentReport:
    """Score the noise moments of ``n_paths`` Euler steps."""
    n_dim = coeffs.b.shape[0]
    scale = params.mu2 * params.kappa
    mean_target = 0.5 * scale * coeffs.b * dt
    cov_target = scale * dt * (coeffs.X @ coeffs.X.T)
    # every statistic is an affine image of the two moments of Z; the mean
    # deviation is scored as that image, not as a difference of means
    mean_dev = np.sqrt(scale * dt) * (coeffs.X @ z_mean)
    mean_sample = mean_target + mean_dev
    if n_paths > 1:
        z_cov = z_centred / (n_paths - 1)
        cov_sample = scale * dt * (coeffs.X @ z_cov @ coeffs.X.T)
        mean_se = np.sqrt(np.diag(cov_sample) / n_paths)
        cov_se = np.sqrt(
            (np.outer(np.diag(cov_target), np.diag(cov_target))
             + cov_target ** 2) / (n_paths - 1))
    else:
        mean_se = np.full(n_dim, np.inf)
        cov_sample = np.zeros((n_dim, n_dim))
        cov_se = np.full((n_dim, n_dim), np.inf)
    mean_max = float(np.max(np.abs(mean_dev)
                            / np.maximum(mean_se, 1e-300))) if n_dim else 0.0
    cov_max = float(np.max(np.abs(cov_sample - cov_target)
                           / np.maximum(cov_se, 1e-300))) if n_dim else 0.0
    return MomentReport(
        n_paths=n_paths, dt=float(dt), seed=int(seed),
        sigma_limit=float(sigma_limit),
        mean_target=mean_target, mean_sample=mean_sample,
        mean_max_sigma=mean_max,
        cov_target=cov_target, cov_sample=cov_sample,
        cov_max_sigma=cov_max,
        passed=bool(mean_max <= sigma_limit and cov_max <= sigma_limit))


def euler_maruyama_check(provider, point: ChartPoint = None,
                         params: SdeParams = SdeParams(), dt: float = 1e-4,
                         n_paths: int = 200_000, seed: int = 0,
                         sigma_limit: float = 4.0,
                         engine: DerivEngine = DEFAULT_ENGINE
                         ) -> MomentReport:
    """One explicit Euler step; sample moments against analytic targets.

    ``provider`` is either a ReducedSdeCoeffs (any coefficient set,
    including full-space blocks) or an AdaptedGeometry, in which case
    ``point`` selects where the coefficients are evaluated. The increments
    of ``n_paths`` paths are

    ``0.5 mu2 kappa b dt + sqrt(mu2 kappa dt) Z Xᵀ``

    for standard normal rows ``Z``. Every sample moment is an affine image
    of the mean ``z̄`` and the centred Gram matrix ``S`` of ``Z``, so the
    check draws those two from their exact joint law, not the paths. From
    ``Philox(seed)`` it draws ``z̄ = standard_normal(n) / sqrt(n_paths)``,
    then ``S = RᵀR`` by Bartlett's decomposition: ``R`` is upper
    trapezoidal with ``k = min(n_paths - 1, n)`` rows, its diagonal
    ``R_ii = sqrt(chisquare(n_paths - 1 - i))`` drawn first and its strict
    upper part, standard normals, row by row. A fixed seed gives a
    bit-identical report, and the cost and memory of a call do not depend
    on ``n_paths``. Mean deviations are scored in sample standard errors,
    the covariance entries in the Gaussian standard error
    ``sqrt((C_ii C_jj + C_ij^2)/(n-1))``.

    This tests the Euler sampler against its own targets: the sample is
    drawn from the same ``b`` and ``X`` that give the targets, so the
    check cannot detect a wrong drift or diffusion coefficient. On 5
    dimensions it scores 20 statistics; at the default ``sigma_limit`` of
    4, 253 of 200,000 seeds (1.27e-3) failed on the Wiener coefficients.
    """
    if int(n_paths) < 1:
        raise ConfigError("n_paths must be at least 1")
    if not float(dt) > 0.0:
        raise ConfigError("dt must be positive")
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise ConfigError("seed must be a non-negative integer")
    coeffs = provider
    if not isinstance(provider, ReducedSdeCoeffs):
        if point is None:
            raise ConfigError("a chart point is required when the "
                              "provider is a geometry")
        coeffs = reduced_sde_coefficients(provider, point, engine)
    n_paths = int(n_paths)
    return _moment_report(coeffs, params, dt, n_paths, seed, sigma_limit,
                          *_noise_moments(seed, n_paths, coeffs.b.shape[0]))
