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
* statistics: ``euler_maruyama_check`` simulates one short step and
  compares sample moments with the analytic ones at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, ConfigError, DEFAULT_ENGINE, DerivEngine,
                     FieldHandle, NearSingularError, _field_stack,
                     invert_spd, partial)
from .geometry import (AdaptedGeometry, OriginalGeometry, frame_field,
                       point_frame)

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

#: Rows of standard normals the moment check draws and reduces at a time.
_NOISE_BLOCK_ROWS = 8192


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
    r"""The three diffusion blocks.

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
        n_x = self.base.shape[0]
        n_v = self.vector.shape[0]
        x = np.zeros((n_x + n_v, n_x + n_v))
        x[:n_x, :n_x] = self.base
        x[n_x:, :n_x] = self.mixed
        x[n_x:, n_x:] = self.vector
        return x


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
    n_x: int
    n_v: int


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

    Any factor with ``X Xᵀ = mat`` gives the same process law; the
    symmetric root is chosen for determinism. Eigenvalues below the
    rounding floor raise; tiny negatives are clamped to zero.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.zeros_like(mat)
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise ValueError("matrix square root input is not symmetric")
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    if np.min(w) < SQRT_EIGENVALUE_FLOOR * scale:
        raise NearSingularError(
            f"matrix is not positive semidefinite (min eigenvalue "
            f"{np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def density_H(adapted: AdaptedGeometry, point: ChartPoint) -> float:
    """Determinant of the orbit-space block metric at a point."""
    return float(adapted.det_h(point))


def diffusion_coefficients(adapted: AdaptedGeometry,
                           point: ChartPoint) -> DiffusionBlocks:
    """Diffusion blocks whose assembled square reproduces the block inverse.

    With bundle data the blocks follow the transcribed displays; without
    it they are recovered from the quadrants of the block inverse, which
    agrees by the gauge identity behind the inverse-metric display.
    """
    n_x = adapted.n_x
    if adapted.orig is not None:
        frames = point_frame(adapted.orig, point)
        k_v = frames.K_V[0]
        x_base = symmetric_sqrt(frames.h_base_inv[0])
        mixed = k_v @ frames.A_gamma[0] @ x_base
        x_vector = symmetric_sqrt(k_v @ frames.gamma_inv[0] @ k_v.T
                                  + adapted.orig.G_V_inv)
        return DiffusionBlocks(base=x_base, mixed=mixed, vector=x_vector)
    h_inv = np.asarray(adapted.h_tilde_inv(point), dtype=float)
    quad_xx = h_inv[:n_x, :n_x]
    quad_vx = h_inv[n_x:, :n_x]
    quad_vv = h_inv[n_x:, n_x:]
    h_mat, _ = invert_spd(quad_xx)
    x_base = symmetric_sqrt(quad_xx)
    mixed = quad_vx @ h_mat @ x_base
    x_vector = symmetric_sqrt(quad_vv - quad_vx @ h_mat @ quad_vx.T)
    return DiffusionBlocks(base=x_base, mixed=mixed, vector=x_vector)


def _sqrt_h(frames):
    r""":math:`\sqrt H` at the rows of a frame stack, shaped to scale a
    stack of matrices."""
    return np.sqrt(frames.det_h)[:, None, None]


def _w_matrix(frames):
    r""":math:`W^{ab} = G^{AB}N^a_A N^b_B` at the rows of a frame stack."""
    return frames.N_vP @ frames.G_P_inv @ frames.N_vP.swapaxes(1, 2)


#: The frame fields the transcribed drift differences, by name: the value
#: at the rows of a frame stack, and the arity of one row.
_DRIFT_FIELDS = {
    "sqrt_h": (lambda fs: np.sqrt(fs.det_h), "scalar"),
    "sqrt_h_h_base_inv": (lambda fs: _sqrt_h(fs) * fs.h_base_inv, "matrix"),
    "sqrt_h_K_V": (lambda fs: _sqrt_h(fs) * fs.K_V, "matrix"),
    "sqrt_h_connection": (
        lambda fs: _sqrt_h(fs) * fs.h_base_inv @ fs.A_gamma.swapaxes(1, 2),
        "matrix"),
    "W": (_w_matrix, "matrix"),
}


def _drift_field(orig: OriginalGeometry, name) -> FieldHandle:
    value, arity = _DRIFT_FIELDS[name]
    return frame_field(orig, name, value, arity)


def drift_coefficients(adapted: AdaptedGeometry, point: ChartPoint,
                       engine: DerivEngine = DEFAULT_ENGINE) -> np.ndarray:
    r"""Drift vector from the transcribed displays.

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
    """
    orig = adapted.orig
    if orig is None:
        raise ValueError("drift displays need original bundle data")
    n_x, n_v = adapted.n_x, adapted.n_v
    frames0 = point_frame(orig, point)
    sqrt_h0 = np.sqrt(frames0.det_h[0])

    def grad(name):
        # over all slots, so that all five fields read the one stencil
        # that the other first-derivative routes read at this point
        return partial(engine, _drift_field(orig, name), point.coords[None],
                       n_x, range(n_x + n_v))[0]

    d_hinv = grad("sqrt_h_h_base_inv")[:n_x]
    d_killing = grad("sqrt_h_K_V")[n_x:]
    grad_dens = grad("sqrt_h")[n_x:]
    d_w = grad("W")[n_x:]
    d_conn = grad("sqrt_h_connection")[:n_x]
    div_hinv = np.zeros((n_x, n_x))       # div_hinv[j, i] = d_j(vH h^{ij})
    div_killing = np.zeros(orig.n_g)      # sum_b d_b(vH K^b_mu)
    div_conn = np.zeros(orig.n_g)         # sum_j d_j(vH h^{mj} gA^mu_m)
    div_w = np.zeros(n_v)                 # sum_b d_b W^{ab}
    for j in range(n_x):
        div_hinv[j] = d_hinv[j][:, j]
        div_conn += d_conn[j][j]
    for b in range(n_v):
        div_killing += d_killing[b][b]
        div_w += d_w[b][:, b]

    b_base = (div_hinv.sum(axis=0) / sqrt_h0
              + np.einsum("mn,ni,m->i", frames0.A_gamma[0],
                          frames0.h_base_inv[0], div_killing) / sqrt_h0)
    w0 = _w_matrix(frames0)[0]
    b_vector = (frames0.K_V[0] @ div_conn / sqrt_h0
                + (orig.G_V_inv + w0) @ grad_dens / sqrt_h0
                + div_w)
    return np.concatenate([b_base, b_vector])


def drift_divergence_form(adapted: AdaptedGeometry, point: ChartPoint,
                          engine: DerivEngine = DEFAULT_ENGINE
                          ) -> np.ndarray:
    r"""The divergence form :math:`H^{-1/2}\partial_{B'}(H^{1/2}\tilde h^{A'B'})`.

    Independent oracle for ``drift_coefficients``: equality of the two
    certifies that the transcribed displays, together with
    :math:`\tfrac12\tilde h^{A'B'}\partial^2`, generate the
    Laplace-Beltrami operator of the orbit-space metric. For every
    geometry it inverts h~ on the stencil rows and at the point itself; it
    shares no field with the transcribed displays.
    """
    n_h = adapted.n_h

    def sqrt_h_h_tilde_inv(zs):
        inv, det = invert_spd(_field_stack(adapted.h_tilde, zs))
        return np.sqrt(det)[:, None, None] * inv

    field = FieldHandle(sqrt_h_h_tilde_inv, "matrix")
    _, det0 = invert_spd(np.asarray(adapted.h_tilde(point), dtype=float))
    sqrt_h0 = np.sqrt(det0)
    grad = partial(engine, field, point.coords[None], adapted.n_x,
                   range(n_h))[0]
    drift = np.zeros(n_h)
    for slot in range(n_h):
        drift += grad[slot][:, slot]
    return drift / sqrt_h0


def reduced_sde_coefficients(adapted: AdaptedGeometry, point: ChartPoint,
                             engine: DerivEngine = DEFAULT_ENGINE
                             ) -> ReducedSdeCoeffs:
    blocks = diffusion_coefficients(adapted, point)
    return ReducedSdeCoeffs(
        b=drift_coefficients(adapted, point, engine),
        X=blocks.full,
        H=density_H(adapted, point),
        n_x=adapted.n_x,
        n_v=adapted.n_v)


def euler_maruyama_check(provider, point: ChartPoint = None,
                         params: SdeParams = SdeParams(), dt: float = 1e-4,
                         n_paths: int = 200_000, seed: int = 0,
                         sigma_limit: float = 4.0,
                         engine: DerivEngine = DEFAULT_ENGINE
                         ) -> MomentReport:
    """One explicit Euler step; sample moments against analytic targets.

    ``provider`` is either a ReducedSdeCoeffs (any coefficient set,
    including full-space blocks) or an AdaptedGeometry, in which case
    ``point`` selects where the coefficients are evaluated. The increment
    is

    ``0.5 mu2 kappa b dt + sqrt(mu2 kappa dt) Z Xᵀ``

    with a counter-based generator, so a fixed seed gives a bit-identical
    report. The rows of ``Z`` are drawn and reduced in fixed blocks of
    rows, in order, so a seed gives the same stream of normals as one
    ``(n_paths, n)`` draw, and only two sums of the noise are kept, its
    mean and its centred Gram matrix: memory does not grow with
    ``n_paths``. The sample moments are the affine images of the moments
    of ``Z``. Mean deviations are scored in sample standard errors, the
    covariance entries in the Gaussian standard error
    ``sqrt((C_ii C_jj + C_ij^2)/(n-1))``.

    This tests the Euler sampler against its own targets: the sample is
    drawn from the same ``b`` and ``X`` that give the targets, so the
    check cannot detect a wrong drift or diffusion coefficient. It scores
    20 statistics on the built-in 5-dimensional charts (5 means and 15
    covariances), so at the default ``sigma_limit`` of 4 about 1.3e-3 of
    calls on correct code fail.
    """
    if int(n_paths) < 1:
        raise ConfigError("n_paths must be at least 1")
    if not float(dt) > 0.0:
        raise ConfigError("dt must be positive")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    if isinstance(provider, ReducedSdeCoeffs):
        coeffs = provider
    else:
        if point is None:
            raise ConfigError("a chart point is required when the "
                              "provider is a geometry")
        coeffs = reduced_sde_coefficients(provider, point, engine)
    n_paths = int(n_paths)
    n_dim = coeffs.b.shape[0]
    scale = params.mu2 * params.kappa
    mean_target = 0.5 * scale * coeffs.b * dt
    cov_target = scale * dt * (coeffs.X @ coeffs.X.T)

    # the rows of Z, drawn in order, reduced to their mean and centred Gram
    # matrix; each block is centred on its own mean and merged by the
    # pairwise update of Chan, Golub & LeVeque (1983), so no digits are
    # lost to subtracting n z̄z̄ᵀ from the raw Gram matrix
    rng = np.random.Generator(np.random.Philox(seed))
    block = np.empty((min(n_paths, _NOISE_BLOCK_ROWS), n_dim))
    z_mean = np.zeros(n_dim)
    z_centred = np.zeros((n_dim, n_dim))
    for done in range(0, n_paths, _NOISE_BLOCK_ROWS):
        rows = block[:n_paths - done]
        rng.standard_normal(out=rows)
        weight = len(rows) / (done + len(rows))
        rows_mean = rows.mean(axis=0)
        rows -= rows_mean
        step = rows_mean - z_mean
        z_centred += rows.T @ rows + done * weight * np.outer(step, step)
        z_mean += weight * step

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
