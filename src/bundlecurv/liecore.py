r"""Structure constants, orbit curvature, and the group-direction rule.

The structure group only ever enters the numerics through three algebraic
objects: the structure constants :math:`c^\gamma_{\alpha\beta}`, the orbit
metric :math:`d_{\alpha\beta}(x,\tilde f)`, and the rule for differentiating
adjoint-conjugated (tilded) tensors along group directions at the identity.
This module holds all three. Nothing here touches group elements; scenarios
supply explicit generator matrices, and the coordinate-basis oracle builds
its metric from the geometry's group action on charts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StructureConstants",
    "OrbitMetric",
    "ValidityReport",
    "su2_constants",
    "abelian_constants",
    "validate_structure_constants",
    "killing_form",
    "ad_matrix",
    "orbit_scalar_curvature",
    "group_direction_derivative",
    "RULE_SIGN",
]

VALIDITY_TOL = 1e-12


@dataclass(frozen=True)
class StructureConstants:
    r"""Structure constants ``c[gamma][alpha][beta]`` :math:`= c^\gamma_{\alpha\beta}`."""

    n_g: int
    c: np.ndarray

    def __post_init__(self):
        # n_g = 0 is the degenerate no-group edge used by sanity scenarios
        if self.n_g < 0:
            raise ValueError("n_g must be nonnegative")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.n_g,) * 3:
            raise ValueError(
                "structure constants must have shape (%d,)*3, got %s"
                % (self.n_g, c.shape))
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class OrbitMetric:
    r"""Orbit metric :math:`d_{\alpha\beta}`, its inverse and its
    determinant as chart fields.

    ``d`` and ``d_inv`` are ``FieldHandle`` chart fields whose value at a
    chart point is an ``n_g`` x ``n_g`` matrix, ``det_d`` a scalar one.
    """

    d: object
    d_inv: object
    det_d: object


@dataclass(frozen=True)
class ValidityReport:
    """Residuals of the algebraic gates on structure constants."""

    antisymmetry_residual: float
    jacobi_residual: float
    trace_residual: float
    valid: bool

    def max_residual(self) -> float:
        return max(self.antisymmetry_residual, self.jacobi_residual,
                   self.trace_residual)


def su2_constants() -> StructureConstants:
    r"""The su(2) constants :math:`c^\gamma_{\alpha\beta} = \varepsilon_{\alpha\beta\gamma}`."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    # c[gamma, alpha, beta] = eps_{alpha beta gamma}
    return StructureConstants(3, np.transpose(eps, (2, 0, 1)))


def abelian_constants(n_g: int = 3) -> StructureConstants:
    """Vanishing constants; degenerate but accepted for limit scenarios."""
    return StructureConstants(n_g, np.zeros((n_g,) * 3))


def _raw_constants(c) -> np.ndarray:
    raw = c.c if isinstance(c, StructureConstants) else np.asarray(c, dtype=float)
    if raw.ndim != 3 or len(set(raw.shape)) != 1:
        raise ValueError("structure constants must be a cubic rank-3 array, "
                         "got shape %s" % (raw.shape,))
    return raw


def validate_structure_constants(c) -> ValidityReport:
    r"""Check antisymmetry, the Jacobi identity, and tracelessness.

    Tracelessness :math:`\sum_\alpha c^\alpha_{\sigma\alpha} = 0` is what
    lets the pure-orbit Christoffel trace vanish; it holds automatically for
    semisimple algebras and trivially for abelian ones.
    """
    raw = _raw_constants(c)
    if raw.size == 0:
        return ValidityReport(0.0, 0.0, 0.0, True)
    anti = float(np.max(np.abs(raw + np.transpose(raw, (0, 2, 1)))))
    jac = (np.einsum("sab,msc->abcm", raw, raw)
           + np.einsum("sbc,msa->abcm", raw, raw)
           + np.einsum("sca,msb->abcm", raw, raw))
    jacobi = float(np.max(np.abs(jac))) if jac.size else 0.0
    trace = float(np.max(np.abs(np.einsum("asa->s", raw))))
    valid = max(anti, jacobi, trace) <= VALIDITY_TOL
    return ValidityReport(anti, jacobi, trace, valid)


def killing_form(c) -> np.ndarray:
    r"""Killing form :math:`B_{\alpha\beta} = c^\mu_{\alpha\nu} c^\nu_{\beta\mu}`.

    The group is semisimple exactly when ``B`` is nondegenerate. No
    formula of the library checks that: the abelian scenarios, whose
    ``B`` vanishes, run through every check.
    """
    raw = _raw_constants(c)
    return np.einsum("man,nbm->ab", raw, raw)


def ad_matrix(c, gamma: int) -> np.ndarray:
    r"""Adjoint generator :math:`(\mathrm{ad}_\gamma)^\varepsilon_{\ \mu} = c^\varepsilon_{\gamma\mu}`."""
    raw = _raw_constants(c)
    return raw[:, gamma, :]


def orbit_scalar_curvature(c, d, d_inv) -> float:
    r"""Scalar curvature of a group orbit with orbit metric ``d``.

    .. math::

        R_G = \tfrac12 d^{\mu\nu} c^\sigma_{\mu\alpha} c^\alpha_{\nu\sigma}
            + \tfrac14 d_{\mu\sigma} d^{\alpha\beta} d^{\varepsilon\nu}
              c^\mu_{\varepsilon\alpha} c^\sigma_{\nu\beta}

    ``d`` is the ``(n_g, n_g)`` orbit metric at one point and ``d_inv``
    its inverse. The two contractions are written exactly as above;
    brute-force loop evaluations of the same expression back this in
    tests.
    """
    raw = _raw_constants(c)
    d_val = np.asarray(d, dtype=float)
    d_inv = np.asarray(d_inv, dtype=float)
    term1 = 0.5 * np.einsum("mn,sma,ans->", d_inv, raw, raw)
    term2 = 0.25 * np.einsum("ms,ab,en,mea,snb->", d_val, d_inv, d_inv, raw, raw)
    return float(term1 + term2)


# Overall sign of the group-direction rule. The relative sign between upper
# and lower indices is forced (contracting an upper against a lower index
# must produce an invariant), but the global sign depends on whether the
# adjoint conjugation reads rho^T d rho or rho d rho^T, which the chart
# conventions leave open. +1 is the convention under which the frame Ricci
# contraction of a pure-orbit block reproduces the closed-form orbit
# curvature; the curvature tests hold it there.
RULE_SIGN = +1


def _apply_on_axis(tensor, mat, axis):
    moved = np.moveaxis(tensor, axis, 0)
    out = np.tensordot(mat, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def _embedded(mat, size, n_g):
    if size == n_g:
        return mat
    if size > n_g:
        out = np.zeros((size, size))
        out[size - n_g:, size - n_g:] = mat
        return out
    raise ValueError("axis of length %d cannot carry an orbit index of "
                     "dimension %d" % (size, n_g))


def group_direction_derivative(tensor_value, covariance_signature, c,
                               gamma: int):
    r"""Derivative along group direction ``gamma`` of a tilded tensor, at identity.

    Tilded quantities are adjoint conjugations of identity-fiber fields, so
    their group derivative at the identity is purely algebraic: each lower
    orbit index contributes an :math:`\mathrm{ad}_\gamma`-contraction, each
    upper index the negative transpose action. ``covariance_signature``
    names every tensor axis as ``"lower"``, ``"upper"`` or ``"inert"``;
    axes longer than ``n_g`` carry the orbit index in their trailing block
    (horizontal components are invariant), so the generator acts there.

    Scalars (empty signature) and abelian constants give zero.
    """
    raw = _raw_constants(c)
    n_g = raw.shape[0]
    if not 0 <= gamma < n_g:
        raise IndexError("direction %d out of range for n_g=%d" % (gamma, n_g))
    tensor = np.asarray(tensor_value, dtype=float)
    signature = tuple(covariance_signature)
    if len(signature) != tensor.ndim:
        raise ValueError("signature length %d does not match tensor rank %d"
                         % (len(signature), tensor.ndim))
    if tensor.ndim == 0:
        return 0.0
    m_hat = raw[:, gamma, :]
    total = np.zeros_like(tensor)
    for axis, kind in enumerate(signature):
        if kind == "inert":
            continue
        mat = _embedded(m_hat, tensor.shape[axis], n_g)
        if kind == "lower":
            total = total + _apply_on_axis(tensor, mat.T, axis)
        elif kind == "upper":
            total = total - _apply_on_axis(tensor, mat, axis)
        else:
            raise ValueError("signature entries must be 'lower', 'upper' or "
                             "'inert', got %r" % (kind,))
    return RULE_SIGN * total
