r"""Connection curvature and Christoffel symbols in the horizontal-lift frame.

The adapted frame consists of horizontal lifts over the ``(x, f)`` chart and
the group generators along the orbits. It is nonholonomic: the lifts close
on the generators with the negative connection curvature, the generators
close with the structure constants. The metric connection of the block
metric therefore picks up structure-function terms; the general formula is

.. math::

    \Gamma^A_{BC} = \tfrac12 G^{AD}\big(\hat\partial_B G_{CD}
        + \hat\partial_C G_{BD} - \hat\partial_D G_{BC}\big)
        - \tfrac12 G^{AD}\big(\mathbb{C}^E_{BD} G_{CE}
        + \mathbb{C}^E_{CD} G_{BE}\big)
        + \tfrac12 \mathbb{C}^A_{BC},

with ``G`` the frame metric blockdiag(h~, d~) and :math:`\hat\partial` the
frame derivative. This module evaluates that formula numerically
(``christoffel_general``) and, independently, the closed-form table for
every sector (``christoffel_table``); their sector-by-sector agreement is
the central certification of the whole connection layer.

Frame derivatives never difference over group coordinates: along horizontal
lifts they are chart partials corrected by the connection times the
group-direction rule, and along orbit directions they are purely algebraic
(``liecore.group_direction_derivative``). ``frame_derivatives`` applies
that rule to any chart field; the general formula here and the Ricci
contraction of the curvature module both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, FieldHandle,
                     _field_stack, invert_spd, partial)
from .geometry import AdaptedGeometry
from .liecore import group_direction_derivative

__all__ = [
    "NonholonomicStructure",
    "ChristoffelBlocks",
    "curvature_F",
    "covariant_D_orbit_metric",
    "frame_metric_field",
    "frame_derivatives",
    "frame_structure_functions",
    "base_levi_civita",
    "christoffel_general",
    "christoffel_table",
]


@dataclass(frozen=True)
class NonholonomicStructure:
    r"""Structure functions of the adapted frame at a point.

    ``CC`` is the full rank-3 array :math:`\mathbb{C}^A_{BC}`; only
    components with an upper orbit index are nonzero:
    :math:`\mathbb{C}^\gamma_{A'B'} = -\mathcal F^\gamma_{A'B'}` and
    :math:`\mathbb{C}^\gamma_{\alpha\beta} = c^\gamma_{\alpha\beta}`.
    ``F`` is the connection curvature on its own.
    """

    CC: np.ndarray
    F: np.ndarray
    n_h: int
    n_g: int


@dataclass(frozen=True)
class ChristoffelBlocks:
    """Full Christoffel table, sector-addressable.

    ``gamma[A, B, C]`` holds every symbol over the joint index order
    (base, vector, group). ``block(up, lo1, lo2)`` slices by sector label:
    ``"x"`` base, ``"v"`` vector, ``"h"`` the joint horizontal range,
    ``"g"`` group.
    """

    gamma: np.ndarray
    n_x: int
    n_v: int
    n_g: int

    def _slice(self, label: str) -> slice:
        n_h = self.n_x + self.n_v
        table = {
            "x": slice(0, self.n_x),
            "v": slice(self.n_x, n_h),
            "h": slice(0, n_h),
            "g": slice(n_h, n_h + self.n_g),
        }
        try:
            return table[label]
        except KeyError:
            raise KeyError("unknown sector label %r (use x/v/h/g)" % (label,))

    def block(self, up: str, lo1: str, lo2: str) -> np.ndarray:
        return self.gamma[self._slice(up), self._slice(lo1), self._slice(lo2)]

    def trace_group_base(self) -> np.ndarray:
        r"""The contraction :math:`\Gamma^\gamma_{\gamma i}`."""
        return np.einsum("ggi->i", self.block("g", "g", "x"))

    def trace_group_vector(self) -> np.ndarray:
        r"""The contraction :math:`\Gamma^\gamma_{\gamma a}`."""
        return np.einsum("gga->a", self.block("g", "g", "v"))


def curvature_F(adapted: AdaptedGeometry, point: ChartPoint,
                engine: DerivEngine = DEFAULT_ENGINE) -> np.ndarray:
    r"""Curvature of the mechanical connection.

    .. math::

        \mathcal F^\mu_{A'C'} = \partial_{A'}\mathcal A^\mu_{C'}
            - \partial_{C'}\mathcal A^\mu_{A'}
            + c^\mu_{\sigma\nu}\mathcal A^\sigma_{A'}\mathcal A^\nu_{C'}

    Returned with shape ``(n_g, n_h, n_h)``, antisymmetric in the last pair.
    """
    n_h = adapted.n_h
    a_val = np.asarray(adapted.A_conn(point), dtype=float)
    da = partial(engine, adapted.A_conn, point,
                 range(n_h))                    # da[B', mu, C']
    grad = np.einsum("amc->mac", da)            # d_{A'} A^mu_{C'}
    comm = np.einsum("msn,sa,nc->mac", adapted.c.c, a_val, a_val)
    return grad - np.einsum("mca->mac", grad) + comm


def covariant_D_orbit_metric(adapted: AdaptedGeometry, point: ChartPoint,
                             engine: DerivEngine = DEFAULT_ENGINE
                             ) -> np.ndarray:
    r"""Covariant derivative of the orbit metric along horizontal directions.

    .. math::

        \mathcal D_{A'} d_{\mu\nu} = \partial_{A'} d_{\mu\nu}
            - c^\kappa_{\sigma\mu}\mathcal A^\sigma_{A'} d_{\kappa\nu}
            - c^\kappa_{\sigma\nu}\mathcal A^\sigma_{A'} d_{\mu\kappa}

    Returned with shape ``(n_h, n_g, n_g)``, symmetric in the orbit pair.
    """
    n_h = adapted.n_h
    a_val = np.asarray(adapted.A_conn(point), dtype=float)
    d_val = np.asarray(adapted.d.d(point), dtype=float)
    dd = partial(engine, adapted.d.d, point, range(n_h))
    c = adapted.c.c
    corr = (np.einsum("ksm,sa,kn->amn", c, a_val, d_val)
            + np.einsum("ksn,sa,mk->amn", c, a_val, d_val))
    return dd - corr


def frame_metric_field(adapted: AdaptedGeometry) -> FieldHandle:
    """The frame metric blockdiag(h~, d) as one chart field."""
    n_h, n_t = adapted.n_h, adapted.n_t

    def frame_metric(zs):
        out = np.zeros((len(zs), n_t, n_t))
        out[:, :n_h, :n_h] = _field_stack(adapted.h_tilde, zs)
        out[:, n_h:, n_h:] = _field_stack(adapted.d.d, zs)
        return out

    return FieldHandle(frame_metric, "matrix")


def frame_structure_functions(adapted: AdaptedGeometry, point: ChartPoint,
                              engine: DerivEngine = DEFAULT_ENGINE
                              ) -> NonholonomicStructure:
    """Structure functions of the adapted frame; see NonholonomicStructure."""
    n_h, n_g, n_t = adapted.n_h, adapted.n_g, adapted.n_t
    f_val = curvature_F(adapted, point, engine)
    cc = np.zeros((n_t, n_t, n_t))
    cc[n_h:, :n_h, :n_h] = -f_val
    cc[n_h:, n_h:, n_h:] = adapted.c.c
    return NonholonomicStructure(CC=cc, F=f_val, n_h=n_h, n_g=n_g)


def base_levi_civita(adapted: AdaptedGeometry, point: ChartPoint,
                     engine: DerivEngine = DEFAULT_ENGINE) -> np.ndarray:
    r"""Levi-Civita symbols of the orbit-space metric h~ on the (x,f) chart.

    These fill the purely horizontal sector of the table; the frame is
    holonomic there, so the standard coordinate formula applies.
    """
    n_h = adapted.n_h
    h_val = np.asarray(adapted.h_tilde(point), dtype=float)
    h_inv, _ = invert_spd(h_val)
    dh = partial(engine, adapted.h_tilde, point,
                 range(n_h))                    # dh[B', A', C']
    combo = (np.einsum("abd->abd", dh) + np.einsum("bad->abd", dh)
             - np.einsum("dab->abd", dh))
    return 0.5 * np.einsum("cd,abd->cab", h_inv, combo)


def frame_derivatives(adapted: AdaptedGeometry, field, value, signature,
                      point: ChartPoint, engine: DerivEngine = DEFAULT_ENGINE,
                      step_scale: float = 1.0) -> np.ndarray:
    r"""Frame derivatives ``hat[A, ...]`` of a chart field at a point.

    ``value`` is the field at ``point`` and ``signature`` its covariance
    signature. Along the horizontal lift of slot ``B'`` the derivative is
    the chart partial (at ``step_scale`` times the engine step) minus
    :math:`\mathcal A^\sigma_{B'}` times the group-direction rule along
    :math:`\sigma`; along orbit direction :math:`\sigma` it is the rule
    itself (``liecore.group_direction_derivative``).
    """
    n_h, n_g = adapted.n_h, adapted.n_g
    a_val = np.asarray(adapted.A_conn(point), dtype=float)
    rule = [group_direction_derivative(value, signature, adapted.c, s)
            for s in range(n_g)]
    grad = partial(engine, field, point, range(n_h), step_scale)
    hat = np.zeros((n_h + n_g,) + value.shape)
    for bp in range(n_h):
        correction = sum((a_val[s, bp] * rule[s] for s in range(n_g)),
                         np.zeros_like(value))
        hat[bp] = grad[bp] - correction
    for s in range(n_g):
        hat[n_h + s] = rule[s]
    return hat


def christoffel_general(adapted: AdaptedGeometry, point: ChartPoint,
                        engine: DerivEngine = DEFAULT_ENGINE
                        ) -> ChristoffelBlocks:
    """Christoffel table from the general nonholonomic formula.

    Every sector comes out of one einsum pipeline over the frame metric,
    its frame derivatives, and the structure functions; no closed-form
    table entries are consulted.
    """
    structure = frame_structure_functions(adapted, point, engine)
    gf = frame_metric_field(adapted)
    gf_val = gf(point)
    hat = frame_derivatives(adapted, gf, gf_val, ("lower", "lower"), point,
                            engine)
    n_h = adapted.n_h
    g_inv = np.zeros_like(gf_val)
    g_inv[:n_h, :n_h] = invert_spd(gf_val[:n_h, :n_h])[0]
    g_inv[n_h:, n_h:] = invert_spd(gf_val[n_h:, n_h:])[0]
    cc = structure.CC

    combo = (np.einsum("bcd->bcd", hat) + np.einsum("cbd->bcd", hat)
             - np.einsum("dbc->bcd", hat))
    metric_part = 0.5 * np.einsum("ad,bcd->abc", g_inv, combo)
    frame_part = -0.5 * (np.einsum("ad,ebd,ce->abc", g_inv, cc, gf_val)
                         + np.einsum("ad,ecd,be->abc", g_inv, cc, gf_val))
    torsion_part = 0.5 * cc
    gamma = metric_part + frame_part + torsion_part
    return ChristoffelBlocks(gamma=gamma, n_x=adapted.n_x, n_v=adapted.n_v,
                             n_g=adapted.n_g)


def christoffel_table(adapted: AdaptedGeometry, point: ChartPoint,
                      engine: DerivEngine = DEFAULT_ENGINE
                      ) -> ChristoffelBlocks:
    r"""Christoffel table from the closed forms, sector by sector.

    Horizontal sector: Levi-Civita of h~. Mixed and orbit sectors:

    .. math::

        \Gamma^{A'}_{B'\alpha} &= \tfrac12 d_{\alpha\beta}
            \tilde h^{A'C'} \mathcal F^\beta_{B'C'}, \qquad
        \Gamma^{A'}_{\alpha\beta} = -\tfrac12 \tilde h^{A'B'}
            \mathcal D_{B'} d_{\alpha\beta}, \\
        \Gamma^\alpha_{B'C'} &= -\tfrac12 \mathcal F^\alpha_{B'C'}, \qquad
        \Gamma^\alpha_{\beta B'} = \tfrac12 d^{\alpha\gamma}
            \mathcal D_{B'} d_{\beta\gamma}, \\
        \Gamma^\alpha_{\beta\gamma} &= \tfrac12 d^{\alpha\mu}\big(
            c^\varepsilon_{\beta\gamma} d_{\varepsilon\mu}
            - c^\varepsilon_{\mu\gamma} d_{\varepsilon\beta}
            - c^\varepsilon_{\mu\beta} d_{\varepsilon\gamma}\big),

    with the mixed entries symmetric in their stated index pairs.
    """
    n_h, n_g, n_t = adapted.n_h, adapted.n_g, adapted.n_t
    h_val = np.asarray(adapted.h_tilde(point), dtype=float)
    d_val = np.asarray(adapted.d.d(point), dtype=float)
    h_inv, _ = invert_spd(h_val)
    d_inv, _ = invert_spd(d_val)
    c = adapted.c.c
    f_val = curvature_F(adapted, point, engine)
    dd = covariant_D_orbit_metric(adapted, point, engine)
    h_slice = slice(0, n_h)
    g_slice = slice(n_h, n_t)

    gamma = np.zeros((n_t, n_t, n_t))
    gamma[h_slice, h_slice, h_slice] = base_levi_civita(adapted, point, engine)

    mixed = 0.5 * np.einsum("ab,nc,bmc->nma", d_val, h_inv, f_val)
    gamma[h_slice, h_slice, g_slice] = mixed
    gamma[h_slice, g_slice, h_slice] = np.einsum("nma->nam", mixed)

    gamma[h_slice, g_slice, g_slice] = \
        -0.5 * np.einsum("nm,mab->nab", h_inv, dd)

    gamma[g_slice, h_slice, h_slice] = -0.5 * f_val

    lowered = 0.5 * np.einsum("ag,mbg->abm", d_inv, dd)
    gamma[g_slice, g_slice, h_slice] = lowered
    gamma[g_slice, h_slice, g_slice] = np.einsum("abm->amb", lowered)

    gamma[g_slice, g_slice, g_slice] = (
        0.5 * np.einsum("am,ebg,em->abg", d_inv, c, d_val)
        - 0.5 * np.einsum("am,emg,eb->abg", d_inv, c, d_val)
        - 0.5 * np.einsum("am,emb,eg->abg", d_inv, c, d_val))

    return ChristoffelBlocks(gamma=gamma, n_x=adapted.n_x, n_v=adapted.n_v,
                             n_g=adapted.n_g)
