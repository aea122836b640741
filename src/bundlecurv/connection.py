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

Every function here works on row stacks, the contract of the chart fields:
it takes an ``(N, n_x + n_v)`` array of joint chart coordinates, ``x``
first, and returns the ``(N, ...)`` stack of its values at those rows.
Each field it reads is evaluated by one ``value_and_partial`` call over
all ``N`` rows, which gives the field's values at the rows and its
horizontal partials there from the centre-first rows of every row's
stencil together; no field is evaluated on the rows alone. Each SPD
inverse runs once per stack. The arithmetic is that of one row, matrix
by matrix, so a row's result is bit-identical whatever stack it comes in.
A one-point caller passes ``point.coords[None]`` and reads row 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (DEFAULT_ENGINE, DerivEngine, FieldHandle, _field_stack,
                     _levi_civita, invert_spd, value_and_partial)
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
    r"""Structure functions of the adapted frame at the rows of a stack.

    ``CC`` is the ``(N, n_t, n_t, n_t)`` stack of the full rank-3 arrays
    :math:`\mathbb{C}^A_{BC}`; only components with an upper orbit index
    are nonzero: :math:`\mathbb{C}^\gamma_{A'B'} = -\mathcal F^\gamma_{A'B'}`
    and :math:`\mathbb{C}^\gamma_{\alpha\beta} = c^\gamma_{\alpha\beta}`.
    ``F`` is the stack of connection curvatures on their own, and ``A``
    the stack of connections they were built from.
    """

    CC: np.ndarray
    F: np.ndarray
    A: np.ndarray


@dataclass(frozen=True)
class ChristoffelBlocks:
    """Full Christoffel tables at the rows of a stack, sector-addressable.

    ``gamma[i, A, B, C]`` holds every symbol at row ``i`` over the joint
    index order (base, vector, group). ``block(up, lo1, lo2)`` slices the
    last three axes by sector label: ``"x"`` base, ``"v"`` vector, ``"h"``
    the joint horizontal range, ``"g"`` group.
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
        return self.gamma[..., self._slice(up), self._slice(lo1),
                          self._slice(lo2)]


def _horizontal(adapted: AdaptedGeometry, field, zs, engine,
                step_scale: float = 1.0):
    """``field`` at the chart rows of ``zs`` and its partials along every
    horizontal slot there, from one ``value_and_partial`` call."""
    return value_and_partial(engine, field, zs, adapted.n_x,
                             range(adapted.n_h), step_scale)


def _curvature(c, a_val, da):
    grad = np.einsum("...amc->...mac", da)      # d_{A'} A^mu_{C'}
    comm = np.einsum("msn,...sa,...nc->...mac", c, a_val, a_val)
    return grad - np.einsum("...mca->...mac", grad) + comm


def curvature_F(adapted: AdaptedGeometry, zs,
                engine: DerivEngine = DEFAULT_ENGINE) -> np.ndarray:
    r"""Curvature of the mechanical connection.

    .. math::

        \mathcal F^\mu_{A'C'} = \partial_{A'}\mathcal A^\mu_{C'}
            - \partial_{C'}\mathcal A^\mu_{A'}
            + c^\mu_{\sigma\nu}\mathcal A^\sigma_{A'}\mathcal A^\nu_{C'}

    Returned with shape ``(N, n_g, n_h, n_h)`` at the ``N`` chart rows of
    ``zs``, antisymmetric in the last pair.
    """
    return _curvature(adapted.c.c,
                      *_horizontal(adapted, adapted.A_conn, zs, engine))


def _covariant_D(c, a_val, d_val, dd):
    corr = (np.einsum("ksm,...sa,...kn->...amn", c, a_val, d_val)
            + np.einsum("ksn,...sa,...mk->...amn", c, a_val, d_val))
    return dd - corr


def covariant_D_orbit_metric(adapted: AdaptedGeometry, zs,
                             engine: DerivEngine = DEFAULT_ENGINE
                             ) -> np.ndarray:
    r"""Covariant derivative of the orbit metric along horizontal directions.

    .. math::

        \mathcal D_{A'} d_{\mu\nu} = \partial_{A'} d_{\mu\nu}
            - c^\kappa_{\sigma\mu}\mathcal A^\sigma_{A'} d_{\kappa\nu}
            - c^\kappa_{\sigma\nu}\mathcal A^\sigma_{A'} d_{\mu\kappa}

    Returned with shape ``(N, n_h, n_g, n_g)`` at the ``N`` chart rows of
    ``zs``, symmetric in the orbit pair.
    """
    a_val, _ = _horizontal(adapted, adapted.A_conn, zs, engine)
    return _covariant_D(adapted.c.c, a_val,
                        *_horizontal(adapted, adapted.d.d, zs, engine))


def frame_metric_field(adapted: AdaptedGeometry) -> FieldHandle:
    """The frame metric blockdiag(h~, d) as one chart field."""
    n_h, n_t = adapted.n_h, adapted.n_t

    def frame_metric(zs):
        out = np.zeros((len(zs), n_t, n_t))
        out[:, :n_h, :n_h] = _field_stack(adapted.h_tilde, zs)
        out[:, n_h:, n_h:] = _field_stack(adapted.d.d, zs)
        return out

    return FieldHandle(frame_metric, "matrix")


def frame_structure_functions(adapted: AdaptedGeometry, zs,
                              engine: DerivEngine = DEFAULT_ENGINE
                              ) -> NonholonomicStructure:
    """Structure functions of the adapted frame at the chart rows of
    ``zs``; see NonholonomicStructure."""
    n_h, n_t = adapted.n_h, adapted.n_t
    a_val, da = _horizontal(adapted, adapted.A_conn, zs, engine)
    f_val = _curvature(adapted.c.c, a_val, da)
    cc = np.zeros((len(zs), n_t, n_t, n_t))
    cc[:, n_h:, :n_h, :n_h] = -f_val
    cc[:, n_h:, n_h:, n_h:] = adapted.c.c
    return NonholonomicStructure(CC=cc, F=f_val, A=a_val)


def base_levi_civita(adapted: AdaptedGeometry, zs,
                     engine: DerivEngine = DEFAULT_ENGINE) -> np.ndarray:
    r"""Levi-Civita symbols of the orbit-space metric h~ on the (x,f) chart.

    Returned with shape ``(N, n_h, n_h, n_h)`` at the ``N`` chart rows of
    ``zs``. These fill the purely horizontal sector of the table; the
    frame is holonomic there, so the standard coordinate formula applies.
    The inverse is the geometry's ``h_tilde_inv`` field at the rows.
    """
    _, dh = _horizontal(adapted, adapted.h_tilde, zs, engine)
    return _levi_civita(_field_stack(adapted.h_tilde_inv, zs), dh)


def frame_derivatives(adapted: AdaptedGeometry, field, signature, zs, a_val,
                      engine: DerivEngine = DEFAULT_ENGINE,
                      step_scale: float = 1.0):
    r"""A chart field at chart rows and its frame derivatives there.

    Returns ``(value, hat)``: the ``(N, ...)`` stack of the field at the
    ``N`` rows of ``zs`` and ``hat[i, A, ...]``, both from one
    ``value_and_partial`` call (at ``step_scale`` times the engine step).
    ``signature`` is the covariance signature of one row and ``a_val``
    the ``(N, n_g, n_h)`` connection at the rows. Along the horizontal
    lift of slot ``B'`` the derivative is the chart partial minus
    :math:`\mathcal A^\sigma_{B'}` times the group-direction rule along
    :math:`\sigma`; along orbit direction :math:`\sigma` it is the rule
    itself (``liecore.group_direction_derivative``, with the row axis
    inert).
    """
    n_h, n_g = adapted.n_h, adapted.n_g
    value, grad = _horizontal(adapted, field, zs, engine, step_scale)
    rule = [group_direction_derivative(value, ("inert",) + tuple(signature),
                                       adapted.c, s)
            for s in range(n_g)]
    # one connection coefficient per row, broadcast over the field's axes
    a_val = a_val.reshape(a_val.shape + (1,) * (value.ndim - 1))
    hat = np.zeros((len(zs), n_h + n_g) + value.shape[1:])
    for bp in range(n_h):
        correction = sum((a_val[:, s, bp] * rule[s] for s in range(n_g)),
                         np.zeros_like(value))
        hat[:, bp] = grad[:, bp] - correction
    for s in range(n_g):
        hat[:, n_h + s] = rule[s]
    return value, hat


def christoffel_general(adapted: AdaptedGeometry, zs,
                        engine: DerivEngine = DEFAULT_ENGINE
                        ) -> ChristoffelBlocks:
    """Christoffel tables from the general nonholonomic formula.

    At the chart rows of ``zs``, every sector comes out of one einsum
    pipeline over the frame metric, its frame derivatives, and the
    structure functions; no closed-form table entries are consulted.
    """
    structure = frame_structure_functions(adapted, zs, engine)
    gf_val, hat = frame_derivatives(adapted, frame_metric_field(adapted),
                                    ("lower", "lower"), zs, structure.A,
                                    engine)
    n_h = adapted.n_h
    g_inv = np.zeros_like(gf_val)
    g_inv[:, :n_h, :n_h] = invert_spd(gf_val[:, :n_h, :n_h])[0]
    g_inv[:, n_h:, n_h:] = invert_spd(gf_val[:, n_h:, n_h:])[0]
    cc = structure.CC

    metric_part = _levi_civita(g_inv, hat)
    frame_part = -0.5 * (
        np.einsum("...ad,...ebd,...ce->...abc", g_inv, cc, gf_val)
        + np.einsum("...ad,...ecd,...be->...abc", g_inv, cc, gf_val))
    torsion_part = 0.5 * cc
    gamma = metric_part + frame_part + torsion_part
    return ChristoffelBlocks(gamma=gamma, n_x=adapted.n_x, n_v=adapted.n_v,
                             n_g=adapted.n_g)


def christoffel_table(adapted: AdaptedGeometry, zs,
                      engine: DerivEngine = DEFAULT_ENGINE
                      ) -> ChristoffelBlocks:
    r"""Christoffel tables from the closed forms, sector by sector.

    At the chart rows of ``zs``. Horizontal sector: Levi-Civita of h~.
    Mixed and orbit sectors:

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
    n_h, n_t = adapted.n_h, adapted.n_t
    a_val, da = _horizontal(adapted, adapted.A_conn, zs, engine)
    h_val, dh = _horizontal(adapted, adapted.h_tilde, zs, engine)
    d_val, d_grad = _horizontal(adapted, adapted.d.d, zs, engine)
    h_inv, _ = invert_spd(h_val)
    d_inv, _ = invert_spd(d_val)
    c = adapted.c.c
    f_val = _curvature(c, a_val, da)
    dd = _covariant_D(c, a_val, d_val, d_grad)
    h, g = slice(0, n_h), slice(n_h, n_t)     # horizontal, orbit

    gamma = np.zeros((len(zs), n_t, n_t, n_t))
    gamma[:, h, h, h] = _levi_civita(h_inv, dh)

    mixed = 0.5 * np.einsum("...ab,...nc,...bmc->...nma", d_val, h_inv,
                            f_val)
    gamma[:, h, h, g] = mixed
    gamma[:, h, g, h] = np.einsum("...nma->...nam", mixed)

    gamma[:, h, g, g] = -0.5 * np.einsum("...nm,...mab->...nab", h_inv, dd)

    gamma[:, g, h, h] = -0.5 * f_val

    lowered = 0.5 * np.einsum("...ag,...mbg->...abm", d_inv, dd)
    gamma[:, g, g, h] = lowered
    gamma[:, g, h, g] = np.einsum("...abm->...amb", lowered)

    gamma[:, g, g, g] = (
        0.5 * np.einsum("...am,ebg,...em->...abg", d_inv, c, d_val)
        - 0.5 * np.einsum("...am,emg,...eb->...abg", d_inv, c, d_val)
        - 0.5 * np.einsum("...am,emb,...eg->...abg", d_inv, c, d_val))

    return ChristoffelBlocks(gamma=gamma, n_x=adapted.n_x, n_v=adapted.n_v,
                             n_g=adapted.n_g)
