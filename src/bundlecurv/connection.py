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
that rule to the values and partials of any chart field; the general
formula here and the Ricci contraction of the curvature module both use
it.

The Christoffel routes, the structure functions and the Levi-Civita
symbols of h~ read one ``HorizontalJet``: the connection ``A``, the
horizontal metric h~ and the orbit metric d at the rows of an ``(N, n_x +
n_v)`` array of joint chart coordinates, ``x`` first, with their
horizontal partials there. ``horizontal_jet`` takes each field's values
and partials from one ``value_and_partial`` call on the centre-first rows
of every row's stencil; the connection curvature ``F`` and the covariant
derivative ``Dd`` of d follow from the jet, and the two Christoffel
routes share the jet and nothing else computed from it but ``F``. Each
function returns the ``(N, ...)`` stack of its values at the rows, and
each SPD inverse runs once per stack. The arithmetic is that of one row,
matrix by matrix, so a row's result is bit-identical whatever stack it
comes in. A one-point caller builds the jet at ``point.coords[None]`` and
reads row 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (DerivEngine, _field_stack, _levi_civita, invert_spd,
                     value_and_partial)
from .geometry import AdaptedGeometry
from .liecore import group_direction_derivative

__all__ = [
    "NonholonomicStructure",
    "ChristoffelBlocks",
    "HorizontalJet",
    "horizontal_jet",
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
    ``F`` is the stack of connection curvatures on their own.
    """

    CC: np.ndarray
    F: np.ndarray


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


@dataclass(frozen=True, eq=False)
class HorizontalJet:
    r"""The connection, h~ and d at the rows of a stack, with their
    horizontal partials: the first-order input of every formula here.

    ``zs`` holds the ``(N, n_x + n_v)`` chart rows; ``A``, ``h`` and ``d``
    are the ``(N, ...)`` stacks of :math:`\mathcal A`, :math:`\tilde h`
    and :math:`d` there, and ``dA``, ``dh`` and ``dd`` their ``(N, n_h,
    ...)`` partials along every horizontal slot. Each field's pair comes
    from one ``value_and_partial`` call (see ``horizontal_jet``); ``F``
    and ``Dd`` are computed from the jet on each read. The arrays are
    read-only.
    """

    adapted: AdaptedGeometry
    zs: np.ndarray
    A: np.ndarray
    dA: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d: np.ndarray
    dd: np.ndarray

    @property
    def F(self) -> np.ndarray:
        r"""Curvature of the mechanical connection,

        .. math::

            \mathcal F^\mu_{A'C'} = \partial_{A'}\mathcal A^\mu_{C'}
                - \partial_{C'}\mathcal A^\mu_{A'}
                + c^\mu_{\sigma\nu}\mathcal A^\sigma_{A'}
                  \mathcal A^\nu_{C'},

        with shape ``(N, n_g, n_h, n_h)``, antisymmetric in the last pair.
        """
        grad = np.einsum("...amc->...mac", self.dA)  # d_{A'} A^mu_{C'}
        comm = np.einsum("msn,...sa,...nc->...mac", self.adapted.c.c,
                         self.A, self.A)
        return grad - np.einsum("...mca->...mac", grad) + comm

    @property
    def Dd(self) -> np.ndarray:
        r"""Covariant derivative of the orbit metric along horizontal
        directions,

        .. math::

            \mathcal D_{A'} d_{\mu\nu} = \partial_{A'} d_{\mu\nu}
                - c^\kappa_{\sigma\mu}\mathcal A^\sigma_{A'} d_{\kappa\nu}
                - c^\kappa_{\sigma\nu}\mathcal A^\sigma_{A'} d_{\mu\kappa},

        with shape ``(N, n_h, n_g, n_g)``, symmetric in the orbit pair.
        """
        c = self.adapted.c.c
        corr = (np.einsum("ksm,...sa,...kn->...amn", c, self.A, self.d)
                + np.einsum("ksn,...sa,...mk->...amn", c, self.A, self.d))
        return self.dd - corr


def horizontal_jet(adapted: AdaptedGeometry, zs,
                   engine: DerivEngine) -> HorizontalJet:
    """The ``HorizontalJet`` at the chart rows of ``zs``: one
    ``value_and_partial`` call at ``engine``'s step for each of ``A``,
    ``h~`` and ``d``, over every horizontal slot."""
    parts = []
    for field in (adapted.A_conn, adapted.h_tilde, adapted.d.d):
        for array in value_and_partial(engine, field, zs, adapted.n_x,
                                       range(adapted.n_h)):
            array.setflags(write=False)
            parts.append(array)
    return HorizontalJet(adapted, zs, *parts)


def _blockdiag(upper, lower):
    """The stack of blockdiag(``upper``, ``lower``) over the leading axes."""
    n_h, n_g = upper.shape[-1], lower.shape[-1]
    out = np.zeros(upper.shape[:-2] + (n_h + n_g, n_h + n_g))
    out[..., :n_h, :n_h] = upper
    out[..., n_h:, n_h:] = lower
    return out


def frame_structure_functions(jet: HorizontalJet) -> NonholonomicStructure:
    """Structure functions of the adapted frame at the rows of ``jet``;
    see NonholonomicStructure."""
    adapted = jet.adapted
    n_h, n_t = adapted.n_h, adapted.n_t
    f_val = jet.F
    cc = np.zeros((len(jet.zs), n_t, n_t, n_t))
    cc[:, n_h:, :n_h, :n_h] = -f_val
    cc[:, n_h:, n_h:, n_h:] = adapted.c.c
    return NonholonomicStructure(CC=cc, F=f_val)


def base_levi_civita(jet: HorizontalJet) -> np.ndarray:
    r"""Levi-Civita symbols of the orbit-space metric h~ on the (x,f) chart.

    Returned with shape ``(N, n_h, n_h, n_h)`` at the ``N`` rows of
    ``jet``. These fill the purely horizontal sector of the table; the
    frame is holonomic there, so the standard coordinate formula applies.
    The inverse is the geometry's ``h_tilde_inv`` field at the rows.
    """
    return _levi_civita(_field_stack(jet.adapted.h_tilde_inv, jet.zs),
                        jet.dh)


def frame_derivatives(value, grad, a_val, signature, c) -> np.ndarray:
    r"""Frame derivatives of a chart field from its values and partials.

    ``value`` is the ``(N, ...)`` stack of the field at ``N`` chart rows,
    ``grad`` its ``(N, n_h, ...)`` partials along every horizontal slot,
    ``a_val`` the ``(N, n_g, n_h)`` connection at the rows, ``signature``
    the covariance signature of one row and ``c`` the structure
    constants. Returns ``hat[i, A, ...]``: along the horizontal lift of
    slot ``B'`` the chart partial minus :math:`\mathcal A^\sigma_{B'}`
    times the group-direction rule along :math:`\sigma`; along orbit
    direction :math:`\sigma` the rule itself
    (``liecore.group_direction_derivative``, with the row axis inert).
    """
    n_h, n_g = grad.shape[1], c.n_g
    rule = [group_direction_derivative(value, ("inert",) + tuple(signature),
                                       c, s)
            for s in range(n_g)]
    # one connection coefficient per row, broadcast over the field's axes
    a_val = a_val.reshape(a_val.shape + (1,) * (value.ndim - 1))
    hat = np.zeros((len(value), n_h + n_g) + value.shape[1:])
    for bp in range(n_h):
        correction = sum((a_val[:, s, bp] * rule[s] for s in range(n_g)),
                         np.zeros_like(value))
        hat[:, bp] = grad[:, bp] - correction
    for s in range(n_g):
        hat[:, n_h + s] = rule[s]
    return hat


def christoffel_general(jet: HorizontalJet) -> ChristoffelBlocks:
    """Christoffel tables from the general nonholonomic formula.

    At the rows of ``jet``, every sector comes out of one einsum pipeline
    over the frame metric blockdiag(h~, d), its frame derivatives (from
    the blockdiag of the jet's partials of h~ and d), and the structure
    functions; no closed-form table entries are consulted.
    """
    adapted = jet.adapted
    structure = frame_structure_functions(jet)
    gf_val = _blockdiag(jet.h, jet.d)
    hat = frame_derivatives(gf_val, _blockdiag(jet.dh, jet.dd), jet.A,
                            ("lower", "lower"), adapted.c)
    g_inv = _blockdiag(invert_spd(jet.h)[0], invert_spd(jet.d)[0])
    cc = structure.CC

    metric_part = _levi_civita(g_inv, hat)
    frame_part = -0.5 * (
        np.einsum("...ad,...ebd,...ce->...abc", g_inv, cc, gf_val)
        + np.einsum("...ad,...ecd,...be->...abc", g_inv, cc, gf_val))
    torsion_part = 0.5 * cc
    gamma = metric_part + frame_part + torsion_part
    return ChristoffelBlocks(gamma=gamma, n_x=adapted.n_x, n_v=adapted.n_v,
                             n_g=adapted.n_g)


def christoffel_table(jet: HorizontalJet) -> ChristoffelBlocks:
    r"""Christoffel tables from the closed forms, sector by sector.

    At the rows of ``jet``. Horizontal sector: Levi-Civita of h~.
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
    adapted = jet.adapted
    n_h, n_t = adapted.n_h, adapted.n_t
    d_val = jet.d
    h_inv, _ = invert_spd(jet.h)
    d_inv, _ = invert_spd(d_val)
    c = adapted.c.c
    f_val = jet.F
    dd = jet.Dd
    h, g = slice(0, n_h), slice(n_h, n_t)     # horizontal, orbit

    gamma = np.zeros((len(jet.zs), n_t, n_t, n_t))
    gamma[:, h, h, h] = _levi_civita(h_inv, jet.dh)

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
