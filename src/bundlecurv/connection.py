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
the central certification of the whole connection layer. The
structure-function term contracts ``E`` first, into one
:math:`\mathbb{C}^E_{BD} G_{CE}` array that serves both of its halves,
and then ``D``; every contraction of the general route is a plain
einsum of at most two arrays.

Frame derivatives never difference over group coordinates: along horizontal
lifts they are chart partials corrected by the connection times the
group-direction rule, and along orbit directions they are purely algebraic
(``liecore.group_direction_derivative``, which takes every orbit
direction at once). ``frame_derivatives`` applies that rule to the values
and partials of any chart field; the general formula here and the Ricci
contraction of the curvature module both use it.

The Christoffel routes read one ``HorizontalJet``, the complete
first-order record at the rows of an ``(N, n_x + n_v)`` array of joint
chart coordinates, ``x`` first: the connection ``A``, the horizontal
metric h~ and the orbit metric d with their horizontal partials, the
inverses of h~ and d, the Levi-Civita symbols ``lc`` of h~, the
connection curvature ``F``, the covariant derivative ``Dd`` of d and the
structure functions ``CC``. ``horizontal_jet`` computes every array of
the record once from one read of the geometry's frames (a
``geometry.frames_at`` or ``geometry.check_frames`` result) on a
centre-first stencil over the rows, which the caller builds and reads:
the point record of the curvature module, which holds the frames of its
stencils, one row per point of its stack. The jet keeps the stencil's
steps and the values of d on all its rows, from which the curvature
module differences ``ln det d``. The
inverses are the frames' own (on bundle data, the frame compile's), so
nothing here inverts a matrix. The two Christoffel routes share the
record and nothing computed from it. Each function returns the ``(N,
...)`` stack of its values at the rows; the arithmetic is that of one
row, matrix by matrix, so a row's result is bit-identical whatever stack
it comes in. A one-point caller builds the stencil at
``point.coords[None]`` and reads row 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _blockdiag, _levi_civita, _stencil_partials
from .geometry import AdaptedFrames, AdaptedGeometry
from .liecore import group_direction_derivative

__all__ = [
    "HorizontalJet",
    "horizontal_jet",
    "frame_derivatives",
    "christoffel_general",
    "christoffel_table",
]


@dataclass(frozen=True, eq=False)
class HorizontalJet:
    r"""The first-order record at the rows of a stack: the input of every
    formula here, each array computed once.

    ``zs`` holds the ``(N, n_x + n_v)`` chart rows and ``steps`` the
    ``(N, 2, n_h)`` steps of their centre-first stencil. ``A``, ``h`` and
    ``d`` are the ``(N, ...)`` stacks of :math:`\mathcal A`,
    :math:`\tilde h` and :math:`d` there, ``d_rows`` the ``(N, 1 + 4
    n_h, ...)`` values of d on every stencil row, the centre first,
    ``dh`` and ``dd`` the ``(N, n_h, ...)`` partials of h~ and d along
    every horizontal slot, ``h_inv`` and ``d_inv`` the inverses of the
    geometry's frames at the rows, and ``lc`` the ``(N, n_h, n_h, n_h)``
    Levi-Civita symbols of h~ on the (x, f) chart, from ``h_inv`` and
    ``dh``: the horizontal sector of the table, where the frame is
    holonomic. ``F`` is the curvature of the mechanical connection,

    .. math::

        \mathcal F^\mu_{A'C'} = \partial_{A'}\mathcal A^\mu_{C'}
            - \partial_{C'}\mathcal A^\mu_{A'}
            + c^\mu_{\sigma\nu}\mathcal A^\sigma_{A'}\mathcal A^\nu_{C'},

    ``(N, n_g, n_h, n_h)``, antisymmetric in the last pair; ``Dd`` the
    covariant derivative of the orbit metric along horizontal directions,

    .. math::

        \mathcal D_{A'} d_{\mu\nu} = \partial_{A'} d_{\mu\nu}
            - c^\kappa_{\sigma\mu}\mathcal A^\sigma_{A'} d_{\kappa\nu}
            - c^\kappa_{\sigma\nu}\mathcal A^\sigma_{A'} d_{\mu\kappa},

    ``(N, n_h, n_g, n_g)``, symmetric in the orbit pair; and ``CC`` the
    ``(N, n_t, n_t, n_t)`` structure functions
    :math:`\mathbb{C}^A_{BC}` of the adapted frame, whose only nonzero
    components carry an upper orbit index:
    :math:`\mathbb{C}^\gamma_{A'B'} = -\mathcal F^\gamma_{A'B'}` and
    :math:`\mathbb{C}^\gamma_{\alpha\beta} = c^\gamma_{\alpha\beta}`.
    The arrays are read-only.
    """

    adapted: AdaptedGeometry
    zs: np.ndarray
    steps: np.ndarray
    A: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d: np.ndarray
    d_rows: np.ndarray
    dd: np.ndarray
    h_inv: np.ndarray
    d_inv: np.ndarray
    lc: np.ndarray
    F: np.ndarray
    Dd: np.ndarray
    CC: np.ndarray


def horizontal_jet(adapted: AdaptedGeometry, rows, steps,
                   frames: AdaptedFrames) -> HorizontalJet:
    """The ``HorizontalJet`` at the centre rows of a stencil.

    ``rows`` and ``steps`` are the ``(N, 1 + 4 n_h, n_h)`` rows and the
    steps of a centre-first stencil over every horizontal slot
    (``fields._stencil`` with ``centre=True``), and ``frames`` the checked
    frames read on ``rows``. ``A``, h~ and d are differenced; the inverses
    are read at the centre rows, which are the jet's ``zs``.
    """
    n_h, n_t = adapted.n_h, adapted.n_t
    zs = rows[:, 0]
    a_rows, h_rows, d_rows = frames.A, frames.h_tilde, frames.d
    h_inv = frames.h_tilde_inv[:, 0]
    a_val, d_val = a_rows[:, 0], d_rows[:, 0]
    dh = _stencil_partials(h_rows, steps)
    c = adapted.c.c

    grad = np.einsum("...amc->...mac",
                     _stencil_partials(a_rows, steps))  # d_{A'} A^mu_{C'}
    f_val = (grad - np.einsum("...mca->...mac", grad)
             + np.einsum("msn,...sa,...nc->...mac", c, a_val, a_val))
    dd = _stencil_partials(d_rows, steps)
    corr = (np.einsum("ksm,...sa,...kn->...amn", c, a_val, d_val)
            + np.einsum("ksn,...sa,...mk->...amn", c, a_val, d_val))
    cc = np.zeros((len(zs), n_t, n_t, n_t))
    cc[:, n_h:, :n_h, :n_h] = -f_val
    cc[:, n_h:, n_h:, n_h:] = c

    arrays = dict(steps=steps, A=a_val, h=h_rows[:, 0], dh=dh, d=d_val,
                  d_rows=d_rows, dd=dd, h_inv=h_inv,
                  d_inv=frames.d_inv[:, 0], lc=_levi_civita(h_inv, dh),
                  F=f_val, Dd=dd - corr, CC=cc)
    for array in arrays.values():
        array.setflags(write=False)
    return HorizontalJet(adapted, zs, **arrays)


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
    (``liecore.group_direction_derivative``, with the row axis inert,
    called once for every direction).
    """
    n_h = grad.shape[1]
    rule = np.moveaxis(group_direction_derivative(
        value, ("inert",) + tuple(signature), c), 0, 1)
    hat = np.empty((len(value), n_h + c.n_g) + value.shape[1:])
    hat[:, :n_h] = grad - np.einsum("nsb,ns...->nb...", a_val, rule)
    hat[:, n_h:] = rule
    return hat


def christoffel_general(jet: HorizontalJet) -> np.ndarray:
    """Christoffel symbols from the general nonholonomic formula.

    The ``(N, n_t, n_t, n_t)`` stack at the rows of ``jet``, over the
    joint index order (base, vector, group). Every sector comes out of one
    einsum pipeline over the frame metric blockdiag(h~, d), its inverse
    blockdiag(``h_inv``, ``d_inv``), its frame derivatives (from the
    blockdiag of the jet's partials of h~ and d), and the structure
    functions ``CC``; no closed-form table entries are consulted. The
    structure-function term contracts ``e`` and then ``d``, each step one
    two-operand einsum, through one intermediate shared by its two halves.
    """
    gf_val = _blockdiag(jet.h, jet.d)
    hat = frame_derivatives(gf_val, _blockdiag(jet.dh, jet.dd), jet.A,
                            ("lower", "lower"), jet.adapted.c)
    g_inv = _blockdiag(jet.h_inv, jet.d_inv)
    cc = jet.CC

    metric_part = _levi_civita(g_inv, hat)
    # contract e, then d: one intermediate serves both terms
    lowered = np.einsum("...ebd,...ce->...dbc", cc, gf_val)
    frame_part = -0.5 * np.einsum("...ad,...dbc->...abc", g_inv,
                                  lowered + np.swapaxes(lowered, -1, -2))
    torsion_part = 0.5 * cc
    return metric_part + frame_part + torsion_part


def christoffel_table(jet: HorizontalJet) -> np.ndarray:
    r"""Christoffel symbols from the closed forms, sector by sector.

    The ``(N, n_t, n_t, n_t)`` stack at the rows of ``jet``, over the
    joint index order (base, vector, group). Horizontal sector: the
    jet's Levi-Civita symbols ``lc``. Mixed and orbit sectors:

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
    d_val, h_inv, d_inv = jet.d, jet.h_inv, jet.d_inv
    c = adapted.c.c
    f_val = jet.F
    dd = jet.Dd
    h, g = slice(0, n_h), slice(n_h, n_t)     # horizontal, orbit

    gamma = np.zeros((len(jet.zs), n_t, n_t, n_t))
    gamma[:, h, h, h] = jet.lc

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
    return gamma
