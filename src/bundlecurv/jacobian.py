r"""Reduction Jacobian, orbit second fundamental form, and Killing identities.

Factoring the group volume out of the path-integral measure leaves a
Jacobian, and this module certifies its two faces against each other:

* the direct form built from the orbit-volume density
  :math:`\sigma = \ln\det d`,

  .. math::

      \tilde J = \triangle_{\tilde{\mathcal M}}\sigma
          + \tfrac14\langle\partial\sigma, \partial\sigma\rangle,

* the geometric form as a curvature deficit,

  .. math::

      \tilde J = R_{\tilde{\mathcal P}} - R_{\tilde{\mathcal M}} - R_G
          - \tfrac14 d_{\mu\nu}\mathcal F^\mu \mathcal F^\nu
          - \tfrac14 \tilde h\, d^{-1} d^{-1}
            (\mathcal D d)(\mathcal D d).

The last subtraction is exactly the squared norm of the orbit's second
fundamental form, which this module also evaluates twice: from its closed
form in :math:`\mathcal D d`, and from the raw orthogonal projections of
the symmetrized covariant derivatives of the Killing fields. The directional
derivative identities that collapse the raw projections are checked
numerically as well.

Every route takes the record of a stack of points,
``curvature.PointTerms``, runs on all its points at once and returns one
leading entry per point. Both faces of the Jacobian are entries of the
record, ``J_direct`` and ``J_geometric``; ``jacobian_direct`` and
``jacobian_geometric`` read them on a fresh one-point record. The raw
projections and the Killing identities read the record's one
symmetrized pair of Killing derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, _worst,
                     coordinate_partials)
from .geometry import AdaptedGeometry
from .curvature import PointTerms

__all__ = [
    "SecondFundamentalForm",
    "KillingIdentityResiduals",
    "jacobian_direct",
    "jacobian_geometric",
    "killing_identities_check",
    "second_fundamental_form",
    "j_norm_squared",
]


def jacobian_direct(adapted: AdaptedGeometry, point: ChartPoint,
                    engine: DerivEngine = DEFAULT_ENGINE) -> float:
    """Reduction Jacobian from the orbit-volume density at ``point``.

    The quadratic form is contracted with the inverse orbit-space metric
    (the upper-left quadrant of the block inverse). This is the
    ``J_direct`` of a fresh one-point ``PointTerms``.
    """
    return float(PointTerms(adapted, point, engine).J_direct[0])


def jacobian_geometric(adapted: AdaptedGeometry, point: ChartPoint,
                       engine: DerivEngine = DEFAULT_ENGINE) -> float:
    """Reduction Jacobian as a curvature deficit at ``point``; see the
    module docstring.

    Both scalar curvatures come from a single frame-derivative pass so
    their FD noise largely cancels in the difference. This is the
    ``J_geometric`` of a fresh one-point ``PointTerms``.
    """
    return float(PointTerms(adapted, point, engine).J_geometric[0])


@dataclass(frozen=True)
class KillingIdentityResiduals:
    """Residuals of the directional-derivative identities for ``d``.

    ``raw_base``: bundle-coordinate identity
    ``-G^{EC} d d_{ab}/dQ^C = symmetrized pair``;
    ``raw_vector``: same on the vector sector with constant ``G_V``;
    ``adapted_base`` / ``adapted_vector``: the chart versions written
    through the section operators ``T``, ``Lambda`` and the reduced metric.
    ``killing_identities_check`` gives each as a ``(B,)`` array, one
    residual per point of its record; ``max_residual`` is the worst of
    all.
    """

    raw_base: np.ndarray
    raw_vector: np.ndarray
    adapted_base: np.ndarray
    adapted_vector: np.ndarray

    def max_residual(self) -> float:
        return _worst((self.raw_base, self.raw_vector, self.adapted_base,
                       self.adapted_vector))


def killing_identities_check(terms: PointTerms) -> KillingIdentityResiduals:
    r"""Check the four directional-derivative identities at the points of
    ``terms``, a ``PointTerms`` of a geometry with bundle data; each
    residual is a ``(B,)`` array over the points.

    Bundle form: with :math:`d_{\alpha\beta}(Q, f)` extended off the
    section through the Killing fields,

    .. math::

        -G^{EC}\frac{\partial d_{\alpha\beta}}{\partial Q^C}
            = (\nabla_{K_\alpha}K_\beta)^E + (\nabla_{K_\beta}K_\alpha)^E,

    and its vector-sector counterpart with :math:`G^{ab}`. Chart form: the
    same left sides rewritten through the section pullback,

    .. math::

        (\ldots)^E_{\alpha\beta} = -\tfrac12 G^{CE}\big[
            G^{\rm H}_{CD} Q^{*D}_m h^{mi}\partial_i d_{\alpha\beta}
            - \Lambda^\sigma_C K^a_\sigma \partial_a d_{\alpha\beta}
            + \Lambda^\varepsilon_C(c^\varphi_{\varepsilon\alpha}
              d_{\varphi\beta} + c^\varphi_{\varepsilon\beta}
              d_{\varphi\alpha})\big],

    with the vector version reducing to
    :math:`(\ldots)^p = -\tfrac12 G^{pq}\partial_q d_{\alpha\beta}`.
    The right sides are the record's symmetrized ``killing`` pair; the
    bundle-coordinate partials of :math:`\gamma` are the last of the
    record's ``section`` ones, the chart partials of ``d`` those of its
    jet, the vector partials of :math:`\gamma'` come from one stencil
    over every point's ``f``, and the rest is read from its
    ``at_points`` frames.
    """
    orig, engine = terms.adapted.orig, terms.engine
    if orig is None:
        raise ValueError("the Killing identities need original bundle data")
    n_v, n_g, n_x = orig.n_v, orig.n_g, orig.n_x
    if n_g == 0:
        zero = np.zeros(len(terms.points))
        return KillingIdentityResiduals(zero, zero, zero, zero)
    frames = terms.at_points
    sym_p, sym_v = terms.killing
    d, g_p_inv = frames.d, frames.G_P_inv
    scale = np.maximum(1.0, np.abs(d).max(axis=(1, 2)))

    def worst(gap):
        return np.abs(gap).max(axis=(1, 2, 3)) / scale

    dd_q = terms.section[2]                         # dd_q[n, C, a, b]
    lhs_base = -np.einsum("...ec,...cab->...eab", g_p_inv, dd_q)
    raw_base = worst(lhs_base - 2.0 * sym_p)

    if n_v:
        def gamma_prime_of_f(fs):
            k = orig.K_vector(fs)
            return k.swapaxes(1, 2) @ orig.G_V @ k

        dd_f = coordinate_partials(gamma_prime_of_f, terms.coords[:, n_x:],
                                   engine.fd_step)   # dd_f[n, q, a, b]
        lhs_vec = -np.einsum("pq,...qab->...pab", orig.G_V_inv, dd_f)
        raw_vector = worst(lhs_vec - 2.0 * sym_v)
    else:
        raw_vector = np.zeros(len(terms.points))

    # chart versions: the same right-hand sides, left sides rewritten over
    # the (x, f) chart through the section operators
    dd_chart = terms.jet.dd                         # dd_chart[n, A', a, b]
    dd_x = dd_chart[:, :n_x]
    dd_f_chart = dd_chart[:, n_x:]
    c = orig.c.c
    alg = (np.einsum("fea,...fb->...eab", c, d)
           + np.einsum("feb,...af->...eab", c, d))   # alg[n, eps, alpha, beta]
    lam = frames.Lambda
    bracket = (np.einsum("...CD,...Dm,...mi,...iab->...Cab", frames.GH_P,
                         frames.Q_jac, frames.h_base_inv, dd_x)
               - np.einsum("...sC,...qs,...qab->...Cab", lam, frames.K_V,
                           dd_f_chart)
               + np.einsum("...eC,...eab->...Cab", lam, alg))
    rhs_adapted = -0.5 * np.einsum("...ce,...cab->...eab", g_p_inv, bracket)
    adapted_base = worst(rhs_adapted - sym_p)

    if n_v:
        rhs_vec = -0.5 * np.einsum("pq,...qab->...pab", orig.G_V_inv,
                                   dd_f_chart)
        adapted_vector = worst(rhs_vec - sym_v)
    else:
        adapted_vector = np.zeros(len(terms.points))

    return KillingIdentityResiduals(raw_base, raw_vector, adapted_base,
                                    adapted_vector)


@dataclass(frozen=True)
class SecondFundamentalForm:
    r"""Second fundamental form of the orbit, in the horizontal basis.

    ``closed[N', alpha, beta]`` holds the closed form
    :math:`j^{N'}_{\alpha\beta} = -\tfrac12 \tilde h^{N'B'}
    \mathcal D_{B'} d_{\alpha\beta}`. When the geometry carries bundle
    data, ``raw_pieces`` holds the four raw orthogonal projections of the
    symmetrized Killing derivatives (base/vector output legs times
    base/vector metric legs), and ``raw`` the same components as
    ``closed`` rebuilt from them; both are None without bundle data. A
    form of a stack of points carries a leading point axis on each
    array.
    """

    closed: np.ndarray
    raw_pieces: tuple = None

    @property
    def raw(self):
        """The base output legs ``j1 + j3`` over the vector ones
        ``j2 + j4`` of ``raw_pieces``."""
        if self.raw_pieces is None:
            return None
        j1, j2, j3, j4 = self.raw_pieces
        return np.concatenate([j1 + j3, j2 + j4], axis=-3)

    def norm_squared(self, d_inv, h_tilde):
        r"""Squared norm of the closed form, given :math:`d^{-1}` and
        :math:`\tilde h` at its point, or at each point of a stacked form.

        The trace pairing contracts the orbit legs with :math:`d^{-1}d^{-1}`
        and the basis legs with :math:`\tilde h`:

        .. math::

            \|j\|^2 = d^{\alpha\mu} d^{\beta\nu} \tilde h_{N'M'}
                j^{N'}_{\alpha\beta} j^{M'}_{\mu\nu},

        which reproduces the covariant-derivative term of the curvature
        decomposition identically.
        """
        return np.einsum("...am,...bn,...NM,...Nab,...Mmn->...", d_inv,
                         d_inv, h_tilde, self.closed, self.closed)


def _closed_form(terms: PointTerms) -> SecondFundamentalForm:
    """The stacked form with its closed part alone, from the ``h~^{-1}``
    and ``D d`` of ``terms``."""
    return SecondFundamentalForm(
        closed=-0.5 * np.einsum("...nb,...bst->...nst", terms.h_inv,
                                terms.Dd))


def second_fundamental_form(terms: PointTerms) -> SecondFundamentalForm:
    """Closed-form second fundamental form at every point of ``terms``,
    plus the raw projections when the geometry has bundle data; each
    array has a leading point axis.

    The closed part reads the record's ``h~^{-1}`` and ``D d``; the raw
    projections need the original bundle data of ``adapted.orig`` and
    read the record's symmetrized Killing derivatives and ``at_points``
    frames.
    """
    adapted = terms.adapted
    orig = adapted.orig
    n_x, h_inv = adapted.n_x, terms.h_inv
    form = _closed_form(terms)
    if orig is None or adapted.n_g == 0:
        return form

    frames = terms.at_points
    sym_p, sym_v = terms.killing
    n_P = orig.n_P
    gt_h, q_jac, gh_p, n_vp = frames.Gt_H, frames.Q_jac, frames.GH_P, \
        frames.N_vP
    gt_pp = gt_h[:, :n_P, :n_P]
    gt_pv = gt_h[:, :n_P, n_P:]
    gt_vv = gt_h[:, n_P:, n_P:]
    h_xx, h_xv, h_vv = frames.h_xx, frames.h_xv, frames.h_vv
    h_base_inv = frames.h_base_inv
    hi_xx = h_inv[:, :n_x, :n_x]
    hi_xv = h_inv[:, :n_x, n_x:]
    hi_vv = h_inv[:, n_x:, n_x:]

    # base output leg, base metric leg
    j1 = (np.einsum("...kn,...BM,...Bk,...Mst->...nst", hi_xx, gt_pp, q_jac,
                    sym_p)
          + np.einsum("...kn,...Bc,...Bk,...cst->...nst", hi_xx, gt_pv,
                      q_jac, sym_v))
    # vector output leg, cross metric leg
    braket2 = (np.einsum("...ML,...Lm,...mi,...ki->...kM", gh_p, q_jac,
                         h_base_inv, h_xx)
               + np.einsum("...aM,...ka->...kM", n_vp, h_xv))
    j2 = (np.einsum("...kb,...kM,...Mst->...bst", hi_xv, braket2, sym_p)
          + np.einsum("...kb,...kc,...cst->...bst", hi_xv, h_xv, sym_v))
    # base output leg, cross metric leg
    braket3 = (np.einsum("...ML,...Lm,...mi,...ib->...bM", gh_p, q_jac,
                         h_base_inv, h_xv)
               + np.einsum("...aM,...ab->...bM", n_vp, h_vv))
    j3 = (np.einsum("...kb,...bM,...Mst->...kst", hi_xv, braket3, sym_p)
          + np.einsum("...kb,...cb,...cst->...kst", hi_xv, h_vv, sym_v))
    # vector output leg, vector metric leg
    j4 = (np.einsum("...ab,...Ma,...Mst->...bst", hi_vv, gt_pv, sym_p)
          + np.einsum("...ab,...da,...dst->...bst", hi_vv, gt_vv, sym_v))

    return replace(form, raw_pieces=(j1, j2, j3, j4))


def j_norm_squared(terms: PointTerms) -> np.ndarray:
    """Squared norm of the second fundamental form at each point of
    ``terms``, a ``(B,)`` array; see ``SecondFundamentalForm.norm_squared``.
    Only the closed form enters, so no Killing derivative is computed:
    the record's ``h~``, its inverse, ``d^{-1}`` and ``D d`` suffice."""
    return _closed_form(terms).norm_squared(terms.d_inv, terms.h_tilde)
