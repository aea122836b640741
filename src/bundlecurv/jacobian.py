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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, _levi_civita,
                     coordinate_partials)
from .geometry import AdaptedGeometry, OriginalGeometry, point_frame
from .curvature import PointTerms, _frozen, _terms_at

__all__ = [
    "PointRecord",
    "SecondFundamentalForm",
    "KillingIdentityResiduals",
    "jacobian_direct",
    "jacobian_geometric",
    "killing_derivatives",
    "killing_identities_check",
    "second_fundamental_form",
    "j_norm_squared",
]


def jacobian_direct(adapted: AdaptedGeometry, point: ChartPoint,
                    engine: DerivEngine = DEFAULT_ENGINE,
                    terms: PointTerms = None) -> float:
    r"""Reduction Jacobian from the orbit-volume density.

    The quadratic form is contracted with the inverse orbit-space metric
    (the upper-left quadrant of the block inverse). ``terms``, the
    ``PointTerms`` of the same arguments, holds the log-density terms.
    """
    lap, grad_sq = _terms_at(adapted, point, engine, terms).log_density
    return lap + grad_sq


def jacobian_geometric(adapted: AdaptedGeometry, point: ChartPoint,
                       engine: DerivEngine = DEFAULT_ENGINE,
                       terms: PointTerms = None) -> float:
    """Reduction Jacobian as a curvature deficit; see the module docstring.

    Both scalar curvatures come from a single frame-derivative pass so
    their FD noise largely cancels in the difference; the other terms
    are the decomposition's pieces, all read from ``terms``.
    """
    terms = _terms_at(adapted, point, engine, terms)
    r_total, r_base = terms.pair_table
    return r_total - r_base - terms.R_G - terms.FF - terms.DdDd


def killing_derivatives(orig: OriginalGeometry, point: ChartPoint,
                        engine: DerivEngine = DEFAULT_ENGINE):
    r"""Covariant derivatives :math:`\nabla_{K_\alpha}K_\beta` at the section point.

    Returns ``(p, v)`` with ``p[c, alpha, beta]`` the bundle part and
    ``v[q, alpha, beta]`` the vector part, for every pair at once. The
    bundle part uses the Levi-Civita connection of ``G_P``, from one
    finite-differenced Christoffel table and one all-slot derivative of
    ``K_P``; the vector part uses the flat connection of the constant
    ``G_V``, i.e. the plain directional derivative of the linear field,
    ``gens[beta] gens[alpha] f``.
    """
    frames = point_frame(orig, point)
    q, k = frames.Q[0], frames.K_P[0]
    gamma_p = _levi_civita(frames.G_P_inv[0],
                           coordinate_partials(orig.G_P, q, engine.fd_step))
    dk = coordinate_partials(orig.K_P, q, engine.fd_step)  # dk[A, C, beta]
    p = (np.einsum("aA,acB->cAB", k, dk)
         + np.einsum("cab,aA,bB->cAB", gamma_p, k, k))
    # v_products[alpha, beta] = gens[beta] gens[alpha]
    v_products = orig.gens[None] @ orig.gens[:, None]
    v = np.moveaxis(v_products @ point.f, -1, 0)
    return p, v


class PointRecord(PointTerms):
    """``PointTerms`` plus ``killing``, the ``killing_derivatives`` at the
    point: the per-point record that ``verify.run_checks`` shares between
    its checks and drops after the point."""

    _ENTRIES = dict(PointTerms._ENTRIES, killing=lambda t: tuple(
        _frozen(part) for part in killing_derivatives(t.adapted.orig,
                                                      t.point, t.engine)))


@dataclass(frozen=True)
class KillingIdentityResiduals:
    """Residuals of the directional-derivative identities for ``d``.

    ``raw_base``: bundle-coordinate identity
    ``-G^{EC} d d_{ab}/dQ^C = symmetrized pair``;
    ``raw_vector``: same on the vector sector with constant ``G_V``;
    ``adapted_base`` / ``adapted_vector``: the chart versions written
    through the section operators ``T``, ``Lambda`` and the reduced metric.
    """

    raw_base: float
    raw_vector: float
    adapted_base: float
    adapted_vector: float

    def max_residual(self) -> float:
        return max(self.raw_base, self.raw_vector, self.adapted_base,
                   self.adapted_vector)


def killing_identities_check(terms: PointRecord) -> KillingIdentityResiduals:
    r"""Check the four directional-derivative identities at the point of
    ``terms``, a ``PointRecord`` of a geometry with bundle data.

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
    The right sides are the record's ``killing`` derivatives; the chart
    partials of ``d`` are those of its point jet.
    """
    orig, point, engine = terms.adapted.orig, terms.point, terms.engine
    if orig is None:
        raise ValueError("the Killing identities need original bundle data")
    frames = point_frame(orig, point)
    n_v, n_g, n_x = orig.n_v, orig.n_g, orig.n_x
    if n_g == 0:
        return KillingIdentityResiduals(0.0, 0.0, 0.0, 0.0)
    p, v = terms.killing
    sym_p, sym_v = 0.5 * (p + p.swapaxes(1, 2)), 0.5 * (v + v.swapaxes(1, 2))
    d, g_p_inv = frames.d[0], frames.G_P_inv[0]
    scale = max(1.0, float(np.max(np.abs(d))))

    def gamma_of_q(qs):
        k = orig.K_P(qs)
        return k.swapaxes(1, 2) @ orig.G_P(qs) @ k

    dd_q = coordinate_partials(gamma_of_q, frames.Q[0],
                               engine.fd_step)       # dd_q[C, a, b]
    lhs_base = -np.einsum("ec,cab->eab", g_p_inv, dd_q)
    raw_base = float(np.max(np.abs(lhs_base - 2.0 * sym_p))) / scale

    if n_v:
        def gamma_prime_of_f(fs):
            k = orig.K_vector(fs)
            return k.swapaxes(1, 2) @ orig.G_V @ k

        dd_f = coordinate_partials(gamma_prime_of_f, point.f,
                                   engine.fd_step)   # dd_f[q, a, b]
        lhs_vec = -np.einsum("pq,qab->pab", orig.G_V_inv, dd_f)
        raw_vector = float(np.max(np.abs(lhs_vec - 2.0 * sym_v))) / scale
    else:
        raw_vector = 0.0

    # chart versions: the same right-hand sides, left sides rewritten over
    # the (x, f) chart through the section operators
    dd_chart = terms.jet.dd[0]                      # dd_chart[A', a, b]
    dd_x = dd_chart[:n_x]
    dd_f_chart = dd_chart[n_x:]
    c = orig.c.c
    alg = (np.einsum("fea,fb->eab", c, d)
           + np.einsum("feb,af->eab", c, d))   # alg[eps, alpha, beta]
    lam = frames.Lambda[0]
    bracket = (np.einsum("CD,Dm,mi,iab->Cab", frames.GH_P[0],
                         frames.Q_jac[0], frames.h_base_inv[0], dd_x)
               - np.einsum("sC,qs,qab->Cab", lam, frames.K_V[0], dd_f_chart)
               + np.einsum("eC,eab->Cab", lam, alg))
    rhs_adapted = -0.5 * np.einsum("ce,cab->eab", g_p_inv, bracket)
    adapted_base = float(np.max(np.abs(rhs_adapted - sym_p))) / scale

    if n_v:
        rhs_vec = -0.5 * np.einsum("pq,qab->pab", orig.G_V_inv,
                                   dd_f_chart)
        adapted_vector = float(np.max(np.abs(rhs_vec - sym_v))) / scale
    else:
        adapted_vector = 0.0

    return KillingIdentityResiduals(raw_base, raw_vector, adapted_base,
                                    adapted_vector)


@dataclass(frozen=True)
class SecondFundamentalForm:
    r"""Second fundamental form of the orbit, in the horizontal basis.

    ``closed[N', alpha, beta]`` holds the closed form
    :math:`j^{N'}_{\alpha\beta} = -\tfrac12 \tilde h^{N'B'}
    \mathcal D_{B'} d_{\alpha\beta}`. When the geometry carries bundle
    data, ``raw`` holds the same components rebuilt from the four raw
    orthogonal projections of the symmetrized Killing derivatives, and
    ``raw_pieces`` the individual projections (base/vector output legs
    times base/vector metric legs).
    """

    closed: np.ndarray
    n_x: int
    n_v: int
    n_g: int
    raw: np.ndarray = None
    raw_pieces: tuple = None

    def norm_squared(self, d_inv, h_tilde) -> float:
        r"""Squared norm of the closed form, given :math:`d^{-1}` and
        :math:`\tilde h` at its point.

        The trace pairing contracts the orbit legs with :math:`d^{-1}d^{-1}`
        and the basis legs with :math:`\tilde h`:

        .. math::

            \|j\|^2 = d^{\alpha\mu} d^{\beta\nu} \tilde h_{N'M'}
                j^{N'}_{\alpha\beta} j^{M'}_{\mu\nu},

        which reproduces the covariant-derivative term of the curvature
        decomposition identically.
        """
        return float(np.einsum("am,bn,NM,Nab,Mmn->", d_inv, d_inv, h_tilde,
                               self.closed, self.closed))


def _closed_form(terms: PointTerms) -> SecondFundamentalForm:
    """The form with its closed part alone, from the ``h~^{-1}`` and ``D
    d`` of ``terms``."""
    adapted = terms.adapted
    return SecondFundamentalForm(
        closed=-0.5 * np.einsum("nb,bst->nst", terms.h_inv, terms.Dd),
        n_x=adapted.n_x, n_v=adapted.n_v, n_g=adapted.n_g)


def second_fundamental_form(adapted: AdaptedGeometry, point: ChartPoint,
                            engine: DerivEngine = DEFAULT_ENGINE,
                            terms: PointRecord = None
                            ) -> SecondFundamentalForm:
    """Closed-form second fundamental form, plus raw projections if possible.

    Raw projections need the original bundle data of ``adapted.orig``.
    ``terms``, the ``PointRecord`` of the same arguments, supplies
    ``h~^{-1}``, ``D d`` and the Killing derivatives when given.
    """
    terms = _terms_at(adapted, point, engine, terms, PointRecord)
    orig = adapted.orig
    n_x, h_inv = adapted.n_x, terms.h_inv
    form = _closed_form(terms)
    if orig is None or adapted.n_g == 0:
        return form

    frames = point_frame(orig, point)
    p, v = terms.killing
    sym_p, sym_v = 0.5 * (p + p.swapaxes(1, 2)), 0.5 * (v + v.swapaxes(1, 2))
    n_P = orig.n_P
    gt_h, q_jac, gh_p, n_vp = (frames.Gt_H[0], frames.Q_jac[0],
                               frames.GH_P[0], frames.N_vP[0])
    gt_pp = gt_h[:n_P, :n_P]
    gt_pv = gt_h[:n_P, n_P:]
    gt_vv = gt_h[n_P:, n_P:]
    h_xx, h_xv, h_vv = frames.h_xx[0], frames.h_xv[0], frames.h_vv[0]
    h_base_inv = frames.h_base_inv[0]
    hi_xx = h_inv[:n_x, :n_x]
    hi_xv = h_inv[:n_x, n_x:]
    hi_vv = h_inv[n_x:, n_x:]

    # base output leg, base metric leg
    j1 = (np.einsum("kn,BM,Bk,Mst->nst", hi_xx, gt_pp, q_jac, sym_p)
          + np.einsum("kn,Bc,Bk,cst->nst", hi_xx, gt_pv, q_jac, sym_v))
    # vector output leg, cross metric leg
    braket2 = (np.einsum("ML,Lm,mi,ki->kM", gh_p, q_jac, h_base_inv, h_xx)
               + np.einsum("aM,ka->kM", n_vp, h_xv))
    j2 = (np.einsum("kb,kM,Mst->bst", hi_xv, braket2, sym_p)
          + np.einsum("kb,kc,cst->bst", hi_xv, h_xv, sym_v))
    # base output leg, cross metric leg
    braket3 = (np.einsum("ML,Lm,mi,ib->bM", gh_p, q_jac, h_base_inv, h_xv)
               + np.einsum("aM,ab->bM", n_vp, h_vv))
    j3 = (np.einsum("kb,bM,Mst->kst", hi_xv, braket3, sym_p)
          + np.einsum("kb,cb,cst->kst", hi_xv, h_vv, sym_v))
    # vector output leg, vector metric leg
    j4 = (np.einsum("ab,Ma,Mst->bst", hi_vv, gt_pv, sym_p)
          + np.einsum("ab,da,dst->bst", hi_vv, gt_vv, sym_v))

    raw = np.zeros_like(form.closed)
    raw[:n_x] = j1 + j3
    raw[n_x:] = j2 + j4
    return replace(form, raw=raw, raw_pieces=(j1, j2, j3, j4))


def j_norm_squared(adapted: AdaptedGeometry, point: ChartPoint,
                   engine: DerivEngine = DEFAULT_ENGINE,
                   terms: PointTerms = None) -> float:
    """Squared norm of the second fundamental form at ``point``; see
    ``SecondFundamentalForm.norm_squared``. Only the closed form enters,
    so no Killing derivative is computed. ``terms``, the ``PointTerms``
    of the same arguments, supplies ``h~``, its inverse, ``d^{-1}`` and
    ``D d`` when given."""
    terms = _terms_at(adapted, point, engine, terms)
    return _closed_form(terms).norm_squared(terms.d_inv, terms.h_tilde)
