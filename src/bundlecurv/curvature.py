r"""Ricci contraction, scalar-curvature decomposition, and oracles.

Three independent routes to the total-space scalar curvature live here:

1. ``ricci_scalar_pair`` contracts the frame Ricci tensor built from a
   Christoffel route (table or general formula) via

   .. math::

       \tilde R_{AC} = \hat\partial_A \Gamma^B_{BC}
           - \hat\partial_B \Gamma^B_{AC}
           + \Gamma^D_{BC}\Gamma^B_{AD}
           - \Gamma^L_{AC}\Gamma^B_{BL}
           - \mathbb{C}^E_{AB}\Gamma^B_{EC},

2. ``decomposition_terms`` sums the closed decomposition: orbit-space
   curvature, orbit curvature, connection-curvature term, covariant-derivative
   term, and the log-density terms,

3. ``scalar_curvature_coordinate_oracle`` rebuilds the metric in the plain
   coordinate basis over ``(x, f, a)`` -- no frames, no structure
   constants -- and applies the standard coordinate formulas.

Every derivative here comes from the stencil kernel of ``fields``, and
every second derivative from one nested stencil: the centre-first inner
stencils of the 21 rows of an outer one, with the steps that
``_nested_stencil`` alone sets. A point's ``PointTerms`` holds two
``connection.HorizontalJet`` records, each with its inverses, the
Levi-Civita symbols of h~, ``F``, ``D d`` and structure functions
computed once: the point's own, on its first-derivative stencil, and
the nested one, at the 21 outer rows of the nested stencil, which reads
the frames of its 441 rows in one call. Every
second-order term of a point reads that one nested jet: ``R_M`` is the
coordinate Ricci scalar of its Levi-Civita symbols, both Ricci pairs
difference their Christoffel symbols on its rows, and
``log_density_terms`` takes ``ln det d`` from its values of d. The
frame-free ``coordinate_ricci_scalar`` of the oracle evaluates its
metric on the whole nested stencil as one coordinate stack, on which
the oracle evaluates ``oracle_metric`` in one call, and shares the
Ricci contraction and the outer differencing with ``R_M``.

``PointTerms`` is the library's one per-point record; on bundle data it
also holds the Killing entries that ``jacobian`` reads.

The sign conventions are the ones the Christoffel formula and the Ricci
display above imply; they are internally consistent and are never adjusted
to match external references (the round two-sphere comes out negative
here). The overall sign of the group-direction rule is the fixed
convention ``liecore.RULE_SIGN``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, _blockdiag,
                     _distinct_rows, _eval_stack, _levi_civita, _richardson,
                     _stencil, _stencil_partials, invert_spd)
from .geometry import (AdaptedGeometry, OriginalGeometry, check_frames,
                       frames_at, killing_derivatives, section_partials)
from .liecore import orbit_scalar_curvature
from .connection import (christoffel_general, christoffel_table,
                         frame_derivatives, horizontal_jet)

__all__ = [
    "CurvatureBreakdown",
    "PointTerms",
    "ricci_scalar_pair",
    "log_density_terms",
    "ff_term",
    "dddd_term",
    "decomposition_terms",
    "coordinate_ricci_scalar",
    "oracle_metric",
    "scalar_curvature_coordinate_oracle",
]

_GAMMA_SIGNATURE = ("upper", "lower", "lower")

_NestedStencil = namedtuple("_NestedStencil",
                            "rows steps inner_rows inner_steps")


def _nested_stencil(z0, engine) -> _NestedStencil:
    """The two layers of every nested second difference at ``z0``.

    Returns ``(rows, steps, inner_rows, inner_steps)``: the 21
    centre-first ``rows`` of the outer stencil over every coordinate of
    ``z0`` with their ``steps``, and the centre-first inner stencils of
    those rows, their ``(21, 21, k)`` rows with their steps. The inner
    step is ``min(10 fd_step, 9e-3)``, the outer one ten times it. Every
    field this module differentiates twice is exact linear algebra of
    closed-form inputs, so the wider steps cost no meaningful truncation:
    the inner layer leaves rounding noise of order eps/h ~ 1e-12, the
    outer division amplifies it only to ~1e-9, and Richardson
    extrapolation keeps the truncation error of both far below either.
    """
    inner_step = min(10.0 * engine.fd_step, 9e-3)
    rows, steps = _stencil(np.asarray(z0, dtype=float)[None],
                           inner_step * 10.0, centre=True)
    return _NestedStencil(rows[0], steps,
                          *_stencil(rows[0], inner_step, centre=True))


@dataclass(frozen=True)
class CurvatureBreakdown:
    r"""The scalar curvature split into its closed-form pieces.

    ``R_total = R_M + R_G + FF + DdDd + lap_ln_d + grad_ln_d`` by
    construction; the content of the decomposition is that this sum equals
    the frame Ricci contraction, which the verification layer checks.
    """

    R_M: float
    R_G: float
    FF: float
    DdDd: float
    lap_ln_d: float
    grad_ln_d: float
    R_total: float


def _ricci_from_pieces(gamma0, hat, cc, k):
    """The frame Ricci tensor, internal indices over the first ``k``.

    ``gamma0`` holds the symbols at the point and ``hat[A, D, B, C]``
    their derivatives along direction ``A``. ``cc`` is None for a
    holonomic frame: the structure-function term is then left out, not
    added as zeros, which could flip the sign of a zero entry.
    """
    s = slice(0, k)
    t1 = np.einsum("abbc->ac", hat[:, s, s])
    t2 = np.einsum("bbac->ac", hat[s, s])
    t3 = np.einsum("dbc,bad->ac", gamma0[s, s], gamma0[s, :, s])
    t4 = np.einsum("lac,bbl->ac", gamma0[s], gamma0[s, s, s])
    ricci = t1 - t2 + t3 - t4
    if cc is None:
        return ricci
    return ricci - np.einsum("eab,bec->ac", cc[s, :, s], gamma0[s, s])


def ricci_scalar_pair(terms: PointTerms, christoffel=christoffel_table):
    r"""Total-space and orbit-space scalar curvatures from one derivative pass.

    Returns ``(R_total_space, R_orbit_space)`` at the point of ``terms``.
    The first contracts the all-internal Ricci with blockdiag(h~^{-1},
    d^{-1}); the second keeps only horizontal internal indices and
    contracts the horizontal block with h~^{-1}. Sharing the
    frame-derivative array between the two keeps their FD noise
    correlated, which the difference formulas rely on.

    ``christoffel`` is the Christoffel route, ``christoffel_table`` or
    ``christoffel_general``. It is called once, on the nested jet of
    ``terms``: the 21 centre-first outer rows of the nested stencil, the
    point and its 20 shifted rows, which read the frames of that
    stencil's 441 rows. Row 0 gives the symbols at the point, the outer
    differences of the others their partials; the frame derivatives
    correct those with the connection of the point's own jet, and the
    structure functions are that jet's ``CC``.
    """
    adapted = terms.adapted
    gammas = christoffel(terms.nested_jet)
    hat = frame_derivatives(
        gammas[:1], _stencil_partials(gammas[None], terms.nested.steps),
        terms.jet.A, _GAMMA_SIGNATURE, adapted.c)
    gamma0, hat, cc = gammas[0], hat[0], terms.jet.CC[0]
    n_h, n_t = adapted.n_h, adapted.n_t
    g_inv = _blockdiag(terms.h_inv, terms.d_inv)

    # internal indices: all of them, or the horizontal ones only
    full = _ricci_from_pieces(gamma0, hat, cc, n_t)
    base = _ricci_from_pieces(gamma0, hat, cc, n_h)
    r_total = float(np.einsum("ac,ac->", g_inv, full))
    r_base = float(np.einsum("ac,ac->", terms.h_inv, base[:n_h, :n_h]))
    return r_total, r_base


def log_density_terms(terms: PointTerms):
    r"""Horizontal Laplacian and quarter-squared-gradient of ``ln det d``.

    Returns ``(lap_ln_d, grad_ln_d)`` at the point of ``terms``, where the
    Laplacian is the orbit-space one, ``h~^{A'B'}(\partial\partial -
    \Gamma^{C'}\partial)``, and the gradient term carries its quarter
    factor; the symbols come from the point's jet.

    ``ln det d`` is taken once, by ``slogdet`` of the nested jet's values
    of d on all its 441 stencil rows: its values and inner partials at
    the 21 centre-first outer rows of the nested stencil. The gradient is
    the inner partial at the point, the off-diagonal Hessian the outer
    differences of the inner partials, and the diagonal the second
    difference ``(v(+H) - 2 v(0) + v(-H))/H^2`` of the outer rows'
    values, Richardson-extrapolated like every stencil.
    """
    n_h = terms.adapted.n_h
    nested_jet, outer_steps = terms.nested_jet, terms.nested.steps
    # slogdet, not the log of the frame's eigenvalue-product det_d: the
    # latter made the Jacobian and curvature residuals 3.6-5.7x worse
    sign, log_det = np.linalg.slogdet(nested_jet.d_rows)
    if (sign <= 0).any():
        raise ValueError("orbit metric lost positivity; log det undefined")
    values = log_det[:, 0]
    partials = _stencil_partials(log_det, nested_jet.steps)
    grad = partials[0]
    hess = _stencil_partials(partials[None], outer_steps)[0]
    axis = values[1:].reshape(n_h, -1, 2)               # [slot, step, +/-]
    steps = outer_steps[0].T                            # [slot, step]
    # a diagonal from nested first differences instead made the
    # scaled_orbit Jacobian about 4x noisier
    second = (axis[..., 0] - 2.0 * values[0] + axis[..., 1]) / (steps * steps)
    np.fill_diagonal(hess, _richardson(second.T))
    h_inv = terms.h_inv
    lc = terms.jet.lc[0]
    lap = float(np.einsum("ab,ab->", h_inv, hess)
                - np.einsum("ab,cab,c->", h_inv, lc, grad))
    grad_sq = 0.25 * float(np.einsum("ab,a,b->", h_inv, grad, grad))
    return lap, grad_sq


def ff_term(h_inv, d_val, f_val) -> float:
    r"""Connection-curvature term
    :math:`\tfrac14 \tilde h^{AB}\tilde h^{CD} d_{\mu\nu}
    \mathcal F^\mu_{AC}\mathcal F^\nu_{BD}`."""
    return 0.25 * float(np.einsum("ab,cd,mn,mac,nbd->", h_inv, h_inv, d_val,
                                  f_val, f_val))


def dddd_term(h_inv, d_inv, dd) -> float:
    r"""Covariant-derivative term
    :math:`\tfrac14 \tilde h^{AB} d^{\mu\sigma} d^{\nu\kappa}
    \mathcal D_A d_{\mu\nu}\mathcal D_B d_{\sigma\kappa}`."""
    return 0.25 * float(np.einsum("ab,ms,nk,amn,bsk->", h_inv, d_inv, d_inv,
                                  dd, dd))


def _frozen(value):
    value = np.asarray(value, dtype=float)
    value.setflags(write=False)
    return value


def _breakdown(t) -> CurvatureBreakdown:
    lap, grad_sq = t.log_density
    return CurvatureBreakdown(t.R_M, t.R_G, t.FF, t.DdDd, lap, grad_sq,
                              t.R_M + t.R_G + t.FF + t.DdDd + lap + grad_sq)


class PointTerms:
    r"""The one record of a chart point, each entry computed on first read.

    An entry (a key of ``_ENTRIES``) is computed from ``adapted``,
    ``point`` and ``engine`` when first read, and kept. The record owns
    the frames of the point: ``stencil``, the ``(rows, steps)`` of the
    point's centre-first first-derivative stencil over every chart slot
    at the engine's step, whose row 0 is the point; ``stack``, the record
    of the one ``adapted.frames`` call on its 21 rows (on bundle data the
    ``FrameStack``, whose row 0 the bundle-side formulas read at the
    point); and ``frames``, its seven arrays as ``geometry.check_frames``
    passes them, shaped like the stencil rows. ``jet`` is the point's
    ``HorizontalJet`` on that stencil, and its row 0 gives the metrics
    ``h_tilde`` and ``d``, their inverses ``h_inv`` and ``d_inv``, and
    ``F`` and ``Dd`` at the point; ``nested`` is the stencil of
    ``_nested_stencil``, and ``nested_jet`` the jet at its outer rows,
    from one ``frames_at`` read of its 441 inner rows, from which
    ``R_M``, ``log_density`` and both Ricci pairs take every second
    derivative; then the pieces of the decomposition (``log_density`` is
    the pair of ``log_density_terms``) and ``breakdown``, their one sum;
    and the Ricci pair of each Christoffel route, which share the two
    jets and nothing computed from them. On bundle data, ``section`` is
    the ``geometry.section_partials`` row at the section point, row 0 of
    the ``stack``, and ``killing`` the ``geometry.killing_derivatives``
    pair there, symmetrized once. The record takes no assignment and its
    arrays are read-only.
    """

    _ENTRIES = {
        "stencil": lambda t: _stencil(t.point.coords[None], t.engine.fd_step,
                                      centre=True),
        "stack": lambda t: t.adapted.frames(t.stencil[0][0]),
        "frames": lambda t: check_frames(t.adapted, t.stencil[0], t.stack),
        "jet": lambda t: horizontal_jet(t.adapted, *t.stencil, t.frames),
        "h_tilde": lambda t: t.jet.h[0],
        "h_inv": lambda t: t.jet.h_inv[0],
        "d": lambda t: t.jet.d[0],
        "d_inv": lambda t: t.jet.d_inv[0],
        "F": lambda t: t.jet.F[0],
        "Dd": lambda t: t.jet.Dd[0],
        "nested": lambda t: _nested_stencil(t.point.coords, t.engine),
        "nested_jet": lambda t: horizontal_jet(
            t.adapted, t.nested.inner_rows, t.nested.inner_steps,
            frames_at(t.adapted, t.nested.inner_rows)),
        "R_M": lambda t: _coordinate_ricci(t.nested_jet.lc, t.nested.steps,
                                           t.nested_jet.h_inv[0]),
        "R_G": lambda t: orbit_scalar_curvature(t.adapted.c, t.d, t.d_inv),
        "FF": lambda t: ff_term(t.h_inv, t.d, t.F),
        "DdDd": lambda t: dddd_term(t.h_inv, t.d_inv, t.Dd),
        "log_density": lambda t: log_density_terms(t),
        "pair_table": lambda t: ricci_scalar_pair(t, christoffel_table),
        "pair_general": lambda t: ricci_scalar_pair(t, christoffel_general),
        "breakdown": _breakdown,
        "section": lambda t: tuple(
            partials[0] for partials in section_partials(
                t.adapted.orig, t.stack.Q[:1], t.engine.fd_step)),
        "killing": lambda t: tuple(
            _frozen(0.5 * (part + part.swapaxes(1, 2)))
            for part in killing_derivatives(t.adapted.orig, t.section,
                                            t.stack.K_P[0],
                                            t.stack.G_P_inv[0], t.point.f)),
    }

    def __init__(self, adapted: AdaptedGeometry, point: ChartPoint,
                 engine: DerivEngine = DEFAULT_ENGINE):
        self.__dict__.update(adapted=adapted, point=point, engine=engine)

    def __getattr__(self, name):
        if name not in self._ENTRIES:
            raise AttributeError(name)
        value = self.__dict__[name] = self._ENTRIES[name](self)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("PointTerms is read-only")


def _terms_at(adapted, point, engine, terms):
    """``terms``, checked to belong to ``adapted``, ``point`` and
    ``engine``; a new record there when ``terms`` is None."""
    if terms is None:
        return PointTerms(adapted, point, engine)
    if (terms.adapted is not adapted or terms.point is not point
            or terms.engine != engine):
        raise ValueError("terms belong to another geometry, point or "
                         "engine")
    return terms


def decomposition_terms(adapted: AdaptedGeometry, point: ChartPoint,
                        engine: DerivEngine = DEFAULT_ENGINE,
                        terms: PointTerms = None) -> CurvatureBreakdown:
    r"""The five-piece decomposition of the total scalar curvature.

    ``R_M`` is the scalar curvature of h~ on the honest ``(x, f)`` chart by
    the plain coordinate formula, from the Levi-Civita symbols of the
    nested jet; ``R_G`` the closed-form orbit curvature;
    ``FF`` the quarter-contraction of the connection curvature; ``DdDd``
    the quarter-contraction of the covariant derivative of ``d``; the last
    two are the horizontal Laplacian and squared gradient of
    ``ln det d``. ``R_total`` is their sum, definitionally.

    The nested jet reads the frames once, on the whole nested stencil,
    the point itself included; on compiled bundle data that is one frame
    compile. ``terms``, the ``PointTerms`` of the same arguments, holds
    pieces already computed.
    """
    return _terms_at(adapted, point, engine, terms).breakdown


def coordinate_ricci_scalar(metric, z0,
                            engine: DerivEngine = DEFAULT_ENGINE) -> float:
    r"""Scalar curvature of a metric field by the plain coordinate formulas.

    ``metric`` maps an ``(N, k)`` stack of coordinate vectors to the
    ``(N, n, n)`` stack of SPD matrices there; it is called once, on the
    whole nested stencil of ``_nested_stencil`` at ``engine``. Levi-Civita
    symbols come from first differences of the metric at the inner step,
    the Ricci tensor from differences of the symbols at the outer step,
    and the scalar from the inverse-metric contraction. Both layers run
    on the stencil kernel of ``fields``, with the centre rows kept; the
    outer differences and the contraction are those of ``R_M``. A
    non-finite metric value anywhere on the stencil raises
    ``EvaluationError``. This is the completely frame-free evaluation path
    used by every oracle comparison.
    """
    nested = _nested_stencil(z0, engine)
    inner = nested.inner_rows
    values = _eval_stack(metric, inner.reshape(-1, inner.shape[-1]),
                         "metric")
    values = values.reshape(inner.shape[:2] + values.shape[1:])

    # Levi-Civita symbols at every outer row at once, the point first
    g_inv, _ = invert_spd(values[:, 0])
    gammas = _levi_civita(g_inv, _stencil_partials(values,
                                                   nested.inner_steps))
    return _coordinate_ricci(gammas, nested.steps, g_inv[0])


def _coordinate_ricci(gammas, steps, g_inv) -> float:
    """The scalar curvature of a holonomic frame from its Levi-Civita
    symbols ``gammas`` at the centre-first outer rows of a nested stencil
    with outer ``steps``, contracted with the inverse metric ``g_inv`` at
    the point."""
    dgamma = _stencil_partials(gammas[None], steps)[0]   # dgamma[A, D, B, C]
    ricci = _ricci_from_pieces(gammas[0], dgamma, None, len(g_inv))
    return float(np.einsum("ac,ac->", g_inv, ricci))


def oracle_metric(orig: OriginalGeometry, x, f, a) -> np.ndarray:
    r"""Total-space metric in the coordinate basis at the rows of
    ``(x, f, a)``.

    ``x``, ``f`` and ``a`` are ``(N, n_x)``, ``(N, n_v)`` and ``(N, n_g)``
    stacks; returns the ``(N, n_t, n_t)`` stack of metrics. Each callable
    runs once: ``right_translate`` and its Jacobian on the whole stack,
    ``G_P`` on the distinct translated points, and the vector-sector
    action and its derivatives on the distinct rows of ``a``, their
    values gathered back to every row. Honest pullback: the
    chart map sends ``(x, f, a)`` to the bundle point (group-translated
    section point, represented vector), and the metric is the Jacobian
    congruence of blockdiag(G_P, G_V). Exact closed form -- the Jacobian
    is analytic, so oracle derivatives carry no hidden FD noise beyond
    their own stencils.
    """
    if orig.right_translate is None or orig.vspace_action is None:
        raise ValueError("geometry supplies no group-chart action; "
                         "coordinate oracle unavailable")
    f = np.asarray(f, dtype=float)
    n_P, n_v, n_x = orig.n_P, orig.n_v, orig.n_x
    n_t = n_x + n_v + orig.n_g

    q_rows, _, at_q = _distinct_rows(orig.right_translate(x, a))
    g_p = orig.G_P(q_rows)[at_q]
    dq = orig.right_translate_jac(x, a)
    a_rows, _, at_a = _distinct_rows(a)
    dbar = orig.vspace_action(a_rows)[at_a]
    dvec = orig.vspace_action_d(a_rows)[at_a]

    jac = np.zeros((len(f), n_P + n_v, n_t))
    jac[:, :n_P, :n_x] = dq[:, :, :n_x]
    jac[:, :n_P, n_x + n_v:] = dq[:, :, n_x:]
    jac[:, n_P:, n_x:n_x + n_v] = dbar
    # column g of the vector rows is dvec[g] @ f
    jac[:, n_P:, n_x + n_v:] = (dvec @ f[:, None, :, None])[..., 0] \
        .swapaxes(1, 2)

    return jac.swapaxes(1, 2) @ _blockdiag(g_p, orig.G_V) @ jac


def scalar_curvature_coordinate_oracle(orig: OriginalGeometry, chart, x, f,
                                       a, engine: DerivEngine = DEFAULT_ENGINE
                                       ) -> float:
    """Scalar curvature at ``(x, f, a)`` through the coordinate basis only.

    ``chart`` is unread; it stays only because the benchmark harness
    passes ``scenario.chart``, which is always None. The metric comes from
    the geometry's group action, and its value must be independent of
    ``a``, which tests assert separately.

    The metric here is an analytic closed form, so it runs on the widened
    steps of the nested stencil (see ``coordinate_ricci_scalar``), which
    keep the rounding noise of the nested second differences well under
    the oracle's comparison budget. ``oracle_metric`` is called once, on the
    whole nested stencil: 1,089 rows for the eight coordinates of the
    built-in scenarios, holding 441 distinct ``(x, a)`` and 169 distinct
    ``a``.
    """
    n_x, n_v = orig.n_x, orig.n_v

    def metric_stack(zs):
        return oracle_metric(orig, zs[:, :n_x], zs[:, n_x:n_x + n_v],
                             zs[:, n_x + n_v:])

    z0 = np.concatenate([np.asarray(x, dtype=float),
                         np.asarray(f, dtype=float),
                         np.asarray(a, dtype=float)])
    return coordinate_ricci_scalar(metric_stack, z0, engine)

