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
every second derivative of the frame routes from one nested stencil
per point: the centre-first inner stencils of the 21 rows of an outer
one, with the steps that ``_nested_stencil`` alone sets. ``PointTerms``
is the record of a stack of ``B`` chart points, and holds two
``connection.HorizontalJet`` records, each with its inverses, the
Levi-Civita symbols of h~, ``F``, ``D d`` and structure functions
computed once: the points' own, one row per point, on the first-derivative
stencils of all the points, whose frames one call compiles (``21 B``
rows), and the nested one, at the 21 outer rows of each point's nested
stencil, which reads the frames of that point's 441 rows in one call of
its own. Every second-order term reads that one nested jet: ``R_M`` is
the coordinate Ricci scalar of its Levi-Civita symbols, both Ricci pairs
difference their Christoffel symbols on its rows, and
``log_density_terms`` takes ``ln det d`` from its values of d. Each
entry and each function of a record holds or returns one value per
point, and a point's values are those of its one-point record, bit for
bit: every contraction runs matrix by matrix along the leading point
axis. The frame-free ``coordinate_ricci_scalar`` of the oracle takes
no nested stencil: it evaluates its metric once, on the ``1 + 4 k^2``
rows of the second-difference stencil ``fields._pair_stencil`` at the
point (one ``oracle_metric`` call), and differentiates the symbols
analytically from the metric's first and second partials there. It
shares with ``R_M`` only the Ricci contraction of a holonomic frame.

``PointTerms`` is the library's one point record; on bundle data it
also holds the section and Killing entries that ``jacobian`` reads.
Every route to a per-point quantity, here and in ``jacobian`` and
``sde``, takes a record and returns one leading entry per point; the
decomposition and both faces of the reduction Jacobian are entries of
the record itself. ``decomposition_terms`` is the one-point read of a
fresh one-point record. A stack's second-order entries hold every
point's nested jet and run the Christoffel routes on all their rows at
once, so memory grows with the stack; the checks read them point by
point, on ``PointTerms.single``.

The sign conventions are the ones the Christoffel formula and the Ricci
display above imply; they are internally consistent and are never adjusted
to match external references (the round two-sphere comes out negative
here). The overall sign of the group-direction rule is the fixed
convention ``liecore.RULE_SIGN``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, _blockdiag,
                     _distinct_rows, _eval_stack, _levi_civita, _pair_partials,
                     _pair_stencil, _richardson, _stencil, _stencil_partials,
                     invert_spd)
from .geometry import (AdaptedFrames, AdaptedGeometry, FrameStack,
                       OriginalGeometry, check_frames, frames_at,
                       killing_derivatives, section_partials)
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


def _nested_stencil(zs, engine) -> _NestedStencil:
    """The two layers of every nested second difference of the frame
    routes at ``zs``.

    ``zs`` is one coordinate vector or an ``(m, k)`` stack of them.
    Returns ``(rows, steps, inner_rows, inner_steps)``: the 21
    centre-first ``rows`` of the outer stencil over every coordinate of
    each vector, ``(..., 21, k)`` with the leading shape of ``zs``, with
    their ``(m, 2, k)`` ``steps``, and the centre-first inner stencils of
    all those rows, their ``(21 m, 21, k)`` rows with their steps, point
    after point. The nested jet of ``PointTerms`` reads it; the oracle's
    ``coordinate_ricci_scalar`` differences its metric on
    ``fields._pair_stencil`` instead. The inner step is ``min(10
    fd_step, 9e-3)``, the outer one ten times it. Every field
    differentiated on it is exact linear algebra of closed-form inputs,
    so the wider steps cost no meaningful truncation: the inner layer
    leaves rounding noise of order eps/h ~ 1e-12, the outer division
    amplifies it only to ~1e-9, and Richardson extrapolation keeps the
    truncation error of both far below either.
    """
    zs = np.asarray(zs, dtype=float)
    k = zs.shape[-1]
    inner_step = min(10.0 * engine.fd_step, 9e-3)
    rows, steps = _stencil(zs.reshape(-1, k), inner_step * 10.0, centre=True)
    return _NestedStencil(rows.reshape(zs.shape[:-1] + rows.shape[1:]),
                          steps, *_stencil(rows.reshape(-1, k), inner_step,
                                           centre=True))


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
    their derivatives along direction ``A``, each with any leading axes
    (one per point of a stack), which the result keeps. ``cc`` is None
    for a holonomic frame: the structure-function term is then left out,
    not added as zeros, which could flip the sign of a zero entry.
    """
    s = slice(0, k)
    t1 = np.einsum("...abbc->...ac", hat[..., s, s, :])
    t2 = np.einsum("...bbac->...ac", hat[..., s, s, :, :])
    t3 = np.einsum("...dbc,...bad->...ac", gamma0[..., s, s, :],
                   gamma0[..., s, :, s])
    t4 = np.einsum("...lac,...bbl->...ac", gamma0[..., s, :, :],
                   gamma0[..., s, s, s])
    ricci = t1 - t2 + t3 - t4
    if cc is None:
        return ricci
    return ricci - np.einsum("...eab,...bec->...ac", cc[..., s, :, s],
                             gamma0[..., s, s, :])


def _per_point(terms, array):
    """``array``, a stack over the outer rows of the nested stencils of
    the points of ``terms``, point after point, with its point axis split
    out: ``(B, 21, ...)``."""
    return array.reshape((len(terms.points), -1) + array.shape[1:])


def ricci_scalar_pair(terms: PointTerms, christoffel=christoffel_table):
    r"""Total-space and orbit-space scalar curvatures from one derivative pass.

    Returns ``(R_total_space, R_orbit_space)``, each a ``(B,)`` array
    over the points of ``terms``. The first contracts the all-internal
    Ricci with blockdiag(h~^{-1}, d^{-1}); the second keeps only
    horizontal internal indices and contracts the horizontal block with
    h~^{-1}. Sharing the frame-derivative array between the two keeps
    their FD noise correlated, which the difference formulas rely on.

    ``christoffel`` is the Christoffel route, ``christoffel_table`` or
    ``christoffel_general``. It is called once, on the nested jet of
    ``terms``: the 21 centre-first outer rows of each point's nested
    stencil, the point and its 20 shifted rows, which read the frames of
    that stencil's 441 rows. Row 0 of a point gives the symbols there,
    the outer differences of the others their partials; the frame
    derivatives correct those with the connection of the points' own
    jet, and the structure functions are that jet's ``CC``.
    """
    adapted = terms.adapted
    gammas = _per_point(terms, christoffel(terms.nested_jet))
    gamma0 = gammas[:, 0]
    hat = frame_derivatives(
        gamma0, _stencil_partials(gammas, terms.nested.steps),
        terms.jet.A, _GAMMA_SIGNATURE, adapted.c)
    cc = terms.jet.CC
    n_h, n_t = adapted.n_h, adapted.n_t
    g_inv = _blockdiag(terms.h_inv, terms.d_inv)

    # internal indices: all of them, or the horizontal ones only
    full = _ricci_from_pieces(gamma0, hat, cc, n_t)
    base = _ricci_from_pieces(gamma0, hat, cc, n_h)
    r_total = np.einsum("...ac,...ac->...", g_inv, full)
    r_base = np.einsum("...ac,...ac->...", terms.h_inv,
                       base[..., :n_h, :n_h])
    return _frozen(r_total), _frozen(r_base)


def log_density_terms(terms: PointTerms):
    r"""Horizontal Laplacian and quarter-squared-gradient of ``ln det d``.

    Returns ``(lap_ln_d, grad_ln_d)``, each a ``(B,)`` array over the
    points of ``terms``, where the Laplacian is the orbit-space one,
    ``h~^{A'B'}(\partial\partial - \Gamma^{C'}\partial)``, and the
    gradient term carries its quarter factor; the symbols come from the
    points' jet.

    ``ln det d`` is taken once, by ``slogdet`` of the nested jet's values
    of d on all its stencil rows, 441 per point: its values and inner
    partials at the 21 centre-first outer rows of each point's nested
    stencil. The gradient is the inner partial at the point, the
    off-diagonal Hessian the outer differences of the inner partials, and
    the diagonal the second difference ``(v(+H) - 2 v(0) + v(-H))/H^2``
    of the outer rows' values, Richardson-extrapolated like every
    stencil.
    """
    n_h = terms.adapted.n_h
    nested_jet, outer_steps = terms.nested_jet, terms.nested.steps
    # slogdet, not the log of the frame's eigenvalue-product det_d: the
    # latter made the Jacobian and curvature residuals 3.6-5.7x worse
    sign, log_det = np.linalg.slogdet(nested_jet.d_rows)
    if (sign <= 0).any():
        raise ValueError("orbit metric lost positivity; log det undefined")
    values = _per_point(terms, log_det[:, 0])
    partials = _per_point(terms, _stencil_partials(log_det,
                                                   nested_jet.steps))
    grad = partials[:, 0]
    hess = _stencil_partials(partials, outer_steps)
    # [point, slot, step, +/-] and [point, slot, step]
    axis = values[:, 1:].reshape(len(values), n_h, -1, 2)
    steps = outer_steps.swapaxes(1, 2)
    # a diagonal from nested first differences instead made the
    # scaled_orbit Jacobian about 4x noisier
    second = ((axis[..., 0] - 2.0 * values[:, :1, None] + axis[..., 1])
              / (steps * steps))
    diagonal = np.arange(n_h)
    hess[:, diagonal, diagonal] = _richardson(np.moveaxis(second, -1, 0))
    h_inv = terms.h_inv
    lc = terms.jet.lc
    lap = (np.einsum("...ab,...ab->...", h_inv, hess)
           - np.einsum("...ab,...cab,...c->...", h_inv, lc, grad))
    grad_sq = 0.25 * np.einsum("...ab,...a,...b->...", h_inv, grad, grad)
    return _frozen(lap), _frozen(grad_sq)


def ff_term(h_inv, d_val, f_val):
    r"""Connection-curvature term
    :math:`\tfrac14 \tilde h^{AB}\tilde h^{CD} d_{\mu\nu}
    \mathcal F^\mu_{AC}\mathcal F^\nu_{BD}`, at one point or at each
    point of a stack."""
    return 0.25 * np.einsum("...ab,...cd,...mn,...mac,...nbd->...", h_inv,
                            h_inv, d_val, f_val, f_val)


def dddd_term(h_inv, d_inv, dd):
    r"""Covariant-derivative term
    :math:`\tfrac14 \tilde h^{AB} d^{\mu\sigma} d^{\nu\kappa}
    \mathcal D_A d_{\mu\nu}\mathcal D_B d_{\sigma\kappa}`, at one
    point or at each point of a stack."""
    return 0.25 * np.einsum("...ab,...ms,...nk,...amn,...bsk->...", h_inv,
                            d_inv, d_inv, dd, dd)


def _frozen(value):
    value = np.asarray(value, dtype=float)
    value.setflags(write=False)
    return value


def _breakdowns(t):
    """The ``CurvatureBreakdown`` of each point of the record ``t``."""
    lap, grad_sq = t.log_density
    pieces = (t.R_M, t.R_G, t.FF, t.DdDd, lap, grad_sq)
    return tuple(
        CurvatureBreakdown(r_m, r_g, ff, dddd, lap, grad,
                           r_m + r_g + ff + dddd + lap + grad)
        for r_m, r_g, ff, dddd, lap, grad in zip(*(
            np.asarray(piece).tolist() for piece in pieces)))


def _nested_jet(t):
    """The jet at the outer rows of every point's nested stencil, point
    after point, from one ``frames_at`` read of each point's 441 inner
    rows."""
    inner = t.nested.inner_rows
    reads = [frames_at(t.adapted, rows) for rows in _per_point(t, inner)]
    # one point's read is already the stack: copying it costs a tenth
    # of a millisecond
    frames = reads[0] if len(reads) == 1 else AdaptedFrames._make(
        np.concatenate(arrays) for arrays in zip(*reads))
    return horizontal_jet(t.adapted, inner, t.nested.inner_steps, frames)


def _killing(t):
    """The symmetrized Killing derivatives at every point's section
    point, stacked: one ``killing_derivatives`` call per section point,
    so that the Levi-Civita symbols of ``G_P`` are contracted with one
    ``(n_P, n_P)`` inverse at a time."""
    at = t.at_points
    pairs = [killing_derivatives(t.adapted.orig,
                                 tuple(part[i] for part in t.section),
                                 at.K_P[i], at.G_P_inv[i], point.f)
             for i, point in enumerate(t.points)]
    return tuple(_frozen(0.5 * (part + part.swapaxes(-1, -2)))
                 for part in map(np.stack, zip(*pairs)))


class PointTerms:
    r"""The one record of a stack of chart points, each entry computed on
    first read.

    ``points`` is the tuple of the record's ``B`` chart points (one
    ``ChartPoint`` given alone makes a one-point stack). An entry (a key
    of ``_ENTRIES``) is computed from ``adapted``, ``points`` and
    ``engine`` when first read, and kept; it holds one leading entry per
    point, in order. ``coords`` holds the ``(B, n_x + n_v)`` chart
    coordinates. The record owns the frames of the points: ``stencil``,
    the ``(rows, steps)`` of the centre-first first-derivative stencils
    over every chart slot at the engine's step, ``(B, 21, n_x + n_v)``
    rows whose row 0 is the point; ``stack``, the record of the one
    ``adapted.frames`` call on all ``21 B`` rows, point after point (on
    bundle data the ``FrameStack``); ``frames``, its seven arrays as
    ``geometry.check_frames`` passes them, shaped like the stencil rows;
    and on bundle data ``at_points``, the ``FrameStack`` of the stack's
    rows at the points, which the bundle-side formulas read. ``jet`` is
    the ``HorizontalJet`` on those stencils, one row per point, and
    gives the metrics ``h_tilde`` and ``d``, their inverses ``h_inv``
    and ``d_inv``, and ``F`` and ``Dd`` at the points.

    ``nested`` is the stencil of ``_nested_stencil`` at every point, and
    ``nested_jet`` the jet at its ``21 B`` outer rows, from one
    ``frames_at`` read of each point's 441 inner rows: the nested compile
    stays one per point, so that its memory does not grow with the
    stack. ``R_M``, ``log_density`` and both Ricci pairs take every
    second derivative from it; then come the pieces of the decomposition
    (``log_density`` is the pair of ``log_density_terms``) and
    ``breakdown``, the ``CurvatureBreakdown`` of each point, and the
    Ricci pair of each Christoffel route, which share the two jets and
    nothing computed from them. ``J_direct`` and ``J_geometric`` are the
    two faces of the reduction Jacobian (see ``jacobian``): the sum of
    the log-density terms, and the table route's pair difference less
    ``R_G``, ``FF`` and ``DdDd``, whose shared derivative pass lets the
    FD noise of the two scalar curvatures largely cancel. On bundle
    data, ``section`` is the
    ``geometry.section_partials`` of the one stencil over the points'
    section points, and ``killing`` the ``geometry.killing_derivatives``
    pair at each, symmetrized once. A point's entries are those of its
    one-point record, bit for bit. ``single(i)`` is the one-point record
    of point ``i`` that shares this record's first-order rows, on which
    a caller reads the second-order entries one point at a time. The
    record takes no assignment and its arrays are read-only.
    """

    _ENTRIES = {
        "coords": lambda t: _frozen([point.coords for point in t.points]),
        "stencil": lambda t: _stencil(t.coords, t.engine.fd_step,
                                      centre=True),
        "stack": lambda t: t.adapted.frames(
            t.stencil[0].reshape(-1, t.coords.shape[1])),
        "frames": lambda t: check_frames(t.adapted, t.stencil[0], t.stack),
        "at_points": lambda t: FrameStack(**{
            name: array[::t.stencil[0].shape[1]]
            for name, array in vars(t.stack).items()}),
        "jet": lambda t: horizontal_jet(t.adapted, *t.stencil, t.frames),
        "h_tilde": lambda t: t.jet.h,
        "h_inv": lambda t: t.jet.h_inv,
        "d": lambda t: t.jet.d,
        "d_inv": lambda t: t.jet.d_inv,
        "F": lambda t: t.jet.F,
        "Dd": lambda t: t.jet.Dd,
        "nested": lambda t: _nested_stencil(t.coords, t.engine),
        "nested_jet": _nested_jet,
        "R_M": lambda t: _frozen(_coordinate_ricci(
            _per_point(t, t.nested_jet.lc), t.nested.steps,
            _per_point(t, t.nested_jet.h_inv)[:, 0])),
        "R_G": lambda t: _frozen(orbit_scalar_curvature(t.adapted.c, t.d,
                                                        t.d_inv)),
        "FF": lambda t: _frozen(ff_term(t.h_inv, t.d, t.F)),
        "DdDd": lambda t: _frozen(dddd_term(t.h_inv, t.d_inv, t.Dd)),
        "log_density": lambda t: log_density_terms(t),
        "pair_table": lambda t: ricci_scalar_pair(t, christoffel_table),
        "pair_general": lambda t: ricci_scalar_pair(t, christoffel_general),
        "breakdown": _breakdowns,
        "J_direct": lambda t: _frozen(t.log_density[0] + t.log_density[1]),
        "J_geometric": lambda t: _frozen(
            t.pair_table[0] - t.pair_table[1] - t.R_G - t.FF - t.DdDd),
        "section": lambda t: section_partials(
            t.adapted.orig, t.at_points.Q, t.engine.fd_step),
        "killing": _killing,
    }

    def __init__(self, adapted: AdaptedGeometry, points,
                 engine: DerivEngine = DEFAULT_ENGINE):
        points = ((points,) if isinstance(points, ChartPoint)
                  else tuple(points))
        if not points:
            raise ValueError("a record needs at least one point")
        for i, point in enumerate(points):
            if (point.n_x, point.n_v) != (adapted.n_x, adapted.n_v):
                raise ValueError(
                    "point %d has n_x = %d and n_v = %d; the geometry has "
                    "n_x = %d and n_v = %d" % (i, point.n_x, point.n_v,
                                               adapted.n_x, adapted.n_v))
        self.__dict__.update(adapted=adapted, points=points, engine=engine)

    def __getattr__(self, name):
        if name not in self._ENTRIES:
            raise AttributeError(name)
        value = self.__dict__[name] = self._ENTRIES[name](self)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("PointTerms is read-only")

    def single(self, i):
        """The one-point record of point ``i`` (a negative ``i`` counts
        from the end, as in ``points``), whose ``jet``, ``R_G``,
        ``FF`` and ``DdDd`` are row ``i`` of this record's, bit for bit
        those of a one-point record: its second-order entries are
        computed on it and dropped with it, so that a caller going point
        by point holds one point's nested jet at a time."""
        i = range(len(self.points))[i]
        jet = self.jet
        record = PointTerms(self.adapted, self.points[i], self.engine)
        record.__dict__.update(
            jet=replace(jet, **{field.name: getattr(jet, field.name)[i:i + 1]
                                for field in fields(jet)
                                if field.name != "adapted"}),
            **{name: getattr(self, name)[i:i + 1]
               for name in ("R_G", "FF", "DdDd")})
        return record


def decomposition_terms(adapted: AdaptedGeometry, point: ChartPoint,
                        engine: DerivEngine = DEFAULT_ENGINE
                        ) -> CurvatureBreakdown:
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
    compile. This is the ``breakdown`` of a fresh one-point
    ``PointTerms``, which a caller holding a record reads instead.
    """
    return PointTerms(adapted, point, engine).breakdown[0]


def coordinate_ricci_scalar(metric, z0,
                            engine: DerivEngine = DEFAULT_ENGINE) -> float:
    r"""Scalar curvature of a metric field by the plain coordinate formulas.

    ``metric`` maps an ``(N, k)`` stack of coordinate vectors to the
    ``(N, k, k)`` stack of SPD matrices there; it is called once, on the
    ``1 + 4 k^2`` rows of ``fields._pair_stencil`` at ``z0``. The first
    and second partials of the metric at ``z0`` give the Levi-Civita
    symbols and their partials,

    .. math::

        \partial_m \Gamma^a_{bc} = \tfrac12 g^{ad}(\partial_m\partial_b
            g_{cd} + \partial_m\partial_c g_{bd}
            - \partial_m\partial_d g_{bc})
            - g^{ae}\,\partial_m g_{ef}\,\Gamma^f_{bc},

    from the one inverse of the metric at ``z0``. The Ricci tensor and
    its contraction are those of ``R_M``, with that sign convention; past
    the metric nothing is shared with the frame routes. The relative step
    is ``min(300 fd_step, 9e-3)``: the metric is exact linear algebra of
    closed-form inputs, so the second differences pay rounding noise of
    order eps/h^2 ~ 1e-11, and after Richardson extrapolation the
    truncation error stays below that noise; at three times the step it
    already shows on the round sphere. A non-finite metric value
    anywhere on the stencil raises ``EvaluationError``. This is the
    completely frame-free evaluation path used by every oracle
    comparison.
    """
    z0 = np.asarray(z0, dtype=float)
    rows, steps = _pair_stencil(z0, min(300.0 * engine.fd_step, 9e-3))
    values = _eval_stack(metric, rows, "metric")
    dg, ddg = _pair_partials(values, steps)
    g_inv, _ = invert_spd(values[0])
    gamma = _levi_civita(g_inv, dg)
    # d g^{-1} = -g^{-1} dg g^{-1}, so the inverse's share of dGamma is
    # -g^{-1} dg Gamma; contracted pairwise
    dgamma = _levi_civita(g_inv, ddg) - np.einsum(
        "ae,mebc->mabc", g_inv, np.einsum("mef,fbc->mebc", dg, gamma))
    return float(_ricci_scalar(gamma, dgamma, g_inv))


def _ricci_scalar(gamma, dgamma, g_inv):
    """The scalar curvature of a holonomic frame from its Levi-Civita
    symbols ``gamma[..., a, b, c]``, their partials ``dgamma[..., m, a,
    b, c]`` and the inverse metric ``g_inv``, over any leading axes they
    share."""
    ricci = _ricci_from_pieces(gamma, dgamma, None, g_inv.shape[-1])
    return np.einsum("...ac,...ac->...", g_inv, ricci)


def _coordinate_ricci(gammas, steps, g_inv):
    """The scalar curvature of a holonomic frame from its Levi-Civita
    symbols ``gammas`` at the centre-first outer rows of a nested stencil
    with outer ``steps``, contracted with the inverse metric ``g_inv`` at
    the point. ``gammas`` is ``(..., 21, k, k, k)``, with a leading axis
    for each point of a stack that ``steps`` and ``g_inv`` share, and the
    result has that leading shape."""
    flat = gammas.reshape((-1,) + gammas.shape[-4:])
    dgamma = _stencil_partials(flat, steps)            # dgamma[., A, D, B, C]
    return _ricci_scalar(gammas[..., 0, :, :, :],
                         dgamma.reshape(gammas.shape[:-4] + dgamma.shape[1:]),
                         g_inv)


def _oracle_coordinates(orig, ndim, x, f, a):
    """``x``, ``f`` and ``a`` as float arrays, checked against the
    sectors of ``orig``: each ``ndim``-d with last axis ``n_x``, ``n_v``
    and ``n_g``, and as stacks (``ndim`` 2) with one row count. A
    mismatch raises ``ValueError`` naming the argument, where a plain
    concatenation would move the point between sectors."""
    arrays = {name: np.asarray(value, dtype=float)
              for name, value in (("x", x), ("f", f), ("a", a))}
    for (name, array), size in zip(arrays.items(),
                                   (orig.n_x, orig.n_v, orig.n_g)):
        if array.ndim != ndim or array.shape[-1] != size:
            raise ValueError("%s must have shape %s, got %s" % (
                name, "(%d,)" % size if ndim == 1 else "(N, %d)" % size,
                array.shape))
    if ndim == 2 and len({len(array) for array in arrays.values()}) > 1:
        raise ValueError("x, f and a must have one row count, got %s"
                         % ", ".join("%d" % len(array)
                                     for array in arrays.values()))
    return tuple(arrays.values())


def oracle_metric(orig: OriginalGeometry, x, f, a) -> np.ndarray:
    r"""Total-space metric in the coordinate basis at the rows of
    ``(x, f, a)``.

    ``x``, ``f`` and ``a`` are ``(N, n_x)``, ``(N, n_v)`` and ``(N, n_g)``
    stacks; any other shape raises ``ValueError`` naming the argument.
    Returns the ``(N, n_t, n_t)`` stack of metrics. Each callable
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
    x, f, a = _oracle_coordinates(orig, 2, x, f, a)
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

    ``x``, ``f`` and ``a`` hold ``n_x``, ``n_v`` and ``n_g`` entries;
    any other shape raises ``ValueError`` naming the argument. ``chart``
    is unread; it stays only because the benchmark harness passes
    ``scenario.chart``, which is always None. The metric comes from the
    geometry's group action, and its value must be independent of ``a``,
    which tests assert separately.

    ``coordinate_ricci_scalar`` differences the metric twice at the
    point itself, on the ``1 + 4 k^2`` rows of its second-difference
    stencil over the ``k = n_x + n_v + n_g`` coordinates, and
    ``oracle_metric`` is called once, on all of them: for the eight
    coordinates of the built-in scenarios, 257 rows holding 101 distinct
    ``(x, a)`` and 37 distinct ``a``.
    """
    x, f, a = _oracle_coordinates(orig, 1, x, f, a)
    n_x, n_v = orig.n_x, orig.n_v

    def metric_stack(zs):
        return oracle_metric(orig, zs[:, :n_x], zs[:, n_x:n_x + n_v],
                             zs[:, n_x + n_v:])

    return coordinate_ricci_scalar(metric_stack, np.concatenate([x, f, a]),
                                   engine)
