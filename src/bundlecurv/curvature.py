r"""Ricci contraction, scalar-curvature decomposition, and oracles.

Three independent routes to the total-space scalar curvature live here:

1. ``ricci_scalar_pair`` contracts the frame Ricci tensor built from a
   Christoffel provider (table or general formula) via

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
   coordinate basis over ``(x, f, a)`` -- group chart included, no frames, no
   structure constants -- and applies the standard coordinate formulas.

The sign conventions are the ones the Christoffel formula and the Ricci
display above imply; they are internally consistent and are never adjusted
to match external references (the round two-sphere comes out negative
here). The overall sign of the group-direction rule is the fixed
convention ``liecore.RULE_SIGN``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, DEFAULT_ENGINE, DerivEngine, EvaluationError,
                     FieldHandle, invert_spd, partial, second_partial)
from .geometry import AdaptedGeometry, OriginalGeometry, point_frames
from .liecore import group_direction_derivative, orbit_scalar_curvature
from .connection import (base_levi_civita, christoffel_table,
                         covariant_D_orbit_metric, curvature_F,
                         frame_structure_functions)

__all__ = [
    "CurvatureBreakdown",
    "GroupChart",
    "RICCI_OUTER_SCALE",
    "ricci_scalar_pair",
    "log_density_terms",
    "ff_term",
    "dddd_term",
    "decomposition_terms",
    "coordinate_ricci_scalar",
    "oracle_metric",
    "scalar_curvature_coordinate_oracle",
    "validate_group_chart",
]

#: Step inflation for the outer finite-difference layer (derivatives of
#: Christoffel fields that are themselves finite-differenced). Together
#: with the widened inner engine from :func:`_widened` this puts the inner
#: step near 1e-4 and the outer step near 1e-3: the inner layer leaves
#: rounding noise of order eps/h ~ 1e-12 on the symbols, the outer division
#: amplifies it only to ~1e-9, and Richardson extrapolation keeps the
#: truncation error of the wider stencils far below either.
RICCI_OUTER_SCALE = 10.0

_GAMMA_SIGNATURE = ("upper", "lower", "lower")


def _widened(engine):
    """A copy of *engine* with a 10x wider stencil for nested differencing.

    Every metric this module differentiates twice is exact linear algebra of
    closed-form inputs, so widening costs no meaningful truncation while it
    cuts the rounding amplification of derivative-of-derivative paths.
    """
    return DerivEngine(
        fd_step=min(10.0 * engine.fd_step, 9e-3),
        richardson=engine.richardson,
        mode=engine.mode,
    )


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


@dataclass(frozen=True)
class GroupChart:
    """Chart matrices of the group factor, used only by the oracle.

    ``u``, ``v``, ``rho`` map a group coordinate vector to the left/right
    flow-component matrices and the adjoint matrix; ``u_bar``, ``v_bar``,
    ``rho_bar`` are their pointwise inverses. ``rho = u_bar . v`` holds
    identically and all three reduce to the identity at the origin.
    """

    n_g: int
    u: object
    v: object
    rho: object
    u_bar: object
    v_bar: object
    rho_bar: object


def _hat_gamma(provider, adapted, point, engine, gamma0):
    """Frame derivatives hat[A, D, B, C] of the Christoffel field."""
    n_h, n_g, n_t = adapted.n_h, adapted.n_g, adapted.n_t
    field = FieldHandle(lambda p: provider(p).gamma, "rank3",
                        ("mixed",) * 3)
    a_val = np.asarray(adapted.A_conn(point), dtype=float)
    rule = [group_direction_derivative(gamma0, _GAMMA_SIGNATURE,
                                       adapted.c, s) for s in range(n_g)]
    hat = np.zeros((n_t, n_t, n_t, n_t))
    for bp in range(n_h):
        grad = partial(engine, field, point, bp,
                       step_scale=RICCI_OUTER_SCALE)
        correction = sum((a_val[s, bp] * rule[s] for s in range(n_g)),
                         np.zeros_like(gamma0))
        hat[bp] = grad - correction
    for s in range(n_g):
        hat[n_h + s] = rule[s]
    return hat


def _ricci_from_pieces(gamma0, hat, cc, mask):
    t1 = np.einsum("abbc,b->ac", hat, mask)
    t2 = np.einsum("bbac,b->ac", hat, mask)
    t3 = np.einsum("dbc,bad,b,d->ac", gamma0, gamma0, mask, mask)
    t4 = np.einsum("lac,bbl,b,l->ac", gamma0, gamma0, mask, mask)
    t5 = np.einsum("eab,bec,e,b->ac", cc, gamma0, mask, mask)
    return t1 - t2 + t3 - t4 - t5


def _internal_mask(n_h, n_t, internal):
    mask = np.ones(n_t)
    if internal == "horizontal":
        mask[n_h:] = 0.0
    elif internal != "all":
        raise ValueError("internal must be 'all' or 'horizontal'")
    return mask


def ricci_scalar_pair(adapted: AdaptedGeometry, point: ChartPoint,
                      provider=None,
                      engine: DerivEngine = DEFAULT_ENGINE):
    r"""Total-space and orbit-space scalar curvatures from one derivative pass.

    Returns ``(R_total_space, R_orbit_space)``. The first contracts the
    all-internal Ricci with blockdiag(h~^{-1}, d^{-1}); the second keeps
    only horizontal internal indices and contracts the horizontal block
    with h~^{-1}. Sharing the frame-derivative array between the two keeps
    their FD noise correlated, which the difference formulas rely on.
    """
    wide = _widened(engine)
    if provider is None:
        def provider(p):
            return christoffel_table(adapted, p, wide)
    structure = frame_structure_functions(adapted, point, engine)
    gamma0 = provider(point).gamma
    hat = _hat_gamma(provider, adapted, point, wide, gamma0)
    n_h, n_t = adapted.n_h, adapted.n_t
    h_inv, _ = invert_spd(np.asarray(adapted.h_tilde(point), dtype=float))
    d_inv = np.asarray(adapted.d.d_inv(point), dtype=float)
    g_inv = np.zeros((n_t, n_t))
    g_inv[:n_h, :n_h] = h_inv
    g_inv[n_h:, n_h:] = d_inv

    full = _ricci_from_pieces(gamma0, hat, structure.CC,
                              _internal_mask(n_h, n_t, "all"))
    base = _ricci_from_pieces(gamma0, hat, structure.CC,
                              _internal_mask(n_h, n_t, "horizontal"))
    r_total = float(np.einsum("ac,ac->", g_inv, full))
    r_base = float(np.einsum("ac,ac->", h_inv, base[:n_h, :n_h]))
    return r_total, r_base


def _log_det_d_field(adapted: AdaptedGeometry) -> FieldHandle:
    def evaluate(point):
        sign, logdet = np.linalg.slogdet(adapted.d.d(point))
        if sign <= 0:
            raise ValueError("orbit metric lost positivity; log det "
                             "undefined")
        return logdet

    d_func = None
    d_analytic = getattr(adapted.d.d, "d_func", None)
    if d_analytic is not None:
        def d_func(point, slot):
            d_inv = np.asarray(adapted.d.d_inv(point), dtype=float)
            return float(np.trace(d_inv @ np.asarray(
                d_analytic(point, slot), dtype=float)))

    return FieldHandle(evaluate, "scalar", (), d_func=d_func)


def log_density_terms(adapted: AdaptedGeometry, point: ChartPoint,
                      engine: DerivEngine = DEFAULT_ENGINE):
    r"""Horizontal Laplacian and quarter-squared-gradient of ``ln det d``.

    Returns ``(lap_ln_d, grad_ln_d)`` where the Laplacian is the
    orbit-space one, ``h~^{A'B'}(\partial\partial - \Gamma^{C'}\partial)``,
    and the gradient term carries its quarter factor.
    """
    n_h = adapted.n_h
    h_inv, _ = invert_spd(np.asarray(adapted.h_tilde(point), dtype=float))
    sigma = _log_det_d_field(adapted)
    grad = np.array([partial(engine, sigma, point, s) for s in range(n_h)])
    hess = np.zeros((n_h, n_h))
    for i in range(n_h):
        for j in range(i, n_h):
            hess[i, j] = hess[j, i] = second_partial(engine, sigma, point,
                                                     i, j)
    lc = base_levi_civita(adapted, point, engine)
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


def decomposition_terms(adapted: AdaptedGeometry, point: ChartPoint,
                        engine: DerivEngine = DEFAULT_ENGINE
                        ) -> CurvatureBreakdown:
    r"""The five-piece decomposition of the total scalar curvature.

    ``R_M`` is the scalar curvature of h~ on the honest ``(x, f)`` chart by
    the plain coordinate formula; ``R_G`` the closed-form orbit curvature;
    ``FF`` the quarter-contraction of the connection curvature; ``DdDd``
    the quarter-contraction of the covariant derivative of ``d``; the last
    two are the horizontal Laplacian and squared gradient of
    ``ln det d``. ``R_total`` is their sum, definitionally.

    When the geometry carries bundle data, h~ on the whole ``R_M``
    stencil comes from one ``point_frames`` call; that also puts in the
    frame cache the frames the Ricci routes read at the same point.
    """
    h_val = np.asarray(adapted.h_tilde(point), dtype=float)
    h_inv, _ = invert_spd(h_val)
    d_val = np.asarray(adapted.d.d(point), dtype=float)
    d_inv = np.asarray(adapted.d.d_inv(point), dtype=float)

    def h_of_stack(zs):
        points = [ChartPoint(z[:adapted.n_x], z[adapted.n_x:]) for z in zs]
        if adapted.orig is not None:
            return np.stack([frame.h_tilde for frame in
                             point_frames(adapted.orig, points)])
        return np.stack([adapted.h_tilde(p) for p in points])

    # the chart metric is exact linear algebra of closed-form inputs, so
    # the widened stencils of the coordinate oracle apply here as well
    r_m = coordinate_ricci_scalar(h_of_stack, point.coords,
                                  _widened(engine))
    r_g = orbit_scalar_curvature(adapted.c, d_val)

    ff = ff_term(h_inv, d_val, curvature_F(adapted, point, engine))
    dddd = dddd_term(h_inv, d_inv,
                     covariant_D_orbit_metric(adapted, point, engine))

    lap, grad_sq = log_density_terms(adapted, point, engine)

    r_m = float(r_m)
    r_g = float(r_g)
    total = r_m + r_g + ff + dddd + lap + grad_sq
    return CurvatureBreakdown(R_M=r_m, R_G=r_g, FF=ff, DdDd=dddd,
                              lap_ln_d=lap, grad_ln_d=grad_sq,
                              R_total=total)


def _stencil(zs, fd_step, richardson):
    """The points and steps of ``ambient_partial`` at each row of ``zs``.

    ``zs`` is ``(m, k)``. Returns the ``(m, 1 + 2 r k, k)`` stencil rows
    -- the centre, then for each slot ``+h, -h`` and, with Richardson
    (``r = 2``), ``+h/2, -h/2`` -- and the ``(m, r, k)`` steps. The rows
    are shifted with exactly the arithmetic of ``ambient_partial``.
    """
    m, k = zs.shape
    h = fd_step * (1.0 + np.abs(zs))
    steps = np.stack([h, 0.5 * h] if richardson else [h], axis=1)
    n_r = steps.shape[1]
    rows = np.repeat(zs[:, None, :], 1 + 2 * n_r * k, axis=1)
    for s in range(k):
        for r in range(n_r):
            hi = 1 + 2 * (s * n_r + r)
            rows[:, hi, s] += steps[:, r, s]
            rows[:, hi + 1, s] -= steps[:, r, s]
    return rows, steps


def _stencil_partials(values, steps):
    """``ambient_partial`` along every slot, from values on ``_stencil`` rows.

    ``values`` is ``(m, 1 + 2 r k, ...)``; returns ``(m, k, ...)``:
    ``(hi - lo) / (2 step)`` at each step, then ``(4 D(h/2) - D(h)) / 3``
    with Richardson.
    """
    m, n_r, k = steps.shape
    tail = values.shape[2:]
    pairs = values[:, 1:].reshape((m, k, n_r, 2) + tail)
    steps = steps.reshape((m, n_r, k) + (1,) * len(tail))

    def central(r):
        return (pairs[:, :, r, 0] - pairs[:, :, r, 1]) / (2.0 * steps[:, r])

    d_h = central(0)
    if n_r == 1:
        return d_h
    return (4.0 * central(1) - d_h) / 3.0


def coordinate_ricci_scalar(metric, z0, engine: DerivEngine = DEFAULT_ENGINE,
                            outer_scale: float = RICCI_OUTER_SCALE) -> float:
    r"""Scalar curvature of a metric field by the plain coordinate formulas.

    ``metric`` maps an ``(N, k)`` stack of coordinate vectors to the
    ``(N, n, n)`` stack of SPD matrices there; it is called once, on the
    whole nested stencil. Levi-Civita symbols come from first differences
    of the metric, the Ricci tensor from differences of the symbols at an
    inflated outer step, and the scalar from the inverse-metric
    contraction. Both layers difference with exactly the arithmetic of
    ``ambient_partial``. A non-finite metric value anywhere on the stencil
    raises ``EvaluationError``. This is the completely frame-free
    evaluation path used by every oracle comparison.
    """
    z0 = np.asarray(z0, dtype=float)
    k = z0.shape[0]
    outer, outer_steps = _stencil(z0[None, :],
                                  engine.fd_step * outer_scale,
                                  engine.richardson)
    inner, inner_steps = _stencil(outer[0], engine.fd_step,
                                  engine.richardson)
    zs = inner.reshape(-1, k)
    values = np.asarray(metric(zs), dtype=float)
    finite = np.all(np.isfinite(values.reshape(len(zs), -1)), axis=1)
    if not np.all(finite):
        raise EvaluationError(
            "metric produced non-finite value at z=%s"
            % (zs[np.argmin(finite)].tolist(),))
    values = values.reshape(inner.shape[:2] + values.shape[1:])

    gammas = []
    for g, dg in zip(values[:, 0], _stencil_partials(values, inner_steps)):
        g_inv, _ = invert_spd(g)
        combo = (np.einsum("bcd->bcd", dg) + np.einsum("cbd->bcd", dg)
                 - np.einsum("dbc->bcd", dg))
        gammas.append(0.5 * np.einsum("ad,bcd->abc", g_inv, combo))
    gamma0 = gammas[0]
    dgamma = _stencil_partials(np.stack(gammas)[None],
                               outer_steps)[0]     # dgamma[A, D, B, C]
    ricci = (np.einsum("abbc->ac", dgamma)
             - np.einsum("bbac->ac", dgamma)
             + np.einsum("dbc,bad->ac", gamma0, gamma0)
             - np.einsum("lac,bbl->ac", gamma0, gamma0))
    g_inv, _ = invert_spd(values[0, 0])
    return float(np.einsum("ac,ac->", g_inv, ricci))


def oracle_metric(orig: OriginalGeometry, x, f, a) -> np.ndarray:
    r"""Total-space metric in the coordinate basis at ``(x, f, a)``.

    Honest pullback: the chart map sends ``(x, f, a)`` to the bundle point
    (group-translated section point, represented vector), and the metric is
    the Jacobian congruence of blockdiag(G_P, G_V). Exact closed form --
    the Jacobian is analytic, so oracle derivatives carry no hidden FD
    noise beyond their own stencils.
    """
    if orig.right_translate is None or orig.vspace_action is None:
        raise ValueError("geometry supplies no group-chart action; "
                         "coordinate oracle unavailable")
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    n_P, n_v, n_g, n_x = orig.n_P, orig.n_v, orig.n_g, orig.n_x
    n_t = n_x + n_v + n_g

    q = np.asarray(orig.right_translate(x, a), dtype=float)
    g_p = np.asarray(orig.G_P(q), dtype=float)
    dq = np.asarray(orig.right_translate_jac(x, a), dtype=float)
    dbar = np.asarray(orig.vspace_action(a), dtype=float)
    dvec = np.asarray(orig.vspace_action_d(a), dtype=float)

    jac = np.zeros((n_P + n_v, n_t))
    jac[:n_P, :n_x] = dq[:, :n_x]
    jac[:n_P, n_x + n_v:] = dq[:, n_x:]
    jac[n_P:, n_x:n_x + n_v] = dbar
    for g in range(n_g):
        jac[n_P:, n_x + n_v + g] = dvec[g] @ f

    big = np.zeros((n_P + n_v, n_P + n_v))
    big[:n_P, :n_P] = g_p
    big[n_P:, n_P:] = orig.G_V
    return jac.T @ big @ jac


def scalar_curvature_coordinate_oracle(orig: OriginalGeometry, chart, x, f,
                                       a,
                                       engine: DerivEngine = DEFAULT_ENGINE
                                       ) -> float:
    """Scalar curvature at ``(x, f, a)`` through the coordinate basis only.

    ``chart`` is accepted for interface symmetry and validity checking by
    callers; the metric itself is built from the geometry's group action.
    The value must be independent of ``a``; tests assert that separately.

    The metric here is an analytic closed form, so truncation error stays
    negligible at steps an order larger than the engine default; the
    stencils run widened (10x inner, 10x outer on top) to keep the
    rounding noise of the nested second differences well under the
    oracle's comparison budget.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    a = np.asarray(a, dtype=float)
    n_x, n_v = orig.n_x, orig.n_v

    def metric_stack(zs):
        return np.stack([oracle_metric(orig, z[:n_x], z[n_x:n_x + n_v],
                                       z[n_x + n_v:]) for z in zs])

    z0 = np.concatenate([x, f, a])
    return coordinate_ricci_scalar(metric_stack, z0, _widened(engine))


def validate_group_chart(chart: GroupChart, samples) -> float:
    """Max residual of the chart identities over sample coordinates."""
    worst = 0.0
    eye = np.eye(chart.n_g)
    origin = np.zeros(chart.n_g)
    for name, func in (("u", chart.u), ("v", chart.v), ("rho", chart.rho)):
        val = np.asarray(func(origin), dtype=float)
        worst = max(worst, float(np.max(np.abs(val - eye))))
    for a in samples:
        a = np.asarray(a, dtype=float)
        u = np.asarray(chart.u(a), dtype=float)
        v = np.asarray(chart.v(a), dtype=float)
        rho = np.asarray(chart.rho(a), dtype=float)
        u_bar = np.asarray(chart.u_bar(a), dtype=float)
        v_bar = np.asarray(chart.v_bar(a), dtype=float)
        rho_bar = np.asarray(chart.rho_bar(a), dtype=float)
        worst = max(worst, float(np.max(np.abs(u @ u_bar - eye))))
        worst = max(worst, float(np.max(np.abs(v @ v_bar - eye))))
        worst = max(worst, float(np.max(np.abs(rho @ rho_bar - eye))))
        worst = max(worst, float(np.max(np.abs(u_bar @ v - rho))))
    return worst
