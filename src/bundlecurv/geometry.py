r"""Compile bundle data into the adapted block metric.

The input is an ``OriginalGeometry``: a metric on the bundle total space
(``G_P`` over the group-extended coordinates ``Q``, plus a constant vector
sector ``G_V``), the Killing fields of the group action, the representation
generators acting on the vector sector, a local section ``Q*(x)``, and a
gauge function whose zero level picks the section out. From this the module
builds, at a chart point:

* the orbit metric ``d = gamma(x) + gamma'(f)`` with its inverse,
* the mechanical-connection components ``A^alpha_i``, ``A^alpha_a`` and the
  base-only variant built with ``gamma`` instead of ``d``,
* the horizontal metric blocks ``h~`` (and the base-only ``h``),
* the projector family (orbit-orthogonal ``Pi~``, gauge projector ``N``,
  the section left-inverse ``T``),
* the full block metric with closed-form inverse and determinant
  factorization.

All group-dependent quantities are evaluated at the group identity; the
identities verified downstream are functions on the orbit space, so nothing
is lost, and the coordinate-basis oracle reintroduces group coordinates
independently.

Everything at a chart point lives in one ``PointFrame``. ``point_frames``
compiles the frames of many points in one stacked pass -- the scenario
callables point by point, the linear algebra on ``(N, ...)`` stacks -- and
``point_frame`` is its one-point case. Compiled frames are read-only and
kept in a bounded LRU cache keyed on the geometry object and the point;
``frame_cache_info`` reports its counters.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import ChartPoint, FieldHandle, NearSingularError, invert_spd
from .liecore import OrbitMetric, StructureConstants

__all__ = [
    "OriginalGeometry",
    "AdaptedGeometry",
    "Projectors",
    "HorizontalMetric",
    "BlockMetric",
    "PointFrame",
    "point_frame",
    "point_frames",
    "frame_cache_info",
    "FrameCacheInfo",
    "build_orbit_metric",
    "orbit_metric_split",
    "build_connection",
    "build_horizontal_metric",
    "build_projectors",
    "assemble_block_metric",
    "det_factorization_check",
    "compile_adapted",
    "validate_original",
    "ambient_partial",
]

_PHI_MAX_COND = 1e12


@dataclass(frozen=True, eq=False)
class OriginalGeometry:
    r"""Bundle-side data, all supplied as exact closed-form callables.

    ``G_P(Q)`` is the metric on the group-extended factor (``Q`` of length
    ``n_P``), ``G_V`` the constant vector-sector metric. ``K_P(Q)`` returns
    the Killing fields as columns of an ``(n_P, n_g)`` matrix; the vector
    sector action is linear, ``K^a_alpha(f) = (gens[alpha] f)^a``.
    ``section(x)`` embeds the chart into the ``Q``-space with analytic
    Jacobian ``section_jac``; ``chi`` is the gauge function vanishing on the
    section, with analytic Jacobian ``chi_jac``.

    The optional trailing callables describe the group action on charts and
    are consumed only by the coordinate-basis oracle and by scenarios; the
    builders in this module never touch them.
    """

    n_P: int
    n_v: int
    n_g: int
    G_P: object
    G_V: np.ndarray
    K_P: object
    gens: np.ndarray
    section: object
    section_jac: object
    chi: object
    chi_jac: object
    c: StructureConstants
    right_translate: object = None
    right_translate_jac: object = None
    vspace_action: object = None
    vspace_action_d: object = None
    group_chart: object = None

    def __post_init__(self):
        g_v = np.asarray(self.G_V, dtype=float)
        gens = np.asarray(self.gens, dtype=float)
        if g_v.shape != (self.n_v, self.n_v):
            raise ValueError("G_V must be (%d, %d)" % (self.n_v, self.n_v))
        if gens.shape != (self.n_g, self.n_v, self.n_v):
            raise ValueError("gens must be (n_g, n_v, n_v), got %s"
                             % (gens.shape,))
        if self.n_P < self.n_g:
            raise ValueError("n_P must be at least n_g")
        g_v.setflags(write=False)
        gens.setflags(write=False)
        object.__setattr__(self, "G_V", g_v)
        object.__setattr__(self, "gens", gens)

    @property
    def n_x(self) -> int:
        return self.n_P - self.n_g

    @property
    def n_h(self) -> int:
        return self.n_x + self.n_v

    def K_vector(self, f) -> np.ndarray:
        """Vector-sector Killing components, columns over the orbit index."""
        f = np.asarray(f, dtype=float)
        if self.n_g == 0:
            return np.zeros((self.n_v, 0))
        return np.einsum("mab,b->am", self.gens, f)


@dataclass(frozen=True)
class Projectors:
    r"""Projector family at a point.

    ``Pi_tilde`` projects the joint ``P (+) V`` tangent space onto the
    orthogonal complement of the orbit directions; ``N`` is the
    gauge-section projector built from the Faddeev-Popov matrix; ``T`` is
    the left inverse of the section Jacobian with ``T Q*_jac = 1`` and
    ``Q*_jac T`` idempotent; ``Lambda = Phi^{-1} chi_jac``.
    """

    Pi_tilde: np.ndarray
    N: np.ndarray
    T: np.ndarray
    Lambda: np.ndarray
    n_P: int

    @property
    def Pi_PP(self):
        return self.Pi_tilde[:self.n_P, :self.n_P]

    @property
    def Pi_Pv(self):
        return self.Pi_tilde[:self.n_P, self.n_P:]

    @property
    def Pi_vP(self):
        return self.Pi_tilde[self.n_P:, :self.n_P]

    @property
    def Pi_vv(self):
        return self.Pi_tilde[self.n_P:, self.n_P:]

    @property
    def N_PP(self):
        return self.N[:self.n_P, :self.n_P]

    @property
    def N_vP(self):
        return self.N[self.n_P:, :self.n_P]


@dataclass(frozen=True)
class HorizontalMetric:
    """Horizontal metric blocks and the base-only reduced metric."""

    h_xx: np.ndarray
    h_xv: np.ndarray
    h_vv: np.ndarray
    h_base: np.ndarray

    @property
    def full(self) -> np.ndarray:
        top = np.hstack([self.h_xx, self.h_xv])
        bot = np.hstack([self.h_xv.T, self.h_vv])
        return np.vstack([top, bot])


@dataclass(frozen=True)
class BlockMetric:
    """Full adapted block metric at the group identity."""

    matrix: np.ndarray
    inverse: np.ndarray
    det: float
    h_tilde: np.ndarray
    d: np.ndarray
    A: np.ndarray


@dataclass
class PointFrame:
    """Everything the builders produce at one chart point (cached)."""

    point: ChartPoint
    Q: np.ndarray
    Q_jac: np.ndarray
    G_P: np.ndarray
    G_P_inv: np.ndarray
    K_P: np.ndarray
    K_V: np.ndarray
    gamma: np.ndarray
    gamma_prime: np.ndarray
    d: np.ndarray
    d_inv: np.ndarray
    det_d: float
    A_base: np.ndarray
    A_vector: np.ndarray
    A_gamma: np.ndarray
    Gt_H: np.ndarray
    GH_P: np.ndarray
    h: HorizontalMetric
    h_tilde: np.ndarray
    h_tilde_inv: np.ndarray
    det_h: float
    h_base_inv: np.ndarray
    projectors: Projectors

    @property
    def A(self) -> np.ndarray:
        return np.hstack([self.A_base, self.A_vector])


def _as_matrix(value, n, what):
    m = np.asarray(value, dtype=float)
    if m.shape != (n, n):
        raise ValueError("%s must have shape (%d, %d), got %s"
                         % (what, n, n, m.shape))
    return m


def _spd_or_error(matrix, what, points=None):
    """``invert_spd`` with ``what`` prefixed to its error; on a stack of
    frames the error names the chart point in ``points`` that failed."""
    try:
        return invert_spd(matrix)
    except NearSingularError as exc:
        where = ""
        if exc.index is not None:
            bad = points[exc.index]
            where = " at x=%s f=%s" % (bad.x.tolist(), bad.f.tolist())
        raise NearSingularError("%s%s: %s" % (what, where, exc.reason)) \
            from exc


def _compute_frames(orig: OriginalGeometry, points) -> list:
    """Compile the frames at a sequence of chart points in one pass.

    The scenario callables are evaluated point by point, since
    ``OriginalGeometry`` promises them one point at a time; all the linear
    algebra then runs on ``(N, ...)`` stacks, matrix by matrix with the
    arithmetic of a single point, so a frame is bit-identical whatever
    stack it was compiled in. Every gate runs at every point; the first
    gate, in frame order, that fails at any point raises.
    """
    n_P, n_v, n_g, n_x = orig.n_P, orig.n_v, orig.n_g, orig.n_x
    rows = []
    for point in points:
        q = np.asarray(orig.section(point.x), dtype=float)
        q_jac = np.asarray(orig.section_jac(point.x), dtype=float)
        if q.shape != (n_P,) or q_jac.shape != (n_P, n_x):
            raise ValueError("section/section_jac shape mismatch")
        rows.append((
            q, q_jac, _as_matrix(orig.G_P(q), n_P, "G_P"),
            np.asarray(orig.K_P(q), dtype=float).reshape(n_P, n_g),
            orig.K_vector(point.f),
            np.asarray(orig.chi_jac(q), dtype=float).reshape(n_g, n_P)))
    q, q_jac, g_p, k_p, k_v, chi_jac = (np.array(col) for col in zip(*rows))
    q_jac_t, k_v_t = q_jac.swapaxes(1, 2), k_v.swapaxes(1, 2)

    g_p_inv, _ = _spd_or_error(g_p, "bundle metric not positive definite",
                               points)
    kt_g = k_p.swapaxes(1, 2) @ g_p
    gamma = kt_g @ k_p
    gamma_prime = k_v_t @ orig.G_V @ k_v
    d = gamma + gamma_prime
    d_inv, det_d = _spd_or_error(
        d, "orbit metric degenerate (group action not free here)", points)

    # mechanical connection: full-d version on both sectors, gamma version
    # on the base sector only
    kg_q = kt_g @ q_jac                     # K^C G_{DC} Q*^D_i
    a_base = d_inv @ kg_q
    a_vector = d_inv @ (k_v_t @ orig.G_V)
    if n_g:
        gamma_inv, _ = _spd_or_error(
            gamma, "bundle-side orbit metric gamma degenerate", points)
    else:
        gamma_inv = gamma.copy()
    a_gamma = gamma_inv @ kg_q

    # horizontal metric: project out orbit directions from the joint metric
    g_full = np.zeros((len(points), n_P + n_v, n_P + n_v))
    g_full[:, :n_P, :n_P] = g_p
    g_full[:, n_P:, n_P:] = orig.G_V
    k_full = np.concatenate([k_p, k_v], axis=1)
    gk = g_full @ k_full
    gk_t = gk.swapaxes(1, 2)
    gt_h = g_full - gk @ d_inv @ gk_t
    gh_p = g_p - (g_p @ k_p) @ gamma_inv @ kt_g

    h_xx = q_jac_t @ gt_h[:, :n_P, :n_P] @ q_jac
    h_xv = q_jac_t @ gt_h[:, :n_P, n_P:]
    h_vv = gt_h[:, n_P:, n_P:]
    h_base = q_jac_t @ gh_p @ q_jac
    h_tilde = np.concatenate(
        [np.concatenate([h_xx, h_xv], axis=2),
         np.concatenate([h_xv.swapaxes(1, 2), h_vv], axis=2)], axis=1)
    h_tilde_inv, det_h = _spd_or_error(
        h_tilde, "horizontal metric degenerate", points)
    h_base_inv, _ = _spd_or_error(h_base, "reduced base metric degenerate",
                                  points)

    # projectors
    if n_g:
        phi = chi_jac @ k_p
        singular = np.linalg.cond(phi) > _PHI_MAX_COND
        if singular.any():
            raise NearSingularError(
                "Faddeev-Popov matrix near singular: section not "
                "transversal to the orbits at x=%s"
                % (points[int(np.argmax(singular))].x.tolist(),))
        lam = np.linalg.solve(phi, chi_jac)
    else:
        lam = np.zeros((len(points), 0, n_P))
    n_full = np.zeros((len(points), n_P + n_v, n_P + n_v))
    n_full[:, :n_P, :n_P] = np.eye(n_P) - k_p @ lam
    n_full[:, n_P:, :n_P] = -k_v @ lam
    n_full[:, n_P:, n_P:] = np.eye(n_v)

    pi_tilde = np.eye(n_P + n_v) - k_full @ d_inv @ gk_t
    t_op = h_base_inv @ q_jac_t @ gh_p

    # frames are cached and shared by every later lookup of the point:
    # freeze the stacks, so that every per-point view is read-only too
    for array in (q, q_jac, g_p, g_p_inv, k_p, k_v, gamma, gamma_prime, d,
                  d_inv, a_base, a_vector, a_gamma, gt_h, gh_p, h_xx, h_xv,
                  h_vv, h_base, h_tilde, h_tilde_inv, h_base_inv, pi_tilde,
                  n_full, t_op, lam):
        array.setflags(write=False)
    return [PointFrame(
        point=point, Q=q[i], Q_jac=q_jac[i], G_P=g_p[i], G_P_inv=g_p_inv[i],
        K_P=k_p[i], K_V=k_v[i], gamma=gamma[i], gamma_prime=gamma_prime[i],
        d=d[i], d_inv=d_inv[i], det_d=float(det_d[i]),
        A_base=a_base[i], A_vector=a_vector[i], A_gamma=a_gamma[i],
        Gt_H=gt_h[i], GH_P=gh_p[i],
        h=HorizontalMetric(h_xx[i], h_xv[i], h_vv[i], h_base[i]),
        h_tilde=h_tilde[i], h_tilde_inv=h_tilde_inv[i],
        det_h=float(det_h[i]), h_base_inv=h_base_inv[i],
        projectors=Projectors(Pi_tilde=pi_tilde[i], N=n_full[i], T=t_op[i],
                              Lambda=lam[i], n_P=n_P))
        for i, point in enumerate(points)]


class _FrameCache:
    """Bounded LRU of compiled frames with hit and compile counters.

    Keys are the geometry object itself followed by ``ChartPoint.key()``.
    A geometry hashes by identity, so a cached frame keeps its geometry
    alive and two geometries never share a frame. Lookups are not locked:
    verification runs on one thread.
    """

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.frames = OrderedDict()
        self.hits = self.misses = self.compiles = 0

    def get(self, key):
        """The cached frame under ``key``, now most recent, or None."""
        frame = self.frames.get(key)
        if frame is not None:
            self.frames.move_to_end(key)
            self.hits += 1
        return frame

    def compile(self, orig, missing):
        """Compile the frames of ``missing`` (key -> point) in one stacked
        call, cache them, and return them in the order of ``missing``."""
        self.misses += len(missing)
        self.compiles += 1
        frames = _compute_frames(orig, list(missing.values()))
        self.frames.update(zip(missing, frames))
        while len(self.frames) > self.maxsize:
            self.frames.popitem(last=False)
        return frames


_FRAMES = _FrameCache(maxsize=8192)

FrameCacheInfo = namedtuple("FrameCacheInfo",
                            "hits misses compiles currsize maxsize")


def frame_cache_info() -> FrameCacheInfo:
    """Counters of the frame cache: lookups served from it (``hits``),
    frames compiled (``misses``), stacked compile calls (``compiles``),
    and its current and maximum size."""
    cache = _FRAMES
    return FrameCacheInfo(cache.hits, cache.misses, cache.compiles,
                          len(cache.frames), cache.maxsize)


def point_frames(orig: OriginalGeometry, points) -> list:
    """Frames at many chart points, every cache miss compiled in one call.

    Returns one frame per point, in order. A point repeated in ``points``
    compiles once, and every compiled frame enters the cache, so later
    ``point_frame`` lookups of the same points are hits. A frame keeps the
    (read-only) ``ChartPoint`` it was compiled for.
    """
    keys = [(orig,) + p.key() for p in points]
    found = {}
    missing = {}
    for key, point in zip(keys, points):
        if key in found:
            _FRAMES.hits += 1
            continue
        found[key] = _FRAMES.get(key)
        if found[key] is None:
            missing[key] = point
    if missing:
        found.update(zip(missing, _FRAMES.compile(orig, missing)))
    return [found[key] for key in keys]


def point_frame(orig: OriginalGeometry, point: ChartPoint) -> PointFrame:
    """Cached per-point evaluation hub for all builders: a cache lookup,
    and on a miss the one-point case of the stacked compile."""
    key = (orig,) + point.key()
    frame = _FRAMES.get(key)
    if frame is None:
        frame = _FRAMES.compile(orig, {key: point})[0]
    return frame


def build_orbit_metric(orig: OriginalGeometry, point: ChartPoint):
    r"""Orbit metric :math:`d_{\mu\nu} = G_{AB}K^A_\mu K^B_\nu + G_{ab}K^a_\mu K^b_\nu`.

    Returns ``(d, d_inv)`` at ``(Q*(x), f)``. Degenerate ``d`` raises, which
    is the working witness that the group action stopped being free.
    """
    frame = point_frame(orig, point)
    return frame.d, frame.d_inv


def orbit_metric_split(orig: OriginalGeometry, point: ChartPoint):
    """The additive pieces ``gamma(x)`` and ``gamma'(f)`` of the orbit metric."""
    frame = point_frame(orig, point)
    return frame.gamma, frame.gamma_prime


def build_connection(orig: OriginalGeometry, point: ChartPoint):
    r"""Mechanical-connection components at a point.

    Returns ``(A_base, A_vector, A_gamma)``:

    .. math::

        \mathcal A^\alpha_i = d^{\alpha\beta} K^C_\beta G_{DC} Q^{*D}_i,
        \qquad
        \mathcal A^\alpha_c = d^{\alpha\beta} K^a_\beta G_{ac},

    and ``A_gamma`` the base-sector variant with :math:`\gamma^{\mu\nu}` in
    place of :math:`d^{\alpha\beta}`, which is what the inverse-metric and
    drift formulas use.
    """
    frame = point_frame(orig, point)
    return frame.A_base, frame.A_vector, frame.A_gamma


def build_horizontal_metric(orig: OriginalGeometry,
                            point: ChartPoint) -> HorizontalMetric:
    r"""Horizontal metric blocks.

    The joint metric on ``P (+) V`` minus its orbit components,

    .. math::

        \tilde G^{\rm H} = G - G K d^{-1} K^{\rm T} G,

    pulled back through the section Jacobian on the ``P`` legs. ``h_base``
    is the analogous base-only reduction of ``G_P`` built with ``gamma``.
    """
    frame = point_frame(orig, point)
    return frame.h


def build_projectors(orig: OriginalGeometry, point: ChartPoint) -> Projectors:
    """Projector family at a point; see ``Projectors``."""
    frame = point_frame(orig, point)
    return frame.projectors


def compile_adapted(orig: OriginalGeometry, d_analytic=None,
                    h_analytic=None, a_analytic=None) -> "AdaptedGeometry":
    """Wrap the builders into chart fields.

    Optional ``*_analytic(point, slot)`` callables register closed-form
    partial derivatives for scenarios that have them; the differentiation
    engine uses them only in analytic mode, and tests compare both paths.
    """
    def d_eval(point):
        return point_frame(orig, point).d

    def d_inv_eval(point):
        return point_frame(orig, point).d_inv

    def d_inv_analytic(point, slot):
        frame = point_frame(orig, point)
        dd = np.asarray(d_analytic(point, slot), dtype=float)
        return -frame.d_inv @ dd @ frame.d_inv

    def h_eval(point):
        return point_frame(orig, point).h_tilde

    def a_eval(point):
        return point_frame(orig, point).A

    d_field = FieldHandle(d_eval, "matrix", ("orbit", "orbit"),
                          d_func=d_analytic)
    d_inv_field = FieldHandle(
        d_inv_eval, "matrix", ("orbit", "orbit"),
        d_func=d_inv_analytic if d_analytic is not None else None)
    orbit = OrbitMetric(d=d_field, d_inv=d_inv_field)
    return AdaptedGeometry(
        n_x=orig.n_x, n_v=orig.n_v, n_g=orig.n_g,
        h_tilde=FieldHandle(h_eval, "matrix", ("mixed", "mixed"),
                            d_func=h_analytic),
        d=orbit,
        A_conn=FieldHandle(a_eval, "matrix", ("orbit", "mixed"),
                           d_func=a_analytic),
        c=orig.c, orig=orig)


@dataclass(frozen=True)
class AdaptedGeometry:
    r"""The universal input of the curvature and Jacobian operations.

    ``h_tilde(point)`` is the horizontal metric over the joint ``(x, f)``
    chart, ``d`` the orbit metric with inverse, ``A_conn(point)`` the
    connection components as an ``(n_g, n_x+n_v)`` matrix. ``orig`` is kept
    when the geometry was compiled from bundle data; operations that need
    the bundle side (projector identities, drift in gauge form) require it.
    """

    n_x: int
    n_v: int
    n_g: int
    h_tilde: object
    d: OrbitMetric
    A_conn: object
    c: StructureConstants
    orig: object = None

    @property
    def n_h(self) -> int:
        return self.n_x + self.n_v

    @property
    def n_t(self) -> int:
        return self.n_x + self.n_v + self.n_g


def assemble_block_metric(adapted: AdaptedGeometry,
                          point: ChartPoint) -> BlockMetric:
    r"""Full block metric at the group identity, with closed-form inverse.

    The matrix is assembled blockwise from the defining fields,

    .. math::

        G = \begin{pmatrix}
              \tilde h + \mathcal A^{\rm T} d \mathcal A
                & \mathcal A^{\rm T} d \\
              d \mathcal A & d
            \end{pmatrix},

    and the inverse from the congruence factorization,
    ``[[h~^{-1}, -h~^{-1} A^T], [-A h~^{-1}, d^{-1} + A h~^{-1} A^T]]``,
    whose upper-left quadrant is exactly the inverse orbit-space metric.
    ``det = det(h~) det(d)``.
    """
    h_tilde = np.asarray(adapted.h_tilde(point), dtype=float)
    d = np.asarray(adapted.d.d(point), dtype=float)
    a = np.asarray(adapted.A_conn(point), dtype=float)
    n_h, n_g = adapted.n_h, adapted.n_g
    h_inv, det_h = _spd_or_error(h_tilde, "horizontal metric degenerate")
    d_inv, det_d = _spd_or_error(d, "orbit metric degenerate")

    n_t = n_h + n_g
    matrix = np.zeros((n_t, n_t))
    matrix[:n_h, :n_h] = h_tilde + a.T @ d @ a
    matrix[:n_h, n_h:] = a.T @ d
    matrix[n_h:, :n_h] = d @ a
    matrix[n_h:, n_h:] = d

    inverse = np.zeros((n_t, n_t))
    inverse[:n_h, :n_h] = h_inv
    inverse[:n_h, n_h:] = -h_inv @ a.T
    inverse[n_h:, :n_h] = -a @ h_inv
    inverse[n_h:, n_h:] = d_inv + a @ h_inv @ a.T

    return BlockMetric(matrix=matrix, inverse=inverse, det=det_h * det_d,
                       h_tilde=h_tilde, d=d, A=a)


def det_factorization_check(orig: OriginalGeometry,
                            point: ChartPoint) -> float:
    r"""Relative residual of :math:`\det G = \det d \cdot H` at the identity.

    ``H = det(h~)`` is the orbit-space density that also normalizes the
    reduced drift. The left side is evaluated independently through a
    determinant of the assembled matrix.
    """
    adapted = compile_adapted(orig)
    block = assemble_block_metric(adapted, point)
    sign, logdet = np.linalg.slogdet(block.matrix)
    det_direct = sign * np.exp(logdet)
    frame = point_frame(orig, point)
    det_fact = frame.det_d * frame.det_h
    return abs(det_direct - det_fact) / abs(det_direct)


def ambient_partial(func, q, slot: int, fd_step: float = 1e-5,
                    richardson: bool = True):
    """Central-difference partial of a field over bundle coordinates ``Q``.

    The chart machinery differentiates over ``(x, f)`` only; the Killing
    gate and the direct covariant derivative of Killing fields need
    derivatives over ``Q``, which this supplies.
    """
    q = np.asarray(q, dtype=float)
    h = fd_step * (1.0 + abs(float(q[slot])))

    def central(step):
        q_hi = q.copy()
        q_hi[slot] += step
        q_lo = q.copy()
        q_lo[slot] -= step
        return (np.asarray(func(q_hi), dtype=float)
                - np.asarray(func(q_lo), dtype=float)) / (2.0 * step)

    d_h = central(h)
    if not richardson:
        return d_h
    return (4.0 * central(0.5 * h) - d_h) / 3.0


@dataclass(frozen=True)
class OriginalValidity:
    """Sampled-gate report for an OriginalGeometry."""

    killing_residual: float
    section_residual: float
    fp_condition: float
    ok: bool


def validate_original(orig: OriginalGeometry, points,
                      fd_step: float = 1e-5,
                      killing_tol: float = 1e-6,
                      section_tol: float = 1e-10) -> OriginalValidity:
    r"""Sampled validity gates on bundle data.

    Checks at each point: the FD Lie derivative of ``G_P`` along every
    Killing field vanishes, the gauge function vanishes on the section, and
    the Faddeev-Popov matrix is well conditioned. Sampled, not proven;
    scenario construction treats failure as a configuration error.
    """
    worst_k = 0.0
    worst_s = 0.0
    worst_cond = 1.0
    for point in points:
        frame = point_frame(orig, point)
        q = frame.Q
        n_P, n_g = orig.n_P, orig.n_g
        dg = np.stack([ambient_partial(orig.G_P, q, s, fd_step)
                       for s in range(n_P)])          # dg[C, A, B]
        dk = np.stack([ambient_partial(orig.K_P, q, s, fd_step)
                       for s in range(n_P)])          # dk[C, A, alpha]
        for alpha in range(n_g):
            k = frame.K_P[:, alpha]
            grad_k = dk[:, :, alpha]     # grad_k[slot A, component C]
            lie = (np.einsum("c,cab->ab", k, dg)
                   + grad_k @ frame.G_P + frame.G_P @ grad_k.T)
            worst_k = max(worst_k, float(np.max(np.abs(lie))))
        chi_val = np.asarray(orig.chi(q), dtype=float)
        if chi_val.size:
            worst_s = max(worst_s, float(np.max(np.abs(chi_val))))
        if n_g:
            phi = np.asarray(orig.chi_jac(q), dtype=float) @ frame.K_P
            worst_cond = max(worst_cond, float(np.linalg.cond(phi)))
    ok = (worst_k <= killing_tol and worst_s <= section_tol
          and worst_cond <= _PHI_MAX_COND)
    return OriginalValidity(worst_k, worst_s, worst_cond, ok)
