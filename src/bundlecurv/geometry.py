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

Every bundle callable of ``OriginalGeometry`` maps coordinate stacks to
value stacks. Everything at a chart point lives in one ``PointFrame``.
``point_frames`` compiles the frames at the rows of an ``(N, n_x + n_v)``
array of joint chart coordinates in one stacked pass -- one call of each
bundle callable on the stack, the linear algebra on ``(N, ...)`` stacks --
and ``point_frame`` is its one-point case for a ``ChartPoint``. Compiled
frames are read-only and kept in a bounded LRU cache keyed on the
geometry object and the bytes of the coordinates, so a stencil row and
the ``ChartPoint`` at the same coordinates share one frame;
``frame_cache_info`` reports its counters. The chart fields of
``compile_adapted`` (and every other ``frame_field``) hand their rows to
one ``point_frames`` call, so each difference stencil compiles its frames
in one pass.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import (ChartPoint, FieldHandle, NearSingularError,
                     coordinate_partials, invert_spd)
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
    "assemble_block_metric",
    "det_factorization_check",
    "compile_adapted",
    "frame_field",
    "validate_original",
]

_PHI_MAX_COND = 1e12


class _StackCallable:
    """A bundle callable on coordinate stacks, with its result checked.

    Called with ``(N, k)`` coordinate stacks, it returns the ``(N,) +
    shape`` float stack, a fresh array owned by the caller. Any other
    input or result shape raises ``ValueError`` naming the callable.
    """

    def __init__(self, name, func, shape):
        self.__name__ = name
        self.func = func
        self.shape = shape

    def __call__(self, *stacks):
        for stack in stacks:
            if np.ndim(stack) != 2:
                raise ValueError("%s takes (N, k) coordinate stacks, got "
                                 "shape %s" % (self.__name__,
                                               np.shape(stack)))
        value = np.array(self.func(*stacks), dtype=float)
        want = (len(stacks[0]),) + self.shape
        if value.shape != want:
            raise ValueError("%s returned shape %s, expected %s"
                             % (self.__name__, value.shape, want))
        return value


@dataclass(frozen=True, eq=False)
class OriginalGeometry:
    r"""Bundle-side data, all supplied as exact closed-form callables.

    Every callable maps coordinate stacks to value stacks: the ``N`` rows
    of an ``(N, k)`` input give the ``N`` leading entries of the output.
    ``G_P(Q)`` is the ``(N, n_P, n_P)`` metric on the group-extended
    factor at the rows of ``Q`` (``(N, n_P)``), ``G_V`` the constant
    vector-sector metric. ``K_P(Q)`` returns the Killing fields as columns
    of ``(N, n_P, n_g)`` matrices; the vector sector action is linear,
    ``K^a_alpha(f) = (gens[alpha] f)^a``, and ``K_vector`` stacks it.
    ``section(x)`` embeds chart rows into the ``Q``-space, ``(N, n_P)``,
    with analytic Jacobian ``section_jac`` (``(N, n_P, n_x)``); ``chi`` is
    the gauge function vanishing on the section, ``(N, n_g)``, with
    analytic Jacobian ``chi_jac`` (``(N, n_g, n_P)``).

    The optional trailing callables describe the group action on charts
    and are consumed only by the coordinate-basis oracle and by
    scenarios; the builders in this module never touch them.
    ``right_translate(x, a)`` and ``right_translate_jac(x, a)`` give the
    ``(N, n_P)`` bundle point and its ``(N, n_P, n_P)`` Jacobian over
    ``(x, a)``; ``vspace_action(a)`` the ``(N, n_v, n_v)`` action on the
    vector sector and ``vspace_action_d(a)`` its ``(N, n_g, n_v, n_v)``
    derivatives along the group coordinates.

    Construction wraps each callable so that a call checks its input and
    result shapes, naming the callable when one is off.
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
        n_P, n_v, n_g, n_x = self.n_P, self.n_v, self.n_g, self.n_x
        shapes = {"section": (n_P,), "section_jac": (n_P, n_x),
                  "G_P": (n_P, n_P), "K_P": (n_P, n_g), "chi": (n_g,),
                  "chi_jac": (n_g, n_P), "right_translate": (n_P,),
                  "right_translate_jac": (n_P, n_P),
                  "vspace_action": (n_v, n_v),
                  "vspace_action_d": (n_g, n_v, n_v)}
        for name, shape in shapes.items():
            func = getattr(self, name)
            if isinstance(func, _StackCallable):   # dataclasses.replace
                func = func.func
            if func is not None:
                object.__setattr__(self, name,
                                   _StackCallable(name, func, shape))

    @property
    def n_x(self) -> int:
        return self.n_P - self.n_g

    @property
    def n_h(self) -> int:
        return self.n_x + self.n_v

    def K_vector(self, f) -> np.ndarray:
        """Vector-sector Killing components at the rows of an ``(N, n_v)``
        stack: ``(N, n_v, n_g)``, columns over the orbit index."""
        f = np.asarray(f, dtype=float)
        if f.ndim != 2:
            raise ValueError("K_vector takes an (N, n_v) stack, got shape %s"
                             % (f.shape,))
        return np.einsum("mab,nb->nam", self.gens, f)


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
    r"""Everything compiled at one chart point (cached).

    ``Q`` and ``Q_jac`` are the section point ``Q*(x)`` and its Jacobian;
    ``G_P``, ``K_P`` and ``K_V`` the bundle metric and the Killing fields
    there. The orbit metric and its additive pieces,

    .. math::

        d_{\mu\nu} = \gamma_{\mu\nu} + \gamma'_{\mu\nu}
            = G_{AB}K^A_\mu K^B_\nu + G_{ab}K^a_\mu K^b_\nu,

    are ``d`` (with ``d_inv`` and ``det_d``), ``gamma`` and
    ``gamma_prime``; a degenerate ``d`` raises, the working witness that
    the group action stopped being free. The mechanical connection,

    .. math::

        \mathcal A^\alpha_i = d^{\alpha\beta} K^C_\beta G_{DC} Q^{*D}_i,
        \qquad
        \mathcal A^\alpha_c = d^{\alpha\beta} K^a_\beta G_{ac},

    is ``A``, the ``(n_g, n_x + n_v)`` matrix with the base columns
    :math:`\mathcal A^\alpha_i` first; ``A_gamma`` is the
    base-sector variant with :math:`\gamma^{\mu\nu}` in place of
    :math:`d^{\alpha\beta}`, which the inverse-metric and drift formulas
    use. The horizontal metric ``Gt_H`` is the joint metric on
    ``P (+) V`` minus its orbit components,

    .. math::

        \tilde G^{\rm H} = G - G K d^{-1} K^{\rm T} G;

    pulled back through the section Jacobian on the ``P`` legs it gives
    the blocks ``h`` and the joint ``h_tilde`` (with ``h_tilde_inv`` and
    ``det_h``). ``GH_P`` and ``h.h_base`` (inverse ``h_base_inv``) are the
    analogous base-only reduction of ``G_P`` built with ``gamma``.
    ``projectors`` holds the projector family; see ``Projectors``.
    """

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
    A: np.ndarray
    A_gamma: np.ndarray
    Gt_H: np.ndarray
    GH_P: np.ndarray
    h: HorizontalMetric
    h_tilde: np.ndarray
    h_tilde_inv: np.ndarray
    det_h: float
    h_base_inv: np.ndarray
    projectors: Projectors


def _spd_or_error(matrix, what, xs=None, fs=None):
    """``invert_spd`` with ``what`` prefixed to its error; on a stack of
    frames the error names the chart row ``xs[i], fs[i]`` that failed."""
    try:
        return invert_spd(matrix)
    except NearSingularError as exc:
        where = ""
        if exc.index is not None:
            where = " at x=%s f=%s" % (xs[exc.index].tolist(),
                                       fs[exc.index].tolist())
        raise NearSingularError("%s%s: %s" % (what, where, exc.reason)) \
            from exc


def _compute_frames(orig: OriginalGeometry, zs) -> list:
    """Compile the frames at the rows of ``zs`` in one pass.

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates. The
    bundle callables run once each on the whole stack; all the linear
    algebra then runs on ``(N, ...)`` stacks, matrix by matrix with the
    arithmetic of a single point, so a frame is bit-identical whatever
    stack it was compiled in. Every gate runs at every row; the first
    gate, in frame order, that fails at any row raises.
    """
    n_P, n_v, n_g = orig.n_P, orig.n_v, orig.n_g
    xs, fs = zs[:, :orig.n_x], zs[:, orig.n_x:]
    q = orig.section(xs)
    q_jac = orig.section_jac(xs)
    g_p = orig.G_P(q)
    k_p = orig.K_P(q)
    k_v = orig.K_vector(fs)
    chi_jac = orig.chi_jac(q)
    q_jac_t, k_v_t = q_jac.swapaxes(1, 2), k_v.swapaxes(1, 2)

    g_p_inv, _ = _spd_or_error(g_p, "bundle metric not positive definite",
                               xs, fs)
    kt_g = k_p.swapaxes(1, 2) @ g_p
    gamma = kt_g @ k_p
    gamma_prime = k_v_t @ orig.G_V @ k_v
    d = gamma + gamma_prime
    d_inv, det_d = _spd_or_error(
        d, "orbit metric degenerate (group action not free here)", xs, fs)

    # mechanical connection: full-d version on both sectors, gamma version
    # on the base sector only
    kg_q = kt_g @ q_jac                     # K^C G_{DC} Q*^D_i
    a_base = d_inv @ kg_q
    a_vector = d_inv @ (k_v_t @ orig.G_V)
    a_joint = np.concatenate([a_base, a_vector], axis=2)    # base first
    if n_g:
        gamma_inv, _ = _spd_or_error(
            gamma, "bundle-side orbit metric gamma degenerate", xs, fs)
    else:
        gamma_inv = gamma.copy()
    a_gamma = gamma_inv @ kg_q

    # horizontal metric: project out orbit directions from the joint metric
    g_full = np.zeros((len(zs), n_P + n_v, n_P + n_v))
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
        h_tilde, "horizontal metric degenerate", xs, fs)
    h_base_inv, _ = _spd_or_error(h_base, "reduced base metric degenerate",
                                  xs, fs)

    # projectors
    if n_g:
        phi = chi_jac @ k_p
        singular = np.linalg.cond(phi) > _PHI_MAX_COND
        if singular.any():
            raise NearSingularError(
                "Faddeev-Popov matrix near singular: section not "
                "transversal to the orbits at x=%s"
                % (xs[int(np.argmax(singular))].tolist(),))
        lam = np.linalg.solve(phi, chi_jac)
    else:
        lam = np.zeros((len(zs), 0, n_P))
    n_full = np.zeros((len(zs), n_P + n_v, n_P + n_v))
    n_full[:, :n_P, :n_P] = np.eye(n_P) - k_p @ lam
    n_full[:, n_P:, :n_P] = -k_v @ lam
    n_full[:, n_P:, n_P:] = np.eye(n_v)

    pi_tilde = np.eye(n_P + n_v) - k_full @ d_inv @ gk_t
    t_op = h_base_inv @ q_jac_t @ gh_p

    # frames are cached and shared by every later lookup of the point, so
    # their arrays are read-only
    (q, q_jac, g_p, g_p_inv, k_p, k_v, gamma, gamma_prime, d, d_inv, a_joint,
     a_gamma, gt_h, gh_p, h_xx, h_xv, h_vv, h_base, h_tilde, h_tilde_inv,
     h_base_inv, pi_tilde, n_full, t_op, lam) = (
        _frame_arrays(stack, len(zs) == 1) for stack in (
            q, q_jac, g_p, g_p_inv, k_p, k_v, gamma, gamma_prime, d, d_inv,
            a_joint, a_gamma, gt_h, gh_p, h_xx, h_xv, h_vv, h_base, h_tilde,
            h_tilde_inv, h_base_inv, pi_tilde, n_full, t_op, lam))
    return [PointFrame(
        Q=q[i], Q_jac=q_jac[i], G_P=g_p[i], G_P_inv=g_p_inv[i],
        K_P=k_p[i], K_V=k_v[i], gamma=gamma[i], gamma_prime=gamma_prime[i],
        d=d[i], d_inv=d_inv[i], det_d=float(det_d[i]),
        A=a_joint[i], A_gamma=a_gamma[i],
        Gt_H=gt_h[i], GH_P=gh_p[i],
        h=HorizontalMetric(h_xx[i], h_xv[i], h_vv[i], h_base[i]),
        h_tilde=h_tilde[i], h_tilde_inv=h_tilde_inv[i],
        det_h=float(det_h[i]), h_base_inv=h_base_inv[i],
        projectors=Projectors(Pi_tilde=pi_tilde[i], N=n_full[i], T=t_op[i],
                              Lambda=lam[i], n_P=n_P))
        for i in range(len(zs))]


def _frame_arrays(stack, single):
    """The read-only per-frame arrays of a compiled stack.

    In a stack of frames they are views of the frozen stack. A lone frame
    gets an owned copy instead, so that it keeps no one-row stack alive
    behind a view.
    """
    if single:
        row = stack[0].copy()
        row.setflags(write=False)
        return [row]
    stack.setflags(write=False)
    return stack


class _FrameCache:
    """Bounded LRU of compiled frames with hit and compile counters.

    Keys are the geometry object itself and the bytes of the joint chart
    coordinates of a point, ``x`` first. A geometry hashes by identity, so
    a cached frame keeps its geometry alive and two geometries never share
    a frame. Lookups are not locked: verification runs on one thread.
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
        """Compile the frames at the rows of ``missing`` (key -> row) in one
        stacked call, cache them, and return them in the order of
        ``missing``."""
        self.misses += len(missing)
        self.compiles += 1
        frames = _compute_frames(orig, np.array(list(missing.values())))
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


def point_frames(orig: OriginalGeometry, zs) -> list:
    """Frames at the rows of ``zs``, every cache miss compiled in one call.

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates;
    returns one frame per row, in order. A row repeated in ``zs``
    compiles once, and every compiled frame enters the cache, so later
    lookups of the same coordinates -- rows here, or a ``ChartPoint`` in
    ``point_frame`` -- are hits.
    """
    zs = np.asarray(zs, dtype=float)
    keys = [(orig, z.tobytes()) for z in zs]
    found = {}
    missing = {}
    for key, z in zip(keys, zs):
        if key in found:
            _FRAMES.hits += 1
            continue
        found[key] = _FRAMES.get(key)
        if found[key] is None:
            missing[key] = z
    if missing:
        found.update(zip(missing, _FRAMES.compile(orig, missing)))
    return [found[key] for key in keys]


def point_frame(orig: OriginalGeometry, point: ChartPoint) -> PointFrame:
    """Cached per-point evaluation hub: a cache lookup, and on a miss the
    one-point case of the stacked compile."""
    coords = point.coords
    key = (orig, coords.tobytes())
    frame = _FRAMES.get(key)
    if frame is None:
        frame = _FRAMES.compile(orig, {key: coords})[0]
    return frame


def frame_field(orig: OriginalGeometry, name, value,
                arity="matrix") -> FieldHandle:
    """The chart field ``value(frame)``, named ``name``.

    On a stack of rows it reads every frame from one ``point_frames``
    call, so a stencil compiles its missing frames in one stacked pass,
    and stacks ``value`` of each frame.
    """
    def evaluate(zs):
        return np.array([value(frame) for frame in point_frames(orig, zs)])

    evaluate.__name__ = name
    return FieldHandle(evaluate, arity)


def compile_adapted(orig: OriginalGeometry) -> "AdaptedGeometry":
    """Wrap the builders into chart fields, each read from the frames."""
    orbit = OrbitMetric(
        d=frame_field(orig, "d", lambda fr: fr.d),
        d_inv=frame_field(orig, "d_inv", lambda fr: fr.d_inv))
    return AdaptedGeometry(
        n_x=orig.n_x, n_v=orig.n_v, n_g=orig.n_g,
        h_tilde=frame_field(orig, "h_tilde", lambda fr: fr.h_tilde),
        d=orbit,
        A_conn=frame_field(orig, "A_conn", lambda fr: fr.A),
        c=orig.c, orig=orig)


@dataclass(frozen=True)
class AdaptedGeometry:
    r"""The universal input of the curvature and Jacobian operations.

    ``h_tilde`` is the horizontal metric over the joint ``(x, f)`` chart,
    ``d`` the orbit metric with inverse, ``A_conn`` the connection
    components as an ``(n_g, n_x+n_v)`` matrix; each of them, and each of
    the two fields of ``d``, is a ``FieldHandle``. ``orig`` is kept when
    the geometry was compiled from bundle data; operations that need the
    bundle side (projector identities, drift in gauge form) require it.
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
    frames = point_frames(orig, [p.coords for p in points])
    worst_k = 0.0
    for frame in frames:
        dg = coordinate_partials(orig.G_P, frame.Q, fd_step)  # dg[C, A, B]
        dk = coordinate_partials(orig.K_P, frame.Q, fd_step)  # dk[C, A, alpha]
        for alpha in range(orig.n_g):
            k = frame.K_P[:, alpha]
            grad_k = dk[:, :, alpha]     # grad_k[slot A, component C]
            lie = (np.einsum("c,cab->ab", k, dg)
                   + grad_k @ frame.G_P + frame.G_P @ grad_k.T)
            worst_k = max(worst_k, float(np.max(np.abs(lie))))
    qs = np.array([frame.Q for frame in frames]).reshape(-1, orig.n_P)
    chi_val = orig.chi(qs)
    worst_s = float(np.max(np.abs(chi_val))) if chi_val.size else 0.0
    worst_cond = 1.0
    if orig.n_g and frames:
        phi = orig.chi_jac(qs) @ np.array([frame.K_P for frame in frames])
        worst_cond = max(worst_cond, float(np.max(np.linalg.cond(phi))))
    ok = (worst_k <= killing_tol and worst_s <= section_tol
          and worst_cond <= _PHI_MAX_COND)
    return OriginalValidity(worst_k, worst_s, worst_cond, ok)
