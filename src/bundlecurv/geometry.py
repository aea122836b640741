r"""Compile bundle data into the adapted block metric.

The input is an ``OriginalGeometry``: a metric on the bundle total space
(``G_P`` over the group-extended coordinates ``Q``, plus a constant vector
sector ``G_V``), the Killing fields of the group action, the representation
generators acting on the vector sector, a local section ``Q*(x)``, and a
gauge function whose zero level picks the section out. From this the module
builds, at the rows of a stack of chart points:

* the orbit metric ``d = gamma(x) + gamma'(f)`` with its inverse,
* the mechanical-connection components ``A^alpha_i``, ``A^alpha_a`` and the
  base-only variant built with ``gamma`` instead of ``d``,
* the horizontal metric blocks ``h~`` and the inverse of the base-only
  ``h``,
* the Faddeev-Popov pieces of the gauge projector (``Lambda`` and
  ``N_vP``),
* the full block metric with closed-form inverse and determinant
  factorization.

All group-dependent quantities are evaluated at the group identity; the
identities verified downstream are functions on the orbit space, so nothing
is lost, and the coordinate-basis oracle reintroduces group coordinates
independently.

Every bundle callable of ``OriginalGeometry`` maps coordinate stacks to
value stacks, row by row, and so does the frame compile. ``point_frames``
compiles the ``FrameStack`` at the rows of an ``(N, n_x + n_v)`` array of
joint chart coordinates in one pass -- one call of each bundle callable
on the distinct base rows ``x`` of the stack, the linear algebra on
``(N, ...)`` stacks -- and ``point_frame`` is its one-row case for a
``ChartPoint``. A compiled stack is read-only and kept whole, keyed on
the shape and bytes of the coordinates, in the geometry's memo of the
stacks around one chart point, so a repeated stencil at the point
compiles nothing; ``frame_cache_info(orig)`` reports its counters. The
chart fields of ``compile_adapted`` (and every other ``frame_field``)
map a stencil's ``FrameStack`` to the stack of their values.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .fields import (ChartPoint, ConfigError, FieldHandle,
                     NearSingularError, _distinct_rows, coordinate_partials,
                     invert_spd)
from .liecore import (OrbitMetric, StructureConstants,
                      validate_structure_constants)

__all__ = [
    "OriginalGeometry",
    "AdaptedGeometry",
    "BlockMetric",
    "FrameStack",
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
    The row contract: entry ``i`` of the output depends on row ``i`` of
    the input alone, and equals byte for byte the callable's value on
    that row as a one-row stack, whatever else the stack holds. The
    frame compile and the coordinate oracle rely on it to call each
    callable once per distinct row and gather; ``validate_original``
    checks it at its probe rows.
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

    Construction inverts ``G_V`` once, into the read-only ``G_V_inv``,
    wraps each callable so that a call checks its input and result
    shapes, naming the callable when one is off, and gives the geometry
    an empty frame memo of its own (see ``_FrameMemo``).
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
    G_V_inv: np.ndarray = field(init=False, repr=False)

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
        g_v_inv, _ = invert_spd(g_v)
        g_v_inv.setflags(write=False)
        object.__setattr__(self, "G_V", g_v)
        object.__setattr__(self, "G_V_inv", g_v_inv)
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
        object.__setattr__(self, "_frames", _FrameMemo())

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
class BlockMetric:
    """Full adapted block metric at the group identity."""

    matrix: np.ndarray
    inverse: np.ndarray
    det: float


@dataclass(frozen=True, eq=False)
class FrameStack:
    r"""Everything compiled at the ``N`` rows of one chart-coordinate stack.

    Every field is a read-only ``(N, ...)`` array, one leading entry per
    row. ``Q`` and ``Q_jac`` are the section point ``Q*(x)`` and its
    Jacobian; ``G_P`` (inverse ``G_P_inv``), ``K_P`` and ``K_V`` the
    bundle metric and the Killing fields there. The orbit metric,

    .. math::

        d_{\mu\nu} = \gamma_{\mu\nu} + \gamma'_{\mu\nu}
            = G_{AB}K^A_\mu K^B_\nu + G_{ab}K^a_\mu K^b_\nu,

    is ``d`` (with ``d_inv`` and ``det_d``); ``gamma_inv`` inverts its
    bundle-side part :math:`\gamma`. A degenerate ``d`` raises, the
    working witness that the group action stopped being free. The
    mechanical connection,

    .. math::

        \mathcal A^\alpha_i = d^{\alpha\beta} K^C_\beta G_{DC} Q^{*D}_i,
        \qquad
        \mathcal A^\alpha_c = d^{\alpha\beta} K^a_\beta G_{ac},

    is ``A``, ``(N, n_g, n_x + n_v)`` with the base columns
    :math:`\mathcal A^\alpha_i` first; ``A_gamma`` is the base-sector
    variant with :math:`\gamma^{\mu\nu}` in place of
    :math:`d^{\alpha\beta}`, which the inverse-metric and drift formulas
    use. The horizontal metric ``Gt_H`` is the joint metric on
    ``P (+) V`` minus its orbit components,

    .. math::

        \tilde G^{\rm H} = G - G K d^{-1} K^{\rm T} G;

    pulled back through the section Jacobian on the ``P`` legs it gives
    the blocks ``h_xx``, ``h_xv``, ``h_vv`` of the joint ``h_tilde``
    (with ``h_tilde_inv`` and ``det_h``). ``GH_P`` is the analogous
    base-only reduction of ``G_P`` built with ``gamma``, and
    ``h_base_inv`` the inverse of its pullback. ``Lambda`` is
    :math:`\Phi^{-1}\partial\chi` with the Faddeev-Popov matrix
    :math:`\Phi = \partial\chi\, K_P`, and ``N_vP = -K_V Lambda`` the
    vector-by-bundle block of the gauge projector.
    """

    Q: np.ndarray
    Q_jac: np.ndarray
    G_P: np.ndarray
    G_P_inv: np.ndarray
    K_P: np.ndarray
    K_V: np.ndarray
    gamma_inv: np.ndarray
    d: np.ndarray
    d_inv: np.ndarray
    det_d: np.ndarray
    A: np.ndarray
    A_gamma: np.ndarray
    Gt_H: np.ndarray
    GH_P: np.ndarray
    h_xx: np.ndarray
    h_xv: np.ndarray
    h_vv: np.ndarray
    h_tilde: np.ndarray
    h_tilde_inv: np.ndarray
    det_h: np.ndarray
    h_base_inv: np.ndarray
    Lambda: np.ndarray
    N_vP: np.ndarray

    def __post_init__(self):
        # a stack is stored and shared by every later lookup of its rows
        for array in vars(self).values():
            array.setflags(write=False)


def _spd_or_error(matrix, what, xs, fs):
    """``invert_spd`` on a stack of frames, with ``what`` and the chart row
    ``xs[i], fs[i]`` that failed prefixed to its error."""
    try:
        return invert_spd(matrix)
    except NearSingularError as exc:
        raise NearSingularError("%s at x=%s f=%s: %s" % (
            what, xs[exc.index].tolist(), fs[exc.index].tolist(),
            exc.reason)) from exc


def _compute_frames(orig: OriginalGeometry, zs):
    """Compile the frame stack at the rows of ``zs`` in one pass.

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates.
    Returns the ``FrameStack`` and the number of distinct base rows. The
    base-only half of the frames -- the bundle callables at the section
    point ``Q*(x)``, the inverses of ``G_P`` and ``gamma``, the base-sector
    connection, ``GH_P`` with its pullback's inverse and the Faddeev-Popov
    solve -- runs once per distinct base row ``x`` and is gathered to
    every row; what depends on ``f`` runs on the whole stack. All the
    linear algebra runs on ``(N, ...)`` stacks, matrix by matrix with the
    arithmetic of a single point, so a row is bit-identical whatever
    stack it was compiled in. Every gate runs at every row; the first
    gate, in frame order, that fails at any row raises, naming the first
    row it fails at.
    """
    n_P, n_v, n_g, n_x = orig.n_P, orig.n_v, orig.n_g, orig.n_x
    xs, fs = zs[:, :n_x], zs[:, n_x:]
    _, first, base = _distinct_rows(xs)
    # the first row of each distinct base row; ``[base]`` gathers a
    # base-only stack to every row
    zs_b = zs[first]
    xs_b, fs_b = zs_b[:, :n_x], zs_b[:, n_x:]
    q = orig.section(xs_b)
    q_jac = orig.section_jac(xs_b)
    g_p = orig.G_P(q)
    k_p = orig.K_P(q)
    chi_jac = orig.chi_jac(q)

    g_p_inv, _ = _spd_or_error(g_p, "bundle metric not positive definite",
                               xs_b, fs_b)
    kt_g = k_p.swapaxes(1, 2) @ g_p
    gamma = kt_g @ k_p
    kg_q = kt_g @ q_jac                     # K^C G_{DC} Q*^D_i
    q_jac_all, g_p_all, k_p_all = q_jac[base], g_p[base], k_p[base]

    k_v = orig.K_vector(fs)
    k_v_t = k_v.swapaxes(1, 2)
    d = gamma[base] + k_v_t @ orig.G_V @ k_v
    d_inv, det_d = _spd_or_error(
        d, "orbit metric degenerate (group action not free here)", xs, fs)

    # mechanical connection: full-d version on both sectors, gamma version
    # on the base sector only
    a_base = d_inv @ kg_q[base]
    a_vector = d_inv @ (k_v_t @ orig.G_V)
    a_joint = np.concatenate([a_base, a_vector], axis=2)    # base first
    if n_g:
        gamma_inv, _ = _spd_or_error(
            gamma, "bundle-side orbit metric gamma degenerate", xs_b, fs_b)
    else:
        gamma_inv = gamma.copy()
    a_gamma = gamma_inv @ kg_q

    # horizontal metric: project out orbit directions from the joint metric
    g_full = np.zeros((len(zs), n_P + n_v, n_P + n_v))
    g_full[:, :n_P, :n_P] = g_p_all
    g_full[:, n_P:, n_P:] = orig.G_V
    k_full = np.concatenate([k_p_all, k_v], axis=1)
    gk = g_full @ k_full
    gt_h = g_full - gk @ d_inv @ gk.swapaxes(1, 2)
    gh_p = g_p - (g_p @ k_p) @ gamma_inv @ kt_g

    q_jac_t = q_jac_all.swapaxes(1, 2)
    h_xx = q_jac_t @ gt_h[:, :n_P, :n_P] @ q_jac_all
    h_xv = q_jac_t @ gt_h[:, :n_P, n_P:]
    h_vv = gt_h[:, n_P:, n_P:]
    h_base = q_jac.swapaxes(1, 2) @ gh_p @ q_jac
    h_tilde = np.concatenate(
        [np.concatenate([h_xx, h_xv], axis=2),
         np.concatenate([h_xv.swapaxes(1, 2), h_vv], axis=2)], axis=1)
    h_tilde_inv, det_h = _spd_or_error(
        h_tilde, "horizontal metric degenerate", xs, fs)
    h_base_inv, _ = _spd_or_error(h_base, "reduced base metric degenerate",
                                  xs_b, fs_b)

    # gauge projector pieces
    if n_g:
        phi = chi_jac @ k_p
        singular = np.linalg.cond(phi) > _PHI_MAX_COND
        if singular.any():
            raise NearSingularError(
                "Faddeev-Popov matrix near singular: section not "
                "transversal to the orbits at x=%s"
                % (xs_b[int(np.argmax(singular))].tolist(),))
        lam = np.linalg.solve(phi, chi_jac)[base]
    else:
        lam = np.zeros((len(zs), 0, n_P))

    return FrameStack(
        Q=q[base], Q_jac=q_jac_all, G_P=g_p_all, G_P_inv=g_p_inv[base],
        K_P=k_p_all, K_V=k_v, gamma_inv=gamma_inv[base],
        d=d, d_inv=d_inv, det_d=det_d, A=a_joint, A_gamma=a_gamma[base], Gt_H=gt_h,
        GH_P=gh_p[base], h_xx=h_xx, h_xv=h_xv, h_vv=h_vv, h_tilde=h_tilde,
        h_tilde_inv=h_tilde_inv, det_h=det_h,
        h_base_inv=h_base_inv[base], Lambda=lam, N_vP=-k_v @ lam), \
        len(first)


class _FrameMemo:
    """A geometry's compiled frame stacks around one chart point.

    Each stack is kept whole under the shape and bytes of its rows, so it
    is served only to a lookup of exactly its rows. Every stencil lists
    its centre first, so a lookup whose row 0 is another point drops the
    held stacks: returning to an earlier point compiles it again. Lookups
    are not locked: verification runs on one thread.
    """

    def __init__(self):
        self.centre = None
        self.stacks = {}
        self.hits = self.misses = self.compiles = self.base_rows = 0

    def lookup(self, orig, zs):
        """The frame stack at the rows of ``zs``, compiled on a miss."""
        centre = zs[:1].tobytes()
        if centre != self.centre:
            self.centre, self.stacks = centre, {}
        key = (zs.shape, zs.tobytes())
        frames = self.stacks.get(key)
        if frames is not None:
            self.hits += 1
            return frames
        frames, base_rows = _compute_frames(orig, zs)
        self.misses += len(zs)
        self.base_rows += base_rows
        self.compiles += 1
        self.stacks[key] = frames
        return frames


FrameCacheInfo = namedtuple("FrameCacheInfo",
                            "hits misses compiles currsize base_rows")


def frame_cache_info(orig: OriginalGeometry) -> FrameCacheInfo:
    """Counters of the frame memo of ``orig``: lookups served from it
    (``hits``), rows compiled (``misses``), stacked compile calls
    (``compiles``), the rows it holds now (``currsize``) and the distinct
    base rows the bundle callables ran on in the compiles
    (``base_rows``)."""
    memo = orig._frames
    return FrameCacheInfo(memo.hits, memo.misses, memo.compiles,
                          sum(shape[0] for shape, _ in memo.stacks),
                          memo.base_rows)


def point_frames(orig: OriginalGeometry, zs) -> FrameStack:
    """The frame stack at the rows of ``zs``, compiled in one call on a miss.

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates; row
    ``i`` of every field of the result belongs to row ``i`` of ``zs``.
    The stack is kept whole in the frame memo of ``orig``, so a later
    lookup of the same rows in the same order compiles nothing until a
    lookup centred on another point.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != orig.n_h:
        raise ValueError("point_frames takes an (N, %d) coordinate stack, "
                         "got shape %s" % (orig.n_h, zs.shape))
    return orig._frames.lookup(orig, zs)


def point_frame(orig: OriginalGeometry, point: ChartPoint) -> FrameStack:
    """The one-row frame stack at ``point``: ``point_frames`` on its
    coordinates. Callers read row 0 of its fields."""
    return point_frames(orig, point.coords[None])


def frame_field(orig: OriginalGeometry, name, value,
                arity="matrix") -> FieldHandle:
    """The chart field ``value(frames)``, named ``name``.

    ``value`` maps the ``FrameStack`` of a stack of rows to the ``(N,
    ...)`` stack of the field there, so a stencil reads its frames from
    one ``point_frames`` call.
    """
    def evaluate(zs):
        return value(point_frames(orig, zs))

    evaluate.__name__ = name
    return FieldHandle(evaluate, arity)


def compile_adapted(orig: OriginalGeometry) -> "AdaptedGeometry":
    """Wrap the frame stacks into chart fields."""
    orbit = OrbitMetric(
        d=frame_field(orig, "d", lambda fs: fs.d),
        d_inv=frame_field(orig, "d_inv", lambda fs: fs.d_inv),
        det_d=frame_field(orig, "det_d", lambda fs: fs.det_d, "scalar"))
    return AdaptedGeometry(
        n_x=orig.n_x, n_v=orig.n_v, n_g=orig.n_g,
        h_tilde=frame_field(orig, "h_tilde", lambda fs: fs.h_tilde),
        h_tilde_inv=frame_field(orig, "h_tilde_inv",
                                lambda fs: fs.h_tilde_inv),
        det_h=frame_field(orig, "det_h", lambda fs: fs.det_h, "scalar"),
        d=orbit,
        A_conn=frame_field(orig, "A_conn", lambda fs: fs.A),
        c=orig.c, orig=orig)


@dataclass(frozen=True)
class AdaptedGeometry:
    r"""The universal input of the curvature and Jacobian operations.

    ``h_tilde`` is the horizontal metric over the joint ``(x, f)`` chart,
    ``h_tilde_inv`` its inverse and ``det_h`` its determinant, ``d`` the
    orbit metric with inverse and determinant, ``A_conn`` the connection
    components as an ``(n_g, n_x+n_v)`` matrix; each of them, and each of
    the three fields of ``d``, is a ``FieldHandle``. Each inverse and
    determinant is computed once, where its matrix is built (on bundle
    data, in the frame compile), and read from its field by every formula
    that needs it. ``orig`` is kept when the geometry was compiled from
    bundle data; operations that need the bundle side (projector
    identities, drift in gauge form) require it.
    """

    n_x: int
    n_v: int
    n_g: int
    h_tilde: object
    h_tilde_inv: object
    det_h: object
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
    ``det = det(h~) det(d)``. The inverses and determinants are read from
    the geometry's fields.
    """
    h_tilde = np.asarray(adapted.h_tilde(point), dtype=float)
    d = np.asarray(adapted.d.d(point), dtype=float)
    a = np.asarray(adapted.A_conn(point), dtype=float)
    h_inv = np.asarray(adapted.h_tilde_inv(point), dtype=float)
    d_inv = np.asarray(adapted.d.d_inv(point), dtype=float)
    det_h = float(adapted.det_h(point))
    det_d = float(adapted.d.det_d(point))
    n_h, n_g = adapted.n_h, adapted.n_g

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

    return BlockMetric(matrix=matrix, inverse=inverse, det=det_h * det_d)


def det_factorization_check(block: BlockMetric) -> float:
    r"""Relative residual of :math:`\det G = \det d \cdot H` at the identity.

    ``block`` is the ``assemble_block_metric`` of a point. ``H = det(h~)``
    is the orbit-space density that also normalizes the reduced drift.
    The left side is evaluated independently through a determinant of the
    assembled matrix; the right side is the block metric's ``det``, the
    product of the frame compile's determinants.
    """
    sign, logdet = np.linalg.slogdet(block.matrix)
    det_direct = sign * np.exp(logdet)
    return abs(det_direct - block.det) / abs(det_direct)


@dataclass(frozen=True)
class OriginalValidity:
    """Sampled-gate report for an OriginalGeometry; ``bracket_pair`` is
    the ``(alpha, beta)`` of ``bracket_residual``, () without a group."""

    killing_residual: float
    section_residual: float
    fp_condition: float
    bracket_residual: float
    bracket_pair: tuple
    constants_valid: bool
    ok: bool


def _check_row_contract(orig: OriginalGeometry, probes) -> None:
    """Raise ``ConfigError`` naming the first bundle callable of
    ``probes`` (name to input stacks) whose stacked value at a row differs
    from its one-row call there in any byte."""
    for name, stacks in probes.items():
        func = getattr(orig, name)
        if func is None:
            continue
        stacked = func(*stacks)
        for i in range(len(stacks[0])):
            row = func(*(stack[i:i + 1] for stack in stacks))
            if row.tobytes() != stacked[i:i + 1].tobytes():
                raise ConfigError(
                    "%s breaks the row contract: its row %d on a stack of "
                    "%d differs from its one-row call" % (name, i,
                                                          len(stacks[0])))


def validate_original(orig: OriginalGeometry, points,
                      fd_step: float = 1e-5,
                      killing_tol: float = 1e-6,
                      section_tol: float = 1e-10,
                      group_points=None) -> OriginalValidity:
    r"""Sampled validity gates on bundle data.

    First the row contract: on the probe stack of ``points`` every bundle
    callable must give each row byte for byte its one-row value, or
    ``ConfigError`` names it. ``group_points``, when given, holds one
    ``(n_g,)`` group-coordinate row per point; the group-chart callables
    are then probed at them, and ``G_P`` also at the translated points
    ``right_translate(x, a)`` the coordinate oracle reads. Then, at each
    point: the FD Lie derivative of ``G_P`` along every Killing field
    vanishes, and so does :math:`[K_\alpha, K_\beta] -
    c^\gamma_{\alpha\beta} K_\gamma` (``[X, Y] = X.grad Y - Y.grad X``,
    on the vector sector ``gens_b gens_a - gens_a gens_b``); ``orig.c``
    passes ``validate_structure_constants``; the gauge function vanishes on
    the section; and the Faddeev-Popov matrix is well conditioned.
    Sampled, not proven; scenario construction treats failure as a
    configuration error.
    """
    zs = np.reshape([p.coords for p in points], (-1, orig.n_h))
    xs = zs[:, :orig.n_x]
    qs = orig.section(xs)
    probes = {"section": (xs,), "section_jac": (xs,), "G_P": (qs,),
              "K_P": (qs,), "chi": (qs,), "chi_jac": (qs,)}
    if group_points is not None:
        a = np.reshape(np.asarray(group_points, dtype=float),
                       (len(zs), orig.n_g))
        probes.update(right_translate=(xs, a), right_translate_jac=(xs, a),
                      vspace_action=(a,), vspace_action_d=(a,))
        if orig.right_translate is not None:
            probes["G_P"] = (np.concatenate([qs,
                                             orig.right_translate(xs, a)]),)
    _check_row_contract(orig, probes)

    frames = point_frames(orig, zs)
    c, gens = orig.c.c, orig.gens
    products = np.einsum("bij,ajk->abik", gens, gens)   # [a, b] gens_b gens_a
    bracket = np.abs(products - products.swapaxes(0, 1) - np.einsum(
        "gab,gij->abij", c, gens)).max(axis=(2, 3), initial=0.0)
    worst_k = 0.0
    for q, k_p, g_p in zip(frames.Q, frames.K_P, frames.G_P):
        dg = coordinate_partials(orig.G_P, q, fd_step)  # dg[C, A, B]
        dk = coordinate_partials(orig.K_P, q, fd_step)  # dk[C, A, alpha]
        lie = (np.einsum("ca,cpq->apq", k_p, dg)   # [a, p, q] L_{K_a} G_P
               + np.einsum("pra,rq->apq", dk, g_p)
               + np.einsum("pr,qra->apq", g_p, dk))
        worst_k = np.maximum(worst_k, np.abs(lie).max(initial=0.0))
        flow = np.einsum("ca,cpb->pab", k_p, dk)   # [p, a, b] K_a . grad K_b
        closure = (flow - flow.swapaxes(1, 2)
                   - np.einsum("gab,pg->pab", c, k_p))
        bracket = np.maximum(bracket,
                             np.abs(closure).max(axis=0, initial=0.0))
    worst_b = float(bracket.max(initial=0.0))
    pair = divmod(int(np.argmax(bracket)), orig.n_g) if orig.n_g else ()
    constants_valid = validate_structure_constants(orig.c).valid
    chi_val = orig.chi(frames.Q)
    worst_s = float(np.max(np.abs(chi_val))) if chi_val.size else 0.0
    worst_cond = 1.0
    if orig.n_g and len(frames.Q):
        phi = orig.chi_jac(frames.Q) @ frames.K_P
        worst_cond = max(worst_cond, float(np.max(np.linalg.cond(phi))))
    ok = (worst_k <= killing_tol and worst_s <= section_tol
          and worst_cond <= _PHI_MAX_COND and worst_b <= killing_tol
          and constants_valid)
    return OriginalValidity(float(worst_k), worst_s, worst_cond, worst_b,
                            pair, constants_valid, ok)
