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
``ChartPoint``. Each call compiles; nothing is kept between calls. The
checks of the points of one call share their compiled stacks through
the record of those points (``curvature.PointTerms``), which reads the
frames of all their first-derivative stencils in one call and those of
each point's nested stencil in one call per point.

The curvature, Jacobian and SDE formulas take the seven arrays of the
adapted metric -- ``A``, ``h_tilde``, ``h_tilde_inv``, ``det_h``, ``d``,
``d_inv`` and ``det_d`` -- from an ``AdaptedGeometry``, whose one
``frames`` callable hands out all seven at the rows of a stack; on
bundle data it is ``point_frames``, whose ``FrameStack`` carries them
under these names. ``frames_at`` is the one reader: one ``frames`` call
per stencil, its result checked by ``check_frames`` for shape and
finiteness.

``section_partials`` is the one section stencil, over a stack of
section points; the gates of ``validate_original`` and the point record
read it, and ``killing_derivatives`` turns one row of it into the
covariant derivatives of the Killing fields. ``assemble_block_metric``
and ``det_factorization_check`` take the frames of one point or of a
stack of them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fields import (ChartPoint, ConfigError, NearSingularError,
                     _blockdiag, _distinct_rows, _eval_stack,
                     _finite_or_raise, _levi_civita, _stencil,
                     _stencil_partials, invert_spd)
from .liecore import StructureConstants, validate_structure_constants

__all__ = [
    "OriginalGeometry",
    "AdaptedGeometry",
    "BlockMetric",
    "FrameStack",
    "AdaptedFrames",
    "frames_at",
    "point_frame",
    "point_frames",
    "check_frames",
    "assemble_block_metric",
    "det_factorization_check",
    "compile_adapted",
    "section_partials",
    "killing_derivatives",
    "validate_original",
]

_PHI_MAX_COND = 1e12


@dataclass(frozen=True, eq=False)
class _StackCallable:
    """A bundle callable on coordinate stacks, with its result checked.

    Called with ``(N, k)`` coordinate stacks, it returns the ``(N,) +
    shape`` float stack, a fresh array owned by the caller. Any other
    input or result shape raises ``ValueError`` naming the callable,
    whose ``name`` is also its ``__name__``, as a function's is.
    """

    name: str
    func: object
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "__name__", self.name)

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
    analytic Jacobian ``chi_jac`` (``(N, n_g, n_P)``); ``n_g`` is ``c.n_g``.

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
    shapes, naming the callable when one is off.
    """

    n_P: int
    n_v: int
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
            raise ValueError("gens must be (n_g, n_v, n_v) = %s, with n_g "
                             "that of the structure constants c, got %s"
                             % ((self.n_g, self.n_v, self.n_v), gens.shape))
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

    @property
    def n_g(self) -> int:
        return self.c.n_g

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
    """Full adapted block metric at the group identity, at one point or
    at each point of a stack (a leading point axis on every field)."""

    matrix: np.ndarray
    inverse: np.ndarray
    det: np.ndarray


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
        # a stack is shared by every reader of the point record holding it
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

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates. The
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
    n_P, n_g, n_x = orig.n_P, orig.n_g, orig.n_x
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
    gamma_inv, _ = _spd_or_error(
        gamma, "bundle-side orbit metric gamma degenerate", xs_b, fs_b)
    a_gamma = gamma_inv @ kg_q

    # horizontal metric: project out orbit directions from the joint metric
    g_full = _blockdiag(g_p_all, orig.G_V)
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
        h_base_inv=h_base_inv[base], Lambda=lam, N_vP=-k_v @ lam)


def point_frames(orig: OriginalGeometry, zs) -> FrameStack:
    """The frame stack at the rows of ``zs``, compiled in one call.

    ``zs`` is an ``(N, n_x + n_v)`` array of joint chart coordinates; row
    ``i`` of every field of the result belongs to row ``i`` of ``zs``.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != orig.n_h:
        raise ValueError("point_frames takes an (N, %d) coordinate stack, "
                         "got shape %s" % (orig.n_h, zs.shape))
    return _compute_frames(orig, zs)


def point_frame(orig: OriginalGeometry, point: ChartPoint) -> FrameStack:
    """The one-row frame stack at ``point``: ``point_frames`` on its
    coordinates. Callers read row 0 of its fields."""
    return point_frames(orig, point.coords[None])


def compile_adapted(orig: OriginalGeometry) -> "AdaptedGeometry":
    """The adapted geometry of bundle data: its frames are the frame
    stacks of ``orig``, compiled on each call."""
    return AdaptedGeometry(n_x=orig.n_x, n_v=orig.n_v,
                           frames=partial(point_frames, orig), c=orig.c,
                           orig=orig)


@dataclass(frozen=True)
class AdaptedGeometry:
    r"""The universal input of the curvature and Jacobian operations.

    ``frames`` maps an ``(N, n_x + n_v)`` array of joint chart
    coordinates, ``x`` first, to a record of the seven ``(N, ...)``
    arrays of the adapted metric there, read by ``frames_at``: the
    connection ``A`` (``(N, n_g, n_x + n_v)``, base columns first), the
    horizontal metric ``h_tilde`` over the joint ``(x, f)`` chart with
    its inverse ``h_tilde_inv`` and determinant ``det_h``, and the orbit
    metric ``d`` with ``d_inv`` and ``det_d``. Each inverse and
    determinant is computed once, where its matrix is built (on bundle
    data, in the frame compile), and read from the record by every
    formula that needs it; ``n_g`` is ``c.n_g``. ``orig`` is kept when
    the geometry was compiled from bundle data; operations that need the
    bundle side (projector identities, drift in gauge form) require it.
    A geometry whose ``n_x``, ``n_v`` or ``c`` differs from its
    ``orig``'s raises ``ValueError`` naming both values.
    """

    n_x: int
    n_v: int
    frames: object
    c: StructureConstants
    orig: object = None

    def __post_init__(self):
        orig = self.orig
        if orig is None:
            return
        for name in ("n_x", "n_v"):
            if getattr(self, name) != getattr(orig, name):
                raise ValueError("%s = %d disagrees with orig.%s = %d"
                                 % (name, getattr(self, name), name,
                                    getattr(orig, name)))
        if (self.c.n_g != orig.c.n_g
                or not np.array_equal(self.c.c, orig.c.c)):
            raise ValueError("c = %s disagrees with orig.c = %s"
                             % (self.c.c.tolist(), orig.c.c.tolist()))

    @property
    def n_g(self) -> int:
        return self.c.n_g

    @property
    def n_h(self) -> int:
        return self.n_x + self.n_v

    @property
    def n_t(self) -> int:
        return self.n_x + self.n_v + self.n_g


AdaptedFrames = namedtuple("AdaptedFrames",
                           "A h_tilde h_tilde_inv det_h d d_inv det_d")


def frames_at(adapted: AdaptedGeometry, rows) -> AdaptedFrames:
    """The seven frame arrays of ``adapted`` at chart rows, from one
    ``frames`` call.

    ``rows`` is a ``(..., n_x + n_v)`` array, a stack of stencils, say;
    ``frames`` is called once, on its rows flattened to ``(N, n_x +
    n_v)``, and ``check_frames`` checks what it returns.
    """
    rows = np.asarray(rows, dtype=float)
    return check_frames(adapted, rows,
                        adapted.frames(rows.reshape(-1, rows.shape[-1])))


def check_frames(adapted: AdaptedGeometry, rows, frames) -> AdaptedFrames:
    """The seven arrays of ``frames``, the record that ``adapted.frames``
    returned on the ``(..., n_x + n_v)`` array ``rows`` flattened, each
    with the leading shape of ``rows``.

    An array of the wrong shape raises ``ValueError`` naming it, and a
    non-finite entry ``EvaluationError`` naming the array and its row as
    ``x=.. f=..``.
    """
    lead, n_x = rows.shape[:-1], adapted.n_x
    flat = rows.reshape(-1, rows.shape[-1])
    n_h, n_g = adapted.n_h, adapted.n_g
    shapes = {"A": (n_g, n_h), "h_tilde": (n_h, n_h),
              "h_tilde_inv": (n_h, n_h), "det_h": (), "d": (n_g, n_g),
              "d_inv": (n_g, n_g), "det_d": ()}
    arrays = {}
    for name, shape in shapes.items():
        value = np.asarray(getattr(frames, name), dtype=float)
        want = (len(flat),) + shape
        if value.shape != want:
            raise ValueError("field %s returned shape %s for %d rows, "
                             "expected %s" % (name, value.shape, len(flat),
                                              want))
        _finite_or_raise(value, lambda i: "x=%s f=%s" % (
            flat[i, :n_x].tolist(), flat[i, n_x:].tolist()),
            "field %s" % name)
        arrays[name] = value.reshape(lead + shape)
    return AdaptedFrames(**arrays)


def assemble_block_metric(adapted: AdaptedGeometry,
                          frames: AdaptedFrames) -> BlockMetric:
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
    ``det = det(h~) det(d)``. ``frames`` are the checked frames at one
    point or at the rows of a stack of them, such as ``frames_at`` of a
    point's coordinates or the point rows of a record's frames, and
    every field of the result carries their leading shape: none for one
    point, ``(B,)`` for ``B``. The inverses and determinants are read
    from them.
    """
    h_tilde, h_inv = frames.h_tilde, frames.h_tilde_inv
    d, d_inv, a = frames.d, frames.d_inv, frames.A
    a_t = a.swapaxes(-1, -2)
    n_h, n_g = adapted.n_h, adapted.n_g

    n_t = n_h + n_g
    matrix = np.zeros(d.shape[:-2] + (n_t, n_t))
    matrix[..., :n_h, :n_h] = h_tilde + a_t @ d @ a
    matrix[..., :n_h, n_h:] = a_t @ d
    matrix[..., n_h:, :n_h] = d @ a
    matrix[..., n_h:, n_h:] = d

    inverse = np.zeros(matrix.shape)
    inverse[..., :n_h, :n_h] = h_inv
    inverse[..., :n_h, n_h:] = -h_inv @ a_t
    inverse[..., n_h:, :n_h] = -a @ h_inv
    inverse[..., n_h:, n_h:] = d_inv + a @ h_inv @ a_t

    return BlockMetric(matrix=matrix, inverse=inverse,
                       det=frames.det_h * frames.det_d)


def det_factorization_check(block: BlockMetric):
    r"""Relative residual of :math:`\det G = \det d \cdot H` at the identity.

    ``block`` is the ``assemble_block_metric`` of a point, or of a stack
    of points, which gives one residual per point. ``H = det(h~)`` is the
    orbit-space density that also normalizes the reduced drift. The left
    side is evaluated independently through a determinant of the
    assembled matrix; the right side is the block metric's ``det``, the
    product of the frame compile's determinants.
    """
    sign, logdet = np.linalg.slogdet(block.matrix)
    det_direct = sign * np.exp(logdet)
    return np.abs(det_direct - block.det) / np.abs(det_direct)


def section_partials(orig: OriginalGeometry, qs, fd_step: float):
    r"""The read-only partials over ``Q`` of ``G_P``, of ``K_P`` and of
    :math:`\gamma = K_P^{\rm T} G_P K_P` at the rows of the ``(m, n_P)``
    stack ``qs`` of section points, each ``(m, n_P, ...)``, the
    derivative slot after the row. One stencil over the stack at step
    ``fd_step``, with one call of ``G_P`` and of ``K_P`` on all its rows;
    a row's partials are those of a one-row stack, bit for bit.
    """
    rows, steps = _stencil(np.asarray(qs, dtype=float), fd_step)
    flat, lead = rows.reshape(-1, orig.n_P), rows.shape[:2]
    g_p = _eval_stack(orig.G_P, flat).reshape(lead + (orig.n_P,) * 2)
    k_p = _eval_stack(orig.K_P, flat).reshape(lead + (orig.n_P, orig.n_g))
    gamma = k_p.swapaxes(-1, -2) @ g_p @ k_p
    partials = tuple(_stencil_partials(values, steps)
                     for values in (g_p, k_p, gamma))
    for array in partials:
        array.setflags(write=False)
    return partials


def killing_derivatives(orig: OriginalGeometry, section, k_p, g_p_inv, f):
    r"""Covariant derivatives :math:`\nabla_{K_\alpha}K_\beta` at one
    section point: ``section`` is one row of ``section_partials`` there,
    ``k_p`` and ``g_p_inv`` the frame stack's ``K_P`` and ``G_P_inv``
    rows and ``f`` the vector coordinates. Returns ``(p, v)``, the bundle
    part ``p[c, alpha, beta]`` by the Levi-Civita connection of ``G_P``
    and the vector part ``v[q, alpha, beta]`` by the flat one of the
    constant ``G_V``: ``gens[beta] gens[alpha] f``. A leading axis of
    the ``section`` partials, ``k_p`` or ``g_p_inv`` broadcasts through
    the bundle part.
    """
    dg, dk, _ = section                             # dk[A, C, beta]
    gamma_p = _levi_civita(g_p_inv, dg)
    p = (np.einsum("...aA,...acB->...cAB", k_p, dk)
         + np.einsum("...cab,...aA,...bB->...cAB", gamma_p, k_p, k_p))
    # v_products[alpha, beta] = gens[beta] gens[alpha]
    v_products = orig.gens[None] @ orig.gens[:, None]
    return p, np.moveaxis(v_products @ f, -1, 0)


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
    ``right_translate(x, a)`` the coordinate oracle reads. Then, at every
    point, from the ``section_partials`` of one stencil over all their
    section points: the FD Lie derivative of ``G_P`` along every Killing
    field vanishes, and so does :math:`[K_\alpha, K_\beta] -
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
    c, gens, k_p, g_p = orig.c.c, orig.gens, frames.K_P, frames.G_P
    products = np.einsum("bij,ajk->abik", gens, gens)   # [a, b] gens_b gens_a
    bracket = np.abs(products - products.swapaxes(0, 1) - np.einsum(
        "gab,gij->abij", c, gens)).max(axis=(2, 3), initial=0.0)
    # dg[n, C, A, B] and dk[n, C, A, alpha]: slot C at probe point n
    dg, dk, _ = section_partials(orig, frames.Q, fd_step)
    lie = (np.einsum("nca,ncpq->napq", k_p, dg)   # [n, a, p, q] L_{K_a} G_P
           + np.einsum("npra,nrq->napq", dk, g_p)
           + np.einsum("npr,nqra->napq", g_p, dk))
    worst_k = np.abs(lie).max(initial=0.0)
    flow = np.einsum("nca,ncpb->npab", k_p, dk)   # [n, p, a, b] K_a . grad K_b
    closure = flow - flow.swapaxes(2, 3) - np.einsum("gab,npg->npab", c, k_p)
    bracket = np.maximum(bracket,
                         np.abs(closure).max(axis=(0, 1), initial=0.0))
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
