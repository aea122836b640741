r"""Pointwise evaluation and differentiation of chart fields.

Everything downstream works with smooth scalar/vector/matrix fields over a
local chart with coordinates split into a base sector ``x`` and a vector
sector ``f``. This module supplies the chart point type, a thin wrapper for
field callables, central-difference differentiation with Richardson
extrapolation, the one Levi-Civita contraction, and the small dense linear
algebra used everywhere else.

All differentiation goes through one stencil kernel on coordinate
stacks: ``_stencil`` builds the shifted rows around each row of an
``(m, k)`` array at steps ``h`` and ``h/2``, and ``_stencil_partials``
applies ``(hi - lo)/(2h)`` at each step and Richardson extrapolation to
the values there. ``coordinate_partials`` (plain coordinate vectors such as
the bundle coordinates ``Q``) is the one public differencing call; the
horizontal jet of the connection module, the drift routes, the section
stencil of the Killing derivatives and the nested stencil of the
curvature module, from which every second derivative of the frame
routes comes, call the kernel themselves, each on one stencil over all
the points of a stack (the nested one on one stencil per point), and
read every value and partial they need from that one evaluation. The
coordinate oracle's second partials come from ``_pair_stencil`` instead:
the point, its axis rows and the four corners of each coordinate pair,
at the same two steps, which ``_pair_partials`` differences at the
point alone. Every function a stencil differences has one contract: it
maps an ``(N, k)`` array of coordinate rows to the ``(N, ...)`` stack
of its values, and it is called once per stencil, on the read-only rows
themselves. For the frames of an adapted geometry
(``geometry.frames_at``, which reads all seven of its arrays from one
call) a row holds the joint chart coordinates, ``x`` first. A stencil
repeats sub-rows (the base part ``x`` of a chart row, say), and a
nested one repeats whole rows too; ``_distinct_rows`` lists the
distinct ones, so that a function of the sub-row alone runs once per
distinct value.
``_levi_civita`` turns a stack of inverse metrics and metric partials
into Christoffel symbols; every coordinate-formula route contracts
through it, and ``_blockdiag`` is the one block-diagonal assembly of two
stacked metrics. ``_worst`` is the one reduction of residuals to their
largest value, NaN-keeping, that every residual report uses.

All matrices here are tiny (at most ~12x12), so no attention is paid to
asymptotics; accuracy and determinism are what matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "EvaluationError",
    "NearSingularError",
    "ChartPoint",
    "FieldHandle",
    "DerivEngine",
    "DEFAULT_ENGINE",
    "coordinate_partials",
    "invert_spd",
]

_MAX_CONDITION = 1e12

# stencil steps h and h/2 (Richardson), each taken with sign + then -
_STEP_LEVELS = np.array([1.0, 0.5])
_SIGNS = np.array([1.0, -1.0])
_STEP_LEVELS.setflags(write=False)
_SIGNS.setflags(write=False)


class ConfigError(ValueError):
    """A user-supplied name or parameter is outside the supported range."""


class EvaluationError(RuntimeError):
    """A field produced a non-finite value inside a difference stencil."""


class NearSingularError(RuntimeError):
    """A matrix inversion hit a (near-)singular, non-SPD or non-finite input.

    ``reason`` is the message without position; ``index`` names the first
    offending matrix of a stacked input and is ``None`` otherwise.
    """

    def __init__(self, reason, index=None):
        super().__init__(reason if index is None
                         else "%s at index %s" % (reason, index))
        self.reason = reason
        self.index = index


@dataclass(frozen=True)
class ChartPoint:
    r"""A point of the local chart, split into sectors ``x`` and ``f``.

    ``x`` holds the base coordinates :math:`x^i`, ``f`` the vector-space
    coordinates :math:`\tilde f^a`. Group coordinates never appear here; the
    coordinate-basis oracle carries them separately.
    """

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        if x.ndim != 1 or f.ndim != 1:
            raise ValueError("chart coordinates must be 1-d")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise ValueError("chart coordinates must be finite")
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    @property
    def n_x(self) -> int:
        return self.x.shape[0]

    @property
    def n_v(self) -> int:
        return self.f.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """All chart coordinates as one read-only vector, ``x`` first."""
        coords = np.concatenate([self.x, self.f])
        coords.setflags(write=False)
        return coords


@dataclass(frozen=True)
class FieldHandle:
    r"""A chart field on coordinate stacks, with its declared shape.

    ``func`` maps an ``(N, n_x + n_v)`` array of joint chart coordinates,
    ``x`` first, to the ``(N, ...)`` stack of the field's values there.
    Calling the handle on one ``ChartPoint`` is the one-row case,
    ``point.coords[None]``, and returns that row. ``arity`` is one of
    ``"scalar"``, ``"vector"``, ``"matrix"``, ``"rank3"``, the number of
    axes of one row. No formula of the library takes a handle: the
    adapted geometry hands out its arrays through ``frames``. The
    benchmark harness's tracer wraps its call.
    """

    func: object
    arity: str = "scalar"

    _NDIM = {"scalar": 0, "vector": 1, "matrix": 2, "rank3": 3}

    def __post_init__(self):
        if self.arity not in self._NDIM:
            raise ValueError("unknown arity %r" % (self.arity,))

    def __call__(self, point: ChartPoint) -> np.ndarray:
        return _field_stack(self, point.coords[None])[0]


@dataclass(frozen=True)
class DerivEngine:
    r"""Configuration for numerical differentiation.

    ``fd_step`` is a *relative* central-difference step; the actual step at a
    point is ``fd_step * (1 + |coordinate|)``. Each derivative is computed
    at steps ``h`` and ``h/2`` and extrapolated, ``(4 D(h/2) - D(h))/3``,
    killing the leading :math:`O(h^2)` truncation term.
    """

    fd_step: float = 1e-5

    def __post_init__(self):
        if not (0.0 < self.fd_step < 1e-2):
            raise ValueError("fd_step must lie in (0, 1e-2)")


DEFAULT_ENGINE = DerivEngine()


def _stencil(zs, fd_step, slots=None, centre=False):
    """Central-difference rows around each row of ``zs``.

    ``zs`` is ``(m, k)``; ``slots`` lists the coordinates differenced (all
    ``k`` by default). Returns the read-only ``(m, c + 4 s, k)`` rows --
    the centre when ``centre`` is set (``c = 1``), then for each slot
    ``+h, -h, +h/2, -h/2`` -- and the ``(m, 2, s)`` steps, ``h = fd_step
    * (1 + |z|)`` and its half. Rows are frozen before any field sees
    them: a field must not change rows that the stencil shares between
    its slots and step levels.
    """
    m, k = zs.shape
    cols = np.arange(k) if slots is None else np.asarray(slots, dtype=int)
    z = zs[:, cols]
    h = fd_step * (1.0 + np.abs(z))
    steps = h[:, None, :] * _STEP_LEVELS[:, None]            # [m, step, slot]
    # z + (-h) is exactly z - h, so one broadcast gives both signs
    shifted = z[:, None, :, None] + steps[..., None] * _SIGNS
    n_r = len(_STEP_LEVELS)
    n_d = 2 * n_r * len(cols)
    rows = np.repeat(zs[:, None, :], int(centre) + n_d, axis=1)
    rows[:, int(centre) + np.arange(n_d), np.repeat(cols, 2 * n_r)] = \
        shifted.transpose(0, 2, 1, 3).reshape(m, n_d)
    rows.setflags(write=False)
    return rows, steps


def _pair_stencil(z, fd_step):
    """Second-difference rows around the one coordinate vector ``z``.

    ``z`` has ``k`` entries. Returns the read-only ``(1 + 4 k^2, k)``
    rows -- ``z`` first, then at each step level (``h = fd_step * (1 +
    |z|)``, then its half) the axis rows ``z + h_i e_i, z - h_i e_i`` of
    each slot ``i`` and the corners ``z +- h_i e_i +- h_j e_j`` (signs
    ``++, +-, -+, --``) of each pair ``i < j`` -- and the ``(2, k)``
    steps. An entry a row does not shift keeps the bytes of ``z``, as in
    ``_stencil``.
    """
    k = len(z)
    eye = np.eye(k)
    i, j = np.triu_indices(k, 1)
    corners = (_SIGNS[:, None, None, None] * eye[i]
               + _SIGNS[None, :, None, None] * eye[j])     # [s_i, s_j, pair]
    offsets = np.concatenate([(eye[:, None] * _SIGNS[:, None]).reshape(-1, k),
                              corners.transpose(2, 0, 1, 3).reshape(-1, k)])
    steps = fd_step * (1.0 + np.abs(z)) * _STEP_LEVELS[:, None]
    shifted = np.where(offsets != 0.0, z + steps[:, None] * offsets, z)
    rows = np.concatenate([z[None], shifted.reshape(-1, k)])
    rows.setflags(write=False)
    return rows, steps


def _pair_partials(values, steps):
    """First and second partials at the centre of ``_pair_stencil`` rows.

    ``values`` is ``(1 + 4 k^2, ...)``, one entry per row. Returns
    ``(first, second)``, ``(k, ...)`` and the symmetric ``(k, k, ...)``:
    at each step, ``(v(+h) - v(-h)) / (2h)``, ``(v(+h) - 2 v + v(-h)) /
    h^2`` on the diagonal and ``(v(++) - v(+-) - v(-+) + v(--)) / (4 h_i
    h_j)`` off it, then Richardson extrapolation.
    """
    n_r, k = steps.shape
    i, j = np.triu_indices(k, 1)
    tail = values.shape[1:]
    centre, shifted = values[0], values[1:].reshape((n_r, 2 * k * k) + tail)
    axis = shifted[:, :2 * k].reshape((n_r, k, 2) + tail)
    corners = shifted[:, 2 * k:].reshape((n_r, len(i), 4) + tail)
    pad = (1,) * len(tail)
    h = steps.reshape(steps.shape + pad)
    first = _richardson((axis[:, :, 0] - axis[:, :, 1]) / (2.0 * h))
    second = np.empty((k, k) + tail)
    second[np.arange(k), np.arange(k)] = _richardson(
        (axis[:, :, 0] - 2.0 * centre + axis[:, :, 1]) / (h * h))
    second[i, j] = second[j, i] = _richardson(
        (corners[:, :, 0] - corners[:, :, 1] - corners[:, :, 2]
         + corners[:, :, 3]) / (4.0 * h[:, i] * h[:, j]))
    return first, second


def _distinct_rows(rows):
    """The distinct rows of the ``(N, k)`` stack ``rows``.

    Returns ``(distinct, first, inverse)``: ``distinct = rows[first]``
    lists each distinct row once, in order of first appearance, ``first``
    holds the index of each one's first occurrence and ``rows ==
    distinct[inverse]``. Rows are equal only when their bytes are, so
    ``-0.0`` and ``0.0`` stay apart. A function that maps each row on its
    own then runs once per distinct row, and gathering its values with
    ``inverse`` gives, byte for byte, its values on every row; the first
    distinct row at which it fails first occurs before any other failing
    row.
    """
    rows = np.ascontiguousarray(rows)
    n, k = rows.shape
    # one bytes key per row; zero-width rows are all equal
    keys = (rows.view(np.dtype((np.void, rows.itemsize * k))).reshape(n)
            .tolist() if k else [b""] * n)
    first_of = {}
    for i, key in enumerate(keys):
        first_of.setdefault(key, i)
    first = np.fromiter(first_of.values(), dtype=np.intp,
                        count=len(first_of))
    slot = dict(zip(first_of, range(len(first))))
    inverse = np.fromiter(map(slot.__getitem__, keys), dtype=np.intp,
                          count=n)
    return rows[first], first, inverse


def _richardson(d):
    """Extrapolate derivatives stacked by step along axis 0:
    ``(4 D(h/2) - D(h)) / 3``."""
    return (4.0 * d[1] - d[0]) / 3.0


def _stencil_partials(values, steps):
    """Partials along every stencil slot, from values on ``_stencil`` rows.

    ``values`` is ``(m, c + 4 s, ...)``, the differenced rows last;
    returns ``(m, s, ...)``: ``(hi - lo) / (2 step)`` at each step, then
    Richardson extrapolation.
    """
    m, n_r, n_s = steps.shape
    tail = values.shape[2:]
    pairs = values[:, values.shape[1] - 2 * n_r * n_s:].reshape(
        (m, n_s, n_r, 2) + tail)
    steps = steps.swapaxes(1, 2).reshape((m, n_s, n_r) + (1,) * len(tail))
    central = (pairs[:, :, :, 0] - pairs[:, :, :, 1]) / (2.0 * steps)
    return _richardson(np.moveaxis(central, 2, 0))


def _finite_or_raise(values, where, what="field"):
    """Raise ``EvaluationError`` unless every entry of the ``(N, ...)``
    stack ``values`` is finite; ``where(i)`` describes row ``i``."""
    if not np.isfinite(values).all():
        finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
        raise EvaluationError("%s produced non-finite value at %s"
                              % (what, where(int(np.argmin(finite)))))
    return values


def _name_of(func):
    return getattr(func, "__name__", repr(func))


def _eval_stack(func, zs, what="field"):
    """``func`` called once on the ``(N, k)`` stack ``zs``, its result
    checked to hold one finite entry per row."""
    values = np.asarray(func(zs), dtype=float)
    if values.ndim == 0 or len(values) != len(zs):
        raise ValueError("%s returned shape %s for a stack of %d rows"
                         % (_name_of(func), values.shape, len(zs)))
    return _finite_or_raise(values, lambda i: "z=%s" % (zs[i].tolist(),),
                            what)


def _field_stack(field, zs):
    """The ``FieldHandle`` ``field`` on the joint-coordinate rows ``zs``,
    one call, its result checked to hold one entry of the declared arity
    per row."""
    values = np.asarray(field.func(zs), dtype=float)
    if (values.ndim != 1 + FieldHandle._NDIM[field.arity]
            or len(values) != len(zs)):
        raise ValueError(
            "field %s declared arity %r but returned shape %s for %d "
            "points" % (_name_of(field.func), field.arity, values.shape,
                        len(zs)))
    return values


def coordinate_partials(func, z, fd_step: float, slots=None):
    r"""Partials of ``func`` at the coordinate vector ``z``, one per slot.

    Returns a stack with one leading entry per slot of ``slots`` (all
    coordinates by default; no slots give an empty stack). ``z`` may
    also be an ``(m, k)`` stack of vectors, which gives the ``(m, s,
    ...)`` partials at each of them from one stencil. ``func`` maps an
    ``(N, k)`` stack of plain coordinate vectors -- the bundle
    coordinates ``Q`` of the Killing gate or the vector coordinates
    ``f`` of the vector-sector Killing identity, say -- to the ``(N,
    ...)`` stack of its values, the contract of the ``metric`` of the
    curvature module's coordinate Ricci scalar. It is called once, on
    all the stencil rows, and the rows are differenced in one pass. A
    result without one entry per row raises ``ValueError``; a non-finite
    one, ``EvaluationError``.
    """
    z = np.asarray(z, dtype=float)
    rows, steps = _stencil(z.reshape(-1, z.shape[-1]), fd_step, slots)
    if not rows.shape[1]:
        return np.zeros(z.shape[:-1] + (0,))
    values = _eval_stack(func, rows.reshape(-1, z.shape[-1]))
    partials = _stencil_partials(
        values.reshape(rows.shape[:2] + values.shape[1:]), steps)
    return partials.reshape(z.shape[:-1] + partials.shape[1:])


def _worst(values) -> float:
    """Largest value, or NaN if any value is NaN, whatever its position.

    The builtin ``max`` keeps or drops a NaN depending on where it sits.
    """
    values = tuple(values)
    return float(np.max(values)) if values else 0.0


def _levi_civita(g_inv, dg):
    r"""Levi-Civita symbols from an inverse metric and its partials.

    ``g_inv`` is an ``(..., n, n)`` stack of inverse metrics, ``dg[...,
    b, c, d]`` the partial :math:`\partial_b g_{cd}`; returns
    ``gamma[..., a, b, c]``
    :math:`= \tfrac12 g^{ad}(\partial_b g_{cd} + \partial_c g_{bd}
    - \partial_d g_{bc})`.
    """
    combo = (np.einsum("...bcd->...bcd", dg) + np.einsum("...cbd->...bcd", dg)
             - np.einsum("...dbc->...bcd", dg))
    return 0.5 * np.einsum("...ad,...bcd->...abc", g_inv, combo)


def _blockdiag(upper, lower):
    """The stack of blockdiag(``upper``, ``lower``) over the leading axes
    of ``upper``; a ``lower`` with fewer leading axes is broadcast."""
    n_u, n_l = upper.shape[-1], lower.shape[-1]
    out = np.zeros(upper.shape[:-2] + (n_u + n_l, n_u + n_l))
    out[..., :n_u, :n_u] = upper
    out[..., n_u:, n_u:] = lower
    return out


def invert_spd(matrix):
    r"""Invert a symmetric positive definite matrix, or a stack of them.

    Returns ``(inverse, determinant)``. ``matrix`` is one ``(n, n)``
    matrix, giving a float determinant, or an ``(..., n, n)`` stack, giving
    a stack of inverses and an array of determinants. Inversion goes
    through an eigendecomposition so the inverse is symmetric by
    construction and the determinant comes for free as the eigenvalue
    product; a stack is inverted matrix by matrix with the same arithmetic
    as a single matrix.

    Every gate runs on each matrix: a non-finite entry, a non-positive
    spectrum or a condition number beyond 1e12 raises
    ``NearSingularError`` -- downstream that signals a gauge-section or
    free-action breakdown rather than a numerics bug -- and asymmetry
    beyond 1e-10 raises ``ValueError``. On a stack the error names the
    first offending index.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    if m.size == 0:
        inv = np.zeros(m.shape)
        return (inv, np.ones(m.shape[:-2])) if m.ndim > 2 else (inv, 1.0)

    # max propagates NaN and keeps inf, so one reduction finds both
    mag = np.abs(m).max(axis=(-2, -1))
    finite = np.isfinite(mag)
    if not finite.all():
        _first_failure(~finite, NearSingularError,
                       "matrix has non-finite entries")
    m_t = m.swapaxes(-1, -2)
    asym = np.abs(m - m_t).max(axis=(-2, -1)) > 1e-10 * np.maximum(1.0, mag)
    if asym.any():
        _first_failure(asym, ValueError,
                       "matrix is not symmetric within 1e-10")
    w, v = np.linalg.eigh(0.5 * (m + m_t))
    # eigenvalues come in ascending order: the first is the smallest, and
    # once it is positive the last is the largest in magnitude
    w_min = w[..., 0]
    indefinite = w_min <= 0.0
    if indefinite.any():
        _first_failure(indefinite, NearSingularError,
                       "matrix not positive definite (min eigenvalue %.3e)",
                       w_min)
    cond = w[..., -1] / w_min
    ill = cond > _MAX_CONDITION
    if ill.any():
        _first_failure(ill, NearSingularError,
                       "matrix near singular (condition number %.3e)", cond)
    inv = (v / w[..., None, :]) @ v.swapaxes(-1, -2)
    det = w.prod(axis=-1)
    return (inv, det) if m.ndim > 2 else (inv, float(det))


def _first_failure(bad, error, reason, values=None):
    """Raise ``error`` for the first matrix flagged in ``bad``.

    ``bad`` holds one flag per matrix: a 0-d array for a single matrix, in
    which case no index is named. ``values``, when given, fills the
    ``%`` slot of ``reason`` with the flagged matrix's value.
    """
    at = None
    if bad.ndim:
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        at = at[0] if len(at) == 1 else at
    if values is not None:
        reason = reason % values[() if at is None else at]
    if error is NearSingularError:
        raise NearSingularError(reason, at)
    raise error(reason if at is None else "%s at index %s" % (reason, at))
