r"""Pointwise evaluation and differentiation of chart fields.

Everything downstream works with smooth scalar/vector/matrix fields over a
local chart with coordinates split into a base sector ``x`` and a vector
sector ``f``. This module supplies the chart point type, a thin wrapper for
field callables, central-difference differentiation with optional Richardson
extrapolation, and the small dense linear algebra used everywhere else.

All matrices here are tiny (at most ~12x12), so no attention is paid to
asymptotics; accuracy and determinism are what matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

__all__ = [
    "ConfigError",
    "EvaluationError",
    "NearSingularError",
    "ChartPoint",
    "FieldHandle",
    "DerivEngine",
    "DEFAULT_ENGINE",
    "partial",
    "second_partial",
    "invert_spd",
    "SECOND_PARTIAL_STEP_SCALE",
]

#: Internal step inflation for second derivatives. A second-difference
#: quotient divides by h^2, so the rounding-noise floor is eps/h^2; running
#: the stencil at 100x the first-derivative step keeps that floor near 1e-10
#: while Richardson extrapolation removes the enlarged truncation term.
SECOND_PARTIAL_STEP_SCALE = 100.0

_MAX_CONDITION = 1e12


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
        """All chart coordinates as one vector, ``x`` first."""
        return np.concatenate([self.x, self.f])

    @classmethod
    def from_coords(cls, coords, n_x: int) -> "ChartPoint":
        coords = np.asarray(coords, dtype=float)
        return cls(coords[:n_x], coords[n_x:])

    def shifted(self, slot: int, delta: float) -> "ChartPoint":
        """New point with coordinate ``slot`` (over the joint vector) shifted."""
        c = self.coords.copy()
        c[slot] += delta
        return ChartPoint.from_coords(c, self.n_x)

    def key(self) -> tuple:
        """Hashable identity of the coordinate values (used for caching)."""
        return (self.x.tobytes(), self.f.tobytes())


@dataclass(frozen=True)
class FieldHandle:
    r"""A chart field together with its declared shape.

    ``arity`` is one of ``"scalar"``, ``"vector"``, ``"matrix"``, ``"rank3"``;
    ``sectors`` names the index sector of each slot (``"base"``, ``"vector"``,
    ``"orbit"`` or ``"mixed"``) and is carried for documentation and shape
    checks only. ``d_func(point, slot)`` may supply an analytic partial
    derivative with respect to joint chart coordinate ``slot``.
    """

    func: object
    arity: str = "scalar"
    sectors: tuple = ()
    d_func: object = None

    _NDIM = {"scalar": 0, "vector": 1, "matrix": 2, "rank3": 3}

    def __post_init__(self):
        if self.arity not in self._NDIM:
            raise ValueError("unknown arity %r" % (self.arity,))

    def __call__(self, point: ChartPoint) -> np.ndarray:
        value = np.asarray(self.func(point), dtype=float)
        if value.ndim != self._NDIM[self.arity]:
            raise ValueError(
                "field declared arity %r but produced ndim %d"
                % (self.arity, value.ndim)
            )
        return value


@dataclass(frozen=True)
class DerivEngine:
    r"""Configuration for numerical differentiation.

    ``fd_step`` is a *relative* central-difference step; the actual step at a
    point is ``fd_step * (1 + |coordinate|)``. With ``richardson`` enabled
    each derivative is computed at steps ``h`` and ``h/2`` and extrapolated,
    ``(4 D(h/2) - D(h))/3``, killing the leading :math:`O(h^2)` truncation
    term. ``mode`` selects ``"fd"`` (always difference) or ``"analytic"``
    (use a field's registered derivative when present, fall back to FD).
    """

    fd_step: float = 1e-5
    richardson: bool = True
    mode: str = "fd"

    def __post_init__(self):
        if not (0.0 < self.fd_step < 1e-2):
            raise ValueError("fd_step must lie in (0, 1e-2)")
        if self.mode not in ("fd", "analytic"):
            raise ValueError("mode must be 'fd' or 'analytic'")

    def step(self, point: ChartPoint, slot: int, scale: float = 1.0) -> float:
        return self.fd_step * scale * (1.0 + abs(point.coords[slot]))


DEFAULT_ENGINE = DerivEngine()


def _eval_checked(field, point):
    value = np.asarray(field(point), dtype=float)
    if not np.all(np.isfinite(value)):
        raise EvaluationError(
            "field produced non-finite value at x=%s f=%s"
            % (point.x.tolist(), point.f.tolist())
        )
    return value


def _central(field, point, slot, h):
    lo = _eval_checked(field, point.shifted(slot, -h))
    hi = _eval_checked(field, point.shifted(slot, +h))
    return (hi - lo) / (2.0 * h)


def partial(engine: DerivEngine, field, point: ChartPoint, slot: int,
            step_scale: float = 1.0):
    r"""Partial derivative of ``field`` along joint chart coordinate ``slot``.

    Realizes every :math:`\partial_i`, :math:`\partial_a` appearing in the
    metric, connection and curvature formulas. ``step_scale`` inflates the
    step for outer layers of nested differentiation; see the curvature
    module for the noise budget that picks those scales.
    """
    n_tot = point.n_x + point.n_v
    if not 0 <= slot < n_tot:
        raise IndexError("slot %d out of range for %d chart coordinates"
                         % (slot, n_tot))
    d_func = getattr(field, "d_func", None)
    if engine.mode == "analytic" and d_func is not None:
        value = np.asarray(d_func(point, slot), dtype=float)
        if not np.all(np.isfinite(value)):
            raise EvaluationError("analytic derivative non-finite at slot %d"
                                  % slot)
        return value
    h = engine.step(point, slot, step_scale)
    d_h = _central(field, point, slot, h)
    if not engine.richardson:
        return d_h
    d_h2 = _central(field, point, slot, 0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0


def _second_same(field, point, slot, h):
    mid = _eval_checked(field, point)
    lo = _eval_checked(field, point.shifted(slot, -h))
    hi = _eval_checked(field, point.shifted(slot, +h))
    return (hi - 2.0 * mid + lo) / (h * h)


def _second_mixed(field, point, s1, s2, h1, h2):
    pp = _eval_checked(field, point.shifted(s1, +h1).shifted(s2, +h2))
    pm = _eval_checked(field, point.shifted(s1, +h1).shifted(s2, -h2))
    mp = _eval_checked(field, point.shifted(s1, -h1).shifted(s2, +h2))
    mm = _eval_checked(field, point.shifted(s1, -h1).shifted(s2, -h2))
    return (pp - pm - mp + mm) / (4.0 * h1 * h2)


def second_partial(engine: DerivEngine, field, point: ChartPoint,
                   slot1: int, slot2: int):
    r"""Second partial derivative, symmetric in the two slots.

    Uses second-difference stencils at an internally inflated step
    (see ``SECOND_PARTIAL_STEP_SCALE``); Richardson extrapolation is applied
    when the engine enables it since both stencils have :math:`O(h^2)` error.
    """
    h1 = engine.step(point, slot1, SECOND_PARTIAL_STEP_SCALE)
    h2 = engine.step(point, slot2, SECOND_PARTIAL_STEP_SCALE)
    if slot1 == slot2:
        d_h = _second_same(field, point, slot1, h1)
        if not engine.richardson:
            return d_h
        d_h2 = _second_same(field, point, slot1, 0.5 * h1)
    else:
        d_h = _second_mixed(field, point, slot1, slot2, h1, h2)
        if not engine.richardson:
            return d_h
        d_h2 = _second_mixed(field, point, slot1, slot2, 0.5 * h1, 0.5 * h2)
    return (4.0 * d_h2 - d_h) / 3.0


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
