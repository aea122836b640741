r"""Built-in concrete geometries with known structure.

Each scenario packages an original bundle geometry (a chart box times a
group factor, acting linearly on a vector sector), the compiled adapted
geometry and a sampling box. ``_build_original`` takes any ``n_x``,
``n_v`` (0 included) and ``n_g``: the group reaches it only through its
structure constants ``c`` and the vector-sector generators. The
registered scenarios have two base, three vector and three group
dimensions: every index sector is nontrivial, and the 8-dim coordinate
oracle evaluates its 1,089-row stencil in one stacked metric call, whose
group series run on the stencil's 169 distinct group rows.

All group-factor matrices (the exponential map, the one-parameter
subgroup Jacobian factor, and the differential of the vector-sector
action) are summed numerically from their defining series rather than
transcribed from closed trigonometric forms. Every bundle callable, and
every series and x-dependent block under it, works on a whole stack of
coordinate rows; a series drops each matrix from the sum where a series
over that matrix alone would stop, so a value never depends on the
stack it was computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ChartPoint, ConfigError
from .geometry import (AdaptedGeometry, OriginalGeometry, compile_adapted,
                       validate_original)
from .liecore import StructureConstants, abelian_constants, su2_constants

__all__ = [
    "Scenario",
    "SCENARIO_NAMES",
    "build_scenario",
    "sample_points",
    "sample_group_coordinates",
]

_SERIES_TERMS = 40


def _tile(mat, rows):
    """``mat`` repeated once per row of the stack ``rows``."""
    return mat[None].repeat(len(rows), axis=0)


class _SeriesTotals:
    """Running totals of a matrix series summed over a flat stack.

    Each matrix leaves the sum at the first step whose cutoff size falls
    below 1e-18, exactly where a series over that matrix alone would
    stop, so every total is bit-identical to a one-matrix sum.
    """

    def __init__(self, start):
        self.total = start      # totals of the matrices still summing
        self.rows = None        # their rows in the stack; None: every row
        self.out = None

    def add(self, piece, size, *live):
        """Add ``piece`` to the running totals, then drop the matrices
        whose ``size`` is below the cutoff. Returns the remaining rows of
        the ``live`` stacks, or None once every matrix has stopped."""
        self.total = self.total + piece
        small = size < 1e-18
        if not small.any():
            return live
        if self.rows is None:
            if small.all():
                self.out = self.total
                return None
            self.out = np.empty(self.total.shape)
            self.rows = np.arange(len(small))
        self.out[self.rows[small]] = self.total[small]
        keep = ~small
        if not keep.any():
            return None
        self.rows, self.total = self.rows[keep], self.total[keep]
        return tuple(stack[keep] for stack in live)

    def result(self, shape):
        """The totals in stack order, reshaped to ``shape``; matrices still
        summing when the term budget ran out keep their running total."""
        if self.rows is None:
            self.out = self.total
        else:
            self.out[self.rows] = self.total
        return self.out.reshape(shape)


def _flat_stack(mat: np.ndarray) -> np.ndarray:
    """A ``(..., n, n)`` stack as one ``(N, n, n)`` stack, ``0 x 0``
    matrices included."""
    return mat.reshape((math.prod(mat.shape[:-2]),) + mat.shape[-2:])


def _largest(stack: np.ndarray) -> np.ndarray:
    """The largest magnitude in each matrix of an ``(N, n, n)`` stack."""
    return np.abs(stack).max(axis=(1, 2), initial=0.0)


def _exp_series(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by direct series over a ``(..., n, n)`` stack;
    converges fast at chart scale."""
    mat = np.asarray(mat, dtype=float)
    mats = _flat_stack(mat)
    term = _tile(np.eye(mats.shape[-1]), mats)
    sums = _SeriesTotals(term)
    for k in range(1, _SERIES_TERMS):
        term = term @ mats / k
        live = sums.add(term, _largest(term), term, mats)
        if live is None:
            break
        term, mats = live
    return sums.result(mat.shape)


def _phi_series(mat: np.ndarray) -> np.ndarray:
    r"""The subgroup Jacobian factor :math:`\sum_k M^k/(k+1)!` over a
    ``(..., n, n)`` stack.

    Equals :math:`(e^M - 1)M^{-1}`; applied to the adjoint matrix of the
    group coordinates it gives the left Jacobian of the exponential chart.
    """
    mat = np.asarray(mat, dtype=float)
    mats = _flat_stack(mat)
    term = _tile(np.eye(mats.shape[-1]), mats)
    sums = _SeriesTotals(term)
    fact = 1.0
    for k in range(1, _SERIES_TERMS):
        term = term @ mats
        fact = fact * (k + 1)
        piece = term / fact
        live = sums.add(piece, _largest(piece), term, mats)
        if live is None:
            break
        term, mats = live
    return sums.result(mat.shape)


def _dexp_apply(x_mat: np.ndarray, y_mat: np.ndarray) -> np.ndarray:
    """phi(ad_X)(Y): the left-logarithmic derivative of exp along Y at X,
    for stacks of ``X`` and ``Y`` that broadcast against each other."""
    x_mat, y_mat = np.broadcast_arrays(np.asarray(x_mat, dtype=float),
                                       np.asarray(y_mat, dtype=float))
    xs = _flat_stack(x_mat)
    term = y_mat.reshape(xs.shape)
    sums = _SeriesTotals(np.zeros(xs.shape))
    fact = 1.0
    for k in range(_SERIES_TERMS):
        piece = term / fact
        term = xs @ term - term @ xs
        fact = fact * (k + 2)
        live = sums.add(piece, _largest(term) / fact, term, xs)
        if live is None:
            break
        term, xs = live
    return sums.result(x_mat.shape)


@dataclass(frozen=True)
class Scenario:
    """A fully wired geometry plus its sampling and expectation data;
    ``chart`` is always None and unread, kept only because the benchmark
    harness passes it to the coordinate oracle."""

    name: str
    n_x: int
    n_v: int
    n_g: int
    adapted: AdaptedGeometry
    orig: OriginalGeometry
    sample_domain: np.ndarray
    a_domain: np.ndarray
    chart: object = None
    params: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def _build_original(n_x: int, g_func, bbar_func, twist_func, gens, g_v,
                    c: StructureConstants) -> OriginalGeometry:
    """Chart-box-times-group bundle with a right-invariant group factor.

    The group block of the metric carries the value ``bbar_func(x)`` at
    the identity, transported by the subgroup Jacobian factor phi(ad_b),
    ``(ad_b)^e_m = b^g c^e_{gm}``; the ``twist_func`` columns mix base
    and group directions. Killing fields are the generators of right
    translations, so the gauge section ``b = 0`` is everywhere
    transversal.
    """
    n_g = c.n_g
    n_P = n_x + n_g
    gens = np.ascontiguousarray(gens, dtype=float)
    n_v = gens.shape[1]
    # ad[g] = ad_g; C-ordered ad and gens make einsum write C-ordered
    # matrices, which the series multiply fastest
    ad = np.ascontiguousarray(np.transpose(c.c, (1, 0, 2)))

    def jac_factor(b):
        return _phi_series(np.einsum("ng,gem->nem", b, ad))

    def metric_p(q):
        x = q[:, :n_x]
        b = q[:, n_x:]
        g = np.asarray(g_func(x), dtype=float)
        bb = np.asarray(bbar_func(x), dtype=float)
        tw = np.asarray(twist_func(x), dtype=float)
        tw_t = tw.swapaxes(1, 2)
        f_mat = jac_factor(b)
        out = np.zeros((len(q), n_P, n_P))
        out[:, :n_x, :n_x] = g + tw_t @ bb @ tw
        out[:, :n_x, n_x:] = tw_t @ bb @ f_mat
        out[:, n_x:, :n_x] = out[:, :n_x, n_x:].swapaxes(1, 2)
        out[:, n_x:, n_x:] = f_mat.swapaxes(1, 2) @ bb @ f_mat
        return out

    def killing_p(q):
        out = np.zeros((len(q), n_P, n_g))
        out[:, n_x:] = np.linalg.inv(jac_factor(-q[:, n_x:]))
        return out

    def section(x):
        return np.concatenate([x, np.zeros((len(x), n_g))], axis=1)

    section_jac_mat = np.vstack([np.eye(n_x), np.zeros((n_g, n_x))])

    def chi(q):
        return q[:, n_x:]

    chi_jac_mat = np.hstack([np.zeros((n_g, n_x)), np.eye(n_g)])

    def right_translate(x, a):
        return np.concatenate([x, a], axis=1)

    def vspace_action(a):
        return _exp_series(np.einsum("ng,gab->nab", a, gens))

    def vspace_action_d(a):
        m = np.einsum("ng,gab->nab", a, gens)
        act = _exp_series(m)
        return _dexp_apply(m[:, None], gens) @ act[:, None]

    return OriginalGeometry(
        n_P=n_P, n_v=n_v,
        G_P=metric_p, G_V=np.asarray(g_v, dtype=float), K_P=killing_p,
        gens=gens,
        section=section, section_jac=lambda x: _tile(section_jac_mat, x),
        chi=chi, chi_jac=lambda q: _tile(chi_jac_mat, q),
        c=c,
        right_translate=right_translate,
        right_translate_jac=lambda x, a: _tile(np.eye(n_P), x),
        vspace_action=vspace_action,
        vspace_action_d=vspace_action_d)


def _box(n: int, lo: float, hi: float) -> np.ndarray:
    return np.column_stack([np.full(n, lo), np.full(n, hi)])


def _scenario(name: str, orig: OriginalGeometry, **data) -> Scenario:
    """The scenario on ``orig``, with the geometry's dimensions, the chart
    box [-0.4, 0.4] and the group box [0.1, 0.35] on every coordinate."""
    return Scenario(name=name, n_x=orig.n_x, n_v=orig.n_v, n_g=orig.n_g,
                    adapted=compile_adapted(orig), orig=orig,
                    sample_domain=_box(orig.n_h, -0.4, 0.4),
                    a_domain=_box(orig.n_g, 0.1, 0.35), **data)


#: The su(2) generators -ad_gamma, ``(ad_gamma)^e_m = c^e_{gamma m}``.
_SU2_GENS = -np.ascontiguousarray(np.transpose(su2_constants().c, (1, 0, 2)))


def _reject_unknown(params: dict, allowed) -> None:
    extra = set(params) - set(allowed)
    if extra:
        raise ConfigError("unknown scenario parameter(s): %s"
                          % ", ".join(sorted(extra)))


def _twisted_g(x):
    out = np.empty((len(x), 2, 2))
    out[:, 0, 0] = 1.0 + 0.1 * np.sin(x[:, 0])
    out[:, 0, 1] = out[:, 1, 0] = 0.05 * x[:, 0] * x[:, 1]
    out[:, 1, 1] = 1.0 + 0.1 * np.cos(x[:, 1])
    return out


_SYM_12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_SYM_23 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


_BBAR_DIAG = np.diag([1.0, 1.3, 0.8])


def _twisted_bbar(x):
    return (_BBAR_DIAG
            + (0.2 * np.sin(x[:, 0]))[:, None, None] * _SYM_12
            + (0.15 * x[:, 1])[:, None, None] * _SYM_23)


def _twisted_twist(x):
    out = np.empty((len(x), 3, 2))
    out[:, 0, 0], out[:, 0, 1] = 0.3 * x[:, 1], -0.2 * x[:, 0]
    out[:, 1, 0], out[:, 1, 1] = 0.1, 0.25 * x[:, 0]
    out[:, 2, 0], out[:, 2, 1] = -0.15 * x[:, 1], 0.2
    return out


def _build_twisted(params: dict) -> Scenario:
    _reject_unknown(params, {"lam_v"})
    lam_v = float(params.get("lam_v", 1.2))
    if lam_v <= 0:
        raise ConfigError("lam_v must be positive")
    orig = _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=_SU2_GENS,
        g_v=lam_v * np.eye(3), c=su2_constants())
    return _scenario("twisted_bundle", orig, params={"lam_v": lam_v})


def _build_abelian(params: dict) -> Scenario:
    _reject_unknown(params, set())
    kappa = np.array([0.7, 1.1, -0.4])
    rotor = _SU2_GENS[2]            # rotation of the first two components
    gens = np.stack([kappa[g] * rotor for g in range(3)])
    orig = _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=gens,
        g_v=np.diag([1.0, 1.0, 1.5]), c=abelian_constants(3))
    return _scenario("abelian_limit", orig, params={})


def _build_flat(params: dict) -> Scenario:
    _reject_unknown(params, {"lam", "group", "gv_offdiag"})
    lam = float(params.get("lam", 1.0))
    group = str(params.get("group", "su2"))
    gv_offdiag = float(params.get("gv_offdiag", 0.0))
    if lam <= 0:
        raise ConfigError("lam must be positive")
    if group not in ("su2", "abelian"):
        raise ConfigError("group must be 'su2' or 'abelian'")
    if not abs(gv_offdiag) < 1.0:
        raise ConfigError("gv_offdiag must have magnitude below 1")
    g_v = np.eye(3)
    g_v[0, 1] = g_v[1, 0] = gv_offdiag
    su2 = group == "su2"
    orig = _build_original(
        n_x=2, g_func=lambda x: _tile(np.eye(2), x),
        bbar_func=lambda x: _tile(lam * np.eye(3), x),
        twist_func=lambda x: np.zeros((len(x), 3, 2)),
        gens=np.zeros((3, 3, 3)), g_v=g_v,
        c=su2_constants() if su2 else abelian_constants(3))
    expected_rg = -1.5 / lam if su2 else 0.0
    return _scenario(
        "flat_product", orig,
        params={"lam": lam, "group": group, "gv_offdiag": gv_offdiag},
        expected={"jacobian_zero": True, "r_group": expected_rg})


def _build_scaled(params: dict) -> Scenario:
    _reject_unknown(params, {"slope"})
    slope = float(params.get("slope", 1.0))
    if not np.isfinite(slope):
        raise ConfigError("slope must be finite")

    def bbar(x):
        return np.exp(2.0 * slope * x[:, 0])[:, None, None] * np.eye(3)

    orig = _build_original(
        n_x=2, g_func=lambda x: _tile(np.eye(2), x), bbar_func=bbar,
        twist_func=lambda x: np.zeros((len(x), 3, 2)),
        gens=np.zeros((3, 3, 3)), g_v=np.eye(3),
        c=su2_constants())
    return _scenario(
        "scaled_orbit", orig, params={"slope": slope},
        expected={"grad_ln_d": 9.0 * slope * slope,
                  "jacobian": 9.0 * slope * slope,
                  "dddd": 3.0 * slope * slope})


_REGISTRY = {
    "twisted_bundle": _build_twisted,
    "abelian_limit": _build_abelian,
    "flat_product": _build_flat,
    "scaled_orbit": _build_scaled,
}

SCENARIO_NAMES = tuple(sorted(_REGISTRY))


def build_scenario(name: str, params: dict = None, **kwargs) -> Scenario:
    """Construct a registered scenario.

    Parameters may come as a dict, as keyword arguments, or both
    (keywords win). Each scenario's bundle data is passed through the
    Killing/section/transversality gates at probe points before it is
    returned.
    """
    if name not in _REGISTRY:
        raise ConfigError("unknown scenario %r (choose from %s)"
                          % (name, ", ".join(SCENARIO_NAMES)))
    merged = dict(params or {})
    merged.update(kwargs)
    scenario = _REGISTRY[name](merged)
    report = validate_original(
        scenario.orig, sample_points(scenario, 3, seed=20_240_817),
        group_points=sample_group_coordinates(scenario, 3, seed=20_240_817))
    if not report.ok:
        raise ConfigError(
            "scenario %r failed its geometry gates (killing %.2e, "
            "section %.2e, transversality condition %.2e, bracket "
            "%.2e, worst at (alpha, beta) = %s, structure constants "
            "valid: %s)"
            % (name, report.killing_residual, report.section_residual,
               report.fp_condition, report.bracket_residual,
               report.bracket_pair, report.constants_valid))
    return scenario


def _box_draws(box, count: int, seed: int) -> np.ndarray:
    """``count`` seeded uniform rows in ``box``; one row is its center."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    if seed < 0:
        raise ConfigError("seed must be non-negative, got %r" % (seed,))
    box = np.asarray(box, dtype=float)
    if count == 1:
        return 0.5 * (box[:, 0] + box[:, 1])[None, :]
    rng = np.random.default_rng(seed)
    span = box[:, 1] - box[:, 0]
    return box[:, 0] + rng.random((count, box.shape[0])) * span


def sample_points(scenario: Scenario, count: int, seed: int = 0):
    """Seeded uniform chart points inside the scenario's sampling box.

    ``count == 1`` returns the box center, the canonical spot value.
    """
    n_x = scenario.n_x
    return [ChartPoint(x=row[:n_x], f=row[n_x:])
            for row in _box_draws(scenario.sample_domain, count, seed)]


def sample_group_coordinates(scenario: Scenario, count: int,
                             seed: int = 0) -> np.ndarray:
    """Seeded group-coordinate draws inside the scenario's ``a`` box."""
    return _box_draws(scenario.a_domain, count, seed + 1)
