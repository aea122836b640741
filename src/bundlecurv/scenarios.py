r"""Built-in concrete geometries with known structure.

Each scenario packages an original bundle geometry (a chart box times a
three-parameter group factor, acting linearly on a three-dimensional
vector sector), the compiled adapted geometry, an optional group chart
for the coordinate oracle, and a sampling box. Dimensions
are kept at desk scale, ``n_x = 2, n_v = 3, n_g = 3``: every index
sector is nontrivial, and the eight-dimensional coordinate oracle
evaluates its 1,089-row stencil in one stacked metric call, whose group
series run on the stencil's 169 distinct group rows.

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

from dataclasses import dataclass, field

import numpy as np

from .fields import ChartPoint, ConfigError
from .geometry import (AdaptedGeometry, OriginalGeometry, compile_adapted,
                       validate_original)
from .liecore import StructureConstants, abelian_constants, su2_constants
from .curvature import GroupChart

__all__ = [
    "Scenario",
    "SCENARIO_NAMES",
    "build_scenario",
    "sample_points",
    "sample_group_coordinates",
]

_SERIES_TERMS = 40


#: ``_cross`` fills the off-diagonal entries of each flattened 3x3 matrix
#: with these vector components, times these signs.
_CROSS_SLOTS = np.array([1, 2, 3, 5, 6, 7])
_CROSS_PARTS = np.array([2, 1, 2, 0, 1, 0])
_CROSS_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _cross(v: np.ndarray) -> np.ndarray:
    """The cross-product matrix of each vector of a ``(..., 3)`` stack."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (9,))
    out[..., _CROSS_SLOTS] = v[..., _CROSS_PARTS] * _CROSS_SIGNS
    return out.reshape(v.shape[:-1] + (3, 3))


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


def _exp_series(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by direct series over a ``(..., n, n)`` stack;
    converges fast at chart scale."""
    mat = np.asarray(mat, dtype=float)
    mats = mat.reshape((-1,) + mat.shape[-2:])
    term = _tile(np.eye(mats.shape[-1]), mats)
    sums = _SeriesTotals(term)
    for k in range(1, _SERIES_TERMS):
        term = term @ mats / k
        live = sums.add(term, np.abs(term).max(axis=(1, 2)), term, mats)
        if live is None:
            break
        term, mats = live
    return sums.result(mat.shape)


def _phi_series(mat: np.ndarray) -> np.ndarray:
    r"""The subgroup Jacobian factor :math:`\sum_k M^k/(k+1)!` over a
    ``(..., n, n)`` stack.

    Equals :math:`(e^M - 1)M^{-1}`; applied to the coordinate cross
    matrix it gives the left Jacobian of the exponential chart.
    """
    mat = np.asarray(mat, dtype=float)
    mats = mat.reshape((-1,) + mat.shape[-2:])
    term = _tile(np.eye(mats.shape[-1]), mats)
    sums = _SeriesTotals(term)
    fact = 1.0
    for k in range(1, _SERIES_TERMS):
        term = term @ mats
        fact = fact * (k + 1)
        piece = term / fact
        live = sums.add(piece, np.abs(piece).max(axis=(1, 2)), term, mats)
        if live is None:
            break
        term, mats = live
    return sums.result(mat.shape)


def _dexp_apply(x_mat: np.ndarray, y_mat: np.ndarray) -> np.ndarray:
    """phi(ad_X)(Y): the left-logarithmic derivative of exp along Y at X,
    for stacks of ``X`` and ``Y`` that broadcast against each other."""
    x_mat, y_mat = np.broadcast_arrays(np.asarray(x_mat, dtype=float),
                                       np.asarray(y_mat, dtype=float))
    xs = x_mat.reshape((-1,) + x_mat.shape[-2:])
    term = y_mat.reshape(xs.shape)
    sums = _SeriesTotals(np.zeros(xs.shape))
    fact = 1.0
    for k in range(_SERIES_TERMS):
        piece = term / fact
        term = xs @ term - term @ xs
        fact = fact * (k + 2)
        live = sums.add(piece, np.abs(term).max(axis=(1, 2)) / fact, term,
                        xs)
        if live is None:
            break
        term, xs = live
    return sums.result(x_mat.shape)


@dataclass(frozen=True)
class Scenario:
    """A fully wired geometry plus its sampling and expectation data."""

    name: str
    n_x: int
    n_v: int
    n_g: int
    adapted: AdaptedGeometry
    orig: OriginalGeometry = None
    chart: GroupChart = None
    sample_domain: np.ndarray = None
    a_domain: np.ndarray = None
    params: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def _su2_chart() -> GroupChart:
    def u(b):
        return np.linalg.inv(_phi_series(_cross(b)))

    def u_bar(b):
        return _phi_series(_cross(b))

    def v(b):
        return np.linalg.inv(_phi_series(-_cross(b)))

    def v_bar(b):
        return _phi_series(-_cross(b))

    def rho(b):
        return _exp_series(_cross(b))

    def rho_bar(b):
        return _exp_series(-_cross(b))

    return GroupChart(n_g=3, u=u, v=v, rho=rho, u_bar=u_bar, v_bar=v_bar,
                      rho_bar=rho_bar)


def _trivial_chart() -> GroupChart:
    def ident(b):
        return np.eye(3)

    return GroupChart(n_g=3, u=ident, v=ident, rho=ident, u_bar=ident,
                      v_bar=ident, rho_bar=ident)


def _build_original(n_x: int, g_func, bbar_func, twist_func, gens,
                    g_v: np.ndarray, c: StructureConstants,
                    abelian_group: bool) -> OriginalGeometry:
    """Chart-box-times-group bundle with a right-invariant group factor.

    The group block of the metric carries the value ``bbar_func(x)`` at
    the identity, transported by the subgroup Jacobian factor; the
    ``twist_func`` columns mix base and group directions. Killing fields
    are the generators of right translations, so the gauge section
    ``b = 0`` is everywhere transversal.
    """
    n_g = 3
    n_P = n_x + n_g
    gens = np.asarray(gens, dtype=float)
    n_v = gens.shape[1]

    if abelian_group:
        def jac_factor(b):
            return _tile(np.eye(3), b)
    else:
        def jac_factor(b):
            return _phi_series(_cross(b))

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
        n_P=n_P, n_v=n_v, n_g=n_g,
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


_SU2_GENS = -_cross(np.eye(3))


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
        g_v=lam_v * np.eye(3), c=su2_constants(), abelian_group=False)
    return Scenario(
        name="twisted_bundle", n_x=2, n_v=3, n_g=3,
        adapted=compile_adapted(orig), orig=orig, chart=_su2_chart(),
        sample_domain=_box(5, -0.4, 0.4), a_domain=_box(3, 0.1, 0.35),
        params={"lam_v": lam_v})


def _build_abelian(params: dict) -> Scenario:
    _reject_unknown(params, set())
    kappa = np.array([0.7, 1.1, -0.4])
    rotor = -_cross(np.eye(3)[2])
    gens = np.stack([kappa[g] * rotor for g in range(3)])
    orig = _build_original(
        n_x=2, g_func=_twisted_g, bbar_func=_twisted_bbar,
        twist_func=_twisted_twist, gens=gens,
        g_v=np.diag([1.0, 1.0, 1.5]), c=abelian_constants(3),
        abelian_group=True)
    return Scenario(
        name="abelian_limit", n_x=2, n_v=3, n_g=3,
        adapted=compile_adapted(orig), orig=orig, chart=_trivial_chart(),
        sample_domain=_box(5, -0.4, 0.4), a_domain=_box(3, 0.1, 0.35),
        params={})


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
        c=su2_constants() if su2 else abelian_constants(3),
        abelian_group=not su2)
    expected_rg = -1.5 / lam if su2 else 0.0
    return Scenario(
        name="flat_product", n_x=2, n_v=3, n_g=3,
        adapted=compile_adapted(orig), orig=orig,
        chart=_su2_chart() if su2 else _trivial_chart(),
        sample_domain=_box(5, -0.4, 0.4), a_domain=_box(3, 0.1, 0.35),
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
        c=su2_constants(), abelian_group=False)

    return Scenario(
        name="scaled_orbit", n_x=2, n_v=3, n_g=3,
        adapted=compile_adapted(orig), orig=orig,
        chart=_su2_chart(),
        sample_domain=_box(5, -0.4, 0.4), a_domain=_box(3, 0.1, 0.35),
        params={"slope": slope},
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
    (keywords win). Each scenario with bundle data is passed through the
    Killing/section/transversality gates at probe points before it is
    returned.
    """
    if name not in _REGISTRY:
        raise ConfigError("unknown scenario %r (choose from %s)"
                          % (name, ", ".join(SCENARIO_NAMES)))
    merged = dict(params or {})
    merged.update(kwargs)
    scenario = _REGISTRY[name](merged)
    if scenario.orig is not None:
        probes = sample_points(scenario, 3, seed=20_240_817)
        group = None
        if scenario.a_domain is not None:
            group = sample_group_coordinates(scenario, 3, seed=20_240_817)
        report = validate_original(scenario.orig, probes, group_points=group)
        if not report.ok:
            raise ConfigError(
                "scenario %r failed its geometry gates (killing %.2e, "
                "section %.2e, transversality condition %.2e)"
                % (name, report.killing_residual, report.section_residual,
                   report.fp_condition))
    return scenario


def sample_points(scenario: Scenario, count: int, seed: int = 0):
    """Seeded uniform chart points inside the scenario's sampling box.

    ``count == 1`` returns the box center, the canonical spot value.
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    box = np.asarray(scenario.sample_domain, dtype=float)
    center = 0.5 * (box[:, 0] + box[:, 1])
    n_x = scenario.n_x
    if count == 1:
        return [ChartPoint(x=center[:n_x], f=center[n_x:])]
    rng = np.random.default_rng(seed)
    span = box[:, 1] - box[:, 0]
    draws = box[:, 0] + rng.random((count, box.shape[0])) * span
    return [ChartPoint(x=row[:n_x], f=row[n_x:]) for row in draws]


def sample_group_coordinates(scenario: Scenario, count: int,
                             seed: int = 0) -> np.ndarray:
    """Seeded group-coordinate draws inside the scenario's ``a`` box."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    box = np.asarray(scenario.a_domain, dtype=float)
    if count == 1:
        return 0.5 * (box[:, 0] + box[:, 1])[None, :]
    rng = np.random.default_rng(seed + 1)
    span = box[:, 1] - box[:, 0]
    return box[:, 0] + rng.random((count, box.shape[0])) * span
