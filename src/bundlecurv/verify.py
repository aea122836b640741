"""Named identity checks over sampled points, with a report type.

Each check pins one of the library's cross-route identities: two
independently computed quantities are evaluated at every sampled chart
point and the relative gap ``|a - b| / max(1, |a|, |b|)`` is recorded.
The command line front end is the main consumer, but the runner is plain
library code and the test suite drives it directly.

A call evaluates all its points at once, and the reduction into a report
is an ordered pass over point indices, so a config with a fixed seed
always produces the identical report. A point's residuals do not depend
on the other points of its call, nor on their order: every stacked
contraction runs point by point along a leading point axis. A residual
that is NaN, infinite or missing at some point fails its part.

The checks of one call share its ``curvature.PointTerms``, the one
record of the call's ``B`` points, dropped after the call, which owns
the points' frames: the one read on all their centre-first 21-row
``stencil`` rows (one compile of ``21 B`` rows on bundle data), as the
``stack``, its checked ``frames`` and, on bundle data, the stack's rows
at the points, ``at_points``. A check returns one residual per point of
the record it is given, per part. The first-order checks run once per
call, on all the points. The curvature and jacobian checks, which
difference twice, run point by point on ``PointTerms.single``, the
point's one-point record that shares the call's jet row and its
``R_G``, ``FF`` and ``DdDd``, so that a call holds one point's 441-row
nested jet at a time. An entry is computed when a check first reads it,
so a check run alone computes only what it reads, with the same bits.
Every check reads the record's entries or calls the public routes of
``jacobian`` and ``sde`` on it. Reads: ``christoffel`` the points'
``jet``; ``curvature`` the ``breakdown`` (from ``R_M``, ``R_G``, ``FF``,
``DdDd``, ``log_density``), ``pair_table`` and ``pair_general``;
``jacobian`` ``J_direct`` (from ``log_density``) and ``J_geometric``
(from ``pair_table``, ``R_G``, ``FF``, ``DdDd``); ``secondform``
``h_inv``, ``Dd``, ``killing``, ``h_tilde``, ``d_inv``, ``DdDd`` and
``at_points``;
``killingderiv`` ``killing``, ``section``, ``coords``, the ``jet`` and
``at_points``; ``detfact`` the points' rows of ``frames``; ``sde``
``h_inv``, ``at_points`` and the ``stencil``, ``stack`` and ``frames``.
The metrics, their inverses, ``F`` and ``Dd`` at the points are the
rows of the points' jet; each jet holds the Levi-Civita symbols of h~
once, and both Ricci pairs read both jets. The second-order entries read
the nested jet, whose frames each point compiles on its own 441 rows.
``section`` is the one section stencil's partials at the points'
section points, the ones the scenario's Killing gate takes, and
``killing`` the Killing derivatives, symmetrized once for both readers.
Route-private: each Christoffel route's symbols, the
vector-sector Killing identity's derivatives, the determinant check's
block metrics and each drift route's differenced fields. A residual
reduced over routes or values uses numpy reductions, so a NaN anywhere
makes it NaN.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fields import ConfigError, DEFAULT_ENGINE, DerivEngine, _worst
from .geometry import (AdaptedFrames, assemble_block_metric,
                       det_factorization_check)
from .connection import christoffel_general, christoffel_table
from .curvature import PointTerms
from .jacobian import killing_identities_check, second_fundamental_form
from .sde import (diffusion_coefficients, drift_coefficients,
                  drift_divergence_form)

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_TOLERANCES",
    "CheckPart",
    "CheckResult",
    "VerificationReport",
    "relative_gap",
    "run_checks",
]

#: Canonical check order; reports always list selected checks in this order.
CHECK_NAMES = ("christoffel", "curvature", "jacobian", "secondform",
               "killingderiv", "detfact", "sde")

#: Default tolerance per (check, part). The ``curvature`` and ``jacobian``
#: checks compare formula routes against derivative-heavy oracles and are
#: overridden by ``tol_oracle``; the rest are algebraic or first-derivative
#: identities and follow ``tol_identity``.
DEFAULT_TOLERANCES = {
    ("christoffel", "table_vs_general"): 1e-8,
    ("curvature", "three_way"): 1e-6,
    ("jacobian", "direct_vs_geometric"): 1e-6,
    ("jacobian", "flat_absolute"): 1e-10,
    ("secondform", "raw_vs_closed"): 1e-7,
    ("secondform", "norm_vs_decomposition"): 1e-9,
    ("killingderiv", "raw_base"): 1e-7,
    ("killingderiv", "raw_vector"): 1e-7,
    ("killingderiv", "adapted_base"): 1e-7,
    ("killingderiv", "adapted_vector"): 1e-7,
    ("detfact", "det_product"): 1e-9,
    ("detfact", "inverse_round_trip"): 1e-10,
    ("sde", "diffusion_square"): 1e-9,
    ("sde", "drift_vs_divergence"): 1e-7,
}

_ORACLE_CHECKS = frozenset({"curvature", "jacobian"})


def _point_gaps(a, b):
    """``relative_gap`` of each point of two stacks, over all but their
    leading axis: one gap per point."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def worst(x):
        return np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0)

    return worst(a - b) / np.maximum(1.0, np.maximum(worst(a), worst(b)))


def relative_gap(a, b) -> float:
    """Max-norm relative gap ``|a - b| / max(1, |a|, |b|)``."""
    return float(_point_gaps(np.asarray(a, dtype=float)[None],
                             np.asarray(b, dtype=float)[None])[0])


@dataclass(frozen=True)
class CheckPart:
    """One identity inside a check: per-point residuals vs one tolerance."""

    name: str
    residuals: tuple
    tolerance: float

    @property
    def max_residual(self) -> float:
        return _worst(self.residuals)

    @property
    def mean_residual(self) -> float:
        if not self.residuals:
            return 0.0
        return float(sum(self.residuals) / len(self.residuals))

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


@dataclass(frozen=True)
class CheckResult:
    """All identity parts of one named check."""

    name: str
    parts: tuple = ()

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.parts)

    @property
    def max_residual(self) -> float:
        return _worst(p.max_residual for p in self.parts)


@dataclass(frozen=True)
class VerificationReport:
    """Result of one verification run.

    ``results`` holds the selected checks in canonical order; ``not_run``
    lists the checks the config skipped, so nothing disappears silently.
    ``wall_time`` is informational and never serialized into report
    artifacts (identical configs must produce identical bytes).
    """

    scenario: str
    n_points: int
    seed: int
    results: tuple
    not_run: tuple
    wall_time: float
    config_echo: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_residual(self) -> float:
        return _worst(r.max_residual for r in self.results)


def _check_christoffel(scenario, terms):
    table = christoffel_table(terms.jet)
    general = christoffel_general(terms.jet)
    return {"table_vs_general": _point_gaps(table, general)}


def _check_curvature(scenario, terms):
    totals = [breakdown.R_total for breakdown in terms.breakdown]
    values = np.array([totals, terms.pair_table[0], terms.pair_general[0]])
    # numpy reductions: a NaN route makes the residual NaN wherever it sits
    scale = np.maximum(1.0, np.abs(values).max(axis=0))
    return {"three_way": (values.max(axis=0) - values.min(axis=0)) / scale}


def _check_jacobian(scenario, terms):
    direct, geometric = terms.J_direct, terms.J_geometric
    parts = {"direct_vs_geometric": _point_gaps(direct, geometric)}
    if scenario.expected.get("jacobian_zero"):
        parts["flat_absolute"] = np.maximum(np.abs(direct),
                                            np.abs(geometric))
    return parts


def _check_secondform(scenario, terms):
    form = second_fundamental_form(terms)
    raw = form.raw
    parts = {}
    if raw is not None:
        parts["raw_vs_closed"] = _point_gaps(raw, form.closed)
    parts["norm_vs_decomposition"] = _point_gaps(
        form.norm_squared(terms.d_inv, terms.h_tilde), terms.DdDd)
    return parts


def _check_killingderiv(scenario, terms):
    res = killing_identities_check(terms)
    return {"raw_base": res.raw_base, "raw_vector": res.raw_vector,
            "adapted_base": res.adapted_base,
            "adapted_vector": res.adapted_vector}


def _check_detfact(scenario, terms):
    block = assemble_block_metric(
        scenario.adapted,
        AdaptedFrames._make(array[:, 0] for array in terms.frames))
    round_trip = block.matrix @ block.inverse - np.eye(scenario.adapted.n_t)
    return {"det_product": det_factorization_check(block),
            "inverse_round_trip": np.abs(round_trip).max(axis=(1, 2))}


def _check_sde(scenario, terms):
    full = diffusion_coefficients(terms).full
    parts = {"diffusion_square": _point_gaps(full @ full.swapaxes(1, 2),
                                             terms.h_inv)}
    if scenario.adapted.orig is not None:
        parts["drift_vs_divergence"] = _point_gaps(
            drift_coefficients(terms), drift_divergence_form(terms))
    return parts


_CHECK_FUNCS = {
    "christoffel": _check_christoffel,
    "curvature": _check_curvature,
    "jacobian": _check_jacobian,
    "secondform": _check_secondform,
    "killingderiv": _check_killingderiv,
    "detfact": _check_detfact,
    "sde": _check_sde,
}


def _resolve_tolerance(check, part, tol_identity, tol_oracle):
    default = DEFAULT_TOLERANCES[(check, part)]
    override = tol_oracle if check in _ORACLE_CHECKS else tol_identity
    return default if override is None else float(override)


def run_checks(scenario, points, checks=CHECK_NAMES, *,
               engine: DerivEngine = DEFAULT_ENGINE,
               tol_identity: float = None, tol_oracle: float = None,
               seed: int = 0, config_echo: dict = None
               ) -> VerificationReport:
    """Evaluate the selected checks at every point and assemble a report.

    ``checks`` must be a nonempty subset of CHECK_NAMES; unselected checks
    are reported under ``not_run``. ``tol_identity`` and ``tol_oracle``
    override the per-part defaults for their check classes (see
    DEFAULT_TOLERANCES). The points are stacked through one
    ``curvature.PointTerms``: the first-order work of all of them runs
    once (one frame compile, one jet, one section stencil), and each
    first-order check once, returning one residual per point. The
    curvature and jacobian checks run point by point, each point's
    nested compile on its own. A part missing at some point records NaN
    there, so the part fails.
    """
    selected = [c for c in CHECK_NAMES if c in set(checks)]
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ConfigError("unknown checks: %s (choose from %s)"
                          % (", ".join(sorted(unknown)),
                             ", ".join(CHECK_NAMES)))
    if not selected:
        raise ConfigError("checks must be a nonempty subset of: %s"
                          % ", ".join(CHECK_NAMES))
    points = list(points)
    if not points:
        raise ConfigError("points: need at least one sample point")

    start = time.perf_counter()
    terms = PointTerms(scenario.adapted, points, engine)
    table = {name: [{} for _ in points] for name in selected}

    def fill(name, rows, record):
        for pname, values in _CHECK_FUNCS[name](scenario, record).items():
            for row, value in zip(rows, values):
                row[pname] = float(value)

    twice = [name for name in selected if name in _ORACLE_CHECKS]
    for name in selected:
        if name not in twice:
            fill(name, table[name], terms)
    # the checks that difference twice go point by point, so that a call
    # holds one point's nested jet at a time: stacked, the jets and their
    # Christoffel routes raised the peak memory of 20 points by 25 MB
    for i in range(len(points) if twice else 0):
        single = terms.single(i)
        for name in twice:
            fill(name, table[name][i:i + 1], single)

    results = []
    for name in selected:
        part_names = list(dict.fromkeys(pname for row in table[name]
                                        for pname in row))
        parts = tuple(
            CheckPart(name=pname,
                      residuals=tuple(row.get(pname, float("nan"))
                                      for row in table[name]),
                      tolerance=_resolve_tolerance(name, pname,
                                                   tol_identity, tol_oracle))
            for pname in part_names)
        results.append(CheckResult(name=name, parts=parts))

    return VerificationReport(
        scenario=scenario.name,
        n_points=len(points),
        seed=seed,
        results=tuple(results),
        not_run=tuple(c for c in CHECK_NAMES if c not in selected),
        wall_time=time.perf_counter() - start,
        config_echo=dict(config_echo or {}))
