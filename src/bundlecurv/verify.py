"""Named identity checks over sampled points, with a report type.

Each check pins one of the library's cross-route identities: two
independently computed quantities are evaluated at every sampled chart
point and the relative gap ``|a - b| / max(1, |a|, |b|)`` is recorded.
The command line front end is the main consumer, but the runner is plain
library code and the test suite drives it directly.

Points are evaluated one after another in the order given, and the
reduction into a report is an ordered pass over point indices, so a config
with a fixed seed always produces the identical report. A residual that is
NaN, infinite or missing at some point fails its part.

The checks of one point share its ``curvature.PointTerms``, the one
point record, dropped after the point, which owns the point's frames:
the one read on its centre-first 21-row ``stencil``, as the ``stack``
and its checked ``frames``, row 0 the point. An entry is computed when
a check first reads it, so a check run alone computes only what it
reads, with the same bits. Reads: ``christoffel`` the point's ``jet``;
``curvature`` the ``breakdown`` (from ``R_M``, ``R_G``, ``FF``,
``DdDd``, ``log_density``), ``pair_table`` and ``pair_general``;
``jacobian`` the ``log_density`` (direct route) and ``pair_table``,
``R_G``, ``FF``, ``DdDd`` (geometric route); ``secondform`` ``h_inv``,
``Dd``, ``killing``, ``h_tilde``, ``d_inv``, ``DdDd`` and the
``stack``; ``killingderiv`` ``killing``, ``section``, the ``jet`` and
the ``stack``; ``detfact`` the point's row of ``frames``; ``sde``
``h_inv`` and the ``stencil``, ``stack`` and ``frames``. The metrics,
their inverses, ``F`` and ``Dd`` at the point are row 0 of the point's
jet; each jet holds the Levi-Civita symbols of h~ once, and both Ricci
pairs read both jets. ``section`` is the one section stencil's partials
at the point, the ones the scenario's Killing gate takes, and
``killing`` the Killing derivatives, symmetrized once for both readers.
Route-private: each Christoffel route's symbols, the
vector-sector Killing identity's derivatives, the determinant check's
block metric and each drift route's differenced fields. A residual
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
from .curvature import PointTerms, decomposition_terms
from .jacobian import (jacobian_direct, jacobian_geometric,
                       killing_identities_check, second_fundamental_form)
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


def relative_gap(a, b) -> float:
    """Max-norm relative gap ``|a - b| / max(1, |a|, |b|)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


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


def _check_christoffel(scenario, point, terms):
    table = christoffel_table(terms.jet)
    general = christoffel_general(terms.jet)
    return {"table_vs_general": relative_gap(table, general)}


def _check_curvature(scenario, point, terms):
    breakdown = decomposition_terms(scenario.adapted, point, terms.engine,
                                    terms)
    values = np.array([breakdown.R_total, terms.pair_table[0],
                       terms.pair_general[0]])
    # numpy reductions: a NaN route makes the residual NaN wherever it sits
    scale = np.maximum(1.0, np.abs(values).max())
    return {"three_way": float((values.max() - values.min()) / scale)}


def _check_jacobian(scenario, point, terms):
    adapted, engine = scenario.adapted, terms.engine
    direct = jacobian_direct(adapted, point, engine, terms)
    geometric = jacobian_geometric(adapted, point, engine, terms)
    parts = {"direct_vs_geometric": relative_gap(direct, geometric)}
    if scenario.expected.get("jacobian_zero"):
        parts["flat_absolute"] = _worst((abs(direct), abs(geometric)))
    return parts


def _check_secondform(scenario, point, terms):
    form = second_fundamental_form(scenario.adapted, point, terms.engine,
                                   terms)
    parts = {}
    if form.raw is not None:
        parts["raw_vs_closed"] = relative_gap(form.raw, form.closed)
    parts["norm_vs_decomposition"] = relative_gap(
        form.norm_squared(terms.d_inv, terms.h_tilde), terms.DdDd)
    return parts


def _check_killingderiv(scenario, point, terms):
    res = killing_identities_check(terms)
    return {"raw_base": res.raw_base, "raw_vector": res.raw_vector,
            "adapted_base": res.adapted_base,
            "adapted_vector": res.adapted_vector}


def _check_detfact(scenario, point, terms):
    block = assemble_block_metric(
        scenario.adapted, point,
        AdaptedFrames._make(array[:, 0] for array in terms.frames))
    round_trip = block.matrix @ block.inverse - np.eye(scenario.adapted.n_t)
    return {"det_product": det_factorization_check(block),
            "inverse_round_trip": float(np.max(np.abs(round_trip)))}


def _check_sde(scenario, point, terms):
    adapted, engine = scenario.adapted, terms.engine
    blocks = diffusion_coefficients(adapted, point, engine, terms)
    squared = blocks.full @ blocks.full.T
    parts = {"diffusion_square": relative_gap(squared, terms.h_inv)}
    if adapted.orig is not None:
        drift = drift_coefficients(adapted, point, engine, terms)
        divergence = drift_divergence_form(adapted, point, engine, terms)
        parts["drift_vs_divergence"] = relative_gap(drift, divergence)
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
    DEFAULT_TOLERANCES). Points are evaluated in order; a part missing at
    some point records NaN there, so the part fails.
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

    def evaluate(point):
        terms = PointTerms(scenario.adapted, point, engine)
        return {name: _CHECK_FUNCS[name](scenario, point, terms)
                for name in selected}

    per_point = [evaluate(p) for p in points]

    results = []
    for name in selected:
        part_names = []
        for row in per_point:
            for pname in row[name]:
                if pname not in part_names:
                    part_names.append(pname)
        parts = tuple(
            CheckPart(name=pname,
                      residuals=tuple(row[name].get(pname, float("nan"))
                                      for row in per_point),
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
