"""The verification layer: parts, tolerances, the serial runner, reports."""

import dataclasses

import numpy as np
import pytest

from bundlecurv.fields import ChartPoint, ConfigError
from bundlecurv.geometry import compile_adapted, frame_cache_info
from bundlecurv.scenarios import SCENARIO_NAMES, build_scenario, sample_points
from bundlecurv.verify import (
    CHECK_NAMES,
    CheckPart,
    CheckResult,
    DEFAULT_TOLERANCES,
    relative_gap,
    run_checks,
)
from bundlecurv import verify


CHEAP_CHECKS = ("christoffel", "secondform", "detfact", "sde")


def test_check_names_cover_tolerance_table():
    assert len(CHECK_NAMES) == 7
    for check, part in DEFAULT_TOLERANCES:
        assert check in CHECK_NAMES
    for name in CHECK_NAMES:
        assert any(check == name for check, _ in DEFAULT_TOLERANCES)


def test_relative_gap_definition():
    assert relative_gap(1.0, 1.0) == 0.0
    assert relative_gap(0.0, 1e-3) == pytest.approx(1e-3)       # floor at 1
    assert relative_gap(200.0, 100.0) == pytest.approx(0.5)     # scaled
    assert relative_gap(np.zeros(0), np.zeros(0)) == 0.0


def test_check_part_statistics():
    part = CheckPart(name="p", residuals=(1e-9, 3e-9, 2e-9), tolerance=1e-8)
    assert part.max_residual == pytest.approx(3e-9)
    assert part.mean_residual == pytest.approx(2e-9)
    assert part.passed
    failing = CheckPart(name="p", residuals=(1e-7,), tolerance=1e-8)
    assert not failing.passed
    result = CheckResult(name="c", parts=(part, failing))
    assert not result.passed
    assert result.max_residual == pytest.approx(1e-7)


@pytest.mark.parametrize("residuals", [(1e-12, float("nan")),
                                       (float("nan"), 1e-12),
                                       (1e-12, float("inf"))])
def test_check_part_fails_on_non_finite(residuals):
    part = CheckPart(name="p", residuals=residuals, tolerance=1e-8)
    assert not part.passed
    assert not np.isfinite(part.max_residual)
    result = CheckResult(name="c", parts=(CheckPart("q", (0.0,), 1e-8),
                                          part))
    assert not result.passed
    assert not np.isfinite(result.max_residual)


def test_run_checks_missing_part_fails(flat, engine, monkeypatch):
    """A part reported at some points only is non-finite where it is
    missing, so the report fails instead of reading 0 there."""
    calls = iter(range(10))

    def patchy(scenario, point, engine):
        return {"det_product": 0.0} if next(calls) == 0 else {}

    monkeypatch.setitem(verify._CHECK_FUNCS, "detfact", patchy)
    report = run_checks(flat, sample_points(flat, 2, seed=5), ("detfact",),
                        engine=engine)
    part = report.results[0].parts[0]
    assert part.residuals[0] == 0.0
    assert np.isnan(part.residuals[1])
    assert not report.passed


def test_run_checks_flat_cheap_subset(flat, engine):
    points = sample_points(flat, 3, seed=11)
    report = run_checks(flat, points, CHEAP_CHECKS, engine=engine, seed=11,
                        config_echo={"origin": "unit test"})
    assert report.passed
    assert report.scenario == "flat_product"
    assert report.n_points == 3
    assert report.seed == 11
    assert report.config_echo == {"origin": "unit test"}
    assert set(report.not_run) == set(CHECK_NAMES) - set(CHEAP_CHECKS)
    names = [r.name for r in report.results]
    assert names == [c for c in CHECK_NAMES if c in CHEAP_CHECKS]
    for result in report.results:
        for part in result.parts:
            assert len(part.residuals) == 3
            assert part.tolerance == DEFAULT_TOLERANCES[(result.name,
                                                         part.name)]
    assert report.wall_time > 0.0


def test_run_checks_tolerance_overrides(flat, engine):
    points = sample_points(flat, 1)
    report = run_checks(flat, points, ("christoffel", "jacobian"),
                        engine=engine, tol_identity=1e-3, tol_oracle=1e-2)
    by_name = {r.name: r for r in report.results}
    for part in by_name["christoffel"].parts:
        assert part.tolerance == 1e-3     # identity class
    for part in by_name["jacobian"].parts:
        assert part.tolerance == 1e-2     # oracle class
    assert report.passed


def test_run_checks_input_gates(flat, engine):
    points = sample_points(flat, 1)
    with pytest.raises(ConfigError, match="unknown checks"):
        run_checks(flat, points, ("christoffel", "spectral"), engine=engine)
    with pytest.raises(ConfigError):
        run_checks(flat, points, (), engine=engine)
    with pytest.raises(ConfigError):
        run_checks(flat, [], engine=engine)


def test_run_checks_flat_jacobian_magnitude(flat, engine):
    report = run_checks(flat, sample_points(flat, 2, seed=13), ("jacobian",),
                        engine=engine)
    parts = {p.name: p for p in report.results[0].parts}
    assert "flat_absolute" in parts
    assert parts["flat_absolute"].max_residual <= 1e-10
    assert parts["flat_absolute"].tolerance == 1e-10


def test_run_checks_twisted_cheap_subset(twisted, engine):
    report = run_checks(twisted, sample_points(twisted, 2, seed=19),
                        CHEAP_CHECKS, engine=engine)
    assert report.passed
    by_name = {r.name: r for r in report.results}
    assert {p.name for p in by_name["secondform"].parts} == {
        "raw_vs_closed", "norm_vs_decomposition"}
    assert {p.name for p in by_name["sde"].parts} == {
        "diffusion_square", "drift_vs_divergence"}
    assert {p.name for p in by_name["detfact"].parts} == {
        "det_product", "inverse_round_trip"}


def _fresh(scenario):
    """A copy of ``scenario`` whose geometry has a frame memo of its own,
    its counters at zero."""
    orig = dataclasses.replace(scenario.orig)
    return dataclasses.replace(scenario, orig=orig,
                               adapted=compile_adapted(orig))


@pytest.mark.parametrize("check, stacks", [("christoffel", 1),
                                           ("curvature", 3),
                                           ("jacobian", 3), ("sde", 2)])
def test_check_compiles_frames_once_per_stencil(twisted, engine, check,
                                                stacks):
    """Every stencil compiles its frames in one stacked pass, and a
    stencil that an earlier route of the check compiled is read whole
    from the geometry's frame memo: at a point no earlier call has seen (a fresh copy of
    the geometry), each distinct stencil compiles once. The stencils are
    the point's row, its centre-first 21-row first-derivative stencil
    and the 441-row nested stencil of ``R_M``, whose outer rows are the
    rows the Ricci pair runs its route on and ``log_density_terms``
    differences ``ln det d`` on. The christoffel check reads only the
    21-row stencil; the sde check differences every field over all
    slots, so it reads that stencil and the point's row."""
    fresh = _fresh(twisted)
    report = run_checks(fresh, [ChartPoint([-0.11, 0.23],
                                           [0.14, -0.27, 0.08])],
                        (check,), engine=engine)
    assert report.passed
    assert frame_cache_info(fresh.orig).compiles == stacks


def test_all_checks_compute_each_term_once(twisted, engine, monkeypatch):
    """All seven checks at a fresh point share one per-point record: one
    Ricci pair per Christoffel route, one set of log-density terms, one
    set of Killing derivatives, one block metric, and 463 frame rows in
    3 stacks (1 + 21 + 441, see
    ``test_check_compiles_frames_once_per_stencil``), with the other 29
    lookups served from the memo. The bundle callables of the compiles
    run on 91 distinct base rows (1 + 9 + 81)."""
    from bundlecurv import curvature, jacobian, verify

    calls = []
    for module, name in ((curvature, "ricci_scalar_pair"),
                         (curvature, "log_density_terms"),
                         (jacobian, "killing_derivatives"),
                         (verify, "assemble_block_metric")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    fresh = _fresh(twisted)
    report = run_checks(fresh, [ChartPoint([0.19, -0.07],
                                           [-0.21, 0.12, 0.26])],
                        engine=engine)
    info = frame_cache_info(fresh.orig)
    assert report.passed
    assert sorted(calls) == ["assemble_block_metric", "killing_derivatives",
                             "log_density_terms", "ricci_scalar_pair",
                             "ricci_scalar_pair"]
    assert (info.misses, info.compiles, info.hits) == (463, 3, 29)
    assert info.base_rows == 91


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_residuals_do_not_depend_on_check_selection(name, engine,
                                                    monkeypatch):
    """The checks of a point share one record, yet each check's
    residuals are the same, bit for bit, with all seven checks, alone,
    and with all seven evaluated in reverse order."""
    scenario = build_scenario(name)
    points = sample_points(scenario, 2, seed=163)

    def residuals(report):
        return {r.name: [(p.name, p.residuals) for p in r.parts]
                for r in report.results}

    together = residuals(run_checks(scenario, points, engine=engine))
    alone = {}
    for check in CHECK_NAMES:
        alone.update(residuals(run_checks(scenario, points, (check,),
                                          engine=engine)))
    monkeypatch.setattr(verify, "CHECK_NAMES", CHECK_NAMES[::-1])
    reverse = run_checks(scenario, points, engine=engine)
    assert [r.name for r in reverse.results] == list(CHECK_NAMES[::-1])
    assert together == alone == residuals(reverse)


def test_residuals_do_not_depend_on_earlier_points(engine):
    """A point checked again after another point gives its residuals
    byte for byte: the frames held from the point in between serve
    nothing, and nothing else carries over."""
    scenario = build_scenario("twisted_bundle")
    a, b = sample_points(scenario, 2, seed=227)

    def residuals(point):
        report = run_checks(scenario, [point], engine=engine)
        return [np.array(p.residuals).tobytes() for r in report.results
                for p in r.parts]

    first = residuals(a)
    residuals(b)
    assert residuals(a) == first


def test_secondform_check_takes_killing_derivatives_once(twisted, engine,
                                                         monkeypatch):
    """The check reads the norm of the form it already holds, so the
    Killing derivatives are computed once per point, not twice."""
    from bundlecurv import jacobian

    calls = []
    original = jacobian.killing_derivatives

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jacobian, "killing_derivatives", counted)
    points = sample_points(twisted, 2, seed=151)
    assert run_checks(twisted, points, ("secondform",),
                      engine=engine).passed
    assert len(calls) == len(points)


def test_one_first_order_pass_per_field(twisted, engine, monkeypatch):
    """All seven checks at a fresh point make 13 ``value_and_partial``
    calls: one each for ``A``, ``h~`` and ``d`` in the point's jet and in
    the nested jet, one for ``ln det d`` on the nested stencil and six in
    the drift routes. The point's jet is the one the christoffel check
    reads; both Ricci pairs run their routes on the nested jet, at the 21
    outer rows of the ``R_M`` stencil."""
    from bundlecurv import connection, curvature, fields

    calls, jets, routes = [], [], []
    original = fields.value_and_partial

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (fields, connection, curvature):
        monkeypatch.setattr(module, "value_and_partial", counted)

    def jet_counted(*args, _original=connection.horizontal_jet):
        jets.append(_original(*args))
        return jets[-1]

    monkeypatch.setattr(curvature, "horizontal_jet", jet_counted)
    for name in ("christoffel_table", "christoffel_general"):
        def route(jet, _original=getattr(connection, name), _name=name):
            routes.append((_name, jet))
            return _original(jet)

        monkeypatch.setattr(curvature, name, route)
        monkeypatch.setattr(verify, name, route)
    fresh = _fresh(twisted)
    report = run_checks(fresh, [ChartPoint([0.16, 0.09],
                                           [0.23, -0.18, -0.05])],
                        engine=engine)
    assert report.passed
    assert len(calls) == 13
    point_jet, nested_jet = jets
    assert (len(point_jet.zs), len(nested_jet.zs)) == (1, 21)
    assert routes == [("christoffel_table", point_jet),
                      ("christoffel_general", point_jet),
                      ("christoffel_table", nested_jet),
                      ("christoffel_general", nested_jet)]
