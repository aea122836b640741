"""The verification layer: parts, tolerances, the serial runner, reports."""

import collections
import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import PointTerms
from bundlecurv.fields import ChartPoint, ConfigError
from bundlecurv.geometry import compile_adapted
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

from conftest import patch_everywhere


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
    def patchy(scenario, terms):
        return {"det_product": (0.0,)}

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


@pytest.mark.parametrize("route", ["christoffel_table",
                                   "christoffel_general"])
def test_curvature_check_fails_on_a_nan_route(twisted, engine, monkeypatch,
                                              route):
    """A Ricci pair that reads NaN makes ``three_way`` NaN, so the check
    fails, wherever the pair sits among the three routes."""
    from bundlecurv import curvature

    def nan_route(jet, _original=getattr(curvature, route)):
        return np.full_like(_original(jet), np.nan)

    monkeypatch.setattr(curvature, route, nan_route)
    report = run_checks(twisted, sample_points(twisted, 1, seed=17),
                        ("curvature",), engine=engine)
    assert np.isnan(report.results[0].parts[0].residuals[0])
    assert not report.passed


def test_flat_absolute_fails_on_a_nan_route(flat, engine, monkeypatch):
    """A NaN geometric Jacobian makes ``flat_absolute`` NaN, though it
    comes second to the finite direct one."""
    monkeypatch.setitem(PointTerms._ENTRIES, "J_geometric",
                        lambda t: np.full(len(t.points), np.nan))
    report = run_checks(flat, sample_points(flat, 1, seed=13),
                        ("jacobian",), engine=engine)
    parts = {p.name: p for p in report.results[0].parts}
    assert np.isnan(parts["flat_absolute"].residuals[0])
    assert not parts["flat_absolute"].passed


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


def _counting_base_rows(scenario):
    """A copy of ``scenario`` whose ``section`` callable records the
    rows of each call: a frame compile calls it once, on the distinct
    base rows of its stack."""
    base_rows = []

    def section(xs, _original=scenario.orig.section.func):
        base_rows.append(len(xs))
        return _original(xs)

    orig = dataclasses.replace(scenario.orig, section=section)
    return dataclasses.replace(scenario, orig=orig,
                               adapted=compile_adapted(orig)), base_rows


@pytest.mark.parametrize("check, stacks", [("christoffel", 1),
                                           ("curvature", 2),
                                           ("jacobian", 2), ("sde", 1)])
def test_check_compiles_frames_once_per_stencil(twisted, engine, compiles,
                                                check, stacks):
    """Every stencil compiles its frames in one stacked pass, which the
    point's record reads once and shares: each distinct stencil of a
    point compiles once. The stencils are the point's centre-first
    21-row first-derivative stencil, whose row 0 is the point, and the
    441-row nested stencil of ``R_M``, whose outer rows are the rows the
    Ricci pair runs its route on and ``log_density_terms`` differences
    ``ln det d`` on. The christoffel check reads only the 21-row
    stencil, and so does the sde check: its drift routes difference
    the fields of that stencil, and the diffusion reads the point's
    row 0 of it."""
    report = run_checks(twisted, [ChartPoint([-0.11, 0.23],
                                             [0.14, -0.27, 0.08])],
                        (check,), engine=engine)
    assert report.passed
    assert sorted(compiles) == [21, 441][:stacks]


def test_all_checks_compute_each_term_once(twisted, engine, monkeypatch,
                                           compiles):
    """All seven checks at a point share one per-point record: one
    Ricci pair per Christoffel route, one set of log-density terms, one
    set of Killing derivatives, one block metric, and 462 frame rows in
    2 compiles (21 + 441, see
    ``test_check_compiles_frames_once_per_stencil``); every other reader
    reads the record's stacks, the point's own row as their row 0. The
    bundle callables of the compiles run on 90 distinct base rows (9 +
    81). The point makes 11 SPD inversions: 5 in each compile and one in
    the divergence form of the drift; neither ``R_M`` nor any
    Christoffel route inverts a matrix."""
    from bundlecurv import curvature, fields, geometry, verify

    scenario, base_rows = _counting_base_rows(twisted)
    calls, inversions = [], []
    invert_spd = fields.invert_spd

    def inverted(matrix):
        inversions.append(np.shape(matrix))
        return invert_spd(matrix)

    patch_everywhere(monkeypatch, invert_spd, inverted)
    for module, name in ((curvature, "ricci_scalar_pair"),
                         (curvature, "log_density_terms"),
                         (geometry, "killing_derivatives"),
                         (verify, "assemble_block_metric")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        patch_everywhere(monkeypatch, getattr(module, name), counted)
    report = run_checks(scenario, [ChartPoint([0.19, -0.07],
                                              [-0.21, 0.12, 0.26])],
                        engine=engine)
    assert report.passed
    assert sorted(calls) == ["assemble_block_metric", "killing_derivatives",
                             "log_density_terms", "ricci_scalar_pair",
                             "ricci_scalar_pair"]
    assert (sum(compiles), len(compiles)) == (462, 2)
    assert sum(base_rows) == 90
    assert len(inversions) == 11


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
    byte for byte: nothing carries over from the point in between."""
    scenario = build_scenario("twisted_bundle")
    a, b = sample_points(scenario, 2, seed=227)

    def residuals(point):
        report = run_checks(scenario, [point], engine=engine)
        return [np.array(p.residuals).tobytes() for r in report.results
                for p in r.parts]

    first = residuals(a)
    residuals(b)
    assert residuals(a) == first


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_residuals_do_not_depend_on_the_stack(name, engine):
    """One call stacks its points through one record, yet each point's
    residuals are, byte for byte, those of a one-point call and those of
    a call with the points reversed."""
    scenario = build_scenario(name)
    points = sample_points(scenario, 4, seed=229)

    def by_point(report):
        """``[point][part]`` residual bytes of ``report``."""
        parts = [p.residuals for r in report.results for p in r.parts]
        return [[np.float64(residuals[i]).tobytes() for residuals in parts]
                for i in range(report.n_points)]

    stacked = by_point(run_checks(scenario, points, engine=engine))
    alone = [by_point(run_checks(scenario, [point], engine=engine))[0]
             for point in points]
    reverse = by_point(run_checks(scenario, points[::-1], engine=engine))
    assert len(stacked[0]) >= 11
    assert stacked == alone == reverse[::-1]


def test_secondform_check_takes_killing_derivatives_once(twisted, engine,
                                                         monkeypatch):
    """The check reads the norm of the form it already holds, so the
    Killing derivatives are computed once per point, not twice."""
    from bundlecurv.geometry import killing_derivatives

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return killing_derivatives(*args, **kwargs)

    patch_everywhere(monkeypatch, killing_derivatives, counted)
    points = sample_points(twisted, 2, seed=151)
    assert run_checks(twisted, points, ("secondform",),
                      engine=engine).passed
    assert len(calls) == len(points)


def test_each_stencil_is_built_once_per_point(twisted, engine,
                                             monkeypatch, compiles):
    """All seven checks at a fresh point build 5 stencils, each evaluated
    once: keyed by their row count, the section stencil of the Killing
    derivatives at ``Q`` (20 rows), that of the vector identity (12),
    the point's stencil and the outer nested stencil (21 each) and the
    nested jet's (441). ``G_P`` and ``K_P`` run once each on the section
    stencil. The point's record reads the geometry's frames twice, once
    per compiled stencil: its 21 rows, whose frames the point's jet, the
    two drift routes, the block metric, the diffusion, the second
    fundamental form and the Killing readers share, the point's own row
    as row 0, and the 441 rows of the nested jet. The 2 compiles hold
    462 rows on 90 base rows, and the point makes 11 SPD inversions. The
    point's jet is the one the christoffel check reads; both Ricci pairs
    run their routes on the nested jet, at the 21 outer rows of the
    nested stencil. The Levi-Civita contraction runs once per metric it
    serves: on h~ once per jet, on the frame metric once per general
    route, and on ``G_P`` once at the section point."""
    import collections

    from bundlecurv import connection, curvature, fields

    stencils, reads, section, symbols = (collections.Counter()
                                         for _ in range(4))
    inversions, jets, routes = [], [], []
    stencil, invert_spd = fields._stencil, fields.invert_spd
    levi_civita = fields._levi_civita

    def on_section_stencil(name):
        original = getattr(twisted.orig, name).func

        def counted(qs):
            section[name] += len(qs) == 20
            return original(qs)

        return counted

    # built before the counters: its own construction inverts G_V
    counting, base_rows = _counting_base_rows(twisted)
    orig = dataclasses.replace(counting.orig,
                               G_P=on_section_stencil("G_P"),
                               K_P=on_section_stencil("K_P"))
    compiled = compile_adapted(orig)

    def read(zs):
        reads[len(zs)] += 1
        return compiled.frames(zs)

    fresh = dataclasses.replace(
        twisted, orig=orig, adapted=dataclasses.replace(compiled,
                                                        frames=read))

    def built(*args, **kwargs):
        rows, steps = stencil(*args, **kwargs)
        stencils[rows.shape[0] * rows.shape[1]] += 1
        return rows, steps

    def inverted(matrix):
        inversions.append(np.shape(matrix))
        return invert_spd(matrix)

    def contracted(g_inv, dg):
        symbols[np.shape(g_inv)] += 1
        return levi_civita(g_inv, dg)

    for original, counted in ((stencil, built), (invert_spd, inverted),
                              (levi_civita, contracted)):
        patch_everywhere(monkeypatch, original, counted)

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

    report = run_checks(fresh, [ChartPoint([0.16, 0.09],
                                           [0.23, -0.18, -0.05])],
                        engine=engine)
    assert report.passed
    assert stencils == {12: 1, 20: 1, 21: 2, 441: 1}
    assert reads == {21: 1, 441: 1}
    assert symbols == {(1, 5, 5): 1, (21, 5, 5): 1, (1, 8, 8): 1,
                       (21, 8, 8): 1, (5, 5): 1}
    assert section == {"G_P": 1, "K_P": 1}
    assert len(inversions) == 11
    assert (len(compiles), sum(compiles), sum(base_rows)) == (2, 462, 90)
    point_jet, nested_jet = jets
    assert (len(point_jet.zs), len(nested_jet.zs)) == (1, 21)
    assert routes == [("christoffel_table", point_jet),
                      ("christoffel_general", point_jet),
                      ("christoffel_table", nested_jet),
                      ("christoffel_general", nested_jet)]


FIRST_ORDER_CHECKS = ("christoffel", "secondform", "killingderiv",
                      "detfact", "sde")


def test_first_order_work_runs_once_per_call(twisted, engine, compiles):
    """The first-order checks of a 4-point call compile the frames of
    all four centre-first stencils at once, 84 rows, and call ``G_P``
    and ``K_P`` once each on the one section stencil of the four section
    points, 80 rows, beside their one call in the compile, on its 36
    distinct base rows (9 a point)."""
    section = collections.Counter()

    def on_section_stencil(name):
        original = getattr(twisted.orig, name).func

        def counted(qs):
            section[name, len(qs)] += 1
            return original(qs)

        return counted

    orig = dataclasses.replace(twisted.orig, G_P=on_section_stencil("G_P"),
                               K_P=on_section_stencil("K_P"))
    scenario = dataclasses.replace(twisted, orig=orig,
                                   adapted=compile_adapted(orig))
    section.clear()
    compiles.clear()
    report = run_checks(scenario, sample_points(twisted, 4, seed=233),
                        FIRST_ORDER_CHECKS, engine=engine)
    assert report.passed
    assert compiles == [84]
    assert section == {("G_P", 36): 1, ("K_P", 36): 1, ("G_P", 80): 1,
                       ("K_P", 80): 1}


def test_nested_compile_stays_one_per_point(twisted, engine, compiles):
    """All seven checks on two points compile the first-order frames of
    both points once, 42 rows, and each point's 441-row nested stencil
    on its own."""
    report = run_checks(twisted, sample_points(twisted, 2, seed=239),
                        engine=engine)
    assert report.passed
    assert sorted(compiles) == [42, 441, 441]
