"""Acceptance sweep: every advertised guarantee at its stated tolerance.

Each test covers one guarantee from the README table, at the full point
counts and tolerances promised there, and prints exactly one summary
line on the real stdout so the sweep reads as a checklist even under
pytest capture.  Budgeted wall times are asserted where the guarantee
states one.
"""

import sys
import time

import numpy as np
import pytest

from bundlecurv.curvature import (
    PointTerms,
    decomposition_terms,
    oracle_metric,
    scalar_curvature_coordinate_oracle,
)
from bundlecurv.fields import DEFAULT_ENGINE
from bundlecurv.geometry import point_frame
from bundlecurv.jacobian import jacobian_direct, jacobian_geometric
from bundlecurv.sde import density_H, euler_maruyama_check
from bundlecurv.scenarios import sample_group_coordinates, sample_points
from bundlecurv.verify import run_checks


@pytest.fixture
def announce(capfd):
    """One checklist line per guarantee, pushed past pytest's capture."""
    def _announce(passed: bool, label: str, detail: str) -> None:
        line = "[%s] %-42s %s" % ("PASS" if passed else "FAIL", label,
                                  detail)
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    return _announce


def _check_report(scenario, n_points, checks, seed=0):
    points = sample_points(scenario, n_points, seed=seed)
    return run_checks(scenario, points, checks, engine=DEFAULT_ENGINE)


def test_christoffel_table_matches_general(announce, twisted, abelian, scaled):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for scenario in (twisted, abelian, scaled):
        report = _check_report(scenario, 100, ("christoffel",))
        ok = ok and report.passed
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    announce(ok and elapsed <= 60.0, "christoffel table vs general",
             "max %.3e <= 1e-08 over 3x100 points, %.1fs" % (worst, elapsed))
    assert ok
    assert elapsed <= 60.0


def test_curvature_three_routes_agree(announce, twisted, abelian, scaled, flat):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for scenario in (twisted, abelian, scaled, flat):
        report = _check_report(scenario, 100, ("curvature",))
        ok = ok and report.passed
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    announce(ok and elapsed <= 120.0, "scalar curvature, three routes",
             "max %.3e <= 1e-06 over 4x100 points, %.1fs" % (worst, elapsed))
    assert ok
    assert elapsed <= 120.0


def test_coordinate_oracle_confirms_total(announce, twisted):
    start = time.perf_counter()
    points = sample_points(twisted, 25, seed=0)
    worst_match = 0.0
    worst_invar = 0.0
    for i, point in enumerate(points):
        total = decomposition_terms(twisted.adapted, point,
                                    DEFAULT_ENGINE).R_total
        draws = sample_group_coordinates(twisted, 2, seed=i)
        values = [scalar_curvature_coordinate_oracle(
                      twisted.orig, None, point.x, point.f, a)
                  for a in draws]
        scale = max(1.0, abs(total))
        worst_match = max(worst_match,
                          max(abs(v - total) for v in values) / scale)
        worst_invar = max(worst_invar,
                          abs(values[0] - values[1]) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-6 and worst_invar <= 1e-6 and elapsed <= 120.0
    announce(ok, "coordinate-basis curvature oracle",
             "match %.3e, group-shift %.3e <= 1e-06 at 25 points, %.1fs"
             % (worst_match, worst_invar, elapsed))
    assert worst_match <= 1e-6
    assert worst_invar <= 1e-6
    assert elapsed <= 120.0


def test_jacobian_routes_agree(announce, twisted, abelian, scaled, flat):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    flat_abs = None
    for scenario in (twisted, abelian, scaled, flat):
        report = _check_report(scenario, 100, ("jacobian",))
        ok = ok and report.passed
        worst = max(worst, report.max_residual)
        for part in report.results[0].parts:
            if part.name == "flat_absolute":
                flat_abs = part.max_residual
    elapsed = time.perf_counter() - start
    ok = ok and flat_abs is not None and flat_abs <= 1e-10
    announce(ok and elapsed <= 60.0, "reduction Jacobian, both routes",
             "max %.3e <= 1e-06 over 4x100 points, flat |J| %.1e, %.1fs"
             % (worst, flat_abs, elapsed))
    assert ok
    assert elapsed <= 60.0


def test_second_form_and_killing_identities(announce, twisted):
    start = time.perf_counter()
    report = _check_report(twisted, 50, ("secondform", "killingderiv"))
    elapsed = time.perf_counter() - start
    announce(report.passed, "second fundamental form + Killing",
             "max %.3e within part tolerances at 50 points, %.1fs"
             % (report.max_residual, elapsed))
    assert report.passed


def test_determinant_factorization(announce, twisted):
    start = time.perf_counter()
    report = _check_report(twisted, 50, ("detfact",))
    worst_group = 0.0
    for point in sample_points(twisted, 2, seed=3):
        d = point_frame(twisted.orig, point).d[0]
        H = density_H(PointTerms(twisted.adapted, point))[0]
        for a in sample_group_coordinates(twisted, 2, seed=5):
            det_full = np.linalg.det(
                oracle_metric(twisted.orig, point.x[None], point.f[None],
                              a[None])[0])
            # det phi(ad_a) of su(2) in exponential coordinates, closed form
            norm = np.linalg.norm(a)
            det_phi = 2.0 * (1.0 - np.cos(norm)) / norm ** 2
            product = np.linalg.det(d) * det_phi ** 2 * H
            worst_group = max(worst_group, abs(det_full - product)
                              / max(1.0, abs(det_full)))
    elapsed = time.perf_counter() - start
    ok = report.passed and worst_group <= 1e-9
    announce(ok, "metric determinant factorization",
             "identity max %.3e, off-identity %.3e <= 1e-09, %.1fs"
             % (report.max_residual, worst_group, elapsed))
    assert report.passed
    assert worst_group <= 1e-9


def test_sde_coefficients_and_moments(announce, twisted, flat):
    start = time.perf_counter()
    report = _check_report(twisted, 50, ("sde",))
    moments_ok = True
    sigmas = []
    for scenario, seed in ((twisted, 42), (flat, 7)):
        point = sample_points(scenario, 1)[0]
        moment = euler_maruyama_check(scenario.adapted, point=point,
                                      dt=1e-4, n_paths=200_000, seed=seed,
                                      engine=DEFAULT_ENGINE)
        moments_ok = moments_ok and moment.passed
        sigmas.append(max(moment.mean_max_sigma, moment.cov_max_sigma))
    elapsed = time.perf_counter() - start
    ok = report.passed and moments_ok and elapsed <= 120.0
    announce(ok, "reduced SDE coefficients + moments",
             "coeff max %.3e, worst moment %.2f sigma (limit 4), %.1fs"
             % (report.max_residual, max(sigmas), elapsed))
    assert report.passed
    assert moments_ok
    assert elapsed <= 120.0


def test_scaled_orbit_closed_form(announce, scaled):
    start = time.perf_counter()
    worst_grad = 0.0
    worst_jac = 0.0
    for point in sample_points(scaled, 10, seed=0):
        terms = decomposition_terms(scaled.adapted, point, DEFAULT_ENGINE)
        worst_grad = max(worst_grad, abs(terms.grad_ln_d - 9.0) / 9.0)
        direct = jacobian_direct(scaled.adapted, point, DEFAULT_ENGINE)
        geometric = jacobian_geometric(scaled.adapted, point, DEFAULT_ENGINE)
        worst_jac = max(worst_jac, abs(direct - 9.0) / 9.0,
                        abs(geometric - 9.0) / 9.0)
    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-8 and worst_jac <= 1e-8
    announce(ok, "exponential-orbit closed forms",
             "gradient %.3e, Jacobian %.3e <= 1e-08 at 10 points, %.1fs"
             % (worst_grad, worst_jac, elapsed))
    assert worst_grad <= 1e-8
    assert worst_jac <= 1e-8
