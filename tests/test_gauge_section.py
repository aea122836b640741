"""A gauge section away from ``b = 0``.

Every registered scenario fixes the gauge on the section ``b = 0`` with
``chi(q) = b``, where the Faddeev-Popov matrix ``chi_jac @ K_P`` is the
identity and ``Lambda``, ``N_vP`` and the section pullbacks take their
trivial forms (Faddeev & Popov 1967, Phys. Lett. B 25:29). Here
twisted_bundle is re-sectioned to ``Q*(x) = (x, s(x))`` with the gauge
function ``chi(q) = b - s(x)``: every check must still pass, and the
quantities of the orbit space must not depend on the section. The point
``(x, f)`` under the section ``s`` lies on the orbit of the point ``(x,
rho(exp(-s(x))) f)`` under the section ``b = 0``, so the two give the
same curvature, Jacobian and density.

A second gauge function, ``chi(q) = M (b - s(x))`` with a fixed
non-orthogonal ``M``, fixes the same section with a Faddeev-Popov matrix
``M chi_jac K_P`` far from the identity. The projector
``Lambda = (M Phi)^{-1} M chi_jac`` is ``Phi^{-1} chi_jac`` again, so
every quantity must equal its value under ``b - s(x)`` up to rounding,
and a transposed Faddeev-Popov solve, which the identity matrix of the
other sections hides, shows.
"""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import (PointTerms, decomposition_terms,
                                  scalar_curvature_coordinate_oracle)
from bundlecurv.fields import ChartPoint
from bundlecurv.geometry import compile_adapted, validate_original
from bundlecurv.jacobian import jacobian_direct
from bundlecurv.scenarios import sample_points
from bundlecurv.sde import (density_H, drift_coefficients,
                            drift_divergence_form)
from bundlecurv.verify import DEFAULT_TOLERANCES, run_checks

from conftest import assert_close

AMPLITUDE = 0.2


def _s(xs):
    """The section's group coordinates ``s(x)``, ``(N, 3)``."""
    x0, x1 = xs[:, 0], xs[:, 1]
    return AMPLITUDE * np.stack([np.sin(x0), x0 * x1, x1], axis=1)


def _s_jac(xs):
    """``ds/dx``, ``(N, 3, 2)``."""
    x0, x1 = xs[:, 0], xs[:, 1]
    jac = np.zeros((len(xs), 3, 2))
    jac[:, 0, 0] = np.cos(x0)
    jac[:, 1, 0], jac[:, 1, 1] = x1, x0
    jac[:, 2, 1] = 1.0
    return AMPLITUDE * jac


def _section(xs):
    return np.concatenate([xs, _s(xs)], axis=1)


def _section_jac(xs):
    return np.concatenate(
        [np.repeat(np.eye(2)[None], len(xs), axis=0), _s_jac(xs)], axis=1)


def _chi(qs):
    return qs[:, 2:] - _s(qs[:, :2])


def _chi_jac(qs):
    return np.concatenate(
        [-_s_jac(qs[:, :2]), np.repeat(np.eye(3)[None], len(qs), axis=0)],
        axis=2)


#: The gauge matrix of ``chi(q) = M (b - s(x))``: the Faddeev-Popov
#: matrix's condition number reads 6.56 under it, 1.0002 without it.
GAUGE_MATRIX = np.array([[1.0, 0.6, -0.3], [0.2, 1.5, 0.4],
                         [-0.5, 0.1, 0.7]])


def _chi_mixed(qs):
    return _chi(qs) @ GAUGE_MATRIX.T


def _chi_jac_mixed(qs):
    return GAUGE_MATRIX @ _chi_jac(qs)


@pytest.fixture(scope="module")
def resectioned(twisted):
    orig = dataclasses.replace(twisted.orig, section=_section,
                               section_jac=_section_jac, chi=_chi,
                               chi_jac=_chi_jac)
    return dataclasses.replace(twisted, orig=orig,
                               adapted=compile_adapted(orig))


@pytest.fixture(scope="module")
def mixed_gauge(resectioned):
    orig = dataclasses.replace(resectioned.orig, chi=_chi_mixed,
                               chi_jac=_chi_jac_mixed)
    return dataclasses.replace(resectioned, orig=orig,
                               adapted=compile_adapted(orig))


def _on_section_zero(twisted, point):
    """The point of the section ``b = 0`` on the orbit of ``point`` of
    the section ``s``: ``(x, rho(exp(-s(x))) f)``."""
    action = twisted.orig.vspace_action(-_s(point.x[None]))[0]
    return ChartPoint(point.x, action @ point.f)


def test_resectioned_bundle_is_valid(resectioned, mixed_gauge):
    """Both gauge functions pass every gate; the Faddeev-Popov matrix
    is near the identity under ``b - s(x)`` and far from it under
    ``M (b - s(x))``."""
    points = sample_points(resectioned, 6, seed=41)
    conditions = []
    for scenario in (resectioned, mixed_gauge):
        validity = validate_original(scenario.orig, points)
        assert validity.ok, validity
        assert validity.section_residual == 0.0
        conditions.append(validity.fp_condition)
    assert conditions[0] < 1.01 and conditions[1] > 5.0


def test_every_check_passes_on_the_resectioned_bundle(resectioned,
                                                      mixed_gauge, engine):
    for scenario in (resectioned, mixed_gauge):
        report = run_checks(scenario, sample_points(scenario, 3, seed=43),
                            engine=engine)
        parts = [(result.name, part.name, part.max_residual)
                 for result in report.results for part in result.parts]
        assert len(parts) == 13
        assert report.passed, [part for part in parts
                               if part[2] > DEFAULT_TOLERANCES[part[:2]]]


def test_orbit_quantities_do_not_depend_on_the_section(twisted, resectioned,
                                                       engine):
    """Gaps measured over 20 points at this amplitude: ``R_total`` 2.0e-8,
    the direct Jacobian 2.2e-9 and the density 3.6e-15; each tolerance
    sits more than two decades above its gap."""
    for point in sample_points(resectioned, 4, seed=47):
        zero = _on_section_zero(twisted, point)
        assert_close(
            decomposition_terms(resectioned.adapted, point, engine).R_total,
            decomposition_terms(twisted.adapted, zero, engine).R_total,
            1e-5, "R_total")
        assert_close(jacobian_direct(resectioned.adapted, point, engine),
                     jacobian_direct(twisted.adapted, zero, engine),
                     1e-6, "direct Jacobian")
        assert_close(density_H(PointTerms(resectioned.adapted, point,
                                          engine))[0],
                     density_H(PointTerms(twisted.adapted, zero, engine))[0],
                     1e-12, "density")


def test_oracle_at_the_section_confirms_the_resectioned_total(twisted,
                                                              resectioned,
                                                              engine):
    """The coordinate oracle at the group coordinates ``a = s(x)`` and
    the vector ``rho(exp(-s(x))) f`` reads the metric at the bundle point
    of ``(x, f)`` under the section ``s``, through the group action
    alone, so its scalar curvature is the re-sectioned ``R_total``. The
    worst gap measured over these 8 points is 3.9e-8; the tolerance sits
    more than two decades above it."""
    for point in sample_points(resectioned, 8, seed=47):
        oracle = scalar_curvature_coordinate_oracle(
            resectioned.orig, None, point.x,
            _on_section_zero(twisted, point).f, _s(point.x[None])[0],
            engine)
        assert_close(oracle, decomposition_terms(resectioned.adapted, point,
                                                 engine).R_total,
                     1e-5, "oracle at a = s(x)")


def test_mixed_gauge_changes_nothing_on_the_orbit_space(resectioned,
                                                        mixed_gauge, engine):
    """The gauge matrix cancels in ``Lambda``, so the total curvature, the
    direct Jacobian, the density and the divergence-form drift, which
    read no ``Lambda``, equal those of ``b - s(x)`` (measured exactly
    equal over 26 points, seeds 43, 47 and 9), and ``Lambda`` itself to
    rounding (5.6e-16 at worst). The transcribed drift differences
    ``N_vP = -K_V Lambda`` on its stencil, which lifts that rounding by
    about 1 / fd_step: its worst gap over the same points reads 4.4e-12,
    so it is held at 1e-10."""
    points = sample_points(mixed_gauge, 3, seed=43)
    plain = PointTerms(resectioned.adapted, points, engine)
    mixed = PointTerms(mixed_gauge.adapted, points, engine)
    for i in range(len(points)):
        single_plain, single_mixed = plain.single(i), mixed.single(i)
        assert_close(single_mixed.breakdown[0].R_total,
                     single_plain.breakdown[0].R_total, 1e-12, "R_total")
        assert_close(single_mixed.J_direct[0], single_plain.J_direct[0],
                     1e-12, "direct Jacobian")
    for name, route, tol in (("density", density_H, 1e-12),
                             ("divergence form", drift_divergence_form,
                              1e-12),
                             ("transcribed drift", drift_coefficients,
                              1e-10)):
        for got, want in zip(route(mixed), route(plain)):
            assert_close(got, want, tol, name)
    for got, want in zip(mixed.at_points.Lambda, plain.at_points.Lambda):
        assert_close(got, want, 1e-12, "Lambda")
