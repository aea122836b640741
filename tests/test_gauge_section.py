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
"""

import dataclasses

import numpy as np
import pytest

from bundlecurv.curvature import (decomposition_terms,
                                  scalar_curvature_coordinate_oracle)
from bundlecurv.fields import ChartPoint
from bundlecurv.geometry import compile_adapted, validate_original
from bundlecurv.jacobian import jacobian_direct
from bundlecurv.scenarios import sample_points
from bundlecurv.sde import density_H
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


@pytest.fixture(scope="module")
def resectioned(twisted):
    orig = dataclasses.replace(twisted.orig, section=_section,
                               section_jac=_section_jac, chi=_chi,
                               chi_jac=_chi_jac)
    return dataclasses.replace(twisted, orig=orig,
                               adapted=compile_adapted(orig))


def _on_section_zero(twisted, point):
    """The point of the section ``b = 0`` on the orbit of ``point`` of
    the section ``s``: ``(x, rho(exp(-s(x))) f)``."""
    action = twisted.orig.vspace_action(-_s(point.x[None]))[0]
    return ChartPoint(point.x, action @ point.f)


def test_resectioned_bundle_is_valid(resectioned):
    points = sample_points(resectioned, 6, seed=41)
    validity = validate_original(resectioned.orig, points)
    assert validity.ok, validity
    assert validity.section_residual == 0.0


def test_every_check_passes_on_the_resectioned_bundle(resectioned, engine):
    report = run_checks(resectioned, sample_points(resectioned, 3, seed=43),
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
        assert_close(density_H(resectioned.adapted, point, engine),
                     density_H(twisted.adapted, zero, engine),
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
