"""Differentiation engine, chart points, and the SPD inverter."""

import numpy as np
import pytest

from bundlecurv.fields import (
    ChartPoint,
    ConfigError,
    DerivEngine,
    EvaluationError,
    FieldHandle,
    NearSingularError,
    invert_spd,
    partial,
    second_partial,
)

from conftest import assert_close


# ---------------------------------------------------------------------------
# ChartPoint


def test_chart_point_sectors_and_coords():
    p = ChartPoint([0.3, -1.2], [0.1, 0.2, 0.3])
    assert p.n_x == 2
    assert p.n_v == 3
    np.testing.assert_allclose(p.coords, [0.3, -1.2, 0.1, 0.2, 0.3])


def test_chart_point_round_trip_and_shift():
    p = ChartPoint.from_coords([1.0, 2.0, 3.0], n_x=1)
    assert p.n_x == 1 and p.n_v == 2
    q = p.shifted(2, 0.5)
    np.testing.assert_allclose(q.coords, [1.0, 2.0, 3.5])
    # the original is untouched and frozen
    np.testing.assert_allclose(p.coords, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        p.x[0] = 9.0


def test_chart_point_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        ChartPoint(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        ChartPoint([np.nan], [0.0])


# ---------------------------------------------------------------------------
# FieldHandle


def test_field_handle_checks_declared_arity():
    good = FieldHandle(lambda p: float(p.x[0]), arity="scalar")
    assert good(ChartPoint([2.0], [])) == 2.0
    bad = FieldHandle(lambda p: p.coords, arity="scalar")
    with pytest.raises(ValueError):
        bad(ChartPoint([1.0], [2.0]))
    with pytest.raises(ValueError):
        FieldHandle(lambda p: 0.0, arity="tensor7")


# ---------------------------------------------------------------------------
# partial


def test_partial_constant_is_zero(engine):
    field = FieldHandle(lambda p: 4.2, arity="scalar")
    point = ChartPoint([0.7, -0.3], [0.2])
    for slot in range(3):
        assert abs(partial(engine, field, point, slot)) < 1e-12


def test_partial_polynomial(engine):
    field = FieldHandle(lambda p: float(p.x[0] ** 2), arity="scalar")
    value = partial(engine, field, ChartPoint([3.0], []), 0)
    assert_close(value, 6.0, 1e-9, "d/dx x^2 at 3")


def test_partial_sine(engine):
    field = FieldHandle(lambda p: float(np.sin(p.x[0])), arity="scalar")
    value = partial(engine, field, ChartPoint([0.7], []), 0)
    assert_close(value, np.cos(0.7), 1e-10, "d/dx sin")


def test_partial_analytic_path_matches_fd():
    field = FieldHandle(
        lambda p: float(np.exp(p.x[0]) * p.f[0]),
        arity="scalar",
        d_func=lambda p, slot: (
            float(np.exp(p.x[0]) * p.f[0]) if slot == 0
            else float(np.exp(p.x[0]))
        ),
    )
    point = ChartPoint([0.4], [1.3])
    fd = DerivEngine(mode="fd")
    an = DerivEngine(mode="analytic")
    for slot in range(2):
        assert_close(
            partial(an, field, point, slot),
            partial(fd, field, point, slot),
            1e-9,
            "analytic vs fd, slot %d" % slot,
        )


def test_partial_slot_out_of_range(engine):
    field = FieldHandle(lambda p: 0.0, arity="scalar")
    with pytest.raises(IndexError):
        partial(engine, field, ChartPoint([0.0], [0.0]), 2)


def test_partial_matrix_valued(engine):
    """Differencing applies componentwise to array-valued fields."""
    field = FieldHandle(
        lambda p: np.array([[p.x[0], p.x[0] ** 2], [0.0, p.f[0] * p.x[0]]]),
        arity="matrix",
    )
    point = ChartPoint([1.5], [2.0])
    got = partial(engine, field, point, 0)
    want = np.array([[1.0, 3.0], [0.0, 2.0]])
    assert_close(got, want, 1e-9, "matrix field partial")


def test_partial_richardson_beats_plain_stencil():
    field = FieldHandle(lambda p: float(np.exp(2.0 * p.x[0])), arity="scalar")
    point = ChartPoint([0.3], [])
    exact = 2.0 * np.exp(0.6)
    plain = DerivEngine(fd_step=1e-4, richardson=False)
    rich = DerivEngine(fd_step=1e-4, richardson=True)
    err_plain = abs(partial(plain, field, point, 0) - exact)
    err_rich = abs(partial(rich, field, point, 0) - exact)
    assert err_rich < err_plain
    assert err_rich / exact < 1e-9


def test_partial_raises_on_non_finite_stencil(engine):
    # blows up on one side of the stencil
    field = FieldHandle(
        lambda p: float(np.nan) if p.x[0] < 0 else float(p.x[0]),
        arity="scalar",
    )
    with pytest.raises(EvaluationError):
        partial(engine, field, ChartPoint([0.0], []), 0)


# ---------------------------------------------------------------------------
# second_partial


def test_second_partial_constant_and_linear(engine):
    point = ChartPoint([0.2, 0.4], [0.6])
    const = FieldHandle(lambda p: 1.0, arity="scalar")
    linear = FieldHandle(lambda p: float(p.coords @ [1.0, 2.0, 3.0]),
                         arity="scalar")
    for slot1 in range(3):
        for slot2 in range(3):
            assert abs(second_partial(engine, const, point, slot1, slot2)) < 1e-9
            assert abs(second_partial(engine, linear, point, slot1, slot2)) < 1e-7


def test_second_partial_mixed_product(engine):
    field = FieldHandle(lambda p: float(p.x[0] * p.x[1]), arity="scalar")
    point = ChartPoint([0.9, -0.4], [])
    assert_close(second_partial(engine, field, point, 0, 1), 1.0, 1e-8,
                 "d2/dx0dx1 of x0*x1")


def test_second_partial_slot_symmetry(engine):
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(3, 3))

    def poly(p):
        z = p.coords
        return float(z @ coeffs @ z + np.sin(z[0]) * z[2])

    field = FieldHandle(poly, arity="scalar")
    point = ChartPoint(rng.normal(size=2) * 0.5, rng.normal(size=1) * 0.5)
    for s1 in range(3):
        for s2 in range(s1 + 1, 3):
            a = second_partial(engine, field, point, s1, s2)
            b = second_partial(engine, field, point, s2, s1)
            assert_close(a, b, 1e-9, "slot symmetry (%d,%d)" % (s1, s2))


def test_second_partial_quadratic_exact(engine):
    rng = np.random.default_rng(11)
    sym = rng.normal(size=(4, 4))
    sym = sym + sym.T

    def quad(p):
        z = p.coords
        return float(0.5 * z @ sym @ z)

    field = FieldHandle(quad, arity="scalar")
    point = ChartPoint(rng.normal(size=2), rng.normal(size=2))
    for s1 in range(4):
        for s2 in range(4):
            assert_close(second_partial(engine, field, point, s1, s2),
                         sym[s1, s2], 1e-7, "hessian entry")


# ---------------------------------------------------------------------------
# DerivEngine validation


def test_engine_rejects_bad_step():
    with pytest.raises(ValueError):
        DerivEngine(fd_step=0.0)
    with pytest.raises(ValueError):
        DerivEngine(fd_step=0.5)
    with pytest.raises(ValueError):
        DerivEngine(mode="symbolic")


def test_engine_step_scales_with_coordinate():
    eng = DerivEngine(fd_step=1e-5)
    point = ChartPoint([9.0], [0.0])
    assert eng.step(point, 0) == pytest.approx(1e-5 * 10.0)
    assert eng.step(point, 1) == pytest.approx(1e-5)
    assert eng.step(point, 1, scale=10.0) == pytest.approx(1e-4)


# ---------------------------------------------------------------------------
# invert_spd


def test_invert_spd_identity():
    inv, det = invert_spd(np.eye(3))
    np.testing.assert_allclose(inv, np.eye(3))
    assert det == pytest.approx(1.0)


def test_invert_spd_diagonal():
    inv, det = invert_spd(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(inv, np.diag([0.5, 0.25]))
    assert det == pytest.approx(8.0)


def test_invert_spd_random_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(5, 5))
        m = a @ a.T + np.eye(5)
        inv, det = invert_spd(m)
        assert_close(m @ inv, np.eye(5), 1e-10, "round trip")
        assert_close(inv, inv.T, 1e-12, "inverse symmetry")
        assert_close(det, np.linalg.det(m), 1e-10, "determinant")


def test_invert_spd_empty():
    inv, det = invert_spd(np.zeros((0, 0)))
    assert inv.shape == (0, 0)
    assert det == 1.0


def test_invert_spd_rejects_bad_input():
    with pytest.raises(ValueError):
        invert_spd(np.ones((2, 3)))
    with pytest.raises(ValueError):
        invert_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NearSingularError):
        invert_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NearSingularError):
        invert_spd(np.diag([1.0, 1e-13]))


def test_invert_spd_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NearSingularError, match="non-finite") as info:
            invert_spd(m)
        assert info.value.index is None
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 0] = bad
        with pytest.raises(NearSingularError,
                           match="non-finite entries at index 2"):
            invert_spd(stack)


def test_invert_spd_stack_equals_matrix_by_matrix():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 3, 6, 6))
    stack = a @ np.swapaxes(a, -1, -2) + np.eye(6)
    inv, det = invert_spd(stack)
    assert inv.shape == stack.shape and det.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            inv1, det1 = invert_spd(stack[i, j])
            assert inv1.tobytes() == inv[i, j].tobytes()
            assert det1 == det[i, j]


def test_invert_spd_gates_every_matrix_of_a_stack():
    stack = np.stack([np.eye(2)] * 3)
    asym = stack.copy()
    asym[1, 0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric within 1e-10 at index 1"):
        invert_spd(asym)
    indefinite = stack.copy()
    indefinite[2] = np.diag([1.0, -1.0])
    with pytest.raises(NearSingularError, match="index 2") as info:
        invert_spd(indefinite)
    assert info.value.index == 2
    assert info.value.reason.startswith("matrix not positive definite")
    near = stack.copy()
    near[1] = np.diag([1.0, 1e-13])
    with pytest.raises(NearSingularError, match="condition number"):
        invert_spd(near)
    inv, det = invert_spd(np.zeros((4, 0, 0)))
    assert inv.shape == (4, 0, 0) and np.all(det == 1.0)


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)
