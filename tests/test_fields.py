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
    _distinct_rows,
    _stencil,
    coordinate_partials,
    invert_spd,
    partial,
    value_and_partial,
)
from bundlecurv.geometry import point_frame

from conftest import assert_close


# ---------------------------------------------------------------------------
# ChartPoint


def test_chart_point_sectors_and_coords():
    p = ChartPoint([0.3, -1.2], [0.1, 0.2, 0.3])
    assert p.n_x == 2
    assert p.n_v == 3
    np.testing.assert_allclose(p.coords, [0.3, -1.2, 0.1, 0.2, 0.3])


def test_chart_point_round_trip_and_shift():
    p = ChartPoint([1.0], [2.0, 3.0])
    assert p.n_x == 1 and p.n_v == 2
    # stencil rows shift one slot by fd_step * (1 + |z|), here 0.125 * 4,
    # and by half that
    rows, steps = _stencil(p.coords[None], 0.125, slots=[2])
    np.testing.assert_allclose(rows[0], [[1.0, 2.0, 3.5], [1.0, 2.0, 2.5],
                                         [1.0, 2.0, 3.25], [1.0, 2.0, 2.75]])
    np.testing.assert_allclose(steps, [[[0.5], [0.25]]])
    q = ChartPoint(rows[0, 0, :1], rows[0, 0, 1:])
    # the original is untouched; it, the rows and a point cut from them
    # are read-only
    np.testing.assert_allclose(p.coords, [1.0, 2.0, 3.0])
    for frozen in (p.x, rows, q.f):
        with pytest.raises(ValueError):
            frozen[..., 0] = 9.0


def test_chart_point_rejects_bad_coordinates():
    with pytest.raises(ValueError):
        ChartPoint(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        ChartPoint([np.nan], [0.0])


# ---------------------------------------------------------------------------
# FieldHandle


def test_field_handle_checks_declared_arity():
    good = FieldHandle(lambda zs: zs[:, 0], arity="scalar")
    assert good(ChartPoint([2.0], [])) == 2.0

    def rows(zs):
        return zs

    bad = FieldHandle(rows, arity="scalar")
    with pytest.raises(ValueError, match="rows declared arity"):
        bad(ChartPoint([1.0], [2.0]))
    with pytest.raises(ValueError):
        FieldHandle(lambda zs: np.zeros(len(zs)), arity="tensor7")


# ---------------------------------------------------------------------------
# partial


def test_partial_constant_is_zero(engine):
    field = FieldHandle(lambda zs: np.full(len(zs), 4.2), arity="scalar")
    point = ChartPoint([0.7, -0.3], [0.2])
    got = partial(engine, field, point.coords[None], point.n_x, range(3))[0]
    assert got.shape == (3,)
    assert np.all(np.abs(got) < 1e-12)


def test_partial_polynomial(engine):
    field = FieldHandle(lambda zs: zs[:, 0] ** 2, arity="scalar")
    value = partial(engine, field, np.array([[3.0]]), 1, [0])[0, 0]
    assert_close(value, 6.0, 1e-9, "d/dx x^2 at 3")


def test_partial_sine(engine):
    field = FieldHandle(lambda zs: np.sin(zs[:, 0]), arity="scalar")
    value = partial(engine, field, np.array([[0.7]]), 1, [0])[0, 0]
    assert_close(value, np.cos(0.7), 1e-10, "d/dx sin")


def test_partial_slot_out_of_range(engine):
    field = FieldHandle(lambda zs: np.zeros(len(zs)), arity="scalar")
    with pytest.raises(IndexError):
        partial(engine, field, np.zeros((1, 2)), 1, range(3))
    with pytest.raises(IndexError):
        partial(engine, field, np.zeros((1, 2)), 1, [-1])


def test_partial_matrix_valued(engine):
    """Differencing applies componentwise to array-valued fields, one
    leading entry per requested slot, in the order requested."""
    def matrix(zs):
        x, f = zs.T
        return np.stack([np.stack([x, x ** 2], axis=1),
                         np.stack([0.0 * x, f * x], axis=1)], axis=1)

    field = FieldHandle(matrix, arity="matrix")
    point = ChartPoint([1.5], [2.0])
    got = partial(engine, field, point.coords[None], point.n_x, [1, 0])[0]
    want = np.array([[[0.0, 0.0], [0.0, 1.5]],
                     [[1.0, 3.0], [0.0, 2.0]]])
    assert_close(got, want, 1e-9, "matrix field partial")
    assert partial(engine, field, point.coords[None], point.n_x,
                   []).shape == (1, 0, 2, 2)


def test_partial_extrapolation_is_fourth_order():
    """At steps where truncation outweighs rounding, halving the step
    cuts the error of ``partial`` about 16-fold on every slot: the
    extrapolated stencil is O(h^4), where a plain central difference
    would give 4-fold."""
    field = FieldHandle(lambda zs: np.exp(2.0 * zs[:, 0])
                        * np.cos(3.0 * zs[:, 1]), arity="scalar")
    zs = ChartPoint([0.3], [0.2]).coords[None]
    exact = np.exp(0.6) * np.array([2.0 * np.cos(0.6), -3.0 * np.sin(0.6)])
    err = [abs(partial(DerivEngine(fd_step=step), field, zs, 1, [0, 1])[0]
               - exact) for step in (4e-3, 2e-3)]
    ratio = err[0] / err[1]
    assert np.all((14.0 < ratio) & (ratio < 18.0)), ratio


def test_partial_raises_on_non_finite_stencil(engine):
    # blows up on one side of the stencil: the error names the first
    # stencil row that produced a non-finite value, -h along slot 0
    def half_line(zs):
        x = zs[:, 0]
        return np.where(x < 0, np.nan, x)

    field = FieldHandle(half_line, arity="scalar")
    point = ChartPoint([0.0], [0.5])
    with pytest.raises(EvaluationError, match=r"field half_line produced "
                                              r"non-finite value at "
                                              r"x=\[-1e-05\] f=\[0.5\]"):
        partial(engine, field, point.coords[None], point.n_x, range(2))
    with pytest.raises(EvaluationError, match=r"x=\[-0.001\] f=\[0.5\]"):
        partial(DerivEngine(fd_step=1e-3), field, point.coords[None],
                point.n_x, range(2))
    with pytest.raises(EvaluationError, match=r"z=\[-1e-05, 0.5\]"):
        coordinate_partials(
            lambda zs: np.where(zs[:, 0] < 0, np.nan, zs[:, 0]),
            [0.0, 0.5], 1e-5)


def test_kernel_calls_a_field_once_per_stencil(engine):
    """``partial`` makes one field call, on all its rows: a read-only
    float ``(N, n_x + n_v)`` array."""
    calls = []

    def counted(zs):
        assert zs.dtype == float and zs.ndim == 2 and zs.shape[1] == 3
        assert not zs.flags.writeable
        calls.append(len(zs))
        return zs[:, 0] * zs[:, 1] + zs[:, 2] ** 2

    field = FieldHandle(counted, arity="scalar")
    point = ChartPoint([0.3, -0.4], [0.2])
    partial(engine, field, point.coords[None], point.n_x, range(3))
    assert calls == [13]            # centre, +-h, +-h/2 on three slots
    field(point)
    assert calls == [13, 1]


def test_partial_on_a_stack_of_centres_equals_row_calls(engine):
    """``partial`` on an ``(m, k)`` stack of centres makes one field call
    on all ``m`` stencils' rows, and each row's partials equal those of a
    one-row call bit for bit."""
    calls = []

    def counted(zs):
        calls.append(len(zs))
        return np.stack([np.sin(zs[:, 0]) * zs[:, 2], zs[:, 1] ** 3], axis=1)

    field = FieldHandle(counted, arity="vector")
    centres = np.array([[0.3, -0.4, 0.2], [0.1, 0.2, -0.3], [-0.5, 0.0, 0.4]])
    stacked = partial(engine, field, centres, 2, [2, 0])
    assert calls == [27]            # 3 centres x centre, +-h, +-h/2 on
    #                                 two slots
    assert stacked.shape == (3, 2, 2)
    for z, got in zip(centres, stacked):
        assert np.array_equal(got, partial(engine, field, z[None], 2,
                                           [2, 0])[0])


def test_value_and_partial_takes_both_from_one_call(engine):
    """The values at the centres and the partials come from one field
    call on the centre-first rows: the values equal the field on the
    centres, and the partials equal ``partial``'s, bit for bit."""
    calls = []

    def counted(zs):
        calls.append(len(zs))
        return np.stack([np.sin(zs[:, 0]) * zs[:, 2], zs[:, 1] ** 3], axis=1)

    field = FieldHandle(counted, arity="vector")
    centres = np.array([[0.3, -0.4, 0.2], [0.1, 0.2, -0.3], [-0.5, 0.0, 0.4]])
    wide = DerivEngine(fd_step=1e-4)
    values, partials = value_and_partial(wide, field, centres, 2, [2, 0])
    assert calls == [27]            # 3 centres x centre, +-h, +-h/2 on
    #                                 two slots
    assert np.array_equal(values, counted(centres))
    assert np.array_equal(partials, partial(wide, field, centres, 2,
                                            [2, 0]))


def test_field_result_shape_is_checked(engine):
    """A stacked result with the wrong row count or arity names the
    field."""
    point = ChartPoint([0.3], [0.2])

    def short(zs):
        return np.zeros(len(zs) - 1)

    def flat(zs):
        return np.zeros((len(zs), 2))

    with pytest.raises(ValueError, match=r"field short declared arity "
                                         r"'scalar' but returned shape "
                                         r"\(8,\) for 9 points"):
        partial(engine, FieldHandle(short, "scalar"), point.coords[None],
                point.n_x, range(2))
    with pytest.raises(ValueError, match=r"field flat declared arity "
                                         r"'matrix' but returned shape "
                                         r"\(9, 2\) for 9 points"):
        value_and_partial(engine, FieldHandle(flat, "matrix"),
                          point.coords[None], point.n_x, range(2))


# ---------------------------------------------------------------------------
# DerivEngine validation


def test_engine_rejects_bad_step():
    with pytest.raises(ValueError):
        DerivEngine(fd_step=0.0)
    with pytest.raises(ValueError):
        DerivEngine(fd_step=0.5)


def test_engine_step_scales_with_coordinate():
    zs = np.array([[9.0, 0.0]])
    _, steps = _stencil(zs, 1e-5)
    np.testing.assert_allclose(steps, [[[1e-5 * 10.0, 1e-5],
                                        [0.5e-5 * 10.0, 0.5e-5]]])
    _, steps = _stencil(zs, 1e-5 * 10.0, slots=[1])
    np.testing.assert_allclose(steps, [[[1e-4], [0.5e-4]]])


def test_coordinate_partials_product_field():
    def func(qs):
        return np.stack([np.sin(qs[:, 0]) * qs[:, 1], qs[:, 1] ** 2], axis=1)

    got = coordinate_partials(func, np.array([0.5, 2.0]), 1e-5)
    assert_close(got, [[np.cos(0.5) * 2.0, 0.0], [np.sin(0.5), 4.0]], 1e-9,
                 "coordinate partials")


def test_coordinate_partials_calls_once_per_stencil():
    calls = []

    def func(qs):
        calls.append(qs.shape)
        return np.sin(qs)

    z = np.array([0.1, 0.2, 0.3])
    coordinate_partials(func, z, 1e-5)
    coordinate_partials(func, z, 1e-5, slots=[1])
    assert calls == [(12, 3), (4, 3)]

    def one_row(qs):
        return np.sin(qs[0])

    with pytest.raises(ValueError, match=r"one_row returned shape \(3,\) "
                                         r"for a stack of 12 rows"):
        coordinate_partials(one_row, z, 1e-5)


# ---------------------------------------------------------------------------
# the kernel, pinned bit for bit

#: Derivatives at ``_PIN`` on twisted_bundle, recorded from the per-slot
#: point-by-point differencing the stencil kernel replaced, as
#: ``{(slot, *component): value}``.
_PIN = ChartPoint([-0.17, 0.26], [0.05, 0.31, -0.22])
_PINNED_PARTIALS = {
    "h_tilde": {
        (0, 0, 0): 0.09856230188926085,
        (1, 0, 4): 0.09521018423339818,
        (2, 3, 2): 0.44845271838461054,
        (3, 2, 2): -0.7794965825457393,
        (4, 3, 3): 0.5102353863430965},
    "d": {
        (0, 0, 1): 0.1971169533819029,
        (1, 1, 2): 0.15000000000053182,
        (2, 0, 1): -0.3719999999998063,
        (3, 2, 2): 0.7439999999951329,
        (4, 0, 0): -0.5279999999847763},
    "A_conn": {
        (0, 1, 1): 0.24020381465508467,
        (1, 0, 0): 0.2576726349361187,
        (2, 2, 3): -1.2411823787446414,
        (3, 2, 2): 0.9709955150748667,
        (4, 0, 3): 0.9197839374757568},
    "G_P": {
        (0, 1, 3): 0.33846927037787083,
        (1, 0, 2): 0.30000000000106364,
        (2, 3, 4): -0.2500000000007126,
        (3, 2, 4): 0.09999999999999998,
        (4, 2, 3): 0.15000000000061262},
}


def test_kernel_pinned_values(twisted, engine):
    adapted = twisted.adapted
    got = {name: partial(engine, field, _PIN.coords[None], 2, range(5))[0]
           for name, field in (("h_tilde", adapted.h_tilde),
                               ("d", adapted.d.d),
                               ("A_conn", adapted.A_conn))}
    got["G_P"] = coordinate_partials(
        twisted.orig.G_P, point_frame(twisted.orig, _PIN).Q[0],
        engine.fd_step)
    for name, pins in _PINNED_PARTIALS.items():
        assert got[name].shape[0] == 5
        for index, value in pins.items():
            assert got[name][index] == value, (name, index)


def test_distinct_rows_by_bytes_in_order_of_first_appearance():
    rows = np.array([[0.5, 0.0], [0.1, 2.0], [0.5, 0.0], [0.5, -0.0],
                     [0.1, 2.0], [np.nan, 1.0], [np.nan, 1.0]])
    distinct, first, inverse = _distinct_rows(rows[:, ::-1][:, ::-1])
    assert first.tolist() == [0, 1, 3, 5]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 3, 3]
    assert distinct.tobytes() == rows[first].tobytes()
    assert distinct[inverse].tobytes() == rows.tobytes()
    for zero_width in (np.zeros((3, 0)), np.zeros((0, 0)), np.zeros((0, 2))):
        distinct, first, inverse = _distinct_rows(zero_width)
        assert first.tolist() == list(range(min(1, len(zero_width))))
        assert inverse.tolist() == [0] * len(zero_width)
        assert distinct.shape == (len(first), zero_width.shape[1])


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
