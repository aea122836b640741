"""Scalar-curvature decomposition, frame Ricci routes, and the coordinate oracle."""

import dataclasses

import numpy as np
import pytest

from bundlecurv import curvature
from bundlecurv.connection import christoffel_general, christoffel_table
from bundlecurv.curvature import (
    PointTerms,
    coordinate_ricci_scalar,
    decomposition_terms,
    log_density_terms,
    oracle_metric,
    ricci_scalar_pair,
    scalar_curvature_coordinate_oracle,
)
from bundlecurv.fields import ChartPoint, EvaluationError, _stencil_partials
from bundlecurv.geometry import AdaptedGeometry, frames_at
from bundlecurv.jacobian import jacobian_geometric
from bundlecurv.liecore import orbit_scalar_curvature, su2_constants
from bundlecurv.scenarios import (
    build_scenario,
    sample_group_coordinates,
    sample_points,
)
from bundlecurv.verify import run_checks

from conftest import assert_close, constant_field, frames_of, jet_at


def _pure_orbit_block(d_matrix):
    d_matrix = np.asarray(d_matrix, dtype=float)
    d_inv = np.linalg.inv(d_matrix)
    return AdaptedGeometry(
        n_x=1, n_v=0,
        frames=frames_of(
            h_tilde=constant_field(np.eye(1)),
            h_tilde_inv=constant_field(np.eye(1)),
            det_h=constant_field(1.0), d=constant_field(d_matrix),
            d_inv=constant_field(d_inv),
            det_d=constant_field(np.linalg.det(d_matrix)),
            A=constant_field(np.zeros((3, 1)))),
        c=su2_constants(),
    )


# ---------------------------------------------------------------------------
# coordinate-formula scalar curvature


def test_coordinate_ricci_flat_plane(engine):
    got = coordinate_ricci_scalar(
        lambda zs: np.broadcast_to(np.eye(2), (len(zs), 2, 2)),
        np.array([0.3, 0.4]), engine)
    assert abs(got) <= 1e-9


def test_coordinate_ricci_round_sphere(engine):
    """Constant-curvature check; the library's sign convention makes the
    round sphere come out negative."""
    radius = 1.7

    def metric(zs):
        return np.stack([np.diag([radius ** 2,
                                  radius ** 2 * np.sin(z[0]) ** 2])
                         for z in zs])

    got = coordinate_ricci_scalar(metric, np.array([1.0, 0.7]), engine)
    assert_close(got, -2.0 / radius ** 2, 1e-6, "round sphere")


def test_coordinate_ricci_conformal_plane(engine):
    """e^{2x} flat metric in 2d: scalar curvature is identically zero in
    absolute value 2 e^{-2x} * (laplacian of x) = 0."""
    got = coordinate_ricci_scalar(
        lambda zs: np.exp(2.0 * zs[:, 0])[:, None, None] * np.eye(2),
        np.array([0.2, -0.1]), engine)
    assert abs(got) <= 1e-6


def test_coordinate_ricci_equals_the_four_term_contraction():
    """The coordinate Ricci scalar, the frame contraction with its
    structure-function term left out, equals the four coordinate terms
    written out, bit for bit."""
    rng = np.random.default_rng(17)
    gammas = rng.normal(size=(21, 5, 5, 5))
    steps = rng.uniform(1e-4, 2e-4, size=(1, 2, 5))
    g_inv = rng.normal(size=(5, 5))
    gamma0 = gammas[0]
    dgamma = _stencil_partials(gammas[None], steps)[0]
    ricci = (np.einsum("abbc->ac", dgamma)
             - np.einsum("bbac->ac", dgamma)
             + np.einsum("dbc,bad->ac", gamma0, gamma0)
             - np.einsum("lac,bbl->ac", gamma0, gamma0))
    assert curvature._coordinate_ricci(gammas, steps, g_inv) == float(
        np.einsum("ac,ac->", g_inv, ricci))


def test_coordinate_ricci_raises_on_non_finite_stencil(engine):
    """A metric that is NaN on one side of the stencil fails loudly."""
    def metric(zs):
        blown = np.where(zs[:, 0] > 0.3, np.nan, 1.0)
        return blown[:, None, None] * np.eye(2)

    with pytest.raises(EvaluationError, match="non-finite"):
        coordinate_ricci_scalar(metric, np.array([0.3, 0.4]), engine)


# ---------------------------------------------------------------------------
# decomposition pieces


def test_breakdown_sum_is_definitional(twisted, engine):
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(twisted.adapted, point, engine)
    total = b.R_M + b.R_G + b.FF + b.DdDd + b.lap_ln_d + b.grad_ln_d
    assert b.R_total == total


def test_flat_product_breakdown(flat, engine):
    point = sample_points(flat, 1)[0]
    b = decomposition_terms(flat.adapted, point, engine)
    for name in ("R_M", "FF", "DdDd", "lap_ln_d", "grad_ln_d"):
        assert abs(getattr(b, name)) <= 1e-10, name
    assert_close(b.R_G, flat.expected["r_group"], 1e-12, "flat orbit piece")


def test_scaled_orbit_breakdown(scaled, engine):
    slope = scaled.params["slope"]
    point = ChartPoint([0.2, -0.1], [0.1, 0.2, -0.3])
    b = decomposition_terms(scaled.adapted, point, engine)
    assert abs(b.R_M) <= 1e-8
    assert abs(b.FF) <= 1e-10
    assert abs(b.lap_ln_d) <= 1e-7
    assert_close(b.grad_ln_d, scaled.expected["grad_ln_d"], 1e-8,
                 "squared gradient of log volume")
    assert_close(b.DdDd, scaled.expected["dddd"], 1e-8, "DdDd piece")
    assert_close(b.R_G, -1.5 * np.exp(-2.0 * slope * 0.2), 1e-10,
                 "pointwise orbit curvature")


#: ``(R_M, R_total)`` of ``decomposition_terms`` at ``_PIN`` with the
#: default engine, recorded from the serial per-point frame compile; the
#: stacked stencil must reproduce them bit for bit. ``R_total`` was
#: re-recorded when the ``ln det d`` Hessian moved onto the ``R_M``
#: stencil.
_PIN = ChartPoint([0.12, -0.21], [0.3, -0.15, 0.22])
_PINNED_DECOMPOSITION = {
    "twisted_bundle": (-13.73220446630276, -1.4331566311551067),
    "abelian_limit": (-6.900613069226026, -0.00964265005823195),
    "flat_product": (0.0, -1.5),
    "scaled_orbit": (0.0, 10.820058208547424),
}
#: The coordinate oracle at ``_PIN`` and group coordinates ``_PIN_A``,
#: recorded the same way; re-recorded when the oracle moved from the
#: nested stencil to its second-difference stencil, which moved each
#: toward the decomposition's total (by 4.0e-8 and 1.7e-8).
_PIN_A = np.array([0.2, -0.1, 0.15])
_PINNED_ORACLE = {
    "twisted_bundle": -1.4331566383933718,
    "flat_product": -1.500000000166065,
}


@pytest.mark.parametrize("name", sorted(_PINNED_DECOMPOSITION))
def test_decomposition_pinned_values(name, engine):
    b = decomposition_terms(build_scenario(name).adapted, _PIN, engine)
    assert (b.R_M, b.R_total) == _PINNED_DECOMPOSITION[name]


@pytest.mark.parametrize("name", sorted(_PINNED_ORACLE))
def test_oracle_pinned_values(name, engine):
    scen = build_scenario(name)
    got = scalar_curvature_coordinate_oracle(scen.orig, None, _PIN.x,
                                             _PIN.f, _PIN_A, engine)
    assert got == _PINNED_ORACLE[name]


#: ``ricci_scalar_pair`` at ``_PIN`` through the table and the general
#: route, and ``jacobian_geometric`` there, recorded from the Ricci pair
#: that evaluated its Christoffel field one table per outer stencil row;
#: the stacked field must reproduce them bit for bit.
_PINNED_RICCI = {
    "twisted_bundle": ((-1.4331566308554202, -13.732204466302761),
                       (-1.4331566308553185, -13.732204466302694),
                       8.44806991003096),
    "abelian_limit": ((-0.00964265174368309, -6.900613069226026),
                      (-0.009642651743678808, -6.900613069226026),
                      4.247921432416537),
    "flat_product": ((-1.5, 0.0), (-1.5, 0.0), 0.0),
    "scaled_orbit": ((10.820058205956325, 0.0), (10.820058205956325, 0.0),
                     8.999999997527564),
}


@pytest.mark.parametrize("name", sorted(_PINNED_RICCI))
def test_ricci_pair_pinned_values(name, engine):
    adapted = build_scenario(name).adapted
    terms = PointTerms(adapted, _PIN, engine)
    got = (ricci_scalar_pair(terms),
           ricci_scalar_pair(terms, christoffel_general),
           jacobian_geometric(adapted, _PIN, engine))
    assert got == _PINNED_RICCI[name]


@pytest.mark.parametrize("route", [christoffel_table, christoffel_general])
def test_ricci_pair_calls_its_route_once(twisted, engine, route):
    """The route runs once, on the record's nested jet: the 21
    centre-first rows of the outer stencil, the point and its 20 shifted
    rows (2 steps, +-, 5 slots)."""
    calls = []

    def counted(jet):
        calls.append(jet)
        return route(jet)

    terms = PointTerms(twisted.adapted, _PIN, engine)
    ricci_scalar_pair(terms, counted)
    assert calls == [terms.nested_jet] and len(calls[0].zs) == 21


def test_ricci_pair_reads_the_decomposition_stencil(twisted, engine,
                                                    compiles):
    """The Ricci pair's route runs on the outer rows of the nested
    stencil, so its fields read the 441-row stack that the decomposition
    compiled, and the structure functions and metrics at the point read
    the decomposition's stacks too: after the decomposition, neither
    route's pair on the same record compiles a frame."""
    point = ChartPoint([-0.17, 0.26], [0.05, 0.31, -0.22])
    terms = PointTerms(twisted.adapted, point, engine)
    terms.breakdown
    assert sorted(compiles) == [21, 441]
    ricci_scalar_pair(terms, christoffel_table)
    ricci_scalar_pair(terms, christoffel_general)
    assert sorted(compiles) == [21, 441]


def test_point_terms_compute_each_entry_once(twisted, engine):
    """An entry is computed on first read and kept, read-only; the
    record's decomposition of its point is the one
    ``decomposition_terms`` computes on a record of its own."""
    adapted = twisted.adapted
    terms = PointTerms(adapted, _PIN, engine)
    assert terms.Dd is terms.Dd and not terms.Dd.flags.writeable
    breakdown = terms.breakdown[0]
    assert breakdown is terms.breakdown[0]
    assert breakdown == decomposition_terms(adapted, _PIN, engine)
    with pytest.raises(AttributeError, match="read-only"):
        terms.R_M = 0.0
    with pytest.raises(AttributeError):
        terms.R_P


def test_stacked_second_order_entries_equal_one_point_records(twisted,
                                                             engine,
                                                             compiles):
    """A record of three points holds each point's second-order entries
    byte for byte as its one-point record does, and so does its
    ``single`` record of each point; the stack compiles its first-order
    rows once and each point's nested stencil on its own."""
    points = sample_points(twisted, 3, seed=241)
    stack = PointTerms(twisted.adapted, points, engine)

    def second_order(terms):
        return [np.asarray(value) for value in (
            terms.R_M, terms.R_G, terms.FF, terms.DdDd,
            *terms.log_density, *terms.pair_table, *terms.pair_general)]

    stacked = second_order(stack)
    assert sorted(compiles) == [63, 441, 441, 441]
    for i, point in enumerate(points):
        alone = [value.tobytes() for value in second_order(
            PointTerms(twisted.adapted, point, engine))]
        single = stack.single(i)
        assert single.points == (point,)
        assert [value.tobytes() for value in second_order(single)] == alone
        assert [value[i:i + 1].tobytes() for value in stacked] == alone


def test_single_takes_negative_indices(twisted, engine):
    """``single(-1)`` is the one-point record of the last point, bit for
    bit ``single(B - 1)``: the same jet row, ``R_G``, ``FF``, ``DdDd`` and
    breakdown. An index past the stack raises ``IndexError``."""
    points = sample_points(twisted, 3, seed=241)
    stack = PointTerms(twisted.adapted, points, engine)
    last, negative = stack.single(2), stack.single(-1)
    assert negative.points == last.points == (points[2],)
    for field in dataclasses.fields(last.jet):
        if field.name != "adapted":
            want = getattr(last.jet, field.name)
            got = getattr(negative.jet, field.name)
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
    for name in ("R_G", "FF", "DdDd"):
        assert getattr(negative, name).shape == (1,), name
        assert (getattr(negative, name).tobytes()
                == getattr(last, name).tobytes()), name
    assert len(negative.breakdown) == 1
    assert negative.breakdown == last.breakdown
    with pytest.raises(IndexError):
        stack.single(3)


def test_log_density_terms_compile_two_stacks(twisted, engine, compiles):
    """``ln det d`` on the nested stencil (441 rows) and the
    Levi-Civita symbols on the centre-first first-derivative stencil (21
    rows) compile one stack each."""
    point = ChartPoint([0.21, -0.08], [-0.17, 0.05, 0.29])
    log_density_terms(PointTerms(twisted.adapted, point, engine))
    assert sorted(compiles) == [21, 441]


def test_log_density_terms_read_the_r_m_stencil(twisted, engine, compiles):
    """``ln det d`` is taken from the nested jet that ``R_M`` reads:
    after ``R_M`` and the point's jet, ``log_density_terms`` compiles no
    frame at all; the values of d, the inverse metric and the symbols it
    contracts with all come from the two jets."""
    point = ChartPoint([0.21, -0.08], [-0.17, 0.05, 0.29])
    terms = PointTerms(twisted.adapted, point, engine)
    terms.R_M                                         # 441 nested rows
    terms.jet                                         # 21 rows
    assert compiles == [441, 21]
    log_density_terms(terms)
    assert compiles == [441, 21]


def _quadratic_log_density(h_tilde, q_hess, q_grad):
    """A hand-built geometry with constant ``h~`` (so its Levi-Civita
    symbols vanish) and ``d = exp(q/3) I_3``, so ``ln det d = q`` for the
    quadratic ``q(z) = z Q z / 2 + b z`` over the joint chart."""
    def q(zs):
        return 0.5 * np.einsum("ni,ij,nj->n", zs, q_hess, zs) + zs @ q_grad

    def scaled_eye(power):
        return lambda zs: np.exp(power * q(zs) / 3.0)[:, None, None] \
            * np.eye(3)

    return AdaptedGeometry(
        n_x=2, n_v=len(h_tilde) - 2,
        frames=frames_of(
            h_tilde=constant_field(h_tilde),
            h_tilde_inv=constant_field(np.linalg.inv(h_tilde)),
            det_h=constant_field(np.linalg.det(h_tilde)),
            d=scaled_eye(1.0), d_inv=scaled_eye(-1.0),
            det_d=lambda zs: np.exp(q(zs)),
            A=constant_field(np.zeros((3, len(h_tilde))))),
        c=su2_constants())


def test_log_density_terms_quadratic_closed_form(engine):
    """With ``ln det d = q`` quadratic and ``h~`` constant, non-diagonal
    and SPD, the Laplacian is ``tr(h~^-1 Q)`` (off-diagonal Hessian
    entries included) and the gradient term ``grad q h~^-1 grad q / 4``.
    Over these points the Laplacian was measured within 5.3e-9 and the
    gradient term within 6.4e-12."""
    h_tilde = np.array([[1.3, 0.4, -0.2], [0.4, 0.9, 0.3],
                        [-0.2, 0.3, 1.1]])
    q_hess = np.array([[0.8, -0.5, 0.3], [-0.5, 1.4, 0.6],
                       [0.3, 0.6, -0.7]])
    q_grad = np.array([0.4, -0.9, 0.25])
    adapted = _quadratic_log_density(h_tilde, q_hess, q_grad)
    h_inv = np.linalg.inv(h_tilde)
    rng = np.random.default_rng(3)
    for z in rng.uniform(-0.5, 0.5, size=(50, 3)):
        lap, grad_sq = log_density_terms(
            PointTerms(adapted, ChartPoint(z[:2], z[2:]), engine))
        grad = q_hess @ z + q_grad
        assert_close(lap, np.einsum("ab,ab->", h_inv, q_hess), 5e-8,
                     "Laplacian of ln det d")
        assert_close(grad_sq, 0.25 * grad @ h_inv @ grad, 1e-10,
                     "squared gradient of ln det d")


def test_log_det_d_on_a_stack_equals_one_row_calls(twisted, engine):
    """``slogdet`` over a jet's stack of orbit metrics on all its stencil
    rows, as ``log_density_terms`` takes it, gives the values of
    one-matrix calls, bit for bit; at the centres, those of the orbit
    metric field at the points."""
    adapted = twisted.adapted
    points = sample_points(twisted, 12, seed=211)
    jet = jet_at(adapted, np.array([p.coords for p in points]),
                         engine)
    stacked = np.linalg.slogdet(jet.d_rows)[1]
    assert stacked.shape == (12, 21)
    assert stacked.tolist() == [[np.linalg.slogdet(d)[1] for d in row]
                                for row in jet.d_rows]
    assert stacked[:, 0].tolist() == [
        np.linalg.slogdet(frames_at(adapted, p.coords[None]).d[0])[1]
        for p in points]


def test_twisted_ff_matches_loop_oracle(twisted, engine):
    from bundlecurv.fields import invert_spd

    adapted = twisted.adapted
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(adapted, point, engine)
    frames = frames_at(adapted, point.coords[None])
    h_inv, _ = invert_spd(frames.h_tilde[0])
    d_val = frames.d[0]
    f_val = jet_at(adapted, point.coords[None], engine).F[0]
    n_h, n_g = adapted.n_h, adapted.n_g
    want = 0.0
    for a in range(n_h):
        for bb in range(n_h):
            for c in range(n_h):
                for dd in range(n_h):
                    for m in range(n_g):
                        for n in range(n_g):
                            want += 0.25 * (h_inv[a, bb] * h_inv[c, dd]
                                            * d_val[m, n]
                                            * f_val[m, a, c] * f_val[n, bb, dd])
    assert_close(b.FF, want, 1e-12, "curvature-squared loop oracle")


def test_log_density_flat_and_analytic_route(flat, scaled, engine):
    point = sample_points(flat, 1)[0]
    lap, grad = log_density_terms(PointTerms(flat.adapted, point, engine))
    assert abs(lap) <= 1e-10 and abs(grad) <= 1e-12
    # ln det d = 6 slope x0 on a flat h~: closed-form gradient term,
    # vanishing Laplacian
    point = ChartPoint([0.15, 0.2], [0.0, 0.1, 0.0])
    lap, grad = log_density_terms(PointTerms(scaled.adapted, point, engine))
    assert_close(grad, 9.0 * scaled.params["slope"] ** 2, 1e-9,
                 "closed-form gradient term")
    assert abs(lap) <= 1e-7


# ---------------------------------------------------------------------------
# frame Ricci routes


def test_pure_orbit_total_matches_closed_form(engine):
    d_matrix = np.diag([1.0, 1.7, 2.3])
    adapted = _pure_orbit_block(d_matrix)
    point = ChartPoint([0.3], [])
    r_total, r_base = ricci_scalar_pair(PointTerms(adapted, point, engine))
    assert_close(r_total, orbit_scalar_curvature(su2_constants(), d_matrix,
                                                 np.linalg.inv(d_matrix)),
                 1e-6, "pure orbit block")
    assert abs(r_base) <= 1e-6


def test_flat_ricci_pair(flat, engine):
    point = sample_points(flat, 1)[0]
    r_total, r_base = ricci_scalar_pair(PointTerms(flat.adapted, point,
                                                   engine))
    assert_close(r_total, flat.expected["r_group"], 1e-8, "flat total")
    assert abs(r_base) <= 1e-8


def test_three_way_agreement(twisted, engine):
    """Decomposition, table Ricci, and general-formula Ricci coincide."""
    for point in sample_points(twisted, 2, seed=83):
        terms = PointTerms(twisted.adapted, point, engine)
        b = terms.breakdown[0]
        t_total, t_base = ricci_scalar_pair(terms)
        g_total, g_base = ricci_scalar_pair(terms, christoffel_general)
        assert_close(t_total, b.R_total, 1e-6, "table vs decomposition")
        assert_close(g_total, b.R_total, 1e-6, "general vs decomposition")
        assert_close(t_base, b.R_M, 1e-6, "orbit-space block vs chart value")


# ---------------------------------------------------------------------------
# coordinate-basis oracle


def test_oracle_metric_block_structure(twisted):
    x = np.array([0.1, -0.2])
    f = np.array([0.3, 0.0, 0.1])
    got = oracle_metric(twisted.orig, x[None], f[None], np.zeros((1, 3)))[0]
    assert got.shape == (8, 8)
    assert_close(got, got.T, 1e-12, "metric symmetry")
    w = np.linalg.eigvalsh(got)
    assert np.min(w) > 0


def test_oracle_calls_oracle_metric_once(flat, engine, monkeypatch):
    """The whole second-difference stencil over the eight coordinates,
    ``1 + 4 k^2 = 257`` rows, goes to one oracle_metric call."""
    rows = []
    real = curvature.oracle_metric

    def counting(orig, x, f, a):
        rows.append(len(x))
        return real(orig, x, f, a)

    monkeypatch.setattr(curvature, "oracle_metric", counting)
    point = sample_points(flat, 1)[0]
    scalar_curvature_coordinate_oracle(flat.orig, None, point.x,
                                       point.f, np.array([0.2, 0.15, 0.1]),
                                       engine)
    assert rows == [257]


def test_oracle_runs_group_callables_on_distinct_rows(twisted, engine):
    """The ``1 + 4 k^2`` rows of the second-difference stencil over
    ``k = 8`` coordinates are 257, and a row moves only the one or two
    coordinates of its slot or pair. A sub-vector of ``k'`` of them takes
    ``1 + 4 k' + 8 k'(k' - 1)/2 = 1 + 4 k'^2`` distinct values: 37 for
    the group coordinates ``a`` (``k' = 3``) and 101 for ``(x, a)``
    (``k' = 5``). The group action runs on the former, ``G_P`` on the
    translated points of the latter."""
    rows = {}

    def counting(name):
        func = getattr(twisted.orig, name).func

        def counted(*stacks):
            rows[name] = rows.get(name, 0) + len(stacks[0])
            return func(*stacks)
        return counted

    names = ("G_P", "right_translate", "vspace_action", "vspace_action_d")
    orig = dataclasses.replace(twisted.orig,
                               **{name: counting(name) for name in names})
    point = sample_points(twisted, 1)[0]
    scalar_curvature_coordinate_oracle(orig, None, point.x,
                                       point.f, np.array([0.2, 0.15, 0.1]),
                                       engine)
    assert rows == {"G_P": 101, "right_translate": 257,
                    "vspace_action": 37, "vspace_action_d": 37}


def test_oracle_flat_values(engine):
    su2 = build_scenario("flat_product", {"lam": 1.4})
    trivial = build_scenario("flat_product", {"group": "abelian"})
    point = sample_points(su2, 1)[0]
    a = np.array([0.2, 0.15, 0.1])
    got = scalar_curvature_coordinate_oracle(su2.orig, None, point.x,
                                             point.f, a, engine)
    assert_close(got, -1.5 / 1.4, 1e-6, "flat su2 oracle")
    got0 = scalar_curvature_coordinate_oracle(trivial.orig, None,
                                              point.x, point.f, a, engine)
    assert abs(got0) <= 1e-6


def test_oracle_matches_adapted_total(twisted, engine):
    point = sample_points(twisted, 1)[0]
    b = decomposition_terms(twisted.adapted, point, engine)
    a_vals = sample_group_coordinates(twisted, 2, seed=89)
    o1 = scalar_curvature_coordinate_oracle(twisted.orig, None,
                                            point.x, point.f, a_vals[0],
                                            engine)
    o2 = scalar_curvature_coordinate_oracle(twisted.orig, None,
                                            point.x, point.f, a_vals[1],
                                            engine)
    assert_close(o1, b.R_total, 1e-6, "oracle vs adapted computation")
    assert_close(o1, o2, 1e-6, "group-coordinate independence")


def _oracle_sample(scen):
    """The oracle at 8 seeded points, each at 2 seeded group draws."""
    draws = sample_group_coordinates(scen, 16, seed=5).reshape(8, 2, -1)
    return np.array([[scalar_curvature_coordinate_oracle(
                          scen.orig, None, point.x, point.f, a)
                      for a in pair]
                     for point, pair in zip(sample_points(scen, 8, seed=5),
                                            draws)])


def test_oracle_flat_closed_form_gap(flat):
    """On flat_product the oracle meets the closed form ``-3/(2 lam)``;
    the worst gap recorded on this sample was 9.9e-10 (1.7e-8 on the
    nested stencil that preceded the second-difference one)."""
    gaps = np.abs(_oracle_sample(flat) + 1.5 / flat.params["lam"])
    assert gaps.max() <= 1e-7, gaps.max()


def test_oracle_group_shift_gap(twisted):
    """The oracle does not depend on the group coordinates; the worst
    shift ``|R(a_1) - R(a_2)|`` recorded on this sample was 3.0e-9
    (5.0e-8 on the nested stencil)."""
    values = _oracle_sample(twisted)
    shifts = np.abs(values[:, 0] - values[:, 1])
    assert shifts.max() <= 3e-7, shifts.max()


@pytest.mark.parametrize("x, f, a, bad", [
    ([0.1, 0.2, 0.0], [0.1, 0.2], [0.2, -0.1, 0.15], "x"),
    ([0.1, 0.2], [0.1, 0.2], [0.2, -0.1, 0.15], "f"),
    ([0.1, 0.2], [0.1, 0.2, 0.0], [0.2, -0.1], "a"),
    ([[0.1, 0.2]], [0.1, 0.2, 0.0], [0.2, -0.1, 0.15], "x"),
])
def test_oracle_rejects_a_wrong_split(twisted, x, f, a, bad):
    """A wrong split of the coordinates is an error naming the argument,
    not the curvature at the point their concatenation would be."""
    with pytest.raises(ValueError, match="^%s must have shape" % bad):
        scalar_curvature_coordinate_oracle(twisted.orig, None, x, f, a)


def test_oracle_metric_rejects_wrong_stacks(twisted):
    x, f, a = np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3))
    with pytest.raises(ValueError, match="^a must have shape \\(N, 3\\)"):
        oracle_metric(twisted.orig, x, f, a[:, :2])
    with pytest.raises(ValueError, match="^x must have shape"):
        oracle_metric(twisted.orig, x[0], f, a)
    with pytest.raises(ValueError, match="one row count, got 2, 2, 1"):
        oracle_metric(twisted.orig, x, f, a[:1])


def test_record_rejects_a_wrong_split(twisted):
    """A point whose ``x`` and ``f`` do not match the geometry's sectors
    is an error naming the point, through ``decomposition_terms`` and
    ``run_checks``: the record would otherwise re-split its coordinates
    at ``n_x`` and evaluate another point."""
    wrong = ChartPoint([0.1, 0.2, 0.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="^point 0 has n_x = 3"):
        decomposition_terms(twisted.adapted, wrong)
    with pytest.raises(ValueError, match="^point 1 has n_x = 3"):
        run_checks(twisted, [sample_points(twisted, 1)[0], wrong],
                   ["christoffel"])
