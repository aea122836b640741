"""End-to-end and per-layer metrics of the certification benchmark.

Imported after ``run.load_library`` has put the checkout's sources on the
path. ``end_to_end`` reduces the timed operations of an untraced run;
``census`` and ``per_layer`` serve the traced run.
"""

import statistics

import workloads as wl
from bundlecurv import curvature, sde, verify
from tracing import FIELD_CALL, POINT_FRAME

CENSUS_POINTS = 2            # per check and scenario: one pooled batch


def end_to_end(workload, ops, peak_kib, setup_seconds):
    """The four end-to-end metrics, or None when nothing passed."""
    timed = [op.seconds / op.points for op in ops if op.seconds is not None]
    leading = [op.verdict for op in ops
               if op.round_index < workload.margin_rounds and not op.failed]
    if not timed or not leading:
        return None
    typical = wl.margins(leading, wl.geometric_mean)
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "point_s": (statistics.median(timed), "s"),
        "margin_decades": (min(typical.values()), "decades"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    worst = wl.margins(leading, max)
    return metrics, {
        "setup_s_samples": setup_seconds,
        "typical_margin_by_part": dict(sorted(typical.items(),
                                             key=lambda kv: kv[1])),
        "worst_margin_by_part": dict(sorted(worst.items(),
                                            key=lambda kv: kv[1]))}


LAYER_METRICS = (
    ["verify.run_checks.s_per_point", "verify.gate_scenario.s_per_op"]
    + ["verify.check.%s.s_per_point" % c for c in wl.ALL_CHECKS]
    + ["geometry.point_frame.calls_per_point", "geometry.frames_per_point",
       "geometry.frame_hit_ratio", "geometry.point_frame.self_s_per_point",
       "geometry.validate_original.s_per_op",
       "fields.partial.calls_per_point", "fields.partial.self_s_per_point",
       "fields.second_partial.calls_per_point",
       "fields.second_partial.self_s_per_point",
       "fields.field_evals_per_point",
       "fields.invert_spd.calls_per_point",
       "fields.invert_spd.self_s_per_point",
       "liecore.group_direction_derivative.calls_per_point",
       "liecore.group_direction_derivative.self_s_per_point",
       "connection.christoffel_table.s_per_point",
       "connection.christoffel_general.s_per_point",
       "connection.curvature_F.calls_per_point",
       "connection.covariant_D_orbit_metric.calls_per_point",
       "curvature.ricci_scalar_pair.s_per_point",
       "curvature.decomposition_terms.s_per_point",
       "curvature.log_density_terms.calls_per_point",
       "curvature.coordinate_ricci_scalar.s_per_point",
       "curvature.oracle_metric.calls_per_point",
       "curvature.oracle_metric.self_s_per_point",
       "jacobian.jacobian_direct.s_per_point",
       "jacobian.jacobian_geometric.s_per_point",
       "jacobian.second_fundamental_form.s_per_point",
       "jacobian.killing_identities_check.s_per_point",
       "sde.drift_coefficients.s_per_point",
       "sde.drift_divergence_form.s_per_point",
       "sde.euler_maruyama_check.s_per_op",
       "scenarios.build_scenario.s"])

_SPECIAL = {
    "geometry.frames_per_point": (POINT_FRAME, "frames"),
    "geometry.frame_hit_ratio": (POINT_FRAME, "hit_ratio"),
    "fields.field_evals_per_point": (FIELD_CALL, "calls_per_point"),
    "scenarios.build_scenario.s": ("scenarios.build_scenario", "setup"),
}
_KINDS = ("self_s_per_point", "calls_per_point", "s_per_point", "s_per_op")
_UNITS = {"calls_per_point": "count", "frames": "count",
          "hit_ratio": "ratio"}


def parse_metric(name):
    """(span label, kind) of a per-layer metric name."""
    if name in _SPECIAL:
        return _SPECIAL[name]
    if name.startswith("verify.check."):
        return "verify.run_checks", "check:" + name.split(".")[2]
    for kind in _KINDS:
        if name.endswith("." + kind):
            return name[:-len(kind) - 1], kind
    raise ValueError("unparsed per-layer metric %r" % name)


def census(workload, root):
    """Each check alone per scenario, one oracle and one moment check.

    Times ``verify.check.<name>`` and stands in for any layer the
    workload's own operations never call. Returns the census verdicts.
    """
    verdicts = []
    # oracle_shift's warm-up calls no run_checks; a serial one-point call
    # finishes the group-sign calibration before the pooled batches
    sc = workload.scenario("twisted_bundle")
    points = workload.inputs.points(1, ("census", "calibration"))
    verdict = wl.Verdict()
    wl.gate_report(verdict, verify.run_checks(sc, points, ("christoffel",)),
                   ("christoffel",), "twisted_bundle", 1)
    verdicts.append(verdict)
    for check in wl.ALL_CHECKS:
        for name in wl.ROUND_ROBIN:
            sc = workload.scenario(name)
            points = workload.inputs.points(CENSUS_POINTS,
                                            ("census", check, name))
            with root(len(points), "check:" + check):
                report = verify.run_checks(sc, points, (check,))
            verdict = wl.Verdict()
            wl.gate_report(verdict, report, (check,), name, len(points))
            verdicts.append(verdict)
    sc = workload.scenario("twisted_bundle")
    point = workload.inputs.points(1, ("census", "oracle"))[0]
    group = workload.inputs.group(1, ("census", "oracle"))[0]
    with root(1, "census:oracle"):
        total = curvature.scalar_curvature_coordinate_oracle(
            sc.orig, sc.chart, point.x, point.f, group)
    verdict = wl.Verdict()
    ref = curvature.decomposition_terms(sc.adapted, point).R_total
    verdict.part("census.oracle_vs_total",
                 [abs(total - ref) / max(1.0, abs(ref))], wl.ORACLE_TOL)
    verdicts.append(verdict)
    point = workload.inputs.points(1, ("census", "moments"))[0]
    with root(1, "census:moments"):
        moments = sde.euler_maruyama_check(
            sc.adapted, point=point, dt=wl.EM_DT, n_paths=wl.EM_PATHS,
            seed=workload.seed, sigma_limit=wl.EM_SIGMA_LIMIT)
    verdict = wl.Verdict()
    wl.gate_moments(verdict, moments)
    verdicts.append(verdict)
    return verdicts


def per_layer(table):
    """Every per-layer metric, with the roots it was taken over."""
    ops = table.root_ids(lambda kind: kind == "op")
    whole_census = table.root_ids(lambda kind: kind.startswith(("check:",
                                                                "census:")))
    setup = table.root_ids(lambda kind: kind == "setup")
    metrics, sources = {}, {}
    for name in LAYER_METRICS:
        label, kind = parse_metric(name)
        if kind.startswith("check:"):
            roots, source = table.root_ids(lambda k: k == kind), "census"
        elif kind == "setup":
            roots, source = setup, "setup"
        elif table.calls(label, ops):
            roots, source = ops, "operations"
        else:
            roots, source = whole_census, "census"
        points = max(1, table.points(roots))
        calls = table.calls(label, roots)
        if kind in ("s_per_point",) or kind.startswith("check:"):
            value = table.inclusive(label, roots) / points
        elif kind == "self_s_per_point":
            value = table.self_time(label, roots) / points
        elif kind == "calls_per_point":
            value = calls / points
        elif kind == "s_per_op":
            value = (table.inclusive(label, roots)
                     / max(1, table.roots_calling(label, roots)))
        elif kind == "frames":
            value = table.distinct_frames(roots) / points
        elif kind == "hit_ratio":
            value = 1.0 - table.distinct_frames(roots) / max(1, calls)
        else:   # setup: seconds per build_scenario call
            value = table.inclusive(label, roots) / max(1, calls)
        metrics[name] = (value, _UNITS.get(kind, "s"))
        sources[name] = source
    return metrics, sources


def check_table(table):
    """Census figures per check: seconds, frames and field calls per point."""
    rows = {}
    for check in wl.ALL_CHECKS:
        roots = table.root_ids(lambda k: k == "check:" + check)
        points = max(1, table.points(roots))
        rows[check] = {
            "s_per_point": table.inclusive("verify.run_checks", roots)
            / points,
            "frames_per_point": table.distinct_frames(roots) / points,
            "field_evals_per_point":
                table.calls(FIELD_CALL, roots) / points,
        }
    for kind in ("census:oracle", "census:moments"):
        roots = table.root_ids(lambda k: k == kind)
        rows[kind] = {
            "seconds": table.inclusive("root:" + kind, roots),
            "oracle_metric_calls":
                table.calls("curvature.oracle_metric", roots),
            "frames": table.distinct_frames(roots),
        }
    return rows
