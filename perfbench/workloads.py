"""Inputs, operations and correctness gates of the certification benchmark.

Every operation draws fresh chart points from one seeded stream, so no
point repeats across operations in a process and the frame cache in
``bundlecurv.geometry`` cannot serve one operation from another. The
program sees only the generated points and group coordinates.

Gates are computed here, from the operation's raw outputs, against
closed forms and against properties the method must have. They never use
``report.passed``: ``CheckPart.max_residual`` takes the builtin ``max``,
which lets a NaN that follows a finite residual pass.
"""

import itertools
import math
import resource
import time

import numpy as np

from bundlecurv import curvature, jacobian, scenarios, sde, verify
from bundlecurv.fields import ChartPoint

#: Scenario parameters, spelled out so a changed default cannot move the
#: inputs. All four share the 2/3/3 (base/vector/group) layout.
SCENARIO_PARAMS = {
    "twisted_bundle": {"lam_v": 1.2},
    "abelian_limit": {},
    "flat_product": {"lam": 1.0, "group": "su2", "gv_offdiag": 0.0},
    "scaled_orbit": {"slope": 1.0},
}
ROUND_ROBIN = ("twisted_bundle", "abelian_limit", "flat_product",
               "scaled_orbit")
N_X, N_V, N_G = 2, 3, 3
POINT_BOX = (-0.4, 0.4)
GROUP_BOX = (0.1, 0.35)

ALL_CHECKS = ("christoffel", "curvature", "jacobian", "secondform",
              "killingderiv", "detfact", "sde")
FIRST_ORDER_CHECKS = ("christoffel", "secondform", "killingderiv",
                      "detfact", "sde")

#: Per-part tolerances as README documents them, held here so that a
#: change to the library's table cannot loosen the benchmark.
PART_TOLERANCES = {
    "christoffel": {"table_vs_general": 1e-8},
    "curvature": {"three_way": 1e-6},
    "jacobian": {"direct_vs_geometric": 1e-6},
    "secondform": {"raw_vs_closed": 1e-7, "norm_vs_decomposition": 1e-9},
    "killingderiv": {"raw_base": 1e-7, "raw_vector": 1e-7,
                     "adapted_base": 1e-7, "adapted_vector": 1e-7},
    "detfact": {"det_product": 1e-9, "inverse_round_trip": 1e-10},
    "sde": {"diffusion_square": 1e-9, "drift_vs_divergence": 1e-7},
}
#: The flat product's derivative-driven terms vanish identically, so its
#: total is the closed-form orbit curvature and its Jacobian is zero, both
#: to rounding.
FLAT_EXACT_TOL = 1e-10
SCALED_JACOBIAN_TOL = 1e-8     # J = 9 slope^2 on the scaled orbit
ORACLE_TOL = 1e-6              # oracle anchor, match and group shift
EM_DT = 1e-4
EM_PATHS = 200_000
#: Per-statistic limit of the moment check, in standard errors. At the
#: library default of 4, 20 independent statistics would reject about
#: 1.3e-3 of correct calls; at 6, fewer than 1e-7.
EM_SIGMA_LIMIT = 6.0

#: Residual floor of the margin, the rounding level of a relative residual
#: in double precision; an exact zero stays finite.
RESIDUAL_FLOOR = 1e-16


def su2_orbit_curvature(lam):
    r"""Orbit scalar curvature of su(2) with ``d = lam * I``, by loops.

    ``R_G = 1/2 d^{mn} c^s_{ma} c^a_{ns}
    + 1/4 d_{ms} d^{ab} d^{en} c^m_{ea} c^s_{nb}`` with
    ``c^g_{ab} = eps_{abg}``; on the flat product it is the whole scalar
    curvature, ``-3 / (2 lam)``.
    """
    def c(g, a, b):
        return float(np.linalg.det(np.eye(3)[[a, b, g]]))

    idx = range(3)
    term1 = 0.5 / lam * sum(c(s, m, a) * c(a, m, s)
                            for m in idx for s in idx for a in idx)
    term2 = 0.25 / lam * sum(c(m, e, a) ** 2
                             for m in idx for e in idx for a in idx)
    return term1 + term2


def relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class Verdict:
    """The gated parts of one operation: residuals against tolerances."""

    def __init__(self):
        self.parts = []        # (label, residuals, tolerance)
        self.problems = []     # structural failures, as messages

    def part(self, label, residuals, tolerance):
        self.parts.append((label, tuple(float(r) for r in residuals),
                           float(tolerance)))

    def problem(self, message):
        self.problems.append(message)

    def failures(self):
        out = list(self.problems)
        for label, residuals, tol in self.parts:
            bad = [r for r in residuals if not (math.isfinite(r)
                                                and r <= tol)]
            if not residuals:
                out.append("%s: no residuals" % label)
            elif bad:
                out.append("%s: %d of %d residuals not within %.0e "
                           "(worst %r)" % (label, len(bad), len(residuals),
                                           tol, bad[0]))
        return out

    @property
    def passed(self):
        return not self.failures()


def margins(verdicts, statistic):
    """log10(tolerance / statistic of residuals) per part, pooled.

    Residuals of one part are pooled over the verdicts and floored at
    ``RESIDUAL_FLOOR``; ``statistic`` is ``max`` for the worst case or
    ``geometric_mean`` for the typical residual.
    """
    pooled, tolerance = {}, {}
    for verdict in verdicts:
        for label, residuals, tol in verdict.parts:
            pooled.setdefault(label, []).extend(
                max(RESIDUAL_FLOOR, r) for r in residuals)
            tolerance[label] = tol
    return {label: math.log10(tolerance[label] / statistic(res))
            for label, res in pooled.items()}


def geometric_mean(values):
    return 10.0 ** (sum(math.log10(v) for v in values) / len(values))


def gate_report(verdict, report, checks, scenario, n_points):
    """Every residual of every expected part, finite and within tolerance."""
    results = {r.name: r for r in report.results}
    if tuple(results) != tuple(checks):
        verdict.problem("report checks %s, expected %s"
                        % (tuple(results), tuple(checks)))
    for check in checks:
        expected = dict(PART_TOLERANCES[check])
        if check == "jacobian" and scenario == "flat_product":
            expected["flat_absolute"] = FLAT_EXACT_TOL
        result = results.get(check)
        parts = {p.name: p for p in result.parts} if result else {}
        if set(parts) != set(expected):
            verdict.problem("%s parts %s, expected %s"
                            % (check, sorted(parts), sorted(expected)))
        for name, tol in expected.items():
            part = parts.get(name)
            residuals = part.residuals if part is not None else ()
            if len(residuals) != n_points:
                verdict.problem("%s.%s has %d residuals for %d points"
                                % (check, name, len(residuals), n_points))
            verdict.part("%s.%s" % (check, name), residuals, tol)


def gate_anchors(verdict, scenario, sc, points):
    """Closed-form anchors of the flat product and the scaled orbit."""
    if scenario == "flat_product":
        lam = SCENARIO_PARAMS[scenario]["lam"]
        r_flat = su2_orbit_curvature(lam)
        totals = [curvature.decomposition_terms(sc.adapted, p).R_total
                  for p in points]
        verdict.part("anchor.flat_R_total",
                     [relative_gap(r, r_flat) for r in totals],
                     FLAT_EXACT_TOL)
        verdict.part("anchor.flat_jacobian",
                     [max(abs(jacobian.jacobian_direct(sc.adapted, p)),
                          abs(jacobian.jacobian_geometric(sc.adapted, p)))
                      for p in points], FLAT_EXACT_TOL)
    elif scenario == "scaled_orbit":
        target = 9.0 * SCENARIO_PARAMS[scenario]["slope"] ** 2
        verdict.part("anchor.scaled_jacobian",
                     [max(relative_gap(jacobian.jacobian_direct(sc.adapted,
                                                                p), target),
                          relative_gap(jacobian.jacobian_geometric(
                              sc.adapted, p), target))
                      for p in points], SCALED_JACOBIAN_TOL)


def gate_moments(verdict, moments):
    """The Euler-Maruyama moments, each finite and within the limit."""
    sigmas = (moments.mean_max_sigma, moments.cov_max_sigma)
    if not (moments.passed and all(math.isfinite(x) and x <= EM_SIGMA_LIMIT
                                   for x in sigmas)):
        verdict.problem("euler_maruyama_check: mean %r, covariance %r "
                        "sigma against %.1f" % (sigmas + (EM_SIGMA_LIMIT,)))


class Inputs:
    """Seeded fresh chart points and group coordinates, in strata.

    Each lane (one per scenario and purpose) takes its inputs from blocks
    of ``block`` rows drawn by Latin hypercube sampling: every coordinate
    of a block has one row in each of ``block`` equal slices of its
    range. A block covers the box evenly, so the typical residual of a
    block moves less from seed to seed than that of uniform draws.
    """

    def __init__(self, seed, stream, block):
        self.rng = np.random.default_rng([seed, stream])
        self.block = block
        self._pending = {}

    def _take(self, key, count, dims, box):
        pending = self._pending.setdefault(key, [])
        while len(pending) < count:
            strata = np.stack([self.rng.permutation(self.block)
                               for _ in range(dims)], axis=1)
            unit = (strata + self.rng.random((self.block, dims))) / self.block
            pending.extend(box[0] + (box[1] - box[0]) * unit)
        taken, pending[:count] = pending[:count], []
        return taken

    def points(self, count, lane):
        return [ChartPoint(row[:N_X], row[N_X:]) for row in
                self._take(("points", lane), count, N_X + N_V, POINT_BOX)]

    def group(self, count, lane):
        return np.array(self._take(("group", lane), count, N_G, GROUP_BOX))


class Workload:
    """A named mix of operations, run in whole rounds.

    Subclasses give ``round()`` (the operation specs of one round),
    ``draw(spec)`` (fresh inputs and their chart-point count),
    ``compute(spec, inputs)`` (the timed library calls) and
    ``gate(spec, inputs, result)``. ``margin_rounds`` leading rounds
    always run, and ``margin_decades`` is taken over them alone, so it is
    the same for a seed however long the run. They draw exactly one
    stratified block per scenario.
    """

    name = None
    scenario_names = ROUND_ROBIN
    batch = 4
    margin_rounds = 1

    def __init__(self, seed, stream=0):
        self.seed = seed
        self.inputs = Inputs(seed, stream, self.batch * self.margin_rounds)
        self.scenarios = {}

    def build(self):
        for name in self.scenario_names:
            self.scenario(name)

    def scenario(self, name):
        """The named scenario, built with its gates on first use."""
        if name not in self.scenarios:
            self.scenarios[name] = scenarios.build_scenario(
                name, SCENARIO_PARAMS[name])
        return self.scenarios[name]

    def round(self):
        return self.scenario_names

    def draw(self, spec, count=None, lane="op"):
        points = self.inputs.points(count or self.batch, (lane, spec))
        return points, len(points)

    def warm_up(self):
        """One single-point operation per scenario; returns its verdicts.

        A one-point ``run_checks`` runs serially, so the once-per-process
        group-sign calibration completes before any pooled batch.
        """
        verdicts = []
        for spec in self.round():
            inputs, _ = self.draw(spec, count=1, lane="warm-up")
            verdicts.append(self.gate(spec, inputs,
                                      self.compute(spec, inputs)))
        return verdicts


class VerifyFull(Workload):
    """All seven checks, one fresh point per ``run_checks`` call.

    A one-point call runs serially. Pooled batches are the first-order
    workload's: the pool's scheduling swings their timings far more.
    """

    name = "verify_full"
    batch = 1
    margin_rounds = 12
    checks = ALL_CHECKS

    def compute(self, spec, points):
        return verify.run_checks(self.scenarios[spec], points, self.checks)

    def gate(self, spec, points, report):
        verdict = Verdict()
        gate_report(verdict, report, self.checks, spec, len(points))
        gate_anchors(verdict, spec, self.scenarios[spec], points)
        return verdict


class FirstOrder(Workload):
    name = "first_order"
    margin_rounds = 4
    checks = FIRST_ORDER_CHECKS

    def compute(self, spec, points):
        sc = self.scenarios[spec]
        report = verify.run_checks(sc, points, self.checks)
        moments = sde.euler_maruyama_check(
            sc.adapted, point=points[0], dt=EM_DT, n_paths=EM_PATHS,
            seed=self.seed, sigma_limit=EM_SIGMA_LIMIT)
        return report, moments

    def gate(self, spec, points, result):
        report, moments = result
        verdict = Verdict()
        gate_report(verdict, report, self.checks, spec, len(points))
        gate_moments(verdict, moments)
        return verdict


class OracleShift(Workload):
    """Decomposition total and coordinate oracle at two group draws.

    The oracle's series run longer at larger group coordinates, so the
    second draw of each point mirrors the first through the centre of the
    group box: every operation carries about the same series work.
    """

    name = "oracle_shift"
    scenario_names = ("twisted_bundle", "flat_product")
    batch = 1
    margin_rounds = 6

    def round(self):
        return (None,)

    def draw(self, spec, count=None, lane="op"):
        inputs = []
        for name in self.scenario_names:
            point = self.inputs.points(1, (lane, name))[0]
            first = self.inputs.group(1, (lane, name))[0]
            mirror = sum(GROUP_BOX) - first
            inputs.append((name, point, np.stack([first, mirror])))
        return inputs, len(inputs)

    def compute(self, spec, inputs):
        values = []
        for name, point, draws in inputs:
            sc = self.scenarios[name]
            total = curvature.decomposition_terms(sc.adapted, point).R_total
            oracle = [curvature.scalar_curvature_coordinate_oracle(
                          sc.orig, sc.chart, point.x, point.f, a)
                      for a in draws]
            values.append((total, oracle))
        return values

    def gate(self, spec, inputs, values):
        verdict = Verdict()
        for (name, _, _), (total, oracle) in zip(inputs, values):
            scale = max(1.0, abs(total))
            verdict.part("%s.oracle_vs_total" % name,
                         [abs(o - total) / scale for o in oracle],
                         ORACLE_TOL)
            verdict.part("%s.group_shift" % name,
                         [abs(oracle[0] - oracle[1]) / scale], ORACLE_TOL)
            if name == "flat_product":
                r_flat = su2_orbit_curvature(
                    SCENARIO_PARAMS[name]["lam"])
                verdict.part("anchor.flat_R_total",
                             [relative_gap(total, r_flat)], FLAT_EXACT_TOL)
                verdict.part("anchor.flat_oracle",
                             [relative_gap(o, r_flat) for o in oracle],
                             ORACLE_TOL)
        return verdict


WORKLOADS = {cls.name: cls for cls in (VerifyFull, OracleShift, FirstOrder)}


class Operation:
    """Outcome of one timed operation and its gates."""

    def __init__(self, round_index, points, seconds, verdict, error=None):
        self.round_index = round_index
        self.points = points
        self.seconds = seconds
        self.verdict = verdict
        self.error = error

    @property
    def failed(self):
        return self.error is not None or not self.verdict.passed


def run_operation(workload, spec, round_index, root):
    """Draw, time and gate one operation; an exception fails it."""
    inputs, points = workload.draw(spec)
    try:
        with root(points):
            start = time.perf_counter()
            result = workload.compute(spec, inputs)
            seconds = time.perf_counter() - start
        return Operation(round_index, points, seconds,
                         workload.gate(spec, inputs, result))
    except Exception as exc:     # counted as a failed operation
        return Operation(round_index, points, None, None,
                         error="%s: %s" % (type(exc).__name__, exc))


def run_rounds(workload, seconds, root):
    """Whole rounds until ``seconds`` have passed, and the margin rounds.

    Returns the operations and the peak resident set in KiB when the
    margin rounds ended: a fixed amount of work, whereas the frame cache
    keeps growing with however many rounds a run fits in.
    """
    ops = []
    peak_kib = None
    start = time.perf_counter()
    for index in itertools.count():
        if index == workload.margin_rounds:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.perf_counter() - start >= seconds:
                break
        elif (index > workload.margin_rounds
                and time.perf_counter() - start >= seconds):
            break
        for spec in workload.round():
            ops.append(run_operation(workload, spec, index, root))
    return ops, peak_kib
