"""Quick self-test of the certification benchmark's gates.

Runs each workload at minimal size (one single-point operation per
scenario), requires every operation to pass, then corrupts results and
requires each gate to fire and the operation to count as failed:

* a NaN appended after a finite residual, in every part of every check;
* a part missing from a report;
* an anchor value off by 1e-6 (by twice the tolerance band where that
  is wider), for every closed-form anchor and cross-route comparison;
* a non-finite or out-of-limit Euler-Maruyama moment statistic.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
"""

import contextlib
import dataclasses
import sys

from run import load_library

load_library()

import workloads as wl  # noqa: E402
from bundlecurv import verify  # noqa: E402

NAN = float("nan")
ANCHOR_OFFSET = 1e-6


def no_root(points):
    return contextlib.nullcontext()


def expect(fired, what):
    """Stop with a message when a corrupted result was not caught."""
    if not fired:
        raise SystemExit("selftest: gate did not fire on %r" % (what,))


def single_point_ops(workload):
    """One single-point operation per scenario, each required to pass."""
    outcomes = []
    for spec in workload.round():
        inputs, points = workload.draw(spec, count=1)
        result = workload.compute(spec, inputs)
        verdict = workload.gate(spec, inputs, result)
        if not verdict.passed:
            raise SystemExit("selftest: %s %s fails uncorrupted: %s"
                             % (workload.name, spec, verdict.failures()))
        outcomes.append((spec, inputs, result))
    return outcomes


class Replay(wl.Workload):
    """A workload whose one operation returns a stored, corrupted result."""

    def __init__(self, base, spec, inputs, result):
        self.base, self.spec = base, spec
        self.inputs_, self.result = inputs, result
        self.name = base.name
        self.margin_rounds = 1

    def round(self):
        return (self.spec,)

    def draw(self, spec, count=None):
        return self.inputs_, len(self.inputs_)

    def compute(self, spec, inputs):
        return self.result

    def gate(self, spec, inputs, result):
        return self.base.gate(spec, inputs, result)


def counted_failed(base, spec, inputs, result, part=None):
    """Run the corrupted result as one operation; True if it failed.

    With ``part``, the failure must come from that part's residuals being
    non-finite or out of tolerance, not from some other problem.
    """
    ops, _ = wl.run_rounds(Replay(base, spec, inputs, result), 0.0,
                           no_root)
    if len(ops) != 1 or not ops[0].failed:
        return False
    return part is None or any(msg.startswith(part + ":")
                               and "not within" in msg
                               for msg in ops[0].verdict.failures())


def with_parts(report, check, part_name, change):
    """A copy of ``report`` with one part's residuals changed."""
    results = []
    for result in report.results:
        parts = []
        for part in result.parts:
            if result.name == check and part.name == part_name:
                residuals = change(part.residuals)
                if residuals is None:
                    continue
                part = dataclasses.replace(part, residuals=residuals)
            parts.append(part)
        results.append(dataclasses.replace(result, parts=tuple(parts)))
    return dataclasses.replace(report, results=tuple(results))


@contextlib.contextmanager
def patched(module, name, change):
    """Temporarily pass the output of ``module.name`` through ``change``."""
    original = getattr(module, name)
    setattr(module, name, lambda *args, **kwargs: change(
        original(*args, **kwargs)))
    try:
        yield
    finally:
        setattr(module, name, original)


def nan_after(residuals):
    return tuple(residuals) + (NAN,)


def dropped(residuals):
    return None


def shifted(value):
    return value + ANCHOR_OFFSET


def shifted_total(terms):
    return dataclasses.replace(terms, R_total=terms.R_total + ANCHOR_OFFSET)


def main():
    fired = 0
    report_of = {}
    for cls in (wl.VerifyFull, wl.OracleShift, wl.FirstOrder):
        workload = cls(seed=0)
        workload.build()
        outcomes = single_point_ops(workload)
        print("selftest: %s passes at minimal size (%d operations)"
              % (workload.name, len(outcomes)))

        for spec, inputs, result in outcomes:
            report = result[0] if isinstance(result, tuple) else result
            if not isinstance(report, verify.VerificationReport):
                continue
            report_of[(workload.name, spec)] = (workload, spec, inputs,
                                                result)
            for check_result in report.results:
                for part in check_result.parts:
                    label = "%s.%s" % (check_result.name, part.name)
                    for change, cause in ((nan_after, label),
                                          (dropped, None)):
                        bad = with_parts(report, check_result.name,
                                         part.name, change)
                        bad_result = ((bad,) + result[1:]
                                      if isinstance(result, tuple) else bad)
                        expect(counted_failed(workload, spec, inputs,
                                              bad_result, cause),
                               (workload.name, spec, label,
                                change.__name__))
                        fired += 1

        if isinstance(workload, wl.FirstOrder):
            spec, inputs, (report, moments) = outcomes[0]
            for field in ("mean_max_sigma", "cov_max_sigma"):
                for value in (NAN, wl.EM_SIGMA_LIMIT * 1.01):
                    bad = dataclasses.replace(moments, **{field: value})
                    expect(counted_failed(workload, spec, inputs,
                                          (report, bad)), (field, value))
                    fired += 1

        if isinstance(workload, wl.OracleShift):
            spec, inputs, values = outcomes[0]
            for index in range(len(values)):
                total, oracle = values[index]
                delta = max(ANCHOR_OFFSET,
                            2 * wl.ORACLE_TOL * max(1.0, abs(total)))
                for bad_pair in ((total + delta, oracle),
                                 (total, [oracle[0] + delta, oracle[1]])):
                    bad = list(values)
                    bad[index] = bad_pair
                    expect(counted_failed(workload, spec, inputs, bad),
                           (index, bad_pair))
                    fired += 1

    # closed-form anchors computed inside the gate: shift the library's
    # output as the gate sees it
    from bundlecurv import curvature, jacobian
    flat = report_of[("verify_full", "flat_product")]
    scaled = report_of[("verify_full", "scaled_orbit")]
    anchors = ((flat, jacobian, "jacobian_direct", shifted),
               (flat, jacobian, "jacobian_geometric", shifted),
               (flat, curvature, "decomposition_terms", shifted_total),
               (scaled, jacobian, "jacobian_direct", shifted),
               (scaled, jacobian, "jacobian_geometric", shifted))
    for (workload, spec, inputs, result), module, name, change in anchors:
        with patched(module, name, change):
            expect(counted_failed(workload, spec, inputs, result),
                   (spec, name))
        fired += 1

    nan_part = verify.CheckPart("p", (1e-12, NAN), 1e-8)
    print("selftest: library CheckPart((1e-12, nan)).passed = %s; "
          "the benchmark gate rejects it" % nan_part.passed)
    print("selftest: %d corrupted results, each gate fired and each "
          "operation counted as failed" % fired)
    return 0


if __name__ == "__main__":
    sys.exit(main())
