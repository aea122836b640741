"""Compare the two routes to the path-measure Jacobian.

The direct route differentiates the log volume ratio; the geometric
route assembles the same number from curvature terms and the squared
second fundamental form of the orbits.  On the exponential-orbit
scenario both must equal 9 * slope^2 in closed form; on the flat
product both must vanish.

Run:  python3 demos/reduction_jacobian.py
"""

from bundlecurv.curvature import PointTerms
from bundlecurv.fields import DEFAULT_ENGINE
from bundlecurv.jacobian import j_norm_squared, second_fundamental_form
from bundlecurv.scenarios import build_scenario, sample_points


def show(name, **params):
    scenario = build_scenario(name, params or None)
    point = sample_points(scenario, 1)[0]
    # one record of the point: both Jacobians are its entries, and the
    # form and its norm are read from it, each at row 0
    record = PointTerms(scenario.adapted, point, DEFAULT_ENGINE)
    direct = record.J_direct[0]
    geometric = record.J_geometric[0]
    norm2 = j_norm_squared(record)[0]
    form = second_fundamental_form(record)
    print("%s%s" % (name, " %s" % params if params else ""))
    print("  J direct    : %+.10f" % direct)
    print("  J geometric : %+.10f" % geometric)
    print("  |j|^2       : %+.10f" % norm2)
    if form.raw is not None:
        print("  raw-vs-closed residual of j: %.3e"
              % abs(form.closed[0] - form.raw[0]).max())
    if "jacobian" in scenario.expected:
        print("  expected    : %+.10f" % scenario.expected["jacobian"])
    print()


def main():
    show("scaled_orbit")
    show("scaled_orbit", slope=0.5)
    show("flat_product")
    show("twisted_bundle")


if __name__ == "__main__":
    main()
