"""Walk through the curvature machinery on the twisted-bundle scenario.

Builds the richest built-in geometry, evaluates the block metric and the
connection at one chart point, then shows that three independent routes
to the scalar curvature land on the same number:

  1. Ricci contraction of the nonholonomic Christoffel table,
  2. Ricci contraction of the general frame formula,
  3. assembly from the named decomposition terms.

Run:  python3 demos/curvature_tour.py
"""

import numpy as np

from bundlecurv.connection import christoffel_general
from bundlecurv.curvature import (PointTerms, decomposition_terms,
                                  ricci_scalar_pair)
from bundlecurv.fields import DEFAULT_ENGINE
from bundlecurv.geometry import assemble_block_metric, point_frame
from bundlecurv.scenarios import build_scenario, sample_points


def main():
    np.set_printoptions(precision=5, suppress=True)
    scenario = build_scenario("twisted_bundle")
    point = sample_points(scenario, 1)[0]
    print("scenario: %s   point x=%s f=%s" % (scenario.name, point.x,
                                              point.f))

    frames = point_frame(scenario.orig, point)
    print("\norbit metric d(x, f):")
    print(frames.d[0])
    print("\nconnection coefficients on the base directions:")
    print(frames.A[0][:, :point.n_x])

    metric = assemble_block_metric(scenario.adapted, point)
    print("\nfull block metric (8x8), horizontal block first:")
    print(metric.matrix)
    print("determinant: %.6f" % metric.det)

    # one record of the point's terms: both Ricci pairs read its jets
    record = PointTerms(scenario.adapted, point, DEFAULT_ENGINE)
    table_value, _ = ricci_scalar_pair(record)
    general_value, _ = ricci_scalar_pair(record, christoffel_general)
    terms = decomposition_terms(scenario.adapted, point, DEFAULT_ENGINE,
                                record)
    assembled = terms.R_total

    print("\nscalar curvature, three routes:")
    print("  Christoffel table : %.12f" % table_value)
    print("  general frame     : %.12f" % general_value)
    print("  assembled terms   : %.12f" % assembled)
    print("spread: %.3e" % (max(table_value, general_value, assembled)
                            - min(table_value, general_value, assembled)))

    print("\ndecomposition terms:")
    for name in ("R_M", "R_G", "FF", "DdDd", "lap_ln_d", "grad_ln_d"):
        print("  %-10s %+.10f" % (name, getattr(terms, name)))
    print("  %-10s %+.10f" % ("R_total", terms.R_total))


if __name__ == "__main__":
    main()
