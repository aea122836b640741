"""Assemble the reduced diffusion and check its one-step moments.

Prints the drift and diffusion coefficients of the orbit-space process
at a sample point, confirms that the diffusion squares back to the
inverse horizontal metric, then runs the Euler-Maruyama moment check:
one step of 200k paths, sample mean and covariance against their
targets in units of Monte Carlo standard error.

Run:  python3 demos/reduced_diffusion.py
"""

import numpy as np

from bundlecurv.curvature import PointTerms
from bundlecurv.fields import DEFAULT_ENGINE
from bundlecurv.geometry import point_frame
from bundlecurv.scenarios import build_scenario, sample_points
from bundlecurv.sde import (
    drift_coefficients,
    drift_divergence_form,
    euler_maruyama_check,
    reduced_sde_coefficients,
)


def main():
    np.set_printoptions(precision=5, suppress=True)
    scenario = build_scenario("twisted_bundle")
    point = sample_points(scenario, 1)[0]
    print("scenario: %s   point x=%s f=%s" % (scenario.name, point.x,
                                              point.f))

    coeffs = reduced_sde_coefficients(scenario.adapted, point,
                                      DEFAULT_ENGINE)
    print("\ndrift b:")
    print(coeffs.b)
    print("\ndiffusion X (horizontal block):")
    print(coeffs.X)

    h_tilde_inv = point_frame(scenario.orig, point).h_tilde_inv[0]
    residual = abs(coeffs.X @ coeffs.X.T - h_tilde_inv).max()
    print("\n|X X^T - inverse horizontal metric| = %.3e" % residual)

    # the two drift routes read one record of the point, row 0
    record = PointTerms(scenario.adapted, point, DEFAULT_ENGINE)
    drift = drift_coefficients(record)[0]
    divergence = drift_divergence_form(record)[0]
    print("|drift - divergence form|          = %.3e"
          % abs(drift - divergence).max())

    report = euler_maruyama_check(scenario.adapted, point=point, dt=1e-4,
                                  n_paths=200_000, seed=42,
                                  engine=DEFAULT_ENGINE)
    print("\nEuler-Maruyama moment check (dt=1e-4, 200k paths, seed 42):")
    print("  mean deviation       : %.3f sigma" % report.mean_max_sigma)
    print("  covariance deviation : %.3f sigma" % report.cov_max_sigma)
    print("  verdict              : %s"
          % ("PASS" if report.passed else "FAIL"))


if __name__ == "__main__":
    main()
