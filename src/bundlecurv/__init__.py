"""Numerical curvature and reduction geometry on principal-bundle charts.

The package computes, at sampled chart points, the adapted block metric of a
bundle with structure-group action, its mechanical connection, the full
nonholonomic Christoffel table, the scalar-curvature decomposition, the
reduction Jacobian of the path-integral measure, the orbit second fundamental
form, and the drift/diffusion coefficients of the reduced diffusion. Every
quantity has at least two independent evaluation routes, and the test suite
holds the routes against each other at tight tolerances.
"""

from .fields import (
    ChartPoint,
    DerivEngine,
    EvaluationError,
    FieldHandle,
    NearSingularError,
    invert_spd,
)
from .scenarios import ConfigError, build_scenario, sample_points

__version__ = "0.1.0"

__all__ = [
    "ChartPoint",
    "DerivEngine",
    "EvaluationError",
    "FieldHandle",
    "NearSingularError",
    "invert_spd",
    "ConfigError",
    "build_scenario",
    "sample_points",
    "__version__",
]
