"""Integrals against dV_g by the periodic trapezoid rule (spectral
accuracy): the tests' quadrature, kept apart from the package, which
integrates in mode space."""

import numpy as np

from todalab.errors import GridMismatchError


def integrate_values(values, metric) -> float:
    """integral of a raw (n, n) value array against dV_g."""
    values = np.asarray(values)
    n = metric.grid.n
    if values.shape != (n, n):
        raise GridMismatchError(
            f"value shape {values.shape} does not match grid n={n}")
    return float(np.mean(values * metric.weight))


def integrate(f, metric) -> float:
    """integral of a ScalarField against dV_g."""
    if f.grid != metric.grid:
        raise GridMismatchError("field and metric grids differ")
    return integrate_values(f.values, metric)
