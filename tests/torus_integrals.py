"""Integrals against dV_g by the periodic trapezoid rule (spectral
accuracy): the tests' quadrature, kept apart from the package, which
integrates in mode space.  Also the rank-2 Toda functional, the oracle
that Phi_eps is checked against."""

import numpy as np

from todalab.errors import GridMismatchError
from todalab.spectral import dirichlet_form

# the SU(3) coupling matrix of the rank-2 Toda system
SU3 = np.array([[2, -1], [-1, 2]])


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


def phi_general(state, metric) -> float:
    """The rank-2 Toda functional of a two-field TodaState, a = SU3:

    (1/2) sum_ij a_ij [ integral grad u_i . grad u_j dx
                        + 2 M_i integral u_j dV_g ]
    - sum_i M_i log integral exp(sum_j a_ij u_j) dV_g
    """
    u, masses = state.u, state.masses
    total = 0.0
    for i in range(2):
        for j in range(2):
            total += 0.5 * SU3[i, j] * (
                dirichlet_form(u[i], u[j])
                + 2.0 * masses[i] * integrate(u[j], metric))
    for i in range(2):
        t = SU3[i, 0] * u[0].values + SU3[i, 1] * u[1].values
        top = float(np.max(t))
        total -= masses[i] * (
            top + float(np.log(integrate_values(np.exp(t - top), metric))))
    return total
