"""Closed-form bubble (Liouville) profile quantities and annulus capacity.

The bubble w(x) = -2 log(1 + pi |x|^2) is the entire solution of
-Delta w = 8 pi e^w with w(0) = 0 and total mass
integral e^w dx = 1 over the plane.  Everything here is a pure
closed form; the independent quadrature and finite-difference oracles
live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "CapacityProblem",
    "bubble_profile", "bubble_profile_r", "bubble_dirichlet_energy",
    "bubble_mass", "bubble_pde_residual", "fd_laplacian",
    "capacity_energy", "capacity_minimizer",
    "lower_bound_case1", "lower_bound_case2", "case2_closing_constant",
]


@dataclass(frozen=True)
class CapacityProblem:
    """Radial boundary values a (inner, at rho) and b (outer, at delta)."""

    a: float
    b: float
    rho: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.rho < self.delta):
            raise ConfigError(
                f"need 0 < rho < delta, got rho={self.rho}, delta={self.delta}")


def bubble_profile_r(r):
    """Radial bubble profile w(r) = -2 log(1 + pi r^2)."""
    r = np.asarray(r, dtype=float)
    return -2.0 * np.log1p(np.pi * r ** 2)


def bubble_profile(x):
    """Bubble profile at planar points; x has shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return -2.0 * np.log1p(np.pi * r2)


def bubble_dirichlet_energy(L: float) -> float:
    """integral of |grad w|^2 over the disc of radius L.

    Closed form: 16 pi log(1 + pi L^2) - 16 pi^2 L^2 / (1 + pi L^2).
    """
    if L < 0.0:
        raise ConfigError(f"radius must be nonnegative, got {L}")
    t = math.pi * L * L
    return 16.0 * math.pi * math.log1p(t) - 16.0 * math.pi * t / (1.0 + t)


def bubble_mass(L: float) -> float:
    """integral of e^w over the disc of radius L: 1 - 1/(1 + pi L^2)."""
    if L < 0.0:
        raise ConfigError(f"radius must be nonnegative, got {L}")
    t = math.pi * L * L
    return t / (1.0 + t)


def fd_laplacian(eval_fn, pts: np.ndarray, h: float):
    """4th-order cross-stencil Laplacian of a point-evaluable field at
    (count, 2) points, and the field's values there: one eval_fn call on
    all nine stencil offsets (the five-point second-derivative stencil
    per axis)."""
    count = pts.shape[0]
    shifts = [0.0] + [c * h * e for e in (np.array([1.0, 0.0]),
                                           np.array([0.0, 1.0]))
                      for c in (2, 1, -1, -2)]
    vals = eval_fn(np.concatenate([pts + d for d in shifts]))
    vals = vals.reshape(9, count)
    center = vals[0]
    out = np.zeros(count)
    for p2, p1, m1, m2 in (vals[1:5], vals[5:9]):
        acc = -p2 + 16.0 * p1 - 30.0 * center + 16.0 * m1 - m2
        out += acc / (12.0 * h * h)
    return out, center


def bubble_pde_residual(points: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Residual of -Delta w - 8 pi e^w by fd_laplacian at given points.

    This is the independent check that the closed-form profile solves the
    Liouville equation.  Returns the residual at each point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lap, w = fd_laplacian(bubble_profile, pts, h)
    return -lap - 8.0 * math.pi * np.exp(w)


def capacity_energy(prob: CapacityProblem) -> float:
    """Minimal Dirichlet energy over the annulus with the given boundary data.

    4 pi (a - b)^2 / (log delta^2 - log rho^2), attained by the radial
    log-harmonic interpolant.
    """
    denom = 2.0 * (math.log(prob.delta) - math.log(prob.rho))
    return 4.0 * math.pi * (prob.a - prob.b) ** 2 / denom


def capacity_minimizer(prob: CapacityProblem, r):
    """The radial harmonic interpolant at radius r (rho <= r <= delta)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < prob.rho * (1 - 1e-12)) or np.any(r > prob.delta * (1 + 1e-12)):
        raise ConfigError("radius outside the annulus")
    t = (np.log(r) - math.log(prob.rho)) / (math.log(prob.delta) - math.log(prob.rho))
    out = prob.a + (prob.b - prob.a) * t
    return float(out) if out.ndim == 0 else out


def lower_bound_case1(A1p1: float, A2p2: float) -> float:
    """Energy lower bound for the two-point (separated concentration) case."""
    return -8.0 * math.pi * math.log(math.pi) - 8.0 * math.pi \
        - 2.0 * math.pi * (A1p1 + A2p2)


def lower_bound_case2(A1p: float, mean_G2: float) -> float:
    """Energy lower bound for the single-point concentration case."""
    return -4.0 * math.pi * math.log(math.pi) - 2.0 * math.pi * A1p \
        + 2.0 * math.pi * mean_G2


def case2_closing_constant(mean_G2: float) -> float:
    """Alternative closing constant for the single-point case.

    Differs from lower_bound_case2: no A-term, coefficient 2 (not 2 pi)
    on the mean, and an extra -4 pi.  The two candidates disagree; both
    are computed and reported side by side, never silently merged.
    """
    return -4.0 * math.pi - 4.0 * math.pi * math.log(math.pi) + 2.0 * mean_G2
