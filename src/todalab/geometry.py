"""Conformal metrics g = e^phi (dx^2 + dy^2) on the unit-area flat torus.

The surface is always the torus [0,1)^2; general geometry enters only
through the conformal exponent phi, normalized so the total area
integral of e^phi equals 1.  The Gauss curvature of such a metric is
K = -(1/2) e^{-phi} (Delta_0 phi), with Delta_0 the flat Laplacian, and
the conformal Laplacian used throughout the package is
Delta_g = e^{-phi} Delta_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import DataError, GeometryError
from .spectral import ScalarField, TorusGrid

__all__ = [
    "TorusGrid", "Metric", "MetricExpansion",
    "make_flat_torus", "make_conformal_metric", "metric_expansion_at",
    "load_conformal_metric",
]


_LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class Metric:
    """Unit-area conformal metric: exponent, area weight, lazy curvature."""

    phi: ScalarField
    area: float
    weight: np.ndarray  # e^phi at grid points

    @property
    def grid(self) -> TorusGrid:
        return self.phi.grid

    @cached_property
    def curvature(self) -> ScalarField:
        """K = -(1/2) e^{-phi} Delta_0 phi, dealiased."""
        curv = spectral.product_dealiased(ScalarField(
            self.grid, 1.0 / self.weight), spectral.laplacian0(self.phi))
        return ScalarField(self.grid, -0.5 * curv.values)

    @property
    def is_flat(self) -> bool:
        return bool(np.all(self.phi.values == 0.0))


@dataclass(frozen=True)
class MetricExpansion:
    """A point's metric chart: phi's value, gradient and curvature there.

    Coordinates are rescaled by `scale` = e^{phi(p)/2}, so the metric is
    Euclidean to leading order at the center; `phi_center` = phi(p) is
    the raw value subtracted, (b1, b2) the gradient of phi in the
    rescaled coordinates and `curvature` the Gauss curvature
    -(1/2) e^{-phi} Delta_0 phi at p.
    """

    center: tuple[float, float]
    b1: float
    b2: float
    curvature: float
    scale: float
    phi_center: float


def make_flat_torus(n: int) -> Metric:
    """The flat unit-area torus: phi = 0, K = 0."""
    grid = TorusGrid(n)
    zero = ScalarField.constant(grid, 0.0)
    return Metric(phi=zero, area=1.0, weight=np.ones((n, n)))


def make_conformal_metric(phi_raw: ScalarField) -> Metric:
    """Normalize a raw conformal exponent to unit area."""
    if not np.all(np.isfinite(phi_raw.values)):
        raise DataError("conformal exponent contains non-finite values")
    grid = phi_raw.grid
    # subtract log of the raw area, m + log(mean e^{phi_raw - m}), so that
    # the area element integrates to 1.  Where e^m would overflow the
    # shift by m is applied first; elsewhere log(e^m mean) is subtracted
    # whole, which keeps every such exponent to the last bit.
    m = float(np.max(phi_raw.values))
    with np.errstate(over="ignore"):
        shifted = phi_raw.values - m
        mean_exp = float(np.mean(np.exp(shifted)))
        if m < _LOG_MAX_DOUBLE:
            values = phi_raw.values - np.log(float(np.exp(m) * mean_exp))
        else:
            values = shifted - np.log(mean_exp)
        phi = ScalarField(grid, values)
        weight = np.exp(phi.values)
    if not np.all(np.isfinite(weight) & (weight > 0.0)):
        raise GeometryError(
            "conformal factor e^phi underflows or overflows on the grid "
            f"(raw exponent spans [{float(np.min(phi_raw.values)):.6g}, "
            f"{m:.6g}])")
    return Metric(phi=phi, area=float(np.mean(weight)), weight=weight)


def metric_expansion_at(metric: Metric, p) -> MetricExpansion:
    """The metric chart at p, read exactly from phi's modes, with no fit.

    phi is band-limited, so its value, gradient and flat Laplacian at p
    are one direct mode sum (spectral.eval_modes_direct) of the rows
    phi-hat, ik_x phi-hat, ik_y phi-hat and laplacian phi-hat.  Then s =
    e^{phi(p)/2}, b = grad phi(p) / s and K = -Delta_0 phi(p) / (2 s^2).
    A flat metric's chart is the identity and evaluates nothing.
    """
    p = np.asarray(p, dtype=float)
    center = (float(p[0]), float(p[1]))
    if metric.is_flat:
        return MetricExpansion(center=center, b1=0.0, b2=0.0, curvature=0.0,
                               scale=1.0, phi_center=0.0)
    grid = metric.grid
    modes = metric.phi.modes
    ikx, iky = grid.ik
    stack = np.stack([modes, ikx * modes, iky * modes,
                      grid.laplacian * modes])
    phi_p, dphi_x, dphi_y, lap = spectral.eval_modes_direct(grid, stack, p)
    s = math.exp(phi_p / 2.0)  # local coordinate rescaling factor
    return MetricExpansion(center=center, b1=float(dphi_x / s),
                           b2=float(dphi_y / s),
                           curvature=float(-lap / (2.0 * s * s)),
                           scale=s, phi_center=float(phi_p))


def load_conformal_metric(path) -> Metric:
    """Build a metric from a conformal exponent stored in the grid file format."""
    values = spectral.load_field_values(path)
    grid = TorusGrid(values.shape[0])
    return make_conformal_metric(ScalarField(grid, values))
