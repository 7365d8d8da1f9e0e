"""Conformal metrics g = e^phi (dx^2 + dy^2) on the unit-area flat torus.

The surface is always the torus [0,1)^2; general geometry enters only
through the conformal exponent phi, normalized so the total area
integral of e^phi equals 1.  The Gauss curvature of such a metric is
K = -(1/2) e^{-phi} (Delta_0 phi), with Delta_0 the flat Laplacian, and
the conformal Laplacian used throughout the package is
Delta_g = e^{-phi} Delta_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import AccuracyError, DataError, GeometryError
from .spectral import ScalarField, TorusGrid

__all__ = [
    "TorusGrid", "Metric", "MetricExpansion",
    "make_flat_torus", "make_conformal_metric", "metric_expansion_at",
    "polyfit_disc", "load_conformal_metric",
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
    """Quadratic Taylor data of phi at a point, in locally normalized coordinates.

    Coordinates are rescaled by e^{phi(p)/2} so the metric is Euclidean to
    leading order at the center; `scale` records that factor and
    `phi_center` the raw value subtracted.  With this normalization the
    Gauss curvature at the center is -(c1 + c2).
    """

    center: tuple[float, float]
    b1: float
    b2: float
    c1: float
    c2: float
    c12: float
    scale: float
    phi_center: float
    fit_residual: float

    @property
    def curvature(self) -> float:
        return -(self.c1 + self.c2)


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


# Monomial exponents for the degree-3 local fit: 1, x, y, x^2, y^2, xy, cubics.
_FIT_POWERS = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1),
               (3, 0), (2, 1), (1, 2), (0, 3)]

# Extended basis (full degree 5) used for the metric expansion, where the
# quadratic coefficients carry the curvature: a degree-3 fit leaves an
# O(rho^2) quartic bias on them (~1e-2 for smooth order-one conformal
# factors at rho = 8h, n = 256), far above the target accuracy.
_FIT_POWERS_EXT = _FIT_POWERS + [
    (4, 0), (3, 1), (2, 2), (1, 3), (0, 4),
    (5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)]


def polyfit_disc(dx: np.ndarray, dy: np.ndarray, vals: np.ndarray,
                 rho: float, powers=None):
    """Polynomial least squares on scattered displacements from a disc center.

    Returns (coeffs keyed by `powers` order, rms residual).  Coordinates
    are scaled by rho inside the solve for conditioning; returned
    coefficients refer to unscaled displacements.
    """
    if powers is None:
        powers = _FIT_POWERS
    xs = np.asarray(dx) / rho
    ys = np.asarray(dy) / rho
    cols = [xs ** a * ys ** b for a, b in powers]
    design = np.stack(cols, axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
    resid = design @ coef - vals
    rms = float(np.sqrt(np.mean(resid ** 2)))
    unscaled = np.array([c / rho ** (a + b)
                         for c, (a, b) in zip(coef, powers)])
    return unscaled, rms


def metric_expansion_at(metric: Metric, p) -> MetricExpansion:
    """Quadratic expansion of phi at p with the local phi(p)=0 normalization.

    The fit is full degree 5 on a disc of radius 8h so neither cubic nor
    quartic content biases the quadratic coefficients; terms above degree
    two are then discarded.  A fit whose rms residual exceeds 1e-2 of
    max |phi - phi(p)| raises AccuracyError.  Coefficients are reported
    in coordinates rescaled by e^{phi(p)/2}, which makes -(c1+c2) the
    Gauss curvature.
    """
    p = np.asarray(p, dtype=float)
    grid = metric.grid
    rho_fit = 8.0 * grid.h
    rtol = 1e-2
    if metric.is_flat:
        return MetricExpansion(center=(p[0], p[1]), b1=0.0, b2=0.0,
                               c1=0.0, c2=0.0, c12=0.0, scale=1.0,
                               phi_center=0.0, fit_residual=0.0)
    phi_p = float(spectral.eval_at(metric.phi, p[None, :])[0])
    X, Y = grid.mesh()
    dx = spectral.wrap_offset(X - p[0])
    dy = spectral.wrap_offset(Y - p[1])
    mask = dx ** 2 + dy ** 2 <= rho_fit ** 2
    coef, rms = polyfit_disc(dx[mask], dy[mask],
                             (metric.phi.values - phi_p)[mask], rho_fit,
                             _FIT_POWERS_EXT)
    scale_ref = max(float(np.max(np.abs(metric.phi.values - phi_p))), 1e-12)
    if rms > rtol * scale_ref:
        raise AccuracyError(
            f"local fit residual {rms:.3e} exceeds {rtol:.1e} * {scale_ref:.3e}")
    s = np.exp(phi_p / 2.0)  # local coordinate rescaling factor
    _, b1, b2, c1, c2, c12 = coef[:6]
    return MetricExpansion(center=(float(p[0]), float(p[1])),
                           b1=float(b1 / s), b2=float(b2 / s),
                           c1=float(c1 / s ** 2), c2=float(c2 / s ** 2),
                           c12=float(c12 / s ** 2),
                           scale=float(s), phi_center=phi_p,
                           fit_residual=rms)


def load_conformal_metric(path) -> Metric:
    """Build a metric from a conformal exponent stored in the grid file format."""
    values = spectral.load_field_values(path)
    grid = TorusGrid(values.shape[0])
    return make_conformal_metric(ScalarField(grid, values))
