"""Green's functions with prescribed log singularities on the torus.

Two systems are solved on a unit-area conformal torus:

* case "one" (two marked points): the linear system
      -Delta_g G1 = 8 pi delta_{p1} - 4 pi delta_{p2} - 4 pi,
      -Delta_g G2 = 8 pi delta_{p2} - 4 pi delta_{p1} - 4 pi,
  with integral G_j dV_g = 0;

* case "two" (one marked point): the nonlinear system
      -Delta_g G2 = 8 pi e^{G2} - 4 pi delta_p - 4 pi,
      -Delta_g G1 = 8 pi delta_p - 4 pi e^{G2} - 4 pi,
  with integral e^{G2} dV_g = 1 and integral G1 dV_g = 0.

Deltas are handled analytically in mode space — never as discrete
stencils — via a Gaussian-screened (Ewald-style) split of the flat-torus
Green's function: the real-space part is a 3x3 periodic-image sum of
(1/4 pi) E1(r^2 / 2 eta^2) (a strict superset of the nearest image,
exact to machine precision for every admissible eta), and the remainder
is band-limited by construction.  All singular fields are represented as

    G(x) = sum_i strength_i * V(x - p_i) + band(x) + const,

where V is the image sum; values, gradients, and weighted integrals are
evaluated from this form analytically or by exact mode sums, and so are
the local expansions: the regular part and its derivatives at a pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import geometry, spectral
from .errors import AccuracyError, ConfigError, ResolutionError
from .functional import (CoupledEnergy, DescentReport, SolverOptions,
                         run_descent)
from .geometry import Metric
from .spectral import ScalarField, TorusGrid

__all__ = [
    "SingularField", "GreenPair", "LocalExpansion",
    "flat_green", "green_pair_case1", "green_pair_case2",
    "local_expansion", "extract_expansions", "expansion_trace_residual",
    "equation_residuals",
]

EULER_GAMMA = 0.5772156649015328606
_IMAGE_OFFSETS = np.array([(mx, my) for mx in (-1, 0, 1) for my in (-1, 0, 1)],
                          dtype=float)


# Ein(z) = sum_{k>=1} (-1)^{k+1} z^k / (k k!), the entire part of the
# exponential integral: E1(z) = Ein(z) - gamma - log z.  Its coefficients,
# highest first for Horner's rule; 19 terms leave below 1e-18 on [0, 1).
_EIN_COEFFS = tuple((-1.0) ** (k + 1) / (k * math.factorial(k))
                    for k in range(19, 0, -1))
# (upper end, depth) of the ranges on which E1 is its continued fraction,
# each depth enough for round-off at the range's lower end
_E1_FRACTION = ((2.0, 100), (4.0, 60), (10.0, 40), (math.inf, 25))


def _ein(z: np.ndarray) -> np.ndarray:
    """Ein(z) by Horner's rule; accurate to round-off on [0, 1)."""
    acc = np.full_like(z, _EIN_COEFFS[0])
    for c in _EIN_COEFFS[1:]:
        acc = acc * z + c
    return acc * z


def _exp1(z: np.ndarray) -> np.ndarray:
    """The exponential integral E1 on [0, inf); +inf at 0.

    Below 1 it is Ein(z) - gamma - log z (Abramowitz-Stegun 5.1.11);
    above, the continued fraction (A-S 5.1.22, even part)

        E1(z) = e^{-z} / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - 9 / ...))),

    summed backward from a fixed depth per range.  Within 5e-16 relative
    of mpmath on (0, 40]."""
    z = np.asarray(z, dtype=float)
    out = np.full_like(z, np.nan)
    small = z < 1.0
    zs = z[small]
    with np.errstate(divide="ignore"):
        out[small] = _ein(zs) - EULER_GAMMA - np.log(zs)
    lo = 1.0
    for hi, depth in _E1_FRACTION:
        sel = (z >= lo) & (z < hi)
        lo = hi
        zs = z[sel]
        if zs.size == 0:
            continue
        t = np.zeros_like(zs)
        for k in range(depth, 0, -1):
            t = k * k / (zs + (2 * k + 1) - t)
        out[sel] = np.exp(-zs) / (zs + 1.0 - t)
    return out


def _e1_plus_log(z: np.ndarray) -> np.ndarray:
    """E1(z) + log z, the entire part of the exponential integral:
    Ein(z) - gamma below 1, E1 + log above."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 1.0
    out[small] = _ein(z[small]) - EULER_GAMMA
    zl = z[~small]
    out[~small] = _exp1(zl) + np.log(zl)
    return out


def _exp_neg_e1(z: np.ndarray) -> np.ndarray:
    """exp(-E1(z)), vanishing linearly at z = 0; stable on [0, inf)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 1.0
    zs = z[small]
    out[small] = zs * math.exp(EULER_GAMMA) * np.exp(-_ein(zs))
    out[~small] = np.exp(-_exp1(z[~small]))
    return out


def split_width(grid: TorusGrid) -> float:
    """Gaussian screening width: small enough that the screened source is
    band-limited to round-off, large enough that images beyond the 3x3
    block contribute below machine precision."""
    return 2.8 / grid.n


# Points per batch of an image sum.  A batch holds about 7 doubles per
# point and live image: 4 MB with all nine live.  The phi0 quadrature's
# polar batches hold none at n >= 64 unless another pole is within the
# skip radius: their own pole's nearest image is added in polar form and
# its far images lie beyond the skip radius.
_IMAGE_CHUNK = 8192

# Image terms with r^2 / 2 eta^2 at or above this are skipped: E1 there is
# below 1e-19 and exp(-z) / r^2 below 1e-17 / r^2.
_Z_SKIP = 40.0
_FAR_OFFSETS = _IMAGE_OFFSETS[np.any(_IMAGE_OFFSETS != 0.0, axis=1)]
_NEAR_OFFSET = np.zeros((1, 2))      # the nearest image alone


def _box(a: np.ndarray) -> tuple:
    """Columnwise minima and maxima of an (m, 2) array.  Column by
    column: numpy's axis-0 reduction of a two-column array is about ten
    times slower (0.29 ms against 0.02 ms at m = 8192)."""
    cols = a.T
    return (np.array([c.min() for c in cols]),
            np.array([c.max() for c in cols]))


def _live_offsets(lo: np.ndarray, hi: np.ndarray, eta: float,
                  offsets: np.ndarray = _IMAGE_OFFSETS) -> np.ndarray:
    """The offsets o whose images can come within the skip radius of
    displacements that lie, unwrapped, in the box [lo, hi].

    Wrapping is monotone within one period cell, so along an axis where
    the box lies in one cell the wrapped values lie between its ends
    wrapped; across one wrap line they lie in [lo wrapped, 1/2] or in
    [-1/2, hi wrapped], and across more anywhere in [-1/2, 1/2].  An
    image is dropped when, along the axes, the nearest of these
    intervals keeps it at or beyond the skip radius with a relative
    margin of 1e-9, so only images whose every term _image_pass sets to
    an exact zero (and singular_exp_values to an exact 1) are left out.
    Deciding from the box alone lets a caller skip a pole before
    wrapping any point."""
    w_lo, w_hi = spectral.wrap_offset(lo), spectral.wrap_offset(hi)
    cuts = np.floor(hi + 0.5) - np.floor(lo + 0.5)   # wrap lines crossed

    def gap(a, b):      # distance of [a, b] + o from 0, per axis
        return np.maximum(np.maximum(a + offsets, -(b + offsets)), 0.0)

    # per axis the wrapped values lie in [a1, b1] or in [a2, b2], one
    # interval twice where no wrap line is crossed
    a1, b1 = np.where(cuts <= 1, w_lo, -0.5), np.where(cuts == 0, w_hi, 0.5)
    a2, b2 = np.where(cuts == 0, w_lo, -0.5), np.where(cuts <= 1, w_hi, 0.5)
    nearest = np.minimum(gap(a1, b1), gap(a2, b2))
    z_min = (nearest ** 2).sum(axis=1) / (2.0 * eta * eta)
    return offsets[z_min < _Z_SKIP * (1.0 + 1e-9)]


def _displacements(points: np.ndarray, p, eta: float,
                   offsets: np.ndarray) -> tuple:
    """d + o for the wrapped displacements d from p to the points and
    each of the offsets o, (m, k, 2), their squared lengths r^2 and
    z = r^2 / 2 eta^2, both (m, k)."""
    d = spectral.wrap_offset(np.atleast_2d(points) - np.asarray(p))
    dall = d[:, None, :] + offsets[None, :, :]
    r2 = (dall ** 2).sum(axis=2)
    return dall, r2, r2 / (2.0 * eta * eta)


def _image_pass(points: np.ndarray, p, eta: float, live: np.ndarray,
                gradients: bool) -> list:
    """The sum over the offsets o in `live` of p's images' (1/4 pi) E1(z),
    (m,) and +inf at the source, in a list; with gradients the list also
    holds the sum of their gradients, -e^{-z} (d + o) / (2 pi r^2),
    (m, 2).  Culls nothing: which offsets are live is the caller's
    decision (_live_offsets), and a term with z >= _Z_SKIP is an exact
    zero."""
    dall, r2, z = _displacements(points, p, eta, live)
    near = z < _Z_SKIP
    e1 = np.zeros_like(z)
    with np.errstate(divide="ignore"):
        e1[near] = _exp1(z[near])
    out = [e1.sum(axis=1) / (4.0 * math.pi)]
    if gradients:
        ez = np.zeros_like(z)
        ez[near] = np.exp(-z[near])
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -ez / (2.0 * math.pi * r2)
        out.append((w[:, :, None] * dall).sum(axis=1))
    return out


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple:
    """a * b as an unevaluated sum hi + lo, exact (Dekker, with
    Veltkamp's 27-bit split)."""
    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _near_image(r: np.ndarray, eta: float) -> tuple:
    """A pole's nearest image at distance r in polar form: its value
    (1/4 pi) E1(z) and radial derivative -e^{-z} / (2 pi r), with
    z = r^2 / 2 eta^2, for the gradient (cos, sin) times the latter.

    From the radius alone, not from a wrapped difference of points, so
    no ulp(p) / r cancellation enters.  Not screened: E1 and e^{-z} are
    evaluated at every z, to 0 where they underflow.  z is carried as
    z + dz, because E1 and e^{-z} multiply z's relative error by z (a
    plain r * r / (2 eta^2) left 2.6e-15 at r = 0.2, n = 128, z = 42);
    both are corrected to first order in dz.  Within 5e-16 relative of
    mpmath for r in [1e-8, 0.2] at n = 32, 128 and 512."""
    r = np.asarray(r, dtype=float)
    q = r / eta
    qh, ql = _two_prod(q, eta)
    q_err = ((r - qh) - ql) / eta            # r / eta = q + q_err
    sh, sl = _two_prod(q, q)
    z, dz = 0.5 * sh, 0.5 * sl + q * q_err
    ez = np.exp(-z)
    value = (_exp1(z) - dz * ez / z) / (4.0 * math.pi)
    return value, -ez * (1.0 - dz) / (2.0 * math.pi * r)


def _phase(grid: TorusGrid, p) -> np.ndarray:
    """e^{-2 pi i k.p} on the (n, n/2 + 1) mode grid: the modes of delta_p."""
    kx, ky = grid.freqs()
    return np.exp(-2j * np.pi * (kx * p[0] + ky * p[1]))


def _screened_remainder_modes(grid: TorusGrid, p, eta: float) -> np.ndarray:
    """Modes of the band-limited remainder R_p: (4 pi^2 k^2) R = gamma_p,
    zero mode fixed so the assembled flat Green's function has zero mean."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (_phase(grid, p) * np.exp(-2.0 * np.pi ** 2 * eta ** 2 * grid.k2)
               / -grid.laplacian)
    out[0, 0] = -eta * eta / 2.0
    return out


def _point_green_mean_mult(grid: TorusGrid, eta: float) -> np.ndarray:
    """Multiplier M(k) with integral(V(x-p) w(x) dx) = Re sum_k M e^{-2 pi i k p} conj(what)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (1.0 - np.exp(-2.0 * np.pi ** 2 * eta ** 2 * grid.k2)) / -grid.laplacian
    out[0, 0] = eta * eta / 2.0
    return out


class SingularField:
    """Field with log singularities: sum_i s_i V(x - p_i) + band(x) + const.

    Near p_i the field behaves like a_i log r with a_i = -s_i / 2 pi.
    """

    def __init__(self, grid: TorusGrid, points, strengths,
                 band_modes: np.ndarray, const: float = 0.0):
        self.grid = grid
        self.eta = split_width(grid)
        self.points = [np.asarray(p, dtype=float) for p in points]
        self.strengths = [float(s) for s in strengths]
        self.band = ScalarField.from_modes(grid, band_modes)
        self.const = float(const)

    @property
    def log_coefficients(self) -> list[float]:
        return [-s / (2.0 * math.pi) for s in self.strengths]

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Values at arbitrary points (infinite at the singular points)."""
        pts = np.atleast_2d(pts)
        return (spectral.eval_at(self.band, pts) + self.const
                + self.image_values(pts))

    def eval_regular(self, pts: np.ndarray, idx: int) -> np.ndarray:
        """Values minus a_idx log r_idx (finite at p_idx, singular at others)."""
        pts = np.atleast_2d(pts)
        # pole idx's nearest image plus (1/2 pi) log r: E1(z) + log z is
        # entire, and log z = 2 log r - log 2 eta^2
        z = _displacements(pts, self.points[idx], self.eta, _NEAR_OFFSET)[2]
        near = ((_e1_plus_log(z[:, 0]) + math.log(2.0 * self.eta * self.eta))
                / (4.0 * math.pi))
        return (spectral.eval_at(self.band, pts) + self.const
                + self._combine(pts, None, (idx, [near]))[0])

    def regular_jet(self, idx: int) -> np.ndarray:
        """[value, d_x, d_y, d_xx, d_yy, d_xy] of eval_regular at p_idx,
        exact and with no oversampled grid: the band's value and five
        derivative rows in one direct mode sum, plus const; pole idx's
        nearest image, E1(z) + log z = -gamma + z - ..., adds
        s_idx (log 2 eta^2 - gamma) / 4 pi to the value and
        s_idx / (4 pi eta^2) to d_xx and d_yy; every other image term
        (1/4 pi) E1(z), d = p_idx - p_j + o, adds itself,
        -e^{-z} d / (2 pi r^2) and -e^{-z} / (2 pi r^2)
        (I - (2 / r^2 + 1 / eta^2) d d^T), zero at z >= _Z_SKIP.

        Round-off grows with n: d_xx + d_yy lift the band's by
        4 pi^2 |k|^2, about n^2 eps on a one-point G2, whose band holds
        the descent's state (expansion_trace_residual); d_x and d_y read
        up to 1.5e-13, 5.8e-13 and 2.2e-12 at n = 128, 256 and 512 where
        they vanish, at the flat poles (1/4, 1/4), (3/4, 3/4)."""
        p, eta, own = self.points[idx], self.eta, self.strengths[idx]
        ikx, iky = self.grid.ik
        b = self.band.modes
        rows = [b, ikx * b, iky * b, ikx * ikx * b, iky * iky * b,
                ikx * iky * b]
        jet = spectral.eval_modes_direct(self.grid, np.stack(rows), p)
        jet[0] += self.const + own * (math.log(2.0 * eta * eta)
                                      - EULER_GAMMA) / (4.0 * math.pi)
        jet[3:5] += own / (4.0 * math.pi * eta * eta)
        for j, (q, s) in enumerate(zip(self.points, self.strengths)):
            d, r2, z = (a[0] for a in _displacements(
                p, q, eta, _FAR_OFFSETS if j == idx else _IMAGE_OFFSETS))
            near = z < _Z_SKIP
            w = np.where(near, -s * np.exp(-z) / (2 * math.pi * r2), 0)
            c = w * (2.0 / r2 + 1.0 / (eta * eta))
            dx, dy = d.T
            jet += [s * _exp1(z[near]).sum() / (4.0 * math.pi), w @ dx,
                    w @ dy, np.sum(w - c * dx * dx), np.sum(w - c * dy * dy),
                    -c @ (dx * dy)]
        return jet

    def eval_gradient(self, pts: np.ndarray) -> np.ndarray:
        """Analytic/spectral gradient at arbitrary points; (m, 2)."""
        pts = np.atleast_2d(pts)
        return (spectral.eval_gradient_at(self.band, pts)
                + self.image_gradients(pts)[1])

    def image_values(self, pts: np.ndarray, strengths=None,
                     polar=None) -> np.ndarray:
        """Only the singular (image-sum) part: sum_i s_i V(x - p_i), (m,).

        strengths, an (F, number of points) array, evaluates F fields with
        these poles in one pass and returns (F, m): each V(x - p_i) is
        computed once and combined with every row.

        polar = (i, r, cos, sin) says the points are pole i's polar nodes
        p_i + r_a (cos_b, sin_b), radii first.  Pole i's nearest image is
        then taken once per radius in polar form (_near_image), exact at
        any radius, and only its eight far images go through the batches.
        """
        return self._combine(pts, strengths,
                             self._polar_near(polar, False))[0]

    def image_gradients(self, pts: np.ndarray, strengths=None,
                        polar=None) -> tuple:
        """The image-sum part and its gradient from one pass over each
        pole's images: ((m,), (m, 2)), or ((F, m), (F, m, 2)) with
        strengths and polar as in image_values."""
        return self._combine(pts, strengths, self._polar_near(polar, True),
                             gradients=True)

    def _polar_near(self, polar, gradients: bool):
        """(i, [values (m,)] or [values, gradients (m, 2)]) of pole i's
        nearest image at its polar nodes (see image_values); None without
        polar."""
        if polar is None:
            return None
        own, r, ct, st = polar
        value, radial = _near_image(r, self.eta)
        terms = [np.repeat(value, ct.size)]
        if gradients:
            unit = np.tile(np.stack([ct, st], axis=1), (r.size, 1))
            terms.append(np.repeat(radial, ct.size)[:, None] * unit)
        return own, terms

    def _combine(self, pts: np.ndarray, strengths, near=None,
                 gradients: bool = False) -> tuple:
        """sum_i rows[:, i] * V(x - p_i), and with gradients the sum of
        rows[:, i] * grad V(x - p_i), in batches of points.

        near = (own, terms) gives pole own's nearest image at every point
        (values, and gradients with gradients); each batch starts from it
        and takes only pole own's far images.  Per batch, the box of the
        points decides once which images of each pole are in reach
        (_live_offsets), and a pole with none is skipped: its terms would
        all be 0."""
        pts = np.atleast_2d(pts)
        rows = np.atleast_2d(self.strengths if strengths is None else strengths)
        own = None if near is None else near[0]

        def scaled(j, terms):
            return [rows[:, j].reshape((-1,) + (1,) * t.ndim) * t
                    for t in terms]

        def zeros(m):
            shape = rows.shape[:1] + (m,)
            return [np.zeros(shape)] + [np.zeros(shape + (2,))] * gradients

        parts = [zeros(0)]      # what no points give
        for lo in range(0, pts.shape[0], _IMAGE_CHUNK):
            batch = pts[lo:lo + _IMAGE_CHUNK]
            acc = (zeros(batch.shape[0]) if near is None else
                   scaled(own, [t[lo:lo + _IMAGE_CHUNK] for t in near[1]]))
            # the batch's box decides, once per pole, which images are in
            # reach; a pole with none is skipped
            b_lo, b_hi = _box(batch)
            for j, p in enumerate(self.points):
                live = _live_offsets(b_lo - p, b_hi - p, self.eta,
                                     _FAR_OFFSETS if j == own
                                     else _IMAGE_OFFSETS)
                if live.size:
                    terms = _image_pass(batch, p, self.eta, live, gradients)
                    acc = [a + t for a, t in zip(acc, scaled(j, terms))]
            parts.append(acc)
        out = tuple(np.concatenate(part, axis=1) for part in zip(*parts))
        return tuple(o[0] for o in out) if strengths is None else out

    def grid_values(self) -> np.ndarray:
        """Raw grid values, (n, n) (+inf at grid-aligned singular points).
        Not kept on the field: a caller that needs them more than once
        keeps them (testfn._StackEval, for one fit)."""
        out = (spectral.to_values(self.band.modes).ravel() + self.const
               + self.image_values(self.grid.points()))
        return out.reshape(self.grid.n, self.grid.n)

    def singular_exp_values(self) -> np.ndarray:
        """Grid values of exp(sum_i s_i V_i), stable when all s_i = -4 pi.

        Only the strength -4 pi (log coefficient +2) is supported: then
        exp(-V) is the entire function exp(-E1) and the product vanishes
        quadratically at the singular point instead of overflowing.
        """
        pts = self.grid.points()
        lo, hi = _box(pts)
        out = np.ones(pts.shape[0])
        for p, s in zip(self.points, self.strengths):
            if abs(s + 4.0 * math.pi) > 1e-12:
                raise ConfigError("stable exponential needs strength -4 pi")
            live = _live_offsets(lo - p, hi - p, self.eta)
            z = _displacements(pts, p, self.eta, live)[2]
            out = out * np.prod(_exp_neg_e1(z), axis=1)
        return out.reshape(self.grid.n, self.grid.n)

    def integral_against(self, weight_values: np.ndarray) -> float:
        """integral of (field * weight) dx, exact in mode space.

        The singular parts are integrated by Parseval with their analytic
        Fourier coefficients, Re sum_k M_k conj(what_k) e^{-2 pi i k.p}
        summed directly over the half spectrum with the Parseval column
        weights, so no quadrature ever touches a log term.  Accurate to
        the spectral tail of the weight.
        """
        w_modes = (np.conj(spectral.to_modes(weight_values))
                   * self.grid.parseval)
        mult = _point_green_mean_mult(self.grid, self.eta) * w_modes
        total = self.const * float(np.real(w_modes[0, 0]))
        total += float(np.real(np.sum(self.band.modes * w_modes)))
        for p, s in zip(self.points, self.strengths):
            val = np.sum(mult * _phase(self.grid, p))
            total += s * float(np.real(val))
        return total

    def mean_dVg(self, metric: Metric) -> float:
        """integral of the field against dV_g (Parseval, no quadrature)."""
        return self.integral_against(metric.weight)

    def shifted(self, c: float) -> "SingularField":
        return SingularField(self.grid, self.points, self.strengths,
                             self.band.modes, self.const + c)


def flat_green(p, grid: TorusGrid) -> SingularField:
    """The flat-torus Green's function with source p,
    -Delta_0 G0(., p) = delta_p - 1 with zero mean; its Robin constant,
    the limit of G0 + (1/2 pi) log r at p, is eval_regular(p, 0)."""
    p = np.asarray(p, dtype=float)
    return SingularField(grid, [p], [1.0],
                         _screened_remainder_modes(grid, p, split_width(grid)))


@dataclass(frozen=True)
class LocalExpansion:
    """Quadratic data of a Green's function's regular part at a singular point.

    G = a log r + A + lambda x + mu y + alpha x^2 + beta y^2 + gamma xy + O(r^3)
    in the coordinates of the point's chart (GreenPair.charts), rescaled by
    e^{phi(p)/2}: A and lambda to gamma are the regular part and its exact
    derivatives at the point.  The off-source equation forces alpha + beta
    = 2 pi.
    """

    a: float
    A: float
    lam: float
    mu: float
    alpha: float
    beta: float
    gamma: float


@dataclass
class GreenPair:
    """The two coupled Green's functions, their expansions[(k, i)] (field k
    at point i) and charts[i], point i's metric chart (built once)."""

    case_tag: str
    points: list[np.ndarray]
    metric: Metric
    G1: SingularField
    G2: SingularField
    mean_G2: float | None = None
    exp_G2_values: np.ndarray | None = None  # case two: grid values of e^{G2}
    descent: DescentReport | None = None
    expansions: dict = dc_field(default_factory=dict)
    charts: dict = dc_field(default_factory=dict)

    @property
    def grid(self) -> TorusGrid:
        return self.metric.grid

    def field(self, which: int) -> SingularField:
        if which not in (1, 2):
            raise ConfigError(f"field index must be 1 or 2, got {which}")
        return self.G1 if which == 1 else self.G2


def _metric_correction_modes(metric: Metric) -> np.ndarray:
    """Modes of q with Delta_0 q = e^phi - 1 (zero for the flat torus)."""
    grid = metric.grid
    if metric.is_flat:
        return np.zeros(grid.mode_shape, dtype=complex)
    rhs = ScalarField(grid, metric.weight - 1.0)
    return spectral.solve_poisson0(rhs).modes


def green_pair_case1(p1, p2, metric: Metric) -> GreenPair:
    """Solve the linear two-point system with zero dV_g means.

    Each G_j is 8 pi Ghat(., own point) - 4 pi Ghat(., other) + const,
    where Ghat is the metric Green's function (flat part plus the smooth
    conformal correction).  Source strengths are set analytically, so the
    total right-hand-side mass 8 pi - 4 pi - 4 pi = 0 holds identically.
    """
    grid = metric.grid
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    sep = float(np.sqrt((spectral.wrap_offset(p1 - p2) ** 2).sum()))
    if sep < 16.0 * grid.h:
        raise ResolutionError(
            f"point separation {sep:.4f} below 16 h = {16 * grid.h:.4f}")
    eta = split_width(grid)
    r1 = _screened_remainder_modes(grid, p1, eta)
    r2 = _screened_remainder_modes(grid, p2, eta)
    q = _metric_correction_modes(metric)
    s_own, s_other = 8.0 * math.pi, -4.0 * math.pi
    G1 = SingularField(grid, [p1, p2], [s_own, s_other],
                       s_own * r1 + s_other * r2 + 4.0 * math.pi * q)
    G2 = SingularField(grid, [p1, p2], [s_other, s_own],
                       s_other * r1 + s_own * r2 + 4.0 * math.pi * q)
    G1 = G1.shifted(-G1.mean_dVg(metric))
    G2 = G2.shifted(-G2.mean_dVg(metric))
    return GreenPair(case_tag="one", points=[p1, p2], metric=metric,
                     G1=G1, G2=G2)


def _pole_source(p, metric: Metric):
    """The fixed part s = -4 pi Ghat(., p) of the one-point G2: the modes
    rp of the screened remainder at p, s's band modes, and stable grid
    values of e^{s} (the entire product times the band exponential)."""
    grid = metric.grid
    rp = _screened_remainder_modes(grid, p, split_width(grid))
    s_band = -4.0 * math.pi * (rp + _metric_correction_modes(metric))
    s_sing = SingularField(grid, [p], [-4.0 * math.pi], s_band)
    es = s_sing.singular_exp_values() * np.exp(s_sing.band.values)
    return rp, s_band, es


def green_pair_case2(p, metric: Metric,
                     opts: SolverOptions | None = None) -> GreenPair:
    """Solve the one-point nonlinear system.

    G2 is written as s + v with s = -4 pi Ghat(., p) carrying the 2 log r
    singularity; v minimizes

        F(v) = 1/2 integral |grad v|^2 dx + 8 pi integral v dV_g
               - 8 pi log integral e^{v+s} dV_g,

    whose critical points give -Delta_g (s+v) = 8 pi e^{s+v-logZ} - ... ,
    i.e. exactly the G2 equation after the Z-normalization shift.

    F is the CoupledEnergy with a = [[1]], m = 8 pi and c = e^s, minimized
    from v = 0 by run_descent: truncated Newton-CG steps, each with an
    Armijo test on F.  From v = 0 it reaches grad_tol 1e-8 in 6 steps at
    each of n = 64, 128, 256 and 512 on the flat torus.  The report is
    attached, and a non-converged run still returns (the caller decides
    how to treat it).
    """
    grid = metric.grid
    p = np.asarray(p, dtype=float)
    rp, s_band, es = _pole_source(p, metric)
    energy = CoupledEnergy(grid, ((1.0,),), 8.0 * math.pi, metric.weight, es)
    raw = run_descent([np.zeros((grid.n, grid.n))], grid,
                      energy.energy_and_grad, energy.project,
                      energy.grad_norm, energy.ceiling,
                      opts or SolverOptions(), energy.hessian)

    v = raw.state[0]
    # residual normalization shift (projected, so ~0)
    shift = float(energy.log_normalizer(raw.state)[0, 0, 0])
    G2 = SingularField(grid, [p], [-4.0 * math.pi],
                       s_band + spectral.to_modes(v), const=-shift)
    eg2 = np.exp(v - shift) * es
    mean_g2 = G2.mean_dVg(metric)

    # linear G1 equation: -Delta_0 G1 = 8 pi delta_p - 4 pi e^{G2+phi} - 4 pi e^phi
    weight = metric.weight
    rhs = 4.0 * math.pi * eg2 * weight + 4.0 * math.pi * weight - 8.0 * math.pi
    w1 = spectral.solve_poisson0(ScalarField(grid, rhs), mean_tol=1e-7)
    G1 = SingularField(grid, [p], [8.0 * math.pi], 8.0 * math.pi * rp + w1.modes)
    G1 = G1.shifted(-G1.mean_dVg(metric))
    return GreenPair(case_tag="two", points=[p], metric=metric, G1=G1, G2=G2,
                     mean_G2=mean_g2, exp_G2_values=eg2,
                     descent=DescentReport.from_raw(raw, weight))


# The largest share of e^phi's largest mode that its modes with
# max(|k_x|, |k_y|) > n/3 may reach.  cosine:a, a <= 1, reads at most
# 6.2e-6 at n = 16 and 2.5e-12 at n = 32; 0.5 cos(20 * 2 pi x), which
# varies on a few cells, 3.0e-2 at n = 64 and 2.5e-3 at n = 128.
_TAIL_TOL = 1e-4


def local_expansion(pair: GreenPair, which: int, at) -> LocalExpansion:
    """Quadratic data of G_which at one of the pair's points, exact: A and
    lambda to gamma are the regular part and its derivatives at the pole
    (SingularField.regular_jet), in the point's chart pair.charts[idx],
    built here on first use.  Before a curved metric's first chart, an
    e^phi whose modes above n/3 exceed _TAIL_TOL of its largest raises
    AccuracyError: the grid does not resolve it.
    """
    at = np.asarray(at, dtype=float)
    near = [j for j, pj in enumerate(pair.points)
            if np.linalg.norm(spectral.wrap_offset(at - pj)) < 1e-12]
    if not near:
        raise ConfigError("expansion point is not one of the pair's points")
    idx, g, metric = near[0], pair.field(which), pair.metric
    if idx not in pair.charts:
        if not metric.is_flat:
            kx, ky = metric.grid.freqs()
            modes = np.abs(spectral.to_modes(metric.weight))
            top = np.maximum(np.abs(kx), ky) > metric.grid.n / 3.0
            share = modes[top].max() / modes.max()
            if not share <= _TAIL_TOL:
                raise AccuracyError(
                    f"metric unresolved at n = {metric.grid.n}: e^phi's "
                    f"modes above n/3 reach {share:.3e} of its largest, "
                    f"over {_TAIL_TOL:g}")
        pair.charts[idx] = geometry.metric_expansion_at(metric,
                                                        pair.points[idx])
    c, a = pair.charts[idx].scale, g.log_coefficients[idx]
    jet = g.regular_jet(idx) / [1, c, c, 2 * c * c, 2 * c * c, c * c]
    jet[0] -= a * math.log(c)
    exp = LocalExpansion(a, *map(float, jet))
    pair.expansions[(which, idx)] = exp
    return exp


def extract_expansions(pair: GreenPair) -> None:
    """Expand every (field, point) combination and cache it on the pair."""
    for which in (1, 2):
        for pj in pair.points:
            local_expansion(pair, which, pj)


def expansion_trace_residual(exp: LocalExpansion) -> float:
    """|alpha + beta - 2 pi|: the off-source equation forces the quadratic
    trace of the regular part to equal 2 pi in normalized coordinates;
    exact derivatives leave round-off and e^phi's aliasing at the point.

    On a one-point pair the round-off grows as n^2 eps: G2's band holds
    the descent's state, whose round-off modes 4 pi^2 |k|^2 amplifies.
    On cosine:0.1 with its pole at (0.3, 0.6) it reads 5.0e-12, 7.2e-13
    and 1.30e-10 at n = 64, 128 and 256, so a 1e-10 trace check on a
    one-point pair at n >= 256 measures that round-off, not the pair."""
    return abs(exp.alpha + exp.beta - 2.0 * math.pi)


def _fd_laplacian(eval_fn, pts: np.ndarray, h_loc: float):
    """4th-order cross-stencil Laplacian of a point-evaluable field, and
    the field's values at the points: one eval_fn call on all nine
    stencil offsets."""
    count = pts.shape[0]
    shifts = [0.0] + [c * h_loc * e for e in (np.array([1.0, 0.0]),
                                               np.array([0.0, 1.0]))
                      for c in (2, 1, -1, -2)]
    vals = eval_fn(np.concatenate([pts + d for d in shifts]))
    vals = vals.reshape(9, count)
    center = vals[0]
    out = np.zeros(count)
    for p2, p1, m1, m2 in (vals[1:5], vals[5:9]):
        acc = -p2 + 16.0 * p1 - 30.0 * center + 16.0 * m1 - m2
        out += acc / (12.0 * h_loc * h_loc)
    return out, center


def residual_sample_points(pair: GreenPair, count: int, seed: int = 7,
                           margin: float | None = None) -> np.ndarray:
    """Deterministic uniform samples outside the 8h discs around the points."""
    grid = pair.grid
    if margin is None:
        margin = 8.0 * grid.h
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cand = rng.random(2)
        if all(np.linalg.norm(spectral.wrap_offset(cand - pj)) > margin
               for pj in pair.points):
            out.append(cand)
    return np.array(out)


def equation_residuals(pair: GreenPair, count: int = 200) -> dict:
    """Independent finite-difference check of the defining equations.

    Samples points off the 8h discs, applies a 4th-order stencil with its
    own spacing h_loc = 1e-4 to the evaluated fields (never the spectral
    Laplacian of the same representation), and returns the sup-norms of
    the equation residuals plus the dV_g means.
    """
    h_loc = 1e-4
    pts = residual_sample_points(pair, count)
    metric = pair.metric
    if metric.is_flat:
        inv_w = np.ones(pts.shape[0])
    else:
        inv_w = np.exp(-spectral.eval_at(metric.phi, pts))
    lap1 = _fd_laplacian(pair.G1.eval, pts, h_loc)[0] * inv_w
    lap2, g2 = _fd_laplacian(pair.G2.eval, pts, h_loc)
    lap2 = lap2 * inv_w
    out = {"mean_G1": pair.G1.mean_dVg(metric)}
    if pair.case_tag == "one":
        out["residual_G1"] = float(np.max(np.abs(-lap1 + 4.0 * math.pi)))
        out["residual_G2"] = float(np.max(np.abs(-lap2 + 4.0 * math.pi)))
        out["mean_G2"] = pair.G2.mean_dVg(metric)
    else:
        eg2 = np.exp(g2)
        out["residual_G1"] = float(np.max(np.abs(
            -lap1 + 4.0 * math.pi * eg2 + 4.0 * math.pi)))
        out["residual_G2"] = float(np.max(np.abs(
            -lap2 - 8.0 * math.pi * eg2 + 4.0 * math.pi)))
        out["exp_mean_G2"] = float(np.mean(pair.exp_G2_values * metric.weight))
    return out
