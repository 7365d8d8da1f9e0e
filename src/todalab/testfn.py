"""Concentration test functions and the sharp energy deficit.

The two coupled fields are built piecewise around the marked point(s):
a truncated standard bubble in a small disc (the partner field carries
minus half a bubble there), an interpolation band where the Green's
function is bent onto the bubble by a cutoff acting on its local Taylor
remainder, and the bare Green's function outside.  Evaluating the
limiting functional on this pair resolves deficits down to ~1e-8, far
below grid resolution at the smallest scales, so the evaluation is
hybrid by region:

* bubble discs: closed forms (scale-invariant Dirichlet energies,
  explicit radial integrals, quadratic metric corrections), with their
  (e^phi - 1)-weighted parts by polar quadrature on a curved metric;
* interpolation annuli and small discs: polar quadrature with *exact*
  field evaluations (image sums + band-limited mode sums) — no fitted
  quadratic of the Green's field ever enters an integrand, because its
  fit bias would be amplified to the size of the deficit itself by the
  log-gradient cross terms;
* outer region: Green's identity turns Dirichlet integrals into circle
  fluxes plus small-disc integrals, and the exponential integrals use a
  smoothly masked grid sum stitched to dyadic radial panels.

Every branch is read from the Green pair's data: a field carries the
full bubble where its log coefficient is -4 and minus half a bubble
where it is +2, and a field with no own pole is the normalized one.
The case tag enters only the closing constants and the fits.

Expansion data enters the fields only through additive matching
constants (A, lambda, mu); continuity at the interfaces is exact by
construction, and the value's sensitivity to a bias in those constants
is O((L*eps)^2 * bias), orders below the deficit.  The closing constants
(lower_bound_case1/2) are not so forgiving: they carry A with weight
2 pi, so any bias in A passes straight into the gap phi0 - C.  A is
therefore exact (the regular part at the pole, see
greens.local_expansion), and so are lambda and mu (its derivatives).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import spectral
from .bubble import (bubble_dirichlet_energy, bubble_mass, bubble_profile_r,
                     lower_bound_case1, lower_bound_case2,
                     case2_closing_constant)
from .errors import AccuracyError, ConfigError, GeometryError, SolverError
# metric_expansion_at is not called here: perfbench/spans.py patches it here
from .geometry import Metric, metric_expansion_at
from .greens import GreenPair, LocalExpansion, extract_expansions
from .spectral import ScalarField

__all__ = [
    "TestFunctionPair", "DeficitData", "FitReport",
    "coupling_L", "smoothstep", "smoothstep_deriv",
    "build_test_pair",
    "evaluate_phi0", "phi0_along", "phi0_breakdown", "field_on_grid",
    "deficit_data", "asymptotic_fit_case1", "asymptotic_fit_case2",
    "DEFAULT_EPS_LIST",
]

FOUR_PI = 4.0 * math.pi
DEFAULT_EPS_LIST = (1e-2, 10.0 ** -2.5, 1e-3, 10.0 ** -3.5, 1e-4)


def coupling_L(eps: float) -> float:
    """Truncation radius L tied to eps by L^4 eps^2 = 1/log(-log eps)."""
    if not 0.0 < eps < math.exp(-1.0):
        raise ConfigError(f"eps must lie in (0, 1/e), got {eps}")
    denom = eps * eps * math.log(-math.log(eps))    # 0 once eps^2 underflows
    L = (1.0 / denom) ** 0.25 if denom > 0.0 else math.inf
    if not math.isfinite(L * eps):
        raise ConfigError(f"eps = {eps} too small: L = (eps^2 log(-log eps))"
                          f"^(-1/4) is not a finite number")
    return L


def smoothstep(rho, a: float, b: float):
    """Quintic cutoff: 1 for rho <= a, 0 for rho >= b, C^2 in between."""
    rho = np.asarray(rho, dtype=float)
    u = np.clip((rho - a) / (b - a), 0.0, 1.0)
    return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


def smoothstep_deriv(rho, a: float, b: float):
    """d/drho of smoothstep; bounded by 1.875/(b-a)."""
    rho = np.asarray(rho, dtype=float)
    u = np.clip((rho - a) / (b - a), 0.0, 1.0)
    return -30.0 * u * u * (1.0 - u) ** 2 / (b - a)


@dataclass
class TestFunctionPair:
    """Piecewise two-field test pair at scale eps with truncation L.

    The Green pair owns the metric, the points, the expansions and the
    charts: pair.expansions[(k, i)] supplies field k's log coefficient a
    and additive matching data at point i, pair.charts[i] the chart scale
    there, and every branch is read from them, for any layout of poles.
    In the disc at point i field k carries the full bubble where a = -4
    (its own pole) and minus half a bubble where a = +2 (`half`);
    `disc_const` is that disc branch's additive constant, and
    `outer_const[k]` the constant added to G_k outside (zero for a field
    with no pole of its own, whose outer branch is G_k itself).
    """

    pair: GreenPair
    eps: float
    L: float
    disc_const: dict
    outer_const: dict

    @property
    def log_one_plus_piL2(self) -> float:
        return math.log1p(math.pi * self.L * self.L)

    def half(self, k: int, i: int) -> bool:
        """Whether field k carries minus half a bubble at point i."""
        return self.pair.expansions[(k, i)].a > 0.0

    def disc_profile(self, k: int, i: int, rho: np.ndarray) -> np.ndarray:
        """Field k's bubble, or minus half of one, in the disc at point i
        at normalized radii rho (without the tilt and disc_const)."""
        w = bubble_profile_r(rho / self.eps)
        if self.half(k, i):
            return -(w + 2.0 * self.log_one_plus_piL2) / 2.0
        return w

    def eval_field(self, which: int, pts: np.ndarray) -> np.ndarray:
        """Pointwise values of field `which` (reference path, not the
        quadrature hot path)."""
        pts = np.atleast_2d(pts)
        g = self.pair.field(which)
        le = self.L * self.eps
        out = g.eval(pts) + self.outer_const[which]
        for i, p in enumerate(self.pair.points):
            e = self.pair.expansions[(which, i)]
            d = spectral.wrap_offset(pts - p)
            z = self.pair.charts[i].scale * d   # normalized displacement
            rho = np.sqrt((z ** 2).sum(axis=1))
            in_disc = rho <= le
            in_band = (rho > le) & (rho < 2.0 * le)
            if np.any(in_band):
                zb = z[in_band]
                rb = rho[in_band]
                h = (g.eval(pts[in_band])
                     - (e.a * np.log(rb) + e.A + e.lam * zb[:, 0]
                        + e.mu * zb[:, 1]))
                out[in_band] -= smoothstep(rb, le, 2.0 * le) * h
            if np.any(in_disc):
                zd = z[in_disc]
                base = self.disc_profile(which, i, rho[in_disc])
                out[in_disc] = (base + e.lam * zd[:, 0] + e.mu * zd[:, 1]
                                + self.disc_const[(which, i)])
        return out


def _require_expansions(pair: GreenPair) -> None:
    need = [(k, i) for k in (1, 2) for i in range(len(pair.points))]
    if any(key not in pair.expansions for key in need):
        extract_expansions(pair)


# A field's own pole (log coefficient -4) puts e^{G_k} / eps^2 at about
# e^A (stitch L eps)^-4 eps^-2 on the stitch circle, where the ring
# quadrature (_ring_block) forms it.  (L eps)^-4 eps^-2
# must stay below the largest double by e^_EXP_MARGIN, which leaves room
# for e^A up to e^{8 + 4 log 2} = e^{10.8} at stitch 2; the own-pole A of
# the flat and cosine:0.5 pairs lies between -5.6 and -3.7.
_EXP_MARGIN = 8.0


def _separation(points) -> float:
    """Smallest wrapped distance between two of the points; inf for one."""
    return min((float(np.sqrt((spectral.wrap_offset(np.asarray(p) - q) ** 2)
                              .sum())) for j, q in enumerate(points)
                for p in points[:j]), default=math.inf)


def _window_radius(eps: float, L: float | None, points) -> tuple:
    """(L, L*eps) for a test pair at scale eps around `points`, L =
    coupling_L(eps) if None; a ConfigError unless both are positive,
    (L*eps)^2 is finite and at least the smallest normal double (below it
    the band's |grad G|^2, about 4 / (L*eps)^2, overflows), and e^G / eps^2
    at the stitch circle stays finite (see _EXP_MARGIN); a GeometryError
    unless L*eps < separation/4 for every two points; then L*eps < 1/8."""
    if not eps > 0.0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if L is None:
        L = coupling_L(eps)
    elif not L > 0.0:
        raise ConfigError(f"L must be positive, got {L}")
    le = L * eps
    if not le * le < math.inf:
        raise ConfigError(f"window radius L*eps = {le:.3g} too large: its "
                          f"square overflows")
    if not le * le >= sys.float_info.min:
        raise ConfigError(f"window radius L*eps = {le:.3g} too small: its "
                          f"square underflows")
    log_peak = -2.0 * math.log(eps) - 4.0 * math.log(le)
    limit = math.log(sys.float_info.max) - _EXP_MARGIN
    if log_peak > limit:
        raise ConfigError(f"eps = {eps:.3g} too small: e^G / eps^2 at the "
                          f"stitch circle, about (L*eps)^-4 eps^-2 = "
                          f"e^{log_peak:.1f}, must stay below e^{limit:.1f}")
    sep = _separation(points)
    if le >= sep / 4.0:
        raise GeometryError(
            f"window radius L*eps = {le:.4f} overlaps another point "
            f"(separation {sep:.4f}); need L*eps < separation/4")
    if le >= 0.125:
        raise ConfigError(f"L*eps = {le:.3f} too large; need L*eps < 1/8")
    return L, le


def _own_poles(pair: GreenPair) -> dict:
    """{k: index of field k's own pole}, where its log coefficient is -4;
    a field with no pole of its own has no entry."""
    return {k: i for (k, i), e in pair.expansions.items() if e.a < 0.0}


def build_test_pair(pair: GreenPair, eps: float,
                    L: float | None = None) -> TestFunctionPair:
    """Test pair at scale eps with truncation L (coupling_L(eps) if None).

    Field k bubbles at its own pole, outside which it is G_k + 4 log(L eps)
    - 2 log(1 + pi L^2) - A_own (G_k alone without an own pole), and
    carries minus half a bubble, with disc constant 2 log(L eps) + A +
    outer_const[k], at every other point.
    """
    L, le = _window_radius(eps, L, pair.points)
    _require_expansions(pair)
    log_le = math.log(le)
    l1p = math.log1p(math.pi * L * L)
    own = _own_poles(pair)
    disc_const, outer_const = {}, {}
    for k in (1, 2):
        # outer_const[k] term by term; a half-bubble disc constant adds
        # them in this order after 2 log(L eps) (2x + 4x is 6x to the bit)
        terms = ((4.0 * log_le, 2.0 * l1p, pair.expansions[(k, own[k])].A)
                 if k in own else (0.0, 0.0, 0.0))
        outer_const[k] = terms[0] - terms[1] - terms[2]
        for i in range(len(pair.points)):
            e = pair.expansions[(k, i)]
            disc_const[(k, i)] = 0.0 if e.a < 0.0 else (
                2.0 * log_le + terms[0] - terms[1] + e.A - terms[2])
    return TestFunctionPair(pair=pair, eps=eps, L=L, disc_const=disc_const,
                            outer_const=outer_const)


def field_on_grid(tf: TestFunctionPair, which: int) -> ScalarField:
    """Sample a test field on the metric's grid (for grid-based checks)."""
    grid = tf.pair.grid
    vals = tf.eval_field(which, grid.points())
    return ScalarField(grid, vals.reshape(grid.n, grid.n))


# ---------------------------------------------------------------------------
# hybrid evaluation of the limiting functional
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}


def _gl(m: int):
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on consecutive panels [e0,e1],[e1,e2]..."""
    x, w = _gl(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    mid = 0.5 * (lo + hi)
    hl = 0.5 * (hi - lo)
    nodes = (mid + hl * x[None, :]).ravel()
    weights = (hl * w[None, :]).ravel()
    return nodes, weights


class _StackEval:
    """Batched exact evaluation of a pair's two Green's fields (+metric
    exponent) on the polar nodes around one of its points: one off-grid
    pass for the mode arrays and one image pass per pole for both
    fields' values and gradients (a GreenPair's fields share their
    poles).  The centre pole's nearest image comes in polar form, once
    per radius (SingularField.image_values), so no field value carries
    the ulp(p) / r error of a wrapped difference of points.  The stack
    is [phi (curved only), G1, G2, dxG1, dyG1, dxG2, dyG2], so a call
    reads a leading block of rows (metric weight one, values two or
    three, the full call all), whose oversampled grid is built on first
    use and kept here; the stack is read-only, as the grids come from it.

    It depends on the pair alone, so one evaluator serves every coupling
    of a fit (phi0_along); it is not kept on the pair, whose retained
    copies would each hold its oversampled grids (4.8 MB at n=128).  For
    the same reason the fields' grid values, and the one-point pair's
    integrals against e^{G2} dV_g, are kept here, not on them."""

    def __init__(self, pair: GreenPair):
        metric = pair.metric
        self.grid = grid = metric.grid
        self.fields = (pair.G1, pair.G2)
        self.curved = not metric.is_flat
        bands = [g.band.modes for g in self.fields]
        self.stack = np.stack(([metric.phi.modes] if self.curved else [])
                              + bands + [b * ik for b in bands
                                         for ik in grid.ik])
        self.stack.flags.writeable = False
        self.strengths = np.array([g.strengths for g in self.fields])
        self.pair = pair
        self._fine = {}                 # row count -> oversampled grid
        self._grid_values = {}
        self._exp_g2_integrals = {}

    def grid_values(self, k: int) -> np.ndarray:
        """Grid values of field k (1 or 2), computed on first use."""
        if k not in self._grid_values:
            self._grid_values[k] = self.fields[k - 1].grid_values()
        return self._grid_values[k]

    def exp_g2_integral(self, k: int) -> float:
        """integral of G_k e^{G2} dV_g over the torus (one-point pair),
        computed on first use."""
        if k not in self._exp_g2_integrals:
            pair = self.pair
            self._exp_g2_integrals[k] = pair.field(k).integral_against(
                pair.exp_G2_values * pair.metric.weight)
        return self._exp_g2_integrals[k]

    def polar(self, i: int, r_nodes: np.ndarray, nth: int,
              gradients: bool = True) -> dict:
        """Fields on the circles of radii r_nodes around point i, at nth
        midpoint angles each: "G1", "G2", "weight" (and "dG1", "dG2")
        shaped (radii, angles[, 2]), plus the angles' cosines "ct" and
        sines "st"."""
        pts, ct, st = self._polar_points(i, r_nodes, nth)
        g0 = int(self.curved)                   # row of G1
        res = self._rows(len(self.stack) if gradients else g0 + 2, pts)
        g1 = self.fields[0]
        polar = (i, r_nodes, ct, st)
        if gradients:
            images, image_grads = g1.image_gradients(pts, self.strengths,
                                                     polar)
        else:
            images = g1.image_values(pts, self.strengths, polar)
        sh = (r_nodes.size, nth)
        out = {"ct": ct, "st": st}
        for j, (k, g) in enumerate(zip((1, 2), self.fields)):
            out[f"G{k}"] = (res[g0 + j] + g.const + images[j]).reshape(sh)
            if gradients:
                grad = res[g0 + 2 + 2 * j:g0 + 4 + 2 * j].T
                out[f"dG{k}"] = (grad + image_grads[j]).reshape(sh + (2,))
        out["weight"] = (np.exp(res[0]).reshape(sh) if self.curved
                         else np.ones(sh))
        return out

    def metric_weight(self, i: int, r_nodes: np.ndarray,
                      nth: int) -> np.ndarray:
        """The weight e^phi of a curved metric alone on polar's nodes,
        shaped (radii, angles): one off-grid row, no Green field."""
        res = self._rows(1, self._polar_points(i, r_nodes, nth)[0])
        return np.exp(res[0]).reshape(r_nodes.size, nth)

    def _rows(self, k: int, pts: np.ndarray) -> np.ndarray:
        """The stack's first k rows at pts, (k, points), from their
        oversampled grid, built on the first call with k."""
        if k not in self._fine:
            self._fine[k] = spectral._oversampled(self.grid, self.stack[:k])
        return spectral.eval_modes_stack_at(self.grid, self.stack[:k], pts,
                                            fine=self._fine[k])

    def _polar_points(self, i: int, r_nodes: np.ndarray, nth: int) -> tuple:
        """The nodes on the circles of radii r_nodes around point i, at nth
        midpoint angles each, as (radii * angles, 2), and the angles'
        cosines and sines."""
        p = self.pair.points[i]
        th = (np.arange(nth) + 0.5) * (2.0 * math.pi / nth)
        ct, st = np.cos(th), np.sin(th)
        pts = np.empty((r_nodes.size * nth, 2))
        pts[:, 0] = (p[0] + np.outer(r_nodes, ct)).ravel()
        pts[:, 1] = (p[1] + np.outer(r_nodes, st)).ravel()
        return pts, ct, st


def _log_disc_integral(R: float) -> float:
    """integral of log r over the disc of radius R (polar closed form)."""
    return 2.0 * math.pi * (R * R * math.log(R) / 2.0 - R * R / 4.0)


def _bubble_area_integral(L: float) -> float:
    """integral of the bubble profile over its truncation disc (unit scale)."""
    t = math.pi * L * L
    return -2.0 * ((1.0 + t) * math.log1p(t) - t)


def _tilt_mass(pair: GreenPair, k: int, i: int) -> tuple:
    """(B, -K/2 + B) of field k at point i: B is the quadratic mass of its
    tilt plus the metric gradient, K the curvature, from the point's chart;
    -K/2 + B drives the disc exponentials and the deficit coefficient."""
    chart, e = pair.charts[i], pair.expansions[(k, i)]
    b = ((chart.b1 + e.lam) ** 2 + (chart.b2 + e.mu) ** 2) / 4.0
    return b, -chart.curvature / 2.0 + b


# angles per circle of the point blocks, and the relative agreement at
# which _refined accepts a quadrature level
_THETA = 96
_REFINE_TOL = 1e-11


class _Phi0Evaluator:
    """One-shot evaluation context; builds node families, runs the
    region quadratures, and assembles the functional with a breakdown.
    `stack` is the pair's field evaluator, built here when not given."""

    def __init__(self, tf: TestFunctionPair, stitch: float = 2.0,
                 stack: _StackEval | None = None):
        if not 2.0 <= stitch <= 4.0:
            raise ConfigError(f"stitch factor must lie in [2, 4], got {stitch}")
        self.tf = tf
        self.pair = pair = tf.pair
        self.stitch = stitch
        self.ev = _StackEval(pair) if stack is None else stack
        self.le = tf.L * tf.eps
        self.l1p = tf.log_one_plus_piL2
        self.scales = [pair.charts[i].scale for i in range(len(pair.points))]
        # chart radii per point: bubble disc, stitch circle, outer cutoff knot
        self.r_disc = [self.le / c for c in self.scales]
        self.r_st = [stitch * self.le / c for c in self.scales]
        self.delta_cut = self._outer_radius()
        self.a_chi = [max(r, 0.6 * self.delta_cut) for r in self.r_st]
        # a field with no own pole is the normalized one (mean mean_G2)
        self.own = _own_poles(pair)
        self.field_mean = {k: 0.0 if k in self.own else pair.mean_G2
                           for k in (1, 2)}
        self.sourced = pair.exp_G2_values is not None    # e^{G2} in Lap G
        self.pieces: dict[str, float] = {}

    def _outer_radius(self) -> float:
        sep = _separation(self.pair.points)
        cap = 0.4 * sep if sep < math.inf else 0.25
        r_min = max(max(self.r_st), 0.05)
        delta = max(min(0.2, cap), 1.25 * r_min)
        if delta > min(0.45, 2.0 * cap):
            raise ConfigError("scales too large to separate the regions")
        return delta

    def _refined(self, levels, what: str) -> dict:
        """The first of a sequence of ever finer blocks that agrees with
        the one before to tol (relative to max(1, largest entry))."""
        older = prev = None
        for vals in levels:
            if prev is not None:
                scale = max(1.0, max(abs(v) for v in vals.values()))
                err = max(abs(vals[key] - prev[key]) for key in vals)
                if err <= _REFINE_TOL * scale:
                    return vals
            older, prev = prev, vals
        raise AccuracyError(f"{what} did not converge; the last two levels "
                            f"give {older} / {prev}")

    # -- per-point region integrals ----------------------------------------

    def _point_block(self, i: int) -> dict:
        """All annulus/disc integrals attached to point i, on radial nodes
        covering [0, r_st] with the disc edge and the band edges as panel
        boundaries, refined by doubling the band panels until they
        stabilize."""
        r_disc, r_st = self.r_disc[i], self.r_st[i]
        r_band = 2.0 * r_disc

        def levels():
            for doubling in range(6):
                smooth_panels = 2 * 2 ** min(doubling, 1)
                band_panels = 4 * 2 ** doubling
                edges = [np.linspace(0.0, r_disc, smooth_panels + 1),
                         np.linspace(r_disc, r_band, band_panels + 1)]
                if r_st > r_band * (1.0 + 1e-12):
                    edges.append(np.linspace(r_band, r_st, 2 + 1))
                nodes = [_panel_nodes(e, 12) for e in edges]
                yield self._point_block_on(
                    i, np.concatenate([r for r, _ in nodes]),
                    np.concatenate([w for _, w in nodes]))

        return self._refined(levels(), f"polar quadrature at point {i}")

    def _point_block_on(self, i: int, r_nodes: np.ndarray,
                        r_w: np.ndarray) -> dict:
        tf = self.tf
        expansions = self.pair.expansions
        c = self.scales[i]
        le = self.le
        th_w = 2.0 * math.pi / _THETA
        rho = c * r_nodes                       # normalized radius
        eta = smoothstep(rho, le, 2.0 * le)
        in_band = rho > le
        # the disc radii come first; gradients enter on the band only
        nd = int(np.count_nonzero(~in_band))
        disc = self.ev.polar(i, r_nodes[:nd], _THETA, gradients=False)
        data = self.ev.polar(i, r_nodes[nd:], _THETA)
        logrho = np.log(rho)
        w_area = ((r_nodes * r_w)[:, None] * th_w
                  * np.concatenate([disc["weight"], data["weight"]]))

        # unit radial vectors and normalized displacement components
        ct, st = data["ct"], data["st"]
        z1 = c * np.outer(r_nodes, ct)
        z2 = c * np.outer(r_nodes, st)

        H, G = {}, {}
        for k in (1, 2):
            e: LocalExpansion = expansions[(k, i)]
            G[k] = np.concatenate([disc[f"G{k}"], data[f"G{k}"]])
            H[k] = (G[k] - (e.a * logrho[:, None] + e.A
                            + e.lam * z1 + e.mu * z2))

        # gradients of the blended field G - eta*H on the band
        rho_b = rho[nd:]
        eta_b = eta[nd:, None]
        etad = smoothstep_deriv(rho_b, le, 2.0 * le)[:, None] * c  # chart
        bx, by = {}, {}
        for k in (1, 2):
            e = expansions[(k, i)]
            dG = data[f"dG{k}"]
            radial = (e.a / rho_b)[:, None] * c
            dHx = dG[:, :, 0] - radial * ct[None, :] - c * e.lam
            dHy = dG[:, :, 1] - radial * st[None, :] - c * e.mu
            cut = etad * H[k][nd:]
            bx[k] = dG[:, :, 0] - eta_b * dHx - cut * ct[None, :]
            by[k] = dG[:, :, 1] - eta_b * dHy - cut * st[None, :]

        out = {}
        band_w = np.where(in_band, r_nodes * r_w, 0.0)[:, None] * th_w
        dens = np.zeros((r_nodes.size, _THETA))   # 0 where band_w is 0
        for k, m in ((1, 1), (2, 2), (1, 2)):
            dens[nd:] = bx[k] * bx[m] + by[k] * by[m]
            out[f"dir_{k}{m}"] = float(np.sum(dens * band_w))

        # mean-term corrections: -eta*H on the band, smooth remainder on
        # the disc (log part and bubble part are closed-form elsewhere)
        for k in (1, 2):
            e = expansions[(k, i)]
            out[f"mean_band_{k}"] = float(np.sum(
                np.where(in_band[:, None], -eta[:, None] * H[k] * w_area, 0.0)))
            greg = G[k] - e.a * logrho[:, None]
            out[f"mean_disc_reg_{k}"] = float(np.sum(
                np.where(~in_band[:, None], greg * w_area, 0.0)))
            # Green's-identity small-disc integrals over the whole family
            out[f"green_disc_reg_{k}"] = float(np.sum(greg * w_area))

        # exponential integrals: band contribution of e^{phi_k}, scaled by
        # eps^-2; and the full-disc integral of e^{G_k} (for the outer
        # bookkeeping at the *other* point and the one-point system)
        l2e = 2.0 * math.log(tf.eps)
        for k in (1, 2):
            phi_band = G[k] - eta[:, None] * H[k] + tf.outer_const[k]
            out[f"exp_band_{k}"] = float(np.sum(np.where(
                in_band[:, None], np.exp(phi_band - l2e) * w_area, 0.0)))
            if expansions[(k, i)].a > 0:
                # vanishing singular point: e^{G_k} ~ rho^2, integrable disc
                out[f"exp_gdisc_{k}"] = float(np.sum(np.exp(G[k]) * w_area))

        if self.sourced:
            eg2 = np.exp(G[2])
            for k in (1, 2):
                out[f"green_disc_g2w_{k}"] = float(np.sum(
                    G[k] * eg2 * w_area))
        return out

    # -- flux circles -------------------------------------------------------

    def _flux_block(self, i: int) -> dict:
        r_st = self.r_st[i]
        nth = 256
        data = self.ev.polar(i, np.array([r_st]), nth)
        ct, st = data["ct"], data["st"]
        out = {}
        for k, m in ((1, 1), (2, 2), (1, 2), (2, 1)):
            gk = data[f"G{k}"][0]
            dgm = data[f"dG{m}"][0]
            dm = dgm[:, 0] * ct + dgm[:, 1] * st
            out[f"flux_{k}{m}"] = float(
                -r_st * np.sum(gk * dm) * (2.0 * math.pi / nth))
        return out

    # -- outer exponential: ring + masked grid ------------------------------

    def _ring_block(self, k: int, i: int) -> float:
        """integral of (1-chi) e^{G_k} dV_g on [r_st, delta_cut] around the
        field's own blow-up point, scaled by eps^-2 (without e^{C_k}).

        Dyadic panels from r_st, with the cutoff's C^2 knot a_chi as one
        more edge so that every panel's integrand is smooth; Gauss orders
        16 and 24 on them must agree."""
        a_chi = self.a_chi[i]
        edges = [self.r_st[i]]
        while edges[-1] < self.delta_cut:
            edges.append(min(edges[-1] * 2.0, self.delta_cut))
        edges = np.union1d(edges, [a_chi])
        nth = 64

        def levels():
            for order in (16, 24):
                r_nodes, r_w = _panel_nodes(edges, order)
                data = self.ev.polar(i, r_nodes, nth, gradients=False)
                chi = smoothstep(r_nodes, a_chi, self.delta_cut)  # 1 -> 0
                yield {"ring": float(np.sum(
                    chi[:, None] * np.exp(data[f"G{k}"]
                                          - 2.0 * math.log(self.tf.eps))
                    * data["weight"] * (r_nodes * r_w)[:, None])
                    * (2.0 * math.pi / nth))}

        return self._refined(levels(), f"ring quadrature of G{k} at point "
                             f"{i} (orders 16, 24)")["ring"]

    def _grid_exp(self, k: int, i: int) -> float:
        """Masked grid sum of e^{G_k} dV_g outside the dyadic ring, scaled
        by eps^-2."""
        metric = self.pair.metric
        grid = metric.grid
        gvals = self.ev.grid_values(k)
        X, Y = grid.mesh()
        p = self.pair.points[i]
        r = np.sqrt(spectral.wrap_offset(X - p[0]) ** 2
                    + spectral.wrap_offset(Y - p[1]) ** 2)
        chi = 1.0 - smoothstep(r, self.a_chi[i], self.delta_cut)  # 0 near p
        mask = chi > 0.0
        expv = np.zeros_like(gvals)
        expv[mask] = np.exp(gvals[mask] - 2.0 * math.log(self.tf.eps))
        return float(np.mean(chi * expv * metric.weight))

    # -- assembly -----------------------------------------------------------

    def run(self) -> dict:
        tf, pair = self.tf, self.pair
        eps, L = tf.eps, tf.L
        le = self.le
        t = math.pi * L * L
        pieces = self.pieces
        E_L = bubble_dirichlet_energy(L)
        W_L = _bubble_area_integral(L)
        qmass = {key: _tilt_mass(pair, *key)[1]
                 for key in pair.expansions if not tf.half(*key)}
        npts = len(pair.points)

        blocks = [self._point_block(i) for i in range(npts)]
        fluxes = [self._flux_block(i) for i in range(npts)]
        disc_g = self._stitch_disc_integrals(blocks)

        # Dirichlet: closed disc forms + band quadrature + outer identity
        dir_tot = {}
        for k, m in ((1, 1), (2, 2), (1, 2)):
            val = 0.0
            for i in range(npts):
                lk, lm = (np.asarray((e.lam, e.mu)) for e in
                          (pair.expansions[(k, i)], pair.expansions[(m, i)]))
                sk = -0.5 if tf.half(k, i) else 1.0
                sm = -0.5 if tf.half(m, i) else 1.0
                val += sk * sm * E_L + math.pi * le * le * float(lk @ lm)
                val += blocks[i][f"dir_{k}{m}"]
            pieces[f"dirichlet_inner_{k}{m}"] = val
            outer = 0.0
            for i in range(npts):
                outer += 0.5 * (fluxes[i][f"flux_{k}{m}"]
                                + fluxes[i][f"flux_{m}{k}"])
            outer += 0.5 * (self._outer_source(k, m, disc_g, blocks)
                            + self._outer_source(m, k, disc_g, blocks))
            pieces[f"dirichlet_outer_{k}{m}"] = outer
            dir_tot[(k, m)] = val + outer

        # mean terms
        means = {}
        for k in (1, 2):
            base = tf.outer_const[k] + self.field_mean[k]
            corr = 0.0
            for i in range(npts):
                c = self.scales[i]
                r_disc = self.r_disc[i]
                e = pair.expansions[(k, i)]
                area_flat = math.pi * r_disc * r_disc
                # bubble branch minus (G_k + C_k), log part in closed form
                if tf.half(k, i):
                    wpart = -0.5 * eps * eps * W_L / (c * c) \
                        - self.l1p * area_flat
                else:
                    wpart = eps * eps * W_L / (c * c)
                const_part = (tf.disc_const[(k, i)]
                              - tf.outer_const[k]) * area_flat
                logpart = -e.a * (_log_disc_integral(r_disc)
                                  + math.log(c) * area_flat)
                corr += (wpart + const_part + logpart
                         - blocks[i][f"mean_disc_reg_{k}"]
                         + blocks[i][f"mean_band_{k}"])
                if not pair.metric.is_flat:     # the (w - 1) parts of those
                    corr += self._metric_disc_integral(
                        i, r_disc, r_disc * max(eps / le * 1e-3, 1e-12),
                        lambda rho: tf.disc_profile(k, i, rho)
                        + tf.disc_const[(k, i)] - tf.outer_const[k]
                        - e.a * np.log(rho))
            means[k] = base + corr
            pieces[f"mean_{k}"] = means[k]

        # exponential integrals, scaled by eps^2
        logints = {}
        i0 = bubble_mass(L)
        i2 = (math.log1p(t) + 1.0 / (1.0 + t) - 1.0) / math.pi
        for k in (1, 2):
            own_discs = [i for i in range(npts) if not tf.half(k, i)]
            other = [i for i in range(npts) if tf.half(k, i)]
            disc = sum(i0 + eps * eps * qmass[(k, i)] * i2 for i in own_discs)
            pieces[f"exp_disc_{k}"] = disc
            half_piece = 0.0
            for j in other:
                half_piece += (math.exp(tf.disc_const[(k, j)]) / (1.0 + t)
                               * math.pi * L * L * (1.0 + t / 2.0)
                               / self.scales[j] ** 2)
            pieces[f"exp_half_{k}"] = half_piece
            band = sum(blocks[i][f"exp_band_{k}"] for i in range(npts))
            gdisc = sum(blocks[j][f"exp_gdisc_{k}"] for j in other)
            if k not in self.own:
                # outer branch is G_k itself with unit total mass
                small = (disc + half_piece + band) * eps * eps - gdisc
                logints[k] = math.log1p(small)
                pieces[f"exp_outer_{k}"] = -gdisc
            else:
                own = self.own[k]
                outer = self._ring_block(k, own) + self._grid_exp(k, own)
                outer -= gdisc * math.exp(-2.0 * math.log(eps))
                ecs = math.exp(tf.outer_const[k])
                total = disc + half_piece + band + ecs * outer
                pieces[f"exp_outer_{k}"] = ecs * outer
                logints[k] = 2.0 * math.log(eps) + math.log(total)
            pieces[f"log_int_{k}"] = logints[k]

        quad = (dir_tot[(1, 1)] + dir_tot[(2, 2)] + dir_tot[(1, 2)]) / 3.0
        value = (quad + FOUR_PI * (means[1] + means[2])
                 - FOUR_PI * (logints[1] + logints[2]))
        pieces["quadratic"] = quad
        pieces["value"] = value
        return pieces

    def _stitch_disc_integrals(self, blocks) -> dict:
        """{(k, i): integral of G_k dV_g over the stitch disc at point i}:
        a log rho against dx in closed form, plus its (w - 1) part."""
        out = {}
        for i in range(len(self.pair.points)):
            c, r_st = self.scales[i], self.r_st[i]
            area = math.pi * r_st * r_st
            log_part = _log_disc_integral(r_st) + math.log(c) * area
            if not self.pair.metric.is_flat:
                log_part += self._metric_disc_integral(i, r_st, 1e-12 * r_st,
                                                       np.log)
            for k in (1, 2):
                out[(k, i)] = (self.pair.expansions[(k, i)].a * log_part
                               + blocks[i][f"green_disc_reg_{k}"])
        return out

    def _outer_source(self, k: int, m: int, disc_g: dict, blocks) -> float:
        """-(outer integral of G_k Lap G_m) = -4 pi (plain + c_m weighted):
        Lap G_m = 4 pi (1 + c_m e^{G2}) e^phi off the poles, c = (1, -2)
        with the e^{G2} source, else 0; plain and weighted are the dV_g
        integrals of G_k and G_k e^{G2} less their stitch discs."""
        npts = len(self.pair.points)
        plain = self.field_mean[k] - sum(disc_g[(k, i)] for i in range(npts))
        weighted = 0.0
        if self.sourced:
            weighted = (1.0, -2.0)[m - 1] * (
                self.ev.exp_g2_integral(k)
                - sum(blocks[i][f"green_disc_g2w_{k}"] for i in range(npts)))
        return -FOUR_PI * (plain + weighted)

    def _metric_disc_integral(self, i: int, R: float, floor: float,
                              f) -> float:
        """integral of f(rho) (w - 1) dx over the disc of chart radius R at
        point i (rho = c r), what a closed form against dx leaves out: polar
        panels halving from R to below floor, Gauss order 10, 32 angles."""
        edges = [R]
        while edges[-1] > floor:
            edges.append(edges[-1] / 2.0)
        r_nodes, r_w = _panel_nodes(np.asarray(edges[::-1]), 10)
        nth = 32
        wgt = self.ev.metric_weight(i, r_nodes, nth)
        integrand = f(self.scales[i] * r_nodes)[:, None] * (wgt - 1.0)
        th_w = 2.0 * math.pi / nth
        return float(np.sum(integrand * (r_nodes * r_w)[:, None]) * th_w)


def evaluate_phi0(tf: TestFunctionPair, stitch: float = 2.0,
                  stack: _StackEval | None = None) -> float:
    """Value of the limiting functional on the test pair.

    stack, a _StackEval of tf's pair, is reused instead of built anew:
    phi0_along passes one to every row."""
    if stack is not None and stack.fields != (tf.pair.G1, tf.pair.G2):
        raise ConfigError("field evaluator belongs to another pair")
    return _Phi0Evaluator(tf, stitch=stitch, stack=stack).run()["value"]


def phi0_breakdown(tf: TestFunctionPair, stitch: float = 2.0) -> dict:
    """Region-by-region pieces of the functional (diagnostics)."""
    return _Phi0Evaluator(tf, stitch=stitch).run()


def phi0_along(pair: GreenPair, eps_list, L: float | None) -> list:
    """Rows {"eps", "L", "phi0"}: evaluate_phi0 on the test pair at each
    eps, with truncation L (coupling_L(eps) if None, as in
    build_test_pair).  Every test pair is built before the first
    evaluation, so a bad eps fails at once.  Every row shares one field
    evaluator, whose oversampled grids serve them all.  A one-point pair
    whose descent did not converge solves no G2 equation, and its rows
    would mean nothing: it raises SolverError."""
    if pair.descent is not None and not pair.descent.converged:
        raise SolverError(f"one-point pair did not converge "
                          f"({pair.descent.stop_reason})")
    tfs = [build_test_pair(pair, eps, L) for eps in eps_list]
    stack = _StackEval(pair)
    return [{"eps": tf.eps, "L": tf.L, "phi0": evaluate_phi0(tf, stack=stack)}
            for tf in tfs]


# ---------------------------------------------------------------------------
# deficit bookkeeping and asymptotic fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeficitData:
    """Per-point curvature/tilt data entering the deficit coefficient."""

    case_tag: str
    B: dict
    M: dict
    coeff: float


def deficit_data(pair: GreenPair) -> DeficitData:
    """Quadratic tilt masses B, the combinations M, and the deficit slope
    coefficient they produce."""
    _require_expansions(pair)
    bvals, mvals = {}, {}
    for k, i in ([(1, 0), (2, 1)] if pair.case_tag == "one" else [(1, 0), (2, 0)]):
        b, qm = _tilt_mass(pair, k, i)
        bvals[k] = b
        mvals[k] = qm / math.pi
    if pair.case_tag == "one":
        coeff = FOUR_PI * (mvals[1] + mvals[2] + 2.0)
    else:
        coeff = 1.0 + mvals[1]
    return DeficitData(case_tag=pair.case_tag, B=bvals, M=mvals,
                       coeff=coeff)


@dataclass
class FitReport:
    """Deficit regression: functional values along an eps list against
    the predicted slope."""

    case_tag: str
    constant_used: float
    rows: list
    fitted_slope: float
    slope_stderr: float
    target_slope: float
    constant_alternate: float | None = None


def _check_fit_inputs(pair: GreenPair, metric: Metric, eps_list, case) -> list:
    """The eps list as floats, after a ConfigError on any bad fit input."""
    if metric is not pair.metric:
        raise ConfigError("metric does not match the pair's metric")
    if pair.case_tag != case:
        raise ConfigError(f"case {case} fit on a case {pair.case_tag} pair")
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 4:
        raise ConfigError("need at least 4 eps values for a slope fit")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly decreasing")
    return eps_list


def _run_fit(pair: GreenPair, eps_list, constant: float) -> tuple:
    """Evaluate the functional along eps_list and fit the deficit slope.

    Each remainder phi0 - constant is modelled as

        remainder = s eps^2 log eps^-2 + b eps^2 + c (L eps)^4,

    and remainder / eps^2 is regressed by ordinary least squares on
    (log eps^-2, 1, (L eps)^4 / eps^2), with L taken from each row.  The
    first term is the deficit the test-function argument predicts; the
    plain eps^2 term collects the order-eps^2 corrections of that
    argument; the last is the positive energy of the cutoff band, quartic
    in the window radius L eps.  Under coupling_L that last term is
    eps^2 / log(-log eps), only a log-log factor below the deficit, so a
    fit that omits it (or the eps^2 term) puts it into the slope.  The
    subleading terms are not derived here: this is the smallest model
    that holds every term named above.  The slope depends on that choice:
    on the flat two-pole pair an eps^2 log log eps^-1 column in place of
    the quartic one moves it by more than 15.

    Returns (rows, s, standard error of s from the residual variance
    with len(rows) - 3 degrees of freedom).
    """
    rows = phi0_along(pair, eps_list, None)
    for row in rows:
        eps = row["eps"]
        row["remainder"] = row["phi0"] - constant
        row["regressor"] = eps * eps * (-math.log(eps * eps))
    eps = np.array([r["eps"] for r in rows])
    L = np.array([r["L"] for r in rows])
    design = np.stack([-np.log(eps * eps), np.ones_like(eps),
                       L ** 4 * eps * eps], axis=1)
    y = np.array([r["remainder"] for r in rows]) / (eps * eps)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = len(rows) - design.shape[1]
    cov = np.linalg.inv(design.T @ design) * float(resid @ resid) / dof
    return rows, float(coef[0]), math.sqrt(float(cov[0, 0]))


def asymptotic_fit_case1(pair: GreenPair, metric: Metric,
                         eps_list=DEFAULT_EPS_LIST) -> FitReport:
    """Deficit fit for the two-point pair: remainder over the closing
    constant, regressed as described in _run_fit.  metric must be
    pair.metric."""
    eps_list = _check_fit_inputs(pair, metric, eps_list, "one")
    _require_expansions(pair)
    const = lower_bound_case1(pair.expansions[(1, 0)].A,
                              pair.expansions[(2, 1)].A)
    dd = deficit_data(pair)
    rows, slope, stderr = _run_fit(pair, eps_list, const)
    return FitReport(case_tag="one", constant_used=const, rows=rows,
                     fitted_slope=slope, slope_stderr=stderr,
                     target_slope=-dd.coeff)


def asymptotic_fit_case2(pair: GreenPair, metric: Metric,
                         eps_list=DEFAULT_EPS_LIST) -> FitReport:
    """Deficit fit for the one-point pair; reports both candidate closing
    constants (they differ in the literature-facing bookkeeping and are
    never merged).  metric must be pair.metric."""
    eps_list = _check_fit_inputs(pair, metric, eps_list, "two")
    _require_expansions(pair)
    const = lower_bound_case2(pair.expansions[(1, 0)].A, pair.mean_G2)
    alt = case2_closing_constant(pair.mean_G2)
    dd = deficit_data(pair)
    rows, slope, stderr = _run_fit(pair, eps_list, const)
    return FitReport(case_tag="two", constant_used=const, rows=rows,
                     fitted_slope=slope, slope_stderr=stderr,
                     target_slope=-dd.coeff, constant_alternate=alt)
