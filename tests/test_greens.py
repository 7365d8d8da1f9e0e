import math

import mpmath
import numpy as np
import pytest

from todalab.bubble import lower_bound_case1
from todalab.errors import AccuracyError, ConfigError, ResolutionError
from todalab.functional import SolverOptions
from todalab.geometry import (make_conformal_metric, make_flat_torus,
                              metric_expansion_at)
from todalab.greens import (
    LocalExpansion,
    equation_residuals,
    expansion_trace_residual,
    extract_expansions,
    flat_green,
    green_pair_case1,
    green_pair_case2,
    local_expansion,
    residual_sample_points,
)
from todalab import spectral
from todalab.spectral import ScalarField, TorusGrid
from todalab.testfn import deficit_data
from torus_integrals import integrate_values

TWO_PI = 2.0 * math.pi

# constant term of the flat-torus Green's function at the source, i.e. the
# limit of G0 + (1/2 pi) log r; frozen from the theta-function closed form
# evaluated in mpmath (see the oracle below)
ROBIN_FLAT = -0.20857779324350137


def theta_green(w):
    """Closed form for the unit-square torus: -(1/2pi) log|th1(pi z)| + y^2/2,
    defined up to the additive constant fixed by the zero-mean convention."""
    z = mpmath.mpc(w[0], w[1])
    th = mpmath.jtheta(1, mpmath.pi * z, mpmath.exp(-mpmath.pi))
    return float(-mpmath.log(abs(th)) / (2 * mpmath.pi) + w[1] ** 2 / 2.0)


# --- flat-torus Green's function --------------------------------------

def test_flat_green_mean_and_covariance():
    grid = TorusGrid(128)
    p = np.array([0.37, 0.61])
    g = flat_green(p, grid)
    assert abs(g.mean_dVg(make_flat_torus(128))) < 1e-13
    g0 = flat_green(np.array([0.0, 0.0]), grid)
    rng = np.random.default_rng(3)
    pts = rng.random((30, 2))
    assert np.max(np.abs(g.eval(pts) - g0.eval(pts - p))) < 1e-10


def test_flat_green_matches_theta_closed_form():
    # differences kill the additive constant, so no mean bookkeeping needed
    grid = TorusGrid(128)
    p = np.array([0.37, 0.61])
    g = flat_green(p, grid)
    rng = np.random.default_rng(3)
    pts = rng.random((30, 2))
    vals = g.eval(pts)
    oracle = np.array([theta_green((pt - p) % 1.0) for pt in pts])
    diff = (vals - vals[0]) - (oracle - oracle[0])
    assert np.max(np.abs(diff)) < 1e-9


def test_flat_green_near_field_constant():
    grid = TorusGrid(128)
    p = np.array([0.5, 0.5])
    g = flat_green(p, grid)
    robin = g.eval_regular(p[None, :], 0)[0]
    assert abs(robin - ROBIN_FLAT) < 1e-6
    # the jet's direct sum reads it to round-off (8.3e-17 measured)
    assert abs(g.regular_jet(0)[0] - ROBIN_FLAT) < 1e-15
    # eval_regular tends to the same constant as r -> 0
    for r in (1e-3, 1e-5):
        val = g.eval_regular(p[None, :] + np.array([[r, 0.0]]), 0)[0]
        assert abs(val - robin) < 50.0 * r + 1e-10


# --- two-point system -------------------------------------------------

def test_case1_log_coefficients(pair1_128):
    assert pair1_128.expansions[(1, 0)].a == -4.0
    assert pair1_128.expansions[(1, 1)].a == 2.0
    assert pair1_128.expansions[(2, 0)].a == 2.0
    assert pair1_128.expansions[(2, 1)].a == -4.0


def test_case1_zero_means(pair1_128):
    metric = pair1_128.metric
    assert abs(pair1_128.G1.mean_dVg(metric)) < 1e-8
    assert abs(pair1_128.G2.mean_dVg(metric)) < 1e-8


def test_case1_residuals_off_discs(pair1_128):
    res = equation_residuals(pair1_128, count=200)
    assert res["residual_G1"] < 1e-4
    assert res["residual_G2"] < 1e-4


def test_residuals_build_one_oversampled_grid_per_field(monkeypatch):
    # the stencil evaluates each field once on all nine offsets, so a
    # pair costs two oversampled band grids, not eighteen
    from todalab import spectral

    pair = green_pair_case2(np.array([0.5, 0.5]), make_flat_torus(64))
    calls = []
    real = spectral._oversampled
    monkeypatch.setattr(spectral, "_oversampled",
                        lambda *args: calls.append(1) or real(*args))
    res = equation_residuals(pair, count=50)
    assert len(calls) == 2
    assert max(res["residual_G1"], res["residual_G2"]) < 1e-4


def test_case1_swap_symmetry(pair1_128):
    metric = pair1_128.metric
    p1, p2 = pair1_128.points
    swapped = green_pair_case1(p2, p1, metric)
    pts = residual_sample_points(pair1_128, 100)
    assert np.max(np.abs(swapped.G1.eval(pts) - pair1_128.G2.eval(pts))) < 1e-10
    assert np.max(np.abs(swapped.G2.eval(pts) - pair1_128.G1.eval(pts))) < 1e-10


def test_case1_constants_swap_pairwise():
    # p2 - p1 = (1/2, 0) or (1/2, 1/2): swapping the points is a symmetry
    # of both the system and the flat metric, so the constants pair up,
    # and mirror symmetries through each point kill the linear terms.
    # With delta_p's modes and the jet's sum on one set of exact phases
    # these vanish to round-off at every n: at most 1.6e-15 at the dyadic
    # pair and 3.1e-14 at the other (n = 512), where a phase rounded once
    # per product 2 pi k.p read 2.1e-12 and 1.8e-12
    for p1, p2, tol in (((0.25, 0.5), (0.75, 0.5), 1e-14),
                        ((0.1, 0.3), (0.6, 0.8), 1e-13)):
        for n in (128, 256, 512):
            pair = green_pair_case1(np.array(p1), np.array(p2),
                                    make_flat_torus(n))
            extract_expansions(pair)
            A = {key: e.A for key, e in pair.expansions.items()}
            assert abs(A[(1, 0)] - A[(2, 1)]) < 1e-10
            assert abs(A[(1, 1)] - A[(2, 0)]) < 1e-10
            for key, e in pair.expansions.items():
                assert abs(e.lam) < tol, (p1, n, key)
                assert abs(e.mu) < tol, (p1, n, key)


def test_case1_points_too_close():
    metric = make_flat_torus(128)
    h = metric.grid.h
    with pytest.raises(ResolutionError):
        green_pair_case1(np.array([0.5, 0.5]), np.array([0.5 + 8 * h, 0.5]), metric)


def test_expansion_mesh_refinement(pair1_128, pair1_256, pair1_512):
    # constant term stable to well under 3 significant digits across meshes
    vals = [p.expansions[(1, 0)].A for p in (pair1_128, pair1_256, pair1_512)]
    assert abs(vals[0] - vals[2]) < 1e-3 * abs(vals[2])
    assert abs(vals[1] - vals[2]) < 1e-3 * abs(vals[2])


def test_expansion_fit_quality(pair1_128):
    pair = pair1_128
    e = pair.expansions[(1, 0)]
    # the constant is not fitted: it is the regular part at the pole
    exact = pair.G1.eval_regular(pair.points[0][None, :], 0)[0]
    assert e.A == pytest.approx(exact, abs=1e-12)
    # re-fitting through the public entry point reproduces the cache
    again = local_expansion(pair, 1, pair.points[0])
    assert again.A == pytest.approx(e.A, abs=1e-12)


def test_local_expansion_argument_validation(pair1_128):
    with pytest.raises(ConfigError):
        local_expansion(pair1_128, 1, np.array([0.1, 0.9]))
    with pytest.raises(ConfigError):
        pair1_128.field(3)


def test_trace_identity_synthetic():
    # for pi |x|^2 plus anything harmonic the quadratic trace is exactly 2 pi
    e = LocalExpansion(a=0.0, A=1.0, lam=0.3, mu=-0.2, alpha=math.pi,
                       beta=math.pi, gamma=0.7)
    assert expansion_trace_residual(e) == 0.0


def test_charts_fitted_once_per_pole(monkeypatch):
    # the expansions evaluate phi off the grid once per pole, as one
    # direct sum of its value, gradient and Laplacian rows for the pole's
    # chart, and every user reads that chart from pair.charts; each
    # expansion reads its field's jet from one six-row direct sum of the
    # band, and nothing is evaluated through an oversampled grid
    grid = TorusGrid(64)
    X, Y = grid.mesh()
    metric = make_conformal_metric(ScalarField(
        grid, 0.5 * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)))
    pair = green_pair_case1((0.0, 0.0), (0.5, 0.5), metric)
    bands = [g.band.modes for g in (pair.G1, pair.G2)]
    direct, stacks, singles = [], [], []
    real_direct, real_stack = spectral.eval_modes_direct, \
        spectral.eval_modes_stack_at
    real_single = spectral.eval_at

    def counted_direct(grid, stack, p):
        first = ("phi" if np.array_equal(stack[0], metric.phi.modes) else
                 "band" if any(np.array_equal(stack[0], b) for b in bands)
                 else "other")
        direct.append((len(stack), first))
        return real_direct(grid, stack, p)

    def counted_stack(grid, stack, points, fine=None):
        stacks.append(np.array_equal(stack[0], metric.phi.modes))
        return real_stack(grid, stack, points, fine)

    def counted_single(field, pts):
        singles.append(field is metric.phi)
        return real_single(field, pts)

    monkeypatch.setattr(spectral, "eval_modes_direct", counted_direct)
    monkeypatch.setattr(spectral, "eval_modes_stack_at", counted_stack)
    monkeypatch.setattr(spectral, "eval_at", counted_single)
    extract_expansions(pair)
    assert sorted(direct) == [(4, "phi")] * 2 + [(6, "band")] * 4
    assert stacks == []
    assert singles == []
    monkeypatch.undo()
    assert sorted(pair.charts) == [0, 1]
    for i, p in enumerate(pair.points):
        assert pair.charts[i] == metric_expansion_at(metric, p)


def _expansion_pair(kind, n):
    """The flat pair (1/4, 1/4), (3/4, 3/4), the tilted cosine:0.5 pair
    (0.1, 0.3), (0.6, 0.7) or the cosine:0.1 one-point pair at (0.3, 0.6),
    unexpanded."""
    if kind == "flat":
        return green_pair_case1((0.25, 0.25), (0.75, 0.75),
                                make_flat_torus(n))
    if kind == "tilted":
        return green_pair_case1((0.1, 0.3), (0.6, 0.7), _cosine_metric(0.5, n))
    return green_pair_case2((0.3, 0.6), _cosine_metric(0.1, n))


@pytest.mark.parametrize("kind", ["flat", "tilted", "one-point"])
def test_expansions_build_no_oversampled_grid(kind, monkeypatch):
    # A and lambda to gamma come from one direct sum per expansion; an
    # oversampled grid (2n + 15)^2 per field would be built to read A alone
    pair = _expansion_pair(kind, 64)
    calls = []
    real = spectral._oversampled
    monkeypatch.setattr(spectral, "_oversampled",
                        lambda *args: calls.append(1) or real(*args))
    extract_expansions(pair)
    assert calls == []
    assert len(pair.expansions) == 2 * len(pair.points)


# lambda, mu, alpha, beta, gamma per (field, point) at n = 64, as the
# five-row derivative sum read them before the jet gained its value row
# (the flat pair's lambda and mu are round-off, so it has no entry).
# They take delta_p's modes from spectral's exact phases; a phase rounded
# once per product 2 pi k.p moves them by up to 1.8e-13 (tilted) and
# 5.8e-12 (one-point) absolute.  The one-point entries are those of e^s as
# exp of the field's grid values: G2's band holds the descent's state,
# which moves by round-off with its source (expansion_trace_residual)
JET_DERIVATIVES_64 = {
    "tilted": {
        (1, 0): (-0.07862217984561298, -0.25639039016171317,
                 2.7093273563020963, 3.57385795087747, -1.9149539571791074),
        (1, 1): (0.10255078677541896, -0.7560041866044793,
                 4.104482568297413, 2.178702738882251, -1.6880927089318907),
        (2, 0): (-0.07862217984561874, 1.6794384376149194,
                 4.365423316296985, 1.917761990882714, -1.9149539571791074),
        (2, 1): (0.10255078677541832, 0.9523587578423708,
                 2.8147137378119003, 3.46847156936766, -1.6880927089319397),
    },
    "one-point": {
        (1, 0): (0.04426792831142589, -0.023622522033954273,
                 3.16631237636975, 3.116872930809783, 0.48808997747109084),
        (2, 0): (-0.3190488284253062, 0.10317245902877706,
                 3.0791715532817916, 3.204013753898241, 0.0654294467148648),
    },
}


def _flat_pair_closing_constant():
    """C = -8 pi log pi - 8 pi - 4 pi A of the flat pair, from the theta
    function: A = 8 pi R - 4 pi G0(1/2, 1/2), where the zero-mean G0 is
    theta_green + log eta(i) / 2 pi, eta(i) = Gamma(1/4) / (2 pi^(3/4)),
    and R = -log(2 pi eta(i)^2) / 2 pi is ROBIN_FLAT."""
    with mpmath.workdps(40):
        eta = mpmath.gamma(mpmath.mpf(1) / 4) / (2 * mpmath.pi ** 0.75)
        robin = -mpmath.log(2 * mpmath.pi * eta ** 2) / (2 * mpmath.pi)
        z = mpmath.mpc(0.5, 0.5)
        g0 = (-mpmath.log(abs(mpmath.jtheta(1, mpmath.pi * z,
                                            mpmath.exp(-mpmath.pi)) / eta))
              / (2 * mpmath.pi) + mpmath.mpf(1) / 8)
        a = 8 * mpmath.pi * robin - 4 * mpmath.pi * g0
        return float(-8 * mpmath.pi * mpmath.log(mpmath.pi) - 8 * mpmath.pi
                     - 4 * mpmath.pi * a)


@pytest.mark.parametrize("kind, n", [
    ("flat", 64), ("flat", 128), ("flat", 512),
    ("tilted", 64), ("tilted", 128), ("tilted", 512), ("one-point", 64)])
def test_jet_constant_matches_eval_regular(kind, n):
    # A from the jet's direct sum against eval_regular's oversampled grid
    # at the pole: measured at most 8.9e-15 apart.  C = const - 2 pi
    # (A1 + A2) then moves by at most 4 pi 2e-14; on the flat pair the
    # jet's C lies within 7.3e-14 of the closed form (eval_regular's
    # within 6.3e-14).  The derivatives are those the five-row sum read.
    pair = _expansion_pair(kind, n)
    extract_expansions(pair)
    by_grid = {}
    for (k, i), e in pair.expansions.items():
        p, c = pair.points[i], pair.charts[i].scale
        by_grid[k, i] = (pair.field(k).eval_regular(p[None, :], i)[0]
                         - e.a * math.log(c))
        assert abs(e.A - by_grid[k, i]) < 2e-14, (k, i)
        if n == 64 and kind in JET_DERIVATIVES_64:
            got = (e.lam, e.mu, e.alpha, e.beta, e.gamma)
            want = JET_DERIVATIVES_64[kind][k, i]
            assert np.allclose(got, want, rtol=1e-15, atol=0.0), (k, i)
    if kind != "one-point":
        jet_c = lower_bound_case1(pair.expansions[(1, 0)].A,
                                  pair.expansions[(2, 1)].A)
        grid_c = lower_bound_case1(by_grid[1, 0], by_grid[2, 1])
        assert abs(jet_c - grid_c) < 4.0 * math.pi * 2e-14
    if kind == "flat":
        assert abs(jet_c - _flat_pair_closing_constant()) < 1e-13


def test_trace_identity_measured(pair1_128):
    # exact derivatives read at most 1.6e-12 here
    for key, e in pair1_128.expansions.items():
        assert expansion_trace_residual(e) < 1e-10, key


def test_expansion_rough_field_rejected():
    # phi = 0.5 cos(20 * 2 pi x) varies on a few cells: e^phi's modes
    # above n/3 reach 3.0e-2 of its largest at n = 64, so the metric is
    # rejected before any chart or expansion is kept
    grid = TorusGrid(64)
    X, _ = grid.mesh()
    metric = make_conformal_metric(
        ScalarField(grid, 0.5 * np.cos(20 * TWO_PI * X)))
    pair = green_pair_case1((0.25, 0.25), (0.75, 0.75), metric)
    with pytest.raises(AccuracyError, match="metric unresolved"):
        local_expansion(pair, 1, pair.points[0])
    assert pair.expansions == {}
    assert pair.charts == {}


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("poles", [((0.25, 0.25), (0.75, 0.75)),
                                   ((0.1, 0.3), (0.6, 0.7))])
def test_rough_metric_rejected_on_and_off_grid(n, poles):
    # the rejection reads the metric, not the poles: at the grid-aligned
    # pair the trace alpha + beta - 2 pi reads only 2.9e-9 at n = 64, as
    # e^phi's interpolant is exact on grid nodes
    grid = TorusGrid(n)
    X, _ = grid.mesh()
    metric = make_conformal_metric(
        ScalarField(grid, 0.5 * np.cos(20 * TWO_PI * X)))
    pair = green_pair_case1(*poles, metric)
    with pytest.raises(AccuracyError, match="metric unresolved"):
        extract_expansions(pair)


def _cosine_metric(amp, n):
    grid = TorusGrid(n)
    X, Y = grid.mesh()
    return make_conformal_metric(ScalarField(
        grid, amp * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("amp", [0.1, 0.5, 1.0])
def test_smooth_metric_accepted_at_coarse_grids(n, amp):
    # cosine:a reads at most 6.2e-6 at n = 16 and 2.5e-12 at n = 32
    metric = _cosine_metric(amp, n)
    # two poles need a separation of 16 h, out of reach at n = 16
    pair = (green_pair_case1((0.0, 0.0), (0.5, 0.5), metric) if n == 32
            else green_pair_case2((0.3, 0.6), metric,
                                  SolverOptions(max_iter=2)))
    extract_expansions(pair)
    assert len(pair.expansions) == 2 * len(pair.points)


def test_tilted_curved_pair_exact_across_grids():
    # on the cosine:0.5 pair (0.1, 0.3), (0.6, 0.7) the exact lambda of
    # G1 at p1 and the deficit coefficient do not move with n (spreads
    # 5.6e-14 and 1.5e-11 measured), and alpha + beta reads 2 pi within
    # 1.5e-12
    lams, coeffs = [], []
    for n in (64, 128, 256):
        pair = green_pair_case1((0.1, 0.3), (0.6, 0.7), _cosine_metric(0.5, n))
        extract_expansions(pair)
        for key, e in pair.expansions.items():
            assert expansion_trace_residual(e) < 1e-10, (n, key)
        lams.append(pair.expansions[(1, 0)].lam)
        coeffs.append(deficit_data(pair).coeff)
    assert abs(lams[0] - (-0.078622179846)) < 1e-11
    assert max(lams) - min(lams) < 1e-10
    assert max(coeffs) - min(coeffs) < 1e-9


@pytest.mark.parametrize("n, tol", [(64, 1e-10), (128, 1e-10), (256, 1e-9)])
def test_one_pole_curved_trace_exact(n, tol):
    # the cosine:0.1 one-point pair at (0.3, 0.6): 5.0e-12, 7.2e-13 and
    # 1.3e-10 at n = 64, 128 and 256.  At n = 256 the last is G2's, whose
    # band holds the descent's state: its round-off modes, 3e-17 above
    # n/3, times 4 pi^2 |k|^2 give 2.8e-10 of Delta_0 G2 at the pole
    pair = green_pair_case2((0.3, 0.6), _cosine_metric(0.1, n))
    extract_expansions(pair)
    assert pair.descent.converged
    for key, e in pair.expansions.items():
        assert expansion_trace_residual(e) < tol, key


def test_smooth_remainder_band_limited(pair1_512):
    # stored remainders must be grid-resolved: top-third modes negligible
    n = pair1_512.grid.n
    kx = np.abs(np.fft.fftfreq(n, 1.0 / n))
    ky = np.arange(n // 2 + 1)                   # the half-spectrum columns
    K = np.maximum(kx[:, None], ky[None, :])
    for g in (pair1_512.G1, pair1_512.G2):
        m = np.abs(g.band.modes)
        assert m[K > n // 3].max() < 1e-8 * m.max()


# --- single-point system ----------------------------------------------

# mean_G2 of the flat one-pole pair at (1/2, 1/2), n=64, from the
# 7062-step steepest descent that the Newton solve replaced
MEAN_G2_DESCENT = -0.6975385467490406


@pytest.mark.parametrize("n", [64, 128])
def test_case2_newton_converges_from_zero(n):
    pair = green_pair_case2(np.array([0.5, 0.5]), make_flat_torus(n))
    rep = pair.descent
    assert rep.converged and rep.stop_reason == "grad_tol"
    assert rep.grad_norm <= 1e-8
    assert rep.iterations <= 20
    assert np.all(np.diff(rep.energy_trace) <= 0.0)
    assert abs(pair.mean_G2 - MEAN_G2_DESCENT) < 1e-10


def test_case2_log_coefficients(pair2_256):
    assert pair2_256.expansions[(1, 0)].a == -4.0
    assert pair2_256.expansions[(2, 0)].a == 2.0


def test_case2_normalizations(pair2_256):
    metric = pair2_256.metric
    assert abs(integrate_values(pair2_256.exp_G2_values, metric) - 1.0) < 1e-6
    assert abs(pair2_256.G1.mean_dVg(metric)) < 1e-8
    assert pair2_256.mean_G2 == pytest.approx(
        pair2_256.G2.mean_dVg(metric), abs=1e-12)


def test_case2_mass_balance(pair2_256):
    # int (8 pi e^{G2} - 4 pi) dV_g = 4 pi, so the full right-hand side of
    # the first equation (with the 8 pi point source) integrates to zero
    metric = pair2_256.metric
    smooth_rhs = integrate_values(
        -4.0 * math.pi * pair2_256.exp_G2_values - 4.0 * math.pi, metric)
    assert abs(smooth_rhs + 8.0 * math.pi) < 1e-5


def test_case2_descent_report(pair2_256):
    rep = pair2_256.descent
    assert rep is not None
    assert rep.converged
    assert not rep.blown_up
    assert rep.grad_norm <= 1e-8
    trace = np.array(rep.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_case2_residuals_off_disc(pair2_256):
    res = equation_residuals(pair2_256, count=200)
    assert res["residual_G1"] < 1e-4
    assert res["residual_G2"] < 1e-4
    assert abs(res["exp_mean_G2"] - 1.0) < 1e-6


def test_case2_sup_bounded(pair2_256):
    # G2 = 2 log r + ... is bounded above on the torus
    pts = residual_sample_points(pair2_256, 200, seed=11, margin=2 * pair2_256.grid.h)
    assert np.max(pair2_256.G2.eval(pts)) < 10.0


def polar_quadrature(f, p, levels=27, radial=16, angular=64):
    """integral of f over the unit torus in polar coordinates about p: the
    four triangles with apex p over the sides of the square centred at p,
    Gauss-Legendre in angle and on radial panels halving toward p (the
    first below 2^-27), so a log r singularity at p costs no accuracy."""
    x, wx = np.polynomial.legendre.leggauss(radial)
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(levels, -1, -1.0)])
    lo, hi = edges[:-1, None], edges[1:, None]
    t = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    wt = (0.5 * (hi - lo) * wx).ravel()
    a, wa = np.polynomial.legendre.leggauss(angular)
    total = 0.0
    for j in range(4):
        th = j * math.pi / 2 + a * math.pi / 4
        edge = 0.5 / np.cos(th - j * math.pi / 2)       # distance to the side
        r = edge[:, None] * t[None, :]
        pts = np.stack([p[0] + r * np.cos(th)[:, None],
                        p[1] + r * np.sin(th)[:, None]], -1).reshape(-1, 2)
        jac = edge[:, None] ** 2 * t * wt * (wa * math.pi / 4)[:, None]
        total += float(np.sum(f(pts).reshape(r.shape) * jac))
    return total


def test_integral_against_matches_polar_quadrature():
    # the Parseval series over the half spectrum, with its column
    # weights, against a dense quadrature of field * weight; an off-grid
    # pole puts weight on every phase
    p = np.array([0.3, 0.55])
    pair = green_pair_case2(p, make_flat_torus(32))
    assert pair.descent.converged

    def weight(x, y):
        return np.exp(0.3 * np.cos(2 * np.pi * x)
                      + 0.2 * np.sin(2 * np.pi * (x + 2 * y)))

    X, Y = pair.metric.grid.mesh()
    for g in (pair.G1, pair.G2):
        ref = polar_quadrature(
            lambda q: g.eval(q) * weight(q[:, 0], q[:, 1]), p)
        assert abs(g.integral_against(weight(X, Y)) - ref) < 1e-12


@pytest.mark.parametrize("n", [16, 64, 128, 512])
def test_integral_against_cosine_matches_mpmath(n):
    # G0(., p) has modes e^{-2 pi i k.p} / (4 pi^2 |k|^2), so its integral
    # against cos 2 pi k.x is cos(2 pi k.p) / (4 pi^2 |k|^2), here up to
    # |k_x|, |k_y| = n/2 - 1 (measured at most 1.4e-17 from 40 digits)
    grid = TorusGrid(n)
    rng = np.random.default_rng(n)
    h = n // 2 - 1
    i = np.arange(n)
    for _ in range(3):
        p = rng.random(2)
        g = flat_green(p, grid)
        ks = [(h, h), (-h, h), (1, 0), (0, 1)]
        ks += [tuple(int(k) for k in rng.integers(-h, h + 1, 2))
               for _ in range(6)]
        for a, b in ks:
            if a == b == 0:
                continue
            w = np.cos(2 * np.pi * (((a * i[:, None] + b * i[None, :]) % n)
                                    / n))
            with mpmath.workdps(40):
                phase = a * mpmath.mpf(p[0]) + b * mpmath.mpf(p[1])
                ref = (mpmath.cos(2 * mpmath.pi * phase)
                       / (4 * mpmath.pi ** 2 * (a * a + b * b)))
            assert abs(g.integral_against(w) - float(ref)) < 1e-16, (p, a, b)


# --- exponential integral and culled image sums ------------------------

def e1_grid():
    """A dense grid of (0, 40] with both sides of every branch edge."""
    edges = np.array([0.5, 1.0, 2.0, 4.0, 10.0, 40.0])
    near = np.concatenate([np.nextafter(edges, 0.0), edges,
                           np.nextafter(edges, np.inf), edges * (1 - 1e-9),
                           edges * (1 + 1e-9)])
    z = np.concatenate([np.geomspace(1e-12, 1.0, 400),
                        np.linspace(1e-3, 40.0, 4000), near])
    return z[(z > 0.0) & (z <= 40.0)]


def test_exponential_integral_matches_mpmath():
    from todalab.greens import EULER_GAMMA, _e1_plus_log, _exp1

    z = e1_grid()
    with mpmath.workdps(40):
        e1 = [mpmath.e1(mpmath.mpf(float(x))) for x in z]
        refs = {
            _exp1: [float(v) for v in e1],
            _e1_plus_log: [float(v + mpmath.log(mpmath.mpf(float(x))))
                           for v, x in zip(e1, z)],
        }
    for fn, ref in refs.items():
        ref = np.array(ref)
        # E1 + log z changes sign near z = 0.68: there the error is taken
        # relative to the size of its parts, |E1 + log z| + gamma
        scale = np.abs(ref) + (EULER_GAMMA if fn is _e1_plus_log else 0.0)
        assert np.max(np.abs(fn(z) - ref) / scale) <= 2e-15, fn.__name__
    assert _exp1(np.array([0.0]))[0] == np.inf


def nine_image_terms(points, p, eta, offsets=None):
    """Every image's displacement, r^2 and r^2 / 2 eta^2, nothing culled."""
    from todalab.greens import _IMAGE_OFFSETS

    offsets = _IMAGE_OFFSETS if offsets is None else offsets
    d = (points - p + 0.5) % 1.0 - 0.5
    dall = d[:, None, :] + offsets[None, :, :]
    r2 = (dall ** 2).sum(axis=2)
    return dall, r2, r2 / (2.0 * eta * eta)


def image_batch(n, p, rng):
    """Random points, points across the cell edges, and points on, just
    inside and just outside the skip radius of the pole and its images."""
    from todalab.greens import _Z_SKIP, split_width

    r_skip = math.sqrt(2.0 * _Z_SKIP) * split_width(TorusGrid(n))
    th = rng.uniform(0.0, TWO_PI, 30)
    ring = np.concatenate([np.stack([np.cos(th), np.sin(th)], axis=1) * r
                           for r in r_skip * np.array([1 - 1e-12, 1.0,
                                                       1 + 1e-12])])
    edge = np.array([[1.0 - 1e-13, 0.3], [0.3, 1.0 - 1e-13], [1e-13, 0.7],
                     [-0.02, 0.5], [1.03, 1.01], [0.999, 0.001]])
    return np.concatenate([rng.random((200, 2)), edge, p + ring,
                           p + ring + np.array([1.0, 0.0])])


def box_decision(pts, p, eta, offsets=None):
    """The live offsets of pole p for a batch, decided as the batch
    driver decides them: from the box of the points, less p."""
    from todalab.greens import _IMAGE_OFFSETS, _box, _live_offsets

    lo, hi = _box(pts)
    return _live_offsets(lo - p, hi - p, eta,
                         _IMAGE_OFFSETS if offsets is None else offsets)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_culled_image_sums_match_nine_images(n):
    from todalab.greens import (_FAR_OFFSETS, _Z_SKIP, _e1_plus_log, _exp1,
                                _image_pass, SingularField, split_width)

    grid = TorusGrid(n)
    eta = split_width(grid)
    rng = np.random.default_rng(n)
    p = np.array([0.93, 0.11])
    pts = image_batch(n, p, rng)
    dall, r2, z = nine_image_terms(pts, p, eta)
    live = z < _Z_SKIP
    single = live.sum(axis=1) <= 1

    terms = np.where(live, _exp1(np.where(live, z, 1.0)), 0.0) / (4 * math.pi)
    got = _image_pass(pts, p, eta, box_decision(pts, p, eta), 0)[0]
    assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-15 * got)
    assert np.array_equal(got[single], terms.sum(axis=1)[single])

    w = np.where(live, -np.exp(-z) / (2 * math.pi * r2), 0.0)
    parts = w[:, :, None] * dall
    ref = parts.sum(axis=1)
    got = _image_pass(pts, p, eta, box_decision(pts, p, eta), 1)[1]
    scale = np.abs(parts).sum(axis=1)
    assert np.all(np.abs(got - ref) <= 1e-15 * scale)
    assert np.array_equal(got[single], ref[single])

    # the regular part of a unit pole with a zero band: the nearest image
    # plus (1/2 pi) log r, and the far images through the batch driver
    field = SingularField(grid, [p], [1.0],
                          np.zeros(grid.mode_shape, dtype=complex))
    d = (pts - p + 0.5) % 1.0 - 0.5
    z_near = (d ** 2).sum(axis=1) / (2 * eta * eta)
    _, _, z_far = nine_image_terms(pts, p, eta, _FAR_OFFSETS)
    far = np.where(z_far < _Z_SKIP, _exp1(np.minimum(z_far, _Z_SKIP)), 0.0)
    ref = (_e1_plus_log(z_near) + math.log(2 * eta * eta)) / (4 * math.pi) \
        + far.sum(axis=1) / (4 * math.pi)
    got = field.eval_regular(pts, 0)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    far_single = (z_far < _Z_SKIP).sum(axis=1) == 0
    assert np.array_equal(got[far_single], ref[far_single])


@pytest.mark.parametrize("n", [16, 32, 128])
def test_pole_source_exp_matches_nine_image_product(n):
    # e^s of the one-point G2's source s = -4 pi Ghat(., p), read as exp
    # of the field's grid values, against the product over every image
    # of exp(-E1(z)) times e^band: measured at most 9.3e-16 apart here.
    # exp turns s's rounding into |s| eps relative, so the gap grows with
    # |s| and n (1.4e-15 at n = 512, where |s| reaches 11)
    from todalab.greens import _exp1, _pole_source, split_width

    metric = _cosine_metric(0.5, n)
    grid = metric.grid
    eta = split_width(grid)
    for p in (np.array([0.93, 0.11]), np.array([0.5, 0.25])):
        _, s_band, es = _pole_source(p, metric)
        _, _, z = nine_image_terms(grid.points(), p, eta)
        with np.errstate(divide="ignore"):
            ref = (np.prod(np.exp(-_exp1(z)), axis=1).reshape(n, n)
                   * np.exp(spectral.to_values(s_band)))
        assert np.all(np.abs(es - ref) <= 1e-15 * ref)
    # the grid-aligned pole's node holds an exact zero, and only it
    at = (round(0.5 * n), round(0.25 * n))
    assert es[at] == 0.0
    assert np.count_nonzero(es == 0.0) == 1


@pytest.mark.parametrize("n", [16, 128])
def test_regular_part_over_batches_matches_nine_images(n):
    # more points than one batch holds, in a disc about p across the
    # wrap line x = 1, whose box reaches the other pole q as well
    from todalab.greens import (_FAR_OFFSETS, _IMAGE_CHUNK, _Z_SKIP,
                                _e1_plus_log, _exp1, SingularField,
                                split_width)

    grid = TorusGrid(n)
    eta = split_width(grid)
    rng = np.random.default_rng(400 + n)
    p, q = np.array([0.93, 0.11]), np.array([0.05, 0.15])
    pts = point_cluster(rng, p, 0.15, _IMAGE_CHUNK + 500)
    rows = np.array([1.0, 0.5])
    field = SingularField(grid, [p, q], rows,
                          np.zeros(grid.mode_shape, dtype=complex))
    for lo in range(0, pts.shape[0], _IMAGE_CHUNK):
        batch = pts[lo:lo + _IMAGE_CHUNK]
        assert np.any(batch[:, 0] >= 1.0) and np.any(batch[:, 0] < 1.0)
        assert box_decision(batch, q, eta).size > 0

    d = (pts - p + 0.5) % 1.0 - 0.5
    z_near = (d ** 2).sum(axis=1) / (2 * eta * eta)
    near = (_e1_plus_log(z_near) + math.log(2 * eta * eta)) / (4 * math.pi)
    _, _, z_far = nine_image_terms(pts, p, eta, _FAR_OFFSETS)
    far = np.where(z_far < _Z_SKIP, _exp1(np.minimum(z_far, _Z_SKIP)),
                   0.0).sum(axis=1) / (4 * math.pi)
    _, _, z_q = nine_image_terms(pts, q, eta)
    other = np.where(z_q < _Z_SKIP, _exp1(np.minimum(z_q, _Z_SKIP)),
                     0.0).sum(axis=1) / (4 * math.pi)
    ref = rows[0] * (near + far) + rows[1] * other
    got = field.eval_regular(pts, 0)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    assert np.max(other) > 1e-3


@pytest.mark.parametrize("n", [16, 32, 128])
def test_fused_image_pass_matches_nine_images(n):
    from todalab.greens import _Z_SKIP, _exp1, _image_pass, SingularField, \
        split_width

    grid = TorusGrid(n)
    eta = split_width(grid)
    rng = np.random.default_rng(100 + n)
    p = np.array([0.93, 0.11])
    pts = image_batch(n, p, rng)
    dall, r2, z = nine_image_terms(pts, p, eta)
    live = z < _Z_SKIP
    single = live.sum(axis=1) <= 1

    values, grads, hess = _image_pass(pts, p, eta,
                                      box_decision(pts, p, eta), 2)
    ref = (np.where(live, _exp1(np.where(live, z, 1.0)), 0.0)
           / (4 * math.pi)).sum(axis=1)
    assert np.all(np.abs(values - ref) <= 1e-15 * values)
    assert np.array_equal(values[single], ref[single])
    parts = np.where(live, -np.exp(-z) / (2 * math.pi * r2), 0.0)[:, :, None] \
        * dall
    ref = parts.sum(axis=1)
    assert np.all(np.abs(grads - ref) <= 1e-15 * np.abs(parts).sum(axis=1))
    assert np.array_equal(grads[single], ref[single])
    # second derivatives [xx, yy, xy] of each image, w - coef d_a d_b
    w = np.where(live, -np.exp(-z) / (2 * math.pi * r2), 0.0)
    coef = w * (2.0 / r2 + 1.0 / (eta * eta))
    dx, dy = dall[:, :, 0], dall[:, :, 1]
    for col, part in enumerate((w - coef * dx * dx, w - coef * dy * dy,
                                -coef * dx * dy)):
        ref = part.sum(axis=1)
        assert np.all(np.abs(hess[:, col] - ref)
                      <= 1e-15 * np.abs(part).sum(axis=1)), col
        assert np.array_equal(hess[single, col], ref[single]), col

    # a field's batched pass is the kernel's terms times the strengths,
    # for one row and for several
    q = np.array([0.4, 0.6])
    field = SingularField(grid, [p, q], [8 * math.pi, -4 * math.pi],
                          np.zeros(grid.mode_shape, dtype=complex))
    g_p, g_q = (_image_pass(pts, c, eta, box_decision(pts, c, eta), 1)[1]
                for c in (p, q))
    rows = np.array([[8 * math.pi, -4 * math.pi], [-4 * math.pi, 8 * math.pi]])
    for strengths in (None, rows):
        values, grads = field.image_gradients(pts, strengths)
        assert np.array_equal(values, field.image_values(pts, strengths))
        w = np.atleast_2d(field.strengths if strengths is None else strengths)
        ref = w[:, :1, None] * g_p + w[:, 1:, None] * g_q
        assert np.array_equal(grads, ref if strengths is not None else ref[0])
    assert np.array_equal(field.eval_gradient(pts),
                          field.image_gradients(pts)[1])


def polar_nodes(p, r, nth):
    """Pole p's polar nodes p + r_a (cos_b, sin_b), radii first, at nth
    midpoint angles, and the angles' cosines and sines."""
    th = (np.arange(nth) + 0.5) * (TWO_PI / nth)
    ct, st = np.cos(th), np.sin(th)
    pts = np.stack([(p[0] + np.outer(r, ct)).ravel(),
                    (p[1] + np.outer(r, st)).ravel()], axis=1)
    return pts, (ct, st)


@pytest.mark.parametrize("n", [32, 128])
def test_polar_near_image_matches_mpmath(n):
    # the nearest image from the radius alone: no ulp(p) / r cancellation,
    # and z = r^2 / 2 eta^2 carried as a double-double, so E1 and e^{-z},
    # which multiply z's error by z (42 at r = 0.2, n = 128), stay exact
    from todalab.greens import SingularField, _near_image, split_width

    grid = TorusGrid(n)
    eta = split_width(grid)
    r = np.geomspace(1e-8, 0.2, 120)
    mp_eta = mpmath.mpf(eta)
    ref_v, ref_d = [], []
    with mpmath.workdps(40):
        for x in r:
            z = mpmath.mpf(x) ** 2 / (2 * mp_eta ** 2)
            ref_v.append(mpmath.e1(z) / (4 * mpmath.pi))
            ref_d.append(-mpmath.exp(-z) / (2 * mpmath.pi * mpmath.mpf(x)))
    value, radial = _near_image(r, eta)
    assert np.all(np.abs(value - np.array(ref_v, dtype=float))
                  <= 1e-15 * np.array(ref_v, dtype=float))
    assert np.all(np.abs(radial - np.array(ref_d, dtype=float))
                  <= 1e-15 * np.abs(np.array(ref_d, dtype=float)))

    # and so do a one-pole field's polar values and gradients; the pole's
    # far images, at distance 0.8 or more, are below 1e-19 here
    p = np.array([0.93, 0.11])
    field = SingularField(grid, [p], [-4 * math.pi],
                          np.zeros(grid.mode_shape, dtype=complex))
    pts, (ct, st) = polar_nodes(p, r, 12)
    values, grads = field.image_gradients(pts, polar=(0, r, ct, st))
    s = -4 * math.pi
    for a, x in enumerate(r):
        v_ref = s * ref_v[a]
        got_v = values[a * 12:(a + 1) * 12]
        assert np.all(np.abs(got_v - float(v_ref))
                      <= 1e-15 * abs(float(v_ref)))
        g_ref = np.array([[float(s * ref_d[a] * mpmath.mpf(c)),
                           float(s * ref_d[a] * mpmath.mpf(t))]
                          for c, t in zip(ct, st)])
        err = np.linalg.norm(grads[a * 12:(a + 1) * 12] - g_ref, axis=1)
        assert np.all(err <= 1e-15 * abs(float(s * ref_d[a])))


@pytest.mark.parametrize("n, poles", [
    (32, ((0.93, 0.11), (0.4, 0.6))),       # far images in reach
    (128, ((0.3, 0.6), (0.43, 0.6))),       # the other pole in reach
    (128, ((0.01, 0.99), (0.5, 0.4))),      # a pole at the torus edge
], ids=["n32", "close-poles", "edge"])
def test_polar_images_match_nine_images(n, poles):
    from todalab.greens import (_FAR_OFFSETS, SingularField, _exp1,
                                split_width)

    grid = TorusGrid(n)
    eta = split_width(grid)
    poles = [np.array(p) for p in poles]
    rows = np.array([[8 * math.pi, -4 * math.pi], [-4 * math.pi, 8 * math.pi]])
    field = SingularField(grid, poles, rows[0],
                          np.zeros(grid.mode_shape, dtype=complex))
    # r >= 1e-2: closer in, the oracle's own error, about 1e-16 / r in
    # the wrapped displacement, dominates
    r = np.geomspace(1e-2, 0.45, 40)
    nth = 24
    for i in (0, 1):
        pts, (ct, st) = polar_nodes(poles[i], r, nth)
        polar = (i, r, ct, st)
        values, grads = field.image_gradients(pts, rows, polar)
        assert np.array_equal(values, field.image_values(pts, rows, polar))
        # the geometry exercises what its name says: pole i's far images,
        # or the other pole from the outer circles, within reach
        if n == 32:
            assert box_decision(pts, poles[i], eta, _FAR_OFFSETS).size
        if np.hypot(*((poles[0] - poles[1] + 0.5) % 1.0 - 0.5)) < 0.2:
            assert box_decision(pts[-nth * 10:], poles[1 - i], eta).size

        ref_v = ref_g = scale_v = scale_g = 0.0
        for j, p in enumerate(poles):
            dall, r2, z = nine_image_terms(pts, p, eta)
            v = _exp1(z) / (4 * math.pi)
            g = (-np.exp(-z) / (2 * math.pi * r2))[:, :, None] * dall
            w = rows[:, j:j + 1]
            ref_v = ref_v + w * v.sum(axis=1)
            ref_g = ref_g + w[:, :, None] * g.sum(axis=1)
            scale_v = scale_v + np.abs(w) * v.sum(axis=1)
            scale_g = scale_g + np.abs(w) * np.abs(g).sum(axis=(1, 2))
        # the oracle's displacement from pole i is off by up to 5e-16,
        # which moves V by 5e-16 / 2 pi r and grad V by 5e-16 / pi r^2
        rr = np.repeat(r, nth)
        s_i = np.abs(rows[:, i:i + 1])
        tol_v = 1e-15 * scale_v + s_i * 5e-16 / (TWO_PI * rr)
        tol_g = 1e-15 * scale_g + s_i * 5e-16 / (math.pi * rr ** 2)
        assert np.all(np.abs(values - ref_v) <= tol_v)
        assert np.all(np.linalg.norm(grads - ref_g, axis=2) <= tol_g)


def point_cluster(rng, center, radius, count=64):
    """Points in the disc of the given radius about center, with two of
    them on its rim along each axis, so the cluster's box is the disc's."""
    th = rng.uniform(0.0, TWO_PI, count)
    r = radius * np.sqrt(rng.random(count))
    pts = center + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    rim = center + radius * np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    return np.concatenate([pts, rim])


def hull_rule(d, eta):
    """The offsets kept by the bounding box of wrapped displacements d."""
    from todalab.greens import _IMAGE_OFFSETS, _Z_SKIP

    lo, hi = d.min(axis=0), d.max(axis=0)
    gap = np.maximum(np.maximum(lo + _IMAGE_OFFSETS, -(hi + _IMAGE_OFFSETS)),
                     0.0)
    z_min = (gap ** 2).sum(axis=1) / (2.0 * eta * eta)
    return _IMAGE_OFFSETS[z_min < _Z_SKIP * (1.0 + 1e-9)]


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_pole_skip_decides_as_live_images(n, monkeypatch):
    from todalab import greens
    from todalab.greens import (_IMAGE_OFFSETS, _Z_SKIP, _box,
                                _live_offsets, SingularField, split_width)

    grid = TorusGrid(n)
    eta = split_width(grid)
    r_skip = math.sqrt(2.0 * _Z_SKIP) * eta
    rng = np.random.default_rng(200 + n)
    p, q = np.array([0.93, 0.11]), np.array([0.25, 0.25])
    field = SingularField(grid, [q, p], [1.0, 1.0],
                          np.zeros(grid.mode_shape, dtype=complex))
    clusters = [point_cluster(rng, rng.uniform(-0.2, 1.2, 2),
                              rng.uniform(1e-4, 0.2)) for _ in range(300)]
    clusters += [rng.uniform(-0.3, 1.3, (50, 2)) for _ in range(20)]
    # clusters whose box lies just inside, on or just outside the skip
    # radius of p, and of p's image across the edge, within the margin
    for scale in (1 - 1e-8, 1 + 2e-10, 1 + 5e-10, 1 + 2e-9, 1 + 1e-8):
        for sign in (1.0, -1.0):
            c = p + sign * np.array([scale * r_skip + 1e-4, 0.0])
            clusters.append(point_cluster(rng, c, 1e-4))
            clusters.append(point_cluster(rng, c - np.array([1.0, 0.0]),
                                          1e-4))
    # around the antipode of p, where every box crosses p's wrap lines,
    # and along them, where one wrap line crosses the box
    clusters += [point_cluster(rng, p + 0.5, r) for r in (1e-3, 0.05, 0.2)]
    for t in np.linspace(-0.5, 0.5, 81):
        for r in (1e-3, 0.03):
            clusters.append(point_cluster(rng, p + [0.5, t], r))
            clusters.append(point_cluster(rng, p + [t, 0.5], r))
    # the offsets the batch driver hands the kernel, per pole
    handed = []
    kernel = greens._image_pass

    def recording(points, c, eta_, live, gradients):
        handed.append((c, live))
        return kernel(points, c, eta_, live, gradients)

    monkeypatch.setattr(greens, "_image_pass", recording)
    seen = {(cross, skip): 0 for cross in (False, True) for skip in (0, 1)}
    for pts in clusters:
        d = spectral.wrap_offset(pts - p)
        # the decision on the box of the displacements pts - p, and the
        # driver's on the points' box less p: one decision, because
        # rounding is monotone, min fl(x_i - p) = fl(min x_i - p)
        live = _live_offsets(*_box(pts - p), eta)
        assert np.array_equal(box_decision(pts, p, eta), live)
        # the driver skips p exactly when no image is live, and hands
        # the kernel these offsets otherwise
        handed.clear()
        field.image_values(pts)
        got = [o for c, o in handed if np.array_equal(c, p)]
        skip = not got
        assert skip == (live.size == 0)
        assert skip or np.array_equal(got[0], live)
        # a dropped image is out of reach of every point
        dropped = [o for o in _IMAGE_OFFSETS if not (live == o).all(1).any()]
        for o in dropped:
            z = ((d + o) ** 2).sum(axis=1) / (2.0 * eta * eta)
            assert np.all(z >= _Z_SKIP)
        # where no wrap line crosses the box, it is the wrapped points'
        # bounding box that decides, bit for bit
        raw = pts - p
        cross = bool(np.any(np.floor(raw.min(axis=0) + 0.5)
                            != np.floor(raw.max(axis=0) + 0.5)))
        if not cross:
            assert np.array_equal(live, hull_rule(d, eta))
        seen[(cross, int(skip))] += 1
    assert seen[(False, 0)] > 0 and seen[(True, 0)] > 0
    if n >= 64:
        assert seen[(False, 1)] > 0 and seen[(True, 1)] > 0


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("poles", [((0.3, 0.6), (0.8, 0.9)),
                                   ((0.25, 0.25), (0.75, 0.75))])
def test_pole_skip_is_bit_identical(n, poles, monkeypatch):
    from todalab import greens

    grid = TorusGrid(n)
    rng = np.random.default_rng(300 + n)
    p, q = (np.array(x) for x in poles)
    modes = (rng.standard_normal(grid.mode_shape)
             + 1j * rng.standard_normal(grid.mode_shape)) / (1.0 + grid.k2)
    field = greens.SingularField(grid, [p, q], [8 * math.pi, -4 * math.pi],
                                 modes, const=0.3)
    rows = np.array([[8 * math.pi, -4 * math.pi], [-4 * math.pi, 8 * math.pi]])
    batches = {
        # around either pole, where the other one is out of reach
        "near p": point_cluster(rng, p, 0.03, 500),
        "near q": point_cluster(rng, q, 0.05, 500),
        # across the torus edges, near and far from both poles
        "edge": point_cluster(rng, np.array([0.0, 0.05]), 0.04, 500),
        "corner": point_cluster(rng, np.array([1.0, 1.0]), 0.02, 500),
        "spread": rng.random((500, 2)),
        # more than one image batch
        "many": point_cluster(rng, q, 0.02, greens._IMAGE_CHUNK + 100),
    }

    # polar nodes around either pole, out to where the other is in reach
    r = np.geomspace(1e-6, 0.45, 120)
    polars = {}
    for i, c in enumerate((p, q)):
        pts, (ct, st) = polar_nodes(c, r, 96)       # two image batches
        polars[f"polar {i}"] = (pts, (i, r, ct, st))

    def passes():
        out = {}
        for name, pts in batches.items():
            out[name] = (field.eval(pts), field.eval_gradient(pts),
                         field.image_values(pts, rows),
                         *field.image_gradients(pts, rows))
        for name, (pts, polar) in polars.items():
            out[name] = (field.image_values(pts, rows, polar),
                         *field.image_gradients(pts, rows, polar),
                         field.image_values(pts, None, polar))
        return out

    # the driver decides once per pole and batch, so consecutive pairs of
    # decisions are one batch's; count the poles each batch keeps
    decide = greens._live_offsets
    sizes = []

    def counting(lo, hi, eta, offsets=greens._IMAGE_OFFSETS):
        out = decide(lo, hi, eta, offsets)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(greens, "_live_offsets", counting)
    got = passes()
    kept = {int(np.count_nonzero(sizes[k:k + 2]))
            for k in range(0, len(sizes), 2)}
    assert kept == {0, 1, 2}
    # the reference skips nothing and culls no image
    monkeypatch.setattr(greens, "_live_offsets",
                        lambda lo, hi, eta, offsets=greens._IMAGE_OFFSETS:
                        offsets)
    ref = passes()
    for name in got:
        for a, b in zip(got[name], ref[name]):
            assert np.array_equal(a, b), name
