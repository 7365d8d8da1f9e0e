"""End-to-end acceptance gate.

Ten timed checks covering the bubble identities, the annulus capacity,
the Green-function data on the torus, consistency of the energy
functionals, the minimizer, and the deficit asymptotics of the planted
test functions.  Each test prints exactly one summary line (visible
with -s or -rA) stating pass/fail, the measured quantities, and the
elapsed time against the stated budget.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

from todalab.bubble import (CapacityProblem, bubble_dirichlet_energy,
                            bubble_mass, bubble_pde_residual, capacity_energy,
                            lower_bound_case1)
from todalab.diagnostics import sweep
from todalab.functional import (SolverOptions, TodaState, el_residual,
                                minimize_phi_eps, phi_eps, phi_eps_gradient)
from todalab.geometry import make_flat_torus
from todalab.greens import (equation_residuals, extract_expansions,
                            green_pair_case1, green_pair_case2,
                            residual_sample_points)
from todalab.spectral import ScalarField
from todalab.testfn import (DEFAULT_EPS_LIST, asymptotic_fit_case1,
                            asymptotic_fit_case2)
from torus_integrals import integrate, phi_general

PI = math.pi
FOUR_PI = 4.0 * math.pi
P1 = np.array([0.25, 0.25])
P2 = np.array([0.75, 0.75])
PC = np.array([0.5, 0.5])
L_SET = (0.5, 1.0, 2.0, 5.0, 10.0)


def report(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{num:>2}] {label}: {status} ({detail}) "
          f"t={elapsed:.2f}s (budget {budget:.0f}s)")


def rand_smooth(grid, rng, kmax=3, amp=0.3):
    x = np.arange(grid.n) / grid.n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros_like(xx)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            c, s = rng.normal(size=2) * amp / (1 + kx * kx + ky * ky)
            ang = 2 * PI * (kx * xx + ky * yy)
            vals += c * np.cos(ang) + s * np.sin(ang)
    return ScalarField(grid, vals)


def test_criterion_01_bubble_energy():
    t0 = time.perf_counter()
    worst = 0.0
    for L in L_SET:
        closed = bubble_dirichlet_energy(L)
        integrand = lambda r: (16 * PI ** 2 * r ** 2
                               / (1 + PI * r ** 2) ** 2) * 2 * PI * r
        val, _ = quad(integrand, 0.0, L, epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(closed - val) / abs(val))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 1.0
    report(1, "bubble Dirichlet energy vs radial quadrature", ok,
           f"max rel err {worst:.2e}", dt, 1.0)
    assert worst < 1e-8
    assert dt < 1.0


def test_criterion_02_bubble_mass():
    t0 = time.perf_counter()
    worst = 0.0
    for L in L_SET:
        closed = bubble_mass(L)
        integrand = lambda r: 2 * PI * r / (1 + PI * r ** 2) ** 2
        val, _ = quad(integrand, 0.0, L, epsabs=5e-13, epsrel=5e-13)
        worst = max(worst, abs(closed - val) / abs(val))
    tail = abs(bubble_mass(1e3) - 1.0)
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and tail < 1e-6 and dt < 1.0
    report(2, "bubble mass vs radial quadrature, limit to 1", ok,
           f"max rel err {worst:.2e}, tail gap {tail:.2e}", dt, 1.0)
    assert worst < 1e-10
    assert tail < 1e-6
    assert dt < 1.0


def test_criterion_03_bubble_pde():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-30.0, 30.0, size=(10 ** 6, 2))
    sup = float(np.max(np.abs(bubble_pde_residual(pts))))
    dt = time.perf_counter() - t0
    ok = sup < 1e-5 and dt < 10.0
    report(3, "bubble equation residual at 1e6 points", ok,
           f"sup {sup:.2e}", dt, 10.0)
    assert sup < 1e-5
    assert dt < 10.0


def test_criterion_04_capacity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        rho = rng.uniform(0.005, 0.02)
        delta = rng.uniform(0.1, 0.3)
        prob = CapacityProblem(a=a, b=b, rho=rho, delta=delta)
        closed = capacity_energy(prob)

        nodes = 10_000
        r = np.linspace(rho, delta, nodes)
        dr = r[1] - r[0]
        ri = r[1:-1]
        lower = 1.0 / dr ** 2 - 1.0 / (2 * dr * ri)
        diag = np.full(nodes - 2, -2.0 / dr ** 2)
        upper = 1.0 / dr ** 2 + 1.0 / (2 * dr * ri)
        ab_mat = np.zeros((3, nodes - 2))
        ab_mat[0, 1:] = upper[:-1]
        ab_mat[1, :] = diag
        ab_mat[2, :-1] = lower[1:]
        rhs = np.zeros(nodes - 2)
        rhs[0] -= lower[0] * a
        rhs[-1] -= upper[-1] * b
        u = np.empty(nodes)
        u[0], u[-1] = a, b
        u[1:-1] = solve_banded((1, 1), ab_mat, rhs)
        du = np.gradient(u, r)
        fd = np.trapezoid(du ** 2 * 2 * PI * r, r)
        worst = max(worst, abs(closed - fd) / abs(fd))
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and dt < 5.0
    report(4, "annulus capacity vs radial finite differences", ok,
           f"max rel err {worst:.2e}", dt, 5.0)
    assert worst < 1e-4
    assert dt < 5.0


def test_criterion_05_green_case1_residuals():
    t0 = time.perf_counter()
    metric = make_flat_torus(512)
    pair = green_pair_case1(P1, P2, metric)
    res = equation_residuals(pair, count=500)
    sup = max(res["residual_G1"], res["residual_G2"])
    means = max(abs(res["mean_G1"]), abs(res["mean_G2"]))
    swapped = green_pair_case1(P2, P1, metric)
    pts = residual_sample_points(pair, 1000)
    swap_gap = max(
        float(np.max(np.abs(swapped.G1.eval(pts) - pair.G2.eval(pts)))),
        float(np.max(np.abs(swapped.G2.eval(pts) - pair.G1.eval(pts)))))
    dt = time.perf_counter() - t0
    ok = sup < 1e-4 and means < 1e-8 and swap_gap < 1e-10 and dt < 30.0
    report(5, "separated-pole Green equations at n=512", ok,
           f"eq sup {sup:.2e}, mean {means:.2e}, swap {swap_gap:.2e}",
           dt, 30.0)
    assert sup < 1e-4
    assert means < 1e-8
    assert swap_gap < 1e-10
    assert dt < 30.0


def test_criterion_06_quadratic_trace():
    t0 = time.perf_counter()
    traces = []
    for n in (128, 256, 512):
        pair = green_pair_case1(P1, P2, make_flat_torus(n))
        extract_expansions(pair)
        traces.append(max(abs(e.alpha + e.beta - 2 * PI)
                          for e in pair.expansions.values()))
    dt = time.perf_counter() - t0
    ok = max(traces) < 1e-10 and dt < 120.0
    report(6, "quadratic trace alpha+beta vs 2*pi", ok,
           "residuals " + ", ".join(f"{t:.2e}" for t in traces)
           + " over n=128/256/512", dt, 120.0)
    # exact derivatives leave round-off, which grows with n: 1.6e-12,
    # 2.5e-12 and 1.2e-11 measured, so the residuals need not decrease
    assert max(traces) < 1e-10
    assert dt < 120.0


def test_criterion_07_functional_consistency():
    t0 = time.perf_counter()
    metric = make_flat_torus(64)
    grid = metric.grid
    rng = np.random.default_rng(11)

    subst_worst = 0.0
    for _ in range(20):
        eps = float(rng.uniform(0.05, 2.0))
        u1 = rand_smooth(grid, rng)
        u2 = rand_smooth(grid, rng)
        direct = phi_eps(u1, u2, eps, metric)
        v1 = ScalarField(grid, (2 * u1.values + u2.values) / 3.0)
        v2 = ScalarField(grid, (u1.values + 2 * u2.values) / 3.0)
        state = TodaState(u=(v1, v2), masses=(FOUR_PI - eps, FOUR_PI - eps))
        general = phi_general(state, metric)
        subst_worst = max(subst_worst,
                          abs(direct - general) / max(1.0, abs(direct)))

    u1 = rand_smooth(grid, rng)
    u2 = rand_smooth(grid, rng)
    base = phi_eps(u1, u2, 0.7, metric)
    shifted = phi_eps(ScalarField(grid, u1.values + 5.3),
                      ScalarField(grid, u2.values - 2.1), 0.7, metric)
    shift_gap = abs(base - shifted) / max(1.0, abs(base))

    grad_worst = 0.0
    g1, g2 = phi_eps_gradient(u1, u2, 0.7, metric)
    for _ in range(3):
        d1 = rand_smooth(grid, rng, amp=1.0)
        d2 = rand_smooth(grid, rng, amp=1.0)
        t = 1e-4
        up = phi_eps(ScalarField(grid, u1.values + t * d1.values),
                     ScalarField(grid, u2.values + t * d2.values), 0.7, metric)
        dn = phi_eps(ScalarField(grid, u1.values - t * d1.values),
                     ScalarField(grid, u2.values - t * d2.values), 0.7, metric)
        fd = (up - dn) / (2 * t)
        inner = integrate(ScalarField(grid, g1.values * d1.values), metric) \
            + integrate(ScalarField(grid, g2.values * d2.values), metric)
        grad_worst = max(grad_worst, abs(fd - inner) / max(1.0, abs(inner)))
    dt = time.perf_counter() - t0
    ok = subst_worst < 1e-9 and shift_gap < 1e-12 and grad_worst < 1e-5 \
        and dt < 60.0
    report(7, "reduced vs general functional, shifts, gradient", ok,
           f"subst {subst_worst:.2e}, shift {shift_gap:.2e}, "
           f"grad {grad_worst:.2e}", dt, 60.0)
    assert subst_worst < 1e-9
    assert shift_gap < 1e-12
    assert grad_worst < 1e-5
    assert dt < 60.0


def test_criterion_08_minimizer():
    t0 = time.perf_counter()
    metric = make_flat_torus(256)
    grid = metric.grid
    zero = ScalarField.constant(grid, 0.0)
    init = TodaState(u=(zero, zero), masses=(FOUR_PI - 0.5, FOUR_PI - 0.5))
    final, rep = minimize_phi_eps(init, 0.5, metric, SolverOptions())
    monotone = all(b <= a + 1e-12 for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))
    el = el_residual(final.u[0], final.u[1], 0.5, metric)
    classes = [r.classification
               for r in sweep((1.0, 0.5, 0.25, 0.1, 0.05), metric)]
    dt = time.perf_counter() - t0
    ok = monotone and rep.grad_norm < 1e-8 and el < 1e-6 \
        and classes == ["converged"] * 5 and dt < 600.0
    report(8, "minimizer at eps=0.5 and sweep classification", ok,
           f"monotone={monotone}, grad {rep.grad_norm:.2e}, EL {el:.2e}, "
           f"sweep {'/'.join(classes)}", dt, 600.0)
    assert monotone
    assert rep.grad_norm < 1e-8
    assert el < 1e-6
    assert classes == ["converged"] * 5
    assert dt < 600.0


# The deficit argument promises phi0 < C only for eps small enough; at
# these three couplings, below the prescribed list, the gap is negative.
EPS_TAIL = (10.0 ** -4.5, 1e-5, 10.0 ** -5.5)


def test_criterion_09_deficit_asymptotics():
    t0 = time.perf_counter()
    metric = make_flat_torus(512)
    pair = green_pair_case1(P1, P2, metric)
    extract_expansions(pair)
    rep = asymptotic_fit_case1(pair, metric, DEFAULT_EPS_LIST + EPS_TAIL)
    dt = time.perf_counter() - t0

    tail = rep.rows[len(DEFAULT_EPS_LIST):]
    below = all(row["remainder"] < 0.0 for row in tail)
    target = rep.target_slope
    window = 0.2 * abs(target)
    slope_ok = abs(rep.fitted_slope - target) < window
    stderr_ok = rep.slope_stderr < window
    ok = below and slope_ok and stderr_ok and dt < 600.0
    detail = ", ".join(f"eps={row['eps']:.1e}: gap {row['remainder']:+.3e}"
                       for row in rep.rows)
    report(9, "planted profiles vs separated-pole energy bound", ok,
           f"{detail}; slope {rep.fitted_slope:+.3f} +/- "
           f"{rep.slope_stderr:.3f} vs target {target:+.3f} +/- {window:.3f}",
           dt, 600.0)
    assert below, (
        "energies of the planted profiles sit above the closed-form bound "
        f"at small eps (gaps {[r['remainder'] for r in tail]})")
    assert slope_ok, (
        f"fitted slope {rep.fitted_slope:+.4f} outside "
        f"[{target - window:.4f}, {target + window:.4f}]")
    assert stderr_ok, (
        f"slope standard error {rep.slope_stderr:.4f} not below the "
        f"window {window:.4f}")
    assert dt < 600.0


def test_criterion_10_single_pole_pipeline():
    t0 = time.perf_counter()
    metric = make_flat_torus(256)
    pair = green_pair_case2(PC, metric)
    solve = pair.descent
    if not solve.converged:
        dt = time.perf_counter() - t0
        report(10, "single-pole pipeline", False,
               f"nonlinear Green solve stopped on {solve.stop_reason} after "
               f"{solve.iterations} iterations at gradient "
               f"{solve.grad_norm:.2e}", dt, 900.0)
    assert solve.converged, (
        f"nonlinear Green solve did not converge ({solve.stop_reason})")
    extract_expansions(pair)
    res = equation_residuals(pair, count=500)
    sup = max(res["residual_G1"], res["residual_G2"])
    exp_gap = abs(res["exp_mean_G2"] - 1.0)
    rep = asymptotic_fit_case2(pair, metric, DEFAULT_EPS_LIST)
    vals = [row["phi0"] for row in rep.rows]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    dt = time.perf_counter() - t0
    ok = sup < 1e-4 and exp_gap < 1e-6 and decreasing and dt < 900.0
    report(10, "single-pole pipeline", ok,
           f"{solve.iterations} Newton steps, eq sup {sup:.2e}, "
           f"exp-mass gap {exp_gap:.2e}, energies decreasing={decreasing}",
           dt, 900.0)
    assert sup < 1e-4
    assert exp_gap < 1e-6
    assert decreasing
    assert dt < 900.0
