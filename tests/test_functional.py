import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from todalab import functional, spectral
from todalab.errors import ConfigError, GridMismatchError
from todalab.functional import (
    CoupledEnergy,
    SolverOptions,
    TodaState,
    el_residual,
    minimize_phi_eps,
    phi_eps,
    phi_eps_functional,
    phi_eps_gradient,
    run_descent,
)
from todalab.geometry import make_flat_torus
from todalab.spectral import ScalarField, TorusGrid
from torus_integrals import integrate, phi_general

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def rand_smooth(grid, rng, kmax=3, amp=0.3):
    n = grid.n
    modes = np.zeros((n, n), dtype=complex)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky == 0:
                continue
            c = rng.normal() + 1j * rng.normal()
            modes[kx % n, ky % n] += c
            modes[-kx % n, -ky % n] += np.conj(c)
    f = ScalarField.from_modes(grid, modes[:, :n // 2 + 1])    # half layout
    return ScalarField(grid, amp * f.values / np.max(np.abs(f.values)))


def zero_state(grid, masses=(FOUR_PI, FOUR_PI)):
    z = ScalarField.constant(grid, 0.0)
    return TodaState(u=(z, z), masses=masses)


def normalized(fields, metric):
    """The fields shifted so that integral e^{u_i} dV_g = 1, by Phi_eps's
    own projection (any eps: the shift does not depend on it)."""
    u = phi_eps_functional(metric, 0.5).project(
        np.stack([f.values for f in fields]))
    return [ScalarField(fields[0].grid, x) for x in u]


# --- functionals ------------------------------------------------------

def test_phi_general_zero(flat64):
    st_ = zero_state(flat64.grid)
    assert abs(phi_general(st_, flat64)) < 1e-14


def test_phi_general_bessel_oracle(flat64):
    # u1 = 0.1 cos(2 pi x), u2 = 0, masses (4pi, 4pi):
    #   value = 0.02 pi^2 - 4 pi (log I0(0.2) + log I0(0.1))
    # since int_0^1 exp(c cos(2 pi x)) dx = I0(c).
    grid = flat64.grid
    X, _ = grid.mesh()
    u1 = ScalarField(grid, 0.1 * np.cos(TWO_PI * X))
    u2 = ScalarField.constant(grid, 0.0)
    state = TodaState(u=(u1, u2), masses=(FOUR_PI, FOUR_PI))
    got = phi_general(state, flat64)
    expect = 0.02 * math.pi ** 2 - FOUR_PI * (math.log(i0(0.2)) + math.log(i0(0.1)))
    assert abs(got - expect) < 1e-8 * abs(expect)


@settings(max_examples=15, deadline=None)
@given(st.floats(-30, 30), st.floats(-30, 30))
def test_shift_invariance(c1, c2):
    metric = make_flat_torus(32)
    grid = metric.grid
    rng = np.random.default_rng(42)
    u1 = rand_smooth(grid, rng)
    u2 = rand_smooth(grid, rng)
    base = phi_eps(u1, u2, 0.3, metric)
    shifted = phi_eps(ScalarField(grid, u1.values + c1),
                      ScalarField(grid, u2.values + c2), 0.3, metric)
    assert abs(shifted - base) < 1e-10 * max(1.0, abs(base), abs(c1), abs(c2))


def test_phi_eps_examples(flat64):
    grid = flat64.grid
    z = ScalarField.constant(grid, 0.0)
    assert phi_eps(z, z, 1.3, flat64) == 0.0
    rng = np.random.default_rng(1)
    u1 = rand_smooth(grid, rng)
    u2 = rand_smooth(grid, rng)
    assert phi_eps(u1, u2, 0.7, flat64) == phi_eps(u2, u1, 0.7, flat64)
    with pytest.raises(ConfigError):
        phi_eps(u1, u2, -0.1, flat64)
    with pytest.raises(ConfigError):
        phi_eps(u1, u2, FOUR_PI, flat64)


def test_phi_eps_matches_phi_general(flat64):
    # substitution v1 = (2 u1 + u2)/3, v2 = (u1 + 2 u2)/3 with equal
    # masses 4 pi - eps turns the general functional into the reduced one
    grid = flat64.grid
    rng = np.random.default_rng(8)
    for eps in (0.5, 2.0):
        u1 = rand_smooth(grid, rng)
        u2 = rand_smooth(grid, rng)
        direct = phi_eps(u1, u2, eps, flat64)
        v1 = ScalarField(grid, (2 * u1.values + u2.values) / 3.0)
        v2 = ScalarField(grid, (u1.values + 2 * u2.values) / 3.0)
        state = TodaState(u=(v1, v2), masses=(FOUR_PI - eps, FOUR_PI - eps))
        general = phi_general(state, flat64)
        assert abs(direct - general) < 1e-9 * max(1.0, abs(direct))


def test_gradient_zero_state(flat64):
    grid = flat64.grid
    z = ScalarField.constant(grid, 0.0)
    g1, g2 = phi_eps_gradient(z, z, 0.5, flat64)
    assert np.max(np.abs(g1.values)) < 1e-14
    assert np.max(np.abs(g2.values)) < 1e-14


def test_gradient_mean_zero(flat64):
    grid = flat64.grid
    rng = np.random.default_rng(10)
    u1 = rand_smooth(grid, rng)
    u2 = rand_smooth(grid, rng)
    g1, g2 = phi_eps_gradient(u1, u2, 0.9, flat64)
    assert abs(integrate(g1, flat64)) < 1e-12
    assert abs(integrate(g2, flat64)) < 1e-12


def test_gradient_matches_central_differences(flat64):
    grid = flat64.grid
    rng = np.random.default_rng(12)
    u1 = rand_smooth(grid, rng)
    u2 = rand_smooth(grid, rng)
    eps = 0.5
    g1, g2 = phi_eps_gradient(u1, u2, eps, flat64)
    for _ in range(2):
        d1 = rand_smooth(grid, rng, amp=1.0)
        d2 = rand_smooth(grid, rng, amp=1.0)
        t = 1e-4
        up = phi_eps(ScalarField(grid, u1.values + t * d1.values),
                     ScalarField(grid, u2.values + t * d2.values), eps, flat64)
        dn = phi_eps(ScalarField(grid, u1.values - t * d1.values),
                     ScalarField(grid, u2.values - t * d2.values), eps, flat64)
        fd = (up - dn) / (2 * t)
        inner = integrate(ScalarField(grid, g1.values * d1.values), flat64) \
            + integrate(ScalarField(grid, g2.values * d2.values), flat64)
        assert abs(fd - inner) < 1e-5 * max(1.0, abs(inner))


def test_el_residual_zero_state(flat64):
    z = ScalarField.constant(flat64.grid, 0.0)
    assert el_residual(z, z, 0.7, flat64) < 1e-12


def test_el_residual_requires_normalization(flat64):
    one = ScalarField.constant(flat64.grid, 1.0)
    z = ScalarField.constant(flat64.grid, 0.0)
    with pytest.raises(ConfigError):
        el_residual(one, z, 0.5, flat64)


def test_el_residual_matches_stencil():
    # independent 4th-order grid stencil; truncation ~ h^4 d^6 u ~ 1e-3
    # for modes up to 3 at n = 128
    metric = make_flat_torus(128)
    grid = metric.grid
    rng = np.random.default_rng(14)
    u1, u2 = normalized((rand_smooth(grid, rng), rand_smooth(grid, rng)),
                        metric)
    eps = 0.4
    got = el_residual(u1, u2, eps, metric)

    h = grid.h
    rho = FOUR_PI - eps
    sup = 0.0
    for f, other in ((u1, u2), (u2, u1)):
        v = f.values
        lap = np.zeros_like(v)
        for ax in (0, 1):
            lap += (-np.roll(v, -2, ax) + 16 * np.roll(v, -1, ax) - 30 * v
                    + 16 * np.roll(v, 1, ax) - np.roll(v, 2, ax)) / (12 * h * h)
        res = -lap - (2 * rho * np.exp(v) - rho * np.exp(other.values) - rho)
        sup = max(sup, float(np.max(np.abs(res))))
    assert abs(got - sup) < 1e-2


def test_normalize_state(flat64):
    grid = flat64.grid
    c = TodaState(u=(ScalarField.constant(grid, 2.0),
                     ScalarField.constant(grid, -1.5)),
                  masses=(FOUR_PI, FOUR_PI))
    for f in normalized(c.u, flat64):
        assert np.max(np.abs(f.values)) < 1e-14

    rng = np.random.default_rng(20)
    raw = TodaState(u=(rand_smooth(grid, rng), rand_smooth(grid, rng)),
                    masses=(FOUR_PI, FOUR_PI))
    before = phi_eps(raw.u[0], raw.u[1], 0.5, flat64)
    out = normalized(raw.u, flat64)
    for f in out:
        assert abs(integrate(ScalarField(grid, np.exp(f.values)), flat64) - 1.0) < 1e-12
    after = phi_eps(out[0], out[1], 0.5, flat64)
    assert abs(after - before) < 1e-10
    # idempotent
    again = normalized(out, flat64)
    assert np.max(np.abs(again[0].values - out[0].values)) < 1e-14


def test_minimize_from_zero(flat64):
    final, rep = minimize_phi_eps(zero_state(flat64.grid, (FOUR_PI - 0.5,) * 2),
                                  0.5, flat64)
    # constants are already critical: nothing to do
    assert rep.converged
    assert rep.iterations == 0
    assert rep.grad_norm <= 1e-8
    assert rep.el_residual < 1e-6
    assert rep.energy_trace[-1] <= 0.0
    assert rep.maxima == [0.0, 0.0]
    assert rep.s == [None, None]  # m_i = 0: undefined
    rec = rep.to_record()
    assert rec["s1"] is None and rec["max_u1"] == 0.0


def test_minimize_from_perturbed(flat64):
    check_minimize_from_perturbed(flat64)


def test_minimize_from_perturbed_curved():
    # on a curved metric the identity holds with Delta_g = e^{-phi}
    # Delta_0 pointwise; the dealiased product left el_residual at 4e-8
    check_minimize_from_perturbed(_cosine_metric(64))


def check_minimize_from_perturbed(metric):
    grid = metric.grid
    rng = np.random.default_rng(30)
    init = TodaState(u=(rand_smooth(grid, rng), rand_smooth(grid, rng)),
                     masses=(FOUR_PI - 0.5,) * 2)
    e0 = phi_eps(*normalized(init.u, metric), 0.5, metric)
    final, rep = minimize_phi_eps(init, 0.5, metric)
    assert rep.converged and rep.stop_reason == "grad_tol"
    assert not rep.blown_up
    assert rep.grad_norm <= 1e-8
    # the EL residual of field i is 2 g_i - g_j pointwise, g the L^2(dV_g)
    # gradient (not g_i itself, so el_residual may exceed grad_norm)
    u = [f.values for f in final.u]
    g = [x.values for x in phi_eps_gradient(*final.u, 0.5, metric)]
    rho = FOUR_PI - 0.5
    el = []
    for i, j in ((0, 1), (1, 0)):
        lap = spectral.laplacian0(final.u[i]).values / metric.weight
        res = -lap - (2 * rho * np.exp(u[i]) - rho * np.exp(u[j]) - rho)
        assert np.max(np.abs(res - (2 * g[i] - g[j]))) <= 1e-12
        el.append(np.max(np.abs(res)))
    assert rep.el_residual == pytest.approx(max(el), abs=1e-12)
    assert rep.el_residual <= 3.0 * rep.grad_norm + 1e-12
    trace = np.array(rep.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[0] == pytest.approx(e0, abs=1e-12)
    assert trace[-1] < trace[0]
    for f in final.u:
        assert abs(integrate(ScalarField(grid, np.exp(f.values)), metric) - 1.0) < 1e-10


def _descend_quadratic(grid, b, stiffness):
    """run_descent on E(x) = 1/2 int |grad x|^2 - int b x over mean-free
    fields, given stiffness * (-Delta) as the Hessian (the true one at
    stiffness 1)."""

    def minus_lap(h):
        return -spectral.to_values(grid.laplacian * spectral.to_modes(h))

    def energy_and_grad(state):
        u = state[0]
        return (0.5 * float(np.mean(u * minus_lap(u)))
                - float(np.mean(b * u))), [minus_lap(u) - b]

    return run_descent(
        [np.zeros((grid.n, grid.n))], grid, energy_and_grad,
        lambda state: [u - np.mean(u) for u in state],
        lambda state, grads: float(np.max(np.abs(grads[0]))),
        lambda state: 0.0, SolverOptions(),
        hessian=lambda state: lambda hm: -stiffness * grid.laplacian * hm)


def test_minimize_stagnation_is_flagged():
    # an over-stiff Hessian, 1e6 (-Delta), shrinks every Newton step a
    # millionfold; on a small quadratic each accepted decrease is then
    # about 1e-16, below the 1e-14 tie threshold, and the rule must stop
    # the loop and say so rather than spin to max_iter
    grid = TorusGrid(16)
    x, y = grid.mesh()
    b = 1e-4 * (np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * (x + 2 * y)))
    raw = _descend_quadratic(grid, b, 1e6)
    assert raw.stagnated and not raw.converged
    assert raw.stop_reason == "stagnation"
    assert raw.iterations == functional._STAGNATION_WINDOW
    assert raw.grad_norm > 1e-5
    steps = -np.diff(raw.energy_trace)
    assert np.all(steps >= 0.0)
    assert np.all(steps < functional._STAGNATION_DECREASE)


def test_minimize_eps_sweep_stays_bounded(flat64):
    # subcritical masses on a flat metric: no concentration anywhere
    grid = flat64.grid
    rng = np.random.default_rng(31)
    for eps in (1.0, 0.5, 0.25, 0.1):
        init = TodaState(u=(rand_smooth(grid, rng), rand_smooth(grid, rng)),
                         masses=(FOUR_PI - eps,) * 2)
        _, rep = minimize_phi_eps(init, eps, flat64)
        assert not rep.blown_up
        assert max(rep.maxima) < 5.0


def test_newton_descent_solves_a_quadratic_in_one_step():
    # the Hessian is -Delta, so one Newton-CG step lands on the minimizer
    grid = TorusGrid(16)
    x, y = grid.mesh()
    b = np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * (x + 2 * y))
    raw = _descend_quadratic(grid, b, 1.0)
    assert raw.converged and raw.stop_reason == "grad_tol"
    assert raw.iterations == 1
    assert raw.grad_norm < 1e-12
    exact = (np.cos(2 * np.pi * x)
             + 0.1 * np.sin(2 * np.pi * (x + 2 * y))) / (4.0 * np.pi ** 2)
    assert np.max(np.abs(raw.state[0] - exact)) < 1e-13


def test_ceiling_flags_blow_up(flat64):
    grid = flat64.grid
    X, _ = grid.mesh()
    init = TodaState(u=(ScalarField(grid, np.cos(TWO_PI * X)),
                        ScalarField.constant(grid, 0.0)),
                     masses=(FOUR_PI - 0.5,) * 2)
    _, rep = minimize_phi_eps(init, 0.5, flat64,
                              SolverOptions(ceiling=0.01, max_iter=50))
    assert rep.blown_up
    assert not rep.converged
    assert rep.stop_reason == "ceiling"
    assert rep.el_residual is None


def test_minimize_requires_positive_eps(flat64):
    with pytest.raises(ConfigError):
        minimize_phi_eps(zero_state(flat64.grid), 0.0, flat64)


def test_minimize_rejects_masses_other_than_four_pi_minus_eps(flat64):
    # Phi_eps fixes both masses at 4 pi - eps; a state that says otherwise
    # is refused, not minimized and returned with its masses unchanged
    for masses in [(1.0, 2.0), (FOUR_PI - 0.5, FOUR_PI),
                   (FOUR_PI - 0.5 + 1e-9, FOUR_PI - 0.5),
                   (math.nan, FOUR_PI - 0.5)]:
        with pytest.raises(ConfigError, match="4 pi - eps"):
            minimize_phi_eps(zero_state(flat64.grid, masses), 0.5, flat64)
    # 4 pi - eps to round-off is accepted, and the masses come back as given
    masses = (FOUR_PI - 0.5, (FOUR_PI - 0.5) * (1.0 + 1e-14))
    final, _ = minimize_phi_eps(zero_state(flat64.grid, masses), 0.5, flat64)
    assert final.masses == masses


def test_planted_lump_relaxes():
    # a concentrated lump at subcritical mass must spread back out
    metric = make_flat_torus(128)
    grid = metric.grid
    X, Y = grid.mesh()
    r2 = (X - 0.5) ** 2 + (Y - 0.5) ** 2
    s = 0.08
    lump = -2.0 * np.log(s ** 2 + math.pi * r2) + 2.0 * math.log(s ** 2 + math.pi * 0.25)
    init = TodaState(u=(ScalarField(grid, lump), ScalarField.constant(grid, 0.0)),
                     masses=(FOUR_PI - 0.5,) * 2)
    _, rep = minimize_phi_eps(init, 0.5, metric,
                              SolverOptions(max_iter=400, grad_tol=1e-8))
    trace = np.array(rep.energy_trace)
    assert not rep.blown_up
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] < 0.1 * trace[0]
    assert max(rep.maxima) < 0.25 * float(np.max(lump))


def test_phi_eps_is_the_core_energy_on_a_curved_metric():
    # the energy minimize_phi_eps descends on is phi_eps, by one formula,
    # so the two agree to the bit, not only to round-off
    metric = _cosine_metric(64)
    grid = metric.grid
    rng = np.random.default_rng(12)
    for _ in range(8):
        u1, u2 = rand_smooth(grid, rng), rand_smooth(grid, rng)
        energy, _ = phi_eps_functional(metric, 0.7).energy_and_grad(
            np.stack([u1.values, u2.values]))
        assert energy == phi_eps(u1, u2, 0.7, metric)


def _cosine_metric(n):
    from todalab.geometry import make_conformal_metric

    grid = TorusGrid(n)
    X, Y = grid.mesh()
    return make_conformal_metric(ScalarField(
        grid, 0.5 * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)))


def _check_hessian(energy):
    """energy.hessian, which acts on modes, against central differences of
    its gradient."""
    grid = energy.grid
    fields = energy.coupling.shape[0]
    rng = np.random.default_rng(40)
    u = np.stack([rand_smooth(grid, rng).values for _ in range(fields)])
    hvp = energy.hessian(u)
    t = 1e-5
    for _ in range(3):
        h = np.stack([rand_smooth(grid, rng, amp=1.0).values
                      for _ in range(fields)])
        h -= np.mean(h, axis=(-2, -1), keepdims=True)
        _, up = energy.energy_and_grad(u + t * h)
        _, dn = energy.energy_and_grad(u - t * h)
        fd = (up - dn) / (2 * t)
        got = spectral.to_values(hvp(spectral.to_modes(h)))
        assert np.max(np.abs(got - fd)) < 1e-8 * np.max(np.abs(got))


def test_phi_eps_hessian_matches_central_differences():
    _check_hessian(phi_eps_functional(_cosine_metric(32), 1.0))


@pytest.mark.parametrize("n", [32, 64])
def test_one_pole_hessian_matches_central_differences(n):
    # F(v) of greens.green_pair_case2: a = [[1]], m = 8 pi, c = e^s
    from todalab.greens import _pole_source

    metric = make_flat_torus(n)
    _, _, es = _pole_source(np.array([0.5, 0.5]), metric)
    _check_hessian(CoupledEnergy(metric.grid, ((1.0,),), 8.0 * math.pi,
                                 metric.weight, es))


def _values_newton_direction(grads, hvp, grid):
    """The values-space truncated PCG that _newton_direction replaced, as
    its reference: (I - Delta_0)^{-1} through a transform pair, np.mean
    inner products and mean-free projections, an (F, n, n) Hessian."""

    def precondition(g):
        return spectral.to_values(spectral.to_modes(g) / (1.0 - grid.laplacian))

    def mean_free(x):
        return x - np.mean(x, axis=(-2, -1), keepdims=True)

    def rms(x):
        return math.sqrt(float(np.mean(x * x)))

    b = -np.stack(grads)
    tol = max(functional._CG_RTOL * rms(b), functional._CG_ATOL)
    x = np.zeros_like(b)
    r = mean_free(b)
    z = mean_free(precondition(r))
    p, rz = z, float(np.mean(r * z))
    for k in range(functional._CG_MAX_ITER):
        hp = hvp(p)
        curv = float(np.mean(p * hp))
        if curv <= 0.0:
            if k == 0:
                x = z
            break
        alpha = rz / curv
        x = x + alpha * p
        r = mean_free(r - alpha * hp)
        if rms(r) <= tol:
            break
        z = mean_free(precondition(r))
        rz_next = float(np.mean(r * z))
        p, rz = z + (rz_next / rz) * p, rz_next
    return mean_free(x)


def _values_hessian(energy, u):
    """The Hessian-vector product on grid values at u, written out:
    -sum_j a_ij Delta_0 h_j - m (d_i h_i - d_i mean(d_i h_i))."""
    dens = energy._log_mean_and_density(u)[1]
    grid = energy.grid

    def hvp(h):
        lap = spectral.to_values(grid.laplacian * spectral.to_modes(h))
        dh = dens * h
        return -np.einsum("ij,j...->i...", energy.coupling, lap) - energy.mass * (
            dh - dens * np.mean(dh, axis=(-2, -1), keepdims=True))

    return hvp


def _seeded_curved_state():
    """Phi_eps at eps = 1 on cosine:0.5, n = 64, and a projected seeded
    smooth start of the kind minimize-curved descends from."""
    metric = _cosine_metric(64)
    x, y = metric.grid.mesh()
    base, pert = np.random.default_rng(20_190_000), np.random.default_rng(1)
    energy = phi_eps_functional(metric, 1.0)
    u = energy.project(np.stack([
        _smooth_start(base, x, y, 1.0) + _smooth_start(pert, x, y, 0.1)
        for _ in range(2)]))
    return energy, u


def _one_pole_start(n):
    """F(v) of greens.green_pair_case2 at a pole (0.5, 0.5) on the flat
    torus, and its start v = 0."""
    from todalab.greens import _pole_source

    metric = make_flat_torus(n)
    _, _, es = _pole_source(np.array([0.5, 0.5]), metric)
    energy = CoupledEnergy(metric.grid, ((1.0,),), 8.0 * math.pi,
                           metric.weight, es)
    return energy, energy.project(np.zeros((1, n, n)))


@pytest.mark.parametrize("case", ["curved", "one_pole"])
def test_mode_space_direction_matches_values_space_cg(case):
    # the mode-space CG runs the same iteration as the values-space one,
    # so the two directions agree to round-off, far inside 1e-10
    energy, u = _seeded_curved_state() if case == "curved" else _one_pole_start(64)
    _, grads = energy.energy_and_grad(u)
    got = functional._newton_direction(grads, energy.hessian(u), energy.grid)
    ref = _values_newton_direction(grads, _values_hessian(energy, u),
                                   energy.grid)
    assert got.shape == ref.shape == u.shape
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(np.mean(got, axis=(-2, -1)))) <= 1e-15 * np.max(np.abs(ref))


def test_cg_iteration_makes_two_transforms(monkeypatch):
    # one to_values and one to_modes per Hessian product, which CG makes
    # once an iteration, plus the gradient's to_modes and the direction's
    # to_values once a Newton step
    energy, u = _seeded_curved_state()
    _, grads = energy.energy_and_grad(u)
    hvp = energy.hessian(u)
    calls = {"transforms": 0, "hvp": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for name in ("to_modes", "to_values"):
        monkeypatch.setattr(spectral, name,
                            counted(getattr(spectral, name), "transforms"))
    functional._newton_direction(grads, counted(hvp, "hvp"), energy.grid)
    assert calls["hvp"] >= 4
    assert calls["transforms"] == 2 * calls["hvp"] + 2


def _smooth_start(rng, x, y, scale):
    """Cosines with |k|_inf <= 3, amplitude scale / |k|^2, random phases."""
    out = np.zeros_like(x)
    for a in range(-3, 4):
        for b in range(0, 4):
            if b > 0 or a > 0:
                out += scale / (a * a + b * b) * np.cos(
                    TWO_PI * (a * x + b * y) + rng.uniform(0.0, TWO_PI))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_minimize_curved_converges_by_newton(seed):
    # cosine:0.5, eps = 1, n = 64 from a smooth profile plus a seeded
    # perturbation a tenth its size: Newton-CG reaches the default 1e-8
    # in a few steps, the energy never rises, and every start ends on the
    # same minimizer, not on the critical point u = 0
    metric = _cosine_metric(64)
    grid = metric.grid
    x, y = grid.mesh()
    base, pert = np.random.default_rng(20_190_000), np.random.default_rng(seed)
    u = [_smooth_start(base, x, y, 1.0) + _smooth_start(pert, x, y, 0.1)
         for _ in range(2)]
    init = TodaState(u=tuple(ScalarField(grid, v) for v in u),
                     masses=(FOUR_PI - 1.0,) * 2)
    _, rep = minimize_phi_eps(init, 1.0, metric)
    assert rep.converged and rep.stop_reason == "grad_tol"
    assert rep.grad_norm <= 1e-8
    assert 1 <= rep.iterations <= 20
    assert np.all(np.diff(rep.energy_trace) <= 0.0)
    assert abs(rep.energy_trace[-1] - (-1.2130302810)) < 1e-9


def test_state_validation(flat64):
    z64 = ScalarField.constant(TorusGrid(64), 0.0)
    z32 = ScalarField.constant(TorusGrid(32), 0.0)
    with pytest.raises(GridMismatchError):
        TodaState(u=(z64, z32), masses=(FOUR_PI, FOUR_PI))
    with pytest.raises(ConfigError):
        TodaState(u=(z64, z64), masses=(FOUR_PI,))
    with pytest.raises(ConfigError):
        minimize_phi_eps(TodaState(u=(z64,), masses=(FOUR_PI,)), 0.5, flat64)
