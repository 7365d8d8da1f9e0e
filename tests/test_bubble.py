import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from todalab.bubble import (
    CapacityProblem,
    bubble_dirichlet_energy,
    bubble_mass,
    bubble_pde_residual,
    bubble_profile,
    bubble_profile_r,
    capacity_energy,
    capacity_minimizer,
    case2_closing_constant,
    lower_bound_case1,
    lower_bound_case2,
)
from todalab.errors import ConfigError

PI = math.pi


def grad_sq(r):
    # |d/dr (-2 log(1 + pi r^2))|^2 = 16 pi^2 r^2 / (1 + pi r^2)^2
    return 16 * PI ** 2 * r ** 2 / (1 + PI * r ** 2) ** 2


def radial_laplace_fd(prob, nodes=10_000):
    """Independent oracle: solve u'' + u'/r = 0 on [rho, delta] by second-order
    finite differences and return the Dirichlet energy of the solution."""
    r = np.linspace(prob.rho, prob.delta, nodes)
    dr = r[1] - r[0]
    m = nodes - 2
    ri = r[1:-1]
    lower = 1.0 / dr ** 2 - 1.0 / (2 * dr * ri)
    diag = np.full(m, -2.0 / dr ** 2)
    upper = 1.0 / dr ** 2 + 1.0 / (2 * dr * ri)
    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    rhs = np.zeros(m)
    rhs[0] -= lower[0] * prob.a
    rhs[-1] -= upper[-1] * prob.b
    u = np.empty(nodes)
    u[0], u[-1] = prob.a, prob.b
    u[1:-1] = solve_banded((1, 1), ab, rhs)
    du = np.gradient(u, r)
    return np.trapezoid(du ** 2 * 2 * PI * r, r), r, u


def test_profile_values():
    assert bubble_profile(np.array([0.0, 0.0])) == 0.0
    x = np.array([1.0, 0.0])
    assert abs(bubble_profile(x) - (-2 * math.log(1 + PI))) < 1e-15
    # profile is radial: agree with the radial form on random points
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert np.allclose(bubble_profile(pts), bubble_profile_r(r), atol=1e-14)
    # maximum at the origin
    assert np.all(bubble_profile(pts) <= 0.0)


def test_profile_pde_residual():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3.0, 3.0, size=(10_000, 2))
    res = bubble_pde_residual(pts, h=1e-3)
    assert np.max(np.abs(res)) < 1e-5


def test_dirichlet_energy_closed_form():
    assert bubble_dirichlet_energy(0.0) == 0.0
    for L in (0.5, 1.0, 2.0):
        oracle, err = quad(lambda r: grad_sq(r) * 2 * PI * r, 0.0, L,
                           epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        got = bubble_dirichlet_energy(L)
        assert abs(got - oracle) < 1e-8 * abs(oracle)


def test_dirichlet_energy_increasing_with_matching_derivative():
    L = 1.7
    d = 1e-5
    num = (bubble_dirichlet_energy(L + d) - bubble_dirichlet_energy(L - d)) / (2 * d)
    expect = grad_sq(L) * 2 * PI * L
    assert abs(num - expect) < 1e-6 * expect
    Ls = np.linspace(0.1, 10.0, 40)
    vals = [bubble_dirichlet_energy(t) for t in Ls]
    assert np.all(np.diff(vals) > 0)


def test_mass_values():
    assert bubble_mass(0.0) == 0.0
    assert abs(bubble_mass(1.0) - PI / (1 + PI)) < 1e-14
    oracle, _ = quad(lambda r: 2 * PI * r / (1 + PI * r ** 2) ** 2, 0.0, 1.0,
                     epsabs=1e-14, epsrel=1e-14)
    assert abs(bubble_mass(1.0) - oracle) < 1e-10 * oracle
    # total mass of the entire-plane profile is 1, approached from below
    assert abs(bubble_mass(1e3) - 1.0) < 1e-6
    assert bubble_mass(1e3) < 1.0


def test_mass_complement_identity():
    for L in (0.0, 0.3, 1.0, 7.0, 123.0):
        assert bubble_mass(L) + 1.0 / (1 + PI * L ** 2) == pytest.approx(1.0, abs=1e-15)


def test_capacity_formula_against_radial_fd():
    prob = CapacityProblem(a=1.0, b=0.0, rho=0.01, delta=0.1)
    closed = capacity_energy(prob)
    fd_energy, r, u = radial_laplace_fd(prob)
    assert abs(fd_energy - closed) < 1e-4 * abs(closed)
    # the FD solution tracks the log-harmonic minimizer
    mid = capacity_minimizer(prob, r)
    assert np.max(np.abs(u - mid)) < 1e-4


def test_capacity_trivia():
    prob = CapacityProblem(a=2.5, b=2.5, rho=0.01, delta=0.2)
    assert capacity_energy(prob) == 0.0
    with pytest.raises(ConfigError):
        CapacityProblem(a=1.0, b=0.0, rho=0.2, delta=0.1)
    with pytest.raises(ConfigError):
        CapacityProblem(a=1.0, b=0.0, rho=0.0, delta=0.1)


def test_capacity_minimizer_boundary_and_midpoint():
    prob = CapacityProblem(a=1.0, b=0.0, rho=0.02, delta=0.3)
    assert capacity_minimizer(prob, prob.rho) == pytest.approx(1.0, abs=1e-14)
    assert capacity_minimizer(prob, prob.delta) == pytest.approx(0.0, abs=1e-14)
    # log-linear interpolant: halfway at the geometric mean radius
    assert capacity_minimizer(prob, math.sqrt(prob.rho * prob.delta)) == \
        pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ConfigError):
        capacity_minimizer(prob, 0.5)


def test_capacity_equals_minimizer_energy():
    prob = CapacityProblem(a=0.7, b=-0.4, rho=0.03, delta=0.25)
    slope = (prob.b - prob.a) / math.log(prob.delta / prob.rho)
    oracle, _ = quad(lambda r: (slope / r) ** 2 * 2 * PI * r,
                     prob.rho, prob.delta, epsabs=1e-14, epsrel=1e-12)
    assert abs(capacity_energy(prob) - oracle) < 1e-6 * oracle


def test_lower_bound_case1():
    assert lower_bound_case1(0.0, 0.0) == pytest.approx(
        -8 * PI * (math.log(PI) + 1), abs=1e-12)
    base = lower_bound_case1(1.3, -0.2)
    assert lower_bound_case1(2.3, -0.2) - base == pytest.approx(-2 * PI, abs=1e-12)
    assert lower_bound_case1(1.3, 0.8) - base == pytest.approx(-2 * PI, abs=1e-12)


def test_lower_bound_case2_and_alternate():
    assert lower_bound_case2(0.0, 0.0) == pytest.approx(-4 * PI * math.log(PI),
                                                        abs=1e-12)
    assert case2_closing_constant(0.0) == pytest.approx(
        -4 * PI - 4 * PI * math.log(PI), abs=1e-12)
    # mean enters with coefficient 2 pi in one and 2 in the other
    assert lower_bound_case2(0.0, 1.0) - lower_bound_case2(0.0, 0.0) == \
        pytest.approx(2 * PI, abs=1e-12)
    assert case2_closing_constant(1.0) - case2_closing_constant(0.0) == \
        pytest.approx(2.0, abs=1e-12)

