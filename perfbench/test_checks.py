"""Each benchmark check passes on todalab's output and fails on a perturbed one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

import checks
from todalab.bubble import lower_bound_case1
from todalab.functional import phi_eps
from todalab.geometry import make_conformal_metric, make_flat_torus
from todalab.greens import extract_expansions, green_pair_case1, green_pair_case2
from todalab.spectral import ScalarField, TorusGrid

POLE = np.array([0.5, 0.5])


@pytest.fixture(scope="module")
def one_pole():
    return green_pair_case2(POLE, make_flat_torus(32))


def test_closing_constant_closed_form():
    c_ref = checks.closing_constant_square_torus()
    assert abs(c_ref - 3.26128420953214) < 1e-13
    pair = green_pair_case1((0.25, 0.25), (0.75, 0.75), make_flat_torus(64))
    extract_expansions(pair)
    c = lower_bound_case1(pair.expansions[(1, 0)].A, pair.expansions[(2, 1)].A)
    assert checks.check_closing_constant(c, c_ref)[0]
    assert not checks.check_closing_constant(c + 1e-9, c_ref)[0]


def test_tail_gap_sign():
    c_ref = checks.closing_constant_square_torus()
    assert checks.check_deficit_row(c_ref - 1.4e-8, c_ref, tail=True)[0]
    assert checks.check_deficit_row(c_ref + 1.8e-7, c_ref, tail=False)[0]
    assert not checks.check_deficit_row(c_ref + 1e-12, c_ref, tail=True)[0]
    assert not checks.check_deficit_row(float("nan"), c_ref, tail=False)[0]


def test_deficit_slope_window():
    assert checks.check_deficit_slope(-24.82, 0.07)[0]
    assert not checks.check_deficit_slope(-8.0 * math.pi * 1.21, 0.07)[0]
    assert not checks.check_deficit_slope(-24.82, 5.1)[0]


def test_one_pole_residuals(one_pole):
    rng = np.random.default_rng(0)
    pts = rng.random((32, 2))
    pts = pts[np.hypot(*(pts - POLE).T) > 0.15]
    g1, g2 = one_pole.G1.eval, one_pole.G2.eval
    assert checks.check_one_pole_residuals(g1, g2, pts)[0]

    def bent(p):
        return g2(p) + 1e-6 * np.cos(2 * np.pi * p[:, 0])

    assert not checks.check_one_pole_residuals(g1, bent, pts)[0]


def test_one_pole_reflections(one_pole):
    disp = np.random.default_rng(1).uniform(-0.4, 0.4, (16, 2))
    g1, g2 = one_pole.G1.eval, one_pole.G2.eval
    assert checks.check_reflections(g1, g2, POLE, disp)[0]

    def tilted(p):
        return g1(p) + 1e-9 * p[:, 0]

    assert not checks.check_reflections(tilted, g2, POLE, disp)[0]


def test_one_pole_exp_integral(one_pole):
    g2 = one_pole.G2.eval
    assert checks.check_exp_integral(g2)[0]
    assert not checks.check_exp_integral(lambda p: g2(p) + 1e-9)[0]


def test_energy_traces():
    trace = list(np.linspace(1.0, 0.0, 5))
    assert checks.check_nonincreasing(trace)[0]
    assert not checks.check_nonincreasing(trace[:3] + [trace[2] + 1e-12])[0]
    assert checks.check_decreasing([3.0, 2.5, 2.2])[0]
    assert not checks.check_decreasing([3.0, 2.5, 2.5])[0]


def _cosine_metric(n):
    grid = TorusGrid(n)
    x, y = grid.mesh()
    raw = 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return grid, x, y, raw, make_conformal_metric(ScalarField(grid, raw))


def test_phi_eps_energy_matches_program():
    grid, x, y, raw, metric = _cosine_metric(32)
    phi = checks.unit_area_exponent(raw)
    u1 = np.cos(2 * np.pi * x) + 0.3 * np.sin(2 * np.pi * (x + 2 * y))
    u2 = 0.7 * np.sin(2 * np.pi * (x + y))
    program = phi_eps(ScalarField(grid, u1), ScalarField(grid, u2), 1.0, metric)
    own = checks.phi_eps_energy(u1, u2, 1.0, phi)
    assert checks.check_energy_matches(program, own)[0]
    assert not checks.check_energy_matches(program + 1e-6, own)[0]


def test_energies_agree_across_starts():
    energies = [-1.2130302810] * 3
    assert checks.check_energies_agree(energies, 0.0)[0]
    moved = energies[:2] + [energies[2] + 1e-6]
    assert not checks.check_energies_agree(moved, 0.0)[0]
    assert not checks.check_energies_agree([0.5] * 3, 0.0)[0]


def test_el_residual_critical_point():
    # u = 0 solves the Euler-Lagrange equations on every unit-area metric.
    _, x, y, raw, _ = _cosine_metric(32)
    phi = checks.unit_area_exponent(raw)
    zero = np.zeros_like(phi)
    assert checks.check_el_residual(zero, zero, 1.0, phi)[0]
    bump = 1e-4 * np.cos(2 * np.pi * x)
    assert not checks.check_el_residual(bump, zero, 1.0, phi)[0]
