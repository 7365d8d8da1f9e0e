import math

import numpy as np
import pytest

from todalab.errors import (ConfigError, DataError, GeometryError,
                            GridMismatchError)
from todalab.geometry import (
    load_conformal_metric,
    make_conformal_metric,
    make_flat_torus,
    metric_expansion_at,
)
from todalab import spectral
from todalab.spectral import ScalarField, TorusGrid, eval_at, eval_gradient_at
from torus_integrals import integrate, integrate_values

TWO_PI = 2.0 * math.pi


def cos_cos_metric(n, amp=0.3):
    grid = TorusGrid(n)
    X, Y = grid.mesh()
    raw = ScalarField(grid, amp * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y))
    return make_conformal_metric(raw)


def test_flat_torus():
    m = make_flat_torus(64)
    assert np.all(m.phi.values == 0.0)
    assert np.all(m.curvature.values == 0.0)
    assert m.area == 1.0
    assert integrate(ScalarField.constant(m.grid, 1.0), m) == 1.0
    # curvature condition: max K = 0 < 2 pi
    assert float(np.max(m.curvature.values)) < TWO_PI


def test_curvature_computed_on_first_read(monkeypatch):
    # only a read of Metric.curvature pays for its dealiased product
    calls = []
    product = spectral.product_dealiased
    monkeypatch.setattr(spectral, "product_dealiased",
                        lambda f, g: calls.append(1) or product(f, g))
    m = cos_cos_metric(32)
    assert calls == []
    k = m.curvature
    assert m.curvature is k and len(calls) == 1


def test_flat_torus_bad_n():
    with pytest.raises(ConfigError):
        make_flat_torus(12)
    with pytest.raises(ConfigError):
        make_flat_torus(20)


def test_conformal_zero_is_flat():
    grid = TorusGrid(64)
    m = make_conformal_metric(ScalarField.constant(grid, 0.0))
    assert np.max(np.abs(m.phi.values)) < 1e-14
    assert np.max(np.abs(m.curvature.values)) < 1e-12


def test_area_normalization():
    grid = TorusGrid(128)
    X, _ = grid.mesh()
    m = make_conformal_metric(ScalarField(grid, 0.7 * np.cos(TWO_PI * X)))
    assert abs(integrate(ScalarField.constant(grid, 1.0), m) - 1.0) < 1e-12
    assert abs(m.area - 1.0) < 1e-12


def test_gauss_bonnet():
    grid = TorusGrid(128)
    X, _ = grid.mesh()
    m = make_conformal_metric(ScalarField(grid, 0.4 * np.cos(TWO_PI * X)))
    assert abs(integrate(m.curvature, m)) < 1e-8
    m2 = cos_cos_metric(128)
    assert abs(integrate(m2.curvature, m2)) < 1e-8


def test_curvature_vs_finite_differences():
    # oracle: K = -(1/2) e^{-phi} Delta_0 phi with a 4th-order cross stencil
    m = cos_cos_metric(256)
    v = m.phi.values
    h = m.grid.h
    lap = np.zeros_like(v)
    for ax in (0, 1):
        lap += (-np.roll(v, -2, ax) + 16 * np.roll(v, -1, ax) - 30 * v
                + 16 * np.roll(v, 1, ax) - np.roll(v, 2, ax)) / (12 * h * h)
    k_fd = -0.5 * np.exp(-v) * lap
    scale = np.max(np.abs(k_fd))
    assert np.max(np.abs(m.curvature.values - k_fd)) < 1e-6 * scale


def test_non_finite_rejected():
    grid = TorusGrid(64)
    vals = np.zeros((64, 64))
    vals[3, 5] = np.nan
    with pytest.raises(DataError):
        make_conformal_metric(ScalarField(grid, vals))


def test_large_exponents_normalize_or_raise():
    # a constant shift is normalized away even where e^shift overflows
    grid = TorusGrid(32)
    X, Y = grid.mesh()
    smooth = 0.3 * np.cos(TWO_PI * X) * np.cos(TWO_PI * Y)
    shifted = make_conformal_metric(ScalarField(grid, smooth + 800.0))
    assert abs(shifted.area - 1.0) < 1e-14
    assert np.max(np.abs(shifted.phi.values
                         - cos_cos_metric(32).phi.values)) < 1e-12
    # a factor that underflows on the grid is no metric
    with pytest.raises(GeometryError):
        make_conformal_metric(ScalarField(grid, 800.0 * np.cos(TWO_PI * X)))


def test_expansion_flat_is_zero():
    m = make_flat_torus(64)
    e = metric_expansion_at(m, (0.3, 0.6))
    assert (e.b1, e.b2, e.curvature) == (0.0, 0.0, 0.0)
    assert e.scale == 1.0


def test_expansion_linear_coefficients():
    m = cos_cos_metric(256)
    p = np.array([0.3, 0.4])
    e = metric_expansion_at(m, p)
    grad = eval_gradient_at(m.phi, p[None, :])[0]
    # b's are derivatives in coordinates rescaled by e^{phi(p)/2}; both
    # sides are exact mode sums (measured 0.0), so only round-off is left
    phi_p = float(eval_at(m.phi, p[None, :])[0])
    s = math.exp(phi_p / 2.0)
    assert abs(e.b1 - grad[0] / s) < 1e-12
    assert abs(e.b2 - grad[1] / s) < 1e-12
    assert abs(e.scale - s) < 1e-12


def test_expansion_curvature_trace():
    # the chart's K against the dealiased curvature field interpolated at
    # p: 6.6e-14 and 1.1e-13 measured, bounded with a factor 100 margin
    m = cos_cos_metric(256)
    for p in ((0.25, 0.25), (0.3, 0.4)):
        e = metric_expansion_at(m, p)
        k_p = float(eval_at(m.curvature, np.array([p]))[0])
        assert abs(e.curvature - k_p) < 1e-11


def test_integrate_examples():
    m = make_flat_torus(64)
    X, _ = m.grid.mesh()
    f = ScalarField(m.grid, np.cos(TWO_PI * X))
    assert abs(integrate(f, m)) < 1e-13
    f2 = ScalarField(m.grid, np.cos(TWO_PI * X) ** 2)
    assert abs(integrate(f2, m) - 0.5) < 1e-13


def test_integrate_grid_mismatch():
    m = make_flat_torus(64)
    f = ScalarField.constant(TorusGrid(32), 1.0)
    with pytest.raises(GridMismatchError):
        integrate(f, m)
    with pytest.raises(GridMismatchError):
        integrate_values(np.zeros((32, 32)), m)


def test_load_conformal_metric(tmp_path):
    grid = TorusGrid(32)
    X, Y = grid.mesh()
    raw = 0.2 * np.sin(TWO_PI * X) * np.cos(TWO_PI * Y)
    path = tmp_path / "phi.txt"
    with open(path, "w") as f:
        f.write("32\n")
        np.savetxt(f, raw)
    m = load_conformal_metric(path)
    expect = make_conformal_metric(ScalarField(grid, raw))
    assert np.max(np.abs(m.phi.values - expect.phi.values)) < 1e-12
