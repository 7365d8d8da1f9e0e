import math

import numpy as np
import pytest

from todalab.bubble import bubble_profile_r
from todalab.diagnostics import rescaled_profile_error, sweep
from todalab.errors import ConfigError, ResolutionError
from todalab.geometry import make_flat_torus
from todalab.spectral import ScalarField, wrap_offset


def planted_bubble(grid, center, sigma):
    x = np.arange(grid.n) / grid.n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    dx = wrap_offset(xx - center[0])
    dy = wrap_offset(yy - center[1])
    r = np.hypot(dx, dy) / sigma
    return ScalarField(grid, bubble_profile_r(r))


def test_profile_error_planted_bubble_fine():
    grid = make_flat_torus(1024).grid
    u = planted_bubble(grid, (0.5, 0.5), 0.03)
    err = rescaled_profile_error(u, (0.5, 0.5), 0.0, 0.03, 1.0)
    assert err < 1e-6


def test_profile_error_planted_bubble_coarse():
    grid = make_flat_torus(256).grid
    u = planted_bubble(grid, (0.5, 0.5), 0.05)
    err = rescaled_profile_error(u, (0.5, 0.5), 0.0, 0.05, 5.0)
    assert err < 2e-4


def test_profile_error_constant_field():
    grid = make_flat_torus(64).grid
    c = 0.7
    u = ScalarField.constant(grid, c)
    # against a constant the sup deviation is the profile depth at L
    err = rescaled_profile_error(u, (0.25, 0.5), c, 0.1, 5.0)
    assert err == pytest.approx(2.0 * math.log(1.0 + 25.0 * math.pi),
                                abs=1e-12)


def test_profile_error_needs_resolution():
    grid = make_flat_torus(64).grid
    u = ScalarField.constant(grid, 0.0)
    with pytest.raises(ResolutionError):
        rescaled_profile_error(u, (0.5, 0.5), 0.0, 0.9 / 64 * 4, 1.0)


def test_sweep_eps_validation(flat64):
    with pytest.raises(ConfigError):
        sweep([], flat64)
    with pytest.raises(ConfigError):
        sweep([0.5, 1.0], flat64)
    with pytest.raises(ConfigError):
        sweep([1.0, 1.0], flat64)
    with pytest.raises(ConfigError):
        sweep([13.0, 0.5], flat64)


def test_sweep_flat_converges(flat128):
    records = sweep([1.0, 0.5], flat128)
    assert [r.eps for r in records] == [1.0, 0.5]
    for rec in records:
        assert rec.classification == "converged"
        assert rec.report is not None and rec.report.converged
        assert rec.report.iterations == 0          # zero state is critical
        assert rec.error is None
        assert rec.r == [1.0, 1.0]
        assert rec.profile_resolved
        # flat minimizer is the zero field, so the deviation is the
        # full profile depth at the sampling radius
        assert rec.profile_error == pytest.approx(
            2.0 * math.log(1.0 + 25.0 * math.pi), abs=1e-10)


def test_record_flattening(flat128):
    rec = sweep([1.0], flat128)[0].to_record()
    assert rec["eps"] == 1.0
    assert rec["classification"] == "converged"
    assert rec["error"] == ""
    assert {"r1", "r2", "x1", "y1", "x2", "y2"} <= set(rec)
    assert rec["iterations"] == 0
